"""Scaling curves of the boundary action, for two source trees side by side.

    python3 tools/bench_boundary_action.py --parent PARENT/src --change src \
        --repeats 3 -o BENCH_boundary_action.json

Every point runs on a new `ScaleAction` of the group's default lifting
(sigma0 for the lamplighter).  A `window` or `depth` point applies
theta(a*b) with `padic.boundary_apply` to WINDOWS seeded random digit
windows at offset 1 - m, the digit window of the copy T^(m); these two
curves run over Grigorchuk, the lamplighter and BS(1,3):

- `window`: window lengths 10 .. 1000 at the fixed copy depth
  WINDOW_DEPTH;
- `depth`: copy depths m = 0 .. 40, each window m + BELOW digits long.

A `dilation` point calls the public `padic.dilation_factor_empirical`
on one of DILATION_ELEMENTS with 250 .. 4000 sample pairs, over
Grigorchuk, the lamplighter and gs7, so both trees run the same child
code.  The generator product `a*b` acts on each window at its own
offset; `t^-2*a*t^5` lifts it two places first and widens its margin.
On gs7 both build sigma-power memo entries for most pairs, which binding
theta(e) once does not save.  `t` applies no word, so its curve is the
sampler's own cost per pair: the draw, its read-off and the comparison.

A point is the median over the repeats of `cpu_s` (CPU seconds of the
applications or of the sampling), `entries` (size of the sigma-power
memo afterwards) and `peak_rss_mb`; `digest` (a hash of the images, or
the sampled exponent) and `entries` must be equal on the two trees, and
`change_over_parent` is the ratio of their `cpu_s`.  The gates ask only
that every point finish on both trees with equal answers and that the
deepest copies stay cheap; a claimed gain is read from
`change_over_parent`.  The fresh interpreters, the alternation of parent
and change, the timeouts and the memory cap are those of
`tools/benchlib.py`.
"""

import argparse
import hashlib
import random
import resource
import sys
import time

import benchlib

GROUPS = ("grigorchuk", "lamplighter", "bs13")
WINDOW_LENGTHS = (10, 30, 100, 300, 1000)
WINDOW_DEPTH = 10
DEPTHS = (0, 5, 10, 20, 30, 40)
BELOW = 10
WINDOWS = 20
DILATION_GROUPS = ("grigorchuk", "lamplighter", "gs7")
DILATION_ELEMENTS = ("t^-2*a*t^5", "a*b", "t")
SAMPLES = (250, 500, 1000, 2000, 4000)


def child(curve, gid, *size):
    """One point; a dilation point is (element, samples), any other a size."""
    from arboreal import catalog
    from arboreal.hnn import ScaleAction, parse_hnn
    from arboreal.padic import BoundaryPoint, boundary_apply, dilation_factor_empirical
    *element, n = size
    n = int(n)
    entry = catalog.get(gid)
    action = ScaleAction(entry.automaton, entry.sigma())
    if curve == "dilation":
        e = parse_hnn(element[0], action)
        t0 = time.process_time()
        digest = dilation_factor_empirical(e, action, samples=n, seed=1)
        cpu = time.process_time() - t0
    else:
        m, length = (WINDOW_DEPTH, n) if curve == "window" else (n, n + BELOW)
        e = action.element(entry.element("a*b").word)
        d, letter = entry.automaton.size, action.letter
        rng = random.Random(f"{curve} {gid} {n}")
        points = [BoundaryPoint(1 - m, tuple(rng.randrange(d) for _ in range(length)), d, letter)
                  for _ in range(WINDOWS)]
        t0 = time.process_time()
        images = [boundary_apply(e, x, action) for x in points]
        cpu = time.process_time() - t0
        digest = (hashlib.sha256(repr([(y.offset, y.digits) for y in images]).encode())
                  .hexdigest()[:16])
    return {"cpu_s": cpu, "entries": len(action._act_cache),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": digest}


def measure(src, point):
    return benchlib.run_child(__file__, src, *point)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    points = ([("window", gid, n) for gid in GROUPS for n in WINDOW_LENGTHS]
              + [("depth", gid, m) for gid in GROUPS for m in DEPTHS]
              + [("dilation", gid, text, n) for gid in DILATION_GROUPS
                 for text in DILATION_ELEMENTS for n in SAMPLES])
    sides = {"parent": args.parent, "change": args.change}
    results = benchlib.compare(sides, points, args.repeats, measure)
    curves = []
    for (curve, gid, *element, n), row in results.items():
        benchlib.same_answers(row, ("digest", "entries"))
        both = [side for side in row.values() if isinstance(side, dict)]
        ratio = {"change_over_parent": round(both[1]["cpu_s"] / both[0]["cpu_s"], 3)
                 } if len(both) == 2 else {}
        named = {"element": element[0]} if element else {}
        curves.append({"curve": curve, "group": gid, **named, "n": n, **row, **ratio})
    deepest = [results[("depth", gid, DEPTHS[-1])]["change"] for gid in GROUPS]
    finished = all(isinstance(side, dict) for row in results.values() for side in row.values())
    report = benchlib.report_header("tools/bench_boundary_action.py", args.repeats)
    report["setup"] = {"element": "a*b", "windows": WINDOWS, "window_depth": WINDOW_DEPTH,
                       "digits_below_the_dot": BELOW, "dilation_elements": DILATION_ELEMENTS,
                       "dilation_seed": 1}
    report["gates"] = {
        "every point finishes on both sides": finished,
        "every point's digest and entries match the parent's":
            finished and all(row["change"][key] == row["parent"][key]
                             for row in results.values() for key in ("digest", "entries")),
        f"at depth {DEPTHS[-1]} the change's cpu_s < 1":
            finished and all(s["cpu_s"] < 1 for s in deepest),
    }
    report["curves"] = curves
    benchlib.write_report(args.output, report)


if __name__ == "__main__":
    if not benchlib.child_main(child):
        sys.exit(main())
