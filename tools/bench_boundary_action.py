"""Scaling curves of the boundary action, for two source trees side by side.

    python3 tools/bench_boundary_action.py --parent PARENT/src --change src \
        --repeats 3 -o BENCH_boundary_action.json

A point applies theta(a*b) with `padic.boundary_apply` to WINDOWS seeded
random digit windows at offset 1 - m, the digit window of the copy
T^(m), on a new `ScaleAction` of the group's default lifting.  Two
curves, each over Grigorchuk, the lamplighter (sigma0) and BS(1,3):

- `window`: window lengths 10 .. 1000 at the fixed copy depth
  WINDOW_DEPTH;
- `depth`: copy depths m = 0 .. 40, each window m + BELOW digits long.

A point is the median over the repeats of `cpu_s` (CPU seconds of the
WINDOWS applications), `entries` (size of the sigma-power memo
afterwards) and `peak_rss_mb`; `digest` (a hash of the images) lets the
two trees' answers be compared.  The fresh interpreters, the alternation
of parent and change, the timeouts and the memory cap are those of
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


def child(curve, gid, n):
    from arboreal import catalog
    from arboreal.hnn import ScaleAction
    from arboreal.padic import BoundaryPoint, boundary_apply
    n = int(n)
    m, length = (WINDOW_DEPTH, n) if curve == "window" else (n, n + BELOW)
    entry = catalog.get(gid)
    action = ScaleAction(entry.automaton, entry.sigma())
    e = action.element(entry.element("a*b").word)
    d, letter = entry.automaton.size, action.letter
    rng = random.Random(f"{curve} {gid} {n}")
    points = [BoundaryPoint(1 - m, tuple(rng.randrange(d) for _ in range(length)), d, letter)
              for _ in range(WINDOWS)]
    t0 = time.process_time()
    images = [boundary_apply(e, x, action) for x in points]
    cpu = time.process_time() - t0
    return {"cpu_s": cpu, "entries": len(action._act_cache),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": hashlib.sha256(repr([(y.offset, y.digits) for y in images]).encode())
            .hexdigest()[:16]}


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
              + [("depth", gid, m) for gid in GROUPS for m in DEPTHS])
    sides = {"parent": args.parent, "change": args.change}
    results = benchlib.compare(sides, points, args.repeats, measure)
    curves = []
    for (curve, gid, n), row in results.items():
        benchlib.same_answers(row, ("digest",))
        curves.append({"curve": curve, "group": gid, "n": n, **row})
    deepest = [results[("depth", gid, DEPTHS[-1])]["change"] for gid in GROUPS]
    report = benchlib.report_header("tools/bench_boundary_action.py", args.repeats)
    report["setup"] = {"element": "a*b", "windows": WINDOWS, "window_depth": WINDOW_DEPTH,
                       "digits_below_the_dot": BELOW}
    report["gates"] = {
        f"every change point finishes; at depth {DEPTHS[-1]} cpu_s < 1":
            all(isinstance(row["change"], dict) for row in results.values())
            and all(s["cpu_s"] < 1 for s in deepest),
    }
    report["curves"] = curves
    benchlib.write_report(args.output, report)


if __name__ == "__main__":
    if not benchlib.child_main(child):
        sys.exit(main())
