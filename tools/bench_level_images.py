"""Scaling curves of the level images, for two source trees side by side.

    python3 tools/bench_level_images.py --parent PARENT/src --change src \
        --repeats 3 -o BENCH_level_images.json

Every point runs in a fresh interpreter with PYTHONPATH set to one source
tree, and the parent and the change alternate within each repeat.  A
point is the median over the repeats of:

- `order_cpu_s`: CPU seconds of `perm_group_on_level(gens, n).order()`,
  which includes `level_perm` of the generators and the chain build;
- `sift_us` (sift points): median CPU microseconds of one membership
  test, over seeded images of random words of length 24;
- `cli_wall_s` and `cli_cpu_s` (cli points): wall and CPU seconds of a
  whole `python -m arboreal.cli perm-group-on-level` process;
- `order_cpu_s` (generic points): CPU seconds of
  `_PointChain(group.gens, d ** n).order()` alone, the generic
  Schreier-Sims chain on groups that the tree chain also serves, and on
  the Hanoi towers group (`HANOI`), which only the generic chain serves;
- `level_perm_cpu_s` (level_perm points): CPU seconds of one
  `level_perm` of the product of the group's generators, with
  `level_perm_peak_mb`, the tracemalloc peak of a second such call, and
  `digest`, a hash of the image array that both trees must agree on.

The fresh interpreters, the alternation and the timeouts are those of
`tools/benchlib.py`.
"""

import argparse
import hashlib
import random
import statistics
import time
import tracemalloc

import benchlib

ORDER_POINTS = ([("grigorchuk", n) for n in range(3, 10)]
                + [("basilica", n) for n in range(3, 10)]
                + [("gs3", n) for n in range(2, 7)]
                + [("gs5", n) for n in range(3, 6)]
                + [("gs7", 3), ("gs7", 4)])
SIFT_POINTS = [("grigorchuk", 6), ("basilica", 6)]
CLI_POINTS = [("gs7", 3), ("grigorchuk", 8)]
GENERIC_POINTS = [("gs7", 3), ("gs3", 4), ("gs3", 5), ("gs5", 3),
                  ("hanoi", 3), ("hanoi", 4), ("hanoi", 5)]
HANOI = "a=(a,1,1)(2,3),b=(1,b,1)(1,3),c=(1,1,c)(1,2)"
LEVEL_PERM_POINTS = [(gid, n) for gid in ("grigorchuk", "basilica", "lamplighter", "bs13")
                     for n in (8, 11, 14, 17)]
SIFT_WORDS = 64
SIFT_WORD_LENGTH = 24


def child(kind, gid, n):
    """One point, measured in this interpreter; returns a dict."""
    from arboreal import catalog
    from arboreal.core import parse_wreath_spec
    from arboreal.levels import LevelPermGroup, _PointChain, level_perm, perm_group_on_level
    n = int(n)
    if kind == "generic":
        aut = parse_wreath_spec(HANOI) if gid == "hanoi" else catalog.get(gid).automaton
        group = LevelPermGroup(aut.size, n, [level_perm(g, n)
                                             for g in aut.generator_elements().values()])
        t0 = time.process_time()
        order = _PointChain(group.gens, aut.size ** n).order()
        return {"order_cpu_s": time.process_time() - t0, "order": str(order)}
    entry = catalog.get(gid)
    if kind == "level_perm":
        g = entry.automaton.element("*".join(entry.generators))
        t0 = time.process_time()
        images = level_perm(g, n)
        cpu = time.process_time() - t0
        tracemalloc.start()
        level_perm(g, n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"level_perm_cpu_s": cpu, "level_perm_peak_mb": peak / 2 ** 20,
                "digest": hashlib.sha256(repr(images).encode()).hexdigest()[:16]}
    gens = list(entry.elements().values())
    t0 = time.process_time()
    group = perm_group_on_level(gens, n)
    order = group.order()
    out = {"order_cpu_s": time.process_time() - t0, "order": str(order)}
    if kind == "sift":
        rng = random.Random(1)
        aut = entry.automaton
        perms = [level_perm(aut.element("*".join(rng.choice(entry.generators) + rng.choice(("", "^-1"))
                                                 for _ in range(SIFT_WORD_LENGTH))), n)
                 for _ in range(SIFT_WORDS)]
        times = []
        for p in perms:
            t0 = time.process_time()
            if p not in group:
                raise AssertionError("a word image sifted out of its group")
            times.append(time.process_time() - t0)
        out["sift_us"] = statistics.median(times) * 1e6
    return out


def measure(src, point):
    kind, gid, n = point
    if kind == "cli":
        got = benchlib.run_cli(src, "perm-group-on-level", "--group", gid, "--level", n,
                               "--format", "json")
        if got == "timeout":
            return got
        wall, cpu, result = got
        return {"cli_wall_s": wall, "cli_cpu_s": cpu, "order": str(result["order"])}
    return benchlib.run_child(__file__, src, kind, gid, n)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    points = ([("order", gid, n) for gid, n in ORDER_POINTS]
              + [("sift", gid, n) for gid, n in SIFT_POINTS]
              + [("cli", gid, n) for gid, n in CLI_POINTS]
              + [("generic", gid, n) for gid, n in GENERIC_POINTS]
              + [("level_perm", gid, n) for gid, n in LEVEL_PERM_POINTS])
    sides = {"parent": args.parent, "change": args.change}
    results = benchlib.compare(sides, points, args.repeats, measure)
    curves = []
    for (kind, gid, n), row in results.items():
        benchlib.same_answers(row, ("order", "digest"))
        curves.append({"kind": kind, "group": gid, "level": n, **row})
    grig8 = results[("order", "grigorchuk", 8)]["change"]
    gs5 = results[("order", "gs5", 5)]["change"]
    gs7 = results[("cli", "gs7", 3)]["change"]
    bs13 = results[("level_perm", "bs13", 17)]["change"]
    generic = results[("generic", "gs7", 3)]["change"]
    report = benchlib.report_header("tools/bench_level_images.py", args.repeats)
    report["gates"] = {
        "grigorchuk level 8 order_cpu_s <= 2":
            isinstance(grig8, dict) and grig8["order_cpu_s"] <= 2,
        "gs5 level 5 order_cpu_s < 5": isinstance(gs5, dict) and gs5["order_cpu_s"] < 5,
        "perm-group-on-level --group gs7 --level 3 cli_wall_s < 1":
            isinstance(gs7, dict) and gs7["cli_wall_s"] < 1,
        "level_perm of bs13 a*b*c at level 17 level_perm_cpu_s < 2":
            isinstance(bs13, dict) and bs13["level_perm_cpu_s"] < 2,
        "generic gs7 level 3 order_cpu_s < 1":
            isinstance(generic, dict) and generic["order_cpu_s"] < 1,
    }
    report["curves"] = curves
    benchlib.write_report(args.output, report)


if __name__ == "__main__":
    if not benchlib.child_main(child):
        main()
