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
- `cli_wall_s` (cli points): wall seconds of a whole
  `python -m arboreal.cli perm-group-on-level` process.

A point that runs past the timeout is recorded as "timeout" and is not
repeated: the chains are deterministic, so it would time out again.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

TIMEOUT_S = 60
ORDER_POINTS = ([("grigorchuk", n) for n in range(3, 9)]
                + [("basilica", n) for n in range(3, 9)]
                + [("gs3", n) for n in range(2, 5)]
                + [("gs5", 3), ("gs7", 3)])
SIFT_POINTS = [("grigorchuk", 6), ("basilica", 6)]
CLI_POINTS = [("gs7", 3), ("grigorchuk", 8)]
SIFT_WORDS = 64
SIFT_WORD_LENGTH = 24


def child(kind, gid, n):
    """One point, measured in this interpreter; returns a dict."""
    from arboreal import catalog
    from arboreal.levels import level_perm, perm_group_on_level
    entry = catalog.get(gid)
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


def run_point(src, kind, gid, n):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    if kind == "cli":
        cmd = [sys.executable, "-s", "-m", "arboreal.cli", "perm-group-on-level",
               "--group", gid, "--level", str(n), "--format", "json"]
    else:
        cmd = [sys.executable, "-s", __file__, "--child", kind, gid, str(n)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    wall = time.perf_counter() - t0
    result = json.loads(proc.stdout)
    if kind == "cli":
        return {"cli_wall_s": wall, "order": str(result["order"])}
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(samples):
    if "timeout" in samples:
        return "timeout"
    out = {"repeats": len(samples), "order": samples[0]["order"]}
    for key in samples[0]:
        if key != "order":
            out[key] = round(statistics.median(s[key] for s in samples), 6)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    points = ([("order", gid, n) for gid, n in ORDER_POINTS]
              + [("sift", gid, n) for gid, n in SIFT_POINTS]
              + [("cli", gid, n) for gid, n in CLI_POINTS])
    sides = {"parent": args.parent, "change": args.change}
    samples = {(side, point): [] for side in sides for point in points}
    for rep in range(args.repeats):
        order = list(sides) if rep % 2 == 0 else list(reversed(list(sides)))
        for point in points:
            for side in order:
                got = samples[(side, point)]
                if "timeout" not in got:
                    got.append(run_point(sides[side], *point))
                    print(side, *point, got[-1], file=sys.stderr, flush=True)
    curves = []
    for point in points:
        kind, gid, n = point
        row = {"kind": kind, "group": gid, "level": n}
        for side in sides:
            row[side] = summarise(samples[(side, point)])
        if "timeout" not in (row["parent"], row["change"]):
            if row["parent"]["order"] != row["change"]["order"]:
                raise AssertionError(f"orders differ at {point}")
        curves.append(row)
    by_point = {(row["kind"], row["group"], row["level"]): row["change"] for row in curves}
    grig8 = by_point[("order", "grigorchuk", 8)]
    gs7 = by_point[("cli", "gs7", 3)]
    report = {
        "harness": "tools/bench_level_images.py",
        "python": platform.python_version(),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": f"{platform.system()} {platform.release()}"},
        "timeout_s": TIMEOUT_S,
        "repeats": args.repeats,
        "gates": {
            "grigorchuk level 8 order_cpu_s <= 2":
                grig8 != "timeout" and grig8["order_cpu_s"] <= 2,
            "perm-group-on-level --group gs7 --level 3 cli_wall_s < 1":
                gs7 != "timeout" and gs7["cli_wall_s"] < 1,
        },
        "curves": curves,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
    else:
        main()
