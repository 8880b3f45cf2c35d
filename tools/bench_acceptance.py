"""Scaling curves of the checks behind acceptance criteria 7, 8 and 9, for two
source trees side by side.

    python3 tools/bench_acceptance.py --parent PARENT/src --change src \
        --repeats 5 -o BENCH_acceptance.json

Every point is one `checks.run_check` call in a new interpreter, after
the catalog is built:

- `spine`: `spine --depth 0 .. 4` on every group with a lifting, the
  check behind criterion 7's `spine` rows: theta(g) compared with the
  written-out sigma^m(g) on the box of windows m, |w| <= depth, per
  generator (criterion 7's `dilation` rows read the exponent off the
  element and take no time); the groups are read from the change tree's
  `acceptance`;
- `n-max`: `lamplighter-core --n-max 4 .. 12`, the lamplighter core
  lemma of criterion 8, decided exactly per n;
- `properties`: the seeded property suites of criterion 9, one point,
  run PROPERTIES_REPEATS times as often as the others: a cold run of
  about 0.1-0.2 s scaled by one child's reference timings is too noisy
  at the usual repeats to resolve a change of 10%;
- `stabilizer-projection`: `--depth 0 .. 6` on Grigorchuk and Basilica,
  whose kernel scan runs through `hnn.moved_vertex`, the box scan that
  criterion 9 also runs, without its random elements.

A point is the median over the repeats of `cpu_s` (CPU seconds of the
check, scaled to reference speed by `tools/benchlib.py`), `cpu_raw` (the
same, unscaled) and `peak_rss_mb`; `status` and `digest` (a hash of the
evidence) let the two trees' answers be compared.  The gates ask only
that every point pass on both trees with equal digests; a claimed gain is
read from `change_over_parent`, the ratio of the `cpu_s` medians, beside
`change_over_parent_raw`, the ratio of the `cpu_raw` medians.  The fresh
interpreters, the alternation of parent and change, the timeouts and the
memory cap are those of `tools/benchlib.py`.
"""

import argparse
import hashlib
import json
import resource
import sys
import time

import benchlib

N_MAX = tuple(range(4, 13))
CONTROL_GROUPS = ("grigorchuk", "basilica")
DEPTHS = tuple(range(7))
SPINE_DEPTHS = tuple(range(5))
PROPERTIES_REPEATS = 4


def params(curve, *point):
    """The check and params of a point; a spine point is (group, depth)."""
    if curve == "spine":
        gid, depth = point
        return "spine", {"group": gid, "depth": int(depth)}
    n = int(point[0])
    if curve == "n-max":
        return "lamplighter-core", {"n_max": n}
    if curve == "properties":
        return "properties", {}
    return "stabilizer-projection", {"group": curve, "depth": n}


def child(curve, *point):
    from arboreal import catalog
    from arboreal.checks import run_check
    catalog.catalog()
    check, kwargs = params(curve, *point)
    t0 = time.process_time()
    report = run_check(check, kwargs)
    cpu = time.process_time() - t0
    evidence = json.dumps(report.evidence, sort_keys=True, default=str)
    return {"cpu_s": cpu, "status": report.status,
            "digest": hashlib.sha256(evidence.encode()).hexdigest()[:16],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure(src, point):
    return benchlib.run_child(__file__, src, *point)


def ratio(row, key):
    """The change's `key` over the parent's, or None when a side did not finish."""
    if not all(isinstance(side, dict) for side in row.values()):
        return None
    return round(row["change"][key] / row["parent"][key], 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.change)
    from arboreal.acceptance import GENERATOR_PRODUCTS   # criterion 7's groups
    points = ([("spine", gid, depth) for gid in GENERATOR_PRODUCTS for depth in SPINE_DEPTHS]
              + [("n-max", n) for n in N_MAX]
              + [(gid, depth) for gid in CONTROL_GROUPS for depth in DEPTHS])
    sides = {"parent": args.parent, "change": args.change}
    results = benchlib.compare(sides, points, args.repeats, measure)
    results |= benchlib.compare(sides, [("properties", 0)],
                                PROPERTIES_REPEATS * args.repeats, measure)
    curves = []
    for (curve, *point), row in results.items():
        benchlib.same_answers(row, ("status", "digest"))
        check, kwargs = params(curve, *point)
        curves.append({"curve": curve, "check": check, "params": kwargs, **row,
                       "change_over_parent": ratio(row, "cpu_s"),
                       "change_over_parent_raw": ratio(row, "cpu_raw")})
    report = benchlib.report_header("tools/bench_acceptance.py", args.repeats)
    report["gates"] = {
        "every point finishes on both sides with status pass":
            all(isinstance(side, dict) and side["status"] == "pass"
                for row in results.values() for side in row.values()),
        "every point's digest matches the parent's":
            all(isinstance(side, dict) for row in results.values() for side in row.values())
            and all(row["change"]["digest"] == row["parent"]["digest"]
                    for row in results.values()),
    }
    report["curves"] = curves
    benchlib.write_report(args.output, report)


if __name__ == "__main__":
    if not benchlib.child_main(child):
        sys.exit(main())
