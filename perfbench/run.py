"""Benchmark for arboreal, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round of a workload runs in a fresh single-threaded interpreter
(worker.py) that imports arboreal from ./src, builds the catalog, runs
the workload's fixed operation list for this seed, and then checks every
answer.  Rounds repeat until S seconds of measurement have passed; each
run makes at least one whole round.

--trace 0 reports the end-to-end metrics, after a few set-up-only
probes.  Times are CPU seconds of the rounds' processes, which this
single-threaded, CPU-bound package turns into wall time one for one on an
idle machine, scaled to reference speed: every process also times a
fixed computation that does not touch arboreal, and times are multiplied
by REFERENCE_NOMINAL_S over the run's median reference time, so that the
host's own drift in speed drops out.  Set-up time and peak memory are
medians over the processes, the round's CPU time is the sum of each
operation's median, and the median operation time is taken over all
operations.  --trace 1 alternates plain and traced rounds and reports the
per-module metrics of the traced rounds together with the tracing
overhead.  The last line of standard output is one JSON object; the exit
code is 0 when every answer checked out, 1 when one did not, and 2 or 3
when nothing could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("level-images", "word-problem", "boundary-action", "acceptance")

SETUP_PROBES = 6
# CPU time of worker.reference_s on the reference machine (2 cores,
# Python 3.11.7) at a typical moment; times are reported at this speed.
REFERENCE_NOMINAL_S = 0.020
DEADLINE_S = 170    # a run never starts a round it cannot finish by then

# span name -> name of its call count metric (None: only its time is reported)
LAYER_SPANS = {
    "core.trivial": "calls",
    "core.act": "calls",
    "core.section": "calls",
    "words.parse": "calls",
    "levels.level_perm": "calls",
    "levels.chain": "builds",
    "levels.sift": "calls",
    "levels.enumerate": None,
    "levels.stabilizer": None,
    "lifting.sigma": "calls",
    "lifting.certificate": None,
    "hnn.theta_apply": "calls",
    "hnn.multiply": "calls",
    "hnn.witness": None,
    "padic.boundary_apply": "calls",
    "padic.dilation": None,
}
CRITERIA = 9


class BenchError(RuntimeError):
    pass


def run_worker(mode, workload, seed, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, "-s", WORKER, mode, workload, str(seed), SRC]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} ran past the run's deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} round of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def rounds(modes, workload, seed, seconds, deadline):
    """Whole rounds, cycling through `modes`, for at least `seconds`."""
    out = {mode: [] for mode in modes}
    start = time.monotonic()
    longest = 0.0
    while True:
        for mode in modes:
            t0 = time.monotonic()
            out[mode].append(run_worker(mode, workload, seed, deadline))
            longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - start >= seconds or now + len(modes) * longest > deadline:
            return out


def end_to_end(results, setups):
    # A round's CPU time, as the sum of each operation's median over the
    # rounds: a burst of host load that slows a few rounds drops out.
    per_op = zip(*(r["op_s"] for r in results))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "norm_cpu_s": (sum(statistics.median(times) for times in per_op), "s"),
        "norm_op_p50_ms": (1000 * statistics.median(t for r in results for t in r["op_s"]), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def at_reference_speed(metrics, factor):
    """Times scaled by REFERENCE_NOMINAL_S over the run's reference time."""
    scale = {"s": factor, "ms": factor, "1/s": 1 / factor}
    return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in metrics.items()}


def per_layer(plain, traced):
    """Per-module metrics: medians over the traced rounds; times are self times."""
    def one(r):
        spans = r["spans"]
        counters = r["counters"]
        m = {}
        for span, count_name in LAYER_SPANS.items():
            calls, _, own = spans.get(span, (0, 0.0, 0.0))
            if count_name:
                m[f"{span}.{count_name}"] = (calls, "count")
            m[f"{span}.s"] = (own, "s")
        m["core.trivial.memo_words"] = (counters["core.trivial.memo_words"], "count")
        m["hnn.sigma_cache.entries"] = (counters["hnn.sigma_cache.entries"], "count")
        m["levels.level_perm.points"] = (counters.get("levels.level_perm.points", 0), "count")
        parse_s = m["words.parse.s"][0]
        factors = counters.get("words.parse.factors", 0)
        m["words.parse.factors_per_s"] = (factors / parse_s if parse_s else 0.0, "1/s")
        m["catalog.build.s"] = (r["catalog_build_s"], "s")
        for k in range(1, CRITERIA + 1):
            # a criterion is a whole operation: its time includes its callees
            m[f"acceptance.criterion-{k}.s"] = (spans.get(f"acceptance.criterion-{k}",
                                                          (0, 0.0, 0.0))[1], "s")
        return m

    each = [one(r) for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in each), unit)
               for name, (_, unit) in each[0].items()}
    overhead = (statistics.median(r["cpu_s"] for r in traced)
                - statistics.median(r["cpu_s"] for r in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arboreal", "__init__.py")):
        print(f"no arboreal sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            done = rounds(("plain", "traced"), args.workload, args.seed, args.seconds, deadline)
            results = done["plain"] + done["traced"]
            metrics = per_layer(done["plain"], done["traced"])
            results_and_probes = results
        else:
            probes = [run_worker("probe", args.workload, args.seed, deadline)
                      for _ in range(SETUP_PROBES)]
            results = rounds(("plain",), args.workload, args.seed, args.seconds,
                             deadline)["plain"]
            metrics = end_to_end(results, [r["setup_s"] for r in probes + results])
            results_and_probes = results + probes
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 3

    reference = statistics.median(t for r in results_and_probes for t in r["reference_s"])
    metrics = at_reference_speed(metrics, REFERENCE_NOMINAL_S / reference)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    problems = [p for r in results for p in r["problems"]]
    failing = sorted({f"{name}: {error}" for r in results for _, name, error in r["failures"]})
    print(f"{args.workload} seed {args.seed}: {len(results)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"  host: reference {1000 * reference:.2f} ms of CPU (nominal "
          f"{1000 * REFERENCE_NOMINAL_S:.2f} ms); median round {statistics.median(r['cpu_s'] for r in results):.3f} s "
          f"of CPU, {statistics.median(r['wall_s'] for r in results):.3f} s of wall clock, unscaled")
    for line in failing:
        print(f"  failed  {line}")
    for line in problems[:20]:
        print(f"  WRONG   {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
