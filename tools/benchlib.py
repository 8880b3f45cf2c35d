"""Fresh-interpreter measurements of two source trees, side by side.

A harness names its points (tuples) and gives `measure(src, point)`,
which times one point in a new interpreter: `run_child` re-runs the
harness script with `--child` and PYTHONPATH set to one source tree, and
the script's `child_main` answers with one JSON object.  `compare` runs
every point on both trees for a number of repeats, the parent and the
change alternating in order from one repeat to the next, and reduces
each side's samples to medians.

A point that runs past the timeout is recorded as "timeout" and is not
repeated: the work is deterministic, so it would time out again.  A child
runs with its address space capped at MEMORY_CAP_BYTES, so that a point
whose memory grows without bound stops before it crowds the host; one
that runs out is recorded as "memory", like a timeout.  Points of one
curve (same tuple but for the last entry, the size) that are larger than
a point that timed out or ran out of memory are recorded as "skipped".

Times are scaled to reference speed as `perfbench/run.py` scales them:
every child also times the benchmark's fixed reference computation
(`reference_s` in `perfbench/worker.py`, REFERENCE_TIMINGS times before
its point and as many after it), and each `*_s` entry of its answer is
multiplied by `perfbench/run.py`'s REFERENCE_NOMINAL_S over the median
of all those timings, so the host's drift in speed between samples drops
out, and a drift during the point weighs on both sides of it.  A
sample measured outside a child (`run_cli`) is scaled by a reference
timed in the harness right after it.  Each summary also keeps the median of
every unscaled `X_s` entry as `X_raw` (`cpu_raw` beside `cpu_s`).
"""

import functools
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

TIMEOUT_S = 60
MEMORY_CAP_BYTES = 2 ** 31
FAILED = ("timeout", "memory", "skipped")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
REFERENCE_TIMINGS = 3


@functools.lru_cache(maxsize=None)
def _perfbench(name):
    """perfbench/NAME.py imported by path; perfbench/ joins the end of sys.path
    for the modules it imports itself (worker.reference_s imports oracle)."""
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_timings():
    """CPU seconds of REFERENCE_TIMINGS runs of perfbench's reference computation."""
    worker = _perfbench("worker")
    return [worker.reference_s() for _ in range(REFERENCE_TIMINGS)]


def reference_nominal_s():
    return _perfbench("run").REFERENCE_NOMINAL_S


def _env(src):
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")


def run_child(script, src, *args, timeout=TIMEOUT_S):
    """The dict that `script --child ARGS` prints, run against one source tree."""
    cmd = [sys.executable, "-s", script, "--child", *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True,
                              timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    return json.loads(proc.stdout)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(src, *argv, timeout=TIMEOUT_S):
    """(wall seconds, CPU seconds, parsed JSON stdout) of one `python -m
    arboreal.cli` process; the CPU is the process's user and system time."""
    cmd = [sys.executable, "-s", "-m", "arboreal.cli", *map(str, argv)]
    cpu0, t0 = _children_cpu_s(), time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True,
                              timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    return time.perf_counter() - t0, _children_cpu_s() - cpu0, json.loads(proc.stdout)


def child_main(child):
    """Run `child(*args)` and print its dict when invoked with --child ARGS.

    The dict gains `reference_s`, the reference timings made before the
    point and after it.  Prints "memory" instead when the point exceeds
    MEMORY_CAP_BYTES.
    """
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
        try:
            before = reference_timings()
            out = child(*sys.argv[2:])
            out["reference_s"] = before + reference_timings()
        except MemoryError:
            out = "memory"
        print(json.dumps(out))
        return True
    return False


def at_reference_speed(sample, nominal_s):
    """The sample with every `*_s` entry scaled by nominal_s over the median
    of its reference timings, which become `reference_s`, that median, unscaled.
    Each scaled `X_s` is also kept unscaled as `X_raw`, which shows a long
    point scaled by one unlucky reference draw."""
    reference = statistics.median(sample["reference_s"])
    timed = [key for key, value in sample.items()
             if key.endswith("_s") and isinstance(value, (int, float))]
    return ({key: value * nominal_s / reference if key in timed else value
             for key, value in sample.items() if key != "reference_s"}
            | {key[:-2] + "_raw": sample[key] for key in timed} | {"reference_s": reference})


def summarise(samples):
    """Median of every numeric entry; other entries are taken from the first sample."""
    for bad in FAILED:
        if bad in samples:
            return bad
    nominal_s = reference_nominal_s()
    samples = [at_reference_speed(s, nominal_s) for s in samples]
    out = {"repeats": len(samples)}
    for key, value in samples[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = round(statistics.median(s[key] for s in samples), 6)
        else:
            out[key] = value
    return out


def compare(sides, points, repeats, measure):
    """{point: {side: summary}} over alternating repeats; progress goes to stderr."""
    samples = {(side, point): [] for side in sides for point in points}
    for rep in range(repeats):
        order = list(sides) if rep % 2 == 0 else list(reversed(list(sides)))
        for point in points:
            for side in order:
                got = samples[(side, point)]
                if got and got[0] in FAILED:
                    continue
                if any(p[:-1] == point[:-1] and p[-1] < point[-1]
                       and next(iter(samples[(side, p)]), None) in FAILED
                       for p in points):
                    got.append("skipped")
                else:
                    sample = measure(sides[side], point)
                    if isinstance(sample, dict) and "reference_s" not in sample:
                        sample["reference_s"] = reference_timings()
                    got.append(sample)
                print(side, *point, got[-1], file=sys.stderr, flush=True)
    return {point: {side: summarise(samples[(side, point)]) for side in sides}
            for point in points}


def same_answers(row, keys):
    """Raise if both sides finished a point and disagree on one of `keys`."""
    done = [s for s in row.values() if isinstance(s, dict)]
    for key in keys:
        if len({json.dumps(s.get(key)) for s in done}) > 1:
            raise AssertionError(f"parent and change differ in {key!r}: {row}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_header(harness, repeats):
    return {
        "harness": harness,
        "python": platform.python_version(),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": f"{platform.system()} {platform.release()}"},
        "timeout_s": TIMEOUT_S,
        "memory_cap_bytes": MEMORY_CAP_BYTES,
        "repeats": repeats,
        "reference": {
            "computation": "perfbench/worker.py reference_s: breadth-first closure of a "
                           "32-cycle and a transposition, stopped at 8000 elements, gc off",
            "timings_per_sample": f"{REFERENCE_TIMINGS} before and {REFERENCE_TIMINGS} after "
                                  f"a child's point; {REFERENCE_TIMINGS} after a `run_cli` sample",
            "nominal_s": reference_nominal_s(),
            "scaling": "every *_s entry of a sample is multiplied by nominal_s over the "
                       "median of that sample's reference timings; reference_s is that "
                       "median, unscaled, and each X_raw the unscaled X_s",
        },
    }


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
