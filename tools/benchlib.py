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
"""

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


def run_cli(src, *argv, timeout=TIMEOUT_S):
    """(wall seconds, parsed JSON stdout) of one `python -m arboreal.cli` process."""
    cmd = [sys.executable, "-s", "-m", "arboreal.cli", *map(str, argv)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True,
                              timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    return time.perf_counter() - t0, json.loads(proc.stdout)


def child_main(child):
    """Run `child(*args)` and print its dict when invoked with --child ARGS.

    Prints "memory" instead when the point exceeds MEMORY_CAP_BYTES.
    """
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
        try:
            out = child(*sys.argv[2:])
        except MemoryError:
            out = "memory"
        print(json.dumps(out))
        return True
    return False


def summarise(samples):
    """Median of every numeric entry; other entries are taken from the first sample."""
    for bad in FAILED:
        if bad in samples:
            return bad
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
                    got.append(measure(sides[side], point))
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
    }


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
