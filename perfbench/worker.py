"""One round of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/worker.py MODE WORKLOAD SEED SRC

MODE is `probe` (set up and exit), `plain` (set up, run the round's
operations, check the answers) or `traced` (the same, with spans around
the calls into arboreal's modules).  SRC is the directory arboreal must be
imported from.  Times are CPU seconds of this process: set-up is the CPU
time from interpreter start to a built catalog, and each operation is
timed alone.  The round's wall-clock time and the CPU time of a fixed
reference computation are reported beside them.  The last line of
standard output is one JSON object with the measurements.
"""

import gc
import json
import os
import resource
import signal
import sys
import time

OP_CAP_S = 60   # wall-clock cap per operation
clock = time.process_time

# The reference: a breadth-first closure of a 32-cycle and a transposition,
# stopped at 8000 elements.  It does the tuple, set and dict work the
# package does and never touches arboreal.  It runs with the cyclic
# collector off, so the size of the round's heap does not enter: its time
# follows the host's speed alone.
REFERENCE_GENS = (tuple(range(1, 32)) + (0,), (1, 0) + tuple(range(2, 32)))
REFERENCE_ELEMENTS = 8000


def reference_s():
    import oracle
    gc.disable()
    try:
        t0 = clock()
        oracle.closure(REFERENCE_GENS, REFERENCE_ELEMENTS)
        return clock() - t0
    finally:
        gc.enable()


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation ran past its {OP_CAP_S}s cap")


def main(argv):
    mode, workload, seed, src = argv
    import arboreal
    import arboreal.acceptance
    import arboreal.cli  # noqa: F401  (the command-line layer, as users load it)
    if os.path.dirname(os.path.dirname(os.path.abspath(arboreal.__file__))) != os.path.abspath(src):
        print(f"arboreal was imported from {arboreal.__file__}, not from {src}", file=sys.stderr)
        return 2
    built = clock()
    arboreal.catalog.catalog()
    catalog_build_s = clock() - built
    setup_s = clock()
    if mode == "probe":
        print(json.dumps({"setup_s": setup_s, "reference_s": [reference_s()]}))
        return 0

    import tracing
    import workloads
    ops = workloads.build(workload, arboreal, int(seed))
    tracer = tracing.Tracer(clock) if mode == "traced" else None
    signal.signal(signal.SIGALRM, _alarm)
    references = [reference_s()]
    outputs, times, failures = [], [], []
    if tracer is not None:
        tracer.install(arboreal)
    start, wall_start = clock(), time.perf_counter()
    for i, op in enumerate(ops):
        run = op.run if tracer is None or op.span is None else (
            lambda op=op: tracer.run(op.span, op.run))
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = clock()
        try:
            outputs.append(run())
        except Exception as err:  # a failed operation is counted, and the round goes on
            outputs.append(None)
            failures.append((i, op.name, f"{type(err).__name__}: {str(err)[:200]}"))
        finally:
            times.append(clock() - t0)
            signal.setitimer(signal.ITIMER_REAL, 0)
    cpu_s, wall_s = clock() - start, time.perf_counter() - wall_start
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    references.append(reference_s())

    failed = {i for i, _, _ in failures}
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if i in failed:
            continue
        problem = op.check(out)
        if problem:
            problems.append(f"{op.name}: {problem}")

    result = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "op_s": times,
        "attempted": len(ops),
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": rss_mb,
        "reference_s": references,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters, **tracing.memo_sizes(arboreal))
        result["catalog_build_s"] = catalog_build_s
        trace_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{workload}-seed{seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
