"""Benchmark of the qasian pricing pipeline.

    python3 perfbench/run.py --workload price-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One workload runs in this
process: set-up (references, inputs and one warm-up pass) three times,
then whole passes over the workload's operations until --seconds have
gone by.  Every output is checked.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: BLAS threads for every run, fixed so that a larger machine runs the same
#: way; on two cores the dense solves time more steadily with two than one
BLAS_THREADS = "2"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
END_TO_END = {"wall_s": "s", "price_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def _import_program():
    """Import qasian from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import qasian
    except ImportError as exc:
        problem = f"cannot import qasian from {SRC}: {exc}"
    else:
        if os.path.abspath(qasian.__file__).startswith(SRC + os.sep):
            return
        problem = f"qasian imported from {qasian.__file__}, not from {SRC}"
    print(f"perfbench: {problem}", file=sys.stderr)
    sys.exit(2)


def run_pass(ops, known_fault):
    """One pass: time each call, check its output.

    Returns (op_times, failures, wrong): failures counts operations that
    raised or whose output failed a check; wrong counts the failures
    other than the known fault.
    """
    times, failures, wrong = {}, 0, 0
    for name, call, check in ops:
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # the run goes on; the operation failed
            times[name] = perf_counter() - t0
            failures += 1
            if known_fault and (name, type(exc)) == known_fault:
                continue
            wrong += 1
            print(f"perfbench: {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        times[name] = perf_counter() - t0
        bad = check(out)
        if bad:
            failures += 1
            wrong += 1
            print(f"perfbench: {name}: {'; '.join(bad)}", file=sys.stderr)
    return times, failures, wrong


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def measure(workload, seed, seconds, trace):
    """Set up, run whole passes for `seconds`, return the result object."""
    import tracing

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops = workload.ops(workload.setup(seed))
        # warm-up: the first calls of a process run slow
        run_pass(ops, workload.known_fault)
        setup_times.append(perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, headline, layer = [], [], [], []
    attempted = failed = wrong = 0
    deadline = perf_counter() + seconds
    while True:
        # a traced run alternates untraced and traced passes, in pairs
        for traced in ((False, True) if trace else (False,)):
            if traced:
                lo = len(tracer.spans)
                tracer.install()
            try:
                times, n_failed, n_wrong = run_pass(ops, workload.known_fault)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += len(ops)
            failed += n_failed
            wrong += n_wrong
            wall = sum(times.values())
            if traced:
                traced_walls.append(wall)
                figures = tracer.pass_metrics(lo, len(tracer.spans))
                figures["cli.artifact_bytes"] = _dir_bytes(workload.outdir)
                layer.append(figures)
            else:
                walls.append(wall)
                headline.append(times[workload.headline])
        if perf_counter() >= deadline:
            break

    print(f"perfbench: {workload.name}: {len(walls)} untraced passes, "
          f"wall s: {' '.join(f'{w:.4g}' for w in walls)}", file=sys.stderr)
    if trace:
        tracer.dump(os.path.join(OUT, f"trace-{workload.name}-{seed}.jsonl"))
        values = {k: statistics.median(f[k] for f in layer)
                  for k in layer[0]}
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(walls))
        units = tracing.PER_LAYER
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": statistics.median(walls),
                  "price_s": statistics.median(headline),
                  "peak_rss_mb": peak_kb / 1024.0,
                  "setup_s": statistics.median(setup_times)}
        units = END_TO_END
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    # the program's artifacts go to a directory of this run's own
    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir)
    try:
        workload = workloads.WORKLOADS[args.workload](outdir)
        result = measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
