"""One round of a workload in a fresh process; prints one JSON line.

run.py starts this script once per round, so every round pays bwlab's
import and its per-process caches again, as a user's invocation does.
It imports bwlab from `src/` of the checkout that holds this file,
records the set-up time from the moment run.py started the process
(--t0, on the system-wide monotonic clock), runs the round's operations
back to back, reads the process's CPU time and peak memory as the last
operation ends, and only then checks the outputs against the oracles.
With --probe it stops after the import.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    import argparse
    from pathlib import Path
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import bwlab
    import bwlab.cli  # imports verify, and with it every other submodule
    setup_s = time.monotonic() - args.t0
    if Path(bwlab.__file__).resolve().parent != src / "bwlab":
        print(f"bwlab was imported from {bwlab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import spans
    import workloads
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    plan = workloads.plan(args.workload, args.seed, args.round)
    results = []
    start = time.perf_counter()
    for _, step in plan.steps:
        try:
            results.append(step())
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(exc)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    outcome = plan.check(results)

    import numpy
    import sympy
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures,
        "correct": outcome.correct,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "cpu_count": os.cpu_count(),
            "threads": workloads.THREADS[args.workload],
        },
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.spans)
        trace_dir = root / ".bwbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{args.workload}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
