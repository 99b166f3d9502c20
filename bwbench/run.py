"""bwlab benchmark: run one workload for a while and print its metrics.

    python3 bwbench/run.py --workload fast-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports bwlab from `src/` there.
Each round of the workload runs in a fresh process (worker.py), one
round after another, a single caller in a closed loop, until --seconds
have passed; at least one round always runs, and rounds are never cut
short.  With --trace 0 it reports the end-to-end metrics, each the
median over the rounds: setup_s (also sampled by import-only processes,
so that every run has at least SETUP_SAMPLES of them), wall_s, cpu_s
and peak_rss_mb.  With --trace 1 every round runs twice with the same
inputs, untraced and then traced, and it reports the per-layer metrics
of the traced rounds and the tracing overhead between the two.
The last line of output is one JSON object: correct, attempted,
failed and metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every process this run starts has ended by then

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
               "trace.overhead_s": "s", "trace.spans": "count"}


class BenchError(RuntimeError):
    pass


def _round(args, index: int, trace: int, deadline: float,
           probe: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--round", str(index),
           "--trace", str(trace)] + (["--probe"] if probe else [])
    with subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"round {index} ran past the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"round {index} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bwlab" / "__init__.py").is_file():
        print(f"error: no bwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    start = time.monotonic()
    plain, traced = [], []
    index = 0
    try:
        while not plain or time.monotonic() - start < args.seconds:
            plain.append(_round(args, index, 0, deadline))
            if args.trace:
                traced.append(_round(args, index, 1, deadline))
            index += 1
        setups = [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_round(args, index, 0, deadline, probe=True)["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    median = statistics.median
    if args.trace:
        values = {m: median(r["layers"][m] for r in traced) for m in LAYER_UNITS}
        untraced = median(r["wall_s"] for r in plain)
        with_spans = median(r["wall_s"] for r in traced)
        values.update({
            "trace.wall_s": with_spans,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": with_spans - untraced,
            "trace.spans": median(r["spans"] for r in traced),
        })
        units = {**LAYER_UNITS, **TRACE_UNITS}
    else:
        values = {"setup_s": median(setups)}
        for m in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[m] = median(r[m] for r in plain)
        units = END_TO_END_UNITS

    print("environment " + json.dumps(rounds[0]["environment"]))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} round(s)"
          + (f" untraced and {len(traced)} traced" if args.trace else ""))
    for name, value in values.items():
        print(f"  {name:<42} {value:>16.6f} {units[name]}")
    for m in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        print(f"  per round {m}: " + " ".join(f"{r[m]:.3f}" for r in plain))
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    print(f"attempted {attempted}, failed {len(failures)}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
