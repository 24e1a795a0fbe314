"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]

Run from the root of a stanseg checkout. The first form runs one
workload in a fresh worker process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. The full
result, with provenance and correctness details, is written to
``benchmarks/out/<workload>-seed<N>-trace<T>.json`` and a traced run's
spans next to it.

``--workload all`` runs every workload untraced and then traced and
prints a table: each workload's end-to-end figures under the names it
reports them by, its error rate, the tracing overhead and the non-zero
per-layer figures. It exits 1 if any output was wrong.

The worker's BLAS uses as many threads as this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train-stan64", "score-masks512")
TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and return its result file."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT), "--result", str(result),
           "--started", repr(time.monotonic())]
    # anything the worker prints goes to stderr, keeping stdout for the result
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: worker exceeded {TIMEOUT_S} s")
    if code != 0 or not result.exists():
        raise SystemExit(f"{workload}: worker failed with exit code {code}")
    return json.loads(result.read_text())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def suite(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; print one table."""
    ok = True
    for workload in WORKLOADS:
        plain = run_worker(workload, seed, seconds, 0)
        traced = run_worker(workload, seed, seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        s = plain["samples"]
        print(f"\n== {workload}  seed {seed}, {s['items']} {s['item']}s, "
              f"{s['work']} {s['work_unit']}, {s['units']} units")
        for name, m in plain["named_metrics"].items():
            print(f"  {name:<28} {_fmt(m['value']):>12} {m['unit']}")
        print(f"  {'error_rate':<28} {_fmt(plain['error_rate']):>12} ratio")
        for key in ("throughput_per_s", "item_ms_p50", "setup_s"):
            base = plain["metrics"][key]
            extra = traced["metrics"][f"trace.{key}"]["value"] - base["value"]
            print(f"  {'tracing overhead ' + key:<28} {_fmt(extra):>12} "
                  f"{base['unit']} ({100 * extra / base['value']:+.1f}%)")
        for name, m in traced["metrics"].items():
            if m["value"] and not name.startswith("trace."):
                print(f"  {name:<40} {_fmt(m['value']):>12} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "stanseg" / "__init__.py", ROOT / "tests" / "reference.py"):
        if not needed.is_file():
            print(f"run.py: {needed} is missing; run from a stanseg checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return suite(args.seed, args.seconds)
    result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
