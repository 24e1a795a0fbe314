"""One benchmark run in a fresh process; started by ``run.py``.

Imports stanseg from the checkout's ``src``, sets the workload up
several times, runs its timed loop until the requested seconds have
passed, checks every output, and writes one result file (plus, when
traced, the spans). BLAS threads are fixed by the environment that
``run.py`` gives this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3

# End-to-end metrics printed with tracing off, in BENCHMARK.json order.
END_TO_END_UNITS = {"throughput_per_s": "1/s", "item_ms_p50": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# Also in the result file, not printed: a run has too few items for p90
# to have ten beyond it, so it reads the slowest few, which are the ones
# another tenant of the host slowed.
RECORD_UNITS = dict(END_TO_END_UNITS, item_ms_p90="ms")


class Timed:
    """Context for a measured stretch of work (one set-up, one unit of
    work); tags the spans recorded inside it with its phase and unit."""

    def __init__(self, tracer, phase: str, unit):
        self.tracer = tracer
        self.phase = phase
        self.unit = unit
        self.seconds = 0.0
        self.now = time.perf_counter

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.phase, self.tracer.unit = self.phase, self.unit
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.started
        if self.tracer is not None:
            self.tracer.phase = self.tracer.unit = None
        return False


def _blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be
    asked (another BLAS, or no such symbol)."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, np) -> dict:
    """What is needed to reproduce and compare a result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    revision = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        revision = done.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
    }


def end_to_end(units, setup_s: float, peak_rss_mb: float) -> dict:
    """Throughput is the median over units of work done per second, so one
    unit slowed by another process on the machine does not move it."""
    latencies_ms = [1e3 * x for u in units for x in u.latencies_s]
    return {
        "throughput_per_s": statistics.median(u.work / u.wall_s for u in units),
        "item_ms_p50": statistics.median(latencies_ms),
        "item_ms_p90": (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
                        if len(latencies_ms) > 1 else latencies_ms[0]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() just before this process was spawned")
    args = ap.parse_args(argv)
    root = Path(args.root)

    sys.path.insert(0, str(root / "tests"))
    import numpy as np
    import stanseg
    from stanseg import autodiff, data_io, metrics, model, training

    if Path(stanseg.__file__).resolve().parent != (root / "src" / "stanseg").resolve():
        raise SystemExit(f"stanseg imported from {stanseg.__file__}, not {root}/src")
    import spans
    import workloads

    modules = {"autodiff": autodiff, "model": model, "training": training,
               "metrics": metrics, "data_io": data_io}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, modules)
    import_s = time.monotonic() - args.started

    workdir = Path(args.result).with_suffix(".work")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, stanseg)

        setups = []
        for rep in range(SETUP_REPEATS):
            with Timed(tracer, "setup", rep) as clock:
                wl.setup()
            setups.append(clock.seconds)
        setup_s = import_s + statistics.median(setups)

        units = []
        started = time.perf_counter()
        while not units or time.perf_counter() - started < args.seconds:
            units.append(wl.run_unit(len(units), lambda u: Timed(tracer, "timed", u)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = end_to_end(units, setup_s, peak_rss_mb)
    items = sum(len(u.latencies_s) for u in units)
    if tracer is None:
        metrics_out = {k: {"value": figures[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    else:
        mean_item_ms = 1e3 * sum(u.wall_s for u in units) / items
        metrics_out = spans.layer_metrics(tracer, items, SETUP_REPEATS, mean_item_ms)
        for k in ("throughput_per_s", "item_ms_p50", "setup_s"):
            metrics_out[f"trace.{k}"] = {"value": figures[k], "unit": END_TO_END_UNITS[k]}
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))

    # the same figures under the names the workload reports them by,
    # e.g. train_samples_per_s and train_step_ms_p50
    prefix = args.workload.split("-")[0]
    names = {"throughput_per_s": f"{prefix}_{wl.work_unit}_per_s",
             "item_ms_p50": f"{prefix}_{wl.item}_ms_p50",
             "item_ms_p90": f"{prefix}_{wl.item}_ms_p90"}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": wl.config,
        "provenance": provenance(root, np),
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "error_rate": check.failed / check.attempted,
        "problems": check.problems[:50],
        "record": check.record,
        "samples": {"units": len(units), "items": items, "item": wl.item,
                    "work": sum(u.work for u in units), "work_unit": wl.work_unit,
                    "setup_repeats_s": setups, "import_s": import_s,
                    "item_latencies_ms": [1e3 * x for u in units for x in u.latencies_s]},
        "named_metrics": {names.get(k, k): {"value": v, "unit": RECORD_UNITS[k]}
                          for k, v in figures.items()},
        "metrics": metrics_out,
    }
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
