"""Environment record and a fixed calibration loop.

Every run records the host it ran on and times the same small numpy and
pure-Python loop before and after its workload. On a shared host, speed
drifts in regimes that last seconds; a run whose calibration is slow ran in
a slow regime, and can be recognised as such when runs are compared.
"""

from __future__ import annotations

import os
import platform
import sys
import time

import numpy as np

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate_ms() -> dict[str, float]:
    """Time a fixed numpy matvec loop and a fixed pure-Python loop."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2000, 256))
    q = rng.standard_normal(256)
    t0 = time.perf_counter()
    for _ in range(200):
        (m * q).sum(axis=1)
    numpy_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    python_ms = (time.perf_counter() - t0) * 1000.0
    return {"numpy_ms": numpy_ms, "python_ms": python_ms}


def cpu_times() -> list[int]:
    """Host-wide CPU jiffies: user, nice, system, idle, iowait, irq, softirq, steal."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return []


def busy_and_steal(before: list[int], after: list[int]) -> dict[str, float]:
    """Shares of host CPU time that were busy and stolen between two samples."""
    if not before or not after:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    return {"busy": 1.0 - (delta[3] + delta[4]) / total, "steal": delta[7] / total}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV_VARS if k in os.environ},
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }
