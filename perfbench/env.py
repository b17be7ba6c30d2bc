"""Checkout layout, pinned thread environment, and the environment record.

Importing this module imports neither numpy nor scipy, so a launcher can pin
the thread variables before the numerical libraries start.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden"

# Every BLAS/OpenMP pool the numerical stack may start, pinned to one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def has_package() -> bool:
    return (SRC / "dvrcircuits" / "cli.py").is_file()


def pinned_env() -> dict:
    """Environment for a child process: one thread, the checkout's sources first."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def record() -> dict:
    """nproc, CPU, library versions, BLAS build and thread variables.

    Call after numpy and scipy are imported.
    """
    import numpy as np
    import scipy

    cpu = _cpuinfo()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu.get("model name", platform.processor() or "unknown"),
        "cpu_cache": cpu.get("cache size", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": (
            "the largest matrix (599^2 float64, 2.9 MB) fits in cache, so "
            "spectra.eig_flops and spectra.assemble_bytes are computed counts, "
            "not measured bandwidth"
        ),
    }
