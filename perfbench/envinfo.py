"""Environment block recorded with every benchmark result.

Run as a script in a fresh interpreter (so that NumPy and SciPy load their
BLAS exactly as the program under test does); prints one JSON object with
library versions, the CPU and its caches, and each loaded BLAS library with
its thread count.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _blas_libraries() -> list[dict]:
    """Every loaded BLAS shared object and the thread count it reports."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({ln.split()[-1] for ln in maps
                    if "blas" in ln.lower() or "mkl_rt" in ln.lower()})
    libs = []
    for path in paths:
        if not path.startswith("/") or not os.path.basename(path).startswith("lib"):
            continue
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None) if lib is not None else None
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        libs.append({"library": os.path.basename(path), "threads": threads})
    return libs


def collect() -> dict:
    import numpy
    import scipy.linalg  # noqa: F401  (loads SciPy's BLAS as the program does)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_cfg = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    libs = _blas_libraries()
    counts = [lib["threads"] for lib in libs if lib["threads"] is not None]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"numpy_build": f"{blas_cfg.get('name')} {blas_cfg.get('version')}",
                 "loaded": libs},
        "blas_threads_within_nproc": all(c <= nproc for c in counts),
        "notes": ["pricing.kernel_evals is computed (sum of nodes^2 over convolution "
                  "solves), not measured"],
    }


if __name__ == "__main__":
    json.dump(collect(), sys.stdout)
    sys.stdout.write("\n")
