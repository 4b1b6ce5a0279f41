"""The environment a result was measured in, recorded beside every result."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

_BLAS_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _blas_threads():
    """Threads the loaded BLAS library will use, asked of the library itself.
    None when the library cannot be found or answers to none of the names."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if ".so" in line and "blas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha(root: Path):
    """The commit of ``root``, when ``root`` is itself the top of a git work
    tree (a plain source checkout has none)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    top, sha = out.stdout.split()
    return sha if Path(top).resolve() == root.resolve() else None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def collect(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
        "src_lines": _src_lines(root),
    }
