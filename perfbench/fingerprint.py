"""Environment fingerprint printed with every benchmark result.

Everything here is read-only: the BLAS thread count is queried, never set,
because the benchmark measures the program with the threading users get.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np


def _openblas_library() -> str | None:
    """Path of the OpenBLAS build bundled with numpy, if there is one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    candidates = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*")))
    return os.path.normpath(candidates[0]) if candidates else None


def blas_info() -> dict:
    """BLAS library name, version and effective thread count (read-only)."""
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    path = _openblas_library()
    if path is None:
        return info
    library = ctypes.CDLL(path)
    # 64-bit-integer builds suffix their symbols with "64_".
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads"):
        getter = getattr(library, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            info["threads"] = int(getter())
            break
    return info


def source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` file: names the code without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(root: str) -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }
