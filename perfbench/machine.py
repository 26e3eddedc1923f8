"""Description of the machine and software a benchmark run used.

Everything here is read, never set: CPU model and cache sizes from the
kernel's files, the NumPy build's BLAS, the BLAS thread count actually
in effect, and the source revision. Fields that cannot be read on a
platform are recorded as None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict[str, str]:
    """Size of each cache level cpu0 sees, as the kernel prints it."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level and kind and size and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def blas_build() -> dict[str, str | None]:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": deps.get("name"), "version": deps.get("version")}


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS library this process loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at root, without looking above root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_digest(folder: Path, pattern: str = "*.py") -> str:
    """blake2b over the names and bytes of the matching files in folder,
    so a run records which source it measured even outside git."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(folder.glob(pattern)):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def describe(root: Path, blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads_requested": blas_threads,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "git_commit": git_commit(root),
        "source_digest": tree_digest(root / "src" / "beatnet"),
        "benchmark_digest": tree_digest(Path(__file__).resolve().parent),
    }
