"""On-demand C build of the march kernel (the compiled tier).

This module compiles ``_march.c`` once per source revision into a
private build directory (``_build/`` next to the sources, gitignored;
override with ``REPRO_KERNELS_BUILD_DIR``) and binds the symbol
through :mod:`ctypes`. Everything degrades gracefully: no compiler, an
unwritable tree, or a failed build simply mark the provider
unavailable and the engine keeps using the pure-NumPy fused path.

The exported :func:`march_steps` presents the exact Python signature
of ``march.march_steps_interpreted`` so the engine driver is
provider-agnostic.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["available", "march_steps", "build_error"]

_SOURCE = Path(__file__).with_name("_march.c")
_FUNC = None
_ERROR: str | None = None
_TRIED = False


def _build_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_BUILD_DIR")
    if override:
        return Path(override)
    return _SOURCE.parent / "_build"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _load() -> None:
    """Resolve the compiled symbol, building the shared object if this
    source revision has not been built yet. Runs at most once."""
    global _FUNC, _ERROR, _TRIED
    if _TRIED:
        return
    _TRIED = True
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        _ERROR = f"kernel source unreadable: {exc}"
        return
    compiler = _compiler()
    if compiler is None:
        _ERROR = "no C compiler (cc/gcc/clang) on PATH"
        return
    digest = hashlib.sha256(source).hexdigest()[:16]
    build = _build_dir()
    shared = build / f"march-{digest}.so"
    if not shared.exists():
        try:
            build.mkdir(parents=True, exist_ok=True)
            # Compile into a temp name and rename: concurrent test
            # workers may race the build, and rename is atomic.
            fd, tmp = tempfile.mkstemp(
                suffix=".so", prefix="march-", dir=build
            )
            os.close(fd)
            proc = subprocess.run(
                [
                    compiler,
                    "-O3",
                    "-fPIC",
                    "-shared",
                    "-o",
                    tmp,
                    str(_SOURCE),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                os.unlink(tmp)
                _ERROR = (
                    f"C build failed ({compiler}): "
                    f"{proc.stderr.strip()[:500]}"
                )
                return
            os.replace(tmp, shared)
        except (OSError, subprocess.SubprocessError) as exc:
            _ERROR = f"C build failed: {exc}"
            return
    try:
        lib = ctypes.CDLL(str(shared))
        func = lib.repro_march_steps
    except (OSError, AttributeError) as exc:
        _ERROR = f"compiled kernel unloadable: {exc}"
        return
    i64 = ctypes.c_int64
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_i64 = ctypes.POINTER(i64)
    func.restype = i64
    func.argtypes = [
        p_f64, p_f64, p_i64, p_i64,  # dist, peak, since, speak
        p_i64, p_i64,  # mitig, transmit
        p_i64, i64,  # reset_keys, n_reset
        p_i64, p_f64, i64,  # victims, delta, n_victims
        p_i64, p_i64, i64,  # since_keys, since_counts, n_since
        p_i64, p_i64,  # acts, acts_off
        p_i64, i64,  # step_ranks, n_ranks
        i64, i64,  # num_banks, num_rows
        p_i64, i64, i64,  # ref_counts, refw, slice_rows
        p_i64,  # kind
        p_i64, p_i64, p_i64, p_i64,  # m_san, m_sar, m_valid, m_dist
        p_i64,  # m_sel
        p_i64, p_i64,  # m_draw_off, draws
        i64, ctypes.c_double, ctypes.c_double,  # num_steps, trh, step_gain
        p_f64,  # bound_io
    ]
    _FUNC = func


def available() -> bool:
    _load()
    return _FUNC is not None


def build_error() -> str | None:
    """Why the provider is unavailable (None when it is available)."""
    _load()
    return _ERROR


def _p_f64(array):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _p_i64(array):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def march_steps(
    dist, peak, since, speak, mitig, transmit,
    reset_keys, victims, delta, since_keys, since_counts,
    acts, acts_off, step_ranks, num_banks, num_rows,
    ref_counts, refw, slice_rows,
    kind, m_san, m_sar, m_valid, m_dist, m_sel,
    m_draw_off, draws, num_steps, trh, step_gain, bound,
):
    """ctypes adapter with the signature of
    ``march.march_steps_interpreted``.

    All array arguments must be C-contiguous with the dtypes the
    engine's plan lowering produces (int64/float64); the driver
    guarantees that.
    """
    _load()
    import numpy as np

    bound_io = np.array([bound], dtype=np.float64)
    done = _FUNC(
        _p_f64(dist), _p_f64(peak), _p_i64(since), _p_i64(speak),
        _p_i64(mitig), _p_i64(transmit),
        _p_i64(reset_keys), reset_keys.shape[0],
        _p_i64(victims), _p_f64(delta), victims.shape[0],
        _p_i64(since_keys), _p_i64(since_counts), since_keys.shape[0],
        _p_i64(acts), _p_i64(acts_off),
        _p_i64(step_ranks), step_ranks.shape[0],
        num_banks, num_rows,
        _p_i64(ref_counts), refw, slice_rows,
        _p_i64(kind),
        _p_i64(m_san), _p_i64(m_sar), _p_i64(m_valid), _p_i64(m_dist),
        _p_i64(m_sel),
        _p_i64(m_draw_off), _p_i64(draws),
        num_steps, float(trh), float(step_gain), _p_f64(bound_io),
    )
    return int(done), float(bound_io[0])
