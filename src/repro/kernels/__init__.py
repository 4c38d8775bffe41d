"""Compiled inner-loop backends for the fused march.

The fused march still pays one Python dispatch per tREFI; this
package removes it for the steady state by marching K consecutive
same-plan steps inside one compiled call (:mod:`repro.kernels.march`).
Three interchangeable *providers* implement the identical march:

``numba``
    ``@njit``-compiled (nopython, cached) — the first choice when the
    ``compiled`` extra (``pip install .[compiled]``) is installed.
``cext``
    The same routine as a small C file, compiled on demand with any C
    compiler on PATH and bound via ctypes (:mod:`repro.kernels.cext`).
``interpreted``
    The very same Python function body, undecorated — never selected
    automatically (it is slower than the fused NumPy path) but always
    present as the reference implementation for the equivalence tests.

Selection is ``EngineConfig.backend``: ``"auto"`` uses the best
available compiled provider and falls back to the pure-NumPy fused
path when none exists, ``"compiled"`` requires one
(:func:`require_compiled`), ``"numpy"`` pins the fused path. The knob
is excluded from scenario identity — results are bit-identical across
every provider and the fallback, pinned by the property suite.
"""

from __future__ import annotations

import os

from ._compat import HAVE_NUMBA

__all__ = [
    "HAVE_NUMBA",
    "available",
    "forced_provider",
    "get_march",
    "provider",
    "require_compiled",
    "unavailable_reason",
]

#: Test/debug override: None = auto-resolve, otherwise one of
#: "numba", "cext", "interpreted", "none". Seeded from the
#: REPRO_KERNELS environment variable; tests use :func:`forced_provider`.
_FORCED: str | None = os.environ.get("REPRO_KERNELS") or None

_VALID_FORCES = {"numba", "cext", "interpreted", "none"}


class forced_provider:
    """Context manager pinning provider resolution (for tests).

    ``forced_provider("none")`` simulates a host with no compiled
    backend; ``forced_provider("interpreted")`` makes the compiled
    driver run the pure-Python reference march.
    """

    def __init__(self, name: str | None) -> None:
        if name is not None and name not in _VALID_FORCES:
            raise ValueError(
                f"unknown provider {name!r}; expected one of "
                f"{sorted(_VALID_FORCES)} or None"
            )
        self.name = name
        self._previous: str | None = None

    def __enter__(self) -> "forced_provider":
        global _FORCED
        self._previous = _FORCED
        _FORCED = self.name
        return self

    def __exit__(self, *exc_info) -> None:
        global _FORCED
        _FORCED = self._previous


def _cext_available() -> bool:
    from . import cext

    return cext.available()


def provider() -> str | None:
    """The compiled provider ``backend="auto"``/``"compiled"`` would
    use: ``"numba"``, ``"cext"``, ``"interpreted"`` (only when forced),
    or ``None`` when no compiled tier is available."""
    if _FORCED is not None:
        if _FORCED == "none":
            return None
        if _FORCED == "numba" and not HAVE_NUMBA:
            return None
        if _FORCED == "cext" and not _cext_available():
            return None
        return _FORCED
    if HAVE_NUMBA:
        return "numba"
    if _cext_available():
        return "cext"
    return None


def available() -> bool:
    """True when a compiled march provider can run on this host."""
    return provider() is not None


def unavailable_reason() -> str:
    """Human-readable reason :func:`available` is False."""
    if _FORCED == "none":
        return "provider resolution is forced off (test override)"
    from . import cext

    reason = cext.build_error() or "C provider unavailable"
    return f"numba is not importable and the {reason}"


def require_compiled() -> str:
    """The resolved provider name, or a clear error when none exists.

    This is the ``backend="compiled"`` contract: fail loudly at
    simulator construction instead of silently running the slower
    fallback.
    """
    name = provider()
    if name is None:
        raise RuntimeError(
            "backend='compiled' requires a compiled kernel provider, "
            "but none is available: "
            f"{unavailable_reason()}. Install the optional extra "
            "(pip install .[compiled]) for the Numba backend, make a C "
            "compiler available for the ctypes backend, or use "
            "backend='auto' / 'numpy' for the pure-NumPy fused path."
        )
    return name


def get_march():
    """The resolved provider's march callable (see march.py for the
    signature), or None when no provider is available."""
    name = provider()
    if name is None:
        return None
    if name == "cext":
        from . import cext

        return cext.march_steps
    from . import march

    if name == "interpreted":
        return march.march_steps_interpreted
    return march.march_steps
