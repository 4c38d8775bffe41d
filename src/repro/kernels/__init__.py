"""Compiled inner-loop backends for the fused march.

The fused march still pays one Python dispatch per tREFI; this
package removes it for the steady state by marching K consecutive
same-plan steps inside one compiled call (:mod:`repro.kernels.march`).
Two interchangeable *providers* implement the identical march:

``cext``
    The compiled tier: the march as a small C file, compiled on demand
    with any C compiler on PATH and bound via ctypes
    (:mod:`repro.kernels.cext`).
``interpreted``
    The plain Python body in :mod:`repro.kernels.march` — never
    selected automatically (it is slower than the fused NumPy path)
    but always present as the reference implementation for the
    equivalence tests.

Selection is automatic, with no configuration knob: the fused march
takes the compiled tier whenever :func:`get_march` resolves a provider
(``cext`` when a C compiler built it) and the blast radius is 1, and
otherwise runs the pure-NumPy fused path. The one override is
:func:`forced_provider` (seeded from the ``REPRO_KERNELS`` environment
variable), for tests and debugging: ``none`` pins the NumPy path,
``interpreted`` runs the reference march. Results are bit-identical
across every provider and the fallback, pinned by the property suite.
"""

from __future__ import annotations

import os

__all__ = [
    "available",
    "forced_provider",
    "get_march",
    "provider",
    "unavailable_reason",
]

#: Test/debug override: None = auto-resolve, otherwise one of
#: "cext", "interpreted", "none". Seeded from the
#: REPRO_KERNELS environment variable; tests use :func:`forced_provider`.
_FORCED: str | None = os.environ.get("REPRO_KERNELS") or None

_VALID_FORCES = {"cext", "interpreted", "none"}


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
    """The compiled provider the fused march uses: ``"cext"``,
    ``"interpreted"`` (only when forced), or ``None`` when no compiled
    tier is available."""
    if _FORCED is not None:
        if _FORCED == "none":
            return None
        if _FORCED == "cext" and not _cext_available():
            return None
        return _FORCED
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

    return cext.build_error() or "C provider unavailable"


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

    return march.march_steps_interpreted
