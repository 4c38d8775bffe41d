"""Pure helpers of the benchmark: digests, percentiles, failure counting.

Nothing here imports the program under test, so the helpers can be
checked on their own (``python3 -m pytest -q perfbench/check_helpers.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import statistics
import time
from typing import Any, Iterable, Sequence

#: Percentiles a tail metric may report, lowest first. A tail is the
#: highest of these that still has at least ``TAIL_MIN_BEYOND`` samples
#: above it, so a run with few samples reports a lower percentile
#: instead of an extreme that rests on one or two samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
#: Iterations of the calibration loop, a fixed chunk of pure-Python
#: integer arithmetic (about 15 ms on a 2.1 GHz Xeon vCPU).
CALIBRATION_LOOPS = 150_000
#: The calibration loop's time at which a host-normalized timing
#: equals the measured one. A constant, so that normalized timings of
#: two commits compare.
REFERENCE_CALIBRATION_S = 0.015
#: Least seconds between two calibration loops, and how far around an
#: op the loops that give its host speed may lie.
CALIBRATION_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 1.0


def canonical(value: Any) -> Any:
    """``value`` reduced to plain JSON types with a fixed shape.

    Dict keys become strings, tuples and lists become lists, sets
    become sorted lists and NumPy scalars become Python numbers, so
    two results that hold the same data digest alike however they
    were built.
    """
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    item = getattr(value, "item", None)  # NumPy scalar
    if callable(item):
        return canonical(item())
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form of ``value``.

    Floats are written with ``repr`` precision, so any change in the
    last bit of a simulated value changes the digest.
    """
    text = json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fold(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests."""
    return digest(list(digests))


def tail_percentile(n: int) -> float:
    """The percentile the tail rule picks for ``n`` samples: the
    highest of :data:`TAIL_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond its nearest rank, or the
    median when no percentile has that many."""
    chosen = 50.0
    for percentile in TAIL_LADDER:
        if n - max(1, math.ceil(percentile / 100.0 * n)) >= TAIL_MIN_BEYOND:
            chosen = percentile
    return chosen


def at_percentile(samples: Sequence[float], percentile: float) -> tuple[float, int]:
    """``(value, samples_beyond)`` of the nearest-rank sample at
    ``percentile``: rank ``ceil(p/100 * n)`` of the ascending order,
    with ``n - rank`` samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class Ledger:
    """Attempted and failed operations of one run.

    An operation fails when it raises or when any output check on it
    fails; the first few reasons are kept for the report.
    """

    def __init__(self, keep: int = 20) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def record(self, label: str, problem: str | None) -> None:
        """Count one operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < self._keep:
                self.reasons.append(f"{label}: {problem}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0



def calibration_loop() -> float:
    """Seconds one run of the calibration loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def host_factor(
    samples: Sequence[tuple[float, float]], start: float, end: float,
    window: float, least: int = 5,
) -> float:
    """The factor that takes a timing made over ``[start, end]`` to the
    reference host speed.

    ``samples`` are ``(time, calibration seconds)`` in time order. The
    host's speed over the interval is the median calibration time of
    the samples within ``window`` seconds of it, or of the ``least``
    samples nearest to it when fewer are that close (a long op has
    samples only at its ends).
    """
    if not samples:
        raise ValueError("no calibration samples")
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - window)
    hi = bisect.bisect_right(times, end + window)
    while hi - lo < least and (lo > 0 or hi < len(samples)):
        before = start - times[lo - 1] if lo > 0 else math.inf
        after = times[hi] - end if hi < len(samples) else math.inf
        if before <= after:
            lo -= 1
        else:
            hi += 1
    return REFERENCE_CALIBRATION_S / statistics.median(
        seconds for _, seconds in samples[lo:hi])


class HostSpeed:
    """Samples the host's speed between operations.

    :meth:`tick` runs the calibration loop when
    :data:`CALIBRATION_EVERY_S` have passed since the last sample;
    :meth:`factor` gives the factor that scales an operation's timing
    to the reference host speed, from the samples around it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._due = -math.inf

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now >= self._due:
            self.samples.append((now, calibration_loop()))
            self._due = time.perf_counter() + CALIBRATION_EVERY_S

    def factor(self, start: float, end: float) -> float:
        return host_factor(self.samples, start, end, CALIBRATION_WINDOW_S)
