"""An in-memory span tracer that wraps the program from outside.

The traced run patches the public functions of each layer with a thin
wrapper that records one span per call: its name, start, end, parent
span and the request it belongs to. The program itself is untouched
and the untraced run installs nothing. Spans live in flat arrays and
are written out once, when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`). A call counts once
even when an override delegates to the method it overrides, because a
span directly inside a span of the same name is not counted as a call
(:func:`call_counts`).
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self.name = array("i")
        self.request = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        #: Spans are recorded only while this is set; wrappers stay in
        #: place but pass straight through otherwise.
        self.recording = False
        #: Parent of spans opened on a thread with no open span (the
        #: server thread answering the client's current request).
        self.ambient_parent = NO_PARENT
        self.current_request = -1
        #: Counts reported by result hooks, for the current pass.
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_request(self, label: str) -> None:
        """Attribute the spans that follow to request ``label``."""
        if label not in self._request_ids:
            self._request_ids[label] = len(self.requests)
            self.requests.append(label)
        self.current_request = self._request_ids[label]

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.request.append(self.current_request)
            self.parent.append(stack[-1] if stack else self.ambient_parent)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, ambient: bool = False) -> Iterator[None]:
        """A span around a block of the benchmark's own code.

        ``ambient`` makes the span the parent of spans other threads
        open while it is the innermost one (a client request and the
        server-side work that answers it).
        """
        if not self.recording:
            yield
            return
        index = self._open(self._name_id(name))
        previous = self.ambient_parent
        if ambient:
            self.ambient_parent = index
        try:
            yield
        finally:
            self.ambient_parent = previous
            self._close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's own output checks)."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- wrapping ----------------------------------------------------
    def traced(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced form."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self.patch(owner, attr, self.traced(fn, name, on_result))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def calls(self, lo: int = 0, hi: int | None = None) -> dict[str, int]:
        """Calls per span name among spans ``lo..hi``."""
        counts = call_counts(self.name, self.parent, lo, hi)
        return {self.names[name_id]: n for name_id, n in counts.items()}

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in ns."""
        totals: dict[str, int] = {}
        selfs = self_times(self.start, self.end, self.parent)
        for name_id, value in zip(self.name, selfs):
            name = self.names[name_id]
            totals[name] = totals.get(name, 0) + value
        return totals

    def write(self, path) -> None:
        """All spans as gzipped columnar JSON (times in ns)."""
        document = {
            "names": self.names,
            "requests": self.requests,
            "name": self.name.tolist(),
            "request": self.request.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(document, handle, separators=(",", ":"))


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping
    children (spans of concurrent threads) count once.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for index in range(n):
        if parent[index] != NO_PARENT:
            children.setdefault(parent[index], []).append(index)
    result = [end[index] - start[index] for index in range(n)]
    for index, kids in children.items():
        lo, hi = start[index], end[index]
        covered = 0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[kid], lo), min(end[kid], hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[index] -= covered
    return result


def call_counts(name, parent, lo: int = 0, hi: int | None = None) -> dict[int, int]:
    """Calls per name id among spans ``lo..hi``; a span nested directly
    in a span of the same name is the same call delegating."""
    hi = len(name) if hi is None else hi
    counts: dict[int, int] = {}
    for index in range(lo, hi):
        up = parent[index]
        if up == NO_PARENT or name[up] != name[index]:
            counts[name[index]] = counts.get(name[index], 0) + 1
    return counts
