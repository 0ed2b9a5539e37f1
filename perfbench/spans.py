"""In-memory span tracer that wraps functions at their call sites.

A span records its name, start and end (``perf_counter_ns``), the span that
caused it, the run it belongs to, and an optional note computed from the
call's arguments and result (a prompt kind, a candidate count). Spans stay
in a list until the benchmark writes them out. Wrapping patches a module or
class attribute; :meth:`Tracer.restore` puts every original back and checks
that it did.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    run: str | None
    note: object = None


_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Outermost open span: the parent of spans opened on worker threads,
        # whose own stacks start empty.
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def traced(
        self,
        name: str,
        fn: Callable,
        note: Callable | None = None,
        run_id: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span; ``note(args, kwargs, result)`` and
        ``run_id(args, kwargs)`` are read-only hooks."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = parent is None
            if is_root:
                self._root = sid
            outer_run = getattr(local, "run", None)
            if run_id is not None:
                local.run = run_id(args, kwargs)
            stack.append(sid)
            result = _MISSING
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    self._root = None
                run = getattr(local, "run", None)
                local.run = outer_run
                detail = note(args, kwargs, result) if note and result is not _MISSING else None
                self.spans.append(Span(sid, name, start, end, parent, run, detail))

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`restore` undoes it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, note=None, run_id=None) -> None:
        """Trace every call made through ``owner.attr`` (a module function or a method)."""
        self.patch(owner, attr, self.traced(name, getattr(owner, attr), note, run_id))

    def restore(self) -> None:
        """Undo every patch, newest first, and check that each original is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
            if vars(owner).get(attr, _MISSING) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def write(self, path) -> None:
        """One JSON array per span, fields in :class:`Span` order."""
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span, separators=(",", ":")) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part covered by its child spans.

    Children may overlap (runs on worker threads); overlap counts once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered_ns(span.start, span.end, children[span.id])
        for span in spans
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
