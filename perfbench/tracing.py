"""Span tracing from the benchmark's own files.

Wrappers are installed at the name each caller actually looks up (a
module global, or a method on a class), so a call made from inside the
program is seen exactly like a call made by the benchmark.  Spans are
kept in memory as (name, start, end, parent, item) and written out when
the run ends; self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    item: object


class _Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer(_Patches):
    """Records a span around every call of each patched function while
    `active` is true; `item` labels the spans of the item in progress."""

    def __init__(self) -> None:
        super().__init__()
        self.raw: list[list] = []
        self.work: dict[str, int] = defaultdict(int)
        self.active = False
        self.item: object = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.raw))
        self.raw.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def patch(self, owner: object, attr: str, name: str, work: Callable | None = None) -> None:
        """Trace `owner.attr` as `name`; `work(args, result)` adds units
        of work to `self.work[name]` after each traced call returns."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rec = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                if work is not None:
                    tracer.work[name] += work(args, result)
                return result

            return traced

        self.replace(owner, attr, make)

    @property
    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.raw]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.raw:
                fh.write(json.dumps(rec) + "\n")


class CallCounter(_Patches):
    """Counts calls of each patched function while `active` is true."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False

    def patch(self, owner: object, attr: str, name: str) -> None:
        counter = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if counter.active:
                    counter.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


class Totals(NamedTuple):
    calls: int
    self_s: float
    inclusive_s: float  # outermost spans of the name only, so recursion is not counted twice


def totals_by_name(spans: Sequence[Span], keep: Callable[[Span], bool] = lambda s: True) -> dict[str, Totals]:
    """Calls, self time and inclusive time per span name, over the spans
    that `keep` selects (self time still subtracts every child)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        if not keep(s):
            continue
        calls[s.name] += 1
        self_s[s.name] += selfs[idx]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            incl[s.name] += s.end - s.start
    return {name: Totals(calls[name], self_s[name], incl[name]) for name in calls}
