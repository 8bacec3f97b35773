"""In-memory span recorder for the traced replay, plus self-time arithmetic.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span (``-1`` for a root) and ``request`` the id the spans
of one request share.  Spans are kept in a list and written out once, when
the run ends.  A layer's *self time* is its span's duration minus the part
of that interval its child spans cover — children may overlap each other,
so the covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``enabled=False`` makes :meth:`span` a bare yield."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, request))  # placeholder
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, request)

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span, so a child running past its parent's end never
    makes the parent's self time negative)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [
        span.duration - union_length(children.get(i, [])) for i, span in enumerate(spans)
    ]


def durations_by_name(spans: Sequence[Span]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(span.duration)
    return out


def coverage(spans: Sequence[Span], root: str = "request") -> float:
    """Sum of layer self times inside ``root`` spans over the roots' total
    duration: the share of traced end-to-end time the layers account for."""
    selfs = self_times(spans)
    roots = {i for i, s in enumerate(spans) if s.name == root and s.parent < 0}
    total = sum(spans[i].duration for i in roots)
    if total <= 0:
        raise ValueError("no traced end-to-end time")

    def root_of(i: int) -> int:
        while spans[i].parent >= 0:
            i = spans[i].parent
        return i

    layered = sum(
        selfs[i] for i, s in enumerate(spans) if s.parent >= 0 and root_of(i) in roots
    )
    return layered / total
