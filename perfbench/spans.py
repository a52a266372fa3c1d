"""In-memory span recorder for the benchmark's own code.

A span is a named interval with the span that was open when it started
(its parent) and the id of the run that recorded it.  Spans stay in
memory until the run ends and are then written out as JSON lines.  A
span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus child coverage."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered((s.start, s.end), children.get(i, []))
        for i, s in enumerate(spans)
    ]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants."""
    keep = {root}
    for i, s in enumerate(spans):  # parents are recorded before children
        if s.parent in keep:
            keep.add(i)
    return sorted(keep)


class Recorder:
    """Records the spans of one run."""

    def __init__(self, run_id: int, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def write(self, path):
        """Append every span as one JSON line, with its self time."""
        with open(path, "a", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({**asdict(s), "self": own}) + "\n")
