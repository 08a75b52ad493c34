"""In-memory spans recorded around the benchmark's calls into mocapcal.

A span has a name, start and end (``perf_counter`` seconds), the index of
the span it ran inside, and the id of the job it belongs to. It also keeps
the process CPU clock at both ends and a dict of counts recorded at the
same boundary, so ratios are taken where the work happens.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    job: Optional[int]
    cpu_start: float
    end: float = float("nan")
    cpu_end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Records nested spans; ``job`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: Optional[int] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._open[-1] if self._open else None,
            job=self.job,
            cpu_start=time.process_time(),
        )
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.cpu_end = time.process_time()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; children never overlap because the benchmark is one thread.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, tuple[int, float, float]] = {}
        for s, covered in zip(self.spans, child_time):
            calls, total, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, total + s.duration, own + s.duration - covered)
        return out


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced side of the overhead."""

    @contextmanager
    def span(self, name: str):
        yield Span(name=name, start=0.0, parent=None, job=None, cpu_start=0.0)
