"""In-memory span recorder used by the benchmark's traced mode.

A span covers one call the benchmark makes into a public qfisher function.
Spans carry a name (``<module>.<function>``), start and end times from
``time.perf_counter``, the index of the enclosing span, the task id, and a
probe flag. Probes are calls issued only in the traced run, to expose an
inner layer; they are excluded from the end-to-end totals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    task: int
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``task`` is set by the caller before each task."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.task = -1

    @contextmanager
    def span(self, name: str, probe: bool = False) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        # Work done under a probe is probe work too.
        probe = probe or (parent is not None and self.spans[parent].probe)
        record = Span(name, time.perf_counter(), 0.0, parent, self.task, probe)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: spans cost one attribute lookup and record nothing."""

    enabled = False
    task = -1

    def span(self, name: str, probe: bool = False):
        return _NULL_SPAN


_NULL_SPAN = nullcontext()
