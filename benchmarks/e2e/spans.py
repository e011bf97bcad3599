"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, name, start, end, parent, run)``: the benchmark opens
one around every call it makes into a layer of the program, keeps them
all in memory while it runs, and writes them out as JSON lines at the
end.  Per-layer metrics are derived from these records (durations,
self time), never timed a second way.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one benchmark run.

    Spans nest by call order within a thread; a span opened in another
    thread (a load-generator sender) names its parent explicitly.
    """

    def __init__(self, run: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack: list[int] = self._local.stack
        return stack

    def _record(
        self, name: str, start: float, end: float, parent: int | None, attrs: dict[str, object]
    ) -> Span:
        with self._lock:
            record = Span(len(self.spans), name, start, end, parent, self.run, attrs)
            self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        if parent is None and stack:
            parent = self.spans[stack[-1]]
        record = self._record(
            name, self._clock(), 0.0, parent.id if parent is not None else None, attrs
        )
        stack.append(record.id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self._clock()

    def add(self, name: str, start: float, end: float, **attrs: object) -> Span:
        """Record an already-timed interval under this thread's current span."""
        stack = self._stack()
        return self._record(name, start, end, stack[-1] if stack else None, attrs)

    def adopt(self, records: list[dict[str, Any]], parent: Span | None = None) -> None:
        """Graft spans a child process recorded under ``parent``.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        a child's timestamps line up with the parent's.
        """
        with self._lock:
            offset = len(self.spans)
            for raw in records:
                if raw["parent"] is not None:
                    graft = offset + raw["parent"]
                else:
                    graft = parent.id if parent is not None else None
                self.spans.append(
                    Span(offset + raw["id"], raw["name"], raw["start"], raw["end"],
                         graft, self.run, dict(raw["attrs"]))
                )

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, span: Span) -> float:
        """``span``'s duration minus the part its direct children cover."""
        children = sorted(
            (s.start, s.end) for s in self.spans if s.parent == span.id
        )
        covered = 0.0
        cursor = span.start
        for start, end in children:
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def to_dicts(self) -> list[dict[str, object]]:
        return [asdict(s) for s in self.spans]

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.to_dicts():
                handle.write(json.dumps(record) + "\n")
        return path
