"""Hierarchical span tracing across every layer of the reproduction.

PR 1's :class:`repro.cosim.trace.Tracer` records the co-simulation
kernel's primitive happenings on *model* time.  A :class:`SpanTracer`
records *wall-clock* work — which partitioner ran, which sweep cell,
which phase inside it — as nested spans with attributes and point
events, in any process.  Worker-side tracers serialize their spans with
each sweep-cell result and the parent merges them into one timeline
with per-worker pid/tid lanes, which is what makes a 2-worker sweep
render as two parallel swimlanes in Perfetto.

Timestamps come from ``time.perf_counter()`` (CLOCK_MONOTONIC on
Linux), which is system-wide on one machine, so spans recorded in
worker processes align with the parent's without clock negotiation; exporters
normalize to the earliest span anyway.

Same zero-cost discipline as the kernel tracer: callers guard every
use with ``if span_tracer is not None``; an unobserved run allocates
nothing span-related.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional
from contextlib import contextmanager


@dataclass(slots=True)
class Span:
    """One timed region of work.

    ``start``/``end`` are perf-counter seconds; ``depth`` is the
    nesting level at record time (0 = top level); ``pid``/``tid``
    identify the lane (worker process / thread) the work ran in.
    """

    name: str
    start: float
    end: float
    pid: int
    tid: int
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (worker → parent transport)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=data["name"], start=data["start"], end=data["end"],
            pid=data["pid"], tid=data["tid"], depth=data["depth"],
            attrs=dict(data.get("attrs", {})),
        )


@dataclass(slots=True)
class SpanEvent:
    """One instantaneous happening (a convergence sample, a cache hit)."""

    name: str
    time: float
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "name": self.name,
            "time": self.time,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanEvent":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=data["name"], time=data["time"],
            pid=data["pid"], tid=data["tid"],
            attrs=dict(data.get("attrs", {})),
        )


class SpanTracer:
    """Collects nested :class:`Span` regions and :class:`SpanEvent`
    points for one process, and merges other tracers' output into a
    single timeline.

    Usage::

        spans = SpanTracer()
        with spans.span("sweep", cells=64):
            with spans.span("cell", heuristic="greedy"):
                ...
            spans.event("cache.hit", fingerprint=fp)

    Spans land in :attr:`finished` when closed (innermost first, as
    usual for region traces); :meth:`to_perfetto` / the flamegraph
    renderer re-derive the hierarchy from time containment, so merged
    foreign spans need no parent pointers.
    """

    def __init__(
        self,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
        clock=time.perf_counter,
    ) -> None:
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() % 100000 if tid is None else tid
        self.finished: List[Span] = []
        self.events: List[SpanEvent] = []
        self._clock = clock
        self._stack: List[Span] = []
        #: pid → human label, rendered as Perfetto process_name metadata.
        self.lane_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span for the duration of the ``with`` body."""
        record = Span(
            name=name, start=self._clock(), end=0.0,
            pid=self.pid, tid=self.tid,
            depth=len(self._stack), attrs=attrs,
        )
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()
            self.finished.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Record one instantaneous event at the current time."""
        self.events.append(
            SpanEvent(name, self._clock(), self.pid, self.tid, attrs)
        )

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def open_spans(self) -> List[Span]:
        """Every still-open span, outermost first.

        Normally empty at export time; after a crash or SIGKILL these
        are exactly the regions that were in flight, which the
        Perfetto exporter can dump with synthetic ends
        (``unfinished=True``).
        """
        return list(self._stack)

    def now(self) -> float:
        """The tracer's clock (the exporter's synthetic end time)."""
        return self._clock()

    def name_lane(self, pid: int, label: str) -> None:
        """Attach a human label to a pid lane (worker naming)."""
        self.lane_names[pid] = label

    # ------------------------------------------------------------------
    # transport and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded so far, JSON-serializable — the payload
        a worker process ships back with its result."""
        return {
            "pid": self.pid,
            "tid": self.tid,
            "spans": [s.to_dict() for s in self.finished],
            "events": [e.to_dict() for e in self.events],
            "lane_names": {str(k): v for k, v in self.lane_names.items()},
        }

    def merge_snapshot(
        self, snap: Dict[str, Any], lane: Optional[str] = None
    ) -> None:
        """Fold a foreign tracer's :meth:`snapshot` into this timeline.

        The foreign spans keep their own pid/tid, so each worker gets
        its own lane in the merged trace; ``lane`` labels that lane.
        The snapshot's names never rename this tracer's own named lane,
        where a payload recorded in this process lands.
        """
        for data in snap.get("spans", ()):
            self.finished.append(Span.from_dict(data))
        for data in snap.get("events", ()):
            self.events.append(SpanEvent.from_dict(data))
        for pid_str, label in snap.get("lane_names", {}).items():
            pid = int(pid_str)
            if pid != self.pid or pid not in self.lane_names:
                self.lane_names[pid] = label
        if lane is not None:
            self.lane_names[snap["pid"]] = lane

    # ------------------------------------------------------------------
    # queries and exporters
    # ------------------------------------------------------------------
    def spans_named(self, name: str) -> List[Span]:
        """All finished spans with this name, in start order."""
        return sorted(
            (s for s in self.finished if s.name == name),
            key=lambda s: s.start,
        )

    def pids(self) -> List[int]:
        """Every pid lane present, sorted."""
        out = {s.pid for s in self.finished}
        out.update(e.pid for e in self.events)
        return sorted(out)

    def total_time(self) -> float:
        """Wall-clock extent of the trace (earliest start → latest end)."""
        if not self.finished:
            return 0.0
        return (max(s.end for s in self.finished)
                - min(s.start for s in self.finished))

    def to_perfetto(self, indent: Optional[int] = None,
                    unfinished: bool = False) -> str:
        """The merged timeline as Chrome trace-event / Perfetto JSON.

        ``unfinished=True`` also dumps still-open spans with a
        synthetic end at dump time (marked ``unfinished`` in their
        args) — the crash/post-mortem form, which still passes the
        schema validator.
        """
        from repro.obs.perfetto import to_perfetto_json
        return to_perfetto_json(self, indent=indent,
                                unfinished=unfinished)

    def write_perfetto(self, path: str, indent: Optional[int] = None,
                       unfinished: bool = False) -> None:
        """Write :meth:`to_perfetto` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_perfetto(indent=indent,
                                      unfinished=unfinished))

    def flamegraph(self, width: int = 72) -> str:
        """Aligned-text flamegraph of the span hierarchy."""
        from repro.obs.flame import render_flamegraph
        return render_flamegraph(self, width=width)

    def __len__(self) -> int:
        return len(self.finished)

    def __repr__(self) -> str:
        return (
            f"SpanTracer({len(self.finished)} spans, "
            f"{len(self.events)} events, {len(self.pids())} lanes)"
        )
