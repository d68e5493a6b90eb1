"""One observability handle: the collectors a run reports to.

The campaign drivers (``run_sweep``, ``run_campaign``, ``explore``)
and the campaign service take one ``obs=`` argument, an :class:`Obs`
holding up to four collectors: a ``metrics`` registry, a ``spans``
tracer, a convergence ``probe`` and a flight-recorder ``recorder``.
The session does what every driver used to repeat: it opens and closes
the run span, runs the flight recorder's start / heartbeat / exiting /
finish sequence, builds the session a cell runs under in its worker,
and folds that worker's payload back in.

Zero cost when disabled: a run given no session uses :data:`DISABLED`,
whose collectors are all absent, so each method returns after one
``is not None`` test, and nothing is constructed or allocated here.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from repro.obs.live import TelemetryEmitter
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:
    from repro.cosim.metrics import MetricsRegistry
    from repro.partition.seeding import ProgressProbe, ProgressRecord

#: Cell kinds whose heuristics stream convergence records: their worker
#: sessions carry a probe, and a session with a probe observes them.
PROBED_KINDS = frozenset({"sweep"})

_NO_SPAN = nullcontext()


def convergence_sink(span_tracer: SpanTracer):
    """A :class:`ProgressProbe` sink that mirrors every convergence
    record as an instant span event (``converge:<algorithm>``), so
    heuristic trajectories appear on the merged Perfetto timeline."""
    def sink(record: ProgressRecord) -> None:
        span_tracer.event(
            f"converge:{record.algorithm}",
            iteration=record.iteration,
            cost=record.cost,
            best_cost=record.best_cost,
            accepted=record.accepted,
            **record.detail,
        )
    return sink


class Obs:
    """The collectors one run reports to; any may be absent, and each
    method is a no-op for an absent one."""

    __slots__ = ("metrics", "spans", "probe", "recorder", "_emitter")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanTracer] = None,
                 probe: Optional[ProgressProbe] = None,
                 recorder=None) -> None:
        self.metrics = metrics
        self.spans = spans
        self.probe = probe
        self.recorder = recorder
        self._emitter: Optional[TelemetryEmitter] = None

    @contextmanager
    def run(self, span: str, lane: str, role: str, record: bool = True,
            owner: Optional[str] = None, **attrs: Any) -> Iterator[None]:
        """One driver run, for the ``with`` body: names this process's
        lane (until exit, for a nested run), holds the run span open
        (``attrs``) however the body exits, and, with a recorder and
        ``record`` set, opens a flight-recorder stream (``role``,
        ``owner``) with a ``run`` start mark that :meth:`beat` and
        :meth:`finish` continue."""
        outer = self._emitter
        if record and self.recorder is not None:
            self._emitter = TelemetryEmitter(self.recorder, owner=owner,
                                             role=role)
            self._emitter.emit("run", event="start", **attrs)
        spans = self.spans
        outer_lane = None
        try:
            if spans is None:
                yield
            else:
                outer_lane = spans.lane_names.get(spans.pid)
                spans.name_lane(spans.pid, lane)
                with spans.span(span, **attrs):
                    yield
        finally:
            self._emitter = outer
            if outer_lane is not None:
                spans.name_lane(spans.pid, outer_lane)

    def beat(self, **progress: Any) -> None:
        """A rate-limited heartbeat on the open run's stream."""
        if self._emitter is not None:
            self._emitter.heartbeat(**progress)

    def mark(self, kind: str, **data: Any) -> None:
        """One sample of ``kind`` on the open run's stream."""
        if self._emitter is not None:
            self._emitter.emit(kind, **data)

    def finish(self, progress: Dict[str, Any], **totals: Any) -> None:
        """The stream's last words: a forced heartbeat marked
        ``exiting`` (so a post-mortem reads the run as exited, not
        dead), then the ``run`` finish mark."""
        if self._emitter is not None:
            self._emitter.heartbeat(force=True, exiting=True, **progress)
            self._emitter.emit("run", event="finish", **totals)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """One sample into the histogram ``name``."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def event(self, name: str, **attrs: Any) -> None:
        """An instant span event."""
        if self.spans is not None:
            self.spans.event(name, **attrs)

    def span(self, name: str, **attrs: Any):
        """A nested span for a ``with`` body (no-op without spans)."""
        if self.spans is None:
            return _NO_SPAN
        return self.spans.span(name, **attrs)

    def without_recorder(self) -> "Obs":
        """This session for a nested run whose caller records."""
        if self.recorder is None:
            return self
        return Obs(self.metrics, self.spans, self.probe)

    # ------------------------------------------------------------------
    # the worker side of an observed cell
    # ------------------------------------------------------------------
    def observes(self, kind: str) -> bool:
        """Whether ``kind`` cells run observed under this session: with
        spans, or with a probe for :data:`PROBED_KINDS` (a registry
        alone does not; the driver counts its cells itself)."""
        return self.spans is not None or (
            self.probe is not None and kind in PROBED_KINDS)

    @classmethod
    def worker(cls, kind: str) -> "Obs":
        """The session one observed ``kind`` cell runs under: spans on
        a lane named ``<kind> worker <pid>``, a registry, and for
        :data:`PROBED_KINDS` a probe mirrored into the spans."""
        from repro.cosim.metrics import MetricsRegistry

        spans = SpanTracer()
        spans.name_lane(spans.pid, f"{kind} worker {os.getpid()}")
        probe = None
        if kind in PROBED_KINDS:
            from repro.partition.seeding import ProgressProbe

            probe = ProgressProbe(sink=convergence_sink(spans))
        return cls(metrics=MetricsRegistry(), spans=spans, probe=probe)

    def payload(self) -> Dict[str, Any]:
        """A worker session as the JSON the store's ``obs`` column
        keeps and :meth:`merge` reads."""
        doc: Dict[str, Any] = {"pid": os.getpid(),
                               "spans": self.spans.snapshot()}
        if self.probe is not None:
            doc["probe"] = self.probe.to_dicts()
        doc["metrics"] = self.metrics.snapshot()
        return doc

    def merge(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold one cell's worker payload (None for a plain cell) into
        this session's collectors."""
        if payload is None:
            return
        if self.metrics is not None:
            self.metrics.merge(payload["metrics"])
        if self.spans is not None:
            self.spans.merge_snapshot(payload["spans"])
        if self.probe is not None and "probe" in payload:
            self.probe.extend_from_dicts(payload["probe"])


#: The session of a run given none.
DISABLED = Obs()
