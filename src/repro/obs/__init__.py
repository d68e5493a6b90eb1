"""Unified cross-layer observability.

PR 1 instrumented the co-simulation kernel (``repro.cosim.trace`` /
``repro.cosim.metrics``); this package layers *on top of* it so every
other layer — the six partitioners, the sweep engine's worker
processes, the R32 profiler — reports where wall-clock and search
effort go:

* :mod:`repro.obs.spans` — hierarchical wall-clock span tracing
  (:class:`SpanTracer`) with nested spans, attributes, instant events,
  and lossless worker→parent merging with per-worker pid/tid lanes;
* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON
  export (:func:`to_trace_events`), a bridge for kernel traces
  (:func:`kernel_trace_events`), and the structural schema validator
  (:func:`validate_trace_events`) CI runs on every smoke trace;
* :mod:`repro.obs.flame` — aligned-text flamegraph rendering
  (:func:`render_flamegraph`) for terminals;
* :mod:`repro.obs.live` — the flight recorder: periodic heartbeat /
  queue / generation samples from in-flight runs into a store table
  or JSONL file, plus the ``campaign_top`` status rendering;
* :mod:`repro.obs.postmortem` — crash post-mortems reconstructed from
  the flight recorder + the store's leases (:func:`post_mortem`);
* :class:`repro.partition.seeding.ProgressProbe` (re-exported here) —
  per-iteration convergence telemetry from every heuristic;
  :func:`convergence_sink` turns its records into span events live.

Only :mod:`~repro.obs.spans` and :mod:`~repro.obs.live` load with the
package; the exporters, the post-mortem and the re-exported probe load
on first access, so a run that only records spans and heartbeats never
imports the partitioners.

The whole package follows PR 1's zero-cost-when-disabled convention:
every producer guards with ``if <collector> is not None`` and an
unobserved run allocates nothing.

Quick tour::

    from repro.obs import ProgressProbe, SpanTracer, convergence_sink

    spans = SpanTracer()
    probe = ProgressProbe(sink=convergence_sink(spans))
    with spans.span("partition", heuristic="annealing"):
        simulated_annealing(problem, seed=1, probe=probe)
    spans.write_perfetto("trace.json")     # load in ui.perfetto.dev
    print(spans.flamegraph())
    print(probe.convergence_table("annealing"))
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.obs.spans import Span, SpanEvent, SpanTracer
from repro.obs.live import (
    DEFAULT_HEARTBEAT_S,
    JsonlRecorder,
    StoreRecorder,
    TelemetryEmitter,
    TelemetrySample,
    latest_by_owner,
    owner_throughput,
    read_samples,
    render_status,
)

if TYPE_CHECKING:
    from repro.partition.seeding import ProgressRecord

# exporters, post-mortems and the partitioners' probe load on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.perfetto": (
        "REQUIRED_KEYS",
        "kernel_trace_events",
        "to_perfetto_json",
        "to_trace_events",
        "validate_trace_events",
    ),
    "repro.obs.flame": ("fold_spans", "render_flamegraph"),
    "repro.obs.postmortem": ("PostMortem", "post_mortem"),
    "repro.partition.seeding": ("ProgressProbe", "ProgressRecord"),
})


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


__all__ = [
    "Span",
    "SpanEvent",
    "SpanTracer",
    "REQUIRED_KEYS",
    "kernel_trace_events",
    "to_perfetto_json",
    "to_trace_events",
    "validate_trace_events",
    "fold_spans",
    "render_flamegraph",
    "DEFAULT_HEARTBEAT_S",
    "JsonlRecorder",
    "StoreRecorder",
    "TelemetryEmitter",
    "TelemetrySample",
    "latest_by_owner",
    "owner_throughput",
    "read_samples",
    "render_status",
    "PostMortem",
    "post_mortem",
    "ProgressProbe",
    "ProgressRecord",
    "convergence_sink",
]
