"""Fault campaigns: golden-vs-faulty runs, classified and tabulated.

A campaign takes one scenario and a list of :class:`FaultSpec`, runs
the golden (fault-free) reference plus one run per fault — through the
campaign service's one execution path
(:func:`repro.campaign.service.run_cells`), with results reused from a
:class:`~repro.campaign.store.CampaignStore` when one is given — and
classifies every outcome record against the golden one:

``crash``
    the run raised (CPU fault, kernel error) — anything but a watchdog
    :class:`~repro.cosim.kernel.HangDetected`;
``hang``
    the watchdog fired, or the run ended without the workload
    completing (deadlock, starvation, lost message);
``detected``
    the workload completed and its *own* redundancy flagged the fault;
``sdc``
    completed, undetected, but the output stream differs from golden —
    silent data corruption, the outcome dependability work cares most
    about;
``masked``
    completed with output identical to golden.

The precedence above is total, so every fault lands in exactly one
class, and classification happens in the parent from JSON-stable
records — the histogram is identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple,
)

from repro.campaign.service import run_cells
from repro.fault.scenarios import SCENARIOS, run_scenario
from repro.fault.spec import FAULT_VERSION, OUTCOMES, FaultSpec
from repro.cosim.metrics import MetricsRegistry
from repro.obs.live import TelemetryEmitter
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore

#: A campaign job: (scenario name, fault dict or None for golden).
Job = Tuple[str, Optional[Dict[str, Any]]]


class CampaignError(RuntimeError):
    """The golden run is unusable as a classification reference."""


def cell_fingerprint(scenario: str, fault: Optional[FaultSpec]) -> str:
    """Cache key for one (scenario, fault) cell.

    Versioned alongside :data:`~repro.fault.spec.FAULT_VERSION` so a
    schema change invalidates old entries instead of misclassifying
    against them.
    """
    doc = {
        "version": FAULT_VERSION,
        "scenario": scenario,
        "fault": fault.to_dict() if fault is not None else None,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest()


def run_fault_cell(job: Job) -> Dict[str, Any]:
    """Run one campaign cell (the ``fault`` runner calls it by name)."""
    scenario, fault_dict = job
    fault = FaultSpec.from_dict(fault_dict) if fault_dict else None
    return run_scenario(scenario, fault)


def run_fault_cell_observed(
    job: Job,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """:func:`run_fault_cell` plus a worker-side observability payload.

    Mirrors :func:`repro.sweep.engine.run_cell_observed`: the record is
    byte-identical to the unobserved path (so caches stay comparable);
    the extra spans/metrics ride alongside for the parent to merge onto
    its Perfetto timeline.
    """
    scenario, fault_dict = job
    fault = FaultSpec.from_dict(fault_dict) if fault_dict else None
    spans = SpanTracer()
    spans.name_lane(spans.pid, f"fault worker {os.getpid()}")
    metrics = MetricsRegistry()
    label = fault.describe() if fault is not None else "golden"
    with spans.span("fault_cell", scenario=scenario, fault=label,
                    kind=(fault.kind if fault is not None else "none")):
        record = run_scenario(scenario, fault)
    metrics.counter("fault.cells").inc()
    if fault is not None:
        metrics.counter(f"fault.kind.{fault.kind}.cells").inc()
    obs = {
        "pid": os.getpid(),
        "spans": spans.snapshot(),
        "metrics": metrics.snapshot(),
    }
    return record, obs


def classify(golden: Dict[str, Any], faulty: Dict[str, Any]) -> str:
    """Place one faulty record into exactly one outcome class."""
    error = faulty.get("error")
    if error is not None:
        return "hang" if error["type"] == "HangDetected" else "crash"
    if not faulty["completed"]:
        return "hang"
    if faulty["detected"]:
        return "detected"
    if faulty["data"] != golden["data"]:
        return "sdc"
    return "masked"


@dataclass
class CampaignStats:
    """Volatile facts about one campaign run — never serialized into
    the result (which must be reproducible across runs and hosts)."""

    faults: int = 0
    computed: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.faults} faults: {self.cache_hits} cached, "
            f"{self.computed} computed ({self.duplicates} duplicate), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


@dataclass
class CampaignResult:
    """One campaign's classified outcomes, in input-fault order."""

    scenario: str
    golden: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)

    def histogram(self) -> Dict[str, int]:
        """Outcome counts, every class present (zero-filled)."""
        hist = {outcome: 0 for outcome in OUTCOMES}
        for row in self.rows:
            hist[row["outcome"]] += 1
        return hist

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-fault-kind outcome counts (kinds in first-seen order)."""
        table: Dict[str, Dict[str, int]] = {}
        for row in self.rows:
            kind = row["fault"]["kind"]
            hist = table.setdefault(
                kind, {outcome: 0 for outcome in OUTCOMES}
            )
            hist[row["outcome"]] += 1
        return table

    # ------------------------------------------------------------------
    # dependability figures of merit
    # ------------------------------------------------------------------
    def detection_coverage(self) -> float:
        """detected / (detected + sdc): how often the system's own
        redundancy catches a fault that corrupted the output."""
        hist = self.histogram()
        exposed = hist["detected"] + hist["sdc"]
        return hist["detected"] / exposed if exposed else 1.0

    def safe_ratio(self) -> float:
        """(masked + detected) / total: runs with no silent bad outcome."""
        if not self.rows:
            return 1.0
        hist = self.histogram()
        return (hist["masked"] + hist["detected"]) / len(self.rows)

    def dependability_table(self) -> str:
        """The human-readable kind × outcome report."""
        kinds = self.by_kind()
        width = max([len(k) for k in kinds] + [len("kind")])
        header = ["kind".ljust(width)] + [
            outcome.rjust(9) for outcome in OUTCOMES
        ] + ["total".rjust(7)]
        lines = [
            f"fault campaign: scenario={self.scenario} "
            f"faults={len(self.rows)}",
            "  ".join(header),
        ]
        for kind, hist in kinds.items():
            cells = [kind.ljust(width)] + [
                str(hist[outcome]).rjust(9) for outcome in OUTCOMES
            ] + [str(sum(hist.values())).rjust(7)]
            lines.append("  ".join(cells))
        total = self.histogram()
        cells = ["TOTAL".ljust(width)] + [
            str(total[outcome]).rjust(9) for outcome in OUTCOMES
        ] + [str(len(self.rows)).rjust(7)]
        lines.append("  ".join(cells))
        lines.append(
            f"detection coverage (detected/exposed): "
            f"{self.detection_coverage():.3f}   "
            f"safe ratio (masked+detected)/total: "
            f"{self.safe_ratio():.3f}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The full, reproducible campaign result as JSON."""
        return json.dumps(
            {
                "version": FAULT_VERSION,
                "scenario": self.scenario,
                "golden": self.golden,
                "histogram": self.histogram(),
                "by_kind": self.by_kind(),
                "detection_coverage": self.detection_coverage(),
                "safe_ratio": self.safe_ratio(),
                "rows": self.rows,
            },
            sort_keys=True, indent=2,
        )


def run_campaign(
    scenario: str,
    faults: Iterable[FaultSpec],
    workers: int = 1,
    cache: Optional[CampaignStore] = None,
    span_tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    recorder=None,
    batch: bool = False,
) -> CampaignResult:
    """Run the golden reference plus one cell per fault; classify all.

    Identical execution discipline to :func:`repro.sweep.engine.run_sweep`:
    the uncached cells go to :func:`repro.campaign.service.run_cells`
    (in-process at ``workers=1`` with no ``cache``, on store shards
    otherwise), and an in-process cell that raises propagates
    unwrapped; duplicate faults are computed once; a
    :class:`~repro.campaign.store.CampaignStore` as ``cache`` makes
    re-runs incremental and resumable; attaching a ``span_tracer``
    puts per-fault spans (recorded inside the workers) onto the
    parent's Perfetto timeline without perturbing the records.
    ``recorder`` arms the flight recorder exactly as in ``run_sweep``
    — live run marks and heartbeats, never a byte in the records.

    ``batch=True`` runs the uncached cells of a software-only
    scenario (golden + every CPU fault) as forks of one golden run
    (:class:`~repro.isa.BatchCpu`), in the parent (DESIGN §14), at any
    ``workers`` when no store is given; the remaining cells take the
    usual path.  Records, classification, and the stored content are
    byte-identical to the scalar path; only wall clock and the
    volatile stats change.  The flag is a no-op for scenarios that
    need the simulation kernel and with a store (whose shards own
    execution).
    """
    if scenario not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {scenario!r}; have {sorted(SCENARIOS)}"
        )
    faults = list(faults)
    metrics = metrics if metrics is not None else MetricsRegistry()
    observed = span_tracer is not None
    t0 = time.perf_counter()
    stats = CampaignStats(faults=len(faults), workers=workers)
    metrics.counter("fault.campaign.faults").inc(len(faults))

    if span_tracer is not None:
        span_tracer.name_lane(span_tracer.pid, "fault campaign")
        campaign_span = span_tracer.span(
            "campaign", scenario=scenario, faults=len(faults),
            workers=workers,
        )
        campaign_span.__enter__()
    else:
        campaign_span = None

    records: Dict[str, Dict[str, Any]] = {}
    pending: List[Tuple[str, Dict[str, Any]]] = []  # (fingerprint, payload)

    def want(fault: Optional[FaultSpec]) -> str:
        """Register one cell; returns its fingerprint."""
        fingerprint = cell_fingerprint(scenario, fault)
        if fingerprint in records:
            stats.duplicates += 1
            return fingerprint
        cached = cache.get(fingerprint) if cache is not None else None
        if cached is not None:
            records[fingerprint] = cached
            stats.cache_hits += 1
            metrics.counter("fault.cache.hits").inc()
        else:
            records[fingerprint] = {}  # reserve against duplicates
            pending.append((fingerprint, {
                "scenario": scenario,
                "fault": fault.to_dict() if fault is not None else None,
            }))
            metrics.counter("fault.cache.misses").inc()
        return fingerprint

    golden_fp = want(None)
    fault_fps = [want(fault) for fault in faults]

    #: with no store the parent emits; a store's coordinator and
    #: shards own their telemetry streams instead
    emitter = None
    if recorder is not None and cache is None:
        emitter = TelemetryEmitter(recorder, role="fault")
        emitter.emit("run", event="start", scenario=scenario,
                     faults=len(faults), workers=workers)

    def finish(fingerprint: str, record: Dict[str, Any],
               obs: Optional[Dict[str, Any]], elapsed_s: float) -> None:
        records[fingerprint] = record
        stats.computed += 1
        if emitter is not None:
            emitter.heartbeat(done=stats.computed + stats.cache_hits,
                              cache_hits=stats.cache_hits,
                              total=len(faults) + 1)
        metrics.counter("fault.cells.computed").inc()
        metrics.histogram("fault.cell.elapsed_s").observe(elapsed_s)
        if obs is not None:
            metrics.merge(obs["metrics"])
            span_tracer.merge_snapshot(obs["spans"])

    scenario_obj = SCENARIOS[scenario]
    if (batch and cache is None and pending
            and scenario_obj.software is not None):
        from repro.fault.scenarios import run_sw_batch
        from repro.fault.spec import CPU_KINDS

        lanes: List[Tuple[str, Optional[FaultSpec]]] = []
        rest: List[Tuple[str, Dict[str, Any]]] = []
        for fingerprint, payload in pending:
            fault_dict = payload["fault"]
            spec = FaultSpec.from_dict(fault_dict) if fault_dict else None
            if spec is None or spec.kind in CPU_KINDS:
                lanes.append((fingerprint, spec))
            else:
                rest.append((fingerprint, payload))
        if lanes:
            t_batch = time.perf_counter()
            lane_records, batch_stats = run_sw_batch(
                scenario_obj, [spec for _, spec in lanes]
            )
            per_cell = (time.perf_counter() - t_batch) / len(lanes)
            metrics.counter("fault.batch.lanes").inc(batch_stats.lanes)
            metrics.counter("fault.batch.dispatches").inc(
                batch_stats.dispatches)
            metrics.counter("fault.batch.drained").inc(
                batch_stats.drained())
            if emitter is not None:
                emitter.emit(
                    "batch", scenario=scenario,
                    lanes=batch_stats.lanes,
                    dispatches=batch_stats.dispatches,
                    drained=batch_stats.drained(),
                    reasons=dict(batch_stats.reasons),
                )
            for (fingerprint, _spec), record in zip(lanes, lane_records):
                finish(fingerprint, record, None, per_cell)
        pending = rest

    try:
        run_cells(pending, "fault_observed" if observed else "fault",
                  workers, finish, store=cache, metrics=metrics,
                  span_tracer=span_tracer, recorder=recorder)
    except BaseException:
        # never leave the campaign span open across a failed run
        if campaign_span is not None:
            campaign_span.__exit__(*sys.exc_info())
            campaign_span = None
        raise

    golden = records[golden_fp]
    if golden.get("error") or not golden.get("completed") \
            or golden.get("detected"):
        raise CampaignError(
            f"golden run of {scenario!r} is not a valid reference: "
            f"{golden!r}"
        )

    result = CampaignResult(scenario=scenario, golden=golden)
    for fault, fingerprint in zip(faults, fault_fps):
        record = records[fingerprint]
        result.rows.append({
            "fault": fault.to_dict(),
            "label": fault.describe(),
            "fingerprint": fingerprint,
            "outcome": classify(golden, record),
            "record": record,
        })

    if campaign_span is not None:
        campaign_span.__exit__(None, None, None)
    stats.elapsed_s = time.perf_counter() - t0
    if emitter is not None:
        # the final beat carries ``exiting`` so post-mortems read a
        # completed campaign as exited, not dead (rate limiting would
        # otherwise swallow it on short runs)
        emitter.heartbeat(force=True, exiting=True,
                          done=stats.computed + stats.cache_hits,
                          cache_hits=stats.cache_hits,
                          total=len(faults) + 1)
        emitter.emit("run", event="finish", scenario=scenario,
                     done=stats.computed + stats.cache_hits,
                     computed=stats.computed,
                     cache_hits=stats.cache_hits,
                     elapsed_s=stats.elapsed_s)
    result.stats = stats
    for outcome, count in result.histogram().items():
        metrics.counter(f"fault.outcome.{outcome}").inc(count)
    return result
