"""The experiment-sweep engine.

``run_sweep`` runs a grid of :class:`repro.sweep.config.SweepConfig`
cells through the campaign service's one execution path
(:func:`repro.campaign.service.run_cells`: in-process at one worker
with no store, on a :class:`~repro.campaign.store.CampaignStore`'s
shards otherwise) and assembles a
:class:`repro.sweep.table.SweepResult`.  Three properties make the
numbers trustworthy at scale:

* **Determinism** — every cell's RNG seeds are derived from its config
  fingerprint (stable hashes), never from worker identity, submission
  order, or wall-clock; and the result table is ordered by the input
  grid, not by completion order.  Identical grid + seeds ⇒
  byte-identical tables at any worker count.
* **Caching** — a store passed as ``cache`` lets re-runs and
  incremental grid extensions skip completed cells entirely, and an
  interrupted sweep resume where it stopped.
* **Observability** — progress and cache behaviour are counted in a
  :class:`repro.cosim.metrics.MetricsRegistry` (PR 1's layer), so tests
  can assert "this run recomputed nothing" instead of trusting timing;
  and an attached :class:`repro.obs.spans.SpanTracer` /
  :class:`repro.partition.seeding.ProgressProbe` turn the run into one
  merged wall-clock timeline — per-cell spans are recorded *inside* the
  shards, serialized back alongside each result, and folded into the
  parent trace on per-worker pid lanes, while worker-side metric
  deltas merge into the parent registry so counters are truthful at
  any worker count.

Wall-clock timings live in :class:`SweepStats`, deliberately *outside*
the result table, which must stay byte-identical across runs — the
observability payload travels next to the rows, never inside them.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple,
)

from repro.campaign.service import (
    CampaignCellError, CampaignInterrupted, run_cells,
)
from repro.cosim.metrics import MetricsRegistry
from repro.cosim.trace import Tracer
from repro.obs.live import TelemetryEmitter
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore
    from repro.partition import CostWeights, ProgressProbe
    from repro.sweep.config import SweepConfig
    from repro.sweep.table import SweepResult

# The partitioners behind a sweep cell and the result table are
# imported where they run (run_cell, run_cell_observed, run_sweep).

#: Trace-record kind emitted per completed/cached cell.
SWEEP_CELL = "sweep_cell"


def _cell_record(
    config: SweepConfig, problem, result
) -> Dict[str, Any]:
    """The table row for one computed cell (pure function of config)."""
    evaluation = result.evaluation
    return {
        "fingerprint": config.fingerprint,
        "problem_key": config.problem_key(),
        "config": config.to_dict(),
        "algorithm": result.algorithm,
        "n_tasks": len(problem.graph),
        "deadline_ns": problem.deadline_ns,
        "hw_area_budget": problem.hw_area_budget,
        "hw_tasks": sorted(result.hw_tasks),
        "n_hw": len(result.hw_tasks),
        "n_sw": len(result.sw_tasks),
        "cost": result.cost,
        "breakdown": dict(sorted(result.breakdown.items())),
        "latency_ns": evaluation.latency_ns,
        "hw_area": evaluation.hw_area,
        "sw_size": evaluation.sw_size,
        "comm_ns": evaluation.comm_ns,
        "overlap_fraction": evaluation.overlap_fraction,
        "deadline_met": evaluation.deadline_met,
        "area_feasible": result.area_feasible,
        "feasible": result.feasible,
        "moves_evaluated": result.moves_evaluated,
    }


def run_cell(
    config: SweepConfig, weights: Optional[CostWeights] = None
) -> Dict[str, Any]:
    """Execute one sweep cell: generate, partition, evaluate, record.

    Returns a plain JSON-serializable dict (the table row).  Everything
    in it is a pure function of the config — no timestamps, no host
    identity — so rows are comparable and cacheable across machines.
    """
    from repro.partition import HEURISTICS, CostWeights

    weights = weights if weights is not None else CostWeights()
    problem = config.build_problem()
    heuristic = HEURISTICS[config.heuristic]
    result = heuristic(
        problem, weights=weights, seed=config.heuristic_seed()
    )
    return _cell_record(config, problem, result)


def run_cell_observed(
    config: SweepConfig, weights: Optional[CostWeights] = None
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """:func:`run_cell` with full observability collected *in this
    process* — the form an observed sweep runs in each cell's worker.

    Returns ``(record, obs)``: the identical table row, plus a
    JSON-serializable observability payload — worker-side spans
    (build/partition phases nested under the cell span), per-iteration
    convergence records, and a worker :class:`MetricsRegistry` delta —
    for the parent to merge.  The payload never enters the row or the
    cache, so tables stay byte-identical with or without observation.
    """
    from repro.obs import convergence_sink
    from repro.partition import HEURISTICS, CostWeights, ProgressProbe

    weights = weights if weights is not None else CostWeights()
    spans = SpanTracer()
    spans.name_lane(spans.pid, f"sweep worker {os.getpid()}")
    probe = ProgressProbe(sink=convergence_sink(spans))
    metrics = MetricsRegistry()
    heuristic = HEURISTICS[config.heuristic]
    with spans.span(
        "cell", fingerprint=config.fingerprint,
        heuristic=config.heuristic, seed=config.seed,
    ):
        with spans.span("build_problem", generator=config.generator,
                        n_tasks=config.n_tasks):
            problem = config.build_problem()
        with spans.span("partition", heuristic=config.heuristic):
            result = heuristic(
                problem, weights=weights, seed=config.heuristic_seed(),
                probe=probe,
            )
    name = config.heuristic
    metrics.counter("sweep.worker.cells").inc()
    metrics.counter(f"heuristic.{name}.cells").inc()
    metrics.counter(f"heuristic.{name}.moves_evaluated").inc(
        result.moves_evaluated
    )
    metrics.counter(f"heuristic.{name}.probe_records").inc(len(probe))
    metrics.histogram(f"heuristic.{name}.hw_tasks").observe(
        len(result.hw_tasks)
    )
    record = _cell_record(config, problem, result)
    for rec in probe.records:  # make merged multi-cell streams separable
        rec.detail.setdefault("cell", config.fingerprint[:12])
    obs = {
        "pid": os.getpid(),
        "spans": spans.snapshot(),
        "probe": probe.to_dicts(),
        "metrics": metrics.snapshot(),
    }
    return record, obs


class SweepCellError(RuntimeError):
    """One sweep cell failed; names the cell and keeps what finished.

    ``fingerprint``/``heuristic`` identify the failing cell (the first
    thing a bug report needs); ``completed`` maps fingerprint → record
    for every cell that finished before the failure — those were also
    committed to the store when one was attached, so a re-run
    recomputes only the failed cell onward.
    """

    def __init__(
        self,
        fingerprint: str,
        heuristic: str,
        completed: Dict[str, Dict[str, Any]],
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"sweep cell {fingerprint} (heuristic={heuristic!r}) "
            f"failed: {type(cause).__name__}: {cause}; "
            f"{len(completed)} completed row(s) preserved"
        )
        self.fingerprint = fingerprint
        self.heuristic = heuristic
        self.completed = completed


@dataclass
class SweepStats:
    """Volatile facts about one engine run (never serialized into the
    result table, which must stay byte-identical across runs)."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.cells} cells: {self.cache_hits} cached, "
            f"{self.computed} computed ({self.duplicates} duplicate), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


def run_sweep(
    configs: Iterable[SweepConfig],
    workers: int = 1,
    cache: Optional[CampaignStore] = None,
    weights: Optional[CostWeights] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    span_tracer: Optional[SpanTracer] = None,
    probe: Optional[ProgressProbe] = None,
    recorder=None,
) -> SweepResult:
    """Run every cell of the grid; return the ordered result table.

    The uncached cells go to :func:`repro.campaign.service.run_cells`:
    ``workers=1`` with no ``cache`` runs them in-process; otherwise
    they run on ``workers`` shards of the
    :class:`~repro.campaign.store.CampaignStore` passed as ``cache``
    (durable and resumable), or of a temporary store.  Duplicate
    configs in the grid are computed once and the row repeated.  The
    returned table carries a :class:`SweepStats` as ``.stats``.

    Attaching a ``span_tracer`` and/or ``probe`` switches cells to
    :func:`run_cell_observed`: per-cell spans recorded inside the
    workers are merged into the parent tracer on per-worker pid lanes,
    convergence records land in the probe, and worker-side metric
    deltas fold into ``metrics`` — counters read identically at any
    worker count.  The row/cache content is unchanged either way.

    ``recorder`` arms the flight recorder (:mod:`repro.obs.live`):
    run marks and progress heartbeats stream to it while the sweep is
    in flight — from this process with no store, and from the
    coordinator plus every shard on a store.  Samples never enter
    rows, fingerprints, or the store; the table is byte-identical
    with or without a recorder.
    """
    from repro.sweep.table import SweepResult

    if workers < 1:
        raise ValueError("workers must be >= 1")
    configs = list(configs)
    metrics = metrics if metrics is not None else (
        tracer.metrics if tracer is not None else MetricsRegistry()
    )
    observed = span_tracer is not None or probe is not None
    t0 = time.perf_counter()

    if span_tracer is not None:
        span_tracer.name_lane(span_tracer.pid, "sweep parent")
        sweep_span = span_tracer.span("sweep", cells=len(configs),
                                      workers=workers)
        sweep_span.__enter__()
    else:
        sweep_span = None

    rows: Dict[str, Dict[str, Any]] = {}
    pending: List[SweepConfig] = []
    stats = SweepStats(cells=len(configs), workers=workers)
    metrics.counter("sweep.cells.total").inc(len(configs))
    for config in configs:
        fingerprint = config.fingerprint
        if fingerprint in rows:
            stats.duplicates += 1
            continue
        cached = cache.get(fingerprint) if cache is not None else None
        if cached is not None:
            rows[fingerprint] = cached
            stats.cache_hits += 1
            metrics.counter("sweep.cache.hits").inc()
            if tracer is not None:
                tracer.emit(SWEEP_CELL, fingerprint, time=0.0, cached=True,
                            heuristic=config.heuristic)
            if span_tracer is not None:
                span_tracer.event("cache.hit", fingerprint=fingerprint,
                                  heuristic=config.heuristic)
        else:
            # reserve the slot so a duplicate later in the grid is not
            # submitted twice
            rows[fingerprint] = {}
            pending.append(config)
            metrics.counter("sweep.cache.misses").inc()

    #: with no store this process is the only writer, so it emits the
    #: run marks and heartbeats itself; a store's coordinator and
    #: shards each own their telemetry stream instead
    emitter = None
    if recorder is not None and cache is None:
        emitter = TelemetryEmitter(recorder, role="sweep")
        emitter.emit("run", event="start", cells=len(configs),
                     workers=workers)

    def finish(fingerprint: str, record: Dict[str, Any],
               obs: Optional[Dict[str, Any]], elapsed_s: float) -> None:
        rows[fingerprint] = record
        stats.computed += 1
        if emitter is not None:
            emitter.heartbeat(done=stats.computed + stats.cache_hits,
                              cache_hits=stats.cache_hits,
                              total=len(configs))
        metrics.counter("sweep.cells.computed").inc()
        metrics.histogram("sweep.cell.elapsed_s").observe(elapsed_s)
        if tracer is not None:
            tracer.emit(SWEEP_CELL, fingerprint, time=0.0,
                        cached=False,
                        heuristic=by_fingerprint[fingerprint].heuristic,
                        elapsed_s=elapsed_s)
        if obs is not None:
            metrics.merge(obs["metrics"])
            if span_tracer is not None:
                span_tracer.merge_snapshot(obs["spans"])
            if probe is not None:
                probe.extend_from_dicts(obs["probe"])

    by_fingerprint = {c.fingerprint: c for c in pending}
    weights_dict = (dataclasses.asdict(weights)
                    if weights is not None else None)
    payloads = [
        (c.fingerprint, {"config": c.to_dict(), "weights": weights_dict})
        for c in pending
    ]
    failed = None
    try:
        try:
            run_cells(payloads, "sweep_observed" if observed else "sweep",
                      workers, finish, store=cache, metrics=metrics,
                      span_tracer=span_tracer, recorder=recorder)
        except CampaignCellError as exc:
            failed, cause = by_fingerprint[min(exc.failures)], exc
        except CampaignInterrupted:
            raise
        except Exception as exc:
            # an in-process cell raised; cells run in grid order, so it
            # is the first one still without a row
            failed = next((c for c in pending if not rows[c.fingerprint]),
                          None)
            if failed is None:
                raise
            cause = exc
        if failed is not None:
            raise SweepCellError(
                failed.fingerprint, failed.heuristic,
                {fp: r for fp, r in rows.items() if r}, cause,
            ) from cause
    finally:
        # a failed run must never leave the sweep span open or the
        # reserved {} placeholder rows masquerading as results
        if sweep_span is not None:
            sweep_span.__exit__(*sys.exc_info())

    stats.elapsed_s = time.perf_counter() - t0
    if emitter is not None:
        # the final beat carries ``exiting`` so post-mortems read a
        # completed run as exited, not dead (rate limiting would
        # otherwise swallow it on short runs)
        emitter.heartbeat(force=True, exiting=True,
                          done=stats.computed + stats.cache_hits,
                          cache_hits=stats.cache_hits,
                          total=len(configs))
        emitter.emit("run", event="finish",
                     done=stats.computed + stats.cache_hits,
                     computed=stats.computed,
                     cache_hits=stats.cache_hits,
                     elapsed_s=stats.elapsed_s)
    table = SweepResult([rows[c.fingerprint] for c in configs])
    table.stats = stats
    if observed:
        table.obs = {"span_tracer": span_tracer, "probe": probe,
                     "metrics": metrics}
    return table
