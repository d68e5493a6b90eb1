"""The parallel experiment-sweep engine.

``run_sweep`` fans a grid of :class:`repro.sweep.config.SweepConfig`
cells across a ``ProcessPoolExecutor`` and assembles a
:class:`repro.sweep.table.SweepResult`.  Three properties make the
numbers trustworthy at scale:

* **Determinism** — every cell's RNG seeds are derived from its config
  fingerprint (stable hashes), never from worker identity, submission
  order, or wall-clock; and the result table is ordered by the input
  grid, not by completion order.  Identical grid + seeds ⇒
  byte-identical tables at any worker count.
* **Caching** — an optional :class:`repro.sweep.cache.ResultCache`
  (fingerprint-keyed JSON files) lets re-runs and incremental grid
  extensions skip completed cells entirely.
* **Observability** — progress and cache behaviour are counted in a
  :class:`repro.cosim.metrics.MetricsRegistry` (PR 1's layer), so tests
  can assert "this run recomputed nothing" instead of trusting timing;
  and an attached :class:`repro.obs.spans.SpanTracer` /
  :class:`repro.partition.seeding.ProgressProbe` turn the run into one
  merged wall-clock timeline — per-cell spans are recorded *inside* the
  pool workers, serialized back alongside each result, and folded into
  the parent trace on per-worker pid lanes, while worker-side metric
  deltas merge into the parent registry so counters are truthful at
  any worker count.

Wall-clock timings live in :class:`SweepStats`, deliberately *outside*
the result table, which must stay byte-identical across runs — the
observability payload travels next to the rows, never inside them.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple,
)

from repro.cosim.metrics import MetricsRegistry
from repro.cosim.trace import Tracer
from repro.obs.live import TelemetryEmitter
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:
    from repro.partition import CostWeights, ProgressProbe
    from repro.sweep.cache import ResultCache
    from repro.sweep.config import SweepConfig
    from repro.sweep.table import SweepResult

# The partitioners behind a sweep cell, the result table and the
# process pool are imported where they run (run_cell, run_cell_observed,
# run_sweep, pool_map's workers > 1 branch): a fault campaign reuses
# pool_map and CellTiming without loading them.

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
    process* — the form the engine runs inside pool workers.

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


@dataclass(frozen=True)
class CellTiming:
    """Where one job's wall-clock went.

    ``elapsed_s`` is measured *inside* the worker, around ``fn(job)``
    alone; ``wait_s`` is the queue wait between submission and the
    worker picking the job up.  The old single number started the
    clock at submission, so "cell time" silently inflated with worker
    count — a 4-worker sweep looked like it had 4x slower cells.
    ``wait_s`` is ``None`` when the execution path has no submission
    queue to measure (the campaign store's durable queue, for one).
    """

    elapsed_s: float
    wait_s: Optional[float] = None


class PoolJobError(RuntimeError):
    """``fn(job)`` raised; carries which job so callers can name it.

    Completions that arrived before the failure were already delivered
    through ``on_done`` — nothing finished is lost.
    """

    def __init__(self, job: Any, cause: BaseException) -> None:
        super().__init__(
            f"pool job {job!r} failed: {type(cause).__name__}: {cause}"
        )
        self.job = job


def _timed_call(fn: Callable[[Any], Any], submit_pc: float, job: Any):
    """Worker-side wrapper: run the job and clock it *here*.

    Returns ``(result, wait_s, elapsed_s)``.  ``perf_counter`` is
    system-wide on Linux (CLOCK_MONOTONIC), the same property the span
    tracer already relies on, so ``start - submit_pc`` measured across
    the process boundary is a real queue wait.
    """
    start = time.perf_counter()
    result = fn(job)
    return result, start - submit_pc, time.perf_counter() - start


def pool_map(
    fn: Callable[[Any], Any],
    jobs: List[Any],
    workers: int,
    on_done: Callable[[Any, Any, CellTiming], None],
) -> None:
    """Run ``fn(job)`` for every job and report each completion.

    The process-pool fan-out extracted from :func:`run_sweep` so other
    campaign runners (the fault-injection subsystem first among them)
    reuse the identical execution discipline: ``workers == 1`` (or a
    single job) runs in-process with no pool; more workers fan jobs
    over a ``ProcessPoolExecutor``.  ``on_done(job, result, timing)``
    fires in *completion* order — callers that need deterministic
    output must key results by job identity, never by arrival order.
    ``fn`` must be picklable (a top-level function or a
    ``functools.partial`` of one).

    A failing job raises :class:`PoolJobError` naming the job — after
    every completion that beat it to the finish line has been
    delivered, and with the remaining submissions cancelled.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            t0 = time.perf_counter()
            try:
                result = fn(job)
            except Exception as exc:
                raise PoolJobError(job, exc) from exc
            on_done(job, result,
                    CellTiming(time.perf_counter() - t0, 0.0))
        return
    from concurrent.futures import (
        FIRST_COMPLETED, ProcessPoolExecutor, wait,
    )

    with ProcessPoolExecutor(max_workers=workers) as pool:
        submitted = {
            pool.submit(_timed_call, fn, time.perf_counter(), job): job
            for job in jobs
        }
        outstanding = set(submitted)
        try:
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                failed = None
                for future in done:
                    job = submitted[future]
                    exc = future.exception()
                    if exc is not None:
                        # deliver this round's successes first; then
                        # fail on one deterministic representative
                        if failed is None:
                            failed = (job, exc)
                        continue
                    result, wait_s, elapsed_s = future.result()
                    on_done(job, result, CellTiming(elapsed_s, wait_s))
                if failed is not None:
                    job, exc = failed
                    raise PoolJobError(job, exc) from exc
        except PoolJobError:
            for future in outstanding:
                future.cancel()
            raise


class SweepCellError(RuntimeError):
    """One sweep cell failed; names the cell and keeps what finished.

    ``fingerprint``/``heuristic`` identify the failing cell (the first
    thing a bug report needs); ``completed`` maps fingerprint → record
    for every cell that finished before the failure — those were also
    written to the cache/store when one was attached, so a re-run
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
    cache: Optional[ResultCache] = None,
    weights: Optional[CostWeights] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    span_tracer: Optional[SpanTracer] = None,
    probe: Optional[ProgressProbe] = None,
    recorder=None,
) -> SweepResult:
    """Run every cell of the grid; return the ordered result table.

    ``workers=1`` runs in-process (no pool); ``workers>1`` fans the
    uncached cells over a ``ProcessPoolExecutor``.  Duplicate configs in
    the grid are computed once and the row repeated.  The returned
    table carries a :class:`SweepStats` as ``.stats``.

    Attaching a ``span_tracer`` and/or ``probe`` switches cells to
    :func:`run_cell_observed`: per-cell spans recorded inside the
    workers are merged into the parent tracer on per-worker pid lanes,
    convergence records land in the probe, and worker-side metric
    deltas fold into ``metrics`` — counters read identically at any
    worker count.  The row/cache content is unchanged either way.

    ``recorder`` arms the flight recorder (:mod:`repro.obs.live`):
    run marks and progress heartbeats stream to it while the sweep is
    in flight — from this process in pool mode, and from the
    coordinator plus every shard in store mode.  Samples never enter
    rows, fingerprints, or the cache; the table is byte-identical
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

    #: a CampaignStore (duck-typed on its queue surface) switches the
    #: fan-out from the in-memory pool to the durable, resumable
    #: campaign service — the store commits results itself.
    store_mode = cache is not None and hasattr(cache, "claim")

    #: pool mode: the parent is the only writer, so it emits the run
    #: marks and heartbeats itself (completions arrive here).  Store
    #: mode hands the recorder to the campaign service instead — the
    #: coordinator and shards each own their telemetry stream.
    emitter = None
    if recorder is not None and not store_mode:
        emitter = TelemetryEmitter(recorder, role="sweep")
        emitter.emit("run", event="start", cells=len(configs),
                     workers=workers)

    def finish(config: SweepConfig, record: Dict[str, Any],
               timing: CellTiming,
               obs: Optional[Dict[str, Any]] = None) -> None:
        rows[config.fingerprint] = record
        stats.computed += 1
        if emitter is not None:
            emitter.heartbeat(done=stats.computed + stats.cache_hits,
                              cache_hits=stats.cache_hits,
                              total=len(configs))
        metrics.counter("sweep.cells.computed").inc()
        metrics.histogram("sweep.cell.elapsed_s").observe(
            timing.elapsed_s)
        if timing.wait_s is not None:
            metrics.histogram("sweep.cell.wait_s").observe(
                timing.wait_s)
        if cache is not None and not store_mode:
            cache.put(config.fingerprint, record)
        if tracer is not None:
            tracer.emit(SWEEP_CELL, config.fingerprint, time=0.0,
                        cached=False, heuristic=config.heuristic,
                        elapsed_s=timing.elapsed_s)
        if obs is not None:
            metrics.merge(obs["metrics"])
            if span_tracer is not None:
                lane = ("campaign shard" if store_mode
                        else "sweep worker")
                span_tracer.merge_snapshot(
                    obs["spans"], lane=f"{lane} {obs['pid']}"
                )
            if probe is not None:
                probe.extend_from_dicts(obs["probe"])

    by_fingerprint = {c.fingerprint: c for c in pending}
    failure: Optional[Tuple[SweepConfig, BaseException]] = None
    try:
        if store_mode:
            from repro.campaign.service import (
                CampaignCellError, run_store_jobs,
            )

            weights_dict = (dataclasses.asdict(weights)
                            if weights is not None else None)
            payloads = [
                (c.fingerprint,
                 {"config": c.to_dict(), "weights": weights_dict})
                for c in pending
            ]

            def on_committed(fingerprint: str, record: Dict[str, Any],
                             obs: Optional[Dict[str, Any]],
                             elapsed_s: float) -> None:
                finish(by_fingerprint[fingerprint], record,
                       CellTiming(elapsed_s), obs)

            runner = "sweep_observed" if observed else "sweep"
            try:
                run_store_jobs(cache, runner, payloads, workers,
                               on_committed, metrics=metrics,
                               span_tracer=span_tracer,
                               recorder=recorder)
            except CampaignCellError as exc:
                fingerprint = next(iter(sorted(exc.failures)))
                failure = (by_fingerprint[fingerprint], exc)
        else:
            cell_fn = run_cell_observed if observed else run_cell

            def on_done(config: SweepConfig, out: Any,
                        timing: CellTiming) -> None:
                record, obs = out if observed else (out, None)
                finish(config, record, timing, obs)

            try:
                pool_map(functools.partial(cell_fn, weights=weights),
                         pending, workers, on_done)
            except PoolJobError as exc:
                failure = (exc.job, exc.__cause__ or exc)
        if failure is not None:
            config, cause = failure
            raise SweepCellError(
                config.fingerprint, config.heuristic,
                {fp: r for fp, r in rows.items() if r}, cause,
            ) from cause
    finally:
        # the fan-out must never leave the sweep span open or the
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
