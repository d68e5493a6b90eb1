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
* **Observability** — a :class:`repro.obs.session.Obs` session's
  registry counts progress and cache behaviour, so tests can assert
  "this run recomputed nothing" instead of trusting timing; with a
  span tracer or probe, each cell's spans, convergence records and
  counters are recorded *inside* its worker and folded back on
  per-worker pid lanes — one merged timeline, counters truthful at
  any worker count.

Wall-clock timings live in :class:`SweepStats`, deliberately *outside*
the result table, which must stay byte-identical across runs — the
observability payload travels next to the rows, never inside them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.campaign.service import (
    CampaignCellError, CampaignInterrupted, run_cells,
)
from repro.obs.session import DISABLED, Obs

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore
    from repro.partition import CostWeights
    from repro.sweep.config import SweepConfig
    from repro.sweep.table import SweepResult

# The partitioners behind a sweep cell and the result table are
# imported where they run (run_cell, run_sweep).


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
    config: SweepConfig,
    weights: Optional[CostWeights] = None,
    obs: Optional[Obs] = None,
) -> Dict[str, Any]:
    """Execute one sweep cell: generate, partition, evaluate, record.

    Returns a plain JSON-serializable dict (the table row).  Everything
    in it is a pure function of the config — no timestamps, no host
    identity — so rows are comparable and cacheable across machines.

    ``obs``, the worker session of an observed cell, gets a ``cell``
    span around the build/partition phase spans, the heuristic's
    convergence records (tagged with the cell) and per-heuristic
    counters; the row is the same either way.
    """
    from repro.partition import HEURISTICS, CostWeights

    weights = weights if weights is not None else CostWeights()
    heuristic = HEURISTICS[config.heuristic]
    if obs is None:
        problem = config.build_problem()
        result = heuristic(
            problem, weights=weights, seed=config.heuristic_seed()
        )
        return _cell_record(config, problem, result)
    probe = obs.probe
    with obs.span(
        "cell", fingerprint=config.fingerprint,
        heuristic=config.heuristic, seed=config.seed,
    ):
        with obs.span("build_problem", generator=config.generator,
                      n_tasks=config.n_tasks):
            problem = config.build_problem()
        with obs.span("partition", heuristic=config.heuristic):
            result = heuristic(
                problem, weights=weights, seed=config.heuristic_seed(),
                probe=probe,
            )
    name = config.heuristic
    obs.count("sweep.worker.cells")
    obs.count(f"heuristic.{name}.cells")
    obs.count(f"heuristic.{name}.moves_evaluated", result.moves_evaluated)
    if probe is not None:
        obs.count(f"heuristic.{name}.probe_records", len(probe))
        for rec in probe.records:  # make merged streams separable
            rec.detail.setdefault("cell", config.fingerprint[:12])
    obs.observe(f"heuristic.{name}.hw_tasks", len(result.hw_tasks))
    return _cell_record(config, problem, result)


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
    obs: Optional[Obs] = None,
) -> SweepResult:
    """Run every cell of the grid; return the ordered result table.

    The uncached cells go to :func:`repro.campaign.service.run_cells`:
    ``workers=1`` with no ``cache`` runs them in-process; otherwise
    they run on ``workers`` shards of the
    :class:`~repro.campaign.store.CampaignStore` passed as ``cache``
    (durable and resumable), or of a temporary store.  Duplicate
    configs in the grid are computed once and the row repeated.  The
    returned table carries a :class:`SweepStats` as ``.stats``.

    ``obs`` (:class:`~repro.obs.session.Obs`) gets the ``sweep`` span,
    cell and cache counters, and with a span tracer or a probe the
    cells' worker spans, convergence records and counters, merged on
    per-worker lanes.  Its recorder gets run marks and heartbeats —
    from this process with no store, else from the coordinator and
    every shard.  The table is byte-identical with any session or
    none.
    """
    from repro.sweep.table import SweepResult

    if workers < 1:
        raise ValueError("workers must be >= 1")
    configs = list(configs)
    obs = obs if obs is not None else DISABLED
    t0 = time.perf_counter()
    rows: Dict[str, Dict[str, Any]] = {}
    pending: List[SweepConfig] = []
    stats = SweepStats(cells=len(configs), workers=workers)

    def finish(fingerprint: str, record: Dict[str, Any],
               doc: Optional[Dict[str, Any]], elapsed_s: float) -> None:
        rows[fingerprint] = record
        stats.computed += 1
        obs.beat(done=stats.computed + stats.cache_hits,
                 cache_hits=stats.cache_hits, total=len(configs))
        obs.count("sweep.cells.computed")
        obs.observe("sweep.cell.elapsed_s", elapsed_s)
        obs.merge(doc)

    # with no store this process is the only writer, so it records the
    # run itself; a store's coordinator and shards each own their
    # telemetry stream instead
    with obs.run("sweep", lane="sweep parent", role="sweep",
                 record=cache is None, cells=len(configs),
                 workers=workers):
        obs.count("sweep.cells.total", len(configs))
        for config in configs:
            fingerprint = config.fingerprint
            if fingerprint in rows:
                stats.duplicates += 1
                continue
            cached = cache.get(fingerprint) if cache is not None else None
            if cached is not None:
                rows[fingerprint] = cached
                stats.cache_hits += 1
                obs.count("sweep.cache.hits")
                obs.event("cache.hit", fingerprint=fingerprint,
                          heuristic=config.heuristic)
            else:
                # reserve the slot so a duplicate later in the grid is
                # not submitted twice
                rows[fingerprint] = {}
                pending.append(config)
                obs.count("sweep.cache.misses")

        by_fingerprint = {c.fingerprint: c for c in pending}
        weights_dict = (dataclasses.asdict(weights)
                        if weights is not None else None)
        payloads = [
            (c.fingerprint,
             {"config": c.to_dict(), "weights": weights_dict})
            for c in pending
        ]
        failed = None
        try:
            run_cells(payloads, "sweep", workers, finish, store=cache,
                      obs=obs)
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
            # the reserved {} placeholders never pass for results
            raise SweepCellError(
                failed.fingerprint, failed.heuristic,
                {fp: r for fp, r in rows.items() if r}, cause,
            ) from cause

        stats.elapsed_s = time.perf_counter() - t0
        done = stats.computed + stats.cache_hits
        obs.finish({"done": done, "cache_hits": stats.cache_hits,
                    "total": len(configs)},
                   done=done, computed=stats.computed,
                   cache_hits=stats.cache_hits,
                   elapsed_s=stats.elapsed_s)
    table = SweepResult([rows[c.fingerprint] for c in configs])
    table.stats = stats
    return table
