"""The closed-loop explorer: DoE-seeded GA with Pareto selection.

:func:`explore` turns the sweep/fault machinery from a measurement
tool into a search driver.  One run:

1. **measures dependability once** — a cached
   :func:`repro.fault.campaign.run_campaign` on the chosen scenario
   distills into a :class:`~repro.explore.evaluate.DependabilityModel`
   (skip the scenario and the search is 2-objective cost × latency);
2. **seeds generation 0** from a fractional-factorial DoE design
   (:mod:`repro.explore.doe`);
3. **evaluates populations** through the exact execution discipline
   the engines already trust — deduplicated by effective-genome
   fingerprint, served from a :class:`~repro.campaign.store.CampaignStore`
   when warm, and run through the campaign service's one execution
   path (:func:`repro.campaign.service.run_cells`) when cold;
4. **selects** by non-dominated sort + crowding distance over the
   *entire archive* (elitist: the front can only grow, so each
   generation is provably no worse than its DoE seed — asserted by
   test as hypervolume monotonicity);
5. **breeds** the next population with seeded tournament selection,
   uniform crossover, and per-gene grid mutation.

Determinism is the contract everything else hangs on: one
``random.Random(ga_seed)`` drives every stochastic choice in a fixed
call order, archive insertion follows population order (never
completion order), every sum/sort is explicitly keyed — so the same
spec yields a byte-identical front JSON at any worker count, under any
PYTHONHASHSEED, cold or warm.

Telemetry rides the PR 3 rails: a ``span_tracer`` gets one span per
generation (plus worker-side spans merged onto pid lanes), a ``probe``
gets one convergence record per generation (front size, hypervolume,
best weighted-sum scalar), and ``metrics`` counts
computed/cached/deduplicated genomes so tests assert "the warm run
recomputed nothing" from counters, not timing.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.service import run_cells
from repro.cosim.metrics import MetricsRegistry
from repro.explore.doe import doe_population
# the ``explore`` runners call run_genome and run_genome_observed
# through this module, the driver's evaluation surface
from repro.explore.evaluate import (
    DependabilityModel,
    ProblemSpec,
    measure_dependability,
    objective_names,
    objectives_from_record,
    run_genome,
    run_genome_observed,
)
from repro.explore.genome import Genome, SearchSpace, design_space
from repro.explore.pareto import (
    crowding_distance,
    non_dominated_sort,
    normalized_hypervolume,
    objective_bounds,
    pareto_front,
    weighted_sum_rank,
)
from repro.obs.live import TelemetryEmitter
from repro.obs.spans import SpanTracer
from repro.partition.seeding import ProgressProbe

#: Schema version of the explorer's result JSON.
FRONT_VERSION = 1


@dataclass(frozen=True)
class ExploreSpec:
    """One fully-specified exploration (the unit of reproducibility).

    Everything that influences the search is in here — axes, GA
    parameters, the fixed problem context, the dependability scenario
    — so ``same spec ⇒ same front`` is a meaningful promise.
    """

    generators: Tuple[str, ...] = ("layered", "forkjoin")
    n_tasks: Tuple[int, ...] = (8, 12, 16)
    cost_models: Tuple[str, ...] = ("default",)
    comm: Tuple[str, ...] = ("default",)
    heuristics: Tuple[str, ...] = (
        "greedy", "kl", "annealing", "vulcan", "cosyma", "gclp",
    )
    weight_factors: Tuple[str, ...] = ("modifiability", "concurrency")
    problem: ProblemSpec = ProblemSpec()
    population: int = 16
    generations: int = 5
    ga_seed: int = 0
    mutation_rate: float = 0.25
    crossover_rate: float = 0.9
    #: fraction of each bred population drawn uniformly at random
    #: ("random immigrants") — keeps exploring the whole space while
    #: the elitist archive protects every refinement the GA finds, so
    #: the front's spread never falls behind pure random sampling
    immigrant_fraction: float = 0.25
    #: dependability scenario (None ⇒ 2-objective cost × latency)
    scenario: Optional[str] = None
    scenario_faults: int = 40
    scenario_seed: int = 7
    #: weighted-sum preference weights, one per objective (None ⇒ equal)
    mcdm_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must be in [0, 1]")
        if not (0.0 <= self.crossover_rate <= 1.0):
            raise ValueError("crossover_rate must be in [0, 1]")
        if not (0.0 <= self.immigrant_fraction <= 1.0):
            raise ValueError("immigrant_fraction must be in [0, 1]")

    def space(self) -> SearchSpace:
        """The search space these axes span."""
        return design_space(
            generators=self.generators,
            n_tasks=self.n_tasks,
            cost_models=self.cost_models,
            comm=self.comm,
            heuristics=self.heuristics,
            weight_factors=self.weight_factors,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generators": list(self.generators),
            "n_tasks": list(self.n_tasks),
            "cost_models": list(self.cost_models),
            "comm": list(self.comm),
            "heuristics": list(self.heuristics),
            "weight_factors": list(self.weight_factors),
            "problem": self.problem.to_dict(),
            "population": self.population,
            "generations": self.generations,
            "ga_seed": self.ga_seed,
            "mutation_rate": self.mutation_rate,
            "crossover_rate": self.crossover_rate,
            "immigrant_fraction": self.immigrant_fraction,
            "scenario": self.scenario,
            "scenario_faults": self.scenario_faults,
            "scenario_seed": self.scenario_seed,
            "mcdm_weights": (list(self.mcdm_weights)
                             if self.mcdm_weights is not None else None),
        }


@dataclass
class ExploreStats:
    """Volatile facts about one run — never serialized into the result
    (which must stay byte-identical across runs and machines)."""

    requested: int = 0      # genome evaluations asked for, all gens
    computed: int = 0       # actually ran a heuristic
    cache_hits: int = 0     # served from the result cache/store
    archive_hits: int = 0   # revisited by the GA within this run
    duplicates: int = 0     # duplicate fingerprints within a population
    workers: int = 1
    elapsed_s: float = 0.0

    def evaluation_savings(self) -> float:
        """Fraction of requested evaluations that cost nothing."""
        if not self.requested:
            return 0.0
        return 1.0 - self.computed / self.requested

    def summary(self) -> str:
        return (
            f"{self.requested} evaluations requested: "
            f"{self.computed} computed, {self.cache_hits} cached, "
            f"{self.archive_hits} archived, "
            f"{self.duplicates} duplicate "
            f"({self.evaluation_savings():.0%} saved), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


class ExploreResult:
    """Everything one exploration produced, in deterministic order."""

    def __init__(
        self,
        spec: ExploreSpec,
        objectives: Tuple[str, ...],
        bounds: Tuple[Tuple[float, ...], Tuple[float, ...]],
        model: Optional[DependabilityModel],
        rows: List[Dict[str, Any]],
        history: List[Dict[str, Any]],
    ) -> None:
        self.spec = spec
        self.objectives = objectives
        self.bounds = bounds
        self.model = model
        #: every evaluated design point, in archive (first-seen) order;
        #: each row carries fingerprint, record, and objective vector
        self.rows = rows
        self.history = history
        self.stats = ExploreStats()
        self.obs = None

    # ------------------------------------------------------------------
    def points(self) -> List[Tuple[float, ...]]:
        """Objective vectors, aligned with :attr:`rows`."""
        return [tuple(row["objectives"]) for row in self.rows]

    def front_rows(self) -> List[Dict[str, Any]]:
        """The non-dominated rows, sorted by (objectives, fingerprint).

        Ties — distinct genomes with identical objective vectors — all
        appear; the sort gives the table a total deterministic order.
        """
        points = self.points()
        members = pareto_front(points)
        rows = [self.rows[i] for i in members]
        rows.sort(key=lambda r: (tuple(r["objectives"]),
                                 r["fingerprint"]))
        return rows

    def ranking(self) -> List[Dict[str, Any]]:
        """Weighted-sum (MCDM) ranking over every evaluated point."""
        weights = self.spec.mcdm_weights
        scored = weighted_sum_rank(
            self.points(), weights=weights, bounds=self.bounds,
        )
        return [
            {
                "fingerprint": self.rows[i]["fingerprint"],
                "scalar": scalar,
            }
            for i, scalar in scored
        ]

    def hypervolume(self) -> float:
        """Front hypervolume under the run's fixed normalization."""
        return normalized_hypervolume(
            self.points(), self.bounds[0], self.bounds[1],
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON of the *model-deterministic* result: spec,
        objective names and bounds, dependability model, Pareto front,
        MCDM ranking, per-generation history, and every evaluated row.
        Byte-identical at any worker count, cold or warm."""
        return json.dumps(
            {
                "version": FRONT_VERSION,
                "spec": self.spec.to_dict(),
                "objectives": list(self.objectives),
                "bounds": [list(self.bounds[0]), list(self.bounds[1])],
                "model": (self.model.to_dict()
                          if self.model is not None else None),
                "front": self.front_rows(),
                "ranking": self.ranking(),
                "hypervolume": self.hypervolume(),
                "history": self.history,
                "rows": self.rows,
            },
            sort_keys=True, separators=(",", ":"),
        )

    def front_json(self) -> str:
        """Canonical JSON of the front alone (the CI artifact)."""
        return json.dumps(
            {
                "version": FRONT_VERSION,
                "objectives": list(self.objectives),
                "front": self.front_rows(),
                "hypervolume": self.hypervolume(),
            },
            sort_keys=True, separators=(",", ":"),
        )

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    # ------------------------------------------------------------------
    def front_table(self) -> str:
        """Human-readable front: one line per non-dominated design."""
        rows = self.front_rows()
        lines = [
            f"pareto front: {len(rows)} of {len(self.rows)} evaluated "
            f"designs  (objectives: {', '.join(self.objectives)})"
        ]
        header = (
            f"  {'heuristic':<10} {'generator':<9} {'n':>3} "
            + "".join(f"{name:>13}" for name in self.objectives)
            + "  genome"
        )
        lines.append(header)
        for row in rows:
            genome = row["record"]["genome"]
            knobs = {k.split(":", 1)[-1].split(".")[-1]: v
                     for k, v in genome.items() if ":" in k}
            objectives = "".join(
                f"{value:>13.3f}" for value in row["objectives"]
            )
            lines.append(
                f"  {genome['heuristic']:<10} {genome['generator']:<9} "
                f"{genome['n_tasks']:>3} {objectives}  "
                f"{json.dumps(knobs, sort_keys=True)}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"ExploreResult({len(self.rows)} designs, "
            f"front {len(self.front_rows())}, "
            f"{len(self.history)} generations)"
        )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def explore(
    spec: ExploreSpec,
    workers: int = 1,
    cache=None,
    metrics: Optional[MetricsRegistry] = None,
    span_tracer: Optional[SpanTracer] = None,
    probe: Optional[ProgressProbe] = None,
    recorder=None,
) -> ExploreResult:
    """Run the closed-loop GA/DoE search; return the evaluated archive.

    ``cache`` takes a :class:`~repro.campaign.store.CampaignStore`:
    genome evaluation then runs on the durable campaign service and an
    interrupted exploration resumes without recomputing committed
    genomes.  Without one, ``workers=1`` evaluates in-process (a
    genome that raises propagates unwrapped) and more workers run on
    a temporary store.

    ``recorder`` arms the flight recorder: run marks, evaluation
    heartbeats, and one ``generation`` sample per selection round
    (front size, hypervolume, best scalar) stream to it live; samples
    never enter the archive, so the front JSON is byte-identical with
    or without a recorder.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    metrics = metrics if metrics is not None else MetricsRegistry()
    t0 = time.perf_counter()
    space = spec.space()
    stats = ExploreStats(workers=workers)

    emitter = None
    if recorder is not None:
        # distinct owner: on a store the campaign coordinator (and a
        # workers=1 in-process shard) shares this pid
        emitter = TelemetryEmitter(recorder,
                                   owner=f"explore:{os.getpid()}",
                                   role="explore")
        emitter.emit("run", event="start",
                     population=spec.population,
                     generations=spec.generations, workers=workers)

    if span_tracer is not None:
        span_tracer.name_lane(span_tracer.pid, "explore driver")
        explore_span = span_tracer.span(
            "explore", population=spec.population,
            generations=spec.generations, workers=workers,
        )
        explore_span.__enter__()
    else:
        explore_span = None

    try:
        model: Optional[DependabilityModel] = None
        if spec.scenario is not None:
            if span_tracer is not None:
                with span_tracer.span("dependability_model",
                                      scenario=spec.scenario,
                                      faults=spec.scenario_faults):
                    model = measure_dependability(
                        spec.scenario, spec.scenario_faults,
                        spec.scenario_seed, workers=workers,
                        cache=cache, span_tracer=span_tracer,
                        metrics=metrics, batch=True,
                    )
            else:
                model = measure_dependability(
                    spec.scenario, spec.scenario_faults,
                    spec.scenario_seed, workers=workers, cache=cache,
                    metrics=metrics, batch=True,
                )

        extra = {"problem": spec.problem.to_dict()}
        archive_order: List[str] = []          # fingerprints, first-seen
        records: Dict[str, Dict[str, Any]] = {}
        full_genomes: Dict[str, Genome] = {}   # fp → full (hidden genes)

        evaluator = _Evaluator(
            space, spec, extra, workers, cache, metrics, span_tracer,
            stats, archive_order, records, full_genomes,
            recorder=recorder, emitter=emitter,
        )

        rng = random.Random(spec.ga_seed)
        history: List[Dict[str, Any]] = []
        bounds: Optional[Tuple[Tuple[float, ...],
                               Tuple[float, ...]]] = None
        best_scalar: Optional[float] = None

        population = doe_population(
            space, spec.population, seed=spec.ga_seed,
        )
        for generation in range(spec.generations):
            evaluator.evaluate(population, generation)

            points = [
                objectives_from_record(records[fp], model)
                for fp in archive_order
            ]
            if bounds is None:  # frozen at the DoE generation, so
                bounds = objective_bounds(points)  # hv is comparable
            hv = normalized_hypervolume(points, bounds[0], bounds[1])
            fronts = non_dominated_sort(points)
            ranked = weighted_sum_rank(
                points, weights=spec.mcdm_weights, bounds=bounds,
            )
            gen_best = ranked[0][1]
            improved = best_scalar is None or gen_best < best_scalar
            best_scalar = gen_best if improved else best_scalar
            history.append({
                "generation": generation,
                "archive": len(archive_order),
                "front_size": len(fronts[0]),
                "hypervolume": hv,
                "best_scalar": gen_best,
                "best_fingerprint": archive_order[ranked[0][0]],
            })
            metrics.counter("explore.generations").inc()
            if emitter is not None:
                emitter.emit("generation", **history[-1])
            if probe is not None:
                probe.record(
                    "explore", gen_best, best_cost=best_scalar,
                    accepted=improved, generation=generation,
                    front_size=len(fronts[0]), hypervolume=hv,
                    archive=len(archive_order),
                )
            if span_tracer is not None:
                span_tracer.event(
                    "generation.selected", generation=generation,
                    front_size=len(fronts[0]), hypervolume=hv,
                )
            if generation == spec.generations - 1:
                break
            parents = _select_parents(
                space, spec, fronts, points, archive_order,
                full_genomes,
            )
            population = _breed(space, spec, parents, rng)

        result = ExploreResult(
            spec=spec,
            objectives=objective_names(model),
            bounds=bounds,
            model=model,
            rows=[
                {
                    "fingerprint": fp,
                    "objectives": list(
                        objectives_from_record(records[fp], model)
                    ),
                    "record": records[fp],
                }
                for fp in archive_order
            ],
            history=history,
        )
    finally:
        if explore_span is not None:
            explore_span.__exit__(*sys.exc_info())

    stats.elapsed_s = time.perf_counter() - t0
    if emitter is not None:
        # the final beat carries ``exiting`` so post-mortems read a
        # completed exploration as exited, not dead (rate limiting
        # would otherwise swallow it on short runs)
        emitter.heartbeat(force=True, exiting=True,
                          done=stats.computed + stats.cache_hits,
                          cache_hits=stats.cache_hits)
        emitter.emit("run", event="finish",
                     archive=len(result.rows),
                     computed=stats.computed,
                     cache_hits=stats.cache_hits,
                     elapsed_s=stats.elapsed_s)
    result.stats = stats
    if span_tracer is not None or probe is not None:
        result.obs = {"span_tracer": span_tracer, "probe": probe,
                      "metrics": metrics}
    return result


def random_search(
    spec: ExploreSpec,
    evaluations: int,
    workers: int = 1,
    cache=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExploreResult:
    """The equal-budget baseline: uniform genomes, same evaluator.

    Draws ``evaluations`` genomes uniformly from the same space
    (seeded from ``spec.ga_seed``), evaluates them through the
    identical store/execution discipline, and packages the result exactly
    like :func:`explore` — so front hypervolumes are directly
    comparable at equal budget.
    """
    if evaluations < 1:
        raise ValueError("evaluations must be >= 1")
    metrics = metrics if metrics is not None else MetricsRegistry()
    t0 = time.perf_counter()
    space = spec.space()
    stats = ExploreStats(workers=workers)
    model: Optional[DependabilityModel] = None
    if spec.scenario is not None:
        model = measure_dependability(
            spec.scenario, spec.scenario_faults, spec.scenario_seed,
            workers=workers, cache=cache, metrics=metrics, batch=True,
        )
    extra = {"problem": spec.problem.to_dict()}
    archive_order: List[str] = []
    records: Dict[str, Dict[str, Any]] = {}
    full_genomes: Dict[str, Genome] = {}
    evaluator = _Evaluator(
        space, spec, extra, workers, cache, metrics, None,
        stats, archive_order, records, full_genomes,
    )
    rng = random.Random(spec.ga_seed)
    population = [space.random_genome(rng) for _ in range(evaluations)]
    evaluator.evaluate(population, 0)
    points = [
        objectives_from_record(records[fp], model)
        for fp in archive_order
    ]
    bounds = objective_bounds(points)
    hv = normalized_hypervolume(points, bounds[0], bounds[1])
    result = ExploreResult(
        spec=spec,
        objectives=objective_names(model),
        bounds=bounds,
        model=model,
        rows=[
            {
                "fingerprint": fp,
                "objectives": list(
                    objectives_from_record(records[fp], model)
                ),
                "record": records[fp],
            }
            for fp in archive_order
        ],
        history=[{
            "generation": 0,
            "archive": len(archive_order),
            "front_size": len(pareto_front(points)),
            "hypervolume": hv,
            "best_scalar": weighted_sum_rank(
                points, weights=spec.mcdm_weights, bounds=bounds,
            )[0][1],
            "best_fingerprint": None,
        }],
    )
    stats.elapsed_s = time.perf_counter() - t0
    result.stats = stats
    return result


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
class _Evaluator:
    """Population evaluation with archive/store dedup and fan-out.

    Archive insertion follows *population order*, never completion
    order, which is what keeps row order — and therefore every
    serialized table — independent of worker scheduling.
    """

    def __init__(self, space, spec, extra, workers, cache, metrics,
                 span_tracer, stats, archive_order, records,
                 full_genomes, recorder=None, emitter=None) -> None:
        self.space = space
        self.recorder = recorder
        self.emitter = emitter
        self.spec = spec
        self.extra = extra
        self.workers = workers
        self.cache = cache
        self.metrics = metrics
        self.span_tracer = span_tracer
        self.stats = stats
        self.archive_order = archive_order
        self.records = records
        self.full_genomes = full_genomes
        self.observed = span_tracer is not None

    def evaluate(self, population: Sequence[Genome],
                 generation: int) -> None:
        """Ensure every genome of the population is in the archive."""
        metrics = self.metrics
        if self.span_tracer is not None:
            gen_span = self.span_tracer.span(
                "generation", generation=generation,
                population=len(population),
            )
            gen_span.__enter__()
        else:
            gen_span = None
        try:
            pending: List[Tuple[str, Dict[str, Any]]] = []
            seen_now = set()
            for genome in population:
                self.stats.requested += 1
                metrics.counter("explore.genomes.requested").inc()
                fp = self.space.fingerprint(genome, extra=self.extra)
                self.full_genomes.setdefault(fp, dict(genome))
                if fp in seen_now:
                    self.stats.duplicates += 1
                    metrics.counter("explore.genomes.duplicate").inc()
                    continue
                seen_now.add(fp)
                if fp in self.records:
                    self.stats.archive_hits += 1
                    metrics.counter("explore.archive.hits").inc()
                    continue
                cached = (self.cache.get(fp)
                          if self.cache is not None else None)
                if cached is not None:
                    self.records[fp] = cached
                    self.archive_order.append(fp)
                    self.stats.cache_hits += 1
                    metrics.counter("explore.cache.hits").inc()
                    continue
                metrics.counter("explore.cache.misses").inc()
                pending.append((fp, {
                    "fingerprint": fp,
                    "genome": self.space.effective(genome),
                    "problem": self.spec.problem.to_dict(),
                }))
            if pending:
                self._run_pending(pending)
        finally:
            if gen_span is not None:
                gen_span.__exit__(*sys.exc_info())

    def _run_pending(
        self, pending: List[Tuple[str, Dict[str, Any]]],
    ) -> None:
        results: Dict[str, Dict[str, Any]] = {}
        metrics = self.metrics

        def finish(fp: str, record: Dict[str, Any],
                   obs: Optional[Dict[str, Any]], elapsed_s: float) -> None:
            results[fp] = record
            self.stats.computed += 1
            if self.emitter is not None:
                self.emitter.heartbeat(
                    done=self.stats.computed + self.stats.cache_hits,
                    requested=self.stats.requested)
            metrics.counter("explore.genomes.computed").inc()
            metrics.histogram("explore.genome.elapsed_s").observe(
                elapsed_s)
            if obs is not None:
                metrics.merge(obs["metrics"])
                if self.span_tracer is not None:
                    self.span_tracer.merge_snapshot(obs["spans"])

        run_cells(pending,
                  "explore_observed" if self.observed else "explore",
                  self.workers, finish, store=self.cache, metrics=metrics,
                  span_tracer=self.span_tracer, recorder=self.recorder)

        # archive in population order, not completion order
        for fp, _ in pending:
            self.records[fp] = results[fp]
            self.archive_order.append(fp)


def _select_parents(
    space: SearchSpace,
    spec: ExploreSpec,
    fronts: List[List[int]],
    points: List[Tuple[float, ...]],
    archive_order: List[str],
    full_genomes: Dict[str, Genome],
) -> List[Genome]:
    """Elitist parent pool: best ``population`` archive members by
    (front rank, crowding distance, archive index) — a total,
    deterministic order."""
    chosen: List[int] = []
    for front in fronts:
        if len(chosen) >= spec.population:
            break
        crowd = crowding_distance([points[i] for i in front])
        order = sorted(
            range(len(front)),
            key=lambda k: (-crowd[k], front[k]),
        )
        for k in order:
            if len(chosen) >= spec.population:
                break
            chosen.append(front[k])
    return [
        full_genomes[archive_order[i]] for i in chosen
    ]


def _breed(
    space: SearchSpace,
    spec: ExploreSpec,
    parents: List[Genome],
    rng: random.Random,
) -> List[Genome]:
    """Next population: tournament + crossover + mutation + immigrants.

    Parents arrive best-first, so the binary-tournament winner is
    simply the lower index — rank-based selection with no re-scoring.
    The trailing ``immigrant_fraction`` of the population is drawn
    uniformly from the whole space instead: pure exploitation
    collapses the front's *spread*, and spread is half of what a
    Pareto front is for.
    """
    population: List[Genome] = []
    n = len(parents)
    immigrants = int(round(spec.population * spec.immigrant_fraction))
    for _ in range(spec.population - immigrants):
        a = min(rng.randrange(n), rng.randrange(n))
        b = min(rng.randrange(n), rng.randrange(n))
        if rng.random() < spec.crossover_rate:
            child = space.crossover(parents[a], parents[b], rng)
        else:
            child = dict(parents[a])
        population.append(
            space.mutate(child, rng, rate=spec.mutation_rate)
        )
    for _ in range(immigrants):
        population.append(space.random_genome(rng))
    return population
