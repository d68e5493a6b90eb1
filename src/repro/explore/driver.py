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

Telemetry goes to one :class:`~repro.obs.session.Obs` session: its
span tracer gets one span per generation (plus worker-side spans
merged onto pid lanes), its probe one convergence record per
generation (front size, hypervolume, best weighted-sum scalar), its
registry counts computed/cached/deduplicated genomes so tests assert
"the warm run recomputed nothing" from counters, not timing, and its
recorder gets one ``generation`` sample per selection round.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import _domain
from repro.campaign.service import run_cells
from repro.explore.doe import doe_population
# the ``explore`` runner calls run_genome through this module, the
# driver's evaluation surface
from repro.explore.evaluate import (
    DependabilityModel,
    ProblemSpec,
    measure_dependability,
    objective_names,
    objectives_from_record,
    run_genome,
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
from repro.obs.session import DISABLED, Obs

#: Schema version of the explorer's result JSON.
FRONT_VERSION = 1


@dataclass(frozen=True)
class ExploreSpec:
    """One fully-specified exploration (the unit of reproducibility).

    Everything that influences the search is in here — axes, GA
    parameters, the fixed problem context, the dependability scenario
    — so ``same spec ⇒ same front`` is a meaningful promise.
    ``population`` is an int >= 2, ``generations`` an int >= 1,
    ``scenario_faults`` an int >= 0, the seeds ints and the three
    rates in [0, 1].
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
        _domain.count("population", self.population, 2)
        _domain.count("generations", self.generations, 1)
        _domain.count("ga_seed", self.ga_seed, None)
        for name in ("mutation_rate", "crossover_rate",
                     "immigrant_fraction"):
            _domain.real(name, getattr(self, name), least=0, most=1)
        _domain.count("scenario_faults", self.scenario_faults)
        _domain.count("scenario_seed", self.scenario_seed, None)

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
    obs: Optional[Obs] = None,
) -> ExploreResult:
    """Run the closed-loop GA/DoE search; return the evaluated archive.

    ``cache`` takes a :class:`~repro.campaign.store.CampaignStore`:
    genome evaluation then runs on the durable campaign service and an
    interrupted exploration resumes without recomputing committed
    genomes.  Without one, ``workers=1`` evaluates in-process (a
    genome that raises propagates unwrapped) and more workers run on
    a temporary store.

    ``obs`` is the run's :class:`~repro.obs.session.Obs` session; the
    dependability campaign gets it without its recorder.  A recorder
    gets run marks, evaluation heartbeats, and one ``generation``
    sample per selection round (front size, hypervolume, best scalar)
    live, as owner ``explore:<pid>`` with or without a store; samples
    never enter the archive, so the front JSON is byte-identical with
    any session or none.
    """
    _domain.count("workers", workers, 1)
    obs = obs if obs is not None else DISABLED
    t0 = time.perf_counter()

    # distinct owner: on a store the campaign coordinator (and a
    # workers=1 in-process shard) shares this pid
    with obs.run("explore", lane="explore driver", role="explore",
                 owner=f"explore:{os.getpid()}",
                 population=spec.population,
                 generations=spec.generations, workers=workers):
        model, evaluator = _evaluation(spec, workers, cache, obs)
        space, stats = evaluator.space, evaluator.stats
        archive_order, records = evaluator.archive_order, evaluator.records
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
            obs.count("explore.generations")
            obs.mark("generation", **history[-1])
            if obs.probe is not None:
                obs.probe.record(
                    "explore", gen_best, best_cost=best_scalar,
                    accepted=improved, generation=generation,
                    front_size=len(fronts[0]), hypervolume=hv,
                    archive=len(archive_order),
                )
            obs.event("generation.selected", generation=generation,
                      front_size=len(fronts[0]), hypervolume=hv)
            if generation == spec.generations - 1:
                break
            parents = _select_parents(
                space, spec, fronts, points, archive_order,
                evaluator.full_genomes,
            )
            population = _breed(space, spec, parents, rng)

        result = _result(spec, model, bounds, evaluator, history)
        stats.elapsed_s = time.perf_counter() - t0
        obs.finish({"done": stats.computed + stats.cache_hits,
                    "cache_hits": stats.cache_hits},
                   archive=len(result.rows), computed=stats.computed,
                   cache_hits=stats.cache_hits,
                   elapsed_s=stats.elapsed_s)
    result.stats = stats
    return result


def random_search(
    spec: ExploreSpec,
    evaluations: int,
    workers: int = 1,
    cache=None,
    obs: Optional[Obs] = None,
) -> ExploreResult:
    """The equal-budget baseline: uniform genomes, same evaluator.

    Draws ``evaluations`` genomes uniformly from the same space
    (seeded from ``spec.ga_seed``), evaluates them through the
    identical store/execution discipline, and packages the result exactly
    like :func:`explore` — so front hypervolumes are directly
    comparable at equal budget.  ``obs`` gets the evaluation's
    counters and spans; no run span or run marks.
    """
    _domain.count("evaluations", evaluations, 1)
    obs = obs if obs is not None else DISABLED
    t0 = time.perf_counter()
    model, evaluator = _evaluation(spec, workers, cache, obs)
    rng = random.Random(spec.ga_seed)
    evaluator.evaluate(
        [evaluator.space.random_genome(rng) for _ in range(evaluations)], 0)
    points = [
        objectives_from_record(evaluator.records[fp], model)
        for fp in evaluator.archive_order
    ]
    bounds = objective_bounds(points)
    hv = normalized_hypervolume(points, bounds[0], bounds[1])
    result = _result(spec, model, bounds, evaluator, [{
        "generation": 0,
        "archive": len(evaluator.archive_order),
        "front_size": len(pareto_front(points)),
        "hypervolume": hv,
        "best_scalar": weighted_sum_rank(
            points, weights=spec.mcdm_weights, bounds=bounds,
        )[0][1],
        "best_fingerprint": None,
    }])
    evaluator.stats.elapsed_s = time.perf_counter() - t0
    result.stats = evaluator.stats
    return result


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _evaluation(spec: ExploreSpec, workers: int, cache, obs: Obs):
    """What a search evaluates with: the dependability model (None
    without a scenario), measured once, and an empty archive's
    evaluator."""
    model: Optional[DependabilityModel] = None
    if spec.scenario is not None:
        with obs.span("dependability_model", scenario=spec.scenario,
                      faults=spec.scenario_faults):
            model = measure_dependability(
                spec.scenario, spec.scenario_faults, spec.scenario_seed,
                workers=workers, cache=cache, obs=obs.without_recorder(),
            )
    return model, _Evaluator(spec, workers, cache, obs)


def _result(spec, model, bounds, evaluator, history) -> ExploreResult:
    """The evaluator's archive, in first-seen order, as a result."""
    return ExploreResult(
        spec=spec,
        objectives=objective_names(model),
        bounds=bounds,
        model=model,
        rows=[
            {
                "fingerprint": fp,
                "objectives": list(
                    objectives_from_record(evaluator.records[fp], model)
                ),
                "record": evaluator.records[fp],
            }
            for fp in evaluator.archive_order
        ],
        history=history,
    )


class _Evaluator:
    """Population evaluation with archive/store dedup and fan-out.

    Archive insertion follows *population order*, never completion
    order, which is what keeps row order — and therefore every
    serialized table — independent of worker scheduling.
    """

    def __init__(self, spec: ExploreSpec, workers: int, cache,
                 obs: Obs) -> None:
        self.space = spec.space()
        self.spec = spec
        self.extra = {"problem": spec.problem.to_dict()}
        self.workers = workers
        self.cache = cache
        self.obs = obs
        self.stats = ExploreStats(workers=workers)
        self.archive_order: List[str] = []          # fingerprints, first-seen
        self.records: Dict[str, Dict[str, Any]] = {}
        self.full_genomes: Dict[str, Genome] = {}   # fp → full genome

    def evaluate(self, population: Sequence[Genome],
                 generation: int) -> None:
        """Ensure every genome of the population is in the archive."""
        obs = self.obs
        with obs.span("generation", generation=generation,
                      population=len(population)):
            pending: List[Tuple[str, Dict[str, Any]]] = []
            seen_now = set()
            for genome in population:
                self.stats.requested += 1
                obs.count("explore.genomes.requested")
                fp = self.space.fingerprint(genome, extra=self.extra)
                self.full_genomes.setdefault(fp, dict(genome))
                if fp in seen_now:
                    self.stats.duplicates += 1
                    obs.count("explore.genomes.duplicate")
                    continue
                seen_now.add(fp)
                if fp in self.records:
                    self.stats.archive_hits += 1
                    obs.count("explore.archive.hits")
                    continue
                cached = (self.cache.get(fp)
                          if self.cache is not None else None)
                if cached is not None:
                    self.records[fp] = cached
                    self.archive_order.append(fp)
                    self.stats.cache_hits += 1
                    obs.count("explore.cache.hits")
                    continue
                obs.count("explore.cache.misses")
                pending.append((fp, {
                    "fingerprint": fp,
                    "genome": self.space.effective(genome),
                    "problem": self.spec.problem.to_dict(),
                }))
            if pending:
                self._run_pending(pending)

    def _run_pending(
        self, pending: List[Tuple[str, Dict[str, Any]]],
    ) -> None:
        results: Dict[str, Dict[str, Any]] = {}
        obs = self.obs

        def finish(fp: str, record: Dict[str, Any],
                   doc: Optional[Dict[str, Any]], elapsed_s: float) -> None:
            results[fp] = record
            self.stats.computed += 1
            obs.beat(done=self.stats.computed + self.stats.cache_hits,
                     requested=self.stats.requested)
            obs.count("explore.genomes.computed")
            obs.observe("explore.genome.elapsed_s", elapsed_s)
            obs.merge(doc)

        run_cells(pending, "explore", self.workers, finish,
                  store=self.cache, obs=obs)

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
