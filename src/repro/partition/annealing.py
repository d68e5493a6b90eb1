"""Simulated-annealing partitioning.

Random single-task flips under a geometric cooling schedule.  Slower
than greedy/KL but explores the space more broadly; the benchmarks use
it as the quality reference on small instances.
"""

from __future__ import annotations

import math
import random
from typing import FrozenSet, Iterable, Optional

from repro import _domain
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def simulated_annealing(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    rng: Optional[random.Random] = None,
    seed_hw: Iterable[str] = (),
    initial_temperature: Optional[float] = None,
    cooling: float = 0.95,
    steps_per_temperature: int = 20,
    final_temperature_ratio: float = 1e-3,
    seed: Optional[int] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run simulated annealing from ``seed_hw``.

    The initial temperature defaults to the cost of the seed partition
    (so early uphill moves of a few percent are freely accepted), and the
    schedule cools geometrically until
    ``initial * final_temperature_ratio``.

    The random trajectory is controlled by ``seed`` (an integer) or
    ``rng`` (a ``random.Random``), never both; with neither, the
    historical default ``random.Random(0)`` applies.  An attached
    ``probe`` receives one convergence record per temperature level
    (current cost, best cost, temperature, accepted/rejected counts) —
    compact enough for long schedules, detailed enough to plot the
    cooling trajectory.

    ``cooling`` and ``final_temperature_ratio`` must lie in (0, 1),
    ``initial_temperature`` must be None or finite and > 0, and
    ``steps_per_temperature`` an int >= 1; anything else raises
    ``ValueError`` before the first move.
    """
    rng = resolve_rng(seed, rng)
    # a cooling of 1 or more never cools to the floor, a ratio of 0
    # cools for thousands of levels, and NaN or values <= 0 end the run
    # after one level or before the first move
    _domain.real("annealing.cooling", cooling, above=0, below=1)
    _domain.real("annealing.final_temperature_ratio",
                 final_temperature_ratio, above=0, below=1)
    _domain.real("annealing.initial_temperature", initial_temperature,
                 above=0, optional=True)
    _domain.count("annealing.steps_per_temperature",
                  steps_per_temperature, 1)
    names = problem.graph.task_names
    compiled = CompiledProblem(problem)
    hw = frozenset(seed_hw)
    cost, breakdown, evaluation = compiled.cost(hw, weights)
    best = (cost, hw, breakdown, evaluation)
    moves = 0

    temperature = (
        initial_temperature if initial_temperature is not None
        else max(abs(cost), 1.0) * 0.1
    )
    floor = temperature * final_temperature_ratio
    if probe is not None:
        probe.record("annealing", cost, temperature=temperature,
                     accepted_moves=0, rejected_moves=0)
    while temperature > floor:
        level_accepted = 0
        level_rejected = 0
        for _ in range(steps_per_temperature):
            name = rng.choice(names)
            candidate = hw - {name} if name in hw else hw | {name}
            cand_cost, cand_break, cand_eval = compiled.cost(
                candidate, weights
            )
            moves += 1
            delta = cand_cost - cost
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                level_accepted += 1
                hw, cost = candidate, cand_cost
                breakdown, evaluation = cand_break, cand_eval
                if cost < best[0]:
                    best = (cost, hw, breakdown, evaluation)
            else:
                level_rejected += 1
        if probe is not None:
            probe.record(
                "annealing", cost, best_cost=best[0],
                accepted=level_accepted > 0,
                temperature=temperature,
                accepted_moves=level_accepted,
                rejected_moves=level_rejected,
            )
        temperature *= cooling
    cost, hw, breakdown, evaluation = best
    return PartitionResult(
        problem=problem,
        hw_tasks=hw,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="annealing",
        moves_evaluated=moves,
    )
