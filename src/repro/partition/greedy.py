"""Greedy best-improvement partitioning.

Starts from a seed (all-software by default) and repeatedly applies the
single task move (SW→HW or HW→SW) that most improves the six-factor
cost, until no move improves it.  Simple, fast, and the baseline every
other algorithm is compared against.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro import _domain
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def greedy_partition(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    seed_hw: Iterable[str] = (),
    max_iterations: int = 1000,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run greedy best-improvement migration.

    Deterministic: ``seed``/``rng`` are accepted for interface
    uniformity with the stochastic heuristics and ignored.  An attached
    ``probe`` receives one convergence record per accepted migration.
    ``max_iterations`` must be an int >= 1.
    """
    resolve_rng(seed, rng)  # validate the uniform interface contract
    _domain.count("greedy.max_iterations", max_iterations, 1)
    compiled = CompiledProblem(problem)
    hw = frozenset(seed_hw)
    cost, breakdown, evaluation = compiled.cost(hw, weights)
    moves = 0
    if probe is not None:
        probe.record("greedy", cost, moves_evaluated=moves, task=None)
    for _ in range(max_iterations):
        best: Optional[tuple] = None
        for name in problem.graph.task_names:
            candidate = hw - {name} if name in hw else hw | {name}
            cand_cost, cand_break, cand_eval = compiled.cost(
                candidate, weights
            )
            moves += 1
            if cand_cost < cost - 1e-9:
                key = (cand_cost, name)
                if best is None or key < best[:2]:
                    best = (cand_cost, name, candidate, cand_break, cand_eval)
        if best is None:
            break
        cost, _name, hw, breakdown, evaluation = best
        if probe is not None:
            probe.record("greedy", cost, moves_evaluated=moves, task=_name)
    return PartitionResult(
        problem=problem,
        hw_tasks=hw,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="greedy",
        moves_evaluated=moves,
    )
