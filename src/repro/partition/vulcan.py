"""Hardware-first partition extraction (Gupta & De Micheli style).

Reference [6] of the paper: start from an all-hardware implementation
(which trivially meets performance) and move functionality to software
on the instruction-set processor as long as the performance constraint
still holds — "the goal of hardware/software partitioning in this case
is to minimize the implementation cost without decreasing performance
relative to a purely hardware implementation."

Move order is by *cost-effectiveness of extraction*: tasks whose
hardware is expensive but whose software slowdown and communication
impact are small leave hardware first.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional

from repro import _domain
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def vulcan_partition(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    slack_factor: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run hardware-first extraction.

    The performance constraint is ``problem.deadline_ns`` if set,
    otherwise ``slack_factor`` x the all-hardware latency (``1.0`` means
    "no slower than all-hardware", the strictest reading of [6]; values
    above 1 permit bounded degradation).

    Deterministic: ``seed``/``rng`` are accepted for interface
    uniformity with the stochastic heuristics and ignored.  An attached
    ``probe`` receives one convergence record per accepted extraction
    (the six-factor cost of the shrinking partition, its latency, and
    the remaining hardware population).

    ``slack_factor`` must be finite and > 0; anything else raises
    ``ValueError`` before the first move.
    """
    resolve_rng(seed, rng)  # validate the uniform interface contract
    # NaN, 0 or a negative factor kept the all-hardware start, and inf
    # moved everything to software
    _domain.real("vulcan.slack_factor", slack_factor, above=0)
    graph = problem.graph
    compiled = CompiledProblem(problem)
    hw = frozenset(graph.task_names)
    base = compiled.evaluate(hw)
    deadline = (
        problem.deadline_ns if problem.deadline_ns is not None
        else base.latency_ns * slack_factor
    )
    moves = 0
    if probe is not None:
        start_cost, _b, _e = compiled.cost(hw, weights)
        probe.record("vulcan", start_cost, task=None,
                     latency_ns=base.latency_ns, n_hw=len(hw))

    improved = True
    while improved and hw:
        improved = False
        # rank candidates by hardware area saved per software time added
        candidates = sorted(
            hw,
            key=lambda n: (
                -graph.task(n).hw_area
                / max(graph.task(n).sw_time - graph.task(n).hw_time, 1e-9),
                n,
            ),
        )
        for name in candidates:
            candidate = hw - {name}
            evaluation = compiled.evaluate(candidate)
            moves += 1
            if evaluation.latency_ns <= deadline:
                hw = candidate
                improved = True
                if probe is not None:
                    step_cost, _b, _e = compiled.cost(hw, weights)
                    probe.record("vulcan", step_cost, task=name,
                                 latency_ns=evaluation.latency_ns,
                                 n_hw=len(hw), moves_evaluated=moves)
                break

    cost, breakdown, evaluation = compiled.cost(hw, weights)
    return PartitionResult(
        problem=problem,
        hw_tasks=hw,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="vulcan",
        moves_evaluated=moves,
    )
