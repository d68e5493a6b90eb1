"""Software-first partition extraction (Henkel & Ernst style).

Reference [17] of the paper: start from an all-software implementation
and move the *performance-critical regions* into hardware — "hardware/
software partitioning is aimed at moving the performance-critical
regions of software into hardware", with "performance requirements and
implementation cost ... the principle factors".

Candidates are ranked by speedup-per-area (the latency the move saves,
per gate it costs); extraction continues while the deadline is missed,
then keeps going as long as a move still pays for itself under the
six-factor cost (so the algorithm is useful without a hard deadline
too).
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional

from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def cosyma_partition(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run software-first hot-spot extraction.

    Deterministic: ``seed``/``rng`` are accepted for interface
    uniformity with the stochastic heuristics and ignored.  An attached
    ``probe`` receives one convergence record per extraction (the task
    moved to hardware, the cost and latency after the move, and whether
    the move was a deadline-forced fallback).
    """
    resolve_rng(seed, rng)  # validate the uniform interface contract
    graph = problem.graph
    compiled = CompiledProblem(problem)
    hw: FrozenSet[str] = frozenset()
    cost, breakdown, evaluation = compiled.cost(hw, weights)
    moves = 0
    if probe is not None:
        probe.record("cosyma", cost, task=None,
                     latency_ns=evaluation.latency_ns, forced=False)

    while True:
        deadline_missed = (
            problem.deadline_ns is not None
            and evaluation.latency_ns > problem.deadline_ns
        )
        best = None
        fallback = None
        for name in graph.task_names:
            if name in hw:
                continue
            candidate = hw | {name}
            area = compiled.hardware_area(candidate)
            if (problem.hw_area_budget is not None
                    and area > problem.hw_area_budget):
                continue
            cand_cost, cand_break, cand_eval = compiled.cost(
                candidate, weights
            )
            moves += 1
            saved = evaluation.latency_ns - cand_eval.latency_ns
            added_area = max(area - evaluation.hw_area, 1e-9)
            gain = saved / added_area
            if deadline_missed:
                # most speedup per gate first, regardless of cost delta
                key = (-gain, name)
                accept = saved > 0
                # remember the least-harmful move in case nothing saves
                fb_key = (cand_eval.latency_ns, name)
                if fallback is None or fb_key < fallback[0]:
                    fallback = (fb_key, candidate, cand_cost, cand_break,
                                cand_eval)
            else:
                key = (cand_cost, name)
                accept = cand_cost < cost - 1e-9
            if accept and (best is None or key < best[0]):
                best = (key, candidate, cand_cost, cand_break, cand_eval)
        forced = False
        if best is None:
            # deadline still missed and no single move helps: force the
            # least-latency move anyway (monotone toward all-hardware,
            # which is the fastest partition available)
            if deadline_missed and fallback is not None:
                best = fallback
                forced = True
            else:
                break
        prev_hw = hw
        _key, hw, cost, breakdown, evaluation = best
        if probe is not None:
            extracted = next(iter(hw - prev_hw), None)
            probe.record("cosyma", cost, task=extracted,
                         latency_ns=evaluation.latency_ns, forced=forced,
                         moves_evaluated=moves)

    return PartitionResult(
        problem=problem,
        hw_tasks=hw,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="cosyma",
        moves_evaluated=moves,
    )
