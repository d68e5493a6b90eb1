"""Kernighan–Lin-style partitioning with move locking.

Each pass tentatively moves every task exactly once (always taking the
currently best move, *even if it worsens the cost*), records the running
cost after each tentative move, then rewinds to the best prefix.  The
hill-climbing-with-lookahead structure lets KL escape local minima that
trap pure greedy migration.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro import _domain
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def kernighan_lin(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    seed_hw: Iterable[str] = (),
    max_passes: int = 10,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run KL-style passes until a full pass yields no improvement.

    Deterministic: ``seed``/``rng`` are accepted for interface
    uniformity with the stochastic heuristics and ignored.  An attached
    ``probe`` receives one convergence record per tentative (locked)
    move, tagged with the pass number and whether the pass's best
    prefix was eventually kept.  ``max_passes`` must be an int >= 1.
    """
    resolve_rng(seed, rng)  # validate the uniform interface contract
    _domain.count("kl.max_passes", max_passes, 1)
    compiled = CompiledProblem(problem)
    hw = frozenset(seed_hw)
    cost, breakdown, evaluation = compiled.cost(hw, weights)
    moves = 0
    if probe is not None:
        probe.record("kl", cost, pass_n=0, moves_evaluated=moves)

    for _pass in range(max_passes):
        locked: set = set()
        trail: List[Tuple[float, FrozenSet[str]]] = [(cost, hw)]
        current = hw
        while len(locked) < len(problem.graph):
            best: Optional[tuple] = None
            for name in problem.graph.task_names:
                if name in locked:
                    continue
                candidate = (
                    current - {name} if name in current else current | {name}
                )
                cand_cost, _b, _e = compiled.cost(candidate, weights)
                moves += 1
                key = (cand_cost, name)
                if best is None or key < best[:2]:
                    best = (cand_cost, name, candidate)
            cand_cost, name, current = best
            locked.add(name)
            trail.append((cand_cost, current))
            if probe is not None:
                probe.record(
                    "kl", cand_cost, best_cost=min(t[0] for t in trail),
                    accepted=cand_cost < cost - 1e-9,
                    pass_n=_pass + 1, task=name, moves_evaluated=moves,
                )
        best_cost, best_hw = min(trail, key=lambda t: t[0])
        if best_cost < cost - 1e-9:
            cost, hw = best_cost, best_hw
        else:
            break

    cost, breakdown, evaluation = compiled.cost(hw, weights)
    return PartitionResult(
        problem=problem,
        hw_tasks=hw,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="kernighan-lin",
        moves_evaluated=moves,
    )
