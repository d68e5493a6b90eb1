"""GCLP partitioning (Kalavade & Lee style).

The paper's references [1]/[5] are Kalavade & Lee's DSP co-design work,
whose partitioner (Global Criticality / Local Phase) became one of the
field's standard algorithms.  One pass over the nodes in topological
order; at each node the algorithm asks *which objective should drive
this decision*:

* **global criticality** (GC): how time-critical is the design right
  now?  Estimated by scheduling the partial mapping with all unmapped
  nodes tentatively in software: GC near 1 means the deadline is in
  danger, near 0 means there is slack.
* **local phase**: is this node an *extremity* (strongly better in one
  medium) or a *repeller* (hostile to one medium)?  Quantified from the
  node's hardware speedup and area percentiles, it shifts the decision
  threshold per node.

If GC exceeds the node's threshold the node is mapped to minimize
finish time (usually hardware); otherwise to minimize cost (usually
software).  One evaluation per node makes GCLP O(n·eval) — much cheaper
than the O(n²·eval) migration heuristics — which is exactly why it was
attractive at the time.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional

from repro import _domain
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.seeding import ProgressProbe, resolve_rng


def _percentile_ranks(values: List[float]) -> List[float]:
    """Rank of each value in [0, 1] (average-free, stable)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    denominator = max(1, len(values) - 1)
    for position, index in enumerate(order):
        ranks[index] = position / denominator
    return ranks


def gclp_partition(
    problem: PartitionProblem,
    weights: CostWeights = CostWeights(),
    base_threshold: float = 0.5,
    extremity_gain: float = 0.25,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    probe: Optional[ProgressProbe] = None,
) -> PartitionResult:
    """Run one GCLP pass over the task graph.

    Deterministic: ``seed``/``rng`` are accepted for interface
    uniformity with the stochastic heuristics and ignored.  An attached
    ``probe`` receives one convergence record per node decision — the
    global criticality, the node's extremity-shifted threshold, and the
    chosen side — plus one per repair-phase move.

    ``base_threshold`` must lie in [0, 1] and ``extremity_gain`` be
    finite and >= 0; anything else raises ``ValueError`` before the
    first move.
    """
    resolve_rng(seed, rng)  # validate the uniform interface contract
    # these used to run silently: a threshold of NaN, inf or 5, or a
    # NaN gain, sent every node to software
    _domain.real("gclp.base_threshold", base_threshold, least=0, most=1)
    _domain.real("gclp.extremity_gain", extremity_gain, least=0)
    graph = problem.graph
    names = graph.task_names
    compiled = CompiledProblem(problem)

    # local phase: extremity = hw-affinity (high speedup, low area)
    speedups = [graph.task(n).speedup for n in names]
    areas = [graph.task(n).hw_area for n in names]
    speedup_rank = _percentile_ranks(speedups)
    area_rank = _percentile_ranks(areas)
    # extremity in [-0.5, 0.5]: positive = hardware extremity
    extremity = {
        n: (speedup_rank[i] - area_rank[i]) / 2.0
        for i, n in enumerate(names)
    }

    deadline = problem.deadline_ns
    hw: set = set()
    moves = 0

    all_sw_latency = compiled.evaluate([]).latency_ns
    all_hw_latency = compiled.evaluate(names).latency_ns
    moves += 2

    order = graph.topological_order()
    for position, node in enumerate(order):
        # GC: how much of the remaining freedom must go to hardware?
        # pessimistic = committed mapping, everything undecided in SW;
        # optimistic  = committed mapping, everything undecided in HW.
        undecided = set(order[position:])
        pessimistic = compiled.evaluate(hw).latency_ns
        optimistic = compiled.evaluate(hw | undecided).latency_ns
        moves += 2
        target = deadline if deadline is not None else all_hw_latency
        span = max(pessimistic - optimistic, 1e-9)
        gc = min(1.0, max(0.0, (pessimistic - target) / span))

        threshold = base_threshold - extremity_gain * 2 * extremity[node]
        task = graph.task(node)
        if gc >= threshold:
            # time-critical: minimize finish time
            choose_hw = task.hw_time < task.sw_time
        else:
            # slack available: minimize cost (hardware must earn its area)
            marginal_gain = (task.sw_time - task.hw_time)
            choose_hw = (
                task.hw_area > 0
                and marginal_gain / task.hw_area > 0.5
                and extremity[node] > 0.2
            )
        applied = False
        if choose_hw:
            candidate = hw | {node}
            blocked = False
            if problem.hw_area_budget is not None:
                area = compiled.hardware_area(candidate)
                moves += 1
                blocked = area > problem.hw_area_budget
            if not blocked:
                hw = candidate
                applied = True
        if probe is not None:
            probe.record(
                "gclp", pessimistic, accepted=applied,
                criticality=gc, threshold=threshold, task=node,
                to_hw=choose_hw, moves_evaluated=moves,
            )

    # repair phase: GCLP implementations wrap the pass in an outer loop
    # that tightens the mapping when the deadline is still missed; we
    # move the best speedup-per-area candidates until it is met (or
    # nothing is left to move / budget blocks every move).
    if deadline is not None:
        evaluation = compiled.evaluate(hw)
        moves += 1
        while evaluation.latency_ns > deadline and len(hw) < len(names):
            candidates = sorted(
                (n for n in names if n not in hw),
                key=lambda n: (
                    -(graph.task(n).sw_time - graph.task(n).hw_time)
                    / max(graph.task(n).hw_area, 1e-9),
                    n,
                ),
            )
            moved = False
            for node in candidates:
                candidate = hw | {node}
                cand_eval = compiled.evaluate(candidate)
                moves += 1
                if (problem.hw_area_budget is not None
                        and cand_eval.hw_area > problem.hw_area_budget):
                    continue
                hw = candidate
                evaluation = cand_eval
                moved = True
                if probe is not None:
                    probe.record(
                        "gclp", cand_eval.latency_ns, criticality=1.0,
                        threshold=0.0, task=node, to_hw=True,
                        repair=True, moves_evaluated=moves,
                    )
                break
            if not moved:
                break

    hw_frozen: FrozenSet[str] = frozenset(hw)
    cost, breakdown, evaluation = compiled.cost(hw_frozen, weights)
    return PartitionResult(
        problem=problem,
        hw_tasks=hw_frozen,
        evaluation=evaluation,
        cost=cost,
        breakdown=breakdown,
        algorithm="gclp",
        moves_evaluated=moves,
    )
