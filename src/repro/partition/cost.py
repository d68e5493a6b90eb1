"""The six-factor partitioning cost function.

Section 3.3 enumerates the considerations a partitioner may weigh; this
module makes each an explicit, individually-weighted (and individually
*ablatable*) term:

1. **Performance requirements** — latency, with a large penalty when the
   deadline is missed ("functions that have a great impact on the
   overall performance ... may need to be implemented in hardware").
2. **Implementation cost** — hardware area (sharing-aware), plus a large
   penalty for exceeding the area budget.
3. **Modifiability** — putting likely-to-change functions in hardware is
   penalized ("sometimes a software implementation is desired so that
   the function or algorithm can be easily changed").
4. **Nature of computation** — mismatch penalty: highly parallel
   computations in software, and strictly serial ones in hardware,
   both waste their medium.
5. **Concurrency** — reward realized hardware/software overlap
   (Type II systems: "the best system performance may be achieved by
   exploiting concurrency").
6. **Communication** — the boundary-crossing transfer time ("favors
   partitions that localize communication").

The evaluation-derived terms (1, 5, 6) come from the schedule in
:mod:`repro.partition.evaluate`; the structural terms (2, 3, 4) come
from the task characterizations.  Each term is computed in one place,
:meth:`repro.partition.evaluate.CompiledProblem.cost_terms`; the
functions here build a compiled view and call it once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Tuple

from repro.partition.evaluate import (
    VIOLATION_PENALTY,
    CompiledProblem,
    Evaluation,
)
from repro.partition.problem import PartitionProblem

__all__ = [
    "VIOLATION_PENALTY",
    "CostWeights",
    "cost_terms",
    "partition_cost",
]


@dataclass(frozen=True)
class CostWeights:
    """Per-factor weights.  Setting one to 0 ablates that factor."""

    performance: float = 1.0
    implementation_cost: float = 0.05
    modifiability: float = 20.0
    nature: float = 0.3
    concurrency: float = 0.5
    communication: float = 1.0

    def ablate(self, factor: str) -> "CostWeights":
        """A copy with one factor zeroed (for experiment E11)."""
        if not hasattr(self, factor):
            raise AttributeError(f"unknown factor {factor!r}")
        return replace(self, **{factor: 0.0})

    @classmethod
    def factors(cls) -> Tuple[str, ...]:
        """The six factor names, in the paper's order."""
        return (
            "performance",
            "implementation_cost",
            "modifiability",
            "nature",
            "concurrency",
            "communication",
        )


def cost_terms(
    problem: PartitionProblem,
    evaluation: Evaluation,
    hw_tasks: Iterable[str],
) -> Dict[str, float]:
    """The raw (unweighted) value of each factor term."""
    return CompiledProblem(problem).cost_terms(evaluation, hw_tasks)


def partition_cost(
    problem: PartitionProblem,
    hw_tasks: Iterable[str],
    weights: CostWeights = CostWeights(),
    evaluation: Evaluation = None,
) -> Tuple[float, Dict[str, float], Evaluation]:
    """Scalar cost of a partition plus the weighted per-factor breakdown.

    Returns ``(cost, breakdown, evaluation)``; pass a pre-computed
    ``evaluation`` to avoid re-scheduling.
    """
    return CompiledProblem(problem).cost(hw_tasks, weights, evaluation)
