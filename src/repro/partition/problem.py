"""The partitioning problem and result containers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, TYPE_CHECKING

from repro import _domain
from repro.estimate.communication import CommModel, DEFAULT
from repro.graph.taskgraph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partition.evaluate import Evaluation


@dataclass
class PartitionProblem:
    """One hardware/software partitioning instance.

    * ``graph`` — the task graph (times in ns, areas in gates);
    * ``comm`` — boundary-crossing cost model;
    * ``hw_area_budget`` — maximum co-processor area, >= 0 (None or
      +inf = unbounded);
    * ``deadline_ns`` — end-to-end latency requirement, >= 0 (None or
      +inf = soft);
    * ``hw_parallelism`` — concurrent controller/datapath pairs in the
      co-processor: 1 models the single-threaded co-processor of
      Figure 8, larger values the multi-threaded co-processor of
      Figure 9, None models fully-parallel dedicated hardware (an int
      >= 1 or None);
    * ``use_sharing`` — estimate hardware area with functional-unit
      sharing (the [18] estimator) instead of naive addition.
    """

    graph: TaskGraph
    comm: CommModel = DEFAULT
    hw_area_budget: Optional[float] = None
    deadline_ns: Optional[float] = None
    hw_parallelism: Optional[int] = 1
    use_sharing: bool = True

    def __post_init__(self) -> None:
        self.graph.validate()
        _domain.count("hw_parallelism", self.hw_parallelism, 1,
                      optional=True)
        for name in ("hw_area_budget", "deadline_ns"):
            bound = getattr(self, name)
            if bound != math.inf:  # +inf is no bound, as None is
                _domain.real(name, bound, least=0, optional=True)

    @classmethod
    def from_task_graph(
        cls,
        graph: TaskGraph,
        hw_area_budget: Optional[float] = None,
        deadline_ns: Optional[float] = None,
        comm: CommModel = DEFAULT,
        hw_parallelism: Optional[int] = 1,
    ) -> "PartitionProblem":
        """Convenience constructor used throughout examples and docs."""
        return cls(
            graph=graph,
            comm=comm,
            hw_area_budget=hw_area_budget,
            deadline_ns=deadline_ns,
            hw_parallelism=hw_parallelism,
        )

    @property
    def all_sw(self) -> FrozenSet[str]:
        """The all-software partition."""
        return frozenset()

    @property
    def all_hw(self) -> FrozenSet[str]:
        """The all-hardware partition."""
        return frozenset(self.graph.task_names)


@dataclass
class PartitionResult:
    """The outcome of one partitioning run."""

    problem: PartitionProblem
    hw_tasks: FrozenSet[str]
    evaluation: "Evaluation"
    cost: float
    breakdown: Dict[str, float]
    algorithm: str
    moves_evaluated: int = 0

    @property
    def sw_tasks(self) -> FrozenSet[str]:
        """Tasks implemented in software."""
        return frozenset(self.problem.graph.task_names) - self.hw_tasks

    @property
    def area_feasible(self) -> bool:
        """Whether the partition respects the hardware area budget.

        Heuristics that trade budget violations against the penalty term
        may legitimately return over-budget partitions; this flag is how
        such results are marked infeasible rather than silently reported
        (the sweep tables and the differential harness key off it).
        """
        budget = self.problem.hw_area_budget
        return budget is None or self.evaluation.hw_area <= budget + 1e-9

    @property
    def feasible(self) -> bool:
        """Area budget respected *and* deadline met (when constrained)."""
        return self.area_feasible and self.evaluation.deadline_met

    def summary(self) -> str:
        """One-line report."""
        ev = self.evaluation
        deadline = (
            "met" if ev.deadline_met else "MISSED"
        ) if self.problem.deadline_ns is not None else "n/a"
        return (
            f"{self.algorithm}: {len(self.hw_tasks)} HW / "
            f"{len(self.sw_tasks)} SW tasks, latency {ev.latency_ns:.0f} ns, "
            f"area {ev.hw_area:.0f}, comm {ev.comm_ns:.0f} ns, "
            f"deadline {deadline}, cost {self.cost:.1f}"
        )
