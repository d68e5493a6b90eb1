"""Multi-threaded co-processor synthesis (Figure 9, Section 4.5.1).

Adams & Thomas [10]: the co-processor comprises several
controller/datapath pairs, so hardware tasks can execute concurrent
threads of control.  "The hardware/software partitioning problem is
further complicated by the opportunity to exploit parallelism both
between hardware and software components and among hardware components
... partitioning is done in a way that considers minimizing the
communication between the hardware and software components and
maximizing the concurrency."

The flow:

1. sweep the controller count ``k`` from 1 to ``max_threads``;
2. for each ``k``, partition with ``hw_parallelism=k`` under the full
   six-factor cost (communication + concurrency aware), charging
   ``controller_overhead`` area per extra controller;
3. pick the best (cost, then fewer controllers).

``communication_blind_partition`` runs the same sweep with the
communication and concurrency factors ablated — the comparison behind
experiment E9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import _domain
from repro.estimate.communication import CommModel, TIGHT
from repro.graph.algorithms import communication_clusters, inter_cluster_volume
from repro.graph.taskgraph import TaskGraph
from repro.partition.cost import CostWeights
from repro.partition.kl import kernighan_lin
from repro.partition.problem import PartitionProblem, PartitionResult

#: Extra area per additional controller/datapath pair.
CONTROLLER_OVERHEAD = 60.0


@dataclass
class MultithreadDesign:
    """The chosen thread count and partition."""

    threads: int
    partition: PartitionResult
    controller_area: float
    sweep: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def latency_ns(self) -> float:
        return self.partition.evaluation.latency_ns

    @property
    def total_hw_area(self) -> float:
        """Datapath area plus controller overhead."""
        return self.partition.evaluation.hw_area + self.controller_area

    @property
    def adjusted_cost(self) -> float:
        """Partition cost plus the controller-overhead term."""
        return self.partition.cost + self.controller_area * 0.05

    def hw_thread_assignment(self) -> List[List[str]]:
        """Group the hardware tasks into ``threads`` communication-
        localized clusters (the controller assignment of [10])."""
        hw = sorted(self.partition.hw_tasks)
        if not hw or self.threads <= 1:
            return [hw] if hw else []
        sub = TaskGraph("hw_only")
        graph = self.partition.problem.graph
        for name in hw:
            task = graph.task(name)
            sub.add_task(type(task)(
                name=task.name, sw_time=task.sw_time, hw_time=task.hw_time,
                hw_area=task.hw_area, sw_size=task.sw_size,
                parallelism=task.parallelism,
                modifiability=task.modifiability,
            ))
        for edge in graph.edges:
            if edge.src in sub and edge.dst in sub:
                sub.add_edge(edge.src, edge.dst, edge.volume)
        k = min(self.threads, len(hw))
        return communication_clusters(sub, k)

    def summary(self) -> str:
        return (
            f"multithread: k={self.threads}, "
            f"HW={sorted(self.partition.hw_tasks)}, "
            f"latency={self.latency_ns:.0f} ns, "
            f"hw area={self.total_hw_area:.0f}"
        )


def synthesize_multithreaded(
    graph: TaskGraph,
    deadline_ns: Optional[float] = None,
    hw_area_budget: Optional[float] = None,
    comm: CommModel = TIGHT,
    weights: CostWeights = CostWeights(),
    max_threads: int = 4,
    controller_overhead: float = CONTROLLER_OVERHEAD,
) -> MultithreadDesign:
    """Run the Figure 9 flow: sweep thread counts, keep the best."""
    _domain.count("max_threads", max_threads, 1)
    best: Optional[MultithreadDesign] = None
    sweep: List[Tuple[int, float]] = []
    for k in range(1, max_threads + 1):
        problem = PartitionProblem(
            graph=graph.copy(),
            comm=comm,
            hw_area_budget=hw_area_budget,
            deadline_ns=deadline_ns,
            hw_parallelism=k,
        )
        partition = kernighan_lin(problem, weights=weights)
        ctrl_area = controller_overhead * max(0, k - 1)
        design = MultithreadDesign(
            threads=k,
            partition=partition,
            controller_area=ctrl_area,
        )
        sweep.append((k, design.adjusted_cost))
        if best is None or design.adjusted_cost < best.adjusted_cost - 1e-9:
            best = design
    best.sweep = sweep
    return best


def communication_blind_partition(
    graph: TaskGraph,
    deadline_ns: Optional[float] = None,
    hw_area_budget: Optional[float] = None,
    comm: CommModel = TIGHT,
    max_threads: int = 4,
) -> MultithreadDesign:
    """The ablated baseline of experiment E9: the same sweep with the
    communication and concurrency factors zeroed out of the cost.  The
    *evaluation* still pays the real communication penalty — the
    partitioner just can't see it coming."""
    blind = CostWeights().ablate("communication").ablate("concurrency")
    return synthesize_multithreaded(
        graph,
        deadline_ns=deadline_ns,
        hw_area_budget=hw_area_budget,
        comm=comm,
        weights=blind,
        max_threads=max_threads,
    )
