"""Heterogeneous list scheduling with communication delays.

The validating scheduler shared by all three multiprocessor
synthesizers: whatever allocation/mapping a synthesizer proposes, this
scheduler decides the *actual* makespan — earliest-finish-time list
scheduling (HEFT-style) with per-edge communication charged whenever
producer and consumer land on different processing elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.estimate.communication import CommModel, DEFAULT
from repro.graph.algorithms import b_levels
from repro.graph.taskgraph import TaskGraph
from repro.cosynth.multiproc.library import Allocation, execution_time


@dataclass
class MultiprocSchedule:
    """The result of scheduling a task graph on an allocation."""

    allocation: Allocation
    mapping: Dict[str, str]            # task -> PE instance name
    start: Dict[str, float]
    finish: Dict[str, float]
    comm_ns: float

    @property
    def makespan(self) -> float:
        """End-to-end latency."""
        return max(self.finish.values(), default=0.0)

    def meets(self, deadline: Optional[float]) -> bool:
        """Whether the schedule meets the deadline (None = always)."""
        return deadline is None or self.makespan <= deadline + 1e-9

    def pe_load(self) -> Dict[str, float]:
        """Busy time per PE instance."""
        load = {pe.name: 0.0 for pe in self.allocation.instances}
        for task, pe in self.mapping.items():
            load[pe] += self.finish[task] - self.start[task]
        return load

    def utilization(self) -> float:
        """Mean PE utilization over the makespan."""
        span = self.makespan
        if span <= 0 or not self.allocation.instances:
            return 0.0
        loads = self.pe_load()
        return sum(loads.values()) / (span * len(loads))


def schedule_on(
    graph: TaskGraph,
    allocation: Allocation,
    comm: CommModel = DEFAULT,
    mapping: Optional[Dict[str, str]] = None,
) -> MultiprocSchedule:
    """Schedule ``graph`` on ``allocation``.

    With ``mapping`` given, tasks are pinned (the synthesizers' proposal
    is evaluated as-is); otherwise each task greedily takes the PE that
    finishes it earliest (HEFT-style), which is how the bin-packing and
    sensitivity synthesizers let the scheduler refine their allocation.
    """
    if not allocation.instances:
        raise ValueError("allocation has no processing elements")
    pes = {pe.name: pe for pe in allocation.instances}
    if mapping:
        unknown = set(mapping.values()) - set(pes)
        if unknown:
            raise KeyError(f"mapping uses unknown PEs: {sorted(unknown)}")

    priority = b_levels(graph)
    order = {name: i for i, name in enumerate(graph.task_names)}
    pe_free = {name: 0.0 for name in pes}
    start: Dict[str, float] = {}
    finish: Dict[str, float] = {}
    placed: Dict[str, str] = {}
    comm_total = 0.0

    pending = {n: len(graph.predecessors(n)) for n in graph.task_names}
    ready = [
        (-priority[n], order[n], n)
        for n in graph.task_names if pending[n] == 0
    ]
    heapq.heapify(ready)

    def arrival(task: str, pe_name: str) -> Tuple[float, float]:
        """(data-ready time on pe, comm charged) for scheduling ``task``."""
        t, charged = 0.0, 0.0
        for edge in graph.in_edges(task):
            base = finish[edge.src]
            if placed[edge.src] != pe_name:
                delay = comm.transfer_ns(edge.volume)
                charged += delay
                base += delay
            t = max(t, base)
        return t, charged

    while ready:
        _p, _o, name = heapq.heappop(ready)
        task = graph.task(name)
        if mapping:
            candidates = [mapping[name]]
        else:
            candidates = sorted(pes)
        best = None
        for pe_name in candidates:
            ready_t, charged = arrival(name, pe_name)
            begin = max(ready_t, pe_free[pe_name])
            duration = execution_time(task, pes[pe_name].processor)
            key = (begin + duration, begin, pe_name)
            if best is None or key < best[0]:
                best = (key, pe_name, begin, duration, charged)
        _key, pe_name, begin, duration, charged = best
        placed[name] = pe_name
        start[name] = begin
        finish[name] = begin + duration
        pe_free[pe_name] = begin + duration
        comm_total += charged
        for edge in graph.out_edges(name):
            pending[edge.dst] -= 1
            if pending[edge.dst] == 0:
                heapq.heappush(
                    ready, (-priority[edge.dst], order[edge.dst], edge.dst)
                )

    if len(finish) != len(graph):
        raise RuntimeError("scheduler did not place every task")
    return MultiprocSchedule(
        allocation=allocation,
        mapping=placed,
        start=start,
        finish=finish,
        comm_ns=comm_total,
    )
