"""Exact multiprocessor synthesis via 0/1 ILP (SOS style, [12]).

"In [12] the processing elements are chosen from a library of available
microprocessors, each characterized in terms of processing speed and
cost ... The optimization is done using integer linear programming,
which yields the optimum configuration and mapping."

Formulation (the classic utilization form):

* binary ``y[k,j]`` — instance ``j`` of processor type ``k`` is used;
* binary ``x[t,k,j]`` — task ``t`` runs on instance ``(k,j)``;
* each task assigned exactly once;
* per-instance capacity: assigned execution time ≤ ``capacity_factor``
  × deadline × ``y[k,j]`` (utilization feasibility — precedence is not
  in the ILP, as in the era's formulations);
* per-instance memory: assigned code size ≤ the type's memory;
* symmetry breaking ``y[k,j+1] <= y[k,j]``;
* minimize Σ cost.

Because the ILP reasons about utilization rather than the precedence-
constrained schedule, the returned mapping is *validated with the real
list scheduler*; if the actual makespan misses the deadline the
capacity factor is tightened and the ILP re-solved (cutting-plane-lite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.estimate.communication import CommModel, DEFAULT
from repro.estimate.software import Processor, default_processor_library
from repro.graph.taskgraph import TaskGraph
from repro.cosynth.multiproc.bb import ZeroOneProblem, solve_binary
from repro.cosynth.multiproc.library import (
    Allocation,
    PeInstance,
    execution_time,
)
from repro.cosynth.multiproc.scheduler import MultiprocSchedule, schedule_on


@dataclass
class SynthesisResult:
    """Outcome of one multiprocessor synthesis run."""

    allocation: Allocation
    schedule: MultiprocSchedule
    deadline: float
    algorithm: str
    evaluations: int = 0

    @property
    def cost(self) -> float:
        return self.allocation.cost

    @property
    def feasible(self) -> bool:
        return self.schedule.meets(self.deadline)

    def summary(self) -> str:
        status = "meets" if self.feasible else "MISSES"
        return (
            f"{self.algorithm}: {self.allocation!r}, "
            f"makespan {self.schedule.makespan:.0f} ns "
            f"{status} deadline {self.deadline:.0f}"
        )


def ilp_synthesis(
    graph: TaskGraph,
    deadline: float,
    library: Optional[Dict[str, Processor]] = None,
    comm: CommModel = DEFAULT,
    max_instances_per_type: int = 3,
    max_rounds: int = 6,
    capacity_shrink: float = 0.85,
) -> Optional[SynthesisResult]:
    """Solve for the minimum-cost allocation + mapping; None if
    infeasible within the instance bounds."""
    library = library or default_processor_library()
    tasks = graph.task_names
    types = sorted(library)

    # prune types that cannot run any task within the deadline at all
    capacity_factor = 1.0
    rounds = 0
    evaluations = 0
    while rounds < max_rounds:
        rounds += 1
        solved = _solve_once(
            graph, deadline * capacity_factor, library, types,
            max_instances_per_type,
        )
        if solved is None:
            return None
        allocation, mapping = solved
        schedule = schedule_on(graph, allocation, comm, mapping=mapping)
        evaluations += 1
        if schedule.meets(deadline):
            # let the scheduler refine the pinned mapping (it may only help)
            free = schedule_on(graph, allocation, comm)
            evaluations += 1
            best = free if free.makespan < schedule.makespan else schedule
            return SynthesisResult(
                allocation=allocation,
                schedule=best,
                deadline=deadline,
                algorithm="ilp",
                evaluations=evaluations,
            )
        capacity_factor *= capacity_shrink
    return None


def _solve_once(
    graph: TaskGraph,
    capacity: float,
    library: Dict[str, Processor],
    types: List[str],
    max_instances: int,
) -> Optional[Tuple[Allocation, Dict[str, str]]]:
    tasks = graph.task_names
    n_tasks = len(tasks)

    # instance slots per type
    slots: List[Tuple[str, int]] = []
    for k in types:
        proc = library[k]
        # a type is usable only if every task it might take fits; bound
        # instance count by the work it could possibly absorb
        upper = min(max_instances, n_tasks)
        for j in range(upper):
            slots.append((k, j))
    n_slots = len(slots)

    def xi(t: int, s: int) -> int:
        return t * n_slots + s

    def yi(s: int) -> int:
        return n_tasks * n_slots + s

    n_vars = n_tasks * n_slots + n_slots
    c = np.zeros(n_vars)
    for s, (k, _j) in enumerate(slots):
        c[yi(s)] = library[k].cost

    a_eq = np.zeros((n_tasks, n_vars))
    b_eq = np.ones(n_tasks)
    rows_ub: List[np.ndarray] = []
    rhs_ub: List[float] = []

    times = {
        (t, k): execution_time(graph.task(tasks[t]), library[k])
        for t in range(n_tasks) for k in types
    }
    sizes = [graph.task(name).sw_size for name in tasks]

    for t in range(n_tasks):
        for s, (k, _j) in enumerate(slots):
            if times[(t, k)] <= capacity:
                a_eq[t, xi(t, s)] = 1.0
            # else variable remains unusable: force x=0 via an upper bound
    # unusable assignments: x <= 0
    for t in range(n_tasks):
        for s, (k, _j) in enumerate(slots):
            if times[(t, k)] > capacity:
                row = np.zeros(n_vars)
                row[xi(t, s)] = 1.0
                rows_ub.append(row)
                rhs_ub.append(0.0)

    # capacity + memory per slot
    for s, (k, _j) in enumerate(slots):
        row_t = np.zeros(n_vars)
        row_m = np.zeros(n_vars)
        for t in range(n_tasks):
            row_t[xi(t, s)] = times[(t, k)]
            row_m[xi(t, s)] = sizes[t]
        row_t[yi(s)] = -capacity
        row_m[yi(s)] = -library[k].mem_words
        rows_ub.append(row_t)
        rhs_ub.append(0.0)
        rows_ub.append(row_m)
        rhs_ub.append(0.0)

    # symmetry breaking y[k,j+1] <= y[k,j]
    for s in range(n_slots - 1):
        k, j = slots[s]
        k2, j2 = slots[s + 1]
        if k == k2:
            row = np.zeros(n_vars)
            row[yi(s + 1)] = 1.0
            row[yi(s)] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)

    priority = np.zeros(n_vars)
    for s in range(n_slots):
        priority[yi(s)] = 10.0  # branch on instance-used flags first
    problem = ZeroOneProblem(
        c=c,
        a_ub=np.array(rows_ub),
        b_ub=np.array(rhs_ub),
        a_eq=a_eq,
        b_eq=b_eq,
        branch_priority=priority,
    )
    solution = solve_binary(problem)
    if solution is None:
        return None

    used: List[PeInstance] = []
    slot_to_pe: Dict[int, str] = {}
    for s, (k, j) in enumerate(slots):
        if solution.x[yi(s)] > 0.5:
            pe = PeInstance(f"{k}#{j}", library[k])
            used.append(pe)
            slot_to_pe[s] = pe.name
    mapping: Dict[str, str] = {}
    for t, name in enumerate(tasks):
        for s in range(n_slots):
            if solution.x[xi(t, s)] > 0.5:
                mapping[name] = slot_to_pe[s]
                break
        else:  # pragma: no cover - equality constraint guarantees this
            raise RuntimeError(f"task {name!r} unassigned")
    return Allocation(used), mapping
