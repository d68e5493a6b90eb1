"""Multi-rate periodic task synthesis (the SOS problem form, [12]).

Prakash & Parker's SOS synthesized architectures for *periodic* task
sets: each task recurs at its own rate, and a processing element is
feasible when the work assigned to it fits within its time — the
utilization bound.  This module extends the one-shot synthesizers to
that form:

* each task must carry a ``period`` (its deadline defaults to it);
* a PE's capacity constraint becomes Σ execution/period ≤ ``u_bound``
  (1.0 = the exact bound for independent preemptive EDF scheduling;
  lower values leave headroom for precedence and blocking);
* validation runs the real list scheduler over one *hyperperiod*: every
  task is instantiated once per period it fits in the hyperperiod
  (``task@k`` jobs), precedence edges connect same-iteration jobs, and
  the schedule must finish within the hyperperiod with each job inside
  its own period window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro import _domain
from repro.estimate.communication import CommModel, DEFAULT
from repro.estimate.software import Processor, default_processor_library
from repro.graph.taskgraph import Task, TaskGraph
from repro.cosynth.multiproc.library import (
    Allocation,
    PeInstance,
    execution_time,
)
from repro.cosynth.multiproc.scheduler import MultiprocSchedule, schedule_on


class PeriodicSpecError(ValueError):
    """Raised when the task set is not a valid periodic specification."""


def hyperperiod(graph: TaskGraph) -> float:
    """LCM of all task periods (computed exactly over rationals)."""
    periods = []
    for task in graph:
        _domain.real(f"task {task.name!r}: period", task.period, above=0,
                     error=PeriodicSpecError)
        periods.append(Fraction(task.period).limit_denominator(10**6))
    result = periods[0]
    for p in periods[1:]:
        result = _lcm_fraction(result, p)
    return float(result)


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    num = a.numerator * b.numerator // math.gcd(a.numerator, b.numerator)
    den = math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def utilization(task: Task, processor: Processor) -> float:
    """Fraction of one PE this task consumes at its rate."""
    _domain.real(f"task {task.name!r}: period", task.period, above=0,
                 error=PeriodicSpecError)
    return execution_time(task, processor) / task.period


def unroll_hyperperiod(graph: TaskGraph) -> Tuple[TaskGraph, float]:
    """One job per task release inside the hyperperiod.

    Jobs are named ``task@k``; precedence edges connect jobs of the same
    iteration index *scaled to rates* (an edge a->b with periods Pa, Pb
    links ``a@i`` to ``b@j`` when their windows overlap — the standard
    conservative single-rate-per-edge unrolling).  Each job's deadline
    is the end of its release window.
    """
    H = hyperperiod(graph)
    out = TaskGraph(f"{graph.name}@H")
    jobs: Dict[str, List[str]] = {}
    for task in graph:
        count = int(round(H / task.period))
        names = []
        for k in range(count):
            job = Task(
                name=f"{task.name}@{k}",
                sw_time=task.sw_time,
                hw_time=task.hw_time,
                hw_area=task.hw_area,
                sw_size=task.sw_size,
                parallelism=task.parallelism,
                modifiability=task.modifiability,
                period=task.period,
                deadline=(k + 1) * task.period,
                wcet=dict(task.wcet),
            )
            out.add_task(job)
            names.append(job.name)
        jobs[task.name] = names
        # serialize successive jobs of one task (state dependence)
        for a, b in zip(names, names[1:]):
            out.add_edge(a, b, 0.0)
    for edge in graph.edges:
        src_jobs, dst_jobs = jobs[edge.src], jobs[edge.dst]
        for i, src in enumerate(src_jobs):
            # deliver to the destination job whose window contains the
            # producer's release
            t_release = i * graph.task(edge.src).period
            j = min(
                int(t_release / graph.task(edge.dst).period),
                len(dst_jobs) - 1,
            )
            if not out.has_edge(src, dst_jobs[j]):
                out.add_edge(src, dst_jobs[j], edge.volume)
    out.validate()
    return out, H


@dataclass
class PeriodicResult:
    """Outcome of periodic synthesis."""

    allocation: Allocation
    schedule: MultiprocSchedule
    hyperperiod_ns: float
    utilizations: Dict[str, float]
    algorithm: str = "periodic-ffd"

    @property
    def cost(self) -> float:
        return self.allocation.cost

    @property
    def feasible(self) -> bool:
        """Hyperperiod schedule completes within the hyperperiod and no
        PE exceeds its utilization bound."""
        return (
            self.schedule.makespan <= self.hyperperiod_ns + 1e-9
            and all(u <= 1.0 + 1e-9 for u in self.utilizations.values())
        )

    def summary(self) -> str:
        u_max = max(self.utilizations.values(), default=0.0)
        return (
            f"{self.algorithm}: {self.allocation!r}, "
            f"hyperperiod {self.hyperperiod_ns:.0f} ns, "
            f"makespan {self.schedule.makespan:.0f} ns, "
            f"peak utilization {u_max:.2f}"
        )


def periodic_synthesis(
    graph: TaskGraph,
    library: Optional[Dict[str, Processor]] = None,
    comm: CommModel = DEFAULT,
    u_bound: float = 0.9,
) -> Optional[PeriodicResult]:
    """Minimum-cost allocation for a multi-rate periodic task set.

    First-fit decreasing over *utilization* (the bin dimension that
    matters for periodic work), cheapest feasible type per new bin;
    validated by list-scheduling the hyperperiod unrolling on the chosen
    allocation.  Returns None when no allocation passes validation.
    ``u_bound`` must be in (0, 1].
    """
    library = library or default_processor_library()
    _domain.real("u_bound", u_bound, above=0, most=1,
                 error=PeriodicSpecError)
    order = sorted(
        graph.task_names,
        key=lambda n: (-graph.task(n).sw_time / graph.task(n).period
                       if graph.task(n).period else 0.0, n),
    )
    types_by_cost = sorted(library.values(), key=lambda p: (p.cost, p.name))

    for bound in (u_bound, u_bound * 0.75, u_bound * 0.5):
        packed = _pack_by_utilization(
            graph, order, types_by_cost, bound
        )
        if packed is None:
            continue
        allocation, mapping, utils = packed
        unrolled, H = unroll_hyperperiod(graph)
        job_mapping = {
            job: mapping[job.split("@")[0]] for job in unrolled.task_names
        }
        schedule = schedule_on(unrolled, allocation, comm,
                               mapping=job_mapping)
        result = PeriodicResult(
            allocation=allocation,
            schedule=schedule,
            hyperperiod_ns=H,
            utilizations=utils,
        )
        if result.feasible:
            return result
    return None


def _pack_by_utilization(
    graph: TaskGraph,
    order: List[str],
    types_by_cost: List[Processor],
    u_bound: float,
):
    bins: List[Tuple[PeInstance, float]] = []  # (pe, remaining util)
    counters: Dict[str, int] = {}
    mapping: Dict[str, str] = {}
    for name in order:
        task = graph.task(name)
        placed = False
        for i, (pe, left) in enumerate(bins):
            need = utilization(task, pe.processor)
            if need <= left:
                bins[i] = (pe, left - need)
                mapping[name] = pe.name
                placed = True
                break
        if placed:
            continue
        for proc in types_by_cost:
            need = utilization(task, proc)
            if need <= u_bound:
                idx = counters.get(proc.name, 0)
                counters[proc.name] = idx + 1
                pe = PeInstance(f"{proc.name}#{idx}", proc)
                bins.append((pe, u_bound - need))
                mapping[name] = pe.name
                placed = True
                break
        if not placed:
            return None
    allocation = Allocation([pe for pe, _left in bins])
    utils = {
        pe.name: u_bound - left for pe, left in bins
    }
    return allocation, mapping, utils
