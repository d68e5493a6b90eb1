"""Partition evaluation by actual scheduling.

A partition's latency is *not* the sum of its task times: software
serializes on the processor, hardware tasks overlap each other (up to
the co-processor's thread count) and overlap software, and every
boundary-crossing edge pays the communication model.  Evaluating with a
real list schedule is what gives the paper's "concurrency" and
"communication" factors teeth (experiments E9, E11).

A partitioner costs thousands of candidate moves against one problem,
so the work is split the way reference [18] splits area estimation
(:mod:`repro.estimate.incremental`): :class:`CompiledProblem` derives
once everything the problem fixes, and each move pays only for the
schedule and the terms that depend on the partition.  Like [18]'s
shared-area memo, the view also remembers the costs it computed
recently, because a heuristic proposes the same partition again and
again (a cooled annealer keeps flipping the same few tasks).  The
module-level functions build a view and call it once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.cosim.trace import COMM, TASK, Tracer
from repro.estimate.incremental import (
    entry_key,
    requirements_from_task,
    shared_area,
)
from repro.graph.algorithms import b_levels
from repro.hls.library import default_library
from repro.partition.problem import PartitionProblem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partition.cost import CostWeights

#: Penalty multiplier applied to constraint violations (deadline, area).
VIOLATION_PENALTY = 10.0


@dataclass(frozen=True)
class Evaluation:
    """Measured properties of one partition."""

    latency_ns: float
    hw_area: float
    sw_size: float
    comm_ns: float
    cpu_busy_ns: float
    hw_busy_ns: float
    deadline_met: bool
    start_times: Dict[str, float] = field(default_factory=dict, hash=False,
                                          compare=False)

    @property
    def overlap_fraction(self) -> float:
        """How much of the makespan both domains were busy — the realized
        hardware/software concurrency."""
        if self.latency_ns <= 0:
            return 0.0
        return min(self.cpu_busy_ns, self.hw_busy_ns) / self.latency_ns


class CompiledProblem:
    """A :class:`PartitionProblem` compiled for many partition evaluations.

    Holds what no move can change: the list scheduler's pop order, each
    task's times and structural cost contributions, its area input, and
    each out-edge's boundary transfer time.  The order is exact for
    every partition: a task's ready-heap key ``(-b_level, insertion
    index, name)`` and its predecessor count are fixed by the graph, so
    the heap pops the same topological order whatever ``hw`` is, and
    only begin and end times depend on it.  :meth:`evaluate` is one
    pass over that order.

    Build one per heuristic call and let it go: task graphs and tasks
    are mutable, so a view kept beyond the call could go stale.  The
    problem's bounds (``deadline_ns``, ``hw_area_budget``,
    ``hw_parallelism``, ``use_sharing``) are read once, here.

    :meth:`cost` keeps a FIFO memo of its last ``4 * len(tasks)``
    results, keyed by the hardware set and the weights, so a partition
    a heuristic proposes again costs one dict lookup instead of a
    schedule.  A hit returns the very objects of the first call, so
    callers must not mutate a breakdown or ``start_times`` (none does).
    A call that passes its own ``evaluation`` bypasses the memo, and
    :meth:`evaluate` keeps none, so a traced schedule always runs.

    Floats are summed in a fixed order so records are byte-identical
    whatever the caller's set order: schedule totals in pop order,
    ``sw_size`` and ``nature`` in task insertion order, modifiability
    and the no-sharing area over the sorted hardware set, and the
    sharing estimate keyed by the sorted area inputs.  Each order is
    presorted here and filtered by membership per call.
    """

    def __init__(self, problem: PartitionProblem) -> None:
        graph = problem.graph
        names = graph.task_names
        self.problem = problem
        self._deadline = problem.deadline_ns
        self._budget = problem.hw_area_budget
        self._parallelism = problem.hw_parallelism
        self._sharing = problem.use_sharing
        self._names = frozenset(names)
        #: (hw, weights) -> (weights, (cost, breakdown, evaluation)),
        #: oldest first; see :meth:`cost`
        self._memo: Dict[tuple, tuple] = {}
        self._memo_cap = 4 * len(names)
        # the ready heap, run once (b_levels raises CycleError on a
        # cycle, so the order reaches every task)
        level = b_levels(graph, weight=lambda t: min(t.sw_time, t.hw_time))
        key = {name: (-level[name], i, name) for i, name in enumerate(names)}
        pending = {name: len(graph.predecessors(name)) for name in names}
        ready = [key[name] for name in names if pending[name] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            order.append(heapq.heappop(ready)[2])
            for dst in graph.successors(order[-1]):
                pending[dst] -= 1
                if pending[dst] == 0:
                    heapq.heappush(ready, key[dst])
        self._order = order
        position = {name: i for i, name in enumerate(order)}
        transfer = problem.comm.transfer_ns
        tasks = [graph.task(name) for name in names]
        self._schedule = [
            (task.name, task.sw_time, task.hw_time, tuple(
                (position[e.dst], transfer(e.volume), e.volume, e.dst)
                for e in graph.out_edges(task.name)
            ))
            for task in map(graph.task, order)
        ]
        self._sw_size = [(task.sw_size, position[task.name]) for task in tasks]
        self._modifiability = sorted(
            (task.name, task.modifiability) for task in tasks
        )
        # nature of computation, per side: serial computations gain
        # little in hardware, parallel ones are squandered in software
        # (a parallel task in hardware adds 0.0, which moves no bit)
        self._nature = [
            (task.name,
             task.sw_time * (2.0 - task.parallelism)
             if task.parallelism < 2.0 else 0.0,
             task.sw_time * max(0.0, task.parallelism - 2.0) / 2.0)
            for task in tasks
        ]
        if self._sharing:
            library = default_library()
            area = [
                (entry_key(
                    requirements_from_task(task, library),
                    registers=max(2, int(task.sw_size / 8)),
                    states=max(4, int(task.hw_time)),
                ), task.name)
                for task in tasks
            ]
        else:
            area = [(task.hw_area, task.name) for task in tasks]
        # in the order the estimate reads its inputs: sorted by entry
        # key under sharing, by task name without
        rank = 0 if self._sharing else 1
        self._area = sorted(area, key=lambda pair: pair[rank])

    def hardware_area(self, hw_tasks: Iterable[str]) -> float:
        """Area of the hardware partition, with or without sharing."""
        hw = frozenset(hw_tasks)
        if not hw <= self._names:
            raise KeyError(
                f"unknown tasks in partition: {sorted(hw - self._names)}"
            )
        if not hw:
            return 0.0
        inputs = [value for value, name in self._area if name in hw]
        return shared_area(tuple(inputs)) if self._sharing else sum(inputs)

    def evaluate(
        self, hw_tasks: Iterable[str], tracer: Optional[Tracer] = None
    ) -> Evaluation:
        """List-schedule the partitioned graph and measure it (see
        :func:`evaluate_partition`)."""
        hw = frozenset(hw_tasks)
        area = self.hardware_area(hw)  # raises on unknown tasks
        n_hw_units = (
            self._parallelism
            if self._parallelism is not None
            else max(1, len(hw))
        )
        multi = n_hw_units > 1
        cpu_free = 0.0
        hw_free = [0.0] * n_hw_units
        start: Dict[str, float] = {}
        latency = 0.0
        comm_total = 0.0
        cpu_busy = 0.0
        hw_busy = 0.0
        member = [name in hw for name in self._order]
        data_ready = [0.0] * len(member)

        for pos, (name, sw_time, hw_time, out_edges) in enumerate(
            self._schedule
        ):
            in_hw = member[pos]
            # begin = max(data ready, resource free), spelled out; the
            # lowest-index unit among equally free ones takes the task
            begin = data_ready[pos]
            if in_hw:
                duration = hw_time
                unit = hw_free.index(min(hw_free)) if multi else 0
                if hw_free[unit] > begin:
                    begin = hw_free[unit]
                hw_free[unit] = end = begin + duration
                hw_busy += duration
            else:
                duration = sw_time
                if cpu_free > begin:
                    begin = cpu_free
                cpu_free = end = begin + duration
                cpu_busy += duration
            start[name] = begin
            # max()'s own test; every end is > 0.0, so the first one
            # replaces the 0.0 that only an empty graph keeps
            if end > latency:
                latency = end
            if tracer is not None:
                side = "hw" if in_hw else "sw"
                tracer.emit(
                    TASK, name, time=begin, domain=side,
                    unit=(f"hw{unit}" if in_hw else "cpu"), duration=duration,
                )
                tracer.metrics.counter(f"partition.{side}.tasks").inc()
                tracer.metrics.histogram(
                    f"partition.{side}.exec_ns"
                ).observe(duration)
            for dst, delay, volume, dst_name in out_edges:
                if member[dst] != in_hw:
                    comm_total += delay
                    if tracer is not None:
                        tracer.emit(
                            COMM, f"{name}->{dst_name}", time=end,
                            volume=volume, delay=delay,
                        )
                        tracer.metrics.histogram(
                            "partition.comm_ns"
                        ).observe(delay)
                    arrival = end + delay
                else:
                    arrival = end
                if arrival > data_ready[dst]:
                    data_ready[dst] = arrival

        return Evaluation(
            latency_ns=latency,
            hw_area=area,
            sw_size=sum([size for size, pos in self._sw_size
                         if not member[pos]]),
            comm_ns=comm_total,
            cpu_busy_ns=cpu_busy,
            hw_busy_ns=hw_busy,
            deadline_met=(
                self._deadline is None or latency <= self._deadline
            ),
            start_times=start,
        )

    def cost_terms(
        self, evaluation: Evaluation, hw_tasks: Iterable[str]
    ) -> Dict[str, float]:
        """The raw (unweighted) value of each factor term (see
        :func:`repro.partition.cost.cost_terms`)."""
        hw = frozenset(hw_tasks)
        deadline = self._deadline
        budget = self._budget

        # 1. performance: latency, heavily penalized beyond the deadline
        latency = evaluation.latency_ns
        performance = latency
        if deadline is not None and latency > deadline:
            performance += VIOLATION_PENALTY * (latency - deadline)

        # 2. implementation cost: area, heavily penalized beyond the budget
        area_term = evaluation.hw_area
        if budget is not None and evaluation.hw_area > budget:
            area_term += VIOLATION_PENALTY * (evaluation.hw_area - budget)

        # 3. modifiability: likely-to-change functionality frozen in
        # silicon (summed in sorted order: float addition is
        # non-associative, and set iteration order varies with
        # PYTHONHASHSEED — a hash-order sum would differ by an ULP between
        # interpreters, breaking the byte-identical-resume guarantee of
        # the campaign store)
        modifiability = sum([m for name, m in self._modifiability
                             if name in hw])

        # 4. nature of computation: medium mismatch
        nature = 0.0
        for name, on_hw, on_sw in self._nature:
            nature += on_hw if name in hw else on_sw

        return {
            "performance": performance,
            "implementation_cost": area_term,
            "modifiability": modifiability,
            "nature": nature,
            # 5. concurrency: reward realized overlap (negative term)
            "concurrency": -evaluation.overlap_fraction * latency,
            # 6. communication: boundary-crossing time
            "communication": evaluation.comm_ns,
        }

    def cost(
        self,
        hw_tasks: Iterable[str],
        weights: "CostWeights",
        evaluation: Optional[Evaluation] = None,
    ) -> Tuple[float, Dict[str, float], Evaluation]:
        """``(cost, breakdown, evaluation)`` of a partition (see
        :func:`repro.partition.cost.partition_cost`).

        Without ``evaluation``, served from the memo when this view
        already costed ``hw_tasks`` under this very ``weights`` object.
        Equal weights are not enough: ``0.0`` and ``-0.0``, or ``1`` and
        ``1.0``, compare equal but give breakdowns that print
        differently.
        """
        hw = frozenset(hw_tasks)
        if evaluation is not None:
            return self._cost(hw, weights, evaluation)
        memo = self._memo
        key = (hw, weights)
        hit = memo.get(key)
        if hit is not None and hit[0] is weights:
            return hit[1]
        result = self._cost(hw, weights, self.evaluate(hw))
        if hit is None and len(memo) >= self._memo_cap:
            del memo[next(iter(memo))]
        memo[key] = (weights, result)
        return result

    def _cost(
        self, hw: frozenset, weights: "CostWeights", evaluation: Evaluation
    ) -> Tuple[float, Dict[str, float], Evaluation]:
        raw = self.cost_terms(evaluation, hw)
        breakdown = {
            name: getattr(weights, name) * value
            for name, value in raw.items()
        }
        return sum(breakdown.values()), breakdown, evaluation


def hardware_area(
    problem: PartitionProblem, hw_tasks: Iterable[str]
) -> float:
    """Area of the hardware partition, with or without sharing."""
    return CompiledProblem(problem).hardware_area(hw_tasks)


def evaluate_partition(
    problem: PartitionProblem,
    hw_tasks: Iterable[str],
    tracer: Optional[Tracer] = None,
) -> Evaluation:
    """List-schedule the partitioned graph and measure it.

    Resources: one CPU (software tasks serialize) and
    ``problem.hw_parallelism`` hardware controllers (None = one per
    task).  A task becomes ready when every predecessor has finished
    *and* its data has crossed the boundary if needed; boundary edges pay
    ``problem.comm.transfer_ns(volume)``.

    Pass a :class:`repro.cosim.trace.Tracer` to capture the schedule as
    a trace: one ``task`` record per execution span (with its domain and
    unit) and one ``comm`` record per boundary crossing, timestamped on
    the analytic timeline.
    """
    return CompiledProblem(problem).evaluate(hw_tasks, tracer)
