"""The end-to-end co-design flow driver.

``CodesignFlow`` ties the library together the way Figure 2 nests the
activities: specification → partitioning (within co-synthesis) →
co-simulation of the partitioned system for validation.

The co-simulation stage is genuinely independent of the partition
evaluator: the partitioned task graph is rebuilt as communicating
simulation processes — software tasks contend for the processor,
hardware tasks for the co-processor's controllers, and every
boundary-crossing edge becomes a message channel with the send/
receive/wait semantics of [3].  The flow reports both the analytic
latency (list-schedule evaluation) and the simulated latency, and their
agreement — the cross-check a real methodology would run before
committing to silicon.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, Optional

from repro.cosim.kernel import Event, Simulator
from repro.cosim.msglevel import Channel
from repro.estimate.communication import CommModel, TIGHT
from repro.graph.taskgraph import TaskGraph
from repro.partition.annealing import simulated_annealing
from repro.partition.cosyma import cosyma_partition
from repro.partition.cost import CostWeights
from repro.partition.gclp import gclp_partition
from repro.partition.greedy import greedy_partition
from repro.partition.kl import kernighan_lin
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.vulcan import vulcan_partition

ALGORITHMS: Dict[str, Callable[..., PartitionResult]] = {
    "greedy": greedy_partition,
    "kl": kernighan_lin,
    "vulcan": vulcan_partition,
    "cosyma": cosyma_partition,
    "gclp": gclp_partition,
    "annealing": lambda p, weights: simulated_annealing(
        p, weights=weights, rng=random.Random(0)
    ),
}


class _Pool:
    """A counting resource with FIFO handoff (CPU or controller pool)."""

    def __init__(self, sim: Simulator, size: int, name: str) -> None:
        self.sim = sim
        self.name = name
        self._free = size
        self._waiters: Deque[Event] = deque()

    def acquire(self):
        if self._free > 0:
            self._free -= 1
            return
        gate = Event(self.sim, f"{self.name}.grant")
        self._waiters.append(gate)
        yield gate

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._free += 1


@dataclass
class SimulatedSystem:
    """What the validation co-simulation measured."""

    latency_ns: float
    messages: int
    activations: int
    finish_times: Dict[str, float]


@dataclass
class FlowReport:
    """The flow's combined output."""

    partition: PartitionResult
    simulated: SimulatedSystem

    @property
    def analytic_latency_ns(self) -> float:
        return self.partition.evaluation.latency_ns

    @property
    def simulated_latency_ns(self) -> float:
        return self.simulated.latency_ns

    @property
    def agreement(self) -> float:
        """Analytic/simulated latency ratio (1.0 = perfect agreement)."""
        if self.simulated_latency_ns == 0:
            return 1.0
        return self.analytic_latency_ns / self.simulated_latency_ns

    def summary(self) -> str:
        return (
            f"{self.partition.summary()}\n"
            f"co-simulation: {self.simulated_latency_ns:.0f} ns "
            f"({self.simulated.messages} boundary messages, "
            f"agreement {self.agreement:.2f})"
        )


class CodesignFlow:
    """Configure once, :meth:`run` to get a validated partition."""

    def __init__(
        self,
        graph: TaskGraph,
        deadline_ns: Optional[float] = None,
        hw_area_budget: Optional[float] = None,
        comm: CommModel = TIGHT,
        hw_parallelism: Optional[int] = 1,
        algorithm: str = "kl",
        weights: CostWeights = CostWeights(),
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        self.problem = PartitionProblem(
            graph=graph,
            comm=comm,
            hw_area_budget=hw_area_budget,
            deadline_ns=deadline_ns,
            hw_parallelism=hw_parallelism,
        )
        self.algorithm = algorithm
        self.weights = weights

    def run(self) -> FlowReport:
        """Partition, then validate by message-level co-simulation."""
        partition = ALGORITHMS[self.algorithm](
            self.problem, weights=self.weights
        )
        simulated = simulate_partition(self.problem, partition.hw_tasks)
        return FlowReport(partition=partition, simulated=simulated)


def simulate_partition(
    problem: PartitionProblem,
    hw_tasks: FrozenSet[str],
) -> SimulatedSystem:
    """Run the partitioned system as communicating sim processes.

    Software tasks contend for the single CPU; hardware tasks for the
    co-processor's ``hw_parallelism`` controllers; boundary edges are
    message channels with the communication model's latency.
    """
    graph = problem.graph
    hw = set(hw_tasks)
    sim = Simulator()
    cpu = _Pool(sim, 1, "cpu")
    n_hw = (
        problem.hw_parallelism
        if problem.hw_parallelism is not None
        else max(1, len(hw))
    )
    coproc = _Pool(sim, n_hw, "coproc")

    done_events: Dict[str, Event] = {
        name: Event(sim, f"{name}.done") for name in graph.task_names
    }
    channels: Dict[tuple, Channel] = {}
    messages = {"count": 0}
    finish: Dict[str, float] = {}

    for edge in graph.edges:
        if (edge.src in hw) != (edge.dst in hw):
            channels[(edge.src, edge.dst)] = Channel(
                sim,
                name=f"{edge.src}->{edge.dst}",
                latency_per_message=problem.comm.sync_overhead_ns,
                latency_per_word=problem.comm.word_time_ns,
            )

    def task_proc(name: str):
        task = graph.task(name)
        in_hw = name in hw
        for edge in graph.in_edges(name):
            key = (edge.src, name)
            if key in channels:
                yield from channels[key].receive()
            else:
                yield done_events[edge.src]
        pool = coproc if in_hw else cpu
        yield from pool.acquire()
        yield sim.timeout(task.hw_time if in_hw else task.sw_time)
        pool.release()
        finish[name] = sim.now
        done_events[name].succeed()
        for edge in graph.out_edges(name):
            key = (name, edge.dst)
            if key in channels:
                messages["count"] += 1
                # deliver concurrently: each boundary edge pays its own
                # latency from the finish time, not queued behind its
                # siblings (matches the analytic model's per-edge delay)
                sim.process(
                    channels[key].send(sim.now, words=edge.volume),
                    name=f"{name}->{edge.dst}.msg",
                )

    for name in graph.task_names:
        sim.process(task_proc(name), name=name)
    sim.run()
    if len(finish) != len(graph):
        raise RuntimeError(
            "co-simulation deadlocked: "
            f"{sorted(set(graph.task_names) - set(finish))} never finished"
        )
    return SimulatedSystem(
        latency_ns=max(finish.values(), default=0.0),
        messages=messages["count"],
        activations=sim.activations,
        finish_times=finish,
    )
