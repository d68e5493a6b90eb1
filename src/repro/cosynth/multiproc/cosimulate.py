"""Co-simulation validation of multiprocessor synthesis results.

Figure 2 nests co-simulation around co-synthesis for a reason: a
synthesizer's claimed makespan rests on its scheduler's assumptions.
This module re-executes a :class:`MultiprocSchedule`'s *mapping* and
each processing element's planned task order (not its timetable) as
communicating simulation processes — each processing element is a
serial resource, each cross-PE edge a message with the communication
model's latency — and reports what actually happens.

Because the simulation re-derives task start times from message arrival
and PE release rather than trusting the schedule, any optimism in the
scheduler (lost arbitration detail, impossible overlap) shows up as
disagreement here.  The order is replayed because it is a decision of
the schedule, not an outcome: a PE granted first-come-first-served
would start whichever mapped task happens to be ready, possibly one the
schedule deliberately held back for a more critical task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cosim.kernel import Event, Resource, Simulator
from repro.cosim.msglevel import Channel
from repro.cosim.trace import TASK, Tracer
from repro.estimate.communication import CommModel, DEFAULT
from repro.graph.taskgraph import TaskGraph
from repro.cosynth.multiproc.library import execution_time
from repro.cosynth.multiproc.scheduler import MultiprocSchedule


@dataclass
class MultiprocSimulation:
    """What the validation co-simulation measured."""

    latency_ns: float
    messages: int
    finish_times: Dict[str, float]
    activations: int = 0
    pe_busy_ns: Dict[str, float] = field(default_factory=dict)

    def agreement(self, schedule: MultiprocSchedule) -> float:
        """Analytic/simulated makespan ratio (1.0 = perfect)."""
        if self.latency_ns == 0:
            return 1.0
        return schedule.makespan / self.latency_ns


def simulate_schedule(
    graph: TaskGraph,
    schedule: MultiprocSchedule,
    comm: CommModel = DEFAULT,
    tracer: Optional[Tracer] = None,
) -> MultiprocSimulation:
    """Re-execute the schedule's mapping under discrete-event rules.

    Pass a :class:`repro.cosim.trace.Tracer` to get the full execution
    profile of the validation run: per-task spans (``task`` records),
    channel messages, per-PE grant queues, and per-process metrics.
    """
    sim = Simulator(tracer=tracer)
    pes = {pe.name: pe for pe in schedule.allocation.instances}

    # each PE is a serial FIFO-handoff resource from the kernel, so PE
    # contention shows up in the trace and metrics like any bus grant
    units = {name: Resource(sim, name) for name in pes}
    done = {name: Event(sim, f"{name}.done") for name in graph.task_names}
    channels: Dict[tuple, Channel] = {}
    counters = {"messages": 0}
    finish: Dict[str, float] = {}

    for edge in graph.edges:
        if schedule.mapping[edge.src] != schedule.mapping[edge.dst]:
            channels[(edge.src, edge.dst)] = Channel(
                sim, f"{edge.src}->{edge.dst}",
                latency_per_message=comm.sync_overhead_ns,
                latency_per_word=comm.word_time_ns,
            )

    busy: Dict[str, float] = {name: 0.0 for name in pes}

    # the task planned just before each task on its PE
    order = {name: i for i, name in enumerate(graph.task_names)}
    previous: Dict[str, str] = {}
    last: Dict[str, str] = {}
    for name in sorted(graph.task_names,
                       key=lambda n: (schedule.start[n], order[n])):
        pe_name = schedule.mapping[name]
        if pe_name in last:
            previous[name] = last[pe_name]
        last[pe_name] = name

    def task_proc(name: str):
        for edge in graph.in_edges(name):
            key = (edge.src, name)
            if key in channels:
                yield from channels[key].receive()
            else:
                yield done[edge.src]
        if name in previous:
            yield done[previous[name]]
        pe_name = schedule.mapping[name]
        unit = units[pe_name]
        yield from unit.acquire()
        started = sim.now
        yield sim.timeout(
            execution_time(graph.task(name), pes[pe_name].processor)
        )
        unit.release()
        busy[pe_name] += sim.now - started
        if tracer is not None:
            tracer.emit(
                TASK, name, time=started, pe=pe_name,
                duration=sim.now - started,
            )
        finish[name] = sim.now
        done[name].succeed()
        for edge in graph.out_edges(name):
            key = (name, edge.dst)
            if key in channels:
                counters["messages"] += 1
                # deliver concurrently: each cross-PE edge pays its own
                # latency from the finish time, not queued behind its
                # siblings (matches the scheduler's per-edge delay)
                sim.process(
                    channels[key].send(sim.now, words=edge.volume),
                    name=f"{name}->{edge.dst}.msg",
                )

    for name in graph.task_names:
        sim.process(task_proc(name), name=name)
    sim.run()
    if len(finish) != len(graph):
        raise RuntimeError(
            "multiprocessor co-simulation deadlocked: "
            f"{sorted(set(graph.task_names) - set(finish))}"
        )
    return MultiprocSimulation(
        latency_ns=max(finish.values(), default=0.0),
        messages=counters["messages"],
        finish_times=finish,
        activations=sim.activations,
        pe_busy_ns=busy,
    )
