"""Processes, channels, and the executable system specification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cosim.kernel import Simulator
from repro.cosim.msglevel import Channel
from repro.graph.taskgraph import Task, TaskGraph
from repro.spec.behavior import (
    Compute,
    Loop,
    Receive,
    Send,
    Statement,
    Wait,
)


class SpecError(ValueError):
    """Raised for malformed specifications."""


@dataclass
class ChannelSpec:
    """A typed point-to-point channel between two named processes."""

    name: str
    src: str
    dst: str
    capacity: Optional[int] = None  # None = unbounded, 0 = rendezvous


@dataclass
class ProcessSpec:
    """One process: a name and a behavior."""

    name: str
    body: List[Statement]

    def statements(self) -> List[Statement]:
        """The body with loops left folded (structural view)."""
        return list(self.body)

    def flat(self) -> List[Statement]:
        """The body with loops unrolled (execution view)."""
        out: List[Statement] = []

        def walk(stmts):
            for stmt in stmts:
                if isinstance(stmt, Loop):
                    for _ in range(stmt.count):
                        walk(stmt.body)
                else:
                    out.append(stmt)

        walk(self.body)
        return out

    def total_compute_ns(self) -> float:
        """Reference software time of all computation (loops unrolled)."""
        return sum(
            s.duration_ns for s in self.flat() if isinstance(s, Compute)
        )

    def sends_on(self, channel: str) -> Tuple[int, float]:
        """(message count, total words) this process sends on a channel."""
        count, words = 0, 0.0
        for stmt in self.flat():
            if isinstance(stmt, Send) and stmt.channel == channel:
                count += 1
                words += stmt.words
        return count, words


@dataclass
class ExecutionTrace:
    """What one execution of the specification did."""

    latency_ns: float
    finish_times: Dict[str, float]
    channel_messages: Dict[str, int]

    @property
    def total_messages(self) -> int:
        return sum(self.channel_messages.values())


class SystemSpec:
    """A complete specification: processes plus channels.

    Executable (for early functional validation) and refinable (to the
    task graph the partitioning/co-synthesis back ends consume).
    """

    def __init__(
        self,
        processes: List[ProcessSpec],
        channels: List[ChannelSpec],
        name: str = "system",
    ) -> None:
        self.name = name
        self.processes = {p.name: p for p in processes}
        if len(self.processes) != len(processes):
            raise SpecError("duplicate process names")
        self.channels = {c.name: c for c in channels}
        if len(self.channels) != len(channels):
            raise SpecError("duplicate channel names")
        for chan in channels:
            if chan.src not in self.processes:
                raise SpecError(f"channel {chan.name!r}: unknown src "
                                f"{chan.src!r}")
            if chan.dst not in self.processes:
                raise SpecError(f"channel {chan.name!r}: unknown dst "
                                f"{chan.dst!r}")
        self._validate_channel_usage()

    def _validate_channel_usage(self) -> None:
        for proc in self.processes.values():
            for stmt in proc.flat():
                if isinstance(stmt, (Send, Receive, Wait)):
                    chan = self.channels.get(stmt.channel)
                    if chan is None:
                        raise SpecError(
                            f"process {proc.name!r} uses unknown channel "
                            f"{stmt.channel!r}"
                        )
                    if isinstance(stmt, Send) and chan.src != proc.name:
                        raise SpecError(
                            f"process {proc.name!r} sends on {chan.name!r} "
                            f"but its source is {chan.src!r}"
                        )
                    if isinstance(stmt, (Receive, Wait)) and \
                            chan.dst != proc.name:
                        raise SpecError(
                            f"process {proc.name!r} receives on "
                            f"{chan.name!r} but its sink is {chan.dst!r}"
                        )

    # ------------------------------------------------------------------
    # executable specification
    # ------------------------------------------------------------------
    def execute(
        self,
        time_scale: float = 1.0,
        latency_per_message: float = 0.0,
        latency_per_word: float = 0.0,
        max_time: float = 1e12,
    ) -> ExecutionTrace:
        """Run the specification on the discrete-event kernel.

        Computation costs its reference duration × ``time_scale``;
        channels carry the given latency model.  Raises
        :class:`SpecError` on deadlock (a blocked receive whose sender
        never arrives), which is exactly the class of bug executable
        specifications exist to catch early.
        """
        sim = Simulator()
        channels = {
            name: Channel(
                sim, name,
                capacity=spec.capacity,
                latency_per_message=latency_per_message,
                latency_per_word=latency_per_word,
            )
            for name, spec in self.channels.items()
        }
        finish: Dict[str, float] = {}

        def run_proc(proc: ProcessSpec):
            for stmt in proc.flat():
                if isinstance(stmt, Compute):
                    yield sim.timeout(stmt.duration_ns * time_scale)
                elif isinstance(stmt, Send):
                    yield from channels[stmt.channel].send(
                        stmt.words, words=int(stmt.words) or 1
                    )
                elif isinstance(stmt, Receive):
                    yield from channels[stmt.channel].receive()
                elif isinstance(stmt, Wait):
                    yield from channels[stmt.channel].wait()
            finish[proc.name] = sim.now

        for proc in self.processes.values():
            sim.process(run_proc(proc), name=proc.name)
        sim.run(until=max_time)
        if len(finish) != len(self.processes):
            stuck = sorted(set(self.processes) - set(finish))
            raise SpecError(
                f"specification deadlocks: {stuck} never terminate"
            )
        return ExecutionTrace(
            latency_ns=max(finish.values(), default=0.0),
            finish_times=finish,
            channel_messages={
                name: chan.received for name, chan in channels.items()
            },
        )

    # ------------------------------------------------------------------
    # refinement to the partitioning representation
    # ------------------------------------------------------------------
    def to_task_graph(self) -> TaskGraph:
        """Refine to a task graph: one task per process, one edge per
        channel (volume = total words sent across the execution).

        Characterizations derive from the behavior annotations:
        duration-weighted hardware speedup and parallelism.
        """
        graph = TaskGraph(self.name)
        for proc in self.processes.values():
            computes = [
                s for s in proc.flat() if isinstance(s, Compute)
            ]
            total = sum(c.duration_ns for c in computes)
            if total <= 0:
                raise SpecError(
                    f"process {proc.name!r} has no computation; "
                    "refinement needs a non-trivial behavior"
                )
            speedup = sum(
                c.duration_ns * c.hw_speedup for c in computes
            ) / total
            parallelism = sum(
                c.duration_ns * c.parallelism for c in computes
            ) / total
            graph.add_task(Task(
                name=proc.name,
                sw_time=total,
                hw_time=total / speedup,
                hw_area=total * 4.0,
                sw_size=max(1.0, total / 2.0),
                parallelism=max(1.0, parallelism),
            ))
        for chan in self.channels.values():
            _count, words = self.processes[chan.src].sends_on(chan.name)
            if chan.src != chan.dst and words > 0 and \
                    not graph.has_edge(chan.src, chan.dst):
                graph.add_edge(chan.src, chan.dst, words)
        graph.validate()
        return graph
