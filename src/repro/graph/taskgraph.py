"""Coarse-grain task graphs.

A :class:`TaskGraph` is a directed acyclic graph of :class:`Task` nodes
connected by data-transfer edges.  It is the input representation for
hardware/software partitioning (Section 3.3 of the paper) and for
heterogeneous multiprocessor co-synthesis (Section 4.2).

Each task carries the per-implementation characterizations that the
paper's Section 3.3 partitioning factors need:

* ``sw_time`` — execution time on the reference instruction-set processor
  (the *software* implementation).
* ``hw_time`` — execution time of a dedicated hardware implementation.
* ``hw_area`` — area cost of that dedicated hardware implementation.
* ``sw_size`` — code size of the software implementation.
* ``parallelism`` — inherent data parallelism (the "nature of computation"
  factor: computations that benefit from a high degree of parallelism are
  better suited to hardware).
* ``modifiability`` — likelihood the function will change after design
  freeze (the "modifiability" factor: favours software).
* ``wcet`` — optional per-processor-type execution times used by the
  multiprocessor synthesizers, keyed by processor-type name.

Edges carry ``volume``: the number of data words transferred, from which
the communication estimators derive transfer and synchronization costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import _domain


@dataclass
class Task:
    """A schedulable unit of system functionality.

    ``sw_time`` and ``hw_time`` must be finite and positive, ``hw_area``
    and ``sw_size`` finite and non-negative, ``parallelism`` finite and at
    least 1, ``period`` and ``deadline`` None or finite and positive, and
    every ``wcet`` value finite and positive.  ``hw_time`` defaults to
    ``sw_time / 4``
    (dedicated hardware is typically several times faster than software for
    the DSP-style workloads of the era) when not given explicitly.
    """

    name: str
    sw_time: float = 1.0
    hw_time: Optional[float] = None
    hw_area: float = 10.0
    sw_size: float = 10.0
    parallelism: float = 1.0
    modifiability: float = 0.0
    period: Optional[float] = None
    deadline: Optional[float] = None
    wcet: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        task = f"task {self.name!r}: "
        real = _domain.real
        real(task + "sw_time", self.sw_time, above=0)
        if self.hw_time is None:
            self.hw_time = self.sw_time / 4.0
        real(task + "hw_time", self.hw_time, above=0)
        real(task + "hw_area", self.hw_area, least=0)
        real(task + "sw_size", self.sw_size, least=0)
        real(task + "modifiability", self.modifiability, least=0, most=1)
        real(task + "parallelism", self.parallelism, least=1)
        real(task + "period", self.period, above=0, optional=True)
        real(task + "deadline", self.deadline, above=0, optional=True)
        for processor, value in self.wcet.items():
            real(f"{task}wcet[{processor!r}]", value, above=0)

    def time_on(self, processor_type: str) -> float:
        """Execution time on a named processor type.

        Falls back to ``sw_time`` when the task has no entry for the type.
        """
        return self.wcet.get(processor_type, self.sw_time)

    @property
    def speedup(self) -> float:
        """Hardware speedup factor relative to the software implementation."""
        return self.sw_time / self.hw_time


@dataclass(frozen=True)
class Edge:
    """A directed data-transfer dependency between two tasks."""

    src: str
    dst: str
    volume: float = 1.0

    def __post_init__(self) -> None:
        _domain.real(f"edge {self.src}->{self.dst}: volume", self.volume,
                     least=0)


class CycleError(ValueError):
    """Raised when a graph that must be acyclic contains a cycle."""


class TaskGraph:
    """A directed acyclic graph of tasks with weighted data edges.

    The class maintains adjacency in both directions so that scheduling and
    partitioning algorithms get O(1) access to predecessors and successors.
    Insertion order of tasks is preserved and used as the tie-break order
    everywhere, which keeps every algorithm in the framework deterministic.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._succ: Dict[str, Dict[str, Edge]] = {}
        self._pred: Dict[str, Dict[str, Edge]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Add a task node.  Task names must be unique within the graph."""
        if task.name in self._tasks:
            raise ValueError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = {}
        self._pred[task.name] = {}
        return task

    def add_edge(self, src: str, dst: str, volume: float = 1.0) -> Edge:
        """Add a data edge from ``src`` to ``dst`` carrying ``volume`` words."""
        if src not in self._tasks:
            raise KeyError(f"unknown source task {src!r}")
        if dst not in self._tasks:
            raise KeyError(f"unknown destination task {dst!r}")
        if src == dst:
            raise ValueError(f"self edge on task {src!r}")
        if dst in self._succ[src]:
            raise ValueError(f"duplicate edge {src!r}->{dst!r}")
        edge = Edge(src, dst, volume)
        self._succ[src][dst] = edge
        self._pred[dst][src] = edge
        return edge

    def remove_task(self, name: str) -> None:
        """Remove a task and all edges incident to it."""
        if name not in self._tasks:
            raise KeyError(f"unknown task {name!r}")
        for other in list(self._succ[name]):
            del self._pred[other][name]
        for other in list(self._pred[name]):
            del self._succ[other][name]
        del self._succ[name]
        del self._pred[name]
        del self._tasks[name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        return self._tasks[name]

    @property
    def tasks(self) -> List[Task]:
        """All tasks in insertion order."""
        return list(self._tasks.values())

    @property
    def task_names(self) -> List[str]:
        """All task names in insertion order."""
        return list(self._tasks)

    @property
    def edges(self) -> List[Edge]:
        """All edges, grouped by source task in insertion order."""
        return [e for succs in self._succ.values() for e in succs.values()]

    def successors(self, name: str) -> List[str]:
        """Names of the direct successors of ``name``."""
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        """Names of the direct predecessors of ``name``."""
        return list(self._pred[name])

    def edge(self, src: str, dst: str) -> Edge:
        """The edge from ``src`` to ``dst``; raises ``KeyError`` if absent."""
        return self._succ[src][dst]

    def has_edge(self, src: str, dst: str) -> bool:
        """Whether an edge ``src``->``dst`` exists."""
        return src in self._succ and dst in self._succ[src]

    def set_edge_volume(self, src: str, dst: str, volume: float) -> Edge:
        """Replace the volume of an existing edge (edges are immutable)."""
        if not self.has_edge(src, dst):
            raise KeyError(f"no edge {src!r}->{dst!r}")
        edge = Edge(src, dst, volume)
        self._succ[src][dst] = edge
        self._pred[dst][src] = edge
        return edge

    def out_edges(self, name: str) -> List[Edge]:
        """Edges leaving ``name``."""
        return list(self._succ[name].values())

    def in_edges(self, name: str) -> List[Edge]:
        """Edges entering ``name``."""
        return list(self._pred[name].values())

    def sources(self) -> List[str]:
        """Tasks with no predecessors."""
        return [n for n in self._tasks if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Tasks with no successors."""
        return [n for n in self._tasks if not self._succ[n]]

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Task names in topological order (Kahn's algorithm).

        Raises :class:`CycleError` if the graph contains a cycle.  Ties are
        broken by insertion order, so the result is deterministic.
        """
        indeg = {n: len(self._pred[n]) for n in self._tasks}
        ready = [n for n in self._tasks if indeg[n] == 0]
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            raise CycleError(f"task graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants (acyclicity)."""
        self.topological_order()

    def critical_path(self, mode: str = "sw") -> Tuple[float, List[str]]:
        """Length and node list of the longest path through the graph.

        ``mode`` selects the node weight: ``"sw"`` uses ``sw_time``,
        ``"hw"`` uses ``hw_time``, ``"min"`` uses the faster of the two.
        Edge volumes are not included; communication-aware length is the
        job of :mod:`repro.partition.evaluate`.
        """
        weight = self._weight_fn(mode)
        finish: Dict[str, float] = {}
        choice: Dict[str, Optional[str]] = {}
        for node in self.topological_order():
            best_pred, best = None, 0.0
            for pred in self._pred[node]:
                if finish[pred] > best:
                    best, best_pred = finish[pred], pred
            finish[node] = best + weight(self._tasks[node])
            choice[node] = best_pred
        if not finish:
            return 0.0, []
        end = max(finish, key=lambda n: (finish[n], n))
        path: List[str] = []
        cur: Optional[str] = end
        while cur is not None:
            path.append(cur)
            cur = choice[cur]
        path.reverse()
        return finish[end], path

    def total_time(self, mode: str = "sw") -> float:
        """Sum of task execution times (a serial, zero-concurrency bound)."""
        weight = self._weight_fn(mode)
        return sum(weight(t) for t in self._tasks.values())

    def total_area(self) -> float:
        """Sum of per-task dedicated hardware areas (no sharing)."""
        return sum(t.hw_area for t in self._tasks.values())

    def levels(self) -> Dict[str, int]:
        """ASAP level (longest hop count from any source) of each task."""
        level: Dict[str, int] = {}
        for node in self.topological_order():
            preds = self._pred[node]
            level[node] = 1 + max((level[p] for p in preds), default=-1)
        return level

    def width(self) -> int:
        """Maximum number of tasks on any single level — a crude measure of
        the graph's available concurrency."""
        counts: Dict[int, int] = {}
        for lvl in self.levels().values():
            counts[lvl] = counts.get(lvl, 0) + 1
        return max(counts.values(), default=0)

    def descendants(self, name: str) -> List[str]:
        """All tasks reachable from ``name`` (not including ``name``)."""
        seen: List[str] = []
        stack = list(self._succ[name])
        visited = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            seen.append(node)
            stack.extend(self._succ[node])
        return seen

    def ancestors(self, name: str) -> List[str]:
        """All tasks from which ``name`` is reachable."""
        seen: List[str] = []
        stack = list(self._pred[name])
        visited = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            seen.append(node)
            stack.extend(self._pred[node])
        return seen

    def cut_volume(self, group: Iterable[str]) -> float:
        """Total edge volume crossing the boundary of ``group``.

        This is the quantity the "communication" partitioning factor
        penalizes: data that must cross the hardware/software boundary.
        """
        inside = set(group)
        total = 0.0
        for edge in self.edges:
            if (edge.src in inside) != (edge.dst in inside):
                total += edge.volume
        return total

    # ------------------------------------------------------------------
    # conversion / copying
    # ------------------------------------------------------------------
    def copy(self) -> "TaskGraph":
        """A deep-enough copy: fresh Task objects, fresh adjacency."""
        clone = TaskGraph(self.name)
        for t in self._tasks.values():
            clone.add_task(
                Task(
                    name=t.name,
                    sw_time=t.sw_time,
                    hw_time=t.hw_time,
                    hw_area=t.hw_area,
                    sw_size=t.sw_size,
                    parallelism=t.parallelism,
                    modifiability=t.modifiability,
                    period=t.period,
                    deadline=t.deadline,
                    wcet=dict(t.wcet),
                )
            )
        for edge in self.edges:
            clone.add_edge(edge.src, edge.dst, edge.volume)
        return clone

    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` for interoperability/plotting."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for t in self._tasks.values():
            g.add_node(t.name, task=t)
        for e in self.edges:
            g.add_edge(e.src, e.dst, volume=e.volume)
        return g

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, "
            f"edges={len(self.edges)})"
        )

    @staticmethod
    def _weight_fn(mode: str):
        if mode == "sw":
            return lambda t: t.sw_time
        if mode == "hw":
            return lambda t: t.hw_time
        if mode == "min":
            return lambda t: min(t.sw_time, t.hw_time)
        raise ValueError(f"unknown weight mode {mode!r}")
