"""Graph algorithms shared by schedulers, partitioners, and synthesizers.

These operate on :class:`repro.graph.taskgraph.TaskGraph` objects and
compute the standard scheduling quantities of the co-synthesis literature:
*t-level* (earliest start), *b-level* (longest path to a sink, inclusive),
priority lists, and communication-aware clusterings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import _domain
from repro.graph.taskgraph import Task, TaskGraph

WeightFn = Callable[[Task], float]


def sw_weight(task: Task) -> float:
    """Node weight: software execution time."""
    return task.sw_time


def hw_weight(task: Task) -> float:
    """Node weight: hardware execution time."""
    return task.hw_time


def t_levels(
    graph: TaskGraph,
    weight: WeightFn = sw_weight,
    comm: float = 0.0,
) -> Dict[str, float]:
    """Earliest possible start time of each task.

    ``comm`` scales edge volume into a per-edge communication delay that
    is charged on every edge (an upper bound used for priority ordering;
    the evaluators charge communication only on boundary-crossing edges).
    """
    start: Dict[str, float] = {}
    for node in graph.topological_order():
        best = 0.0
        for edge in graph.in_edges(node):
            cand = start[edge.src] + weight(graph.task(edge.src)) + comm * edge.volume
            if cand > best:
                best = cand
        start[node] = best
    return start


def b_levels(
    graph: TaskGraph,
    weight: WeightFn = sw_weight,
    comm: float = 0.0,
) -> Dict[str, float]:
    """Longest path from each task to any sink, including the task itself.

    The classic list-scheduling priority: scheduling tasks in decreasing
    b-level order is optimal for unit tasks on unbounded processors and a
    strong heuristic otherwise.
    """
    blevel: Dict[str, float] = {}
    for node in reversed(graph.topological_order()):
        tail = 0.0
        for edge in graph.out_edges(node):
            cand = blevel[edge.dst] + comm * edge.volume
            if cand > tail:
                tail = cand
        blevel[node] = tail + weight(graph.task(node))
    return blevel


def priority_list(
    graph: TaskGraph,
    weight: WeightFn = sw_weight,
    comm: float = 0.0,
) -> List[str]:
    """Task names sorted by decreasing b-level (ties by insertion order)."""
    levels = b_levels(graph, weight, comm)
    order = {name: i for i, name in enumerate(graph.task_names)}
    return sorted(graph.task_names, key=lambda n: (-levels[n], order[n]))


def slack(graph: TaskGraph, weight: WeightFn = sw_weight) -> Dict[str, float]:
    """Scheduling slack of each task: ALAP start minus ASAP start, against
    the critical-path makespan.  Zero-slack tasks are on a critical path."""
    asap = t_levels(graph, weight)
    blev = b_levels(graph, weight)
    if not asap:
        return {}
    makespan = max(asap[n] + weight(graph.task(n)) for n in graph.task_names)
    return {n: makespan - blev[n] - asap[n] for n in graph.task_names}


def linear_clusters(graph: TaskGraph) -> List[List[str]]:
    """Partition the graph into linear chains (Kim–Browne linear
    clustering): repeatedly peel off the heaviest remaining path.

    Used by the multi-threaded co-processor synthesizer to seed thread
    formation: a linear chain has no internal concurrency, so it never pays
    to split it across controllers.
    """
    remaining: Set[str] = set(graph.task_names)
    clusters: List[List[str]] = []
    while remaining:
        finish: Dict[str, float] = {}
        choice: Dict[str, Optional[str]] = {}
        for node in graph.topological_order():
            if node not in remaining:
                continue
            best_pred, best = None, 0.0
            for pred in graph.predecessors(node):
                if pred in remaining and pred in finish and finish[pred] > best:
                    best, best_pred = finish[pred], pred
            finish[node] = best + graph.task(node).sw_time
            choice[node] = best_pred
        end = max(finish, key=lambda n: (finish[n], n))
        chain: List[str] = []
        cur: Optional[str] = end
        while cur is not None:
            chain.append(cur)
            cur = choice[cur]
        chain.reverse()
        clusters.append(chain)
        remaining.difference_update(chain)
    return clusters


def communication_clusters(
    graph: TaskGraph, n_clusters: int
) -> List[List[str]]:
    """Greedy edge-contraction clustering that localizes communication.

    Repeatedly merges the pair of clusters joined by the highest-volume
    edge until only ``n_clusters`` remain — the "favour partitions that
    localize communication" heuristic of Section 3.3, used as a seed for
    multi-threaded co-processor synthesis.
    """
    _domain.count("n_clusters", n_clusters, 1)
    cluster_of: Dict[str, int] = {n: i for i, n in enumerate(graph.task_names)}
    members: Dict[int, List[str]] = {
        i: [n] for i, n in enumerate(graph.task_names)
    }
    edges = sorted(
        graph.edges, key=lambda e: (-e.volume, e.src, e.dst)
    )
    for edge in edges:
        if len(members) <= n_clusters:
            break
        a, b = cluster_of[edge.src], cluster_of[edge.dst]
        if a == b:
            continue
        # merge b into a
        for name in members[b]:
            cluster_of[name] = a
        members[a].extend(members[b])
        del members[b]
    # Merge smallest clusters if still above target (disconnected graphs).
    while len(members) > n_clusters:
        keys = sorted(members, key=lambda k: (len(members[k]), k))
        a, b = keys[0], keys[1]
        for name in members[a]:
            cluster_of[name] = b
        members[b].extend(members[a])
        del members[a]
    return [sorted(m, key=graph.task_names.index) for _, m in sorted(members.items())]


def inter_cluster_volume(graph: TaskGraph, clusters: List[List[str]]) -> float:
    """Total edge volume crossing cluster boundaries."""
    where: Dict[str, int] = {}
    for i, cluster in enumerate(clusters):
        for name in cluster:
            where[name] = i
    return sum(
        e.volume for e in graph.edges if where[e.src] != where[e.dst]
    )


def is_convex(graph: TaskGraph, group: Set[str]) -> bool:
    """Whether ``group`` is convex: no path leaves the group and re-enters.

    Convexity is required of a set of operations moved to hardware as a
    single unit (otherwise the hardware would have to call back into
    software mid-execution).
    """
    outside_descendants: Set[str] = set()
    for name in group:
        for succ in graph.successors(name):
            if succ not in group:
                outside_descendants.add(succ)
                outside_descendants.update(graph.descendants(succ))
    return not (outside_descendants & group)


def merge_tasks(
    graph: TaskGraph, group: List[str], merged_name: str
) -> TaskGraph:
    """Return a new graph with ``group`` collapsed into one task.

    Costs are combined conservatively: serial software time, parallel-ish
    hardware time (critical path through the group), summed area.  Edges
    internal to the group disappear; external edges are re-attached with
    volumes summed per neighbour.
    """
    group_set = set(group)
    if not group_set <= set(graph.task_names):
        raise KeyError("group contains unknown tasks")
    if not is_convex(graph, group_set):
        raise ValueError("cannot merge a non-convex group")
    sub_sw = sum(graph.task(n).sw_time for n in group)
    # hardware time: longest chain inside the group
    finish: Dict[str, float] = {}
    for node in graph.topological_order():
        if node not in group_set:
            continue
        start = max(
            (finish[p] for p in graph.predecessors(node) if p in group_set),
            default=0.0,
        )
        finish[node] = start + graph.task(node).hw_time
    sub_hw = max(finish.values(), default=0.0)
    merged = Task(
        name=merged_name,
        sw_time=sub_sw,
        hw_time=max(sub_hw, 1e-9),
        hw_area=sum(graph.task(n).hw_area for n in group),
        sw_size=sum(graph.task(n).sw_size for n in group),
        parallelism=max(graph.task(n).parallelism for n in group),
        modifiability=max(graph.task(n).modifiability for n in group),
    )
    out = TaskGraph(graph.name)
    for t in graph.tasks:
        if t.name not in group_set:
            out.add_task(
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
    out.add_task(merged)
    in_vol: Dict[str, float] = {}
    out_vol: Dict[str, float] = {}
    for e in graph.edges:
        s_in, d_in = e.src in group_set, e.dst in group_set
        if s_in and d_in:
            continue
        if s_in:
            out_vol[e.dst] = out_vol.get(e.dst, 0.0) + e.volume
        elif d_in:
            in_vol[e.src] = in_vol.get(e.src, 0.0) + e.volume
        else:
            out.add_edge(e.src, e.dst, e.volume)
    for src, vol in in_vol.items():
        out.add_edge(src, merged_name, vol)
    for dst, vol in out_vol.items():
        out.add_edge(merged_name, dst, vol)
    out.validate()
    return out
