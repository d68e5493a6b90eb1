"""Synthetic workload generators.

The paper's example methodologies were evaluated by their authors on
proprietary applications.  Per the substitution policy in DESIGN.md we
generate synthetic task graphs in the style of TGFF (the de-facto random
task-graph generator of the co-synthesis literature) plus structured
shapes (pipelines, fork-joins, trees, series-parallel) that exercise the
concurrency and communication factors directly.

All generators take an explicit ``random.Random`` instance so every
experiment is reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import _domain
from repro.graph.taskgraph import Task, TaskGraph


@dataclass
class TaskCostModel:
    """Ranges from which random task characterizations are drawn.

    ``hw_speedup`` is the factor by which the hardware implementation is
    faster than software; ``hw_area_per_time`` converts software time to
    hardware area (bigger/faster functions cost more gates).
    """

    sw_time: tuple = (2.0, 20.0)
    hw_speedup: tuple = (2.0, 10.0)
    hw_area_per_time: tuple = (3.0, 8.0)
    sw_size_per_time: tuple = (1.0, 3.0)
    parallelism: tuple = (1.0, 8.0)
    modifiability: tuple = (0.0, 0.5)
    edge_volume: tuple = (1.0, 32.0)

    def make_task(self, rng: random.Random, name: str) -> Task:
        """Draw one task from the model."""
        sw = rng.uniform(*self.sw_time)
        speedup = rng.uniform(*self.hw_speedup)
        return Task(
            name=name,
            sw_time=sw,
            hw_time=sw / speedup,
            hw_area=sw * rng.uniform(*self.hw_area_per_time),
            sw_size=sw * rng.uniform(*self.sw_size_per_time),
            parallelism=rng.uniform(*self.parallelism),
            modifiability=rng.uniform(*self.modifiability),
        )

    def draw_volume(self, rng: random.Random) -> float:
        """Draw one edge volume."""
        return rng.uniform(*self.edge_volume)


DEFAULT_COSTS = TaskCostModel()


def random_layered_graph(
    rng: random.Random,
    n_tasks: int = 12,
    width: int = 3,
    extra_edge_prob: float = 0.25,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "tgff",
) -> TaskGraph:
    """TGFF-style layered random DAG.

    Tasks are placed on layers of random width up to ``width``; every task
    (except layer 0) gets one mandatory parent from the previous layer and
    additional edges from earlier layers with probability
    ``extra_edge_prob``.  This is the standard random-graph family used to
    evaluate co-synthesis heuristics.  ``n_tasks`` and ``width`` are
    ints >= 1 and ``extra_edge_prob`` is in [0, 1].
    """
    _domain.count("n_tasks", n_tasks, 1)
    _domain.count("width", width, 1)
    _domain.real("extra_edge_prob", extra_edge_prob, least=0, most=1)
    graph = TaskGraph(name)
    layers: List[List[str]] = []
    created = 0
    while created < n_tasks:
        layer_size = min(rng.randint(1, width), n_tasks - created)
        layer: List[str] = []
        for _ in range(layer_size):
            task = costs.make_task(rng, f"t{created}")
            graph.add_task(task)
            layer.append(task.name)
            created += 1
        layers.append(layer)
    for level in range(1, len(layers)):
        earlier = [n for lyr in layers[:level] for n in lyr]
        for node in layers[level]:
            parent = rng.choice(layers[level - 1])
            graph.add_edge(parent, node, costs.draw_volume(rng))
            for cand in earlier:
                if cand != parent and rng.random() < extra_edge_prob / level:
                    if not graph.has_edge(cand, node):
                        graph.add_edge(cand, node, costs.draw_volume(rng))
    graph.validate()
    return graph


def pipeline_graph(
    rng: random.Random,
    n_stages: int = 6,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "pipeline",
) -> TaskGraph:
    """A linear chain — zero concurrency, maximal serial dependence."""
    graph = TaskGraph(name)
    prev: Optional[str] = None
    for i in range(n_stages):
        task = costs.make_task(rng, f"s{i}")
        graph.add_task(task)
        if prev is not None:
            graph.add_edge(prev, task.name, costs.draw_volume(rng))
        prev = task.name
    return graph


def fork_join_graph(
    rng: random.Random,
    n_branches: int = 4,
    branch_len: int = 2,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "forkjoin",
) -> TaskGraph:
    """Fork–join: one source fans out to parallel branches that rejoin.

    Maximal exploitable concurrency — the shape on which the "concurrency"
    partitioning factor pays off most.
    """
    graph = TaskGraph(name)
    src = costs.make_task(rng, "fork")
    graph.add_task(src)
    sink = costs.make_task(rng, "join")
    tails: List[str] = []
    for b in range(n_branches):
        prev = src.name
        for s in range(branch_len):
            task = costs.make_task(rng, f"b{b}_{s}")
            graph.add_task(task)
            graph.add_edge(prev, task.name, costs.draw_volume(rng))
            prev = task.name
        tails.append(prev)
    graph.add_task(sink)
    for tail in tails:
        graph.add_edge(tail, sink.name, costs.draw_volume(rng))
    return graph


def tree_graph(
    rng: random.Random,
    depth: int = 3,
    fanout: int = 2,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "tree",
) -> TaskGraph:
    """An out-tree (e.g. a divide phase of divide-and-conquer)."""
    graph = TaskGraph(name)
    root = costs.make_task(rng, "n0")
    graph.add_task(root)
    frontier = [root.name]
    counter = 1
    for _ in range(depth):
        next_frontier: List[str] = []
        for parent in frontier:
            for _ in range(fanout):
                task = costs.make_task(rng, f"n{counter}")
                counter += 1
                graph.add_task(task)
                graph.add_edge(parent, task.name, costs.draw_volume(rng))
                next_frontier.append(task.name)
        frontier = next_frontier
    return graph


def series_parallel_graph(
    rng: random.Random,
    n_expansions: int = 8,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "sp",
) -> TaskGraph:
    """Random series-parallel DAG built by repeated edge expansion.

    Starting from a single edge, each expansion replaces a random edge
    either in series (insert a node) or in parallel (duplicate the edge
    through a new node).  Series-parallel graphs model structured
    (block-structured) programs.
    """
    graph = TaskGraph(name)
    a = costs.make_task(rng, "sp_src")
    b = costs.make_task(rng, "sp_sink")
    graph.add_task(a)
    graph.add_task(b)
    graph.add_edge(a.name, b.name, costs.draw_volume(rng))
    counter = 0
    for _ in range(n_expansions):
        edge = rng.choice(graph.edges)
        node = costs.make_task(rng, f"sp{counter}")
        counter += 1
        graph.add_task(node)
        if rng.random() < 0.5:
            # series: src -> new -> dst replaces src -> dst
            graph.add_edge(edge.src, node.name, costs.draw_volume(rng))
            graph.add_edge(node.name, edge.dst, costs.draw_volume(rng))
        else:
            # parallel: add a second path src -> new -> dst
            graph.add_edge(edge.src, node.name, costs.draw_volume(rng))
            graph.add_edge(node.name, edge.dst, costs.draw_volume(rng))
    graph.validate()
    return graph


def communication_skewed_graph(
    rng: random.Random,
    n_tasks: int = 10,
    hot_pairs: int = 3,
    hot_volume: float = 200.0,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "commskew",
) -> TaskGraph:
    """A layered graph with a few very-high-volume edges.

    Built for the factor-ablation experiment (E11): a partitioner that
    ignores the communication factor will cut the hot edges and pay for
    it in the evaluated latency.
    """
    graph = random_layered_graph(rng, n_tasks=n_tasks, costs=costs, name=name)
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst))
    rng.shuffle(edges)
    for edge in edges[:hot_pairs]:
        vol = hot_volume * rng.uniform(0.8, 1.2)
        graph.set_edge_volume(edge.src, edge.dst, vol)
    return graph


def parallelism_skewed_graph(
    rng: random.Random,
    n_tasks: int = 10,
    n_parallel: int = 3,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "parskew",
) -> TaskGraph:
    """A layered graph in which a few tasks have very high inherent
    parallelism (and correspondingly large hardware speedups).

    Built for the factor-ablation experiment (E11): the nature-of-
    computation factor should steer exactly these tasks to hardware.
    """
    graph = random_layered_graph(rng, n_tasks=n_tasks, costs=costs, name=name)
    names = list(graph.task_names)
    rng.shuffle(names)
    for nm in names[:n_parallel]:
        task = graph.task(nm)
        task.parallelism = rng.uniform(16.0, 32.0)
        task.hw_time = task.sw_time / task.parallelism
    return graph


def periodic_taskset(
    rng: random.Random,
    n_tasks: int = 12,
    period: float = 100.0,
    utilization: float = 0.6,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: str = "periodic",
) -> TaskGraph:
    """A layered graph annotated with a common period and deadline.

    The multiprocessor co-synthesizers (Section 4.2) minimize processor
    cost subject to completing the whole graph within ``period``.
    Software times are rescaled so the serial utilization matches
    ``utilization`` × period on the reference processor; both are
    finite and > 0.
    """
    _domain.real("period", period, above=0)
    _domain.real("utilization", utilization, above=0)
    graph = random_layered_graph(rng, n_tasks=n_tasks, costs=costs, name=name)
    total = graph.total_time("sw")
    scale = (utilization * period) / total
    for task in graph:
        task.sw_time *= scale
        task.hw_time *= scale
        task.period = period
        task.deadline = period
        task.wcet = {k: v * scale for k, v in task.wcet.items()}
    return graph


# ----------------------------------------------------------------------
# registries (the sweep engine's uniform entry points)
# ----------------------------------------------------------------------
#
# Every family above has its own natural parameters (stages, branches,
# depth, expansions).  The sweep engine wants one knob — "about this
# many tasks" — so each family gets an adapter that maps ``n_tasks``
# onto its shape parameters.  Shapes that grow in steps (trees,
# fork-joins) land *near* ``n_tasks``, not exactly on it.

def _gen_layered(rng: random.Random, n_tasks: int,
                 costs: TaskCostModel, name: str) -> TaskGraph:
    return random_layered_graph(rng, n_tasks=n_tasks, costs=costs, name=name)


def _gen_pipeline(rng: random.Random, n_tasks: int,
                  costs: TaskCostModel, name: str) -> TaskGraph:
    return pipeline_graph(rng, n_stages=n_tasks, costs=costs, name=name)


def _gen_forkjoin(rng: random.Random, n_tasks: int,
                  costs: TaskCostModel, name: str) -> TaskGraph:
    # fork + join + branches*len interior tasks
    interior = max(2, n_tasks - 2)
    branches = max(2, min(4, interior))
    length = max(1, interior // branches)
    return fork_join_graph(
        rng, n_branches=branches, branch_len=length, costs=costs, name=name
    )


def _gen_tree(rng: random.Random, n_tasks: int,
              costs: TaskCostModel, name: str) -> TaskGraph:
    # a fanout-2 tree of depth d has 2**(d+1) - 1 nodes
    depth = max(1, int(math.log2(max(n_tasks, 3) + 1)) - 1)
    return tree_graph(rng, depth=depth, fanout=2, costs=costs, name=name)


def _gen_series_parallel(rng: random.Random, n_tasks: int,
                         costs: TaskCostModel, name: str) -> TaskGraph:
    return series_parallel_graph(
        rng, n_expansions=max(1, n_tasks - 2), costs=costs, name=name
    )


def _gen_comm_skewed(rng: random.Random, n_tasks: int,
                     costs: TaskCostModel, name: str) -> TaskGraph:
    return communication_skewed_graph(
        rng, n_tasks=n_tasks, costs=costs, name=name
    )


def _gen_par_skewed(rng: random.Random, n_tasks: int,
                    costs: TaskCostModel, name: str) -> TaskGraph:
    return parallelism_skewed_graph(
        rng, n_tasks=n_tasks, costs=costs, name=name
    )


#: Generator families by name, each callable as
#: ``fn(rng, n_tasks, costs, name)``.
GENERATORS: Dict[str, Callable[[random.Random, int, TaskCostModel, str],
                               TaskGraph]] = {
    "layered": _gen_layered,
    "pipeline": _gen_pipeline,
    "forkjoin": _gen_forkjoin,
    "tree": _gen_tree,
    "series_parallel": _gen_series_parallel,
    "comm_skewed": _gen_comm_skewed,
    "par_skewed": _gen_par_skewed,
}


#: Named task-characterization presets the sweep grids draw from.
#: ``default`` is the TGFF-style baseline; the others skew the economics
#: toward one medium or stress the communication factor.
COST_MODELS: Dict[str, TaskCostModel] = {
    "default": DEFAULT_COSTS,
    "hw_friendly": TaskCostModel(
        hw_speedup=(6.0, 16.0), hw_area_per_time=(2.0, 5.0)
    ),
    "sw_friendly": TaskCostModel(
        hw_speedup=(1.5, 4.0), hw_area_per_time=(6.0, 12.0)
    ),
    "comm_heavy": TaskCostModel(edge_volume=(32.0, 256.0)),
}


def generate(
    kind: str,
    rng: random.Random,
    n_tasks: int = 12,
    costs: TaskCostModel = DEFAULT_COSTS,
    name: Optional[str] = None,
) -> TaskGraph:
    """Build a graph of family ``kind`` with about ``n_tasks`` tasks.

    The uniform entry point used by :mod:`repro.sweep`: one call shape
    for every family, so a grid axis can range over family names.
    """
    try:
        builder = GENERATORS[kind]
    except KeyError:
        raise KeyError(
            f"unknown generator {kind!r}; known: {sorted(GENERATORS)}"
        ) from None
    _domain.count("n_tasks", n_tasks, 1)
    return builder(rng, n_tasks, costs, name or kind)
