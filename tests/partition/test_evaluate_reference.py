"""The compiled evaluator against an independent reference.

The functions under "reference" below are verbatim copies of
``hardware_area`` and ``evaluate_partition`` from
``repro/partition/evaluate.py`` and of ``cost_terms`` and
``partition_cost`` from ``repro/partition/cost.py`` as they stood
before :class:`repro.partition.evaluate.CompiledProblem` replaced them:
one from-scratch schedule and one from-scratch area and cost per call,
sharing no code with the view beyond the :class:`Evaluation` record,
the b-level helper and the area estimator.  Records are compared byte
for byte downstream, so every comparison here is exact: ``==`` on each
field plus ``repr`` equality, which also tells ``0`` from ``0.0`` and
``-0.0`` from ``0.0`` and checks the order of ``start_times``.
"""

import heapq
import random
from typing import Dict, Iterable, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cosim.trace import COMM, TASK, Tracer
from repro.estimate.communication import DEFAULT, LOOSE, TIGHT, CommModel
from repro.estimate.incremental import (
    entry_key,
    requirements_from_task,
    shared_area,
)
from repro.graph.algorithms import b_levels
from repro.graph.generators import GENERATORS, generate
from repro.graph.taskgraph import Task, TaskGraph
from repro.partition import cost as cost_module
from repro.partition import evaluate as evaluate_module
from repro.partition.cost import VIOLATION_PENALTY, CostWeights
from repro.partition.evaluate import CompiledProblem, Evaluation
from repro.partition.problem import PartitionProblem


# ----------------------------------------------------------------------
# reference
# ----------------------------------------------------------------------
def hardware_area(
    problem: PartitionProblem, hw_tasks: Iterable[str]
) -> float:
    """Area of the hardware partition, with or without sharing."""
    hw = sorted(set(hw_tasks))
    if not hw:
        return 0.0
    if not problem.use_sharing:
        return sum(problem.graph.task(name).hw_area for name in hw)
    entries = tuple(sorted(
        entry_key(
            requirements_from_task(task),
            registers=max(2, int(task.sw_size / 8)),
            states=max(4, int(task.hw_time)),
        )
        for task in (problem.graph.task(name) for name in hw)
    ))
    return shared_area(entries)


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
    graph = problem.graph
    hw: Set[str] = set(hw_tasks)
    unknown = hw - set(graph.task_names)
    if unknown:
        raise KeyError(f"unknown tasks in partition: {sorted(unknown)}")

    priority = b_levels(graph, weight=lambda t: min(t.sw_time, t.hw_time))
    order = {name: i for i, name in enumerate(graph.task_names)}

    n_hw_units = (
        problem.hw_parallelism
        if problem.hw_parallelism is not None
        else max(1, len(hw))
    )
    cpu_free = 0.0
    hw_free = [0.0] * n_hw_units

    finish: Dict[str, float] = {}
    start: Dict[str, float] = {}
    comm_total = 0.0
    cpu_busy = 0.0
    hw_busy = 0.0

    pending = {
        name: len(graph.predecessors(name)) for name in graph.task_names
    }
    data_ready: Dict[str, float] = {name: 0.0 for name in graph.task_names}
    ready = [
        (-priority[n], order[n], n)
        for n in graph.task_names if pending[n] == 0
    ]
    heapq.heapify(ready)

    while ready:
        _negp, _o, name = heapq.heappop(ready)
        task = graph.task(name)
        in_hw = name in hw
        duration = task.hw_time if in_hw else task.sw_time
        if in_hw:
            unit = min(range(n_hw_units), key=lambda i: hw_free[i])
            begin = max(data_ready[name], hw_free[unit])
            hw_free[unit] = begin + duration
            hw_busy += duration
        else:
            begin = max(data_ready[name], cpu_free)
            cpu_free = begin + duration
            cpu_busy += duration
        start[name] = begin
        finish[name] = begin + duration
        if tracer is not None:
            tracer.emit(
                TASK, name, time=begin, domain="hw" if in_hw else "sw",
                unit=(f"hw{unit}" if in_hw else "cpu"), duration=duration,
            )
            tracer.metrics.counter(
                f"partition.{'hw' if in_hw else 'sw'}.tasks"
            ).inc()
            tracer.metrics.histogram(
                f"partition.{'hw' if in_hw else 'sw'}.exec_ns"
            ).observe(duration)
        for edge in graph.out_edges(name):
            crosses = (edge.src in hw) != (edge.dst in hw)
            delay = problem.comm.transfer_ns(edge.volume) if crosses else 0.0
            if crosses:
                comm_total += delay
                if tracer is not None:
                    tracer.emit(
                        COMM, f"{edge.src}->{edge.dst}", time=finish[name],
                        volume=edge.volume, delay=delay,
                    )
                    tracer.metrics.histogram(
                        "partition.comm_ns"
                    ).observe(delay)
            arrival = finish[name] + delay
            if arrival > data_ready[edge.dst]:
                data_ready[edge.dst] = arrival
            pending[edge.dst] -= 1
            if pending[edge.dst] == 0:
                heapq.heappush(
                    ready,
                    (-priority[edge.dst], order[edge.dst], edge.dst),
                )

    if len(finish) != len(graph):
        raise RuntimeError("scheduling did not reach every task")

    latency = max(finish.values(), default=0.0)
    area = hardware_area(problem, hw)
    sw_size = sum(
        graph.task(n).sw_size for n in graph.task_names if n not in hw
    )
    deadline_met = (
        problem.deadline_ns is None or latency <= problem.deadline_ns
    )
    return Evaluation(
        latency_ns=latency,
        hw_area=area,
        sw_size=sw_size,
        comm_ns=comm_total,
        cpu_busy_ns=cpu_busy,
        hw_busy_ns=hw_busy,
        deadline_met=deadline_met,
        start_times=start,
    )


def cost_terms(
    problem: PartitionProblem,
    evaluation: Evaluation,
    hw_tasks: Iterable[str],
) -> Dict[str, float]:
    """The raw (unweighted) value of each factor term."""
    graph = problem.graph
    hw = set(hw_tasks)

    # 1. performance: latency, heavily penalized beyond the deadline
    latency = evaluation.latency_ns
    performance = latency
    if problem.deadline_ns is not None and latency > problem.deadline_ns:
        performance += VIOLATION_PENALTY * (latency - problem.deadline_ns)

    # 2. implementation cost: area, heavily penalized beyond the budget
    area_term = evaluation.hw_area
    if (problem.hw_area_budget is not None
            and evaluation.hw_area > problem.hw_area_budget):
        area_term += VIOLATION_PENALTY * (
            evaluation.hw_area - problem.hw_area_budget
        )

    # 3. modifiability: likely-to-change functionality frozen in silicon
    # (summed in sorted order: float addition is non-associative, and
    # set iteration order varies with PYTHONHASHSEED — a hash-order sum
    # would differ by an ULP between interpreters, breaking the
    # byte-identical-resume guarantee of the campaign store)
    modifiability = sum(graph.task(n).modifiability for n in sorted(hw))

    # 4. nature of computation: medium mismatch
    nature = 0.0
    for name in graph.task_names:
        task = graph.task(name)
        if name in hw:
            # serial computations gain little in hardware
            if task.parallelism < 2.0:
                nature += task.sw_time * (2.0 - task.parallelism)
        else:
            # parallel computations squandered on a serial processor
            nature += task.sw_time * max(0.0, task.parallelism - 2.0) / 2.0

    # 5. concurrency: reward realized overlap (negative term)
    concurrency = -evaluation.overlap_fraction * latency

    # 6. communication: boundary-crossing time
    communication = evaluation.comm_ns

    return {
        "performance": performance,
        "implementation_cost": area_term,
        "modifiability": modifiability,
        "nature": nature,
        "concurrency": concurrency,
        "communication": communication,
    }


def partition_cost(
    problem: PartitionProblem,
    hw_tasks: Iterable[str],
    weights: CostWeights = CostWeights(),
    evaluation: Evaluation = None,
) -> Tuple[float, Dict[str, float], Evaluation]:
    """Scalar cost of a partition plus the weighted per-factor breakdown.

    Returns ``(cost, breakdown, evaluation)``; pass a pre-computed
    ``evaluation`` to avoid re-scheduling.
    """
    hw = frozenset(hw_tasks)
    if evaluation is None:
        evaluation = evaluate_partition(problem, hw)
    raw = cost_terms(problem, evaluation, hw)
    breakdown = {
        name: getattr(weights, name) * value for name, value in raw.items()
    }
    return sum(breakdown.values()), breakdown, evaluation


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
ZERO = CommModel(sync_overhead_ns=0.0, word_time_ns=0.0)
COMMS = (DEFAULT, TIGHT, LOOSE, ZERO)
FIELDS = ("latency_ns", "hw_area", "sw_size", "comm_ns", "cpu_busy_ns",
          "hw_busy_ns", "deadline_met", "start_times")


#: task times of the tie-heavy graphs
TIES = (1.0, 2.0, 3.0)


def hand_built(
    rng: random.Random, n_tasks: int, times: Optional[tuple] = None
) -> TaskGraph:
    """A random DAG where about a third of the edges carry no data.

    With ``times``, both task times come from that small set, so many
    ready tasks share a b-level and the insertion index in the heap key
    decides which the list scheduler pops first.  Uniform float times
    almost never tie, so without these graphs the suite cannot tell
    that tie-break from another.
    """
    graph = TaskGraph("hand")
    for i in range(n_tasks):
        if times is None:
            sw_time = rng.uniform(1.0, 40.0)
            hw_time = sw_time / rng.uniform(0.5, 12.0)
        else:
            sw_time, hw_time = rng.choice(times), rng.choice(times)
        graph.add_task(Task(
            f"t{i}", sw_time=sw_time, hw_time=hw_time,
            hw_area=rng.choice((0.0, rng.uniform(5.0, 900.0))),
            sw_size=rng.uniform(0.0, 120.0),
            parallelism=rng.choice((1.0, 2.0, rng.uniform(1.0, 9.0))),
            modifiability=rng.random(),
        ))
    for dst in range(1, n_tasks):
        for src in rng.sample(range(dst), rng.randint(0, min(dst, 3))):
            volume = 0.0 if rng.random() < 0.35 else rng.uniform(0.5, 64.0)
            graph.add_edge(f"t{src}", f"t{dst}", volume)
    return graph


def bound(rng: random.Random, low: float, high: float):
    """Unset, loose (above ``high``) or tight (inside ``[low, high]``)."""
    mode = rng.choice(("unset", "loose", "tight"))
    if mode == "unset":
        return None
    if mode == "loose":
        return high * rng.uniform(1.0, 3.0)
    return rng.uniform(low, high)


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(sorted(GENERATORS) + ["hand", "ties"]))
    n_tasks = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind in ("hand", "ties"):
        graph = hand_built(rng, n_tasks, TIES if kind == "ties" else None)
    else:
        graph = generate(kind, rng, n_tasks)
    tasks = graph.tasks
    serial = sum(t.sw_time for t in tasks)
    fastest = sum(min(t.sw_time, t.hw_time) for t in tasks) / len(tasks)
    return PartitionProblem(
        graph,
        comm=draw(st.sampled_from(COMMS)),
        hw_parallelism=draw(st.sampled_from((1, 2, 3, None))),
        use_sharing=draw(st.booleans()),
        deadline_ns=bound(rng, fastest, serial),
        hw_area_budget=bound(rng, 0.0, sum(t.hw_area for t in tasks)),
    ), rng


def partitions(problem: PartitionProblem, rng: random.Random, count: int):
    """The empty set, every task, then ``count`` random subsets."""
    names = problem.graph.task_names
    yield frozenset()
    yield frozenset(names)
    for _ in range(count):
        yield frozenset(n for n in names if rng.random() < rng.random())


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
def assert_same_evaluation(got: Evaluation, want: Evaluation) -> None:
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.start_times) == list(want.start_times)
    assert repr(got) == repr(want)


def assert_same_cost(got, want) -> None:
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert list(got[1]) == list(want[1])
    assert repr(got[:2]) == repr(want[:2])
    assert_same_evaluation(got[2], want[2])


def traced(evaluate, *args):
    tracer = Tracer()
    evaluation = evaluate(*args, tracer=tracer)
    return evaluation, tracer


def assert_same_trace(got: Tracer, want: Tracer) -> None:
    assert got.records == want.records
    assert repr(got.records) == repr(want.records)
    assert got.metrics.snapshot() == want.metrics.snapshot()


COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=300, **COMMON)
@given(problems())
def test_view_matches_reference(drawn):
    problem, rng = drawn
    compiled = CompiledProblem(problem)
    weights = CostWeights()
    for hw in partitions(problem, rng, 4):
        want = evaluate_partition(problem, hw)
        assert_same_evaluation(compiled.evaluate(hw), want)
        assert_same_evaluation(
            evaluate_module.evaluate_partition(problem, hw), want)
        assert compiled.hardware_area(hw) == hardware_area(problem, hw)
        assert repr(evaluate_module.hardware_area(problem, hw)) == \
            repr(hardware_area(problem, hw))
        terms = cost_terms(problem, want, hw)
        assert repr(compiled.cost_terms(want, hw)) == repr(terms)
        assert repr(cost_module.cost_terms(problem, want, hw)) == \
            repr(terms)
        reference = partition_cost(problem, hw, weights)
        assert_same_cost(compiled.cost(hw, weights), reference)
        assert_same_cost(
            cost_module.partition_cost(problem, hw, weights), reference)


@settings(max_examples=150, **COMMON)
@given(problems(), st.sampled_from(CostWeights.factors()))
def test_view_matches_reference_under_ablated_weights(drawn, factor):
    problem, rng = drawn
    compiled = CompiledProblem(problem)
    weights = CostWeights().ablate(factor)
    for hw in partitions(problem, rng, 2):
        assert_same_cost(compiled.cost(hw, weights),
                         partition_cost(problem, hw, weights))


@settings(max_examples=100, **COMMON)
@given(problems())
def test_traced_view_matches_reference(drawn):
    problem, rng = drawn
    compiled = CompiledProblem(problem)
    for hw in partitions(problem, rng, 2):
        got, got_trace = traced(compiled.evaluate, hw)
        want, want_trace = traced(evaluate_partition, problem, hw)
        assert_same_evaluation(got, want)
        assert_same_trace(got_trace, want_trace)


@settings(max_examples=40, **COMMON)
@given(problems())
def test_one_view_reused_matches_a_fresh_view_each(drawn):
    problem, rng = drawn
    reused = CompiledProblem(problem)
    weights = CostWeights()
    for hw in partitions(problem, rng, 48):
        assert_same_cost(reused.cost(hw, weights),
                         CompiledProblem(problem).cost(hw, weights))


def test_unknown_tasks_raise_the_reference_error():
    problem = PartitionProblem(generate("layered", random.Random(3), 6))
    hw = ["ghost", problem.graph.task_names[0], "another"]
    with pytest.raises(KeyError) as want:
        evaluate_partition(problem, hw)
    with pytest.raises(KeyError) as got:
        CompiledProblem(problem).evaluate(hw)
    assert got.value.args == want.value.args
    # the area path filters presorted inputs by membership, so it must
    # check the names itself rather than skip the unknown ones
    with pytest.raises(KeyError) as got:
        CompiledProblem(problem).hardware_area(hw)
    assert got.value.args == want.value.args


def pop_order(graph: TaskGraph, tie_sign: int) -> list:
    """The ready heap's pop order, ties on b-level broken by insertion
    index (``tie_sign`` 1) or by its reverse (``-1``)."""
    level = b_levels(graph, weight=lambda t: min(t.sw_time, t.hw_time))
    key = {name: (-level[name], tie_sign * i, name)
           for i, name in enumerate(graph.task_names)}
    pending = {name: len(graph.predecessors(name)) for name in key}
    ready = [key[name] for name in key if pending[name] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        order.append(heapq.heappop(ready)[2])
        for dst in graph.successors(order[-1]):
            pending[dst] -= 1
            if pending[dst] == 0:
                heapq.heappush(ready, key[dst])
    return order


def test_tie_heavy_graphs_exercise_the_tie_break():
    """On tie-heavy graphs, reversing the insertion-index tie-break
    changes the pop order, which ``start_times`` records.  On graphs
    with float times it practically never does (none of 1,600 built
    by every generator and by :func:`hand_built`, 2-20 tasks), so only
    the tie-heavy kind checks the tie-break."""
    changed = 0
    for seed in range(50):
        graph = hand_built(random.Random(seed), 12, TIES)
        changed += pop_order(graph, 1) != pop_order(graph, -1)
        want = evaluate_partition(PartitionProblem(graph), ())
        assert list(want.start_times) == pop_order(graph, 1)
    assert changed >= 45
