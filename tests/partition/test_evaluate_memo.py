"""The cost memo of :class:`repro.partition.evaluate.CompiledProblem`.

One view serves a long sequence of calls the way a heuristic makes
them: single-task flips that revisit partitions, runs longer than the
memo's cap (so old entries are evicted and recomputed), several weight
objects, and interleaved calls that pass their own ``evaluation`` or a
tracer.  Every result must equal what a fresh view gives for the same
call, compared the way records are compared downstream: ``repr``
equality of costs and breakdowns (so ``-0.0`` stays ``-0.0`` and ``1``
stays ``1``), every :class:`Evaluation` field, and the order of
``start_times``.  A counting subclass shows that a memo hit schedules
nothing and that a miss schedules exactly once.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cosim.trace import Tracer
from repro.estimate.communication import DEFAULT, LOOSE, TIGHT
from repro.graph.generators import GENERATORS, generate
from repro.partition.cost import CostWeights
from repro.partition.evaluate import CompiledProblem, Evaluation
from repro.partition.problem import PartitionProblem

FIELDS = ("latency_ns", "hw_area", "sw_size", "comm_ns", "cpu_busy_ns",
          "hw_busy_ns", "deadline_met", "start_times")

BASE = CostWeights()
#: two distinct weightings, an equal-valued copy of the first, and a
#: pair that compare equal yet weigh a factor by ``0.0`` and ``-0.0``
WEIGHTS = (
    BASE,
    CostWeights(performance=0.5, implementation_cost=0.2, modifiability=3.0,
                nature=1.0, concurrency=2.0, communication=0.25),
    CostWeights(),
    BASE.ablate("concurrency"),
    replace(BASE, concurrency=-0.0),
)

#: what one call does: memoized cost, cost with a caller's evaluation,
#: plain evaluate, traced evaluate
KINDS = ("cost", "cost", "cost", "given", "evaluate", "traced")


class Counting(CompiledProblem):
    """A view that counts the schedules it runs."""

    def __init__(self, problem):
        super().__init__(problem)
        self.schedules = 0

    def evaluate(self, hw_tasks, tracer=None):
        self.schedules += 1
        return super().evaluate(hw_tasks, tracer)


class Fifo:
    """The memo's policy, spelled out: FIFO over ``(hw, weights)``, a
    hit only for the very weights object that filled the entry."""

    def __init__(self, cap):
        self.cap = cap
        self.entries = {}

    def call(self, hw, weights):
        """Whether this call is a hit; records it when not."""
        key = (hw, weights)
        owner = self.entries.get(key)
        if owner is weights:
            return True
        if owner is None and len(self.entries) >= self.cap:
            del self.entries[next(iter(self.entries))]
        self.entries[key] = weights
        return False


def assert_same_evaluation(got: Evaluation, want: Evaluation) -> None:
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.start_times) == list(want.start_times)
    assert repr(got) == repr(want)


def assert_same_cost(got, want) -> None:
    assert repr(got[0]) == repr(want[0])
    assert list(got[1]) == list(want[1])
    assert repr(got[1]) == repr(want[1])
    assert_same_evaluation(got[2], want[2])


def assert_same_trace(got: Tracer, want: Tracer) -> None:
    assert got.records == want.records
    assert repr(got.records) == repr(want.records)
    assert got.metrics.snapshot() == want.metrics.snapshot()


@st.composite
def problems(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = generate(draw(st.sampled_from(sorted(GENERATORS))), rng,
                     draw(st.integers(1, 7)))
    tasks = graph.tasks
    serial = sum(t.sw_time for t in tasks)
    area = sum(t.hw_area for t in tasks)
    return PartitionProblem(
        graph,
        comm=draw(st.sampled_from((DEFAULT, TIGHT, LOOSE))),
        hw_parallelism=draw(st.sampled_from((1, 2, None))),
        use_sharing=draw(st.booleans()),
        deadline_ns=draw(st.sampled_from((None, 0.3, 0.6, 2.0))),
        hw_area_budget=draw(st.sampled_from((None, 0.0, 0.4, 2.0))),
    ), serial, area


#: one call: (flip a task or stay, which weights, what kind of call,
#: which earlier partition a ``given`` evaluation comes from)
calls = st.tuples(
    st.one_of(st.none(), st.integers(0, 6)),
    st.integers(0, len(WEIGHTS) - 1),
    st.sampled_from(KINDS),
    st.integers(0, 10**6),
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(problems(), st.lists(calls, min_size=1, max_size=90))
def test_memoized_view_matches_a_fresh_view(drawn, sequence):
    problem, serial, area = drawn
    # bounds are drawn as fractions so they bite at every size
    if problem.deadline_ns is not None:
        problem = replace(problem, deadline_ns=problem.deadline_ns * serial)
    if problem.hw_area_budget is not None:
        problem = replace(problem,
                          hw_area_budget=problem.hw_area_budget * area)
    names = problem.graph.task_names
    view = Counting(problem)
    model = Fifo(4 * len(names))
    hw = frozenset()
    seen = [hw]
    for flip, which, kind, pick in sequence:
        if flip is not None:
            name = names[flip % len(names)]
            hw = hw - {name} if name in hw else hw | {name}
            seen.append(hw)
        weights = WEIGHTS[which]
        fresh = CompiledProblem(problem)
        before = view.schedules
        if kind == "cost":
            hit = model.call(hw, weights)
            assert_same_cost(view.cost(hw, weights),
                             fresh.cost(hw, weights))
            assert view.schedules - before == (0 if hit else 1)
        elif kind == "given":
            # a caller's evaluation, maybe of another partition: used
            # as given, never taken from or put into the memo
            other = fresh.evaluate(seen[pick % len(seen)])
            assert_same_cost(view.cost(hw, weights, evaluation=other),
                             fresh.cost(hw, weights, evaluation=other))
            assert view.schedules == before
        elif kind == "evaluate":
            assert_same_evaluation(view.evaluate(hw), fresh.evaluate(hw))
            assert view.schedules - before == 1
        else:
            got_trace, want_trace = Tracer(), Tracer()
            assert_same_evaluation(view.evaluate(hw, tracer=got_trace),
                                   fresh.evaluate(hw, tracer=want_trace))
            assert_same_trace(got_trace, want_trace)
            assert view.schedules - before == 1
        assert len(view._memo) <= model.cap


def test_a_repeat_schedules_nothing_and_shares_the_result():
    problem = PartitionProblem(generate("layered", random.Random(5), 9))
    view = Counting(problem)
    names = problem.graph.task_names
    first = view.cost(names[:3], BASE)
    assert view.schedules == 1
    assert view.cost(reversed(names[:3]), BASE) is first
    assert view.schedules == 1
    # an equal-valued but distinct weights object is costed afresh
    again = view.cost(names[:3], CostWeights())
    assert view.schedules == 2
    assert again is not first and repr(again[:2]) == repr(first[:2])


def test_the_memo_keeps_four_entries_per_task():
    problem = PartitionProblem(generate("pipeline", random.Random(2), 3))
    view = Counting(problem)
    names = problem.graph.task_names
    subsets = [frozenset(n for i, n in enumerate(names) if mask >> i & 1)
               for mask in range(8)]
    weights = (BASE, WEIGHTS[1])
    for hw in subsets:  # 16 distinct keys through a cap of 12
        for w in weights:
            view.cost(hw, w)
    assert view.schedules == 16
    assert len(view._memo) == 12
    view.cost(subsets[-1], weights[1])  # newest: still there
    assert view.schedules == 16
    view.cost(subsets[0], weights[0])  # oldest: evicted
    assert view.schedules == 17


def test_bounds_are_read_once():
    """The view costs with the bounds it was built with, memo hit or
    miss, whatever happens to the problem afterwards."""
    problem = PartitionProblem(generate("forkjoin", random.Random(4), 6),
                               deadline_ns=50.0, hw_area_budget=300.0,
                               hw_parallelism=1)
    kept = replace(problem)
    view = CompiledProblem(problem)
    names = problem.graph.task_names
    early = view.cost(names[:2], BASE)
    problem.deadline_ns, problem.hw_area_budget = 1.0, 0.0
    problem.hw_parallelism, problem.use_sharing = None, False
    reference = CompiledProblem(kept)
    assert view.cost(names[:2], BASE) is early
    for hw in (names[:2], names[2:], names):
        assert_same_cost(view.cost(hw, BASE), reference.cost(hw, BASE))
        assert_same_evaluation(view.evaluate(hw), reference.evaluate(hw))


@pytest.mark.parametrize("hw", [["ghost"], ["ghost", "ghost"]])
def test_unknown_tasks_are_never_memoized(hw):
    problem = PartitionProblem(generate("tree", random.Random(1), 4))
    view = CompiledProblem(problem)
    for _ in range(2):
        with pytest.raises(KeyError, match="ghost"):
            view.cost(hw, BASE)
    assert view._memo == {}
