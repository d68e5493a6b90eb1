"""Tests for co-simulation validation of multiprocessor schedules."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cosynth import Allocation, binpack_synthesis, schedule_on
from repro.cosynth.multiproc.cosimulate import simulate_schedule
from repro.estimate.communication import CommModel, TIGHT
from repro.estimate.software import default_processor_library
from repro.graph.generators import periodic_taskset, random_layered_graph
from repro.graph.taskgraph import Task, TaskGraph

LIB = default_processor_library()
NO_COMM = CommModel(sync_overhead_ns=0.0, word_time_ns=0.0)


class TestBasics:
    def test_single_pe_serializes_exactly(self):
        graph = random_layered_graph(random.Random(2), n_tasks=8)
        alloc = Allocation.of({"r32": 1}, LIB)
        schedule = schedule_on(graph, alloc, NO_COMM)
        sim = simulate_schedule(graph, schedule, NO_COMM)
        assert sim.latency_ns == pytest.approx(graph.total_time("sw"))
        assert sim.messages == 0
        assert sim.agreement(schedule) == pytest.approx(1.0)

    def test_cross_pe_edges_become_messages(self):
        graph = TaskGraph()
        graph.add_task(Task("a", sw_time=10.0))
        graph.add_task(Task("b", sw_time=10.0))
        graph.add_edge("a", "b", 8.0)
        alloc = Allocation.of({"r32": 2}, LIB)
        comm = CommModel(sync_overhead_ns=5.0, word_time_ns=1.0)
        schedule = schedule_on(graph, alloc, comm,
                               mapping={"a": "r32#0", "b": "r32#1"})
        sim = simulate_schedule(graph, schedule, comm)
        assert sim.messages == 1
        assert sim.latency_ns == pytest.approx(10 + 13 + 10)
        assert sim.agreement(schedule) == pytest.approx(1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n_pes=st.integers(1, 3))
    @example(seed=106789, n_pes=2)
    @example(seed=838077, n_pes=2)
    @example(seed=248112, n_pes=2)
    def test_simulation_agrees_with_scheduler(self, seed, n_pes):
        """Replaying the mapping and each PE's planned order, the DES
        lands on the analytic makespan (it shares the cost model, not
        the code).  The examples are cases where a PE granted
        first-come-first-served started a task the schedule held back
        (agreement 0.682, 0.643 and 0.621)."""
        graph = random_layered_graph(random.Random(seed), n_tasks=9)
        alloc = Allocation.of({"r32": n_pes}, LIB)
        schedule = schedule_on(graph, alloc, TIGHT)
        sim = simulate_schedule(graph, schedule, TIGHT)
        assert sim.agreement(schedule) == pytest.approx(1.0, rel=1e-9)

    def test_validates_synthesizer_output(self):
        """The Figure 2 nesting: co-synthesis results pass through
        co-simulation before being believed."""
        graph = periodic_taskset(random.Random(5), n_tasks=10,
                                 period=100.0, utilization=1.2)
        result = binpack_synthesis(graph, 100.0, LIB)
        assert result is not None
        sim = simulate_schedule(graph, result.schedule)
        # the simulated system must still meet the deadline (with a
        # modest tolerance for resource-ordering differences)
        assert sim.latency_ns <= result.deadline * 1.25
        assert len(sim.finish_times) == len(graph)


class TestTracedValidation:
    def test_tracer_captures_task_spans_and_pe_contention(self):
        from repro.cosim.trace import TASK, Tracer

        graph = random_layered_graph(random.Random(2), n_tasks=8)
        alloc = Allocation.of({"r32": 1}, LIB)
        schedule = schedule_on(graph, alloc, NO_COMM)
        tracer = Tracer()
        sim = simulate_schedule(graph, schedule, NO_COMM, tracer=tracer)
        spans = tracer.records_of(TASK)
        assert len(spans) == len(graph)
        # span end times match the measured finish times
        for r in spans:
            assert r.time + r.data["duration"] == pytest.approx(
                sim.finish_times[r.name]
            )
        # the serial PE shows up as a traced resource
        grants = tracer.metrics.counters["resource.r32#0.acquisitions"]
        assert grants.value == len(graph)
        assert sim.activations > 0
        assert sum(sim.pe_busy_ns.values()) == pytest.approx(
            graph.total_time("sw")
        )

    def test_untraced_run_matches_traced_run(self):
        from repro.cosim.trace import Tracer

        graph = random_layered_graph(random.Random(7), n_tasks=9)
        alloc = Allocation.of({"r32": 2}, LIB)
        schedule = schedule_on(graph, alloc, TIGHT)
        plain = simulate_schedule(graph, schedule, TIGHT)
        traced = simulate_schedule(graph, schedule, TIGHT,
                                   tracer=Tracer())
        assert plain.latency_ns == pytest.approx(traced.latency_ns)
        assert plain.activations == traced.activations
        assert plain.finish_times == traced.finish_times
