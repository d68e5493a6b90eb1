"""Tests for schedule-based partition evaluation."""

import math
import re

import pytest

from repro.estimate.communication import CommModel
from repro.graph.kernels import jpeg_encoder_taskgraph, modem_taskgraph
from repro.graph.taskgraph import Task, TaskGraph
from repro.partition.evaluate import evaluate_partition, hardware_area
from repro.partition.problem import PartitionProblem

NO_COMM = CommModel(sync_overhead_ns=0.0, word_time_ns=0.0)


def two_parallel_tasks():
    g = TaskGraph()
    g.add_task(Task("a", sw_time=10.0, hw_time=2.0, hw_area=50.0))
    g.add_task(Task("b", sw_time=10.0, hw_time=2.0, hw_area=50.0))
    return g


class TestScheduling:
    def test_all_sw_serializes_on_cpu(self):
        problem = PartitionProblem(two_parallel_tasks(), comm=NO_COMM)
        ev = evaluate_partition(problem, [])
        assert ev.latency_ns == pytest.approx(20.0)
        assert ev.cpu_busy_ns == pytest.approx(20.0)
        assert ev.hw_area == 0.0

    def test_hw_and_sw_overlap(self):
        problem = PartitionProblem(two_parallel_tasks(), comm=NO_COMM)
        ev = evaluate_partition(problem, ["b"])
        # a on CPU (10) overlaps b in HW (2)
        assert ev.latency_ns == pytest.approx(10.0)
        assert ev.overlap_fraction > 0.0

    def test_hw_parallelism_limits_concurrency(self):
        g = TaskGraph()
        for n in "abc":
            g.add_task(Task(n, sw_time=10.0, hw_time=4.0))
        serial = PartitionProblem(g, comm=NO_COMM, hw_parallelism=1)
        parallel = PartitionProblem(g, comm=NO_COMM, hw_parallelism=None)
        ev_serial = evaluate_partition(serial, "abc")
        ev_parallel = evaluate_partition(parallel, "abc")
        assert ev_serial.latency_ns == pytest.approx(12.0)
        assert ev_parallel.latency_ns == pytest.approx(4.0)

    def test_dependencies_respected(self):
        g = TaskGraph()
        g.add_task(Task("a", sw_time=5.0, hw_time=1.0))
        g.add_task(Task("b", sw_time=5.0, hw_time=1.0))
        g.add_edge("a", "b", 1.0)
        problem = PartitionProblem(g, comm=NO_COMM)
        ev = evaluate_partition(problem, [])
        assert ev.start_times["b"] >= 5.0
        assert ev.latency_ns == pytest.approx(10.0)

    def test_communication_charged_on_boundary_only(self):
        g = TaskGraph()
        g.add_task(Task("a", sw_time=5.0, hw_time=1.0))
        g.add_task(Task("b", sw_time=5.0, hw_time=1.0))
        g.add_edge("a", "b", 8.0)
        comm = CommModel(sync_overhead_ns=10.0, word_time_ns=1.0)
        problem = PartitionProblem(g, comm=comm)
        same_side = evaluate_partition(problem, [])
        split = evaluate_partition(problem, ["b"])
        assert same_side.comm_ns == 0.0
        assert split.comm_ns == pytest.approx(18.0)
        assert split.latency_ns == pytest.approx(5.0 + 18.0 + 1.0)

    def test_unknown_task_rejected(self):
        problem = PartitionProblem(two_parallel_tasks())
        with pytest.raises(KeyError):
            evaluate_partition(problem, ["ghost"])

    def test_deadline_flag(self):
        problem = PartitionProblem(
            two_parallel_tasks(), comm=NO_COMM, deadline_ns=15.0
        )
        assert not evaluate_partition(problem, []).deadline_met
        assert evaluate_partition(problem, ["a", "b"]).deadline_met


class TestArea:
    def test_sharing_area_below_naive(self):
        g = modem_taskgraph()
        shared = PartitionProblem(g, use_sharing=True)
        naive = PartitionProblem(g, use_sharing=False)
        hw = ["demod_i", "demod_q", "equalizer"]
        assert hardware_area(shared, hw) < hardware_area(naive, hw)

    def test_empty_partition_zero_area(self):
        problem = PartitionProblem(modem_taskgraph())
        assert hardware_area(problem, []) == 0.0

    def test_sw_size_counts_only_software(self):
        g = two_parallel_tasks()
        problem = PartitionProblem(g, comm=NO_COMM)
        total = sum(t.sw_size for t in g)
        ev_sw = evaluate_partition(problem, [])
        ev_half = evaluate_partition(problem, ["a"])
        assert ev_sw.sw_size == pytest.approx(total)
        assert ev_half.sw_size == pytest.approx(g.task("b").sw_size)


class TestValidation:
    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError):
            PartitionProblem(two_parallel_tasks(), hw_parallelism=0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            PartitionProblem(two_parallel_tasks(), hw_area_budget=-1.0)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "2"])
    def test_non_int_parallelism_rejected(self, value):
        with pytest.raises(ValueError, match=r"hw_parallelism .*got "
                           + re.escape(repr(value))):
            PartitionProblem(two_parallel_tasks(), hw_parallelism=value)

    @pytest.mark.parametrize("field", ["hw_area_budget", "deadline_ns"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf, -1e-9])
    def test_bad_bound_rejected(self, field, value):
        """A NaN bound would add no penalty to the cost yet mark every
        result infeasible; a negative one can never be met."""
        with pytest.raises(ValueError, match=rf"{field} .*got "
                           + re.escape(repr(value))):
            PartitionProblem(two_parallel_tasks(), **{field: value})

    @pytest.mark.parametrize("field", ["hw_area_budget", "deadline_ns"])
    @pytest.mark.parametrize("value", [None, 0, 0.0, -0.0, 12.5, math.inf])
    def test_good_bound_accepted(self, field, value):
        problem = PartitionProblem(two_parallel_tasks(), **{field: value})
        assert getattr(problem, field) is value

    @pytest.mark.parametrize("value", [None, 1, 2, 7])
    def test_good_parallelism_accepted(self, value):
        problem = PartitionProblem(two_parallel_tasks(), hw_parallelism=value)
        assert problem.hw_parallelism is value


class TestTracedEvaluation:
    def test_tracer_records_schedule_profile(self):
        from repro.cosim.trace import COMM, TASK, Tracer

        g = TaskGraph()
        g.add_task(Task("a", sw_time=5.0, hw_time=1.0))
        g.add_task(Task("b", sw_time=5.0, hw_time=2.0))
        g.add_edge("a", "b", 4.0)
        comm = CommModel(sync_overhead_ns=3.0, word_time_ns=1.0)
        problem = PartitionProblem(g, comm=comm)
        tracer = Tracer()
        ev = evaluate_partition(problem, ["b"], tracer=tracer)

        spans = {r.name: r for r in tracer.records_of(TASK)}
        assert spans["a"].data["domain"] == "sw"
        assert spans["b"].data["domain"] == "hw"
        assert spans["a"].time == pytest.approx(ev.start_times["a"])
        assert spans["b"].time == pytest.approx(ev.start_times["b"])

        crossings = tracer.records_of(COMM)
        assert len(crossings) == 1
        assert crossings[0].name == "a->b"
        assert crossings[0].data["delay"] == pytest.approx(ev.comm_ns)

        counters = tracer.metrics.counters
        assert counters["partition.sw.tasks"].value == 1
        assert counters["partition.hw.tasks"].value == 1

    def test_tracer_does_not_change_the_evaluation(self):
        from repro.cosim.trace import Tracer

        g = two_parallel_tasks()
        problem = PartitionProblem(g, comm=NO_COMM)
        plain = evaluate_partition(problem, ["b"])
        traced = evaluate_partition(problem, ["b"], tracer=Tracer())
        assert plain.latency_ns == traced.latency_ns
        assert plain.start_times == traced.start_times
