"""Tests for the five partitioning algorithms."""

import math
import random

import pytest

from repro.estimate.communication import TIGHT, CommModel
from repro.graph.generators import random_layered_graph
from repro.graph.kernels import jpeg_encoder_taskgraph, modem_taskgraph
from repro.partition import (
    HEURISTIC_KNOBS,
    HEURISTICS,
    CostWeights,
    PartitionProblem,
    ProgressProbe,
    cosyma_partition,
    evaluate_partition,
    gclp_partition,
    greedy_partition,
    kernighan_lin,
    simulated_annealing,
    vulcan_partition,
)

ALGOS = {
    "greedy": greedy_partition,
    "kl": kernighan_lin,
    "vulcan": vulcan_partition,
    "cosyma": cosyma_partition,
    "sa": lambda p, **kw: simulated_annealing(
        p, rng=random.Random(7), **kw
    ),
}


def jpeg_problem(**kwargs):
    defaults = dict(hw_area_budget=600.0, deadline_ns=90.0, comm=TIGHT)
    defaults.update(kwargs)
    return PartitionProblem.from_task_graph(
        jpeg_encoder_taskgraph(), **defaults
    )


class TestAllAlgorithms:
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_beats_all_software_on_jpeg(self, name):
        problem = jpeg_problem()
        result = ALGOS[name](problem)
        all_sw = evaluate_partition(problem, [])
        assert result.evaluation.latency_ns < all_sw.latency_ns
        assert result.evaluation.deadline_met

    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_partitions_are_valid_subsets(self, name):
        problem = jpeg_problem()
        result = ALGOS[name](problem)
        names = set(problem.graph.task_names)
        assert set(result.hw_tasks) <= names
        assert set(result.sw_tasks) == names - set(result.hw_tasks)

    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_result_reports_consistent_cost(self, name):
        from repro.partition.cost import partition_cost

        problem = jpeg_problem()
        result = ALGOS[name](problem)
        recomputed, _b, _e = partition_cost(problem, result.hw_tasks)
        assert result.cost == pytest.approx(recomputed)

    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_deterministic(self, name):
        a = ALGOS[name](jpeg_problem())
        b = ALGOS[name](jpeg_problem())
        assert a.hw_tasks == b.hw_tasks
        assert a.cost == pytest.approx(b.cost)


class TestAlgorithmCharacter:
    def test_vulcan_starts_hardware_first(self):
        """Vulcan must keep performance at the all-HW level (no deadline
        given) while shedding hardware."""
        problem = PartitionProblem.from_task_graph(
            modem_taskgraph(), comm=TIGHT
        )
        result = vulcan_partition(problem, slack_factor=1.0)
        all_hw = evaluate_partition(problem, problem.graph.task_names)
        assert result.evaluation.latency_ns <= all_hw.latency_ns + 1e-9
        assert result.evaluation.hw_area <= all_hw.hw_area

    def test_vulcan_slack_trades_area_for_time(self):
        problem = PartitionProblem.from_task_graph(
            modem_taskgraph(), comm=TIGHT
        )
        strict = vulcan_partition(problem, slack_factor=1.0)
        relaxed = vulcan_partition(problem, slack_factor=2.0)
        assert relaxed.evaluation.hw_area <= strict.evaluation.hw_area

    def test_cosyma_moves_hot_tasks_first(self):
        """With a deadline, COSYMA-style extraction targets the stages
        with the best speedup-per-area (the DCT, not the Huffman)."""
        problem = jpeg_problem(deadline_ns=120.0)
        result = cosyma_partition(problem)
        assert "dct2d" in result.hw_tasks
        assert "huffman" not in result.hw_tasks

    def test_cosyma_respects_area_budget(self):
        problem = jpeg_problem(hw_area_budget=150.0, deadline_ns=None)
        result = cosyma_partition(problem)
        assert result.evaluation.hw_area <= 150.0

    def test_kl_escapes_greedy_trap(self):
        """On a comm-heavy pipeline, single moves are all losing but the
        full-pipeline move wins; KL's lookahead must do at least as well
        as greedy."""
        expensive = CommModel(sync_overhead_ns=20.0, word_time_ns=2.0)
        problem = jpeg_problem(comm=expensive, deadline_ns=90.0)
        g = greedy_partition(problem)
        k = kernighan_lin(problem)
        assert k.cost <= g.cost + 1e-9

    def test_sa_seed_controls_trajectory(self):
        problem = jpeg_problem()
        a = simulated_annealing(problem, rng=random.Random(1))
        b = simulated_annealing(problem, rng=random.Random(1))
        assert a.hw_tasks == b.hw_tasks

    def test_moves_evaluated_counted(self):
        result = greedy_partition(jpeg_problem())
        assert result.moves_evaluated > 0


class TestSeedPlumbing:
    """ISSUE 2: every heuristic accepts the uniform ``seed``/``rng``
    interface, and seeds actually steer the stochastic ones."""

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_uniform_seed_interface(self, name):
        """The sweep engine calls every heuristic the same way."""
        result = HEURISTICS[name](jpeg_problem(), seed=3)
        assert result.hw_tasks is not None

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_seed_and_rng_are_exclusive(self, name):
        with pytest.raises(ValueError):
            HEURISTICS[name](
                jpeg_problem(), seed=1, rng=random.Random(1)
            )

    def test_sa_seed_kwarg_is_deterministic(self):
        problem = jpeg_problem()
        a = simulated_annealing(problem, seed=5)
        b = simulated_annealing(problem, seed=5)
        assert a.hw_tasks == b.hw_tasks
        assert a.cost == pytest.approx(b.cost)

    def test_sa_seed_matches_equivalent_rng(self):
        problem = jpeg_problem()
        by_seed = simulated_annealing(problem, seed=9)
        by_rng = simulated_annealing(problem, rng=random.Random(9))
        assert by_seed.hw_tasks == by_rng.hw_tasks

    def test_sa_default_still_random_zero(self):
        """No seed and no rng keeps the historical Random(0) default."""
        problem = jpeg_problem()
        default = simulated_annealing(problem)
        explicit = simulated_annealing(problem, seed=0)
        assert default.hw_tasks == explicit.hw_tasks

    def test_sa_distinct_seeds_explore_distinct_neighborhoods(self):
        """Regression for the hardcoded-Random(0) bug: distinct seeds
        must produce distinct search trajectories.  A short hot schedule
        keeps the walk from converging, so trajectory differences stay
        visible in the outcome."""
        graph = random_layered_graph(random.Random(17), n_tasks=12)
        problem = PartitionProblem.from_task_graph(graph, comm=TIGHT)
        outcomes = {
            simulated_annealing(
                problem, seed=s, steps_per_temperature=2,
                cooling=0.5, final_temperature_ratio=0.5,
            ).hw_tasks
            for s in range(6)
        }
        assert len(outcomes) > 1


#: (heuristic, knob, value) outside the knob's domain; before the
#: checks, a cooling of 1.0 never returned, a ratio of 0.0 ran for
#: minutes, NaN/0/negative cooling stopped after one level, a bad
#: initial temperature or a count below 1 returned the seed partition
#: after no move, and a float count failed with a bare TypeError
BAD_KNOBS = [
    *(("annealing", "cooling", v)
      for v in (1.0, math.nan, 0.0, -0.5, 1.5, math.inf)),
    *(("annealing", "final_temperature_ratio", v)
      for v in (0.0, 1.0, math.nan, -1e-3, math.inf)),
    *(("annealing", "initial_temperature", v)
      for v in (math.nan, -1.0, 0.0, math.inf)),
    *(("annealing", "steps_per_temperature", v)
      for v in (-3, 0, 2.5, 20.0, True, "20")),
    *(("greedy", "max_iterations", v) for v in (-1, 0, 2.5, 5.0, True)),
    *(("kl", "max_passes", v) for v in (-1, 0, 2.5, 4.0, False)),
    *(("vulcan", "slack_factor", v)
      for v in (math.nan, -1.0, 0.0, math.inf)),
    *(("gclp", "base_threshold", v)
      for v in (math.nan, math.inf, 5.0, -0.1, 1.01)),
    *(("gclp", "extremity_gain", v) for v in (math.nan, math.inf, -0.25)),
]


class TestKnobValidation:
    @staticmethod
    def problem():
        graph = random_layered_graph(random.Random(5), n_tasks=6)
        return PartitionProblem.from_task_graph(graph, comm=TIGHT)

    @pytest.mark.parametrize("heuristic,knob,value", BAD_KNOBS)
    def test_out_of_domain_knob_rejected_before_the_first_move(
        self, heuristic, knob, value
    ):
        probe = ProgressProbe()
        with pytest.raises(ValueError, match=rf"{heuristic}\.{knob} "):
            HEURISTICS[heuristic](self.problem(), probe=probe,
                                  **{knob: value})
        assert probe.records == []

    @pytest.mark.parametrize("heuristic",
                             ["greedy", "kl", "annealing", "vulcan", "gclp"])
    def test_every_grid_value_is_accepted(self, heuristic):
        problem = self.problem()
        for knob in HEURISTIC_KNOBS[heuristic]:
            for value in knob.values:
                result = HEURISTICS[heuristic](problem, **{knob.name: value})
                assert result.moves_evaluated > 0

    @pytest.mark.parametrize("knob,value", [
        ("base_threshold", 0.0), ("base_threshold", 1.0),
        ("extremity_gain", 0.0), ("extremity_gain", 3.0),
    ])
    def test_gclp_domain_edges_accepted(self, knob, value):
        result = gclp_partition(self.problem(), **{knob: value})
        assert result.moves_evaluated > 0

    @pytest.mark.parametrize("value", [None, 1e-6, 5.0])
    def test_initial_temperature_domain_edges_accepted(self, value):
        result = simulated_annealing(self.problem(),
                                     initial_temperature=value)
        assert result.moves_evaluated > 0


class TestOnRandomGraphs:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_partitioners_agree_on_feasibility(self, seed):
        graph = random_layered_graph(random.Random(seed), n_tasks=10)
        deadline = graph.critical_path("sw")[0] * 0.7
        problem = PartitionProblem.from_task_graph(
            graph, deadline_ns=deadline, comm=TIGHT,
            hw_parallelism=None,
        )
        results = {
            name: fn(problem) for name, fn in ALGOS.items()
        }
        # at least the explicitly deadline-driven methods must meet it
        assert results["cosyma"].evaluation.deadline_met
        assert results["vulcan"].evaluation.deadline_met
        # nobody may return a *worse* cost than doing nothing
        from repro.partition.cost import partition_cost

        idle_cost, _b, _e = partition_cost(problem, [])
        for name, result in results.items():
            assert result.cost <= idle_cost + 1e-9, name

    def test_summary_text(self):
        result = greedy_partition(jpeg_problem())
        text = result.summary()
        assert "greedy" in text
        assert "latency" in text
