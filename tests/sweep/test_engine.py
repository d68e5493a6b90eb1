"""Tests for the sweep engine: determinism, caching, parallelism.

The two load-bearing guarantees (ISSUE 2's determinism satellite):

* identical grid + seeds produce *byte-identical* result tables at
  ``workers=1`` and ``workers=4``;
* a second run against a warm store recomputes nothing, asserted
  through the PR 1 metrics layer rather than by timing.
"""

import pytest

from repro.campaign import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.cosim.trace import Tracer
from repro.obs.spans import SpanTracer
from repro.partition import HEURISTICS
from repro.sweep import (
    SweepCellError,
    SweepConfig,
    SweepResult,
    expand_grid,
    run_cell,
    run_sweep,
)


def small_grid(heuristics=("greedy", "vulcan"), seeds=range(2)):
    return expand_grid(
        generators=("layered", "pipeline"),
        n_tasks=(6,),
        heuristics=heuristics,
        seeds=seeds,
    )


class TestRunCell:
    def test_record_shape(self):
        config = SweepConfig(n_tasks=6, heuristic="greedy", seed=1)
        record = run_cell(config)
        assert record["fingerprint"] == config.fingerprint
        assert record["problem_key"] == config.problem_key()
        assert record["config"] == config.to_dict()
        assert record["algorithm"] == "greedy"
        assert record["n_hw"] + record["n_sw"] == record["n_tasks"]
        assert sorted(record["hw_tasks"]) == record["hw_tasks"]
        assert set(record["breakdown"]) == {
            "performance", "implementation_cost", "modifiability",
            "nature", "concurrency", "communication",
        }

    def test_record_is_deterministic(self):
        config = SweepConfig(n_tasks=7, heuristic="annealing", seed=3)
        assert run_cell(config) == run_cell(config)

    def test_stochastic_heuristic_seeded_per_cell(self):
        """Two cells differing only in seed see different problems AND
        different annealing trajectories."""
        a = run_cell(SweepConfig(n_tasks=8, heuristic="annealing", seed=0))
        b = run_cell(SweepConfig(n_tasks=8, heuristic="annealing", seed=1))
        assert a["fingerprint"] != b["fingerprint"]
        assert a != b


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        grid = small_grid()
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=4)
        assert serial.to_json() == parallel.to_json()

    def test_table_order_follows_grid_order(self):
        grid = small_grid()
        table = run_sweep(grid, workers=1)
        assert [r["fingerprint"] for r in table] == \
            [c.fingerprint for c in grid]

    def test_roundtrip_through_json(self, tmp_path):
        table = run_sweep(small_grid(), workers=1)
        path = tmp_path / "table.json"
        table.write_json(path)
        loaded = SweepResult.load(path)
        assert loaded == table
        assert loaded.to_json() == table.to_json()


class TestCaching:
    def test_second_run_is_fully_cached(self, tmp_path):
        grid = small_grid()
        cache = CampaignStore(tmp_path / "cache.sqlite")

        cold_metrics = MetricsRegistry()
        cold = run_sweep(grid, workers=1, cache=cache,
                         metrics=cold_metrics)
        assert cold_metrics.counter("sweep.cells.computed").value \
            == len(grid)
        assert cold_metrics.counter("sweep.cache.hits").value == 0

        warm_metrics = MetricsRegistry()
        warm = run_sweep(grid, workers=1, cache=cache,
                         metrics=warm_metrics)
        # zero recomputation, asserted via the metrics layer
        assert warm_metrics.counter("sweep.cells.computed").value == 0
        assert warm_metrics.counter("sweep.cache.hits").value == len(grid)
        assert warm.to_json() == cold.to_json()

    def test_incremental_grid_extension(self, tmp_path):
        cache = CampaignStore(tmp_path / "cache.sqlite")
        base = small_grid(heuristics=("greedy",))
        run_sweep(base, workers=1, cache=cache)

        extended = small_grid(heuristics=("greedy", "cosyma"))
        metrics = MetricsRegistry()
        table = run_sweep(extended, workers=1, cache=cache,
                          metrics=metrics)
        new_cells = len(extended) - len(base)
        assert metrics.counter("sweep.cells.computed").value == new_cells
        assert metrics.counter("sweep.cache.hits").value == len(base)
        assert len(table) == len(extended)

    def test_parallel_run_populates_cache(self, tmp_path):
        grid = small_grid()
        cache = CampaignStore(tmp_path / "cache.sqlite")
        run_sweep(grid, workers=2, cache=cache)
        assert len(cache) == len(grid)
        metrics = MetricsRegistry()
        run_sweep(grid, workers=1, cache=cache, metrics=metrics)
        assert metrics.counter("sweep.cells.computed").value == 0

    def test_duplicate_cells_computed_once(self):
        grid = expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy",), seeds=[0, 0, 0])
        metrics = MetricsRegistry()
        table = run_sweep(grid, workers=1, metrics=metrics)
        assert len(table) == 3
        assert metrics.counter("sweep.cells.computed").value == 1
        assert table.stats.duplicates == 2
        assert len({r["fingerprint"] for r in table}) == 1


class TestObservability:
    def test_tracer_records_cells(self, tmp_path):
        grid = small_grid(heuristics=("greedy",))
        tracer = Tracer()
        cache = CampaignStore(tmp_path / "cache.sqlite")
        run_sweep(grid, workers=1, cache=cache, tracer=tracer)
        cells = tracer.records_of("sweep_cell")
        assert len(cells) == len(grid)
        assert all(r.data["cached"] is False for r in cells)

        warm_tracer = Tracer()
        run_sweep(grid, workers=1, cache=cache, tracer=warm_tracer)
        cells = warm_tracer.records_of("sweep_cell")
        assert all(r.data["cached"] is True for r in cells)

    def test_stats_summary_text(self):
        table = run_sweep(small_grid(heuristics=("greedy",)), workers=1)
        text = table.stats.summary()
        assert "cells" in text and "computed" in text

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep(small_grid(), workers=0)


class TestTable:
    def test_comparison_report_lists_heuristics(self):
        table = run_sweep(small_grid(), workers=1)
        report = table.comparison_report()
        assert "greedy" in report and "vulcan" in report
        assert len(report.splitlines()) == 2 + len(table.heuristics())

    def test_wins_sum_over_compared_problems(self):
        table = run_sweep(small_grid(), workers=1)
        contested = [
            records for records in table.by_problem().values()
            if len(records) >= 2
        ]
        assert sum(table.wins().values()) == len(contested)

    def test_by_problem_groups_heuristics_together(self):
        table = run_sweep(small_grid(), workers=1)
        for records in table.by_problem().values():
            keys = {r["problem_key"] for r in records}
            assert len(keys) == 1

    def test_empty_table(self):
        table = SweepResult([])
        assert table.comparison_report() == "(empty sweep)"
        assert table.wins() == {}


def _boom_heuristic(problem, weights=None, seed=None, probe=None):
    raise RuntimeError("heuristic exploded")


class TestSweepCrashPath:
    def grid(self):
        return expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy", "vulcan"), seeds=range(1))

    def test_failure_names_cell_and_preserves_rows(self, monkeypatch,
                                                   tmp_path):
        grid = self.grid()
        monkeypatch.setitem(HEURISTICS, "vulcan", _boom_heuristic)
        cache = CampaignStore(tmp_path / "cache.sqlite")
        with pytest.raises(SweepCellError) as exc:
            run_sweep(grid, workers=1, cache=cache)
        err = exc.value
        vulcan = {c.fingerprint for c in grid if c.heuristic == "vulcan"}
        greedy = {c.fingerprint for c in grid if c.heuristic == "greedy"}
        assert err.fingerprint in vulcan
        assert err.heuristic == "vulcan"
        # completed rows are real records, never the {} placeholder
        assert set(err.completed) == greedy
        assert all(r["cost"] is not None for r in err.completed.values())
        # ... and they reached the cache, so a re-run skips them
        for fingerprint in greedy:
            assert cache.get(fingerprint) is not None

    def test_failure_exits_the_sweep_span(self, monkeypatch):
        grid = self.grid()
        monkeypatch.setitem(HEURISTICS, "vulcan", _boom_heuristic)
        tracer = SpanTracer()
        with pytest.raises(SweepCellError):
            run_sweep(grid, workers=1, span_tracer=tracer)
        assert tracer.current is None, "sweep span left open on failure"
        (sweep_span,) = tracer.spans_named("sweep")
        assert sweep_span.end > sweep_span.start
