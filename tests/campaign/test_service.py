"""Tests for the coordinator + shard service and engine integration."""

import pytest

from repro.campaign import (
    CampaignCellError,
    CampaignStore,
    register_runner,
    run_store_jobs,
)
from repro.campaign.runners import RUNNERS
from repro.cosim.metrics import MetricsRegistry
from repro.sweep import SweepCellError, expand_grid, run_cell, run_sweep


def small_grid(heuristics=("greedy", "vulcan"), seeds=range(2)):
    return expand_grid(
        generators=("layered", "pipeline"),
        n_tasks=(6,),
        heuristics=heuristics,
        seeds=seeds,
    )


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store.sqlite")


class TestRunStoreJobs:
    def test_inline_end_to_end(self, store):
        grid = small_grid()
        done = {}
        run_store_jobs(
            store, "sweep",
            [(c.fingerprint, {"config": c.to_dict(), "weights": None})
             for c in grid],
            workers=1,
            on_done=lambda fp, record, obs, el: done.update({fp: record}),
        )
        assert set(done) == {c.fingerprint for c in grid}
        for config in grid:
            assert done[config.fingerprint] == run_cell(config)
            assert store.get(config.fingerprint) == done[config.fingerprint]

    def test_sharded_matches_inline(self, tmp_path):
        grid = small_grid()
        jobs = [
            (c.fingerprint, {"config": c.to_dict(), "weights": None})
            for c in grid
        ]
        inline, sharded = {}, {}
        run_store_jobs(CampaignStore(tmp_path / "a.sqlite"), "sweep",
                       jobs, workers=1,
                       on_done=lambda fp, r, o, e: inline.update({fp: r}))
        run_store_jobs(CampaignStore(tmp_path / "b.sqlite"), "sweep",
                       jobs, workers=3,
                       on_done=lambda fp, r, o, e: sharded.update({fp: r}))
        assert inline == sharded

    def test_elapsed_is_in_worker_time(self, store):
        grid = small_grid(heuristics=("greedy",), seeds=range(1))
        timings = []
        run_store_jobs(
            store, "sweep",
            [(c.fingerprint, {"config": c.to_dict(), "weights": None})
             for c in grid],
            workers=1,
            on_done=lambda fp, r, o, elapsed: timings.append(elapsed),
        )
        assert all(0.0 < t < 60.0 for t in timings)

    def test_failed_cell_raises_with_fingerprint(self, store):
        register_runner("test_boom", _boom_runner)
        try:
            jobs = [("a" * 64, {"ok": True}), ("b" * 64, {"boom": True})]
            done = {}
            with pytest.raises(CampaignCellError) as exc:
                run_store_jobs(store, "test_boom", jobs, workers=1,
                               on_done=lambda fp, r, o, e:
                               done.update({fp: r}))
            assert "b" * 64 in str(exc.value)
            assert set(exc.value.failures) == {"b" * 64}
            # the good cell was committed and delivered before the raise
            assert done == {"a" * 64: {"ok": True}}
            assert store.get("a" * 64) == {"ok": True}
            # the failure burned every attempt
            assert store.queue_counts()["failed"] == 1
        finally:
            del RUNNERS["test_boom"]

    def test_fixed_runner_reruns_only_the_failures(self, store):
        """A cell that failed on every attempt runs again once the
        runner is fixed; the committed good cell is not recomputed."""
        jobs = [("a" * 64, {"ok": True}), ("b" * 64, {"boom": True})]
        calls = []

        def fixed(payload):
            calls.append(payload)
            return dict(payload), None

        register_runner("test_boom", _boom_runner)
        try:
            with pytest.raises(CampaignCellError):
                run_store_jobs(store, "test_boom", jobs, workers=1,
                               on_done=lambda *a: None)
            register_runner("test_boom", fixed)
            done = {}
            run_store_jobs(store, "test_boom", jobs, workers=1,
                           on_done=lambda fp, r, o, e:
                           done.update({fp: r}))
        finally:
            del RUNNERS["test_boom"]
        assert calls == [{"boom": True}]
        assert done == {"a" * 64: {"ok": True}, "b" * 64: {"boom": True}}
        assert store.failed_jobs() == []
        assert store.queue_counts()["done"] == 2

    def test_another_campaigns_failure_is_not_reported(self, store):
        """A cell that failed for good in one campaign does not fail a
        later, healthy campaign on the same store."""
        register_runner("test_boom", _boom_runner)
        try:
            with pytest.raises(CampaignCellError):
                run_store_jobs(store, "test_boom",
                               [("a" * 64, {"boom": True})], workers=1,
                               on_done=lambda *a: None)
            done = {}
            run_store_jobs(store, "test_boom", [("b" * 64, {"ok": 1})],
                           workers=1, on_done=lambda fp, r, o, e:
                           done.update({fp: r}))
        finally:
            del RUNNERS["test_boom"]
        assert done == {"b" * 64: {"ok": 1}}
        assert [fp for fp, _ in store.failed_jobs()] == ["a" * 64]

    def test_unknown_runner_name(self, store):
        with pytest.raises(KeyError, match="no_such_runner"):
            run_store_jobs(store, "no_such_runner",
                           [("a" * 64, {})], workers=1,
                           on_done=lambda *a: None)

    def test_rejects_bad_worker_count(self, store):
        with pytest.raises(ValueError):
            run_store_jobs(store, "sweep", [], workers=0,
                           on_done=lambda *a: None)


def _boom_runner(payload):
    if payload.get("boom"):
        raise RuntimeError("cell exploded")
    return dict(payload), None


class TestRunSweepOnStore:
    def test_tables_byte_identical_across_modes(self, tmp_path):
        grid = small_grid()
        plain = run_sweep(grid, workers=1)
        inline = run_sweep(grid, workers=1,
                           cache=CampaignStore(tmp_path / "a.sqlite"))
        sharded = run_sweep(grid, workers=2,
                            cache=CampaignStore(tmp_path / "b.sqlite"))
        assert inline.to_json() == plain.to_json()
        assert sharded.to_json() == plain.to_json()

    def test_warm_store_recomputes_nothing(self, tmp_path):
        grid = small_grid()
        store = CampaignStore(tmp_path / "s.sqlite")
        run_sweep(grid, workers=2, cache=store)
        metrics = MetricsRegistry()
        warm = run_sweep(grid, workers=2, cache=store, metrics=metrics)
        assert metrics.counter("sweep.cells.computed").value == 0
        assert metrics.counter("sweep.cache.hits").value == len(grid)
        assert warm.to_json() == run_sweep(grid, workers=1).to_json()

    def test_failed_cell_surfaces_as_sweep_cell_error(self, store):
        register_runner("sweep", _sweep_boom, )
        try:
            grid = small_grid(heuristics=("greedy",), seeds=range(2))
            with pytest.raises(SweepCellError) as exc:
                run_sweep(grid, workers=1, cache=store)
            assert exc.value.fingerprint in {c.fingerprint for c in grid}
        finally:
            from repro.campaign.runners import run_sweep_payload

            register_runner("sweep", run_sweep_payload)

    def test_campaign_metrics_counters(self, store):
        grid = small_grid(heuristics=("greedy",))
        metrics = MetricsRegistry()
        run_sweep(grid, workers=1, cache=store, metrics=metrics)
        snap = metrics.snapshot()["counters"]
        assert snap["campaign.jobs.enqueued"] == len(grid)
        assert snap["campaign.jobs.committed"] == len(grid)


def _sweep_boom(payload):
    raise RuntimeError("sweep cell exploded")
