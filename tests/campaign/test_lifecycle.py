"""The shard lifecycle and the one dispatch every engine calls.

* A shard exits as soon as a claim comes back empty — it never sleeps
  waiting for a peer's lease.
* A shard killed mid-cell leaves leases the coordinator reclaims,
  starting a replacement shard, so the cells finish in the same run
  and the table is byte-identical to an uninterrupted run.
* With no shard left and runnable jobs nobody holds, the run stops
  with :class:`CampaignInterrupted`.
* :func:`run_cells` runs in-process with no store at one worker and
  on a temporary store otherwise, which it deletes.
"""

import os
import signal
import tempfile
import time

import pytest

from repro.campaign import (
    CampaignInterrupted,
    CampaignStore,
    register_runner,
    run_cells,
    run_store_jobs,
)
from repro.campaign import service
from repro.campaign.runners import RUNNERS, run_sweep_payload
from repro.cosim.metrics import MetricsRegistry
from repro.obs import Obs
from repro.sweep import expand_grid, run_sweep

GRID = dict(generators=("layered", "pipeline"), n_tasks=(6,),
            heuristics=("greedy", "vulcan"), seeds=range(2))


def sweep_jobs(grid):
    return [(c.fingerprint, {"config": c.to_dict(), "weights": None})
            for c in grid]


class NoSleep:
    """``service.time`` stand-in whose sleep fails the test."""

    perf_counter = staticmethod(time.perf_counter)

    @staticmethod
    def sleep(seconds):
        raise AssertionError(f"shard slept {seconds}s")


class TestIdleExit:
    @pytest.mark.parametrize("peer", ["pid", "remote:peer"])
    def test_empty_claim_returns_while_a_live_peer_holds_the_lease(
            self, tmp_path, monkeypatch, peer):
        monkeypatch.setattr(service, "time", NoSleep)
        owner = f"pid:{os.getpid()}" if peer == "pid" else peer
        store = CampaignStore(tmp_path / "s.sqlite")
        (job,) = sweep_jobs(expand_grid(**GRID)[:1])
        store.enqueue([job])
        assert len(store.claim(owner, 1)) == 1
        service._run_shard(store, "sweep", 2, None)
        # the peer's lease is untouched: same owner, one attempt
        (leased,) = store.leased_jobs()
        assert (leased[0], leased[1], leased[3]) == (job[0], owner, 1)

    def test_idle_shard_beats_exiting_before_it_returns(self, tmp_path):
        store = CampaignStore(tmp_path / "s.sqlite")
        (job,) = sweep_jobs(expand_grid(**GRID)[:1])
        store.enqueue([job])
        store.claim("remote:peer", 1)
        service._run_shard(store, "sweep", 2, 60.0)
        beats = store.telemetry(kind="heartbeat",
                                owner=f"pid:{os.getpid()}")
        assert beats[-1]["data"]["exiting"] is True
        assert beats[-1]["data"]["done"] == 0


#: the cell whose first run kills its shard, and the file that says it
#: already did; forked shards inherit both
KILL = {"fingerprint": None, "marker": None}


def _kill_once(payload, obs=None):
    from repro.sweep import SweepConfig

    fingerprint = SweepConfig.from_dict(payload["config"]).fingerprint
    if fingerprint == KILL["fingerprint"] and \
            not os.path.exists(KILL["marker"]):
        with open(KILL["marker"], "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return run_sweep_payload(payload, obs)


@pytest.fixture
def kill_once(tmp_path):
    grid = expand_grid(**GRID)
    KILL["fingerprint"] = sorted(c.fingerprint for c in grid)[2]
    KILL["marker"] = str(tmp_path / "killed")
    register_runner("sweep", _kill_once)
    try:
        yield grid
    finally:
        register_runner("sweep", run_sweep_payload)


class TestReplacementShard:
    def test_killed_shard_finishes_in_the_same_run(self, tmp_path,
                                                   kill_once):
        grid = kill_once
        store = CampaignStore(tmp_path / "s.sqlite")
        metrics = MetricsRegistry()
        table = run_sweep(grid, workers=2, cache=store,
                          obs=Obs(metrics=metrics))
        # a shard really died mid-cell, and not the coordinator
        with open(KILL["marker"], encoding="utf-8") as fh:
            assert int(fh.read()) != os.getpid()
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.leases.reclaimed"] >= 1
        assert counters["sweep.cells.computed"] == len(grid)
        # the killed cell ran twice; the rest of the killed shard's
        # uncommitted batch did too, every other cell once
        attempts = dict(store.conn.execute(
            "SELECT fingerprint, attempts FROM jobs WHERE state = 'done'"))
        assert len(attempts) == len(grid)
        assert attempts.pop(KILL["fingerprint"]) == 2
        assert set(attempts.values()) <= {1, 2}
        register_runner("sweep", run_sweep_payload)
        assert table.to_json() == run_sweep(grid, workers=1).to_json()

    def test_no_live_shard_and_unheld_jobs_interrupts(self, tmp_path):
        store = CampaignStore(tmp_path / "s.sqlite")
        jobs = sweep_jobs(expand_grid(**GRID)[:3])
        # every shard dies before its first claim
        with pytest.raises(CampaignInterrupted, match="3 runnable"):
            run_store_jobs(store, "no_such_runner", jobs, workers=2,
                           on_done=lambda *a: None)
        assert store.queue_counts()["pending"] == 3


class TestRunCells:
    def test_in_process_errors_propagate_unwrapped(self, monkeypatch):
        def boom(payload, obs=None):
            raise ZeroDivisionError("cell exploded")

        monkeypatch.setitem(RUNNERS, "test_boom", boom)
        monkeypatch.setattr(CampaignStore, "__init__", _no_store)
        with pytest.raises(ZeroDivisionError, match="cell exploded"):
            run_cells([("a" * 64, {})], "test_boom", 1,
                      lambda *a: None)

    def test_one_worker_without_a_store_opens_none(self, monkeypatch):
        monkeypatch.setattr(CampaignStore, "__init__", _no_store)
        grid = expand_grid(**GRID)
        done = {}
        run_cells(sweep_jobs(grid), "sweep", 1,
                  lambda fp, record, obs, elapsed: done.update(
                      {fp: record}))
        assert list(done) == [c.fingerprint for c in grid]

    def test_workers_without_a_store_use_a_deleted_temporary_one(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        grid = expand_grid(**GRID)
        done = {}
        run_cells(sweep_jobs(grid), "sweep", 2,
                  lambda fp, record, obs, elapsed: done.update(
                      {fp: record}))
        assert set(done) == {c.fingerprint for c in grid}
        assert list(tmp_path.iterdir()) == []

    def test_nothing_to_run_opens_no_store(self, monkeypatch):
        monkeypatch.setattr(CampaignStore, "__init__", _no_store)
        run_cells([], "sweep", 4, lambda *a: None)


def _no_store(self, *args, **kwargs):
    raise AssertionError("a store was opened")
