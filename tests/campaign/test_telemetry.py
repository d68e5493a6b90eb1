"""The store's flight-recorder half: the ``telemetry`` table, the
latest-heartbeat view, and heartbeat-aware lease reclaim.

The reclaim contract: owners that never heartbeat are judged exactly
as before (deadline + dead pid), so a telemetry-off campaign's lease
discipline is unchanged; owners that *do* heartbeat are additionally
presumed dead once silent past ``heartbeat_timeout_s`` — catching
hung-but-alive shards long before their lease deadline."""

import os
import time

from repro.campaign.store import CampaignStore
from repro.obs import (
    Obs, StoreRecorder, TelemetryEmitter, TelemetrySample,
)
from repro.sweep import expand_grid, run_sweep


def beat_doc(owner, wall_time, seq=0, **data):
    return TelemetrySample(
        kind="heartbeat", owner=owner, role="shard",
        wall_time=wall_time, mono_time=wall_time, seq=seq, data=data,
    ).to_dict()


def jobs(n):
    return [(f"cell-{i:02d}", {"i": i}) for i in range(n)]


class TestTelemetryTable:
    def test_record_and_read_back_in_order(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        docs = [beat_doc("pid:1", 100.0, seq=0, done=0),
                beat_doc("pid:1", 101.0, seq=1, done=3)]
        assert store.record_telemetry(docs) == 2
        rows = store.telemetry()
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[1]["data"] == {"done": 3}
        assert rows[1]["owner"] == "pid:1"

    def test_kind_and_owner_filters(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        emitter = TelemetryEmitter(StoreRecorder(store), owner="pid:1")
        emitter.heartbeat(done=0)
        emitter.emit("queue", pending=4)
        other = TelemetryEmitter(StoreRecorder(store), owner="pid:2")
        other.heartbeat(done=1)
        assert len(store.telemetry()) == 3
        assert len(store.telemetry(kind="heartbeat")) == 2
        assert len(store.telemetry(owner="pid:1")) == 2
        assert len(store.telemetry(kind="queue", owner="pid:1")) == 1

    def test_latest_heartbeats_is_newest_per_owner(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        store.record_telemetry([
            beat_doc("pid:1", 100.0, seq=0, done=0),
            beat_doc("pid:2", 100.5, seq=0, done=0),
            beat_doc("pid:1", 101.0, seq=1, done=7),
        ])
        latest = store.latest_heartbeats()
        assert set(latest) == {"pid:1", "pid:2"}
        assert latest["pid:1"]["seq"] == 1
        assert latest["pid:1"]["data"] == {"done": 7}

    def test_clear_wipes_telemetry_too(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        store.record_telemetry([beat_doc("pid:1", 100.0)])
        store.clear()
        assert store.telemetry() == []

    def test_leased_jobs_lists_live_leases(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        store.enqueue(jobs(3))
        claimed = store.claim("pid:123", 2)
        held = store.leased_jobs()
        assert [fp for fp, _o, _d, _a in held] == \
            sorted(fp for fp, _payload in claimed)
        assert all(owner == "pid:123" for _fp, owner, _d, _a in held)
        assert all(deadline > time.time()
                   for _fp, _o, deadline, _a in held)


class TestHeartbeatAwareReclaim:
    """All cases use this process's own (alive) pid as the owner, so
    only the heartbeat rule — never the dead-pid rule — can fire."""

    def make(self, tmp_path, **kw):
        kw.setdefault("lease_s", 60.0)
        kw.setdefault("heartbeat_timeout_s", 5.0)
        store = CampaignStore(tmp_path / "c.sqlite", **kw)
        store.enqueue(jobs(2))
        owner = f"pid:{os.getpid()}"
        claimed = store.claim(owner, 1)
        assert claimed
        return store, owner

    def test_silent_heartbeat_owner_is_reclaimed(self, tmp_path):
        store, owner = self.make(tmp_path)
        store.record_telemetry(
            [beat_doc(owner, time.time() - 60.0, done=1)]
        )
        assert store.reclaim_stale() == 1
        assert store.leased_jobs() == []

    def test_fresh_heartbeat_keeps_the_lease(self, tmp_path):
        store, owner = self.make(tmp_path)
        store.record_telemetry([beat_doc(owner, time.time(), done=1)])
        assert store.reclaim_stale() == 0
        assert len(store.leased_jobs()) == 1

    def test_owner_that_never_heartbeat_is_untouched(self, tmp_path):
        # telemetry-off behaviour: live pid + live deadline = live
        # lease, even with other owners' samples in the table
        store, _owner = self.make(tmp_path)
        store.record_telemetry(
            [beat_doc("pid:999999", time.time() - 60.0, done=1)]
        )
        assert store.reclaim_stale() == 0
        assert len(store.leased_jobs()) == 1

    def test_expired_deadline_wins_over_fresh_heartbeat(self, tmp_path):
        store, owner = self.make(tmp_path, lease_s=0.01,
                                 heartbeat_timeout_s=60.0)
        time.sleep(0.05)
        store.record_telemetry([beat_doc(owner, time.time(), done=1)])
        assert store.reclaim_stale() == 1

    def test_only_the_silent_owner_loses_its_lease(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite", lease_s=60.0,
                              heartbeat_timeout_s=5.0)
        store.enqueue(jobs(4))
        quiet = f"pid:{os.getpid()}"
        hung = f"hung:{os.getpid()}"
        store.claim(quiet, 1)
        hung_fp = store.claim(hung, 1)[0][0]
        store.record_telemetry(
            [beat_doc(hung, time.time() - 60.0, done=0)]
        )
        assert store.reclaim_stale() == 1
        still_held = {owner for _fp, owner, _d, _a
                      in store.leased_jobs()}
        assert still_held == {quiet}
        # the reclaimed cell is immediately claimable again
        refp = [fp for fp, _payload in store.claim("pid:777", 4)]
        assert hung_fp in refp


class TestServiceHeartbeats:
    def test_sharded_run_records_all_streams(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        grid = expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy",), seeds=range(4))
        run_sweep(grid, workers=2, cache=store,
                  obs=Obs(recorder=StoreRecorder(store)))
        rows = store.telemetry()
        kinds = {r["kind"] for r in rows}
        assert "heartbeat" in kinds and "queue" in kinds
        roles = {r["role"] for r in rows}
        assert "coordinator" in roles and "shard" in roles
        # shard owners are their lease owners, so reclaim and the
        # post-mortem can match heartbeats to leases
        shard_owners = {r["owner"] for r in rows
                        if r["role"] == "shard"}
        assert shard_owners
        assert all(o.startswith("pid:") for o in shard_owners)
        # the coordinator's last heartbeat says it exited cleanly
        coord = [r for r in rows if r["role"] == "coordinator"
                 and r["kind"] == "heartbeat"]
        assert coord[-1]["data"].get("exiting") is True

    def test_in_process_run_records_both_streams(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        grid = expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy",), seeds=range(2))
        run_sweep(grid, workers=1, cache=store,
                  obs=Obs(recorder=StoreRecorder(store)))
        roles = {r["role"] for r in store.telemetry()}
        assert roles == {"coordinator", "shard"}
        # distinct owner prefixes keep the two same-pid streams apart
        owners = {r["owner"] for r in store.telemetry()}
        assert f"coord:{os.getpid()}" in owners
        assert f"pid:{os.getpid()}" in owners
