"""Crash post-mortems: synthetic verdict/suspect units, and the
acceptance test from the issue — SIGKILL a sharded campaign with the
flight recorder armed, then reconstruct, from the store alone, which
shard died, its last heartbeat, and the exact uncommitted cells it
was holding.

The SIGKILL harness mirrors ``tests/campaign/test_resume.py``: the
victim runs in its own process group so one ``killpg`` takes down
coordinator and shards together."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignStore
from repro.obs import SpanTracer, TelemetrySample, post_mortem
from repro.obs.postmortem import owner_pid


def beat(owner, wall_time, role="shard", seq=0, **data):
    return TelemetrySample(
        kind="heartbeat", owner=owner, role=role,
        wall_time=wall_time, mono_time=wall_time, seq=seq, data=data,
    )


class TestOwnerPid:
    def test_parses_every_owner_shape(self):
        assert owner_pid("pid:123") == 123
        assert owner_pid("coord:45") == 45
        assert owner_pid("explore:6") == 6
        assert owner_pid("7") == 7

    def test_rejects_pidless_owners(self):
        assert owner_pid("gpu-box-3") is None
        assert owner_pid("pid:12:extra") is None


class TestVerdicts:
    NOW = 1000.0

    def report(self, samples, alive=(), timeout=10.0):
        return post_mortem(
            samples=samples, now_wall=self.NOW,
            silence_timeout_s=timeout,
            pid_alive=lambda pid: pid in alive,
        )

    def test_exited_dead_hung_live(self):
        report = self.report(
            [
                beat("coord:1", self.NOW - 50.0, role="coordinator",
                     exiting=True),
                beat("pid:2", self.NOW - 50.0, done=3),
                beat("pid:3", self.NOW - 50.0, done=4),
                beat("pid:4", self.NOW - 1.0, done=5),
            ],
            alive={3, 4},
        )
        verdicts = {o["owner"]: o["verdict"] for o in report.owners}
        assert verdicts == {
            "coord:1": "exited",   # said goodbye: pid gone is fine
            "pid:2": "dead",       # pid gone, no goodbye
            "pid:3": "hung",       # alive but silent past timeout
            "pid:4": "live",
        }
        assert report.dead_owners() == ["pid:2", "pid:3"]

    def test_last_heartbeat_is_preserved_verbatim(self):
        sample = beat("pid:2", self.NOW - 3.0, seq=9, done=7,
                      in_flight=2)
        report = self.report([beat("pid:2", self.NOW - 8.0, seq=8),
                              sample], alive={2})
        (owner,) = report.owners
        assert owner["last_heartbeat"] == sample.to_dict()
        assert owner["age_s"] == pytest.approx(3.0)


class TestStoreReconstruction:
    def make_store(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite", max_attempts=1)
        store.enqueue([(f"cell-{i}", {"i": i}) for i in range(5)])
        return store

    def test_suspects_are_leases_of_gone_owners(self, tmp_path):
        store = self.make_store(tmp_path)
        dead_fp = store.claim("pid:21", 1)[0][0]
        live_fp = store.claim("pid:22", 1)[0][0]
        ghost_fp = store.claim("pid:23", 1)[0][0]  # never heartbeat
        now = time.time()
        store.record_telemetry([
            beat("pid:21", now).to_dict(),
            beat("pid:22", now).to_dict(),
        ])
        report = post_mortem(store=store, now_wall=now,
                             pid_alive=lambda pid: pid == 22)
        assert {u["fingerprint"] for u in report.uncommitted} == \
            {dead_fp, live_fp, ghost_fp}
        # dead heartbeater + dead never-heartbeater are suspects; the
        # live owner's lease is work in progress, not a suspect
        assert sorted(report.suspects) == sorted([dead_fp, ghost_fp])
        assert report.queue["leased"] == 3
        assert report.queue["pending"] == 2

    def test_failed_cells_are_reported(self, tmp_path):
        store = self.make_store(tmp_path)
        fp = store.claim("pid:21", 1)[0][0]
        store.fail("pid:21", fp, "ValueError: boom")
        report = post_mortem(store=store,
                             pid_alive=lambda pid: True)
        assert report.failed == [
            {"fingerprint": fp, "error": "ValueError: boom"}
        ]

    def test_markdown_names_owners_and_suspects(self, tmp_path):
        store = self.make_store(tmp_path)
        fp = store.claim("pid:21", 1)[0][0]
        now = time.time()
        store.record_telemetry(
            [beat("pid:21", now, seq=4, done=2).to_dict()]
        )
        report = post_mortem(store=store, now_wall=now,
                             pid_alive=lambda pid: False)
        text = report.to_markdown()
        assert "`pid:21`" in text and "**dead**" in text
        assert "seq=4" in text and '"done": 2' in text
        assert f"`{fp}`" in text and "**suspect**" in text

    def test_json_roundtrips(self, tmp_path):
        import json

        store = self.make_store(tmp_path)
        store.claim("pid:21", 1)
        report = post_mortem(store=store,
                             pid_alive=lambda pid: False)
        doc = json.loads(report.to_json())
        assert doc["suspects"] == report.suspects
        assert len(doc["uncommitted"]) == 1

    def test_post_mortem_is_read_only(self, tmp_path):
        store = self.make_store(tmp_path)
        store.claim("pid:21", 1)
        before = (store.queue_counts(), store.leased_jobs(),
                  len(store.telemetry()))
        post_mortem(store=store, pid_alive=lambda pid: False)
        after = (store.queue_counts(), store.leased_jobs(),
                 len(store.telemetry()))
        assert before == after


class TestUnfinishedSpans:
    def test_open_spans_appear_in_the_report(self):
        tracer = SpanTracer(pid=1, tid=1)
        # hold the managers open: these spans never close, like a run
        # that died mid-cell
        outer = tracer.span("campaign")
        inner = tracer.span("cell", fingerprint="abc")
        outer.__enter__()
        inner.__enter__()
        report = post_mortem(span_tracer=tracer)
        names = [s["name"] for s in report.unfinished_spans]
        assert names == ["campaign", "cell"]
        assert "`cell`" in report.to_markdown()


#: Same sizing as test_resume.py: annealing is slow enough that the
#: kill lands mid-campaign with leases in flight.
VICTIM = """\
import sys
from repro.campaign import CampaignStore
from repro.obs import Obs, StoreRecorder
from repro.sweep import expand_grid, run_sweep

store = CampaignStore(sys.argv[1])
grid = expand_grid(generators=("layered",), n_tasks=(14,),
                   heuristics=("annealing",), seeds=range(8))
run_sweep(grid, workers=2, cache=store,
          obs=Obs(recorder=StoreRecorder(store)))
"""


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@pytest.mark.slow
def test_sigkill_post_mortem_names_the_dead(tmp_path):
    store_path = tmp_path / "campaign.sqlite"
    victim = subprocess.Popen(
        [sys.executable, "-c", VICTIM, str(store_path)],
        env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # wait for committed progress, shard heartbeats, and in-flight
        # leases, then pull the plug
        store = CampaignStore(store_path)
        deadline = time.time() + 120
        while time.time() < deadline:
            if victim.poll() is not None:
                break
            if (store_path.exists() and len(store) >= 2
                    and store.leased_jobs()
                    and any(o.startswith("pid:")
                            for o in store.latest_heartbeats())):
                break
            time.sleep(0.05)
        os.killpg(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=30)

    assert len(store) >= 1, "campaign was killed before any commit"
    leased = store.leased_jobs()
    assert leased, "no leases in flight at kill time; grow the grid"
    heartbeats = store.latest_heartbeats()

    # every owner that heartbeat is now dead — but the killed shards
    # linger as zombies until init reaps them, so give the verdict a
    # short grace period
    deadline = time.time() + 10
    while True:
        report = post_mortem(store=store)
        verdicts = {o["owner"]: o["verdict"] for o in report.owners}
        assert verdicts, "no telemetry recorded before the kill"
        if set(verdicts.values()) == {"dead"} or time.time() > deadline:
            break
        time.sleep(0.05)
    assert set(verdicts.values()) == {"dead"}
    dead_shards = [o for o in report.owners if o["role"] == "shard"]
    assert dead_shards, "no shard ever heartbeat"

    # the report carries each dead shard's actual last heartbeat
    for owner in dead_shards:
        got = TelemetrySample.from_dict(owner["last_heartbeat"])
        want = TelemetrySample.from_dict(heartbeats[owner["owner"]])
        assert got == want

    # ... and the exact uncommitted fingerprints, all suspects
    expected = {fp for fp, _o, _d, _a in leased}
    assert {u["fingerprint"] for u in report.uncommitted} == expected
    assert set(report.suspects) == expected

    text = report.to_markdown()
    for owner in dead_shards:
        assert f"`{owner['owner']}`" in text
    for fingerprint in expected:
        assert f"`{fingerprint}`" in text
    assert "**suspect**" in text

    # liveness epilogue: the same store still resumes cleanly
    from repro.sweep import expand_grid, run_sweep

    grid = expand_grid(generators=("layered",), n_tasks=(14,),
                       heuristics=("annealing",), seeds=range(8))
    resumed = run_sweep(grid, workers=2, cache=store)
    reference = run_sweep(grid, workers=2)
    assert resumed.to_json() == reference.to_json()
