"""The flight recorder (:mod:`repro.obs.live`): sample mechanics,
rate-limited emission, both sinks, status rendering — and the two
contracts that make it safe to leave wired into production paths:

* **zero cost when disabled** — a run without a recorder constructs no
  telemetry object and allocates nothing in ``live.py``, and a run
  with no session constructs no collector at all and allocates nothing
  in ``session.py``;
* **never in the results** — every engine's output is byte-identical
  with the recorder on or off.
"""

import dataclasses
import json
import os

import pytest

import repro.obs.live as live
import repro.obs.session as session
from repro.campaign.store import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.explore import ExploreSpec, explore, random_search
from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.obs import (
    JsonlRecorder,
    Obs,
    StoreRecorder,
    TelemetryEmitter,
    TelemetrySample,
    latest_by_owner,
    owner_throughput,
    read_samples,
    render_status,
)
from repro.obs.spans import SpanTracer
from repro.sweep import expand_grid, run_sweep

GRID_KW = dict(generators=("layered",), n_tasks=(6,),
               heuristics=("greedy",), seeds=range(4))

EXPLORE_SPEC = ExploreSpec(population=4, generations=2, n_tasks=(8,),
                           heuristics=("greedy", "kl"))


class FakeClock:
    """A settable clock (``clock.t = ...``) for deterministic gating."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class ListRecorder:
    """In-memory sink for emitter unit tests."""

    def __init__(self):
        self.samples = []

    def record(self, sample):
        self.samples.append(sample)


def make_sample(kind="heartbeat", owner="pid:1", role="shard",
                wall=100.0, mono=10.0, seq=0, **data):
    return TelemetrySample(kind=kind, owner=owner, role=role,
                           wall_time=wall, mono_time=mono, seq=seq,
                           data=data)


class TestSample:
    def test_dict_roundtrip_and_version_stamp(self):
        sample = make_sample(done=3, in_flight=2)
        doc = sample.to_dict()
        assert doc["version"] == live.TELEMETRY_VERSION
        assert TelemetrySample.from_dict(doc) == sample

    def test_from_dict_tolerates_missing_data(self):
        doc = make_sample().to_dict()
        del doc["data"]
        assert TelemetrySample.from_dict(doc).data == {}


class TestEmitter:
    def make(self, interval_s=1.0):
        sink = ListRecorder()
        mono, wall = FakeClock(100.0), FakeClock(5000.0)
        emitter = TelemetryEmitter(sink, owner="pid:9", role="shard",
                                   interval_s=interval_s, clock=mono,
                                   wall=wall)
        return sink, mono, wall, emitter

    def test_first_heartbeat_fires_immediately(self):
        sink, _mono, _wall, emitter = self.make()
        assert emitter.heartbeat(done=0) is True
        assert len(sink.samples) == 1
        assert sink.samples[0].kind == "heartbeat"
        assert sink.samples[0].data == {"done": 0}

    def test_heartbeat_is_rate_limited_by_the_monotonic_clock(self):
        sink, mono, _wall, emitter = self.make(interval_s=1.0)
        assert emitter.heartbeat() is True
        assert emitter.heartbeat() is False       # same instant
        mono.t = 100.9
        assert emitter.heartbeat() is False       # interval not up
        mono.t = 101.0
        assert emitter.heartbeat() is True        # exactly due
        assert len(sink.samples) == 2

    def test_force_bypasses_the_gate(self):
        sink, _mono, _wall, emitter = self.make()
        emitter.heartbeat()
        assert emitter.heartbeat(force=True, exiting=True) is True
        assert sink.samples[-1].data == {"exiting": True}

    def test_emit_is_unconditional_and_seq_is_shared(self):
        sink, _mono, _wall, emitter = self.make()
        emitter.heartbeat()
        emitter.emit("queue", pending=3)
        emitter.emit("queue", pending=2)
        assert [s.seq for s in sink.samples] == [0, 1, 2]
        assert sink.samples[1].kind == "queue"

    def test_sample_carries_both_clocks_and_owner(self):
        sink, mono, wall, emitter = self.make()
        mono.t, wall.t = 111.0, 5042.0
        emitter.emit("run", event="start")
        (sample,) = sink.samples
        assert sample.mono_time == 111.0
        assert sample.wall_time == 5042.0
        assert sample.owner == "pid:9" and sample.role == "shard"

    def test_default_owner_is_this_pid(self):
        emitter = TelemetryEmitter(ListRecorder())
        assert emitter.owner == f"pid:{os.getpid()}"


class TestJsonlRecorder:
    def test_roundtrip_through_the_file(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = JsonlRecorder(path)
        emitter = TelemetryEmitter(recorder, owner="pid:5")
        emitter.heartbeat(done=1)
        emitter.emit("queue", pending=7)
        recorder.close()
        samples = read_samples(path)
        assert [s.kind for s in samples] == ["heartbeat", "queue"]
        assert samples[0].data == {"done": 1}

    def test_read_tolerates_torn_tail_and_garbage(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = JsonlRecorder(path)
        recorder.record(make_sample(seq=0))
        recorder.record(make_sample(seq=1))
        recorder.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"kind": "heartb')  # the torn last line
        samples = read_samples(path)
        assert [s.seq for s in samples] == [0, 1]

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_samples(tmp_path / "nope.jsonl") == []

    def test_record_after_close_reopens(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = JsonlRecorder(path)
        recorder.record(make_sample(seq=0))
        recorder.close()
        recorder.record(make_sample(seq=1))
        recorder.close()
        assert [s.seq for s in read_samples(path)] == [0, 1]


class TestStoreRecorder:
    def test_samples_land_in_the_telemetry_table(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        emitter = TelemetryEmitter(StoreRecorder(store), owner="pid:3")
        emitter.heartbeat(done=2)
        rows = store.telemetry()
        assert len(rows) == 1
        assert rows[0]["kind"] == "heartbeat"
        assert rows[0]["data"] == {"done": 2}


class TestStatusRendering:
    def stream(self):
        return [
            make_sample(owner="pid:1", wall=100.0, mono=0.0, seq=0,
                        done=0),
            make_sample(owner="pid:2", wall=100.0, mono=0.0, seq=0,
                        done=0),
            make_sample(owner="pid:1", wall=105.0, mono=5.0, seq=1,
                        done=10),
            make_sample(owner="pid:2", wall=105.0, mono=5.0, seq=1,
                        done=5, exiting=True),
            make_sample(kind="queue", owner="coord:3",
                        role="coordinator", wall=105.0, mono=5.0,
                        seq=0, pending=2, leased=1, done=15),
        ]

    def test_latest_by_owner_takes_stream_order(self):
        latest = latest_by_owner(self.stream())
        assert latest["pid:1"].seq == 1
        assert latest["pid:2"].data["exiting"] is True

    def test_owner_throughput_uses_the_monotonic_clock(self):
        assert owner_throughput(self.stream(), "pid:1") == 2.0
        assert owner_throughput(self.stream(), "pid:2") == 1.0

    def test_owner_throughput_needs_two_samples(self):
        assert owner_throughput(self.stream()[:2], "pid:1") is None
        assert owner_throughput([], "pid:1") is None

    def test_render_status_frame(self):
        text = render_status(self.stream(), now_wall=106.0,
                             dead_owners=["pid:1"], title="campaign")
        assert "campaign" in text
        assert "pid:1" in text and "DEAD" in text
        assert "exited" in text           # pid:2 said goodbye
        assert "queue: " in text and "pending=2" in text
        assert "eta:" in text             # 3 remaining at 3.0/s

    def test_render_status_includes_last_generation(self):
        samples = self.stream() + [
            make_sample(kind="generation", owner="explore:4",
                        role="explore", wall=105.0, mono=5.0, seq=0,
                        generation=3, front_size=4, hypervolume=0.25),
        ]
        text = render_status(samples, now_wall=106.0)
        assert "generation 3" in text and "hv=0.2500" in text


class TestZeroCostWhenDisabled:
    def test_no_recorder_means_no_telemetry_objects(self, monkeypatch,
                                                    tmp_path):
        """With recorder=None no TelemetryEmitter or TelemetrySample
        may ever be constructed, on any engine's path."""
        def forbidden(*args, **kwargs):
            raise AssertionError(
                "telemetry object created with no recorder armed"
            )

        monkeypatch.setattr(live.TelemetryEmitter, "__init__",
                            forbidden)
        monkeypatch.setattr(live, "TelemetrySample", forbidden)

        grid = expand_grid(**GRID_KW)
        run_sweep(grid)                                   # pool mode
        store = CampaignStore(tmp_path / "c.sqlite")
        run_sweep(grid, cache=store)                      # store mode
        faults = sample_faults(SCENARIOS["coproc"].targets, 3, seed=1)
        run_campaign("coproc", faults)
        explore(EXPLORE_SPEC)

    def test_no_session_means_no_collectors(self, monkeypatch,
                                           tmp_path):
        """With no session, no driver path — in-process, on a store, on
        a temporary store's shards, nested in the explorer — may
        construct a registry, a span tracer or a telemetry object."""
        def forbidden(*args, **kwargs):
            raise AssertionError("collector created with no session")

        for cls in (MetricsRegistry, SpanTracer, live.TelemetryEmitter):
            monkeypatch.setattr(cls, "__init__", forbidden)
        monkeypatch.setattr(live, "TelemetrySample", forbidden)

        grid = expand_grid(**GRID_KW)
        run_sweep(grid)                                   # in-process
        run_sweep(grid, workers=2)                        # temp store
        run_sweep(grid, cache=CampaignStore(tmp_path / "c.sqlite"))
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 3, seed=1)
        run_campaign("msgpipe", faults)
        run_campaign("msgpipe", faults, workers=2)
        spec = dataclasses.replace(EXPLORE_SPEC, scenario="msgpipe",
                                   scenario_faults=3)
        explore(spec)
        random_search(spec, evaluations=3)

    @staticmethod
    def allocated_during_sweep(module) -> int:
        """Bytes tracemalloc attributes to ``module`` while an
        unobserved sweep runs."""
        import tracemalloc

        grid = expand_grid(**GRID_KW)
        run_sweep(grid)  # warm caches
        tracemalloc.start(10)
        try:
            run_sweep(grid)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, module.__file__)]
        ).statistics("filename")
        return sum(s.size for s in stats)

    def test_no_recorder_means_no_allocations_in_live_py(self):
        """tracemalloc must see zero bytes attributable to live.py
        while an unrecorded sweep runs — the ``if recorder is not
        None`` guards are the whole cost."""
        allocated = self.allocated_during_sweep(live)
        assert allocated == 0, (
            f"live.py allocated {allocated} bytes with no recorder"
        )

    def test_no_session_means_no_allocations_in_session_py(self):
        """Nor may the disabled session allocate: with every collector
        absent, its methods return before touching anything."""
        allocated = self.allocated_during_sweep(session)
        assert allocated == 0, (
            f"session.py allocated {allocated} bytes with no session"
        )


class TestByteIdenticalWithRecorder:
    """The recorder may never leak into results: every engine's output
    is byte-identical with telemetry on or off."""

    def test_sweep_pool_mode(self, tmp_path):
        grid = expand_grid(**GRID_KW)
        plain = run_sweep(grid)
        recorder = JsonlRecorder(tmp_path / "flight.jsonl")
        recorded = run_sweep(grid, obs=Obs(recorder=recorder))
        recorder.close()
        assert plain.to_json() == recorded.to_json()
        kinds = {s.kind for s in read_samples(recorder.path)}
        assert "run" in kinds and "heartbeat" in kinds

    def test_sweep_store_mode(self, tmp_path):
        grid = expand_grid(**GRID_KW)
        quiet = CampaignStore(tmp_path / "quiet.sqlite")
        loud = CampaignStore(tmp_path / "loud.sqlite")
        plain = run_sweep(grid, cache=quiet)
        recorded = run_sweep(grid, cache=loud,
                             obs=Obs(recorder=StoreRecorder(loud)))
        assert plain.to_json() == recorded.to_json()
        assert quiet.telemetry() == []
        assert any(s["kind"] == "heartbeat" for s in loud.telemetry())

    def test_fault_campaign(self, tmp_path):
        faults = sample_faults(SCENARIOS["coproc"].targets, 6, seed=3)
        plain = run_campaign("coproc", faults)
        recorder = JsonlRecorder(tmp_path / "flight.jsonl")
        recorded = run_campaign("coproc", faults,
                                obs=Obs(recorder=recorder))
        recorder.close()
        assert plain.to_json() == recorded.to_json()
        samples = read_samples(recorder.path)
        roles = {s.role for s in samples}
        assert roles == {"fault"}

    def test_explore(self, tmp_path):
        plain = explore(EXPLORE_SPEC)
        recorder = JsonlRecorder(tmp_path / "flight.jsonl")
        recorded = explore(EXPLORE_SPEC, obs=Obs(recorder=recorder))
        recorder.close()
        assert plain.to_json() == recorded.to_json()
        samples = read_samples(recorder.path)
        gens = [s for s in samples if s.kind == "generation"]
        assert len(gens) == EXPLORE_SPEC.generations
        assert all(s.owner.startswith("explore:") for s in gens)

    def test_samples_never_contain_result_bytes(self, tmp_path):
        """Telemetry is gauges only — no fingerprints, no records."""
        grid = expand_grid(**GRID_KW)
        store = CampaignStore(tmp_path / "c.sqlite")
        run_sweep(grid, cache=store, obs=Obs(recorder=StoreRecorder(store)))
        fingerprints = set(store.fingerprints())
        for sample in store.telemetry():
            blob = json.dumps(sample["data"])
            for fingerprint in fingerprints:
                assert fingerprint not in blob
