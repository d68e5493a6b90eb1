"""How many cells a shard claims at once, and what that costs the store.

A shard claims one cell first, to measure.  After that it claims as
many cells as fit in ``COMMIT_INTERVAL_S`` (capped at half the lease)
at its mean cell time so far: at least one, and never more than an
equal share ⌈runnable / shards⌉.  Cell times here come from a fake
clock the stub runner advances, so nothing sleeps and the expected
claim sizes are exact.
"""

import math
import sqlite3

import pytest

from repro.campaign import CampaignStore, register_runner, run_store_jobs
from repro.campaign import service
from repro.campaign.runners import RUNNERS
from repro.campaign.service import COMMIT_INTERVAL_S, claim_limit
from repro.fault import SCENARIOS, run_campaign, sample_faults


class FakeClock:
    """``service.time`` stand-in: cells advance it, nothing sleeps."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(service, "time", fake)

    def timed(payload):
        fake.now += payload["cost"]
        return {"cell": payload["cell"]}, None

    register_runner("test_timed", timed)
    yield fake
    del RUNNERS["test_timed"]


def timed_jobs(costs):
    """Jobs whose fingerprint order is their list order."""
    return [(f"{i:064d}", {"cell": i, "cost": cost})
            for i, cost in enumerate(costs)]


def recorded_claims(monkeypatch, store):
    """Sizes of every non-empty batch ``store`` leases, in order."""
    sizes = []
    claim = store.claim

    def recording(owner, limit, shards=1):
        jobs = claim(owner, limit, shards=shards)
        if jobs:
            sizes.append(len(jobs))
        return jobs

    monkeypatch.setattr(store, "claim", recording)
    return sizes


def expected_claims(costs, lease_s, shards=1):
    """The claim rule, replayed over cells taken in list order."""
    sizes, ran, busy = [], 0, 0.0
    interval = min(COMMIT_INTERVAL_S, lease_s / 2)
    while ran < len(costs):
        share = math.ceil((len(costs) - ran) / shards)
        want = 1 if ran == 0 else max(1, math.floor(interval * ran / busy))
        size = min(want, share)
        sizes.append(size)
        busy += sum(costs[ran:ran + size])
        ran += size
    return sizes


class TestClaimLimit:
    def test_first_claim_is_one_cell(self):
        assert claim_limit(0, 0.0, lease_s=20.0) == 1

    def test_claims_what_fits_in_the_interval(self):
        # mean 6 ms: 0.1 s holds 16 cells
        assert claim_limit(4, 0.024, lease_s=20.0) == 16

    def test_always_at_least_one_cell(self):
        # cells slower than the interval go one at a time
        assert claim_limit(2, 1.4, lease_s=20.0) == 1

    def test_half_the_lease_caps_the_interval(self):
        # a 40 ms lease leaves 20 ms of work per claim: 3 cells of 6 ms
        assert claim_limit(4, 0.024, lease_s=0.04) == 3


class TestShardClaims:
    def test_first_one_then_the_interval_at_the_mean(
            self, tmp_path, clock, monkeypatch):
        costs = [0.045] + [0.006] * 40
        store = CampaignStore(tmp_path / "s.sqlite")
        sizes = recorded_claims(monkeypatch, store)
        done = {}
        run_store_jobs(store, "test_timed", timed_jobs(costs), workers=1,
                       on_done=lambda fp, r, o, e: done.update({fp: r}))
        assert len(done) == len(costs)
        # 45 ms first: 2 cells; then a 19 ms mean: 5; 10.9 ms: 9 …
        assert sizes == [1, 2, 5, 9, 12, 12]
        assert sizes == expected_claims(costs, lease_s=store.lease_s)

    def test_small_lease_caps_the_batch(
            self, tmp_path, clock, monkeypatch):
        costs = [0.006] * 12
        store = CampaignStore(tmp_path / "s.sqlite", lease_s=0.04)
        sizes = recorded_claims(monkeypatch, store)
        run_store_jobs(store, "test_timed", timed_jobs(costs), workers=1,
                       on_done=lambda *a: None)
        assert sizes == [1, 3, 3, 3, 2]
        assert sizes == expected_claims(costs, lease_s=0.04)

    def test_slow_cells_are_claimed_one_at_a_time(
            self, tmp_path, clock, monkeypatch):
        costs = [0.6] * 4  # annealing-sweep-sized cells
        store = CampaignStore(tmp_path / "s.sqlite")
        sizes = recorded_claims(monkeypatch, store)
        run_store_jobs(store, "test_timed", timed_jobs(costs), workers=1,
                       on_done=lambda *a: None)
        assert sizes == [1, 1, 1, 1]

    def test_claims_never_exceed_an_equal_share(
            self, tmp_path, clock, monkeypatch):
        costs = [0.0001] * 20  # the interval alone would take them all
        store = CampaignStore(tmp_path / "s.sqlite")
        store.enqueue(timed_jobs(costs))
        sizes = recorded_claims(monkeypatch, store)
        service._run_shard(store, "test_timed", 2, None)
        assert sizes == [1, 10, 5, 2, 1, 1]
        assert sizes == expected_claims(costs, store.lease_s, shards=2)
        assert store.queue_counts()["done"] == len(costs)

    def test_store_caps_a_claim_at_the_share(self, tmp_path):
        store = CampaignStore(tmp_path / "s.sqlite")
        store.enqueue(timed_jobs([0.0] * 7))
        assert len(store.claim("a", 100, shards=3)) == 3  # ⌈7/3⌉
        assert len(store.claim("b", 100, shards=3)) == 2  # ⌈4/3⌉
        assert len(store.claim("c", 1, shards=3)) == 1
        assert len(store.claim("c", 100)) == 1  # the last one


class TestStoreTransactions:
    """A cold 200-fault msgpipe campaign commits in a few batches and
    talks to the store over the coordinator's one connection."""

    def test_cold_campaign_runs_few_write_transactions(self, tmp_path,
                                                       monkeypatch):
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 200, seed=7)
        statements, connections = [], []
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            connections.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        store = CampaignStore(tmp_path / "s.sqlite")
        cold = run_campaign("msgpipe", faults, cache=store)
        begins = statements.count("BEGIN IMMEDIATE")
        # two cells per claim took 152 at seed 7; time-sized claims
        # take 8 on an idle host
        assert cold.stats.computed == 148
        assert begins <= 20, begins
        assert len(connections) == 1

        statements.clear()
        warm = run_campaign("msgpipe", faults, cache=store)
        assert warm.stats.computed == 0
        assert warm.to_json() == cold.to_json()
        # reclaim, enqueue, one empty claim, drain
        assert statements.count("BEGIN IMMEDIATE") == 4
        assert len(connections) == 1
