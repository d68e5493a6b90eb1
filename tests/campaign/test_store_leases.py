"""Lease-boundary edge cases of the campaign store's job queue.

The claim predicate, the reclaim sweep, and the retry budget each have
a boundary where off-by-one or lost-update bugs live:

* a lease whose deadline is *exactly* the claim instant is NOT yet
  stealable (the predicate is strictly ``deadline < now``) — one
  microsecond later it is;
* reclaiming a dead owner's lease must not clobber work that owner
  already committed (reclaim flips ``leased`` rows only, and commit
  marks the row ``done`` in the same transaction as the result);
* a job that fails on every attempt settles as permanently ``failed``
  — reported by :meth:`failed_jobs`, excluded from
  :meth:`remaining_runnable`, never re-queued forever.
"""

import os
import signal
import time
from unittest import mock

import pytest

from repro.campaign import CampaignStore
from repro.campaign.store import _pid_alive

JOB = ("a" * 64, {"cell": 1})
RECORD = {"cost": 1.0}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store.sqlite", lease_s=10.0,
                         max_attempts=3)


def _lease_deadline(store, fingerprint):
    return store.conn.execute(
        "SELECT lease_deadline FROM jobs WHERE fingerprint = ?",
        (fingerprint,),
    ).fetchone()[0]


def _state(store, fingerprint):
    return store.conn.execute(
        "SELECT state, attempts FROM jobs WHERE fingerprint = ?",
        (fingerprint,),
    ).fetchone()


class TestDeadlineExactlyAtClaimTime:
    """The strict-< boundary: an expiring lease becomes stealable one
    tick *after* its deadline, never at it."""

    def test_deadline_equal_to_now_is_not_stealable(self, store):
        store.enqueue([JOB])
        claimed = store.claim("owner-1", 1)
        assert len(claimed) == 1
        deadline = _lease_deadline(store, JOB[0])

        # freeze the thief's clock to exactly the lease deadline
        with mock.patch("repro.campaign.store.time.time",
                        return_value=deadline):
            assert store.claim("thief", 1) == []
        assert _state(store, JOB[0])[0] == "leased"

    def test_deadline_just_past_is_stealable(self, store):
        store.enqueue([JOB])
        store.claim("owner-1", 1)
        deadline = _lease_deadline(store, JOB[0])

        with mock.patch("repro.campaign.store.time.time",
                        return_value=deadline + 1e-6):
            stolen = store.claim("thief", 1)
        assert [fp for fp, _ in stolen] == [JOB[0]]
        state, attempts = _state(store, JOB[0])
        assert state == "leased" and attempts == 2

    def test_reclaim_respects_the_same_boundary(self, store):
        store.enqueue([JOB])
        # lease under an owner that is NOT a live pid, so only the
        # deadline clause can trigger the reclaim
        store.claim("remote:worker", 1)
        deadline = _lease_deadline(store, JOB[0])

        with mock.patch("repro.campaign.store.time.time",
                        return_value=deadline):
            assert store.reclaim_stale() == 0
        with mock.patch("repro.campaign.store.time.time",
                        return_value=deadline + 1e-6):
            assert store.reclaim_stale() == 1
        assert _state(store, JOB[0])[0] == "pending"


class TestDeadPidReclaimVsLiveCommit:
    """A dead-owner reclaim racing the owner's own commit must never
    lose the committed result."""

    def _claim_as_dead_pid(self, store):
        # a pid that cannot be running: fork one, let it exit, use it
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        owner = f"pid:{pid}"
        claimed = store.claim(owner, 1)
        assert [fp for fp, _ in claimed] == [JOB[0]]
        return owner

    def test_commit_first_then_reclaim_keeps_the_result(self, store):
        store.enqueue([JOB])
        owner = self._claim_as_dead_pid(store)
        # the "dead" owner actually finished: its commit landed before
        # the coordinator's reclaim sweep ran
        store.commit(owner, [(JOB[0], RECORD, None, 0.01)])
        assert store.reclaim_stale() == 0  # done rows are not leased
        assert _state(store, JOB[0])[0] == "done"
        assert store.get(JOB[0]) == RECORD

    def test_reclaim_first_then_recompute_is_consistent(self, store):
        store.enqueue([JOB])
        self._claim_as_dead_pid(store)
        # coordinator notices the dead pid before any commit arrives
        assert store.reclaim_stale() == 1
        assert _state(store, JOB[0])[0] == "pending"
        # another worker claims and commits; the queue converges
        stolen = store.claim("pid:%d" % os.getpid(), 1)
        assert [fp for fp, _ in stolen] == [JOB[0]]
        store.commit("pid:%d" % os.getpid(),
                     [(JOB[0], RECORD, None, 0.01)])
        assert _state(store, JOB[0])[0] == "done"
        assert store.get(JOB[0]) == RECORD

    def test_live_pid_is_not_reclaimed(self, store):
        store.enqueue([JOB])
        store.claim(f"pid:{os.getpid()}", 1)  # us; alive by definition
        assert store.reclaim_stale() == 0
        assert _state(store, JOB[0])[0] == "leased"


def _proc_state(pid):
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    return stat[stat.rindex(b")") + 2:][:1]


@pytest.fixture
def zombie():
    """The pid of a child killed with SIGKILL and not yet reaped."""
    pid = os.fork()
    if pid == 0:
        time.sleep(60)
        os._exit(0)
    try:
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while _proc_state(pid) != b"Z":
            assert time.monotonic() < deadline, "child never exited"
            time.sleep(0.001)
        yield pid
    finally:
        os.waitpid(pid, 0)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="zombie states are read from /proc")
class TestZombieOwner:
    """A shard that died but was not yet reaped still answers
    ``os.kill(pid, 0)``; its leases must not wait for the reaping."""

    def test_unreaped_child_is_not_alive(self, zombie):
        os.kill(zombie, 0)  # the signal probe alone would say alive
        assert _pid_alive(zombie) is False
        assert _pid_alive(os.getpid()) is True

    def test_zombie_owners_lease_is_reclaimed_at_once(self, store,
                                                       zombie):
        store.enqueue([JOB])
        store.claim(f"pid:{zombie}", 1)
        assert store.reclaim_stale() == 1
        assert _state(store, JOB[0]) == ("pending", 1)


class TestRetryBudgetExhaustion:
    """max_attempts claims, each failed → permanently failed, reported,
    and not runnable — never an infinite requeue loop."""

    def test_exhaustion_marks_failed_not_requeued(self, store):
        store.enqueue([JOB])
        for attempt in range(store.max_attempts):
            claimed = store.claim("owner", 1)
            assert len(claimed) == 1, f"attempt {attempt} not granted"
            store.fail("owner", JOB[0], f"boom {attempt}")

        # the budget is spent: no claim, no runnable work, reported
        assert store.claim("owner", 1) == []
        assert store.remaining_runnable() == 0
        assert store.failed_jobs() == [(JOB[0], "boom 2")]
        state, attempts = _state(store, JOB[0])
        assert state == "failed" and attempts == store.max_attempts

    def test_failed_with_attempts_left_is_still_runnable(self, store):
        store.enqueue([JOB])
        store.claim("owner", 1)
        store.fail("owner", JOB[0], "transient")
        assert store.remaining_runnable() == 1
        assert store.failed_jobs() == []  # not permanent yet
        assert len(store.claim("owner", 1)) == 1

    def test_success_after_failures_clears_the_error(self, store):
        store.enqueue([JOB])
        store.claim("owner", 1)
        store.fail("owner", JOB[0], "first try broke")
        store.claim("owner", 1)
        store.commit("owner", [(JOB[0], RECORD, None, 0.01)])
        assert store.failed_jobs() == []
        assert store.remaining_runnable() == 0
        row = store.conn.execute(
            "SELECT state, error FROM jobs WHERE fingerprint = ?",
            (JOB[0],),
        ).fetchone()
        assert row == ("done", None)

    def test_expiring_lease_burns_an_attempt_each_steal(self, store):
        """Work stealing and the retry budget compose: every steal is
        a claim, so a job that keeps timing out cannot ping-pong
        between thieves forever."""
        store.enqueue([JOB])
        deadline = None
        for i in range(store.max_attempts):
            now = deadline + 1e-6 if deadline is not None else None
            if now is None:
                claimed = store.claim(f"remote:{i}", 1)
            else:
                with mock.patch("repro.campaign.store.time.time",
                                return_value=now):
                    claimed = store.claim(f"remote:{i}", 1)
            assert len(claimed) == 1
            deadline = _lease_deadline(store, JOB[0])
        # three expired leases later the budget is gone even though
        # no worker ever called fail()
        with mock.patch("repro.campaign.store.time.time",
                        return_value=deadline + 1e-6):
            assert store.claim("remote:last", 1) == []
        assert store.failed_jobs() == \
            [(JOB[0], "lease expired with retry budget exhausted")]
        assert store.remaining_runnable() == 0
