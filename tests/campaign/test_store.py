"""Tests for the SQLite result store: the result surface, argument
checks, migration from JSON cache directories, and multi-process write
safety."""

import json
import multiprocessing
import os

import pytest

from repro.campaign import CACHE_VERSION, CacheVersionError, CampaignStore

RECORD = {"fingerprint": "f" * 64, "cost": 12.5, "hw_tasks": ["a", "b"]}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store.sqlite")


class TestResultSurface:
    """The get/put surface the engines' ``cache=`` keyword uses."""

    def test_roundtrip(self, store):
        fp = "a" * 64
        assert store.get(fp) is None
        store.put(fp, RECORD)
        assert store.get(fp) == RECORD
        assert fp in store
        assert len(store) == 1

    def test_miss_on_absent(self, store):
        assert store.get("b" * 64) is None
        assert ("b" * 64) not in store

    def test_put_many_batches(self, store):
        items = [(f"{i}" * 64, {"cost": float(i)}) for i in range(5)]
        assert store.put_many(items) == 5
        assert len(store) == 5
        assert store.fingerprints() == sorted(fp for fp, _ in items)

    def test_overwrite_replaces(self, store):
        fp = "f" * 64
        store.put(fp, {"cost": 1.0})
        store.put(fp, {"cost": 2.0})
        assert store.get(fp) == {"cost": 2.0}
        assert len(store) == 1

    def test_newer_version_raises_clear_error(self, store):
        fp = "d" * 64
        store.conn.execute(
            "INSERT INTO results (fingerprint, version, record) "
            "VALUES (?, ?, ?)",
            (fp, CACHE_VERSION + 1, json.dumps(RECORD)),
        )
        with pytest.raises(CacheVersionError) as exc:
            store.get(fp)
        message = str(exc.value)
        assert str(CACHE_VERSION + 1) in message
        assert str(CACHE_VERSION) in message

    def test_older_version_reads_as_miss(self, store):
        fp = "e" * 64
        store.conn.execute(
            "INSERT INTO results (fingerprint, version, record) "
            "VALUES (?, ?, ?)",
            (fp, CACHE_VERSION - 1, json.dumps(RECORD)),
        )
        assert store.get(fp) is None

    def test_clear_drops_results_and_queue(self, store):
        store.put("a" * 64, RECORD)
        store.enqueue([("b" * 64, {"x": 1})])
        assert store.clear() == 1
        assert len(store) == 0
        assert store.queue_counts()["pending"] == 0

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "store.sqlite"
        CampaignStore(path)
        assert path.exists()


class TestArguments:
    """Malformed store arguments raise ValueError naming the field."""

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf"),
                                       "soon", None])
    def test_lease_must_be_finite_and_positive(self, tmp_path, value):
        with pytest.raises(ValueError, match="lease_s"):
            CampaignStore(tmp_path / "s.sqlite", lease_s=value)

    @pytest.mark.parametrize("value", [0, -1.5, float("nan"),
                                       float("inf")])
    def test_heartbeat_timeout_must_be_finite_and_positive(
            self, tmp_path, value):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            CampaignStore(tmp_path / "s.sqlite",
                          heartbeat_timeout_s=value)

    @pytest.mark.parametrize("value", [0, -2, 1.5, "3", True])
    def test_max_attempts_must_be_an_int_of_at_least_one(
            self, tmp_path, value):
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignStore(tmp_path / "s.sqlite", max_attempts=value)

    def test_rejected_arguments_create_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignStore(tmp_path / "s.sqlite", lease_s=0)
        assert not (tmp_path / "s.sqlite").exists()


class TestRequeue:
    """Re-enqueueing a job: what it resets, and what it never touches."""

    JOB = ("a" * 64, {"cell": 1})

    def _state(self, store):
        return store.conn.execute(
            "SELECT state, lease_owner, attempts, error FROM jobs "
            "WHERE fingerprint = ?", (self.JOB[0],)).fetchone()

    def test_spent_failure_gets_a_fresh_budget(self, store):
        store.enqueue([self.JOB])
        for attempt in range(store.max_attempts):
            assert store.claim("owner", 1)
            store.fail("owner", self.JOB[0], f"boom {attempt}")
        assert store.claim("owner", 1) == []
        assert store.enqueue([self.JOB]) == 1
        assert self._state(store) == ("pending", None, 0, None)
        assert store.failed_jobs() == []
        assert len(store.claim("owner", 1)) == 1

    def test_leased_job_is_never_touched(self, store):
        store.enqueue([self.JOB])
        store.claim("pid:1", 1)
        before = self._state(store)
        store.enqueue([self.JOB])
        assert self._state(store) == before == ("leased", "pid:1", 1,
                                                None)


def _write_entries(root, entries):
    """A JSON cache directory: one ``<fp>.json`` per (fp, record)."""
    root.mkdir(parents=True, exist_ok=True)
    for fp, record in entries:
        (root / f"{fp}.json").write_text(json.dumps({
            "version": CACHE_VERSION, "fingerprint": fp, "record": record,
        }), encoding="utf-8")


class TestMigration:
    def test_import_cache(self, tmp_path):
        _write_entries(tmp_path / "json",
                       [(f"{i}" * 64, {"cost": float(i)}) for i in range(4)])
        store = CampaignStore(tmp_path / "store.sqlite")
        assert store.import_cache(tmp_path / "json") == 4
        for i in range(4):
            assert store.get(f"{i}" * 64) == {"cost": float(i)}

    def test_import_skips_unreadable_entries(self, tmp_path):
        root = tmp_path / "json"
        _write_entries(root, [("a" * 64, RECORD)])
        (root / f"{'b' * 64}.json").write_text("{corrupt",
                                               encoding="utf-8")
        # a crashed writer's temp file is not an entry
        (root / f".{'c' * 64}.json.123.tmp").write_text("{}")
        store = CampaignStore(tmp_path / "store.sqlite")
        assert store.import_cache(root) == 1
        assert store.get("a" * 64) == RECORD
        assert store.get("b" * 64) is None


def _forked_child(store, out):
    """Child side of the fork-safety test (fork keeps the object)."""
    store.put("b" * 64, {"ok": True})
    out.put(store.get("a" * 64))


def _hammer(path, start, count, out):
    """Write ``count`` records; every pid also writes the shared fp."""
    store = CampaignStore(path)
    for i in range(start, start + count):
        store.put(f"{i:064d}", {"value": i})
    store.put("s" * 64, {"value": "shared"})
    out.put(os.getpid())


class TestConcurrentWriters:
    def test_two_processes_no_lost_updates(self, tmp_path):
        path = tmp_path / "store.sqlite"
        CampaignStore(path)  # create schema before forking
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(path, i * 50, 50, out))
            for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = CampaignStore(path)
        assert len(store) == 101  # 2 x 50 disjoint + 1 shared
        for i in range(100):
            assert store.get(f"{i:064d}") == {"value": i}
        assert store.get("s" * 64) == {"value": "shared"}

    def test_store_reopens_after_fork(self, tmp_path):
        """A store object crossing a fork must not share the parent's
        sqlite connection."""
        path = tmp_path / "store.sqlite"
        store = CampaignStore(path)
        store.put("a" * 64, RECORD)
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        p = ctx.Process(target=_forked_child, args=(store, out))
        p.start()
        p.join(timeout=60)
        assert p.exitcode == 0
        assert out.get(timeout=10) == RECORD
        assert store.get("b" * 64) == {"ok": True}
