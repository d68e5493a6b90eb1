"""The SQLite-backed campaign store: results + a persistent job queue.

One database file holds two tables that together make a campaign
durable and resumable:

``results``
    fingerprint-addressed records (the engines' SHA-256 config
    fingerprints), each stamped with :data:`CACHE_VERSION` — a row
    written by a *newer* schema raises :class:`CacheVersionError`, an
    older one reads as a miss and is recomputed over;

``jobs``
    the work queue: each row is one cell awaiting computation, with a
    lease stamp (owner + wall-clock deadline) while a worker holds it.
    Workers claim batches atomically (``BEGIN IMMEDIATE``), commit the
    batch's results and the ``done`` transitions in **one
    transaction**, so a SIGKILL at any instant loses at most the
    uncommitted batch — never a committed cell, and never leaves a
    half-written record.  Leases whose owner pid is dead (same-box
    workers) or whose deadline passed are reclaimed, which is what
    makes shards work-stealing: any worker can pick up a dead
    neighbour's cells.

The store opens its connection lazily *per process* — a store object
that crosses a ``fork`` (service shards) transparently reopens in the
child instead of sharing the parent's connection, which SQLite
forbids.

:meth:`CampaignStore.import_cache` reads the one-JSON-file-per-
fingerprint cache directories earlier versions wrote, so their
results carry over into a store.

Durability tuning: WAL journal (readers never block the writer),
``synchronous=NORMAL`` (a power loss can lose the last transactions
but never corrupt the database — the engine recomputes missing cells,
so this is the right trade), and batched commits on the write paths.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import _domain

#: Bump to invalidate every stored result (record schema change).
CACHE_VERSION = 1

#: A claimed unit of work: (fingerprint, payload dict).
ClaimedJob = Tuple[str, Dict[str, Any]]

#: One completed cell heading for :meth:`CampaignStore.commit`:
#: (fingerprint, record, obs payload or None, in-worker elapsed seconds).
CompletedJob = Tuple[str, Dict[str, Any], Optional[Dict[str, Any]], float]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    version     INTEGER NOT NULL,
    record      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    fingerprint    TEXT PRIMARY KEY,
    payload        TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    lease_owner    TEXT,
    lease_deadline REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    error          TEXT,
    elapsed_s      REAL,
    obs            TEXT,
    drained        INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
CREATE TABLE IF NOT EXISTS telemetry (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    kind      TEXT NOT NULL,
    owner     TEXT NOT NULL,
    role      TEXT NOT NULL,
    wall_time REAL NOT NULL,
    mono_time REAL NOT NULL,
    seq       INTEGER NOT NULL,
    data      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS telemetry_kind_owner
    ON telemetry (kind, owner, id);
"""

#: Job states.  ``pending`` → ``leased`` → ``done`` is the happy path;
#: a worker that raises marks the job ``failed`` (retryable until
#: ``max_attempts`` claims have been burned).
JOB_STATES = ("pending", "leased", "done", "failed")


class CacheVersionError(RuntimeError):
    """A stored result was written by a newer, incompatible schema.

    Raised instead of a silent miss: recomputing over it would clobber
    results another (newer) tool still trusts.  The message names the
    offending entry and both versions so the fix — a fresh store, or
    an upgrade — is obvious.
    """


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid running on this box?

    A zombie (exited, not yet reaped) is not, though ``os.kill(pid,
    0)`` still reaches it: where ``/proc`` exists, the state letter
    after the command name in ``/proc/<pid>/stat`` decides.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        return stat[stat.rindex(b")") + 2:][:1] not in (b"Z", b"X")
    except OSError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    return True


class CampaignStore:
    """Durable result store + job queue for sweep/fault campaigns.

    The ``get``/``put``/``fingerprints``/``clear`` surface is what the
    engines' ``cache=`` keyword reads and writes; the queue methods on
    top are what the campaign service schedules with.

    ``lease_s`` and ``heartbeat_timeout_s`` must be finite and > 0,
    ``max_attempts`` an int >= 1; anything else raises ValueError
    naming the field (a zero lease would let every claim steal its
    peers' cells, a NaN one never expires).
    """

    def __init__(self, path, lease_s: float = 20.0,
                 max_attempts: int = 3,
                 heartbeat_timeout_s: Optional[float] = None) -> None:
        self.lease_s = _domain.real("lease_s", lease_s, above=0)
        self.max_attempts = _domain.count("max_attempts", max_attempts, 1)
        #: a lease owner that *has* emitted heartbeats but has been
        #: silent this long is presumed dead/hung even if its lease
        #: deadline has not passed — the liveness test that survives
        #: the move to cross-box shards, where ``_pid_alive`` cannot
        self.heartbeat_timeout_s = (
            _domain.real("heartbeat_timeout_s", heartbeat_timeout_s,
                         above=0)
            if heartbeat_timeout_s is not None else 2.0 * self.lease_s
        )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self.conn  # create the schema eagerly

    # ------------------------------------------------------------------
    # connection management (fork-safe)
    # ------------------------------------------------------------------
    @property
    def conn(self) -> sqlite3.Connection:
        """This process's connection; reopened after a ``fork``."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            conn = sqlite3.connect(self.path, timeout=30.0,
                                   isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.executescript(_SCHEMA)
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    def close(self) -> None:
        """Close this process's connection (reopens on next use)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # ------------------------------------------------------------------
    # result store
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored record, or None on miss/stale version.

        Raises :class:`CacheVersionError` for rows written by a newer
        schema.
        """
        row = self.conn.execute(
            "SELECT version, record FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return None if row is None else self._served(fingerprint, *row)

    def _served(self, fingerprint: str, version: int,
                record: str) -> Optional[Dict[str, Any]]:
        """What :meth:`get` serves for one ``results`` row."""
        if version > CACHE_VERSION:
            raise CacheVersionError(
                f"store entry {fingerprint} in {self.path} was written "
                f"by schema version {version}, but this build only "
                f"supports up to {CACHE_VERSION}; use a fresh store or "
                f"upgrade the tool"
            )
        if version != CACHE_VERSION:
            return None
        try:
            doc = json.loads(record)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    def put(self, fingerprint: str, record: Dict[str, Any]) -> None:
        """Store one record (its own transaction)."""
        self.put_many([(fingerprint, record)])

    def put_many(
        self, items: Iterable[Tuple[str, Dict[str, Any]]]
    ) -> int:
        """Store many records in one batched transaction."""
        rows = [
            (fp, CACHE_VERSION, json.dumps(record, sort_keys=True))
            for fp, record in items
        ]
        if not rows:
            return 0
        with self._txn():
            self.conn.executemany(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, version, record) VALUES (?, ?, ?)",
                rows,
            )
        return len(rows)

    def fingerprints(self) -> List[str]:
        """Fingerprints of every stored result, sorted."""
        return [
            row[0] for row in self.conn.execute(
                "SELECT fingerprint FROM results ORDER BY fingerprint"
            )
        ]

    def clear(self) -> int:
        """Drop every result, the whole queue, *and* the flight
        recorder; returns results removed."""
        with self._txn():
            removed = self.conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            self.conn.execute("DELETE FROM results")
            self.conn.execute("DELETE FROM jobs")
            self.conn.execute("DELETE FROM telemetry")
        return removed

    def __len__(self) -> int:
        return self.conn.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, fingerprint: str) -> bool:
        return self.conn.execute(
            "SELECT 1 FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone() is not None

    def __repr__(self) -> str:
        counts = self.queue_counts()
        return (
            f"CampaignStore({str(self.path)!r}, {len(self)} results, "
            f"queue {counts})"
        )

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def import_cache(self, path) -> int:
        """Import a JSON cache directory; returns records imported.

        The upgrade path from the flat layout earlier versions wrote:
        one ``<fingerprint>.json`` file per cell holding ``version``,
        ``fingerprint`` and ``record``.  A file that does not parse,
        is not of this :data:`CACHE_VERSION`, names another
        fingerprint, or holds no record dict is skipped (it read as a
        miss there too); one written by a newer schema raises
        :class:`CacheVersionError` naming the file.
        """
        items = []
        for entry in sorted(Path(path).glob("*.json")):
            try:
                doc = json.loads(entry.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(doc, dict):
                continue
            version = doc.get("version")
            if isinstance(version, int) and version > CACHE_VERSION:
                raise CacheVersionError(
                    f"cache entry {entry} was written by schema version "
                    f"{version}, but this build only supports up to "
                    f"{CACHE_VERSION}; upgrade the tool to import it"
                )
            record = doc.get("record")
            if version == CACHE_VERSION and isinstance(record, dict) \
                    and doc.get("fingerprint") == entry.stem:
                items.append((entry.stem, record))
        return self.put_many(items)

    # ------------------------------------------------------------------
    # job queue
    # ------------------------------------------------------------------
    def enqueue(self, jobs: Iterable[ClaimedJob]) -> int:
        """Add jobs to the queue; returns how many are left to run.

        Idempotent on resume: a fingerprint already queued keeps its
        row (and its state).  A job is ``done`` exactly when
        :meth:`get` would serve its result row, so a committed cell is
        never recomputed.  An enqueued job that an earlier run finished
        goes back to ``pending`` when its row is missing, of an older
        ``CACHE_VERSION``, or no longer decodes to a dict, and its
        commit overwrites the row.  An enqueued job that failed on
        every attempt goes back to ``pending`` with a fresh retry
        budget, so a fixed build re-runs exactly the failures.  A
        leased job is never touched: its owner may still commit it.
        """
        rows = [(fp, json.dumps(payload, sort_keys=True),
                 self.max_attempts)
                for fp, payload in jobs]
        with self._txn():
            if rows:
                self.conn.executemany(
                    "INSERT INTO jobs (fingerprint, payload) "
                    "VALUES (?, ?) ON CONFLICT (fingerprint) "
                    "DO UPDATE SET state = 'pending', "
                    "attempts = CASE state WHEN 'failed' THEN 0 "
                    "ELSE attempts END, error = NULL "
                    "WHERE state = 'done' "
                    "OR (state = 'failed' AND attempts >= ?)",
                    rows,
                )
            served = [
                (fp,) for fp, version, record in self.conn.execute(
                    "SELECT fingerprint, r.version, r.record "
                    "FROM jobs JOIN results r USING (fingerprint) "
                    "WHERE state != 'done'"
                ).fetchall()
                if self._served(fp, version, record) is not None
            ]
            self.conn.executemany(
                "UPDATE jobs SET state = 'done', lease_owner = NULL "
                "WHERE fingerprint = ?",
                served,
            )
            remaining = self.conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state != 'done'"
            ).fetchone()[0]
        return remaining

    def claim(self, owner: str, limit: int,
              shards: int = 1) -> List[ClaimedJob]:
        """Atomically lease up to ``limit`` runnable jobs to ``owner``,
        and never more than an equal share ⌈runnable / ``shards``⌉.

        Runnable: ``pending``, ``failed`` with attempts left, or
        ``leased`` past its deadline (work stealing — the previous
        owner crashed or stalled).  Claimed rows are stamped with the
        owner and a fresh deadline; the claim burns one attempt.
        Stealing respects the retry budget: an expired lease whose
        attempts are spent settles as permanently ``failed`` instead
        of ping-ponging between thieves forever.
        """
        now = time.time()
        runnable = (
            "(state = 'pending'"
            " OR (state = 'failed' AND attempts < ?)"
            " OR (state = 'leased' AND lease_deadline < ?))"
        )
        with self._txn():
            self.conn.execute(
                "UPDATE jobs SET state = 'failed', lease_owner = NULL, "
                "lease_deadline = NULL, error = COALESCE(error, "
                "'lease expired with retry budget exhausted') "
                "WHERE state = 'leased' AND lease_deadline < ? "
                "AND attempts >= ?",
                (now, self.max_attempts),
            )
            if shards > 1:
                count = self.conn.execute(
                    f"SELECT COUNT(*) FROM jobs WHERE {runnable}",
                    (self.max_attempts, now),
                ).fetchone()[0]
                limit = min(limit, -(-count // shards))
            rows = self.conn.execute(
                f"SELECT fingerprint, payload FROM jobs WHERE {runnable} "
                "ORDER BY fingerprint LIMIT ?",
                (self.max_attempts, now, limit),
            ).fetchall()
            if rows:
                self.conn.executemany(
                    "UPDATE jobs SET state = 'leased', lease_owner = ?, "
                    "lease_deadline = ?, attempts = attempts + 1 "
                    "WHERE fingerprint = ?",
                    [(owner, now + self.lease_s, fp) for fp, _ in rows],
                )
        return [(fp, json.loads(payload)) for fp, payload in rows]

    def commit(self, owner: str, completed: List[CompletedJob]) -> None:
        """Commit a batch: results plus ``done`` transitions, one txn.

        This is the durability point — a worker killed before this
        call leaves its lease to be reclaimed; killed after, every
        cell in the batch is permanently recorded.
        """
        if not completed:
            return
        result_rows = [
            (fp, CACHE_VERSION, json.dumps(record, sort_keys=True))
            for fp, record, _, _ in completed
        ]
        job_rows = [
            (json.dumps(obs) if obs is not None else None, elapsed, fp)
            for fp, _, obs, elapsed in completed
        ]
        with self._txn():
            self.conn.executemany(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, version, record) VALUES (?, ?, ?)",
                result_rows,
            )
            self.conn.executemany(
                "UPDATE jobs SET state = 'done', lease_owner = NULL, "
                "lease_deadline = NULL, error = NULL, obs = ?, "
                "elapsed_s = ?, drained = 0 WHERE fingerprint = ?",
                job_rows,
            )

    def fail(self, owner: str, fingerprint: str, error: str) -> None:
        """Record a cell failure (retryable until attempts run out)."""
        with self._txn():
            self.conn.execute(
                "UPDATE jobs SET state = 'failed', lease_owner = NULL, "
                "lease_deadline = NULL, error = ? WHERE fingerprint = ?",
                (error, fingerprint),
            )

    def reclaim_stale(self) -> int:
        """Return stale leases to the pool; how many were reclaimed.

        A lease is stale when its deadline passed, its owner was a
        ``pid:<n>`` on this box that no longer runs, an unreaped zombie
        included (instant resume-after-SIGKILL), *or* its owner has
        emitted heartbeats into the ``telemetry`` table but has been
        silent longer than :attr:`heartbeat_timeout_s` — the liveness
        test that catches hung-but-alive shards today and remote shards
        (no testable pid) once the store grows a cross-box transport.
        Owners that never heartbeat are judged only by deadline and
        pid, so telemetry-off campaigns behave exactly as before.  A
        stale lease with retry budget left goes back to ``pending``;
        one whose attempts are spent settles as permanently ``failed``
        (same rule as :meth:`claim`'s stealing).
        """
        now = time.time()
        heartbeats = self.latest_heartbeats()
        with self._txn():
            leased = self.conn.execute(
                "SELECT fingerprint, lease_owner, lease_deadline, "
                "attempts FROM jobs WHERE state = 'leased'"
            ).fetchall()
            stale = []
            alive: Dict[int, bool] = {}  # one look per owner pid
            for fp, lease_owner, deadline, attempts in leased:
                if deadline is not None and deadline < now:
                    stale.append((fp, attempts))
                    continue
                if lease_owner and lease_owner.startswith("pid:"):
                    try:
                        pid = int(lease_owner[4:])
                    except ValueError:
                        continue
                    if pid not in alive:
                        alive[pid] = _pid_alive(pid)
                    if not alive[pid]:
                        stale.append((fp, attempts))
                        continue
                beat = heartbeats.get(lease_owner)
                if beat is not None and \
                        now - beat["wall_time"] > self.heartbeat_timeout_s:
                    stale.append((fp, attempts))
            repend = [(fp,) for fp, attempts in stale
                      if attempts < self.max_attempts]
            exhaust = [(fp,) for fp, attempts in stale
                       if attempts >= self.max_attempts]
            if repend:
                self.conn.executemany(
                    "UPDATE jobs SET state = 'pending', "
                    "lease_owner = NULL, lease_deadline = NULL "
                    "WHERE fingerprint = ? AND state = 'leased'",
                    repend,
                )
            if exhaust:
                self.conn.executemany(
                    "UPDATE jobs SET state = 'failed', "
                    "lease_owner = NULL, lease_deadline = NULL, "
                    "error = COALESCE(error, 'lease expired with "
                    "retry budget exhausted') "
                    "WHERE fingerprint = ? AND state = 'leased'",
                    exhaust,
                )
        return len(stale)

    def drain_completed(
        self,
    ) -> List[Tuple[str, Dict[str, Any], Optional[Dict[str, Any]], float]]:
        """Completions not yet reported: (fp, record, obs, elapsed_s).

        Marks the returned jobs drained, so each completion is
        delivered to the coordinator exactly once.
        """
        with self._txn():
            rows = self.conn.execute(
                "SELECT j.fingerprint, r.record, j.obs, j.elapsed_s "
                "FROM jobs j JOIN results r USING (fingerprint) "
                "WHERE j.state = 'done' AND j.drained = 0 "
                "ORDER BY j.fingerprint"
            ).fetchall()
            if rows:
                self.conn.executemany(
                    "UPDATE jobs SET drained = 1 WHERE fingerprint = ?",
                    [(fp,) for fp, _, _, _ in rows],
                )
        out = []
        for fp, record, obs, elapsed in rows:
            out.append((
                fp,
                json.loads(record),
                json.loads(obs) if obs else None,
                elapsed if elapsed is not None else 0.0,
            ))
        return out

    def queue_counts(self) -> Dict[str, int]:
        """Row count per job state (every state present, zero-filled)."""
        counts = {state: 0 for state in JOB_STATES}
        for state, n in self.conn.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            counts[state] = n
        return counts

    def remaining_runnable(self) -> int:
        """Jobs a worker could still make progress on: pending, leased
        (maybe by a peer that will die), or failed with attempts left."""
        return self.conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE state IN "
            "('pending', 'leased') "
            "OR (state = 'failed' AND attempts < ?)",
            (self.max_attempts,),
        ).fetchone()[0]

    def failed_jobs(self) -> List[Tuple[str, str]]:
        """Permanently failed jobs: (fingerprint, error), sorted."""
        return [
            (fp, error or "")
            for fp, error in self.conn.execute(
                "SELECT fingerprint, error FROM jobs "
                "WHERE state = 'failed' AND attempts >= ? "
                "ORDER BY fingerprint",
                (self.max_attempts,),
            )
        ]

    def leased_jobs(self) -> List[Tuple[str, str, float, int]]:
        """Leases currently held: (fingerprint, owner, deadline,
        attempts), sorted — the post-mortem's "uncommitted cells"."""
        return [
            (fp, owner or "", deadline, attempts)
            for fp, owner, deadline, attempts in self.conn.execute(
                "SELECT fingerprint, lease_owner, lease_deadline, "
                "attempts FROM jobs WHERE state = 'leased' "
                "ORDER BY fingerprint"
            )
        ]

    # ------------------------------------------------------------------
    # flight recorder (the telemetry table)
    # ------------------------------------------------------------------
    def record_telemetry(
        self, samples: Iterable[Dict[str, Any]]
    ) -> int:
        """Append flight-recorder samples (one batched transaction).

        ``samples`` are :meth:`TelemetrySample.to_dict` dicts.  The
        table is append-only and lives outside the results/jobs
        contract entirely: nothing here ever feeds a fingerprint or a
        record, so recording cannot perturb resumability or
        byte-identity.
        """
        rows = [
            (s["kind"], s["owner"], s["role"], s["wall_time"],
             s["mono_time"], s["seq"],
             json.dumps(s.get("data", {}), sort_keys=True))
            for s in samples
        ]
        if not rows:
            return 0
        with self._txn():
            self.conn.executemany(
                "INSERT INTO telemetry (kind, owner, role, wall_time, "
                "mono_time, seq, data) VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def telemetry(
        self,
        kind: Optional[str] = None,
        owner: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Recorded samples in arrival order, optionally filtered."""
        query = ("SELECT kind, owner, role, wall_time, mono_time, "
                 "seq, data FROM telemetry")
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if owner is not None:
            clauses.append("owner = ?")
            params.append(owner)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        return [
            {
                "kind": k, "owner": o, "role": r, "wall_time": w,
                "mono_time": m, "seq": q, "data": json.loads(data),
            }
            for k, o, r, w, m, q, data in self.conn.execute(
                query, params)
        ]

    def latest_heartbeats(self) -> Dict[str, Dict[str, Any]]:
        """The newest heartbeat sample per owner (empty when the
        campaign never recorded telemetry)."""
        rows = self.conn.execute(
            "SELECT kind, owner, role, wall_time, mono_time, seq, data "
            "FROM telemetry WHERE id IN (SELECT MAX(id) FROM telemetry "
            "WHERE kind = 'heartbeat' GROUP BY owner)"
        ).fetchall()
        return {
            owner: {
                "kind": kind, "owner": owner, "role": role,
                "wall_time": wall_time, "mono_time": mono_time,
                "seq": seq, "data": json.loads(data),
            }
            for kind, owner, role, wall_time, mono_time, seq, data
            in rows
        }

    # ------------------------------------------------------------------
    def _txn(self):
        return _Transaction(self.conn)


class _Transaction:
    """``BEGIN IMMEDIATE`` … ``COMMIT``/``ROLLBACK`` as a context.

    ``BEGIN IMMEDIATE`` takes the write lock up front, so two
    processes claiming from the same queue serialize instead of both
    reading the same pending rows and double-leasing them.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self.conn.execute("BEGIN IMMEDIATE")
        return self.conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")
