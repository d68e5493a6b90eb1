"""The campaign service: the one way every campaign's cells run.

:func:`run_cells` is the execution path the three drivers
(:func:`repro.sweep.engine.run_sweep`,
:func:`repro.fault.campaign.run_campaign` and
:func:`repro.explore.driver.explore`) hand their uncached cells to.
With no store and ``workers == 1`` the cells run in a plain loop in
this process.  Every other run goes through :func:`run_store_jobs`,
on the caller's :class:`~repro.campaign.store.CampaignStore` or, when
``workers > 1`` and no store was given, on a temporary store deleted
afterwards.  Either way a cell runs the runner registered under its
name (:mod:`repro.campaign.runners`), so every path computes the same
record; a cell the caller's :class:`~repro.obs.session.Obs` observes
runs under a worker session whose payload travels beside the record.

:func:`run_store_jobs` is a coordinator plus N shards:

* the coordinator reclaims stale leases (instant resume after a
  SIGKILL'd run), enqueues the still-missing cells, and spawns shard
  processes;
* each shard loops *claim batch → compute → commit batch* against the
  store, so any interruption loses at most one uncommitted batch per
  shard and a restarted campaign recomputes only uncommitted cells.
  A batch is sized by time, not by count (:func:`claim_limit`): about
  :data:`COMMIT_INTERVAL_S` of work at the shard's measured mean cell
  time, or one cell when a cell takes longer;
* a shard exits as soon as a claim comes back empty, and the
  coordinator sleeps on the shards' process sentinels, so the last
  shard's exit wakes it at once;
* a shard that dies mid-run leaves leases behind; the coordinator
  reclaims them and starts one replacement shard, so the dead shard's
  cells finish in the same run;
* the coordinator streams completions back through ``on_done`` in
  deterministic (fingerprint) batches — callers key results by
  fingerprint, so table order never depends on completion order.

Shards talk to the coordinator *only through the store*.  That is the
point: the same protocol runs N processes on one box today and N boxes
against one database file (or a socket-served store) later, and a
coordinator crash is no worse than a worker crash — the queue is the
one source of truth.
"""

from __future__ import annotations

import os
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Tuple,
)

from repro import _domain
from repro.campaign.runners import Runner, get_runner
from repro.obs.live import (
    DEFAULT_HEARTBEAT_S,
    StoreRecorder,
    TelemetryEmitter,
)
from repro.obs.session import DISABLED, Obs

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore

# the store (sqlite3), multiprocessing and tempfile are imported where
# a run needs them: a workers=1 run with no store touches none of them

#: ``on_done(fingerprint, record, obs_or_none, in_worker_elapsed_s)``.
OnDone = Callable[[str, Dict[str, Any], Optional[Dict[str, Any]], float],
                  None]

#: Seconds of cell work a shard claims, and so commits, at once.  A
#: claim and a commit cost ~0.1–0.3 ms each, so at this size the two
#: transactions are well under 1% of the batch they bracket, and a kill
#: still loses at most a tenth of a second of work per shard.
COMMIT_INTERVAL_S = 0.1

#: Longest the coordinator of a sharded run sleeps between looks at
#: the store.  A shard's exit wakes it at once; the timeout bounds how
#: late completions stream to ``on_done`` and how late a hung shard's
#: stale lease is noticed.
POLL_S = 0.02


class CampaignInterrupted(RuntimeError):
    """No shard is alive while runnable jobs remain.

    The committed cells are safe in the store — re-running the same
    campaign against it resumes where this one stopped.
    """


class CampaignCellError(RuntimeError):
    """One or more cells failed on every attempt.

    ``failures`` maps fingerprint → last error text; completed cells
    stay committed, and re-enqueueing gives the failed ones a fresh
    retry budget, so a fixed build re-runs only the failures.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        first = next(iter(sorted(failures)))
        super().__init__(
            f"{len(failures)} campaign cell(s) failed on every "
            f"attempt; first: {first} ({failures[first]}); completed "
            f"cells remain committed in the store"
        )
        self.failures = dict(failures)


def claim_limit(cells: int, busy_s: float, lease_s: float) -> int:
    """How many cells a shard that has run ``cells`` cells in
    ``busy_s`` seconds claims next.

    Until a cell time is measured a claim takes one cell.  Every
    later claim takes as many cells as fit in :data:`COMMIT_INTERVAL_S`
    at the mean cell time so far, and at least one.  The interval is
    capped at half the lease, so a batch of typical cells commits well
    before its lease could be stolen.  :meth:`CampaignStore.claim`
    caps the count again at an equal share of the runnable jobs
    (guided self-scheduling), which keeps sharded runs balanced.
    """
    if busy_s <= 0.0:
        return 1
    interval = min(COMMIT_INTERVAL_S, lease_s / 2)
    return max(1, int(interval * cells / busy_s))


def run_cells(
    jobs: Iterable[Tuple[str, Dict[str, Any]]],
    runner_name: str,
    workers: int,
    on_done: OnDone,
    store: Optional[CampaignStore] = None,
    obs: Optional[Obs] = None,
) -> None:
    """Run every ``(fingerprint, payload)`` job through the runner
    registered as ``runner_name``; report each through ``on_done``.

    With no ``store`` and ``workers == 1`` the jobs run in order in
    this process, and a cell that raises propagates unwrapped.  Every
    other run is :func:`run_store_jobs` — on ``store``, or on a
    temporary store deleted afterwards — and raises
    :class:`CampaignCellError` for cells that failed on every attempt.
    ``obs`` goes along, its recorder to the caller's store only:
    without one, the driver records its own run.
    """
    _domain.count("workers", workers, 1)
    runner = get_runner(runner_name)
    jobs = list(jobs)
    obs = obs if obs is not None else DISABLED
    if store is None and (workers == 1 or not jobs):
        observe = obs.observes(runner_name)
        for fingerprint, payload in jobs:
            t0 = time.perf_counter()
            record, doc = _run_cell(runner, runner_name, payload, observe)
            on_done(fingerprint, record, doc, time.perf_counter() - t0)
        return
    if store is not None:
        run_store_jobs(store, runner_name, jobs, workers, on_done, obs=obs)
        return
    import tempfile

    from repro.campaign.store import CampaignStore

    with tempfile.TemporaryDirectory(prefix="campaign-") as tmp:
        temp = CampaignStore(os.path.join(tmp, "campaign.sqlite"))
        try:
            run_store_jobs(temp, runner_name, jobs, workers, on_done,
                           obs=obs.without_recorder())
        finally:
            temp.close()


def _run_cell(runner: Runner, kind: str, payload: Dict[str, Any],
              observe: bool) -> Tuple[Dict[str, Any],
                                      Optional[Dict[str, Any]]]:
    """One cell: its record, and with ``observe`` the payload of the
    worker session it ran under (None otherwise)."""
    if not observe:
        return runner(payload, None), None
    worker = Obs.worker(kind)
    return runner(payload, worker), worker.payload()


def _shard_main(path, lease_s: float, max_attempts: int,
                runner_name: str, shards: int,
                heartbeat_s: Optional[float], observe: bool) -> None:
    """One shard process: open the store, then run the shard loop."""
    from repro.campaign.store import CampaignStore

    store = CampaignStore(path, lease_s=lease_s,
                          max_attempts=max_attempts)
    _run_shard(store, runner_name, shards, heartbeat_s, observe)


def _run_shard(store: CampaignStore, runner_name: str, shards: int,
               heartbeat_s: Optional[float],
               observe: bool = False) -> None:
    """One shard: claim → compute → commit until a claim is empty.

    Each claim is sized by :func:`claim_limit` from the cell times
    this shard has measured, and capped at a ``1 / shards`` share of
    the runnable jobs.  An empty claim ends the shard at once, even
    while peers still hold leases: if a peer dies, the coordinator
    reclaims its leases and starts a replacement shard.

    With ``heartbeat_s`` set, the shard also heartbeats into the
    store's ``telemetry`` table (cumulative ``done``/``failed`` gauges
    plus the in-flight batch size) so the coordinator, a live
    ``campaign_top``, and :meth:`CampaignStore.reclaim_stale` can all
    judge its liveness from the outside; its last beat says
    ``exiting``.  ``None`` constructs no telemetry object at all — the
    zero-cost-when-disabled contract.  ``observe`` runs cells observed.
    """
    runner = get_runner(runner_name)
    owner = f"pid:{os.getpid()}"
    emitter = None
    if heartbeat_s is not None:
        emitter = TelemetryEmitter(StoreRecorder(store), owner=owner,
                                   role="shard",
                                   interval_s=heartbeat_s)
    done = failed = 0
    busy_s = 0.0  # in-worker time of every cell this shard ran
    while True:
        limit = claim_limit(done + failed, busy_s, store.lease_s)
        jobs = store.claim(owner, limit, shards=shards)
        if emitter is not None:
            emitter.heartbeat(done=done, failed=failed,
                              in_flight=len(jobs))
        if not jobs:
            if emitter is not None:
                emitter.heartbeat(force=True, done=done, failed=failed,
                                  in_flight=0, exiting=True)
            return
        completed = []
        for fingerprint, payload in jobs:
            t0 = time.perf_counter()
            try:
                record, doc = _run_cell(runner, runner_name, payload,
                                        observe)
            except Exception as exc:  # noqa: BLE001 — cell isolation
                busy_s += time.perf_counter() - t0
                store.fail(owner, fingerprint,
                           f"{type(exc).__name__}: {exc}")
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            busy_s += elapsed
            completed.append((fingerprint, record, doc, elapsed))
            if emitter is not None:
                emitter.heartbeat(
                    done=done + len(completed), failed=failed,
                    in_flight=len(jobs) - len(completed))
        store.commit(owner, completed)
        done += len(completed)


def run_store_jobs(
    store: CampaignStore,
    runner_name: str,
    jobs: Iterable[Tuple[str, Dict[str, Any]]],
    workers: int,
    on_done: OnDone,
    obs: Optional[Obs] = None,
) -> None:
    """Run ``jobs`` through the store's queue on ``workers`` shards.

    ``workers == 1`` runs the shard loop in-process on ``store``'s own
    connection (still durable and resumable — every batch commits);
    more workers spawn shard processes, each opening the store file,
    and the coordinator streams completions, reclaims stale leases
    (starting one replacement shard whenever it does), and emits
    queue-depth telemetry.  Raises :class:`CampaignCellError` when
    cells of ``jobs`` exhausted their attempts and
    :class:`CampaignInterrupted` when no shard is left alive while
    runnable jobs remain.

    ``obs`` counts jobs, gets ``queue.depth`` span events, and decides
    whether cells run observed.  Its recorder arms the flight recorder:
    shards heartbeat into the store's ``telemetry`` table and the
    coordinator records heartbeats plus ``queue`` gauges to it.  With
    none, no telemetry object is constructed anywhere on the path.
    """
    _domain.count("workers", workers, 1)
    obs = obs if obs is not None else DISABLED
    observe = obs.observes(runner_name)
    heartbeat_s = emitter = None
    if obs.recorder is not None:
        heartbeat_s = DEFAULT_HEARTBEAT_S
        # owner "coord:<pid>" keeps the coordinator's stream distinct
        # from an in-process shard's "pid:<pid>" lease owner
        emitter = TelemetryEmitter(obs.recorder, role="coordinator",
                                   owner=f"coord:{os.getpid()}")
    reclaimed = store.reclaim_stale()
    if reclaimed:
        obs.count("campaign.leases.reclaimed", reclaimed)
    jobs = list(jobs)
    remaining = store.enqueue(jobs)
    obs.count("campaign.jobs.enqueued", len(jobs))

    #: only this run's jobs flow back through on_done — a resumed
    #: store also holds done-but-never-drained rows from an earlier,
    #: interrupted coordinator, and those are the caller's cache hits,
    #: not completions it asked this run to compute
    wanted = {fingerprint for fingerprint, _ in jobs}
    delivered = set()

    def deliver(fingerprint, record, doc, elapsed) -> None:
        if fingerprint not in wanted or fingerprint in delivered:
            return
        delivered.add(fingerprint)
        obs.count("campaign.jobs.committed")
        on_done(fingerprint, record, doc, elapsed)

    def drain() -> None:
        for completion in store.drain_completed():
            deliver(*completion)

    def depth_event() -> None:
        # reading the depth is a store call: only a timeline pays it
        if obs.spans is not None:
            obs.event("queue.depth", **store.queue_counts())

    def pulse(force: bool = False, exiting: bool = False) -> None:
        # coordinator-side flight-recorder sample: heartbeat + the
        # queue gauges a live status view renders its footer from
        if emitter is None:
            return
        data = {"done": len(delivered), "workers": workers}
        if exiting:
            data["exiting"] = True
        if emitter.heartbeat(force=force, **data):
            emitter.emit("queue", **store.queue_counts())

    depth_event()
    pulse(force=True)
    inline = workers == 1 or remaining <= 1
    shards = []  # the shard processes this run started

    def start_shard() -> None:
        if inline:
            _run_shard(store, runner_name, 1, heartbeat_s, observe)
            return
        import multiprocessing

        shard = multiprocessing.get_context().Process(
            target=_shard_main,
            args=(store.path, store.lease_s, store.max_attempts,
                  runner_name, workers, heartbeat_s, observe),
            name=f"campaign-shard-{len(shards)}",
            daemon=True,
        )
        shard.start()
        shards.append(shard)

    def coordinate() -> None:
        """Watch the shards until no job is left undone.

        Between looks at the store the coordinator sleeps on the
        shards' process sentinels, so a shard's exit — the last one's
        above all — wakes it at once.  When
        :meth:`CampaignStore.reclaim_stale` puts a dead or hung
        shard's leases back in the queue, one replacement shard
        starts; every claim burns an attempt, so replacements are
        bounded by the retry budget.  Jobs leased to a live worker
        this run did not start are waited for until that worker
        commits them or its lease goes stale.
        """
        from multiprocessing.connection import wait

        while True:
            counts = store.queue_counts()
            if all(n == 0 for state, n in counts.items()
                   if state != "done"):
                return
            # read before the reclaim (is_alive also reaps a dead
            # shard), so a shard that dies in between has its leases
            # reclaimed next time round
            alive = [s for s in shards if s.is_alive()]
            stale = store.reclaim_stale()
            if stale:
                obs.count("campaign.leases.reclaimed", stale)
                start_shard()
            elif not alive:
                runnable = store.remaining_runnable()
                if not runnable:
                    return  # only permanently-failed jobs remain
                if runnable > store.queue_counts()["leased"]:
                    raise CampaignInterrupted(
                        f"no shard alive with {runnable} runnable "
                        f"job(s) left in {store.path}; re-run to "
                        f"resume from the committed cells"
                    )
            wait([s.sentinel for s in shards if s.is_alive()],
                 timeout=POLL_S)
            drain()
            depth_event()
            pulse()

    try:
        for _ in range(1 if inline else workers):
            start_shard()
        drain()
        # an in-process shard that delivered every wanted job leaves
        # nothing to watch
        if not inline or wanted - delivered:
            coordinate()
            drain()
    finally:
        for shard in shards:
            shard.join(timeout=5.0)
            if shard.is_alive():
                shard.terminate()
    # belt-and-braces: anything committed but missed by the drain
    # cursor (e.g. drained by a concurrent coordinator) is read back
    # from the results table so every wanted job is delivered
    for fingerprint in sorted(wanted - delivered):
        record = store.get(fingerprint)
        if record is not None:
            deliver(fingerprint, record, None, 0.0)
    depth_event()
    pulse(force=True, exiting=True)

    # only this run's jobs: a failure another campaign left in a
    # shared store is not this run's to report
    failures = {fp: error for fp, error in store.failed_jobs()
                if fp in wanted}
    if failures:
        obs.count("campaign.cells.failed", len(failures))
        raise CampaignCellError(failures)
