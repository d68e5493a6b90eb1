"""The campaign service: a coordinator plus N work-stealing shards.

:func:`run_store_jobs` is the execution discipline both engines
(:func:`repro.sweep.engine.run_sweep` and
:func:`repro.fault.campaign.run_campaign`) delegate to when handed a
:class:`~repro.campaign.store.CampaignStore` — the durable counterpart
of :func:`~repro.sweep.engine.pool_map`:

* the coordinator reclaims stale leases (instant resume after a
  SIGKILL'd run), enqueues the still-missing cells, and spawns shard
  processes;
* each shard loops *claim batch → compute → commit batch* against the
  store, so any interruption loses at most one uncommitted batch per
  shard and a restarted campaign recomputes only uncommitted cells.
  A batch is sized by time, not by count (:func:`claim_limit`): about
  :data:`COMMIT_INTERVAL_S` of work at the shard's measured mean cell
  time, or one cell when a cell takes longer;
* shards steal work: a claim considers expired or dead-owner leases
  runnable, so one slow or dead shard never strands its cells;
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
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.campaign.runners import get_runner
from repro.campaign.store import CampaignStore
from repro.obs.live import (
    DEFAULT_HEARTBEAT_S,
    StoreRecorder,
    TelemetryEmitter,
)

#: ``on_done(fingerprint, record, obs_or_none, in_worker_elapsed_s)``.
OnDone = Callable[[str, Dict[str, Any], Optional[Dict[str, Any]], float],
                  None]

#: Seconds of cell work a shard claims, and so commits, at once.  A
#: claim and a commit cost ~0.1–0.3 ms each, so at this size the two
#: transactions are well under 1% of the batch they bracket, and a kill
#: still loses at most a tenth of a second of work per shard.
COMMIT_INTERVAL_S = 0.1


class CampaignInterrupted(RuntimeError):
    """Every shard died while runnable jobs remained.

    The committed cells are safe in the store — re-running the same
    campaign against it resumes where this one stopped.
    """


class CampaignCellError(RuntimeError):
    """One or more cells failed on every attempt.

    ``failures`` maps fingerprint → last error text; completed cells
    stay committed, so a fixed build re-runs only the failures.
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


def _shard_main(path, lease_s: float, max_attempts: int,
                runner_name: str, shards: int, poll_s: float,
                heartbeat_s: Optional[float] = None) -> None:
    """One shard process: open the store, then run the shard loop."""
    store = CampaignStore(path, lease_s=lease_s,
                          max_attempts=max_attempts)
    _run_shard(store, runner_name, shards, poll_s, heartbeat_s)


def _run_shard(store: CampaignStore, runner_name: str, shards: int,
               poll_s: float, heartbeat_s: Optional[float]) -> None:
    """One shard: claim → compute → commit until drained.

    Each claim is sized by :func:`claim_limit` from the cell times
    this shard has measured, and capped at a ``1 / shards`` share of
    the runnable jobs.

    With ``heartbeat_s`` set, the shard also heartbeats into the
    store's ``telemetry`` table (cumulative ``done``/``failed`` gauges
    plus the in-flight batch size) so the coordinator, a live
    ``campaign_top``, and :meth:`CampaignStore.reclaim_stale` can all
    judge its liveness from the outside.  ``None`` constructs no
    telemetry object at all — the zero-cost-when-disabled contract.
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
            if store.remaining_runnable() == 0:
                if emitter is not None:
                    emitter.heartbeat(force=True, done=done,
                                      failed=failed, in_flight=0,
                                      exiting=True)
                return
            # peers hold live leases; wait for expiry/reclaim to steal
            time.sleep(poll_s)
            continue
        completed = []
        for fingerprint, payload in jobs:
            t0 = time.perf_counter()
            try:
                record, obs = runner(payload)
            except Exception as exc:  # noqa: BLE001 — cell isolation
                busy_s += time.perf_counter() - t0
                store.fail(owner, fingerprint,
                           f"{type(exc).__name__}: {exc}")
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            busy_s += elapsed
            completed.append((fingerprint, record, obs, elapsed))
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
    poll_s: float = 0.02,
    metrics=None,
    span_tracer=None,
    recorder=None,
    heartbeat_s: Optional[float] = None,
) -> None:
    """Run ``jobs`` through the store's queue on ``workers`` shards.

    ``workers == 1`` runs the shard loop in-process on ``store``'s own
    connection (still durable and resumable — every batch commits);
    more workers spawn shard processes, each opening the store file,
    and the coordinator streams completions, reclaims stale leases,
    and emits queue-depth telemetry.  Raises
    :class:`CampaignCellError` when cells exhausted their attempts and
    :class:`CampaignInterrupted` when all shards died early.

    ``recorder``/``heartbeat_s`` arm the flight recorder: shards
    heartbeat into the store's ``telemetry`` table every
    ``heartbeat_s`` seconds and the coordinator records its own
    heartbeats plus ``queue`` gauge samples to ``recorder`` (default:
    the store itself).  Both ``None`` — the default — constructs no
    telemetry object anywhere on the path.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if heartbeat_s is None and recorder is not None:
        heartbeat_s = DEFAULT_HEARTBEAT_S
    emitter = None
    if heartbeat_s is not None:
        # owner "coord:<pid>" keeps the coordinator's stream distinct
        # from an in-process shard's "pid:<pid>" lease owner
        emitter = TelemetryEmitter(
            recorder if recorder is not None else StoreRecorder(store),
            owner=f"coord:{os.getpid()}",
            role="coordinator", interval_s=heartbeat_s,
        )
    reclaimed = store.reclaim_stale()
    if reclaimed and metrics is not None:
        metrics.counter("campaign.leases.reclaimed").inc(reclaimed)
    jobs = list(jobs)
    remaining = store.enqueue(jobs)
    if metrics is not None:
        metrics.counter("campaign.jobs.enqueued").inc(len(jobs))

    #: only this run's jobs flow back through on_done — a resumed
    #: store also holds done-but-never-drained rows from an earlier,
    #: interrupted coordinator, and those are the caller's cache hits,
    #: not completions it asked this run to compute
    wanted = {fingerprint for fingerprint, _ in jobs}
    delivered = set()

    def deliver(fingerprint, record, obs, elapsed) -> None:
        if fingerprint not in wanted or fingerprint in delivered:
            return
        delivered.add(fingerprint)
        if metrics is not None:
            metrics.counter("campaign.jobs.committed").inc()
        on_done(fingerprint, record, obs, elapsed)

    def drain() -> None:
        for completion in store.drain_completed():
            deliver(*completion)

    def depth_event() -> None:
        if span_tracer is not None:
            counts = store.queue_counts()
            span_tracer.event("queue.depth", **counts)

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
    if workers == 1 or remaining <= 1:
        _run_shard(store, runner_name, 1, poll_s, heartbeat_s)
    else:
        import multiprocessing

        ctx = multiprocessing.get_context()
        shards = [
            ctx.Process(
                target=_shard_main,
                args=(store.path, store.lease_s, store.max_attempts,
                      runner_name, workers, poll_s, heartbeat_s),
                name=f"campaign-shard-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for shard in shards:
            shard.start()
        try:
            while True:
                drain()
                depth_event()
                pulse()
                counts = store.queue_counts()
                undone = sum(
                    n for state, n in counts.items() if state != "done"
                )
                if undone == 0:
                    break
                stale = store.reclaim_stale()
                if stale and metrics is not None:
                    metrics.counter(
                        "campaign.leases.reclaimed").inc(stale)
                if not any(s.is_alive() for s in shards):
                    if store.remaining_runnable() > 0:
                        raise CampaignInterrupted(
                            f"all {workers} shards exited with "
                            f"{store.remaining_runnable()} runnable "
                            f"job(s) left in {store.path}; re-run to "
                            f"resume from the committed cells"
                        )
                    break  # only permanently-failed jobs remain
                time.sleep(poll_s)
        finally:
            for shard in shards:
                shard.join(timeout=5.0)
                if shard.is_alive():
                    shard.terminate()
    drain()
    # belt-and-braces: anything committed but missed by the drain
    # cursor (e.g. drained by a concurrent coordinator) is read back
    # from the results table so every wanted job is delivered
    for fingerprint in sorted(wanted - delivered):
        record = store.get(fingerprint)
        if record is not None:
            deliver(fingerprint, record, None, 0.0)
    depth_event()
    pulse(force=True, exiting=True)

    failures = dict(store.failed_jobs())
    if failures:
        if metrics is not None:
            metrics.counter("campaign.cells.failed").inc(len(failures))
        raise CampaignCellError(failures)
