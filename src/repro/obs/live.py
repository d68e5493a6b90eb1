"""Live telemetry and the flight recorder.

Everything :mod:`repro.obs` produced so far is *post-hoc*: spans,
probes, and metrics are collected in memory and exported after the run
exits cleanly.  A SIGKILL'd, hung, or merely slow campaign is a black
box until it finishes.  This module is the other half — a **flight
recorder**: workers and drivers emit periodic, low-overhead telemetry
*samples* (heartbeats, queue depths, generation summaries) into a
durable sink while the run is still in flight, so a live status view
(``examples/campaign_top.py``) and a crash post-mortem
(:mod:`repro.obs.postmortem`) can reconstruct what every shard was
doing from the outside, at any instant, without the run's cooperation.

Two sinks, matched to the two execution modes:

* :class:`StoreRecorder` — samples land in the ``telemetry`` table of
  a :class:`~repro.campaign.store.CampaignStore`, next to the jobs
  they describe (``--store`` mode; one durable file holds results,
  queue, and black box);
* :class:`JsonlRecorder` — an append-only JSONL file, one sample per
  line, flushed per write (runs without a store; a SIGKILL loses at
  most the half-written last line, which :func:`read_samples`
  tolerates).

Three invariants, enforced by test:

* **zero-cost when disabled** — every producer guards with
  ``if <emitter> is not None``; an unrecorded run constructs no
  telemetry object and allocates nothing in this module;
* **never in the results** — samples carry wall-clock and host
  identity by design, so they must never flow into fingerprints,
  records, or tables; results are byte-identical recorder on or off
  (pinned by differential tests);
* **low overhead when enabled** — emission is rate-limited by
  :class:`TelemetryEmitter` (one monotonic-clock compare on the hot
  path), bounded <3% by ``benchmarks/test_bench_telemetry.py``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

#: Schema version stamped into every sample.
TELEMETRY_VERSION = 1

#: Default heartbeat period (seconds) for shards and drivers.
DEFAULT_HEARTBEAT_S = 1.0

#: Well-known sample kinds.  ``heartbeat`` — periodic liveness +
#: progress from one worker/driver; ``queue`` — coordinator-side queue
#: depth and lease gauges; ``run`` — one-shot run start/finish marks;
#: ``generation`` — one explorer generation's selection summary.
SAMPLE_KINDS = ("heartbeat", "queue", "run", "generation")


@dataclass(slots=True)
class TelemetrySample:
    """One flight-recorder record.

    ``wall_time`` is ``time.time()`` (comparable across boxes, used
    for heartbeat-age liveness); ``mono_time`` is ``time.monotonic()``
    (immune to clock steps, used for throughput deltas within one
    owner's stream); ``seq`` is the emitter's own counter, so gaps
    betray lost samples.  ``data`` is the sample's free-form gauge
    dict — plain JSON, never result bytes.
    """

    kind: str
    owner: str
    role: str
    wall_time: float
    mono_time: float
    seq: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the on-disk/in-table layout)."""
        return {
            "version": TELEMETRY_VERSION,
            "kind": self.kind,
            "owner": self.owner,
            "role": self.role,
            "wall_time": self.wall_time,
            "mono_time": self.mono_time,
            "seq": self.seq,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TelemetrySample":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kind=doc["kind"], owner=doc["owner"], role=doc["role"],
            wall_time=doc["wall_time"], mono_time=doc["mono_time"],
            seq=doc["seq"], data=dict(doc.get("data", {})),
        )


class JsonlRecorder:
    """Append-only JSONL flight-recorder file (runs without a store).

    Each sample is one ``json.dumps`` line, written and flushed
    atomically enough for a black box: the file is opened in append
    mode per process (reopened after a ``fork``, like the campaign
    store's connection), every record is a single ``write`` call, and
    a crash mid-write corrupts at most the final line — which
    :func:`read_samples` skips instead of raising.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self._fh_pid: Optional[int] = None

    def _file(self):
        pid = os.getpid()
        if self._fh is None or self._fh_pid != pid:
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh_pid = pid
        return self._fh

    def record(self, sample: TelemetrySample) -> None:
        """Append one sample and flush it to the OS."""
        fh = self._file()
        fh.write(json.dumps(sample.to_dict(), sort_keys=True) + "\n")
        fh.flush()

    def close(self) -> None:
        """Close this process's handle (reopens on next record)."""
        if self._fh is not None and self._fh_pid == os.getpid():
            self._fh.close()
        self._fh = None
        self._fh_pid = None


class StoreRecorder:
    """Samples land in a :class:`CampaignStore`'s ``telemetry`` table.

    The store's connection is already lazy per process, so one
    recorder object safely crosses a ``fork`` into shard processes.
    """

    def __init__(self, store) -> None:
        self.store = store

    def record(self, sample: TelemetrySample) -> None:
        """Insert one sample (its own small transaction)."""
        self.store.record_telemetry([sample.to_dict()])


def read_samples(path) -> List[TelemetrySample]:
    """Parse a :class:`JsonlRecorder` file, tolerating a torn tail.

    A run killed mid-write leaves a truncated final line; that line
    (and any other unparseable line) is skipped — the flight recorder
    must be readable precisely when the run died messily.
    """
    samples: List[TelemetrySample] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    samples.append(TelemetrySample.from_dict(doc))
                except (ValueError, KeyError, TypeError):
                    continue  # torn/garbled line: skip, don't raise
    except FileNotFoundError:
        return []
    return samples


class TelemetryEmitter:
    """Rate-limited sample emission for one owner.

    The hot-path cost of an armed emitter is one monotonic-clock read
    and one compare (:meth:`heartbeat` returning ``False``); the first
    heartbeat fires immediately so even a short-lived worker leaves a
    trace.  Callers that need a guaranteed sample (run start/finish,
    generation marks, last words before exit) use :meth:`emit` or
    ``heartbeat(force=True)``.
    """

    def __init__(
        self,
        recorder,
        owner: Optional[str] = None,
        role: str = "run",
        interval_s: float = DEFAULT_HEARTBEAT_S,
        clock=time.monotonic,
        wall=time.time,
    ) -> None:
        self.recorder = recorder
        self.owner = owner if owner is not None else f"pid:{os.getpid()}"
        self.role = role
        self.interval_s = float(interval_s)
        self._clock = clock
        self._wall = wall
        self._seq = 0
        self._next = self._clock()  # first heartbeat emits immediately

    def emit(self, kind: str, **data: Any) -> TelemetrySample:
        """Record one sample unconditionally."""
        sample = TelemetrySample(
            kind=kind, owner=self.owner, role=self.role,
            wall_time=self._wall(), mono_time=self._clock(),
            seq=self._seq, data=data,
        )
        self._seq += 1
        self.recorder.record(sample)
        return sample

    def heartbeat(self, force: bool = False, **data: Any) -> bool:
        """Emit a ``heartbeat`` sample if the interval has elapsed.

        Returns whether a sample was recorded — ``False`` costs one
        clock read and one compare, which is the whole enabled-path
        overhead between emissions.
        """
        now = self._clock()
        if not force and now < self._next:
            return False
        self._next = now + self.interval_s
        self.emit("heartbeat", **data)
        return True


# ----------------------------------------------------------------------
# status rendering (campaign_top / obs_report --live)
# ----------------------------------------------------------------------
def latest_by_owner(
    samples: Iterable[TelemetrySample], kind: str = "heartbeat"
) -> Dict[str, TelemetrySample]:
    """The newest sample of ``kind`` per owner (stream order wins)."""
    latest: Dict[str, TelemetrySample] = {}
    for sample in samples:
        if sample.kind == kind:
            latest[sample.owner] = sample
    return latest


def owner_throughput(
    samples: Iterable[TelemetrySample], owner: str
) -> Optional[float]:
    """Cells/second from the owner's first → last heartbeat.

    Uses the cumulative ``done`` gauge against the monotonic clock, so
    wall-clock steps can't produce negative rates.  ``None`` when the
    stream is too short to measure.
    """
    stream = [s for s in samples
              if s.owner == owner and s.kind == "heartbeat"
              and "done" in s.data]
    if len(stream) < 2:
        return None
    first, last = stream[0], stream[-1]
    dt = last.mono_time - first.mono_time
    if dt <= 0:
        return None
    return (last.data["done"] - first.data["done"]) / dt


def render_status(
    samples: List[TelemetrySample],
    queue_counts: Optional[Dict[str, int]] = None,
    dead_owners: Iterable[str] = (),
    now_wall: Optional[float] = None,
    title: str = "campaign status",
) -> str:
    """One ``top``-style text frame from the latest samples.

    Per owner: role, heartbeat age, cumulative progress gauges, and
    measured throughput; a footer adds queue depths and an ETA
    (remaining runnable work over the summed live throughput) when a
    store's ``queue_counts`` are available.
    """
    now = time.time() if now_wall is None else now_wall
    dead = set(dead_owners)
    beats = latest_by_owner(samples)
    lines = [f"{title}  ({len(samples)} samples, "
             f"{len(beats)} owner(s))"]
    header = (f"  {'owner':<12} {'role':<12} {'age':>6} {'done':>6} "
              f"{'rate':>9}  state")
    lines.append(header)
    total_rate = 0.0
    for owner in sorted(beats):
        sample = beats[owner]
        age = now - sample.wall_time
        done = sample.data.get("done", "-")
        rate = owner_throughput(samples, owner)
        if rate is not None:
            total_rate += rate
        state = "DEAD" if owner in dead else (
            "exited" if sample.data.get("exiting") else "live")
        lines.append(
            f"  {owner:<12} {sample.role:<12} {age:>5.1f}s {done!s:>6} "
            f"{(f'{rate:.2f}/s' if rate is not None else '-'):>9}  "
            f"{state}"
        )
    queues = latest_by_owner(samples, kind="queue")
    if queue_counts is None and queues:
        newest = max(queues.values(), key=lambda s: s.mono_time)
        queue_counts = {
            k: v for k, v in newest.data.items()
            if isinstance(v, int)
        }
    if queue_counts:
        counts = "  ".join(
            f"{state}={queue_counts[state]}"
            for state in sorted(queue_counts)
        )
        lines.append(f"  queue: {counts}")
        remaining = (queue_counts.get("pending", 0)
                     + queue_counts.get("leased", 0))
        if remaining and total_rate > 0:
            lines.append(
                f"  eta: ~{remaining / total_rate:.1f}s "
                f"({remaining} cell(s) at {total_rate:.2f}/s)"
            )
    gens = [s for s in samples if s.kind == "generation"]
    if gens:
        g = gens[-1]
        lines.append(
            f"  explore: generation {g.data.get('generation')} "
            f"front={g.data.get('front_size')} "
            f"hv={g.data.get('hypervolume', 0.0):.4f}"
        )
    return "\n".join(lines)
