"""Fault campaigns: golden-vs-faulty runs, classified and tabulated.

A campaign takes one scenario and a list of :class:`FaultSpec`, runs
the golden (fault-free) reference plus one run per fault — through the
campaign service's one execution path
(:func:`repro.campaign.service.run_cells`), with results reused from a
:class:`~repro.campaign.store.CampaignStore` when one is given — and
classifies every outcome record against the golden one:

``crash``
    the run raised (CPU fault, kernel error) — anything but a watchdog
    :class:`~repro.cosim.kernel.HangDetected`;
``hang``
    the watchdog fired, or the run ended without the workload
    completing (deadlock, starvation, lost message);
``detected``
    the workload completed and its *own* redundancy flagged the fault;
``sdc``
    completed, undetected, but the output stream differs from golden —
    silent data corruption, the outcome dependability work cares most
    about;
``masked``
    completed with output identical to golden.

The precedence above is total, so every fault lands in exactly one
class, and classification happens in the parent from JSON-stable
records — the histogram is identical at any worker count.  A
software-only scenario's cells each start as a copy of its golden run
(:func:`repro.fault.scenarios.run_sw_scenario`, DESIGN §14) wherever
they run: in-process, on a store shard or on a temporary store.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple,
)

from repro.campaign.service import run_cells
from repro.fault.scenarios import SCENARIOS, run_scenario
from repro.fault.spec import FAULT_VERSION, OUTCOMES, FaultSpec
from repro.obs.session import DISABLED, Obs

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore

#: A campaign job: (scenario name, fault dict or None for golden).
Job = Tuple[str, Optional[Dict[str, Any]]]


class CampaignError(RuntimeError):
    """The golden run is unusable as a classification reference."""


def cell_fingerprint(scenario: str, fault: Optional[FaultSpec]) -> str:
    """Cache key for one (scenario, fault) cell.

    Versioned alongside :data:`~repro.fault.spec.FAULT_VERSION` so a
    schema change invalidates old entries instead of misclassifying
    against them.
    """
    doc = {
        "version": FAULT_VERSION,
        "scenario": scenario,
        "fault": fault.to_dict() if fault is not None else None,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest()


def run_fault_cell(job: Job, obs: Optional[Obs] = None) -> Dict[str, Any]:
    """Run one campaign cell (the ``fault`` runner calls it by name).

    ``obs``, the worker session of an observed cell, gets a
    ``fault_cell`` span and per-kind counters; the record is the same.
    """
    scenario, fault_dict = job
    fault = FaultSpec.from_dict(fault_dict) if fault_dict else None
    if obs is None:
        return run_scenario(scenario, fault)
    label = fault.describe() if fault is not None else "golden"
    with obs.span("fault_cell", scenario=scenario, fault=label,
                  kind=(fault.kind if fault is not None else "none")):
        record = run_scenario(scenario, fault)
    obs.count("fault.cells")
    if fault is not None:
        obs.count(f"fault.kind.{fault.kind}.cells")
    return record


def classify(golden: Dict[str, Any], faulty: Dict[str, Any]) -> str:
    """Place one faulty record into exactly one outcome class."""
    error = faulty.get("error")
    if error is not None:
        return "hang" if error["type"] == "HangDetected" else "crash"
    if not faulty["completed"]:
        return "hang"
    if faulty["detected"]:
        return "detected"
    if faulty["data"] != golden["data"]:
        return "sdc"
    return "masked"


@dataclass
class CampaignStats:
    """Volatile facts about one campaign run — never serialized into
    the result (which must be reproducible across runs and hosts)."""

    faults: int = 0
    computed: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.faults} faults: {self.cache_hits} cached, "
            f"{self.computed} computed ({self.duplicates} duplicate), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


@dataclass
class CampaignResult:
    """One campaign's classified outcomes, in input-fault order."""

    scenario: str
    golden: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)

    def histogram(self) -> Dict[str, int]:
        """Outcome counts, every class present (zero-filled)."""
        hist = {outcome: 0 for outcome in OUTCOMES}
        for row in self.rows:
            hist[row["outcome"]] += 1
        return hist

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-fault-kind outcome counts (kinds in first-seen order)."""
        table: Dict[str, Dict[str, int]] = {}
        for row in self.rows:
            kind = row["fault"]["kind"]
            hist = table.setdefault(
                kind, {outcome: 0 for outcome in OUTCOMES}
            )
            hist[row["outcome"]] += 1
        return table

    # ------------------------------------------------------------------
    # dependability figures of merit
    # ------------------------------------------------------------------
    def detection_coverage(self) -> float:
        """detected / (detected + sdc): how often the system's own
        redundancy catches a fault that corrupted the output."""
        hist = self.histogram()
        exposed = hist["detected"] + hist["sdc"]
        return hist["detected"] / exposed if exposed else 1.0

    def safe_ratio(self) -> float:
        """(masked + detected) / total: runs with no silent bad outcome."""
        if not self.rows:
            return 1.0
        hist = self.histogram()
        return (hist["masked"] + hist["detected"]) / len(self.rows)

    def dependability_table(self) -> str:
        """The human-readable kind × outcome report."""
        kinds = self.by_kind()
        width = max([len(k) for k in kinds] + [len("kind")])
        header = ["kind".ljust(width)] + [
            outcome.rjust(9) for outcome in OUTCOMES
        ] + ["total".rjust(7)]
        lines = [
            f"fault campaign: scenario={self.scenario} "
            f"faults={len(self.rows)}",
            "  ".join(header),
        ]
        for kind, hist in kinds.items():
            cells = [kind.ljust(width)] + [
                str(hist[outcome]).rjust(9) for outcome in OUTCOMES
            ] + [str(sum(hist.values())).rjust(7)]
            lines.append("  ".join(cells))
        total = self.histogram()
        cells = ["TOTAL".ljust(width)] + [
            str(total[outcome]).rjust(9) for outcome in OUTCOMES
        ] + [str(len(self.rows)).rjust(7)]
        lines.append("  ".join(cells))
        lines.append(
            f"detection coverage (detected/exposed): "
            f"{self.detection_coverage():.3f}   "
            f"safe ratio (masked+detected)/total: "
            f"{self.safe_ratio():.3f}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The full, reproducible campaign result as JSON."""
        return json.dumps(
            {
                "version": FAULT_VERSION,
                "scenario": self.scenario,
                "golden": self.golden,
                "histogram": self.histogram(),
                "by_kind": self.by_kind(),
                "detection_coverage": self.detection_coverage(),
                "safe_ratio": self.safe_ratio(),
                "rows": self.rows,
            },
            sort_keys=True, indent=2,
        )


def run_campaign(
    scenario: str,
    faults: Iterable[FaultSpec],
    workers: int = 1,
    cache: Optional[CampaignStore] = None,
    obs: Optional[Obs] = None,
    batch: bool = False,
) -> CampaignResult:
    """Run the golden reference plus one cell per fault; classify all.

    Identical execution discipline to :func:`repro.sweep.engine.run_sweep`:
    the uncached cells go to :func:`repro.campaign.service.run_cells`
    (in-process at ``workers=1`` with no ``cache``, on store shards
    otherwise), and an in-process cell that raises propagates
    unwrapped; duplicate faults are computed once; a
    :class:`~repro.campaign.store.CampaignStore` as ``cache`` makes
    re-runs incremental and resumable.  ``obs`` is used as in
    ``run_sweep``: counters, the ``campaign`` span (closed however the
    run ends), per-fault worker spans with a span tracer, run marks
    and heartbeats with a recorder — never a byte of the records.
    ``batch`` is ignored: every software cell forks from its
    scenario's golden run on every path (DESIGN §14).
    """
    if scenario not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {scenario!r}; have {sorted(SCENARIOS)}"
        )
    faults = list(faults)
    obs = obs if obs is not None else DISABLED
    t0 = time.perf_counter()
    stats = CampaignStats(faults=len(faults), workers=workers)
    records: Dict[str, Dict[str, Any]] = {}
    pending: List[Tuple[str, Dict[str, Any]]] = []  # (fingerprint, payload)

    def want(fault: Optional[FaultSpec]) -> str:
        """Register one cell; returns its fingerprint."""
        fingerprint = cell_fingerprint(scenario, fault)
        if fingerprint in records:
            stats.duplicates += 1
            return fingerprint
        cached = cache.get(fingerprint) if cache is not None else None
        if cached is not None:
            records[fingerprint] = cached
            stats.cache_hits += 1
            obs.count("fault.cache.hits")
        else:
            records[fingerprint] = {}  # reserve against duplicates
            pending.append((fingerprint, {
                "scenario": scenario,
                "fault": fault.to_dict() if fault is not None else None,
            }))
            obs.count("fault.cache.misses")
        return fingerprint

    def finish(fingerprint: str, record: Dict[str, Any],
               doc: Optional[Dict[str, Any]], elapsed_s: float) -> None:
        records[fingerprint] = record
        stats.computed += 1
        obs.beat(done=stats.computed + stats.cache_hits,
                 cache_hits=stats.cache_hits, total=len(faults) + 1)
        obs.count("fault.cells.computed")
        obs.observe("fault.cell.elapsed_s", elapsed_s)
        obs.merge(doc)

    # with no store the parent records the run; a store's coordinator
    # and shards own their telemetry streams instead
    with obs.run("campaign", lane="fault campaign", role="fault",
                 record=cache is None, scenario=scenario,
                 faults=len(faults), workers=workers):
        obs.count("fault.campaign.faults", len(faults))
        golden_fp = want(None)
        fault_fps = [want(fault) for fault in faults]

        run_cells(pending, "fault", workers, finish, store=cache, obs=obs)

        golden = records[golden_fp]
        if golden.get("error") or not golden.get("completed") \
                or golden.get("detected"):
            raise CampaignError(
                f"golden run of {scenario!r} is not a valid reference: "
                f"{golden!r}"
            )

        result = CampaignResult(scenario=scenario, golden=golden)
        for fault, fingerprint in zip(faults, fault_fps):
            record = records[fingerprint]
            result.rows.append({
                "fault": fault.to_dict(),
                "label": fault.describe(),
                "fingerprint": fingerprint,
                "outcome": classify(golden, record),
                "record": record,
            })

        stats.elapsed_s = time.perf_counter() - t0
        done = stats.computed + stats.cache_hits
        obs.finish({"done": done, "cache_hits": stats.cache_hits,
                    "total": len(faults) + 1},
                   scenario=scenario, done=done, computed=stats.computed,
                   cache_hits=stats.cache_hits,
                   elapsed_s=stats.elapsed_s)
    result.stats = stats
    for outcome, count in result.histogram().items():
        obs.count(f"fault.outcome.{outcome}", count)
    return result
