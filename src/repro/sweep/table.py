"""The structured sweep result table and the comparison report.

A :class:`SweepResult` is an ordered list of cell records (plain
dicts, one per grid cell, in grid order).  Serialization is canonical —
sorted keys, fixed separators — so "same grid, same seeds ⇒
byte-identical table" is a testable guarantee, not an aspiration.

:meth:`SweepResult.comparison_report` regenerates the Section 5-style
criteria table over arbitrary workloads: one row per heuristic with the
comparison criteria the paper's survey used informally — solution cost,
latency, area, communication, constraint satisfaction — measured over
however many synthetic problems the grid swept.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List

TABLE_VERSION = 1


class SweepResult:
    """An ordered table of sweep cell records."""

    def __init__(self, records: List[Dict[str, Any]]) -> None:
        self.records = list(records)
        #: Set by the engine: volatile run statistics (not serialized).
        self.stats = None

    # ------------------------------------------------------------------
    # serialization (canonical, byte-stable)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON: identical grids serialize identically."""
        return json.dumps(
            {"version": TABLE_VERSION, "records": self.records},
            sort_keys=True, separators=(",", ":"),
        )

    def write_json(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Rebuild from :meth:`to_json` output."""
        doc = json.loads(text)
        if doc.get("version") != TABLE_VERSION:
            raise ValueError(
                f"table version {doc.get('version')!r} != {TABLE_VERSION}"
            )
        return cls(doc["records"])

    @classmethod
    def load(cls, path) -> "SweepResult":
        """Read a table previously written with :meth:`write_json`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    # groupings
    # ------------------------------------------------------------------
    def heuristics(self) -> List[str]:
        """Heuristic names present, sorted."""
        return sorted({r["config"]["heuristic"] for r in self.records})

    def by_heuristic(self) -> Dict[str, List[Dict[str, Any]]]:
        """Records grouped by heuristic."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            out.setdefault(record["config"]["heuristic"], []).append(record)
        return out

    def by_problem(self) -> Dict[str, List[Dict[str, Any]]]:
        """Records grouped by problem key (same graph + constraints)."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            out.setdefault(record["problem_key"], []).append(record)
        return out

    def wins(self) -> Dict[str, int]:
        """Per heuristic: on how many problems it produced the lowest
        cost (ties broken by heuristic name, so counts are stable)."""
        counts = {name: 0 for name in self.heuristics()}
        for records in self.by_problem().values():
            if len(records) < 2:
                continue
            winner = min(
                records,
                key=lambda r: (r["cost"], r["config"]["heuristic"]),
            )
            counts[winner["config"]["heuristic"]] += 1
        return counts

    # ------------------------------------------------------------------
    # the comparison report
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-heuristic aggregates over every record."""
        wins = self.wins()
        out: Dict[str, Dict[str, float]] = {}
        for name, records in sorted(self.by_heuristic().items()):
            n = len(records)
            out[name] = {
                "cells": n,
                "wins": wins.get(name, 0),
                "mean_cost": _mean(r["cost"] for r in records),
                "mean_latency_ns": _mean(r["latency_ns"] for r in records),
                "mean_hw_area": _mean(r["hw_area"] for r in records),
                "mean_comm_ns": _mean(r["comm_ns"] for r in records),
                "mean_overlap": _mean(
                    r["overlap_fraction"] for r in records
                ),
                "deadline_met_rate": _mean(
                    float(r["deadline_met"]) for r in records
                ),
                "feasible_rate": _mean(
                    float(r["feasible"]) for r in records
                ),
                "mean_moves": _mean(
                    r["moves_evaluated"] for r in records
                ),
            }
        return out

    def comparison_report(self) -> str:
        """The Section 5-style criteria table, over the swept workloads.

        One row per heuristic; the columns are the comparison criteria
        (cost, latency, area, communication, realized concurrency,
        constraint satisfaction, search effort) averaged over every
        problem the grid generated.
        """
        summary = self.summary()
        if not summary:
            return "(empty sweep)"
        header = (
            f"{'heuristic':<12} {'cells':>5} {'wins':>5} {'cost':>10} "
            f"{'latency':>10} {'area':>10} {'comm':>8} {'ovlp':>5} "
            f"{'dl-met':>7} {'feas':>6} {'moves':>8}"
        )
        lines = [header, "-" * len(header)]
        for name, row in summary.items():
            lines.append(
                f"{name:<12} {row['cells']:>5.0f} {row['wins']:>5.0f} "
                f"{row['mean_cost']:>10.1f} "
                f"{row['mean_latency_ns']:>10.1f} "
                f"{row['mean_hw_area']:>10.0f} "
                f"{row['mean_comm_ns']:>8.1f} "
                f"{row['mean_overlap']:>5.2f} "
                f"{row['deadline_met_rate']:>6.0%} "
                f"{row['feasible_rate']:>5.0%} "
                f"{row['mean_moves']:>8.0f}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self.records == other.records

    def __repr__(self) -> str:
        return (
            f"SweepResult({len(self.records)} records, "
            f"{len(self.heuristics())} heuristics)"
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
