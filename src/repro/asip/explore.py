"""ASIP design-space exploration: measured area/speedup frontiers.

Unlike the paper-era flows, which estimated the effect of a candidate
instruction set, this exploration *measures* it: each design point
installs the selected instructions on a fresh R32 variant, recompiles
every workload with the corresponding fusions, runs the binaries on the
CPU model, and cross-checks outputs against the stock-ISA run.  The
(custom area, measured speedup) pairs are Figure 6's trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.asip.custom import fusions_for, install, mine_candidates
from repro.asip.selection import select_instructions
from repro.graph.cdfg import CDFG
from repro.isa.codegen import compile_cdfg
from repro.isa.instructions import Isa


class ExplorationError(RuntimeError):
    """Raised when a rewritten program disagrees with the reference."""


@dataclass
class AsipDesignPoint:
    """One point on the area/performance frontier."""

    budget: float
    custom_area: float
    instructions: List[str]
    cycles: Dict[str, int]
    base_cycles: Dict[str, int]
    code_words: Dict[str, int]

    def weighted_cycles(self, weights: Dict[str, float]) -> float:
        """Workload-weighted cycle count."""
        return sum(self.cycles[n] * w for n, w in weights.items())

    def speedup(self, weights: Dict[str, float]) -> float:
        """Workload-weighted speedup over the stock ISA."""
        base = sum(self.base_cycles[n] * w for n, w in weights.items())
        mine = self.weighted_cycles(weights)
        return base / mine if mine else 1.0


def _reference_inputs(cdfg: CDFG) -> Dict[str, int]:
    return {
        op.name: (i * 37 + 11) & 0xFFFF for i, op in enumerate(cdfg.inputs())
    }


def run_workload(
    cdfg: CDFG,
    isa: Isa,
    fusions=None,
) -> Tuple[Dict[str, int], int, int]:
    """(outputs, cycles, code words) for one workload on one ISA."""
    compiled = compile_cdfg(cdfg, isa, fusions=fusions)
    outputs, cycles = compiled.run(_reference_inputs(cdfg), isa=isa)
    return outputs, cycles, compiled.code_size


def explore_asip(
    workloads: Dict[str, Tuple[CDFG, float]],
    budgets: Sequence[float],
    cpu_clock_ns: float = 10.0,
) -> List[AsipDesignPoint]:
    """Sweep area budgets; returns one verified design point per budget."""
    candidates = mine_candidates(workloads, cpu_clock_ns=cpu_clock_ns)
    base_isa = Isa("r32")
    reference: Dict[str, Tuple[Dict[str, int], int, int]] = {}
    for name, (cdfg, _w) in sorted(workloads.items()):
        reference[name] = run_workload(cdfg, base_isa)

    points: List[AsipDesignPoint] = []
    for budget in budgets:
        chosen = select_instructions(candidates, budget)
        isa = install(chosen, f"r32+{len(chosen)}fx")
        cycles: Dict[str, int] = {}
        words: Dict[str, int] = {}
        for name, (cdfg, _w) in sorted(workloads.items()):
            fusions = fusions_for(chosen, name)
            outputs, n_cycles, n_words = run_workload(cdfg, isa, fusions)
            if outputs != reference[name][0]:
                raise ExplorationError(
                    f"budget {budget}: workload {name!r} output mismatch"
                )
            cycles[name] = n_cycles
            words[name] = n_words
        points.append(AsipDesignPoint(
            budget=budget,
            custom_area=isa.custom_area(),
            instructions=[c.mnemonic for c in chosen],
            cycles=cycles,
            base_cycles={n: reference[n][1] for n in reference},
            code_words=words,
        ))
    return points
