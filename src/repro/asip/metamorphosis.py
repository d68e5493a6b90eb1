"""Instruction-set metamorphosis (Athanas & Silverman [15], Figure 7).

"What makes this configuration interesting is the possibility of using
field programmable hardware to implement the special-purpose functional
units.  In this case, the hardware/software partition need not be
static and could be adapted on the fly."

The workload runs in *phases* (e.g. a filtering phase, then a transform
phase).  A reconfigurable processor re-selects its custom-instruction
set per phase within the same FU area (the FPGA fabric), paying a
reconfiguration delay at each phase boundary; a static processor must
pick one instruction set for all phases.  ``plan_metamorphosis`` vs
``best_static_plan`` quantifies when adaptation wins — experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.asip.custom import (
    CustomCandidate,
    fusions_for,
    install,
    mine_candidates,
)
from repro.asip.explore import run_workload
from repro.asip.selection import select_instructions
from repro.graph.cdfg import CDFG

#: default fabric reconfiguration cost, in CPU cycles
RECONFIG_CYCLES = 2000


@dataclass
class PhaseResult:
    """Measured cycles for one phase under one instruction set."""

    phase: str
    instructions: List[str]
    cycles: float


@dataclass
class ReconfigurablePlan:
    """A per-phase instruction-set plan and its total cost."""

    phases: List[PhaseResult]
    reconfigurations: int
    reconfig_cycles: int
    static: bool

    @property
    def compute_cycles(self) -> float:
        """Cycles spent computing (without reconfiguration)."""
        return sum(p.cycles for p in self.phases)

    @property
    def total_cycles(self) -> float:
        """Compute plus reconfiguration overhead."""
        return self.compute_cycles + \
            self.reconfigurations * self.reconfig_cycles


def _phase_cycles(
    phase_workloads: Dict[str, Tuple[CDFG, float]],
    chosen: Sequence[CustomCandidate],
) -> float:
    """Weighted cycles of one phase under an instruction set."""
    isa = install(chosen, "phase")
    total = 0.0
    for name, (cdfg, weight) in sorted(phase_workloads.items()):
        fusions = fusions_for(chosen, name)
        _out, cycles, _words = run_workload(cdfg, isa, fusions)
        total += cycles * weight
    return total


def plan_metamorphosis(
    phases: Dict[str, Dict[str, Tuple[CDFG, float]]],
    fabric_area: float,
    reconfig_cycles: int = RECONFIG_CYCLES,
    iterations_per_phase: int = 1,
) -> ReconfigurablePlan:
    """Reconfigure per phase: each phase gets the best instruction set
    that fits the fabric, mined from *that phase's* workloads alone.

    ``iterations_per_phase`` scales each phase's compute (an outer loop
    executing the phase many times before moving on), which amortizes
    the reconfiguration cost.
    """
    results: List[PhaseResult] = []
    for phase_name in sorted(phases):
        workloads = phases[phase_name]
        candidates = mine_candidates(workloads)
        chosen = select_instructions(candidates, fabric_area)
        cycles = _phase_cycles(workloads, chosen) * iterations_per_phase
        results.append(PhaseResult(
            phase=phase_name,
            instructions=[c.mnemonic for c in chosen],
            cycles=cycles,
        ))
    return ReconfigurablePlan(
        phases=results,
        reconfigurations=max(0, len(results) - 1) if len(results) > 1 else 0,
        reconfig_cycles=reconfig_cycles,
        static=False,
    )


def best_static_plan(
    phases: Dict[str, Dict[str, Tuple[CDFG, float]]],
    fabric_area: float,
    iterations_per_phase: int = 1,
) -> ReconfigurablePlan:
    """One instruction set for all phases: mined and selected over the
    union of workloads, no reconfiguration cost."""
    union: Dict[str, Tuple[CDFG, float]] = {}
    for phase_name in sorted(phases):
        for name, (cdfg, weight) in phases[phase_name].items():
            union[f"{phase_name}.{name}"] = (cdfg, weight)
    candidates = mine_candidates(union)
    chosen = select_instructions(candidates, fabric_area)
    results: List[PhaseResult] = []
    for phase_name in sorted(phases):
        scoped = {
            f"{phase_name}.{name}": wl
            for name, wl in phases[phase_name].items()
        }
        cycles = _phase_cycles(scoped, chosen) * iterations_per_phase
        results.append(PhaseResult(
            phase=phase_name,
            instructions=[c.mnemonic for c in chosen],
            cycles=cycles,
        ))
    return ReconfigurablePlan(
        phases=results,
        reconfigurations=0,
        reconfig_cycles=0,
        static=True,
    )
