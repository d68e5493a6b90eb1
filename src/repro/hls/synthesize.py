"""The top-level high-level synthesis flow.

``synthesize(cdfg, constraints)`` runs schedule → bind → datapath →
controller and returns an :class:`HlsResult` carrying:

* the hardware characterization the partitioners need (``area``,
  ``latency_cycles``, ``latency_ns``);
* a cycle-ordered functional simulation (:meth:`HlsResult.simulate`)
  used to co-verify the hardware against the CDFG reference and the
  generated software (Section 3.2's "unified understanding").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.cdfg import CDFG, OpKind
from repro.hls.binding import Binding, bind
from repro.hls.controller import Fsm, build_controller
from repro.hls.datapath import Datapath, build_datapath
from repro.hls.library import ComponentLibrary, default_library
from repro.hls.scheduling import (
    Schedule,
    SchedulingError,
    asap,
    force_directed,
    list_schedule,
)


@dataclass
class HlsConstraints:
    """Knobs for one synthesis run.

    * ``scheduler`` — ``"asap"`` (fastest, most parallel), ``"list"``
      (resource-constrained; requires ``resources``), or ``"force"``
      (latency-constrained resource minimization).
    * ``resources`` — component name -> instance count (list scheduling).
    * ``latency_bound`` — control steps (force-directed).
    * ``cycle_time`` — clock period in ns.
    """

    scheduler: str = "asap"
    cycle_time: float = 10.0
    resources: Optional[Dict[str, int]] = None
    latency_bound: Optional[int] = None


@dataclass
class HlsResult:
    """Everything produced by one synthesis run."""

    cdfg: CDFG
    schedule: Schedule
    binding: Binding
    datapath: Datapath
    controller: Fsm

    @property
    def latency_cycles(self) -> int:
        """Input-to-output latency in control steps."""
        return self.schedule.length

    @property
    def latency_ns(self) -> float:
        """Input-to-output latency in nanoseconds."""
        return self.schedule.latency_ns

    @property
    def area(self) -> float:
        """Total area: datapath plus controller."""
        return self.datapath.area + self.controller.area

    def breakdown(self) -> Dict[str, float]:
        """Area by category."""
        out = self.datapath.breakdown()
        out["controller"] = self.controller.area
        return out

    def simulate(
        self,
        inputs: Dict[str, int],
        memory: Optional[Dict[int, int]] = None,
    ) -> Dict[str, int]:
        """Execute the datapath cycle-by-cycle.

        Ops are evaluated in (start step, FU) order — the order the real
        datapath would produce results — and every precedence violation
        would surface as a missing operand, so this doubles as an
        executable check of the schedule.
        """
        cdfg = self.cdfg
        values: Dict[str, int] = {}
        mem = memory if memory is not None else {}
        for op in cdfg.ops:
            if op.kind is OpKind.INPUT:
                if op.name not in inputs:
                    raise KeyError(f"missing value for input {op.name!r}")
                values[op.name] = inputs[op.name] & 0xFFFFFFFF
            elif op.kind is OpKind.CONST:
                values[op.name] = op.value & 0xFFFFFFFF
        ordered = sorted(
            cdfg.compute_ops(),
            key=lambda o: (self.schedule.starts[o.name],
                           self.binding.fu_of[o.name]),
        )
        for op in ordered:
            for arg in op.args:
                if arg not in values:
                    raise SchedulingError(
                        f"datapath executed {op.name!r} before operand "
                        f"{arg!r} was available"
                    )
            values[op.name] = cdfg._eval_op(op, values, inputs, mem)
        return {
            out.name: values[out.args[0]] for out in cdfg.outputs()
        }

    def summary(self) -> str:
        """One-paragraph synthesis report."""
        usage = self.schedule.resource_usage()
        fu_text = ", ".join(f"{k}x{v}" for k, v in sorted(usage.items()))
        return (
            f"{self.cdfg.name}: {self.latency_cycles} steps "
            f"({self.latency_ns:.0f} ns), area {self.area:.0f} "
            f"[{fu_text}; {self.binding.n_registers} regs, "
            f"{self.controller.n_states} states]"
        )


def synthesize(
    cdfg: CDFG,
    constraints: Optional[HlsConstraints] = None,
    library: Optional[ComponentLibrary] = None,
) -> HlsResult:
    """Run the full HLS flow on one behavior."""
    constraints = constraints or HlsConstraints()
    library = library or default_library()
    if constraints.scheduler == "asap":
        schedule = asap(cdfg, library, constraints.cycle_time)
    elif constraints.scheduler == "list":
        if not constraints.resources:
            raise SchedulingError("list scheduling requires resources")
        schedule = list_schedule(
            cdfg, constraints.resources, library, constraints.cycle_time
        )
    elif constraints.scheduler == "force":
        schedule = force_directed(
            cdfg, constraints.latency_bound, library, constraints.cycle_time
        )
    else:
        raise SchedulingError(
            f"unknown scheduler {constraints.scheduler!r}"
        )
    binding = bind(schedule)
    datapath = build_datapath(schedule, binding, library)
    controller = build_controller(schedule, binding, datapath)
    return HlsResult(
        cdfg=cdfg,
        schedule=schedule,
        binding=binding,
        datapath=datapath,
        controller=controller,
    )


def explore(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
    max_latency_factor: float = 3.0,
) -> List[HlsResult]:
    """Latency/area design-space exploration with force-directed
    scheduling: sweep the latency bound from the critical path outward
    and return one result per bound (the area-latency Pareto raw data).
    """
    library = library or default_library()
    base = asap(cdfg, library, cycle_time)
    results = []
    bound = base.length
    limit = int(base.length * max_latency_factor) + 1
    while bound <= limit:
        results.append(
            synthesize(
                cdfg,
                HlsConstraints(
                    scheduler="force",
                    cycle_time=cycle_time,
                    latency_bound=bound,
                ),
                library,
            )
        )
        bound += max(1, base.length // 4)
    return results
