"""The fork engine: many fault lanes as copies of one golden run.

Fault campaigns and input sweeps run the *same* R32 program many times
with one small delta per run — a flipped register bit, a seeded input
word.  Every faulted run retires exactly the golden (fault-free) run's
instructions up to the retirement before its fault is due, so re-running
that prefix once per fault is wasted work.  :class:`BatchCpu` runs the
program once, as one scalar golden :class:`~repro.isa.cpu.Cpu`, and
lets each lane leave it as a copy (:meth:`Cpu.fork`) taken just before
its fault is due — path-based co-verification's move of forking state
where paths split instead of replaying each path's prefix.

Each lane pauses golden at a *pause point*:

* a faulted lane at ``max(1, count) - 1`` retirements, so its fault,
  re-armed on the copy, is due at the very next one;
* a seeded lane at 0, where its input word is written into the copy;
* a fault-free lane at golden's end.

Golden advances from pause to pause with ``run_block`` on the ordinary
scalar tiers.  A lane whose pause golden reaches leaves with reason
``fork``; a lane whose pause golden never reaches — golden halted, ran
out of budget or raised :class:`~repro.isa.cpu.CpuError` first — leaves
with golden's final state and that reason (``halt``, ``budget`` or
``error``).  Its fault is due past the point where golden stopped, so
it never fires and the lane's record is golden's.

The engine never applies a fault.  Every lane comes back unfired, and
the caller finishes it on the scalar tiers exactly as it finishes a
fresh run (``repro.fault.scenarios._finish_lane``: re-arm with
``arm_cpu_fault(cpu, spec, retired=exit.steps)``, then drive), which is
what makes forked and fresh cells byte-identical (DESIGN §14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import MASK32, Isa

__all__ = ["BatchCpu", "BatchStats", "LaneExit"]

#: mirrors ``repro.fault.spec.CPU_KINDS`` (kept literal: the isa layer
#: must not import upward from repro.fault)
_CPU_KINDS = ("cpu_reg_flip", "cpu_pc_flip", "cpu_flag_flip")


@dataclass
class LaneExit:
    """One lane's handoff out of the batch.

    ``cpu`` is the lane's own scalar CPU; ``steps`` the retirements it
    took over from golden, which is the continuation's budget baseline.
    ``spec`` is the lane's fault, never fired yet: the caller re-arms it
    counting ``steps`` as retirements already done
    (``repro.fault.inject.arm_cpu_fault(cpu, spec, steps)``).
    """

    lane: int
    reason: str
    cpu: Cpu
    steps: int
    spec: Any = None


@dataclass
class BatchStats:
    """Volatile facts about one batch run (telemetry, never results)."""

    lanes: int = 0
    #: golden run segments (``run_block`` calls on golden)
    dispatches: int = 0
    #: retirements the lanes took over from golden, summed
    lane_instrs: int = 0
    #: golden's steps when the last lane left
    steps: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def drained(self) -> int:
        """Lanes that left golden as forks at their own pause point."""
        return self.reasons.get("fork", 0)


class BatchCpu:
    """One golden R32 run that ``n_lanes`` lanes fork from.

    Single-shot: construct, optionally :meth:`arm` one fault spec per
    lane and :meth:`seed_lane` per-lane input words, then :meth:`run`
    once.  Every lane comes back as a :class:`LaneExit` whose scalar
    CPU the caller drives through the ordinary tiers.
    """

    def __init__(self, isa: Isa, image: Dict[int, int], n_lanes: int,
                 pc: int = 0, ivec: int = 0x40) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        self.n_lanes = n_lanes
        memory = Memory()
        memory.load_image(image)
        self._golden = Cpu(isa, memory, pc=pc, ivec=ivec)
        self.specs: List[Any] = [None] * n_lanes
        #: per-lane pause point; None = golden's end
        self._pause: List[Optional[int]] = [None] * n_lanes
        self._seeds: Dict[int, Dict[int, int]] = {}
        self._ran = False
        self.stats = BatchStats(lanes=n_lanes)

    def _check_lane(self, lane: int, what: str) -> None:
        if self._ran:
            raise RuntimeError(f"{what}() after run()")
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane} out of range")

    def _pause_at(self, lane: int, point: int) -> None:
        current = self._pause[lane]
        self._pause[lane] = point if current is None else min(current,
                                                              point)

    def arm(self, lane: int, spec: Any) -> None:
        """Arm one ``cpu_*`` fault spec on ``lane`` (pre-run only).

        ``spec`` is duck-typed on the :class:`repro.fault.spec.FaultSpec`
        fields (``kind``/``count``) so this layer stays import-free of
        :mod:`repro.fault`.
        """
        self._check_lane(lane, "arm")
        if spec.kind not in _CPU_KINDS:
            raise ValueError(
                f"batch lanes take cpu_* faults only, not {spec.kind!r}"
            )
        if self.specs[lane] is not None:
            raise ValueError(f"lane {lane} already armed")
        self.specs[lane] = spec
        # the scalar due rule (repro.fault.inject.arm_cpu_fault): the
        # fault fires after retirement max(1, count)
        self._pause_at(lane, max(1, spec.count) - 1)

    def seed_lane(self, lane: int, addr: int, value: int) -> None:
        """Override one memory word for one lane (input sweeps).

        The lane forks from golden's initial state and gets the word
        written into its own RAM; no other lane sees it.
        """
        self._check_lane(lane, "seed_lane")
        self._seeds.setdefault(lane, {})[addr & MASK32] = value & MASK32
        self._pause_at(lane, 0)

    def run(self, budget: int) -> List[LaneExit]:
        """Run golden for up to ``budget`` steps, forking every lane.

        Single-shot.  Returns one :class:`LaneExit` per lane, in lane
        order.
        """
        if self._ran:
            raise RuntimeError("BatchCpu.run() is single-shot")
        self._ran = True
        golden = self._golden
        stats = self.stats
        reasons = stats.reasons
        exits: List[Optional[LaneExit]] = [None] * self.n_lanes
        end: Optional[str] = None
        never = budget + 1  # golden never runs this far
        pauses = [never if p is None else p for p in self._pause]
        for lane in sorted(range(self.n_lanes), key=pauses.__getitem__):
            pause = pauses[lane]
            # golden takes no interrupt (no devices, no faults), so its
            # steps are its retirements
            while end is None:
                if golden.halted:
                    end = "halt"
                elif golden.instr_count >= budget:
                    end = "budget"
                elif golden.instr_count == pause:
                    break
                else:
                    stats.dispatches += 1
                    try:
                        golden.run_block(min(budget, pause)
                                         - golden.instr_count)
                    except CpuError:
                        end = "error"
            cpu = golden.fork()
            for addr, value in self._seeds.get(lane, {}).items():
                cpu.memory.ram[addr] = value
            reason = end or "fork"
            reasons[reason] = reasons.get(reason, 0) + 1
            stats.lane_instrs += cpu.instr_count
            exits[lane] = LaneExit(lane=lane, reason=reason, cpu=cpu,
                                   steps=cpu.instr_count,
                                   spec=self.specs[lane])
        stats.steps = golden.instr_count
        return exits  # type: ignore[return-value]
