"""The fork engine: every software fault cell is a copy of one golden run.

A software fault campaign runs the same R32 program once per fault, and
every faulted run retires exactly the golden (fault-free) run's
instructions up to the retirement before its fault is due, so re-running
that prefix once per fault is wasted work.  :class:`BatchCpu` runs the
program once, as one scalar golden :class:`~repro.isa.cpu.Cpu`, keeps a
copy of it (:meth:`Cpu.fork`) every :data:`CHECKPOINT_SPACING`
retirements, and hands out a copy of the latest checkpoint at or before
any retirement asked for — path-based co-verification's move of forking
state where runs split instead of replaying each run's prefix.

Golden has no devices and no fault, so it never takes an interrupt, and
its steps equal its retirements.  It stops where a fresh run stops: it
halts, uses up its budget, or raises :class:`~repro.isa.cpu.CpuError`,
and its last checkpoint is that final state.  A copy asked for at or
past that point is that final state: a halted copy stays halted, a
budget-exhausted one is out of budget, and an errored one replays the
failing instruction and raises the same error.

The engine never applies a fault.  The caller arms it on the copy,
counting the copy's retirements as already done
(``repro.fault.inject.arm_cpu_fault(cpu, spec, retired=cpu.instr_count)``),
and drives the copy on the scalar tiers as it would drive a fresh run,
which is what makes forked and fresh cells byte-identical (DESIGN §14).

A golden run that halts also gets its register liveness
(:meth:`BatchCpu.live_after`): which registers it still reads after
each retirement before writing them again.  A fault that only flips a
register golden never reads again needs no copy at all, since from the
flip on the copy retires golden's instructions with golden's results.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro import _domain
from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import N_REGS, Instruction, Isa

__all__ = ["BatchCpu", "CHECKPOINT_SPACING"]

#: retirements between two golden checkpoints.  A budget that would need
#: more than 128 checkpoints at this spacing (the one at retirement 0
#: and 127 chunks) widens it, so a program that never halts keeps at
#: most 128 copies whatever its budget.
CHECKPOINT_SPACING = 64


class BatchCpu:
    """One checkpointed golden R32 run that fault cells fork from.

    Single-shot: construct, :meth:`run` once, then :meth:`fork_at` and
    :meth:`live_after` as often as needed.
    """

    def __init__(self, isa: Isa, image: Dict[int, int], pc: int = 0,
                 ivec: int = 0x40) -> None:
        memory = Memory()
        memory.load_image(image)
        self._golden = Cpu(isa, memory, pc=pc, ivec=ivec)
        #: golden's copies in retirement order: one at retirement 0, one
        #: after every chunk, the last at golden's end
        self.checkpoints: List[Cpu] = []
        #: entry k: the registers golden reads after retirement k before
        #: writing them, bit r for register r; None unless golden halted
        self.live: Optional[array] = None

    def run(self, budget: int) -> None:
        """Run golden for up to ``budget`` (an int >= 1) steps, keeping
        checkpoints, and, if it halts, its register liveness."""
        _domain.count("budget", budget, 1)
        if self.checkpoints:
            raise RuntimeError("BatchCpu.run() is single-shot")
        golden = self._golden
        spacing = max(CHECKPOINT_SPACING, -(-budget // 127))
        checkpoints = [golden.fork()]
        try:
            while not golden.halted and golden.instr_count < budget:
                golden.run_block(min(spacing, budget - golden.instr_count))
                checkpoints.append(golden.fork())
        except CpuError:
            checkpoints.append(golden.fork())
        self.checkpoints = checkpoints
        if golden.halted:
            self.live = _liveness(checkpoints[0].fork(), budget)

    def fork_at(self, retired: int) -> Cpu:
        """A copy of the latest checkpoint with ``instr_count <= retired``."""
        if not self.checkpoints:
            raise RuntimeError("fork_at() before run()")
        _domain.count("retired", retired)
        index = bisect_right(self.checkpoints, retired,
                             key=attrgetter("instr_count"))
        return self.checkpoints[index - 1].fork()

    def live_after(self, retired: int) -> int:
        """The registers golden reads after retirement ``retired``
        before writing them again, as a bit mask (bit r for register
        r): none past golden's halt, and all of them, r0 included, when
        golden did not halt, so that nothing counts as dead then."""
        if not self.checkpoints:
            raise RuntimeError("live_after() before run()")
        _domain.count("retired", retired)
        live = self.live
        if live is None:
            return (1 << N_REGS) - 1
        return live[retired] if retired < len(live) else 0


def _liveness(cpu: Cpu, budget: int) -> array:
    """:attr:`BatchCpu.live` of the golden run that starts at ``cpu``
    and halts within ``budget`` steps.

    Replays that run once under an observer, turns each retired
    instruction into its register masks (:meth:`Isa.register_masks`,
    once per decoded word), and runs a backward pass:
    ``live[k - 1] = live[k] & ~writes(k) | reads(k)``, nothing live
    after the halt.
    """
    trail: List[Instruction] = []
    cpu.observers.append(lambda _pc, instr: trail.append(instr))
    cpu.run_block(budget)
    register_masks = cpu.isa.register_masks
    # keyed by id(): the decoder hands out one Instruction per word,
    # and the trail keeps every one of them alive during the pass
    masks: Dict[int, Tuple[int, int]] = {}
    live = array("H", bytes(2 * (len(trail) + 1)))
    bits = 0
    for k in range(len(trail), 0, -1):
        instr = trail[k - 1]
        pair = masks.get(id(instr))
        if pair is None:
            pair = masks[id(instr)] = register_masks(instr)
        bits = bits & ~pair[1] | pair[0]
        live[k - 1] = bits
    return live
