"""The vectorized batch execution tier: many fault lanes, one machine.

Fault campaigns and sweep cells run the *same* R32 program thousands
of times with tiny deltas — one flipped register bit, one seeded input
word.  This module executes those near-identical runs as **lanes of a
single structure-of-arrays machine**: the register file is an
``(N_REGS, n_lanes)`` numpy array, one campaign run per column, and
each decoded instruction is dispatched *once* across every lane
(ROADMAP item 3, attack (b); the block-translation half is
:mod:`repro.isa.translate`).

Execution model — *convergent and compacting*:

* All active lanes share **one** scalar ``pc`` and retire the same
  instruction stream; per-lane state is only the register columns,
  the IRQ flags, and a sparse memory *overlay* (address → column of
  per-lane values) layered over the shared program image.
* Any lane that would diverge from the shared stream is **drained**:
  its column is materialized into an ordinary scalar
  :class:`~repro.isa.cpu.Cpu` (plus the exact remaining-fault
  bookkeeping) and physically removed from the batch, so the vector
  body never carries masks — every array op is full-width.
* Draining happens **before** the divergent instruction executes, so
  the scalar tiers — not this module — produce every fault, trap, and
  error, with byte-identical messages and boundary state.  The batch
  tier may move host time, never model results (DESIGN.md §9/§13/§14).

Lanes drain (``LaneExit.reason``) when they: take the minority side of
a branch or ``jr`` (``branch``/``jr``), address memory off the
majority address (``mem``), are about to fault on a zero divisor
(``div``), reach code the batch cannot fetch uniformly — unprogrammed
or undecodable words, custom opcodes with stateful semantics,
self-modified code (``fetch``/``decode``/``custom``/``smc``) — or need
fault handling the vector body cannot reproduce exactly
(``observer``/``pc_flip``/``halt_flip``/``irq``; ``observer`` is a
fault due at a ``halt`` retirement or one the scalar side refuses).
``halt`` and ``budget`` are the two non-divergent exits.

Armed faults (the ``cpu_*`` kinds of :mod:`repro.fault.spec`) execute
*natively* in the common case: a register flip is a single-element XOR
on the lane's column at exactly the retirement the scalar trigger
would fire, after which the lane keeps running vectorized — this is
where the campaign speedup comes from, since the scalar engine runs
the lanes one program at a time.

A batched block codegen layer mirrors :mod:`repro.isa.translate`:
blocks are formed by the same :func:`~repro.isa.translate.scan_block`
scan, keyed by head pc, compiled once hot, and emit one vector body
per straight-line instruction run.  Blocks *bail* (commit what ran,
fall back to the per-instruction dispatcher) at the first lane-variant
condition — a zero divisor, a non-uniform address, a store into
fetched code — so the single drain implementation above stays the only
source of divergence handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import MASK32, N_REGS, Isa
from repro.isa.translate import (
    DEFAULT_HOT_THRESHOLD,
    MAX_BLOCK_LEN,
    MAX_BLOCKS,
    scan_block,
)

__all__ = ["BatchCpu", "BatchStats", "LaneExit"]

_M = MASK32
#: trigger sentinel: no armed fault on this lane
_NO_TRIG = int(np.iinfo(np.int64).max)
#: mirrors ``repro.fault.spec.CPU_KINDS`` (kept literal: the isa layer
#: must not import upward from repro.fault)
_CPU_KINDS = ("cpu_reg_flip", "cpu_pc_flip", "cpu_flag_flip")

_BRANCHES = (0x40, 0x41, 0x42, 0x43)


def _sx(x):
    """Reinterpret masked 32-bit values as signed (arrays or ints)."""
    return x - ((x >> 31) << 32)


@dataclass
class LaneExit:
    """One lane's handoff out of the batch.

    ``cpu`` is a fully materialized scalar CPU at the lane's exact
    architectural state; ``steps`` is the instruction count already
    retired (the scalar continuation's budget baseline).  ``spec`` and
    ``fired`` carry the lane's fault bookkeeping: an unfired spec must
    be re-armed scalar-side, counting ``steps`` as retirements already
    done (``repro.fault.inject.arm_cpu_fault(cpu, spec, steps)``); a
    fired one needs nothing.
    """

    lane: int
    reason: str
    cpu: Cpu
    steps: int
    spec: Any = None
    fired: bool = False


@dataclass
class BatchStats:
    """Volatile facts about one batch run (telemetry, never results)."""

    lanes: int = 0
    dispatches: int = 0
    block_calls: int = 0
    lane_instrs: int = 0
    steps: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def drained(self) -> int:
        """Lanes that left through the divergence protocol."""
        return sum(
            n for reason, n in self.reasons.items()
            if reason not in ("halt", "budget")
        )

    def occupancy(self) -> float:
        """Mean fraction of lanes still vectorized per dispatched
        instruction (1.0 = no lane ever drained early)."""
        if not self.steps or not self.lanes:
            return 1.0
        return self.lane_instrs / (self.lanes * self.steps)


class BatchCpu:
    """A structure-of-arrays R32 running ``n_lanes`` programs at once.

    Single-shot: construct, optionally :meth:`arm` one fault spec per
    lane and :meth:`seed_lane` per-lane input words, then :meth:`run`
    once.  Every lane comes back as a :class:`LaneExit` whose scalar
    CPU the caller drives through the ordinary tiers — lanes that
    halted in-batch return a halted CPU and cost nothing more.
    """

    def __init__(
        self,
        isa: Isa,
        image: Dict[int, int],
        n_lanes: int,
        pc: int = 0,
        ivec: int = 0x40,
        hot_threshold: int = DEFAULT_HOT_THRESHOLD,
        max_blocks: int = MAX_BLOCKS,
        max_block_len: int = MAX_BLOCK_LEN,
    ) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        self.isa = isa
        self.n_lanes = n_lanes
        self.ivec = ivec
        self.hot_threshold = hot_threshold
        self.max_blocks = max_blocks
        self.max_block_len = max_block_len
        #: the shared program image (never mutated; stores go to the
        #: per-lane overlay)
        self._base: Dict[int, int] = dict(image)
        m = n_lanes
        self.regs = np.zeros((N_REGS, m), dtype=np.int64)
        self.irq_enabled = np.ones(m, dtype=bool)
        self.irq_pending = np.zeros(m, dtype=bool)
        #: per-lane retirement count at which the armed fault fires
        self.trig = np.full(m, _NO_TRIG, dtype=np.int64)
        self.lane_ids = np.arange(m, dtype=np.int64)
        self.specs: List[Any] = [None] * m
        self._fired: List[bool] = [False] * m
        #: lanes whose spec names a register off the file, which the
        #: scalar side refuses to arm — pre-drained at the trigger
        self._unsafe = np.zeros(m, dtype=bool)
        # shared architectural scalars: every active lane has retired
        # the identical instruction sequence, so these never diverge
        self.pc = pc
        self.epc = 0
        self.steps = 0
        self.cycles = 0
        self.loads = 0
        self.stores = 0
        self._m = m
        #: address -> (m,) int64 column of per-lane memory values
        self._overlay: Dict[int, np.ndarray] = {}
        #: every address ever fetched or compiled (conservative SMC)
        self._fetched: Set[int] = set()
        self._pending_any = False
        self._next_trig = _NO_TRIG
        self._at_head = True
        self._exits: List[LaneExit] = []
        self._ran = False
        # decode + block caches (the image and ISA are fixed for the
        # lifetime of a run, so neither needs invalidation)
        self._ops: Dict[int, tuple] = {}
        self._cycle_table = isa.cycle_table()
        self._blocks: Dict[int, Tuple] = {}
        self._heads: Dict[int, int] = {}
        self._uncompilable: Set[int] = set()
        self.stats = BatchStats(lanes=n_lanes)

    def __repr__(self) -> str:
        return (
            f"BatchCpu(lanes={self.n_lanes}, active={self._m}, "
            f"pc={self.pc:#x}, steps={self.steps})"
        )

    # ------------------------------------------------------------------
    # pre-run lane setup
    # ------------------------------------------------------------------
    def arm(self, lane: int, spec: Any) -> None:
        """Arm one ``cpu_*`` fault spec on ``lane`` (pre-run only).

        ``spec`` is duck-typed on the :class:`repro.fault.spec.FaultSpec`
        fields (``kind``/``index``/``bit``/``count``/``flag``) so this
        layer stays import-free of :mod:`repro.fault`.
        """
        if self._ran:
            raise RuntimeError("arm() after run()")
        if spec.kind not in _CPU_KINDS:
            raise ValueError(
                f"batch lanes take cpu_* faults only, not {spec.kind!r}"
            )
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane} out of range")
        if self.specs[lane] is not None:
            raise ValueError(f"lane {lane} already armed")
        self.specs[lane] = spec
        # the scalar side's due rule (repro.fault.inject.arm_cpu_fault):
        # the fault fires after retirement max(1, count)
        self.trig[lane] = max(1, spec.count)
        if spec.kind == "cpu_reg_flip" and not 0 <= spec.index < N_REGS:
            self._unsafe[lane] = True
        self._next_trig = int(self.trig.min())

    def seed_lane(self, lane: int, addr: int, value: int) -> None:
        """Override one memory word for one lane (input sweeps).

        Seeding materializes an overlay column for ``addr``, so every
        lane's scalar handoff carries the address explicitly — seed
        only addresses present in the shared image if byte-identity
        with unseeded scalar runs matters.
        """
        if self._ran:
            raise RuntimeError("seed_lane() after run()")
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane} out of range")
        addr &= _M
        col = self._overlay.get(addr)
        if col is None:
            col = np.full(
                self._m, self._base.get(addr, 0), dtype=np.int64
            )
            self._overlay[addr] = col
        col[lane] = value & _M

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self, budget: int) -> List[LaneExit]:
        """Execute every lane for up to ``budget`` retirements.

        Single-shot.  Returns one :class:`LaneExit` per lane, in lane
        order; the batch machine is spent afterwards.
        """
        if self._ran:
            raise RuntimeError("BatchCpu.run() is single-shot")
        self._ran = True
        while self._m and self.steps < budget:
            self._dispatch(budget)
        if self._m:
            self._exit_all("budget")
        self.stats.steps = self.steps
        self._exits.sort(key=lambda e: e.lane)
        return self._exits

    # ------------------------------------------------------------------
    # lane draining
    # ------------------------------------------------------------------
    def _materialize(
        self, col: int, reason: str, pc: int, halted: bool
    ) -> LaneExit:
        """Freeze one column into a scalar CPU at its exact state."""
        mem = Memory()
        ram = dict(self._base)
        for addr, column in self._overlay.items():
            ram[addr] = int(column[col])
        mem.ram = ram
        mem.loads = self.loads
        mem.stores = self.stores
        cpu = Cpu(self.isa, mem, pc=pc, ivec=self.ivec)
        cpu.regs = [int(v) for v in self.regs[:, col]]
        cpu.epc = self.epc
        cpu.halted = halted
        cpu.irq_enabled = bool(self.irq_enabled[col])
        cpu.irq_pending = bool(self.irq_pending[col])
        cpu.instr_count = self.steps
        cpu.cycle_count = self.cycles
        return LaneExit(
            lane=int(self.lane_ids[col]), reason=reason, cpu=cpu,
            steps=self.steps, spec=self.specs[col],
            fired=self._fired[col],
        )

    def _drain(self, items: List[Tuple[int, str, int, bool]]) -> None:
        """Exit the given ``(col, reason, pc, halted)`` lanes and
        compact every per-lane array down to the survivors."""
        reasons = self.stats.reasons
        drop = np.zeros(self._m, dtype=bool)
        for col, reason, pc, halted in items:
            drop[col] = True
            self._exits.append(
                self._materialize(col, reason, pc, halted)
            )
            reasons[reason] = reasons.get(reason, 0) + 1
        keep = ~drop
        self.regs = self.regs[:, keep]
        self.irq_enabled = self.irq_enabled[keep]
        self.irq_pending = self.irq_pending[keep]
        self.trig = self.trig[keep]
        self.lane_ids = self.lane_ids[keep]
        self._unsafe = self._unsafe[keep]
        self.specs = [s for s, k in zip(self.specs, keep) if k]
        self._fired = [f for f, k in zip(self._fired, keep) if k]
        for addr in self._overlay:
            self._overlay[addr] = self._overlay[addr][keep]
        self._m = int(keep.sum())
        self._next_trig = (
            int(self.trig.min()) if self._m else _NO_TRIG
        )
        if self._pending_any:
            self._pending_any = bool(self.irq_pending.any())

    def _exit_all(self, reason: str, halted: bool = False) -> None:
        pc = self.pc
        self._drain(
            [(col, reason, pc, halted) for col in range(self._m)]
        )

    def _drain_irq(self) -> None:
        """Drain lanes whose next step boundary would take an IRQ."""
        mask = self.irq_pending & self.irq_enabled
        if mask.any():
            pc = self.pc
            self._drain([
                (int(c), "irq", pc, False)
                for c in np.nonzero(mask)[0]
            ])

    # ------------------------------------------------------------------
    # fault triggers
    # ------------------------------------------------------------------
    def _fire_triggers(self) -> None:
        """Fire every armed fault due at the just-retired instruction.

        Mirrors the scalar saboteur's timing exactly: ``_execute`` has
        already advanced ``pc``, so a pc flip xors the *next* pc, and a
        register flip lands after the instruction's own writeback.
        """
        steps = self.steps
        cols = np.nonzero(self.trig == steps)[0]
        drains: List[Tuple[int, str, int, bool]] = []
        regs = self.regs
        for c in cols:
            c = int(c)
            spec = self.specs[c]
            self._fired[c] = True
            self.trig[c] = _NO_TRIG
            kind = spec.kind
            if kind == "cpu_reg_flip":
                # raw row semantics, r0 included — the scalar trigger
                # pokes cpu.regs[i] directly too
                regs[spec.index, c] ^= (1 << spec.bit)
                regs[spec.index, c] &= _M
            elif kind == "cpu_pc_flip":
                drains.append(
                    (c, "pc_flip", self.pc ^ (1 << spec.bit), False)
                )
            else:  # cpu_flag_flip
                flag = spec.flag
                if flag == "halted":
                    drains.append((c, "halt_flip", self.pc, True))
                elif flag == "irq_enabled":
                    self.irq_enabled[c] = not self.irq_enabled[c]
                else:  # irq_pending
                    self.irq_pending[c] = not self.irq_pending[c]
                    if self.irq_pending[c]:
                        self._pending_any = True
        if drains:
            self._drain(drains)
        else:
            self._next_trig = (
                int(self.trig.min()) if self._m else _NO_TRIG
            )
        if self._pending_any:
            self._drain_irq()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, budget: int) -> None:
        """Execute one instruction (or one hot block) across all lanes."""
        self.stats.dispatches += 1
        pc = self.pc
        if pc in self._overlay:
            # a store rewrote the word we are about to fetch: lanes may
            # now run different code — only the scalar tiers can
            self._exit_all("smc")
            return
        if self._at_head:
            pc = self._try_block(pc, budget)
            if pc is None:
                return

        # ---- per-instruction path -------------------------------------
        word = self._base.get(pc)
        if word is None:
            self._exit_all("fetch")
            return
        entry = self._ops.get(word)
        if entry is None:
            try:
                instr = self.isa.decode(word)
            except ValueError:
                self._exit_all("decode")
                return
            entry = (
                instr.opcode, instr.rd, instr.rs1, instr.rs2,
                instr.imm, self._cycle_table[instr.opcode],
                self.isa.custom(instr.opcode) is not None,
            )
            self._ops[word] = entry
        op, rd, rs1, rs2, imm, cyc, is_custom = entry
        if is_custom:
            # stateful semantics must run exactly once per lane —
            # scalar-side only
            self._exit_all("custom")
            return
        self._fetched.add(pc)

        if self._next_trig == self.steps + 1:
            # a fault fires at this retirement; pre-drain the cases the
            # vector body cannot reproduce exactly
            if op == 0x7F:
                # a trigger at halt retirement may flip flags on the
                # just-halted CPU (a halted flip even un-halts it)
                self._exit_all("observer")
                return
            if self._unsafe.any():
                mask = self._unsafe & (self.trig == self.steps + 1)
                if mask.any():
                    self._drain([
                        (int(c), "observer", pc, False)
                        for c in np.nonzero(mask)[0]
                    ])
                    if not self._m:
                        return

        regs = self.regs
        a = regs[rs1] if rs1 else 0
        next_pc = pc + 1
        extra = 0
        at_head_next = False

        if op == 0x20:  # ADDI
            if rd:
                regs[rd] = (a + imm) & _M
        elif op == 0x01:  # ADD
            if rd:
                regs[rd] = (a + (regs[rs2] if rs2 else 0)) & _M
        elif op in _BRANCHES:  # BEQ/BNE/BLT/BGE
            lhs = regs[rd] if rd else 0
            if op == 0x40:
                t = lhs == a
            elif op == 0x41:
                t = lhs != a
            else:
                sl, sa = _sx(lhs), _sx(a)
                t = (sl < sa) if op == 0x42 else (sl >= sa)
            if t is True or t is False:
                taken = t
            else:
                nt = int(t.sum())
                if nt == 0:
                    taken = False
                elif nt == self._m:
                    taken = True
                else:
                    # the majority continues; the minority drains and
                    # re-executes the branch scalar-side
                    taken = nt * 2 >= self._m
                    self._drain([
                        (int(c), "branch", pc, False)
                        for c in np.nonzero(t != taken)[0]
                    ])
                    if not self._m:
                        return
            if taken:
                next_pc = pc + 1 + imm
                extra = 1  # taken-branch penalty
            at_head_next = True
        elif op == 0x30:  # LW
            if rs1 == 0:
                ad: Optional[int] = imm & _M
            elif (a != a[0]).any():
                if rd:
                    av = (a + imm) & _M
                    vals, counts = np.unique(av, return_counts=True)
                    maj = int(vals[int(np.argmax(counts))])
                    self._drain([
                        (int(c), "mem", pc, False)
                        for c in np.nonzero(av != maj)[0]
                    ])
                    if not self._m:
                        return
                    ad = maj
                else:
                    # value discarded: per-lane addresses leave no
                    # per-lane state behind
                    ad = None
            else:
                ad = (int(a[0]) + imm) & _M
            if rd and ad is not None:
                v = self._overlay.get(ad)
                if v is None:
                    v = self._base.get(ad, 0)
                self.regs[rd] = v
            self.loads += 1
        elif op == 0x31:  # SW
            if rs1 == 0:
                ad = imm & _M
            elif (a != a[0]).any():
                av = (a + imm) & _M
                vals, counts = np.unique(av, return_counts=True)
                maj = int(vals[int(np.argmax(counts))])
                self._drain([
                    (int(c), "mem", pc, False)
                    for c in np.nonzero(av != maj)[0]
                ])
                if not self._m:
                    return
                ad = maj
            else:
                ad = (int(a[0]) + imm) & _M
            if ad in self._fetched:
                # self-modifying store: the scalar tiers own the
                # invalidation protocol
                self._exit_all("smc")
                return
            regs = self.regs  # a drain above replaces the array
            self._overlay[ad] = (
                regs[rd].copy() if rd
                else np.zeros(self._m, dtype=np.int64)
            )
            self.stores += 1
        elif op == 0x02:  # SUB
            if rd:
                regs[rd] = (a - (regs[rs2] if rs2 else 0)) & _M
        elif op == 0x03:  # MUL
            if rd:
                regs[rd] = (a * (regs[rs2] if rs2 else 0)) & _M
        elif op in (0x04, 0x05):  # DIV / MOD
            if rs2 == 0:
                # zero divisor on every lane: the scalar tiers raise
                # the exact CpuError
                self._exit_all("div")
                return
            b = regs[rs2]
            zero = b == 0
            if zero.any():
                self._drain([
                    (int(c), "div", pc, False)
                    for c in np.nonzero(zero)[0]
                ])
                if not self._m:
                    return
                regs = self.regs
                a = regs[rs1] if rs1 else 0
                b = regs[rs2]
            sa, sb = _sx(a), _sx(b)
            if op == 0x04:
                q = np.abs(sa) // np.abs(sb)
                v = np.where((sa >= 0) == (sb >= 0), q, -q) & _M
            else:
                r = np.abs(sa) % np.abs(sb)
                v = np.where(sa >= 0, r, -r) & _M
            if rd:
                regs[rd] = v
        elif op == 0x06:  # AND
            if rd:
                regs[rd] = a & (regs[rs2] if rs2 else 0)
        elif op == 0x07:  # OR
            if rd:
                regs[rd] = a | (regs[rs2] if rs2 else 0)
        elif op == 0x08:  # XOR
            if rd:
                regs[rd] = a ^ (regs[rs2] if rs2 else 0)
        elif op == 0x09:  # SLL
            if rd:
                regs[rd] = (
                    a << ((regs[rs2] if rs2 else 0) & 31)
                ) & _M
        elif op == 0x0A:  # SRL
            if rd:
                regs[rd] = (a & _M) >> (
                    (regs[rs2] if rs2 else 0) & 31
                )
        elif op == 0x0B:  # SRA
            if rd:
                regs[rd] = (
                    _sx(a) >> ((regs[rs2] if rs2 else 0) & 31)
                ) & _M
        elif op == 0x0C:  # SLT
            if rd:
                regs[rd] = _sx(a) < _sx(regs[rs2] if rs2 else 0)
        elif op == 0x0D:  # SLTU
            if rd:
                regs[rd] = (a & _M) < (
                    (regs[rs2] if rs2 else 0) & _M
                )
        elif op == 0x21:  # ANDI
            if rd:
                regs[rd] = a & (imm & 0xFFFF)
        elif op == 0x22:  # ORI
            if rd:
                regs[rd] = (a | (imm & 0xFFFF)) & _M
        elif op == 0x23:  # XORI
            if rd:
                regs[rd] = (a ^ (imm & 0xFFFF)) & _M
        elif op == 0x24:  # SLLI
            if rd:
                regs[rd] = (a << (imm & 31)) & _M
        elif op == 0x25:  # SRLI
            if rd:
                regs[rd] = (a & _M) >> (imm & 31)
        elif op == 0x26:  # SLTI
            if rd:
                regs[rd] = _sx(a) < imm
        elif op == 0x27:  # LUI
            if rd:
                regs[rd] = ((imm & 0xFFFF) << 16) & _M
        elif op == 0x50:  # J
            next_pc = imm
            at_head_next = True
        elif op == 0x51:  # JAL
            regs[15] = (pc + 1) & _M
            next_pc = imm
            at_head_next = True
        elif op == 0x52:  # JR
            if rs1 == 0:
                next_pc = 0
            elif (a != a[0]).any():
                vals, counts = np.unique(a, return_counts=True)
                maj = int(vals[int(np.argmax(counts))])
                self._drain([
                    (int(c), "jr", pc, False)
                    for c in np.nonzero(a != maj)[0]
                ])
                if not self._m:
                    return
                next_pc = maj
            else:
                next_pc = int(a[0])
            at_head_next = True
        elif op == 0x60:  # RETI
            next_pc = self.epc
            self.irq_enabled[:] = True
            at_head_next = True
        elif op == 0x7F:  # HALT
            self.steps += 1
            self.cycles += cyc
            self.stats.lane_instrs += self._m
            self._exit_all("halt", halted=True)
            return
        else:  # pragma: no cover - decode guarantees known opcodes
            self._exit_all("decode")
            return

        self.steps += 1
        self.cycles += cyc + extra
        self.stats.lane_instrs += self._m
        self.pc = next_pc
        self._at_head = at_head_next
        if self.steps == self._next_trig:
            self._fire_triggers()
            if not self._m:
                return
        if op == 0x60 and self._pending_any:
            self._drain_irq()

    # ------------------------------------------------------------------
    # batched block codegen
    # ------------------------------------------------------------------
    def _try_block(self, pc: int, budget: int) -> Optional[int]:
        """Run the hot block at ``pc`` if one applies.

        Returns the pc for the per-instruction path to continue at, or
        None when the block finished the dispatch (control transfer,
        halt, or a drain).
        """
        ent = self._blocks.get(pc)
        if ent is None:
            if pc in self._uncompilable:
                return pc
            hits = self._heads.get(pc, 0) + 1
            self._heads[pc] = hits
            if hits < self.hot_threshold:
                return pc
            ent = self._compile_block(pc)
            if ent is None:
                return pc
        fn, addrs, max_commit, cyc_p, lds_p, sts_p = ent
        if (
            self.steps + max_commit > budget
            or self._next_trig <= self.steps + max_commit
            or (self._overlay
                and not addrs.isdisjoint(self._overlay))
        ):
            # not enough budget for a full commit, a trigger could fire
            # mid-block, or the block's code is overlaid: the
            # per-instruction path handles all three exactly
            return pc
        k, tag, payload = fn(
            self.regs, self._base, self._overlay, self._fetched
        )
        if k:
            self.stats.block_calls += 1
            self.steps += k
            self.cycles += cyc_p[k]
            self.loads += lds_p[k]
            self.stores += sts_p[k]
            self.stats.lane_instrs += k * self._m
        if tag == 1:  # jump (J/JAL)
            self.pc = payload
            return None
        if tag == 2:  # halt
            self.pc = payload
            self._exit_all("halt", halted=True)
            return None
        if tag == 3:  # reti
            self.pc = self.epc
            self.irq_enabled[:] = True
            if self._pending_any:
                self._drain_irq()
            return None
        # tag 0: committed k instructions, then bailed (or fell off the
        # scanned end) — continue per-instruction in this same dispatch
        pc += k
        self.pc = pc
        if k:
            self._at_head = False
            if pc in self._overlay:
                self._exit_all("smc")
                return None
        return pc

    def _compile_block(self, pc0: int) -> Optional[Tuple]:
        """Compile the straight-line block at ``pc0`` into one vector
        function, or record it as uncompilable."""
        instrs, addrs = scan_block(
            self._base.get, self.isa.decode, pc0, self.max_block_len
        )
        # cut before the first instruction the vector body cannot
        # express: per-lane control flow, stateful custom semantics,
        # and certain-fault divisions all belong to the drain protocol
        cut = len(instrs)
        for k, instr in enumerate(instrs):
            op = instr.opcode
            if (
                op in _BRANCHES
                or op == 0x52
                or self.isa.custom(op) is not None
                or (op in (0x04, 0x05) and instr.rs2 == 0)
            ):
                cut = k
                break
        instrs = instrs[:cut]
        addrs = addrs[:cut]
        if not instrs:
            self._uncompilable.add(pc0)
            return None
        if len(self._blocks) >= self.max_blocks:
            # oldest-first eviction, mirroring BlockTranslator
            del self._blocks[next(iter(self._blocks))]
        table = self._cycle_table
        cyc_p = [0]
        lds_p = [0]
        sts_p = [0]
        for instr in instrs:
            cyc_p.append(cyc_p[-1] + table[instr.opcode])
            lds_p.append(lds_p[-1] + (instr.opcode == 0x30))
            sts_p.append(sts_p[-1] + (instr.opcode == 0x31))
        namespace: Dict[str, Any] = {"np": np}
        lines = ["def _bb(regs, base, overlay, fetched):"]
        for k, (instr, pc) in enumerate(zip(instrs, addrs)):
            self._emit_vec(lines, k, pc, instr)
        last = instrs[-1]
        if last.opcode not in (0x50, 0x51, 0x60, 0x7F):
            # fell off the scanned end: full commit, dispatcher
            # continues per-instruction
            lines.append(f"    return ({len(instrs)}, 0, None)")
        source = "\n".join(lines)
        code = compile(source, f"<r32-batch-block@{pc0:#x}>", "exec")
        exec(code, namespace)
        ent = (
            namespace["_bb"], frozenset(addrs), len(instrs),
            cyc_p, lds_p, sts_p,
        )
        self._blocks[pc0] = ent
        self._fetched.update(addrs)
        return ent

    def _emit_vec(
        self, out: List[str], k: int, pc: int, instr: Any
    ) -> None:
        """Append the vector-body source for instruction ``k``."""
        op = instr.opcode
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        a = f"regs[{rs1}]" if rs1 else "0"
        b = f"regs[{rs2}]" if rs2 else "0"
        bail = f"        return ({k}, 0, None)"

        def sx(src: str, var: str) -> None:
            out.append(f"    {var} = {src}")
            out.append(f"    {var} = {var} - (({var} >> 31) << 32)")

        def uniform_addr() -> None:
            """Bail unless every lane addresses the same word."""
            out.append(f"    _a = regs[{rs1}]")
            out.append("    if (_a != _a[0]).any():")
            out.append(bail)
            out.append(f"    _ad = (int(_a[0]) + {imm}) & {_M}")

        if op == 0x20:  # ADDI
            if rd:
                if rs1:
                    out.append(f"    regs[{rd}] = ({a} + {imm}) & {_M}")
                else:
                    out.append(f"    regs[{rd}] = {imm & _M}")
        elif op == 0x01:  # ADD
            if rd:
                out.append(f"    regs[{rd}] = ({a} + {b}) & {_M}")
        elif op == 0x02:  # SUB
            if rd:
                out.append(f"    regs[{rd}] = ({a} - {b}) & {_M}")
        elif op == 0x03:  # MUL
            if rd:
                out.append(f"    regs[{rd}] = ({a} * {b}) & {_M}")
        elif op in (0x04, 0x05):  # DIV / MOD (rs2 != 0 by the cut)
            out.append(f"    _b = regs[{rs2}]")
            out.append("    if (_b == 0).any():")
            out.append(bail)
            if rd:
                sx(a, "_sa")
                out.append(
                    "    _sb = _b - ((_b >> 31) << 32)"
                )
                if op == 0x04:
                    out.append(
                        "    _q = np.abs(_sa) // np.abs(_sb)"
                    )
                    out.append(
                        f"    regs[{rd}] = np.where("
                        f"(_sa >= 0) == (_sb >= 0), _q, -_q) & {_M}"
                    )
                else:
                    out.append(
                        "    _r = np.abs(_sa) % np.abs(_sb)"
                    )
                    out.append(
                        f"    regs[{rd}] = "
                        f"np.where(_sa >= 0, _r, -_r) & {_M}"
                    )
        elif op == 0x06:  # AND
            if rd:
                out.append(f"    regs[{rd}] = {a} & {b}")
        elif op == 0x07:  # OR
            if rd:
                out.append(f"    regs[{rd}] = {a} | {b}")
        elif op == 0x08:  # XOR
            if rd:
                out.append(f"    regs[{rd}] = {a} ^ {b}")
        elif op == 0x09:  # SLL
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} << ({b} & 31)) & {_M}"
                )
        elif op == 0x0A:  # SRL
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} & {_M}) >> ({b} & 31)"
                )
        elif op == 0x0B:  # SRA
            if rd:
                sx(a, "_sa")
                out.append(
                    f"    regs[{rd}] = (_sa >> ({b} & 31)) & {_M}"
                )
        elif op == 0x0C:  # SLT
            if rd:
                sx(a, "_sa")
                sx(b, "_sb")
                out.append(f"    regs[{rd}] = _sa < _sb")
        elif op == 0x0D:  # SLTU
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} & {_M}) < ({b} & {_M})"
                )
        elif op == 0x21:  # ANDI
            if rd:
                out.append(f"    regs[{rd}] = {a} & {imm & 0xFFFF}")
        elif op == 0x22:  # ORI
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} | {imm & 0xFFFF}) & {_M}"
                )
        elif op == 0x23:  # XORI
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} ^ {imm & 0xFFFF}) & {_M}"
                )
        elif op == 0x24:  # SLLI
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} << {imm & 31}) & {_M}"
                )
        elif op == 0x25:  # SRLI
            if rd:
                out.append(
                    f"    regs[{rd}] = ({a} & {_M}) >> {imm & 31}"
                )
        elif op == 0x26:  # SLTI
            if rd:
                sx(a, "_sa")
                out.append(f"    regs[{rd}] = _sa < {imm}")
        elif op == 0x27:  # LUI
            if rd:
                out.append(
                    f"    regs[{rd}] = {((imm & 0xFFFF) << 16) & _M}"
                )
        elif op == 0x30:  # LW
            if rd:
                if rs1:
                    uniform_addr()
                    ad = "_ad"
                else:
                    ad = str(imm & _M)
                out.append(f"    _v = overlay.get({ad})")
                out.append(
                    f"    regs[{rd}] = "
                    f"base.get({ad}, 0) if _v is None else _v"
                )
            # rd == 0: the load count is in the prefix; per-lane
            # addresses leave no per-lane state, so no uniformity check
        elif op == 0x31:  # SW
            if rs1:
                uniform_addr()
                ad = "_ad"
            else:
                ad = str(imm & _M)
                out.append(f"    _ad = {ad}")
            out.append("    if _ad in fetched:")
            out.append(bail)
            if rd:
                out.append(f"    overlay[_ad] = regs[{rd}].copy()")
            else:
                out.append(
                    "    overlay[_ad] = "
                    "np.zeros(regs.shape[1], dtype=np.int64)"
                )
        elif op == 0x50:  # J
            out.append(f"    return ({k + 1}, 1, {imm})")
        elif op == 0x51:  # JAL
            out.append(f"    regs[15] = {(pc + 1) & _M}")
            out.append(f"    return ({k + 1}, 1, {imm})")
        elif op == 0x60:  # RETI
            out.append(f"    return ({k + 1}, 3, 0)")
        elif op == 0x7F:  # HALT
            out.append(f"    return ({k + 1}, 2, {pc})")
        else:  # pragma: no cover - the cut excludes everything else
            raise AssertionError(f"unvectorizable opcode {op:#x}")
