"""The block-translation execution tier: hot basic blocks as functions.

This is the second R32 execution engine, beside the interpreted tier
``Cpu._run_block_fast``.  Both run code of one generator
(:mod:`repro.isa.emit`): the interpreted tier one function per decoded
word, the translator one per hot basic block — a maximal straight-line
run of instructions ending at the first control transfer — with every
``pc`` a literal.  Executing a block is one function call instead of
one per instruction.  Its state commits before faultable operations,
deferred accesses and IRQ re-checks are the interpreted tier's, line
for line, so the DESIGN.md §9/§13 equivalence contract — **a fast path
may move host time, never model results** — rests on what the
translator adds:

* **Observers run on the interpreted tier.**  ``Cpu.run_block``
  dispatches to the translator only when ``cpu.observers`` is empty,
  so profilers and trace hooks see every retirement one step at a
  time.  Detaching the last observer re-engages the translated tier
  on the next call; there is no sticky disabled state.  A pending
  fault trigger does not leave it: ``run_block`` runs the translator
  up to the due retirement, fires the trigger, and runs on.
* **Interrupts hit the same boundaries.**  The dispatcher checks the
  IRQ lines between blocks; inside one, the generated re-check after
  each instruction that may raise one (memory accesses, custom ops)
  exits the block where the interpreted loop would next check.
* **Budget exactness.**  The backplane's ``batch_instructions``
  budget is a step-equivalent count, so a block longer than the
  remaining budget is never run translated — the dispatcher hands the
  exact remainder to the interpreted tier instead, preserving the
  precise sequence of timeouts and adapter activations at any batch
  size.  A CPU builds its translator only on a ``run_block`` call
  whose budget can hold a whole block
  (:data:`~repro.isa.cpu.MAX_BLOCK_LEN`), so a CPU the backplane steps
  a few instructions at a time never builds one.

Compiled blocks live in one process-wide cache keyed by the entry
``pc``, the block's code words, the ISA's cycle table and the semantics
objects of any custom ops in the block — everything code generation
bakes in — so every translator in the process reuses them.  Each
translator keeps its own ``pc`` -> block map on top, guarded per CPU:
:attr:`Isa.version` drops the map on ``add_custom`` or cycle-table
edits, and a write-watch guards the code words —
:class:`~repro.isa.cpu.Memory` bumps its ``code_version`` whenever a
store or ``load_image`` touches an address covered by a block this
translator runs, from *any* tier, and a translated store that rewrites
its own block exits it at once.  RAM mutations that bypass
``Memory.write``/``load_image`` (direct pokes at the ``ram`` dict) are
outside the contract.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Tuple

from repro import _domain
from repro.isa import cpu as _cpu_mod
from repro.isa.cpu import MAX_BLOCK_LEN, Cpu, CpuError, ExternalAccess
from repro.isa.emit import DEFER, END, HALT, TERMINATORS, compile_code
from repro.isa.instructions import MASK32, Instruction

__all__ = [
    "BlockTranslator",
    "install",
    "auto_translation",
]

#: Per-translator block-map entries before the oldest is evicted.
MAX_BLOCKS = 1024
#: Process-wide compiled blocks before the oldest is evicted.
MAX_SHARED_BLOCKS = 4 * MAX_BLOCKS
#: Entries into a block before it is compiled (1 = translate eagerly).
DEFAULT_HOT_THRESHOLD = 2

#: compiled blocks shared by every translator in the process:
#: (pc, code words, cycle table, custom semantics) -> (fn, addrs)
_SHARED: Dict[tuple, Tuple] = {}


class BlockTranslator:
    """Attach to a :class:`~repro.isa.cpu.Cpu` as its translated tier.

    ``cpu.run_block`` dispatches here whenever no observers are attached;
    :meth:`execute` is observably identical to the interpreted tiers
    (enforced by ``tests/isa/test_translate.py``).  Construction is
    cheap and touches nothing but ``memory.code_watch``; blocks are
    scanned on first entry, taken from the process-wide cache if any
    translator compiled them already, and otherwise compiled once
    entered ``hot_threshold`` times.
    """

    def __init__(
        self,
        cpu: Cpu,
        hot_threshold: int = DEFAULT_HOT_THRESHOLD,
        max_blocks: int = MAX_BLOCKS,
    ) -> None:
        _domain.count("hot_threshold", hot_threshold, 1)
        _domain.count("max_blocks", max_blocks, 1)
        self.cpu = cpu
        self.hot_threshold = hot_threshold
        self.max_blocks = max_blocks
        #: pc -> (fn, length, memory.code_version at installation)
        self._blocks: Dict[int, Tuple] = {}
        self._counts: Dict[int, int] = {}
        self._isa_version = cpu.isa.version
        #: the cycle table as a shared-cache key part (None = not yet
        #: built for this ISA version) and whether the ISA has customs
        self._table_key: Optional[tuple] = None
        self._has_customs = False
        #: blocks installed over the translator's lifetime, compiled
        #: here or reused from the shared cache
        self.translations = 0
        #: of those, blocks reused without compiling
        self.reused = 0
        #: whole-cache drops (ISA mutation)
        self.invalidations = 0
        #: single blocks dropped oldest-first at ``max_blocks``
        self.evictions = 0
        #: mid-block early exits (self-modifying store or IRQ)
        self.early_exits = 0
        if cpu.memory.code_watch is None:
            cpu.memory.code_watch = set()

    def __repr__(self) -> str:
        return (
            f"BlockTranslator(blocks={len(self._blocks)}, "
            f"translations={self.translations}, "
            f"hot_threshold={self.hot_threshold})"
        )

    @property
    def block_count(self) -> int:
        """Live entries in the block cache."""
        return len(self._blocks)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, max_steps: int
    ) -> Tuple[int, int, Optional[ExternalAccess]]:
        """:meth:`Cpu.run_block` semantics over translated blocks.

        Returns the same ``(steps, cycles, access)`` triple with the
        same counting rules — IRQ-entry cycles are returned to the
        caller but never charged into ``cycle_count``, a deferred
        access counts one step and leaves the CPU frozen.  Falls back
        to the interpreted fast tier for cold blocks and for blocks
        longer than the remaining step budget.
        """
        cpu = self.cpu
        if cpu.halted or max_steps <= 0:
            return 0, 0, None
        if cpu._pending is not None:
            raise CpuError("run_block() while an external access is pending")
        isa = cpu.isa
        memory = cpu.memory
        if self._isa_version != isa.version:
            self._blocks.clear()
            self._counts.clear()
            self._isa_version = isa.version
            self._table_key = None
            self.invalidations += 1
        blocks = self._blocks
        counts = self._counts
        regs = cpu.regs
        steps = 0
        extra = 0  # IRQ-entry cycles: returned, never in cycle_count
        cycles0 = cpu.cycle_count
        while steps < max_steps:
            if cpu.irq_pending and cpu.irq_enabled:
                extra += cpu._take_irq()
                steps += 1
                continue
            pc = cpu.pc
            entry = blocks.get(pc)
            if entry is not None and entry[2] == memory.code_version:
                if entry[1] > max_steps - steps:
                    # not enough budget for the whole block: hand the
                    # exact remainder to the interpreted tier
                    before = cpu.cycle_count
                    s, c, access = cpu._run_block_fast(max_steps - steps)
                    steps += s
                    extra += c - (cpu.cycle_count - before)
                    if access is not None:
                        return (steps, cpu.cycle_count - cycles0 + extra,
                                access)
                    if cpu.halted:
                        break
                    continue
                res = entry[0](
                    cpu, regs, memory, pc, cpu.instr_count, cpu.cycle_count
                )
                steps += res >> 3
                flag = res & 7
                if flag == END:
                    continue
                if flag == HALT:
                    break
                if flag == DEFER:
                    return (steps, cpu.cycle_count - cycles0 + extra,
                            cpu._pending[2])
                self.early_exits += 1  # IRQ or SMC: re-dispatch
                continue
            # cold block, or stale after a code-watch bump
            instrs, addrs, words = self._scan(pc)
            shared = None
            if instrs:
                key = self._key(pc, instrs, words)
                shared = _SHARED.get(key)
                if shared is not None:
                    self.reused += 1
                else:
                    hits = counts.get(pc, 0) + 1
                    counts[pc] = hits
                    if entry is not None or hits >= self.hot_threshold:
                        shared = self._compile(pc, instrs, addrs, key)
            if shared is not None:
                blocks[pc] = self._install(pc, *shared)
                continue
            # interpreted; with no word at pc, or an illegal one, the
            # interpreted tier raises its fetch or decode error
            before = cpu.cycle_count
            s, c, access = cpu._run_block_fast(
                min(len(instrs) or 1, max_steps - steps)
            )
            steps += s
            extra += c - (cpu.cycle_count - before)
            if access is not None:
                return steps, cpu.cycle_count - cycles0 + extra, access
            if cpu.halted:
                break
        return steps, cpu.cycle_count - cycles0 + extra, None

    # ------------------------------------------------------------------
    # block formation
    # ------------------------------------------------------------------
    def _scan(self, pc: int) -> Tuple[List[Instruction], List[int], tuple]:
        """Decode the basic block entered at ``pc`` straight from RAM.

        Stops at the first control transfer (inclusive), at an
        unprogrammed or undecodable word (exclusive), or at
        :data:`~repro.isa.cpu.MAX_BLOCK_LEN` instructions, the longest
        block the budget rule assumes.  Returns ``(instrs, addrs,
        words)``.
        """
        ram_get = self.cpu.memory.ram.get
        decode = self.cpu.isa.decode
        instrs: List[Instruction] = []
        addrs: List[int] = []
        words: List[int] = []
        while len(instrs) < MAX_BLOCK_LEN:
            word = ram_get(pc)
            if word is None:
                break
            try:
                instr = decode(word)
            except ValueError:
                break
            instrs.append(instr)
            addrs.append(pc)
            words.append(word)
            if instr.opcode in TERMINATORS:
                break
            pc += 1
        return instrs, addrs, tuple(words)

    def _key(self, pc: int, instrs: List[Instruction],
             words: tuple) -> tuple:
        """The shared-cache key: everything code generation bakes in."""
        isa = self.cpu.isa
        if self._table_key is None:
            self._table_key = tuple(sorted(isa.cycle_table().items()))
            self._has_customs = bool(isa.customs)
        customs: tuple = ()
        if self._has_customs:
            customs = tuple(
                op.semantics for op in map(isa.custom,
                                           (i.opcode for i in instrs))
                if op is not None
            )
        return (pc, words, self._table_key, customs)

    def _install(self, pc: int, fn, addrs: tuple) -> Tuple:
        """This translator's map entry for a compiled block, watching
        its addresses in this CPU's memory."""
        blocks = self._blocks
        if pc not in blocks and len(blocks) >= self.max_blocks:
            # evict oldest-first (dict insertion order) so a long
            # campaign replaces one cold block instead of periodically
            # re-installing every hot one
            oldest = next(iter(blocks))
            del blocks[oldest]
            self._counts.pop(oldest, None)
            self.evictions += 1
        memory = self.cpu.memory
        memory.code_watch.update(addrs)
        self.translations += 1
        return (fn, len(addrs), memory.code_version)

    def _compile(
        self, pc0: int, instrs: List[Instruction], addrs: List[int],
        key: tuple,
    ) -> Tuple:
        """Compile one scanned block (:func:`repro.isa.emit.compile_code`,
        every ``pc`` a literal) and share it; returns the shared
        ``(fn, addrs)`` entry."""
        fn = compile_code(self.cpu.isa, f"_block_{pc0 & MASK32:x}", instrs,
                          [str(pc) for pc in addrs], frozenset(addrs))
        if len(_SHARED) >= MAX_SHARED_BLOCKS:
            del _SHARED[next(iter(_SHARED))]
        shared = _SHARED[key] = (fn, tuple(addrs))
        return shared


# ----------------------------------------------------------------------
# installation helpers
# ----------------------------------------------------------------------
def install(cpu: Cpu, **kwargs) -> BlockTranslator:
    """Attach a translated tier to one CPU; returns the translator."""
    translator = BlockTranslator(cpu, **kwargs)
    cpu.translator = translator
    return translator


@contextlib.contextmanager
def auto_translation(enabled: bool = True):
    """Within the block, CPUs build their translated tier by the
    budget rule (``enabled``, the default) or never — the one switch
    the differential tests and the tier-pinning benches use.  A CPU
    that already built its translator keeps it."""
    saved = _cpu_mod._AUTO_TRANSLATE
    _cpu_mod._AUTO_TRANSLATE = enabled
    try:
        yield
    finally:
        _cpu_mod._AUTO_TRANSLATE = saved
