"""The block-translation execution tier: hot basic blocks as closures.

This is the second R32 execution engine, beside the interpreted tier
``Cpu._run_block_fast`` (a pre-decoded operand-cache loop, of which
``Cpu.step()`` runs one step).  A :class:`BlockTranslator` compiles
each hot basic block — a maximal straight-line run of instructions
ending at the first control transfer — into one specialized Python
function:
each instruction's meaning is pasted from the R32 semantics table
(:data:`repro.isa.instructions.SEMANTICS`) with its operands
pre-resolved to direct ``regs[i]`` subscripts, ``r0`` to a literal
zero and the immediate to a literal (so CPython's constant folder
turns ``lui``/``addi r, r0`` into constants), cycle accounting is
fused into compile-time prefix sums, and the dispatch chain of the
interpreter disappears entirely.  Executing a block is one function
call instead of one interpreter iteration per instruction.

The tier is governed by the DESIGN.md §9/§13 equivalence contract —
**a fast path may move host time, never model results** — and keeps it
the same way the interpreted tier does:

* **Observers run on the interpreted tier.**  ``Cpu.run_block``
  dispatches to the translator only when ``cpu.observers`` is empty,
  so profilers and trace hooks see every retirement one step at a
  time.  Detaching the last observer re-engages the translated tier
  on the next call; there is no sticky disabled state.  A pending
  fault trigger does not leave it: ``run_block`` runs the translator
  up to the due retirement, fires the trigger, and runs on.
* **Interrupts hit the same boundaries.**  The dispatcher checks the
  IRQ lines between blocks, and translated code re-checks after every
  instruction whose side effects could raise one mid-block (memory
  accesses through device regions, custom-op semantics) — exactly the
  points where the interpreted loop's per-instruction check could
  observe a new ``irq_pending``.
* **External accesses defer identically.**  A load/store that hits an
  external region sets ``cpu._pending`` with the same ``(pc, instr,
  access)`` triple, the same un-advanced ``pc``, and the same counter
  state as the interpreter, then surfaces the
  :class:`~repro.isa.cpu.ExternalAccess` out of ``run_block``.
* **Errors carry the same message at the same state.**  Translated
  code commits architectural state *before* every faultable operation
  (div/mod, memory, custom semantics), so a ``CpuError`` propagates
  with the identical boundary snapshot the interpreter's ``finally``
  would leave.

Compiled blocks live in one process-wide cache keyed by the entry
``pc``, the block's code words, the ISA's cycle table and the semantics
objects of any custom ops in the block — everything code generation
bakes in.  A compiled block holds no per-CPU state (the CPU, its
registers and memory are arguments), so every translator in the process
reuses it without compiling.  Each translator keeps its own ``pc`` ->
block map on top, guarded per CPU: :attr:`Isa.version` drops the map on
``add_custom`` or cycle-table edits, and a write-watch guards the code
words — :class:`~repro.isa.cpu.Memory` bumps its ``code_version``
whenever a store or ``load_image`` touches an address covered by a
block this translator runs, compiled or reused, from *any* tier (so
self-modifying stores executed under observers still invalidate), and
translated stores additionally early-exit their own block when they
rewrite it.  RAM mutations that bypass ``Memory.write``/``load_image``
(direct pokes at the ``ram`` dict) are outside the contract.

Budget exactness: the backplane's ``batch_instructions`` budget is a
step-equivalent count, so a block longer than the remaining budget is
never run translated — the dispatcher hands the exact remainder to the
interpreted fast tier instead, preserving the precise sequence of
timeouts and adapter activations at any batch size.  A CPU builds its
translator only on a ``run_block`` call whose budget can hold a whole
block (:data:`~repro.isa.cpu.MAX_BLOCK_LEN`), so a CPU the backplane
steps a few instructions at a time never builds one.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Tuple

from repro.isa import cpu as _cpu_mod
from repro.isa.cpu import MAX_BLOCK_LEN, Cpu, CpuError, ExternalAccess, _Defer
from repro.isa.instructions import HELPERS, MASK32, SEMANTICS, Instruction

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

# exit flags in the low 3 bits of a translated function's return value
# (the high bits carry the step count, so most returns are baked-in
# integer literals)
_END = 0     # block ran to its terminator or fell off its end
_IRQ = 1     # an enabled interrupt became pending mid-block
_SMC = 2     # a store rewrote this block's own code
_DEFER = 3   # an external access deferred (cpu._pending is set)
_HALT = 4    # halt retired

#: Opcodes that end a basic block.
_TERMINATORS = frozenset(
    op for op, row in SEMANTICS.items() if row.ends_block
)

_M = MASK32  # literal spelled into generated source

#: compiled blocks shared by every translator in the process:
#: (pc, code words, cycle table, custom semantics) -> (fn, addrs)
_SHARED: Dict[tuple, Tuple] = {}


def _reg(index: int) -> str:
    """Operand source text with r0 pre-resolved to a literal zero."""
    return f"regs[{index}]" if index else "0"


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
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
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
                    cpu, regs, memory, cpu.instr_count, cpu.cycle_count
                )
                steps += res >> 3
                flag = res & 7
                if flag == _END:
                    continue
                if flag == _HALT:
                    break
                if flag == _DEFER:
                    return (steps, cpu.cycle_count - cycles0 + extra,
                            cpu._pending[2])
                self.early_exits += 1  # _IRQ or _SMC: re-dispatch
                continue
            # cold block, or stale after a code-watch bump
            instrs, addrs, words = self._scan(pc)
            if not instrs:
                self._raise_fetch_error(pc)
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
            before = cpu.cycle_count
            s, c, access = cpu._run_block_fast(
                min(len(instrs), max_steps - steps)
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
            if instr.opcode in _TERMINATORS:
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

    def _raise_fetch_error(self, pc: int) -> None:
        """Reproduce the interpreter's fetch/decode error exactly."""
        word = self.cpu.memory.ram.get(pc)
        if word is None:
            raise CpuError(f"fetch from unprogrammed address {pc:#x}")
        try:
            self.cpu.isa.decode(word)
        except ValueError as exc:
            raise CpuError(f"pc={pc:#x}: {exc}") from None
        raise AssertionError(  # pragma: no cover - scan() mirrors decode
            f"block scan rejected decodable word at {pc:#x}"
        )

    # ------------------------------------------------------------------
    # code generation
    # ------------------------------------------------------------------
    def _compile(
        self, pc0: int, instrs: List[Instruction], addrs: List[int],
        key: tuple,
    ) -> Tuple:
        """Compile one scanned block into its specialized function and
        share it; returns the shared ``(fn, addrs)`` entry."""
        table = self.cpu.isa.cycle_table()
        # compile-time cycle prefix sums: cyc[k] = cycles retired
        # before instruction k
        cyc = [0]
        for instr in instrs:
            cyc.append(cyc[-1] + table[instr.opcode])
        namespace = {
            **HELPERS,
            "_Defer": _Defer,
            "INSTRS": tuple(instrs),
            "ADDRS": frozenset(addrs),
        }
        lines = [
            f"def _block_{pc0 & _M:x}(cpu, regs, memory, i0, c0):",
        ]
        for k, (instr, pc) in enumerate(zip(instrs, addrs)):
            self._emit(lines, namespace, k, pc, instr, cyc)
        last = instrs[-1]
        if last.opcode not in _TERMINATORS:
            # fell off the scanned end (length cap or untranslatable
            # next word): commit and let the dispatcher continue
            k = len(instrs)
            lines.append(f"    cpu.pc = {addrs[-1] + 1}")
            lines.append(f"    cpu.instr_count = i0 + {k}")
            lines.append(f"    cpu.cycle_count = c0 + {cyc[k]}")
            lines.append(f"    return {k * 8 + _END}")
        source = "\n".join(lines)
        code = compile(source, f"<r32-block@{pc0:#x}>", "exec")
        exec(code, namespace)
        if len(_SHARED) >= MAX_SHARED_BLOCKS:
            del _SHARED[next(iter(_SHARED))]
        shared = _SHARED[key] = (namespace[f"_block_{pc0 & _M:x}"],
                                 tuple(addrs))
        return shared

    def _emit(
        self,
        out: List[str],
        namespace: dict,
        k: int,
        pc: int,
        instr: Instruction,
        cyc: List[int],
    ) -> None:
        """Append the source lines for instruction ``k`` at ``pc``."""
        isa = self.cpu.isa
        op = instr.opcode
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        a, b = _reg(rs1), _reg(rs2)
        k1 = k + 1
        out.append(f"    # {pc:#x}: {isa.disassemble(instr)}")

        def commit_here() -> None:
            """State the interpreter exposes before a faultable op."""
            out.append(
                f"    cpu.pc = {pc}; cpu.instr_count = i0 + {k}; "
                f"cpu.cycle_count = c0 + {cyc[k]}"
            )

        def exit_next(flag: int, indent: str = "    ") -> None:
            """Early exit with instruction ``k`` retired."""
            out.append(
                f"{indent}cpu.pc = {pc + 1}; "
                f"cpu.instr_count = i0 + {k1}; "
                f"cpu.cycle_count = c0 + {cyc[k1]}"
            )
            out.append(f"{indent}return {k1 * 8 + flag}")

        def irq_recheck() -> None:
            """Mirror the interpreter's per-instruction IRQ check
            after an op whose side effects may raise one."""
            out.append("    if cpu.irq_pending and cpu.irq_enabled:")
            exit_next(_IRQ, "        ")

        row = SEMANTICS.get(op)  # None for a custom op
        if row is None:
            namespace[f"C{k}"] = isa.custom(op).semantics
            value, raises = f"C{k}(({a}), ({b})) & {_M}", True
        else:
            value, raises = row.value, row.raises
            if value is not None:
                value = value.format(a=a, b=b, imm=imm)
        if value is not None:
            if raises:
                commit_here()
                out.append(f"    {f'regs[{rd}] = ' if rd else ''}{value}")
            elif rd:
                out.append(f"    regs[{rd}] = {value}")
            if row is None:
                irq_recheck()
        elif op == 0x30:  # LW
            commit_here()
            addr = f"({a}) + ({imm})"
            out.append("    try:")
            if rd:
                out.append(f"        _v = memory.read({addr}) & {_M}")
            else:
                out.append(f"        memory.read({addr})")
            out.append("    except _Defer as _d:")
            out.append(
                f"        cpu._pending = ({pc}, INSTRS[{k}], _d.access)"
            )
            out.append(f"        return {k1 * 8 + _DEFER}")
            if rd:
                out.append(f"    regs[{rd}] = _v")
            irq_recheck()
        elif op == 0x31:  # SW
            commit_here()
            out.append(f"    _wa = (({a}) + ({imm})) & {_M}")
            out.append("    try:")
            out.append(f"        memory.write(_wa, {_reg(rd)})")
            out.append("    except _Defer as _d:")
            out.append(
                f"        cpu._pending = ({pc}, INSTRS[{k}], _d.access)"
            )
            out.append(f"        return {k1 * 8 + _DEFER}")
            out.append("    if _wa in ADDRS:")
            exit_next(_SMC, "        ")
            irq_recheck()
        elif row.taken is not None:  # BEQ/BNE/BLT/BGE
            out.append(f"    if {row.taken.format(l=_reg(rd), a=a)}:")
            out.append(f"        cpu.pc = {pc + 1 + imm}")
            out.append(f"        cpu.cycle_count = c0 + {cyc[k1] + 1}")
            out.append("    else:")
            out.append(f"        cpu.pc = {pc + 1}")
            out.append(f"        cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    return {k1 * 8 + _END}")
        elif op == 0x50:  # J
            out.append(f"    cpu.pc = {imm}")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    return {k1 * 8 + _END}")
        elif op == 0x51:  # JAL
            out.append(f"    regs[15] = {(pc + 1) & _M}")
            out.append(f"    cpu.pc = {imm}")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    return {k1 * 8 + _END}")
        elif op == 0x52:  # JR
            out.append(f"    cpu.pc = {a}")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    return {k1 * 8 + _END}")
        elif op == 0x60:  # RETI
            out.append("    cpu.irq_enabled = True")
            out.append("    cpu.pc = cpu.epc")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    return {k1 * 8 + _END}")
        elif op == 0x7F:  # HALT
            out.append("    cpu.halted = True")
            out.append(f"    cpu.pc = {pc}")
            out.append(f"    cpu.instr_count = i0 + {k1}")
            out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
            out.append(f"    return {k1 * 8 + _HALT}")
        else:  # pragma: no cover - decode guarantees known opcodes
            raise CpuError(f"unimplemented opcode {op:#x}")


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
