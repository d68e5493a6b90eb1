"""The R32 code generator: the one source of both execution engines.

:func:`compile_code` writes Python source for a run of instructions:
each value or branch condition pasted from the semantics table
(:data:`repro.isa.instructions.SEMANTICS`) with its operands as text
(``regs[i]``, ``r0`` as ``0``, the immediate as a literal), and the
glue no table row holds — loads and stores with their deferred
accesses, jumps, ``reti`` and ``halt``, the state commit before every
operation that can raise or call out, the IRQ re-checks and the cycle
accounting.  The interpreted tier (``Cpu._run_block_fast``, and with it
``Cpu.step()``) runs one function per decoded word, :func:`word_function`,
with ``pc`` its argument; the block translator (:mod:`repro.isa.translate`)
one per hot basic block, every ``pc`` a literal that CPython folds.

A function is ``fn(cpu, regs, memory, pc, i0, c0)``, called with the
CPU's ``pc``, ``instr_count`` and ``cycle_count`` committed.  It
commits them again before each faultable operation and on every exit,
and returns ``steps << 3 | flag``, one of the exit flags below.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.isa.instructions import (
    HELPERS,
    LINK_REG,
    MASK32,
    SEMANTICS,
    CpuError,
    Instruction,
    Isa,
    Opcode,
)

__all__ = ["compile_code", "word_function"]

# exit flags in the low 3 bits of a compiled function's return value
# (the high bits carry the step count, so most returns are baked-in
# integer literals)
END = 0     # ran to its terminator or fell off its end
IRQ = 1     # an enabled interrupt became pending mid-function
SMC = 2     # a store rewrote the function's own code
DEFER = 3   # an external access deferred (cpu._pending is set)
HALT = 4    # halt retired

#: Opcodes that end a basic block.
TERMINATORS = frozenset(
    op for op, row in SEMANTICS.items() if row.ends_block
)

#: Process-wide word functions before the oldest is evicted.
MAX_WORDS = 4096

#: word functions shared by every ISA in the process:
#: (word, cycles, custom semantics) -> fn
_WORDS: Dict[tuple, Callable] = {}

_M = MASK32  # literal spelled into generated source


def _reg(index: int) -> str:
    """Operand source text with r0 pre-resolved to a literal zero."""
    return f"regs[{index}]" if index else "0"


def word_function(isa: Isa, word: int, instr: Instruction) -> Callable:
    """The one-instruction function of ``word`` (decoded as ``instr``
    under ``isa``), compiled once per process.

    Keyed by everything its code bakes in: the word, its cycles under
    ``isa`` and, for a custom op, its semantics.
    """
    op = instr.opcode
    custom = isa.custom(op)
    key = (word, isa.cycles_of(op), custom and custom.semantics)
    fn = _WORDS.get(key)
    if fn is None:
        if len(_WORDS) >= MAX_WORDS:
            del _WORDS[next(iter(_WORDS))]
        fn = _WORDS[key] = compile_code(
            isa, f"_word_{word & _M:08x}", [instr], ["pc"])
    return fn


def compile_code(
    isa: Isa,
    name: str,
    instrs: Sequence[Instruction],
    pcs: Sequence[str],
    watched: frozenset = frozenset(),
) -> Callable:
    """Compile ``instrs`` into one function called ``name``.

    ``pcs`` is each instruction's address as source text: literals for
    a block, the argument ``"pc"`` for a word function.  ``watched``
    holds the addresses of the function's own code; a store into one
    exits at once.  A word function watches none, since it returns
    after its store anyway.
    """
    # imported here: repro.isa.cpu imports this module
    from repro.isa.cpu import ExternalAccess

    table = isa.cycle_table()
    # cyc[k] = cycles retired before instruction k
    cyc = [0]
    for instr in instrs:
        cyc.append(cyc[-1] + table[instr.opcode])
    namespace = {
        **HELPERS,
        "ExternalAccess": ExternalAccess,
        "INSTRS": tuple(instrs),
        "ADDRS": watched,
    }
    lines = [f"def {name}(cpu, regs, memory, pc, i0, c0):"]
    for k, (instr, pc) in enumerate(zip(instrs, pcs)):
        _emit(lines, namespace, isa, k, pc, instr, cyc, bool(watched))
    if instrs[-1].opcode not in TERMINATORS:
        # no terminator (a word function, or a block at its length cap
        # or before an untranslatable word): commit and return
        k = len(instrs)
        lines.append(f"    cpu.pc = {pcs[-1]} + 1")
        lines.append(f"    cpu.instr_count = i0 + {k}")
        lines.append(f"    cpu.cycle_count = c0 + {cyc[k]}")
        lines.append(f"    return {k * 8 + END}")
    exec(compile("\n".join(lines), f"<r32 {name}>", "exec"), namespace)
    return namespace[name]


def _emit(
    out: List[str],
    namespace: dict,
    isa: Isa,
    k: int,
    pc: str,
    instr: Instruction,
    cyc: List[int],
    smc_exit: bool,
) -> None:
    """Append the source lines of instruction ``k``, at address ``pc``;
    with ``smc_exit``, a store into ``ADDRS`` exits at once."""
    op = instr.opcode
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    a, b = _reg(rs1), _reg(rs2)
    k1 = k + 1
    out.append(f"    # {pc}: {isa.disassemble(instr)}")

    def commit_here() -> None:
        """The state a faultable op exposes: instruction ``k`` not yet
        retired (at ``k == 0`` the caller committed it)."""
        if k:
            out.append(
                f"    cpu.pc = {pc}; cpu.instr_count = i0 + {k}; "
                f"cpu.cycle_count = c0 + {cyc[k]}"
            )

    def exit_next(flag: int, indent: str = "    ") -> None:
        """Early exit with instruction ``k`` retired."""
        out.append(
            f"{indent}cpu.pc = {pc} + 1; "
            f"cpu.instr_count = i0 + {k1}; "
            f"cpu.cycle_count = c0 + {cyc[k1]}"
        )
        out.append(f"{indent}return {k1 * 8 + flag}")

    def exit_to(target: str, flag: int = END) -> None:
        """Retire instruction ``k`` and leave for ``target``."""
        out.append(f"    cpu.pc = {target}")
        out.append(f"    cpu.instr_count = i0 + {k1}")
        out.append(f"    cpu.cycle_count = c0 + {cyc[k1]}")
        out.append(f"    return {k1 * 8 + flag}")

    def irq_recheck() -> None:
        """Exit if an op's side effects raised an enabled interrupt,
        where the per-step IRQ check would first see it."""
        out.append("    if cpu.irq_pending and cpu.irq_enabled:")
        exit_next(IRQ, "        ")

    def defer_if(test: str, access: str) -> None:
        """If ``test`` holds, the access deferred: leave instruction
        ``k`` pending on ``access``."""
        out.append(f"    if {test}:")
        out.append(f"        cpu._pending = ({pc}, INSTRS[{k}], {access})")
        out.append(f"        return {k1 * 8 + DEFER}")

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
    elif op == Opcode.LW:
        commit_here()
        out.append(f"    _a = (({a}) + ({imm})) & {_M}")
        out.append("    _v = memory.load(_a)")
        defer_if("_v is None", "ExternalAccess(_a, 0, False)")
        if rd:
            out.append(f"    regs[{rd}] = _v & {_M}")
        irq_recheck()
    elif op == Opcode.SW:
        commit_here()
        value = _reg(rd)
        out.append(f"    _wa = (({a}) + ({imm})) & {_M}")
        defer_if(f"memory.store(_wa, {value})",
                 f"ExternalAccess(_wa, {value} & {_M}, True)")
        if smc_exit:
            out.append("    if _wa in ADDRS:")
            exit_next(SMC, "        ")
        irq_recheck()
    elif row.taken is not None:  # BEQ/BNE/BLT/BGE
        out.append(f"    if {row.taken.format(l=_reg(rd), a=a)}:")
        out.append(f"        cpu.pc = {pc} + {1 + imm}")
        out.append(f"        cpu.cycle_count = c0 + {cyc[k1] + 1}")
        out.append("    else:")
        out.append(f"        cpu.pc = {pc} + 1")
        out.append(f"        cpu.cycle_count = c0 + {cyc[k1]}")
        out.append(f"    cpu.instr_count = i0 + {k1}")
        out.append(f"    return {k1 * 8 + END}")
    elif op == Opcode.J:
        exit_to(str(imm))
    elif op == Opcode.JAL:
        out.append(f"    regs[{LINK_REG}] = ({pc} + 1) & {_M}")
        exit_to(str(imm))
    elif op == Opcode.JR:
        exit_to(a)
    elif op == Opcode.RETI:
        out.append("    cpu.irq_enabled = True")
        exit_to("cpu.epc")
    elif op == Opcode.HALT:  # pc stays put
        out.append("    cpu.halted = True")
        exit_to(pc, HALT)
    else:  # pragma: no cover - decode guarantees known opcodes
        raise CpuError(f"unimplemented opcode {op:#x}")
