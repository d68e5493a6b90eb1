"""The R32 semantics table against an oracle it did not generate.

Every execution tier builds each opcode's meaning from one table
(``repro.isa.instructions.SEMANTICS``), so the step-vs-block
differentials check the glue around it but no longer what an opcode
computes.  The oracle here is ``ReferenceCpu``: its ``_execute``,
``_div``, ``_mod`` and ``_signed`` are verbatim copies of the
hand-written interpreter in ``repro/isa/cpu.py`` at commit c74450d,
before the table existed, and share no code with it.

Every base opcode runs on an edge grid of register values and
immediates, with r0 as destination and as source (its raw slot holding
ones), and must leave the reference's state and error on all three
tiers: ``step()``, the interpreted ``run_block`` and the translated one.
"""

import dis
import itertools

import pytest

from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import (
    MASK32,
    SEMANTICS,
    Instruction,
    Isa,
    Opcode,
)
from repro.isa.translate import auto_translation, install

from tests.isa.r32_harness import snapshot


def _signed(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


class ReferenceCpu(Cpu):
    """``step()`` over the hand-written interpreter of c74450d."""

    def _execute(self, instr: Instruction) -> int:
        op = instr.opcode
        cycles = self.isa.cycles_of(op)
        next_pc = self.pc + 1
        # read the register file once; r0 semantics (reads as zero,
        # writes discarded) are kept inline instead of paying a
        # get_reg/set_reg method call per operand
        regs = self.regs
        rd = instr.rd
        rs1 = instr.rs1
        rs2 = instr.rs2
        a = regs[rs1] if rs1 else 0
        b = regs[rs2] if rs2 else 0

        custom = self.isa.custom(op)
        if custom is not None:
            v = custom.semantics(a, b) & MASK32
            if rd:
                regs[rd] = v
        elif op == Opcode.ADD:
            if rd:
                regs[rd] = (a + b) & MASK32
        elif op == Opcode.SUB:
            if rd:
                regs[rd] = (a - b) & MASK32
        elif op == Opcode.MUL:
            if rd:
                regs[rd] = (a * b) & MASK32
        elif op == Opcode.DIV:
            v = self._div(a, b) & MASK32
            if rd:
                regs[rd] = v
        elif op == Opcode.MOD:
            v = self._mod(a, b) & MASK32
            if rd:
                regs[rd] = v
        elif op == Opcode.AND:
            if rd:
                regs[rd] = a & b
        elif op == Opcode.OR:
            if rd:
                regs[rd] = a | b
        elif op == Opcode.XOR:
            if rd:
                regs[rd] = a ^ b
        elif op == Opcode.SLL:
            if rd:
                regs[rd] = (a << (b & 31)) & MASK32
        elif op == Opcode.SRL:
            if rd:
                regs[rd] = (a & MASK32) >> (b & 31)
        elif op == Opcode.SRA:
            if rd:
                regs[rd] = (_signed(a) >> (b & 31)) & MASK32
        elif op == Opcode.SLT:
            if rd:
                regs[rd] = int(_signed(a) < _signed(b))
        elif op == Opcode.SLTU:
            if rd:
                regs[rd] = int((a & MASK32) < (b & MASK32))
        elif op == Opcode.ADDI:
            if rd:
                regs[rd] = (a + instr.imm) & MASK32
        elif op == Opcode.ANDI:
            if rd:
                regs[rd] = a & (instr.imm & 0xFFFF)
        elif op == Opcode.ORI:
            if rd:
                regs[rd] = (a | (instr.imm & 0xFFFF)) & MASK32
        elif op == Opcode.XORI:
            if rd:
                regs[rd] = (a ^ (instr.imm & 0xFFFF)) & MASK32
        elif op == Opcode.SLLI:
            if rd:
                regs[rd] = (a << (instr.imm & 31)) & MASK32
        elif op == Opcode.SRLI:
            if rd:
                regs[rd] = (a & MASK32) >> (instr.imm & 31)
        elif op == Opcode.SLTI:
            if rd:
                regs[rd] = int(_signed(a) < instr.imm)
        elif op == Opcode.LUI:
            if rd:
                regs[rd] = ((instr.imm & 0xFFFF) << 16) & MASK32
        elif op == Opcode.LW:
            v = self.memory.read(a + instr.imm) & MASK32
            if rd:
                regs[rd] = v
        elif op == Opcode.SW:
            self.memory.write(a + instr.imm, regs[rd] if rd else 0)
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            lhs = regs[rd] if rd else 0
            if op == Opcode.BEQ:
                taken = lhs == a
            elif op == Opcode.BNE:
                taken = lhs != a
            elif op == Opcode.BLT:
                taken = _signed(lhs) < _signed(a)
            else:
                taken = _signed(lhs) >= _signed(a)
            if taken:
                next_pc = self.pc + 1 + instr.imm
                cycles += 1  # taken-branch penalty
        elif op == Opcode.J:
            next_pc = instr.imm
        elif op == Opcode.JAL:
            regs[15] = (self.pc + 1) & MASK32
            next_pc = instr.imm
        elif op == Opcode.JR:
            next_pc = a
        elif op == Opcode.RETI:
            next_pc = self.epc
            self.irq_enabled = True
        elif op == Opcode.HALT:
            self.halted = True
            next_pc = self.pc
        else:  # pragma: no cover - decode guarantees known opcodes
            raise CpuError(f"unimplemented opcode {op:#x}")

        self.pc = next_pc
        return cycles

    @staticmethod
    def _div(a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        if sb == 0:
            raise CpuError("division by zero")
        q = abs(sa) // abs(sb)
        return q if (sa >= 0) == (sb >= 0) else -q

    @staticmethod
    def _mod(a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        if sb == 0:
            raise CpuError("modulo by zero")
        r = abs(sa) % abs(sb)
        return r if sa >= 0 else -r


# ----------------------------------------------------------------------
# the grid
# ----------------------------------------------------------------------
VALUES = (0, 1, 31, 32, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF, 0x80000000,
          0xFFFFFFFF)
IMMS = (-0x8000, -1, 0, 1, 31, 0x7FFF)
ORIGIN = 0x100  # the instruction; halts at ORIGIN + 1 and ORIGIN + 2
R0_RAW = MASK32  # r0's raw slot: every tier must still read zero

R_OPS = ("ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR", "SLL",
         "SRL", "SRA", "SLT", "SLTU")
I_OPS = ("ADDI", "ANDI", "ORI", "XORI", "SLLI", "SRLI", "SLTI", "LUI")
BRANCHES = ("BEQ", "BNE", "BLT", "BGE")
OTHERS = ("LW", "SW", "J", "JAL", "JR", "RETI", "HALT")


def _pairs():
    return itertools.product(VALUES, VALUES)


def cases(name):
    """``(instruction, {reg: value}, cpu fields)`` for one opcode."""
    op = int(Opcode[name])
    if name in R_OPS:
        for x, y in _pairs():
            yield Instruction(op, rd=3, rs1=1, rs2=2), {1: x, 2: y}, {}
        for x in VALUES:
            yield Instruction(op, rd=0, rs1=1, rs2=2), {1: x, 2: x}, {}
            yield Instruction(op, rd=3, rs1=0, rs2=2), {2: x}, {}
            yield Instruction(op, rd=3, rs1=1, rs2=0), {1: x}, {}
            yield Instruction(op, rd=1, rs1=1, rs2=1), {1: x}, {}
    elif name in I_OPS:
        for x, imm in itertools.product(VALUES, IMMS):
            yield Instruction(op, rd=3, rs1=1, imm=imm), {1: x}, {}
            yield Instruction(op, rd=0, rs1=1, imm=imm), {1: x}, {}
        for imm in IMMS:
            yield Instruction(op, rd=3, rs1=0, imm=imm), {}, {}
    elif name in BRANCHES:
        for l, a in _pairs():
            yield Instruction(op, rd=1, rs1=2, imm=1), {1: l, 2: a}, {}
        for x in VALUES:
            yield Instruction(op, rd=0, rs1=2, imm=1), {2: x}, {}
            yield Instruction(op, rd=1, rs1=0, imm=1), {1: x}, {}
    elif name in ("LW", "SW"):
        for (x, y), imm in itertools.product(zip(VALUES, VALUES[::-1]),
                                             IMMS):
            yield Instruction(op, rd=3, rs1=1, imm=imm), {1: x, 3: y}, {}
            yield Instruction(op, rd=0, rs1=1, imm=imm), {1: x}, {}
    elif name in ("J", "JAL"):
        for target in IMMS + (ORIGIN + 2,):
            yield Instruction(op, imm=target), {}, {}
    elif name == "JR":
        for target in VALUES + (ORIGIN + 2,):
            yield Instruction(op, rs1=1), {1: target}, {}
    elif name == "RETI":
        for epc in (ORIGIN + 2, 0):
            yield Instruction(op), {}, {"epc": epc, "irq_enabled": False}
    else:
        yield Instruction(op), {}, {}


def build(cls, instr, regs, fields, isa):
    """A CPU at ORIGIN on ``instr; halt; halt``, its registers and RAM
    seeded from the case (every load finds a word of its own)."""
    memory = Memory()
    memory.load_image({
        ORIGIN: isa.encode(instr),
        ORIGIN + 1: isa.encode(Instruction(int(Opcode.HALT))),
        ORIGIN + 2: isa.encode(Instruction(int(Opcode.HALT))),
    })
    if instr.opcode == Opcode.LW:
        addr = (regs.get(instr.rs1, 0) + instr.imm) & MASK32
        memory.ram.setdefault(addr, addr ^ 0xA5A5A5A5)
    cpu = cls(isa, memory, pc=ORIGIN)
    cpu.regs[0] = R0_RAW
    for index, value in regs.items():
        cpu.regs[index] = value
    for field, value in fields.items():
        setattr(cpu, field, value)
    return cpu


def run_steps(cpu):
    try:
        while not cpu.halted:
            cpu.step()
    except CpuError as exc:
        return str(exc)
    return None


def run_blocks(cpu):
    try:
        while not cpu.halted:
            cpu.run_block(64)
    except CpuError as exc:
        return str(exc)
    return None


def run_interpreted(cpu):
    with auto_translation(False):
        error = run_blocks(cpu)
    assert cpu.translator is None
    return error


def run_translated(cpu):
    install(cpu, hot_threshold=1)
    error = run_blocks(cpu)
    assert cpu.translator.translations >= 1
    return error


def run_on(cls, runner, case, isa):
    """The error message (or None) and final state of one case."""
    cpu = build(cls, *case, isa)
    error = runner(cpu)
    return error, snapshot(cpu)


def test_the_grid_covers_every_base_opcode():
    names = R_OPS + I_OPS + BRANCHES + OTHERS
    assert sorted(names) == sorted(Opcode.__members__)


def test_one_table_row_per_opcode():
    assert len(SEMANTICS) == len(Opcode)
    assert set(SEMANTICS) == set(Opcode)


@pytest.mark.parametrize("name", sorted(Opcode.__members__))
def test_every_tier_matches_the_reference(name):
    isa = Isa()
    for case in cases(name):
        want = run_on(ReferenceCpu, run_steps, case, isa)
        for runner in (run_steps, run_interpreted, run_translated):
            assert run_on(Cpu, runner, case, isa) == want, (runner, case)


# ----------------------------------------------------------------------
# constant folding is the compiler's
# ----------------------------------------------------------------------
def _bytecode_by_line(fn):
    lines = {}
    line = None
    for ins in dis.get_instructions(fn):
        start = getattr(ins, "line_number", ins.starts_line)
        if start is not None:
            line = start
        lines.setdefault(line, []).append(ins)
    return lines


def test_translated_constants_are_stored_not_computed():
    """``addi rd, r0, k`` and ``lui rd, k`` paste into expressions over
    literals, which CPython folds: each register write loads one
    constant and runs no arithmetic."""
    isa = Isa()
    image = {
        ORIGIN: isa.encode(Instruction(int(Opcode.ADDI), rd=1, imm=5)),
        ORIGIN + 1: isa.encode(Instruction(int(Opcode.LUI), rd=2,
                                           imm=0x1234)),
        ORIGIN + 2: isa.encode(Instruction(int(Opcode.HALT))),
    }
    memory = Memory()
    memory.load_image(image)
    cpu = Cpu(isa, memory, pc=ORIGIN)
    install(cpu, hot_threshold=1)
    cpu.run()
    assert cpu.regs[1:3] == [5, 0x12340000]
    fn = cpu.translator._blocks[ORIGIN][0]
    writes = [ops for ops in _bytecode_by_line(fn).values()
              if any(ins.opname == "STORE_SUBSCR" for ins in ops)]
    assert len(writes) == 2
    for ops, (const, reg) in zip(writes, [(5, 1), (0x12340000, 2)]):
        assert [ins.argval for ins in ops
                if ins.opname in ("LOAD_CONST", "LOAD_SMALL_INT")] \
            == [const, reg]
        assert not [ins.opname for ins in ops
                    if ins.opname.startswith(("BINARY", "UNARY"))]
