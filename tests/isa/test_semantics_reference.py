"""The R32 semantics table against an oracle it did not generate.

Both execution engines build each opcode's meaning from one table
(``repro.isa.instructions.SEMANTICS``), so the engine-vs-engine
differentials check the glue around it but not what an opcode
computes.  The oracle here is ``ReferenceCpu``
(``tests/isa/r32_harness.py``): its ``_execute``, ``_div``, ``_mod`` and
``_signed`` are verbatim copies of the hand-written interpreter in
``repro/isa/cpu.py`` at commit c74450d, before the table existed, and it
shares no execution code with ``repro.isa.cpu``.

Every base opcode runs on an edge grid of register values and
immediates, with r0 as destination and as source (its raw slot holding
ones), and must leave the reference's state and error on ``step()``,
the interpreted ``run_block`` and the translated one.  Canaries show
the comparison failing when either engine's ADD subtracts, and the
reference running with every engine entry point of the system
poisoned.
"""

import dis
import itertools

import pytest

from repro.fault import FaultSpec
from repro.isa import translate
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory
from repro.isa.instructions import (
    MASK32,
    SEMANTICS,
    Instruction,
    Isa,
    Opcode,
)
from repro.isa.profiler import Profiler
from repro.isa.translate import BlockTranslator, auto_translation, install

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    ReferenceCpu,
    make_ext_cpu,
    make_irq_cpu,
    run_ref,
    snapshot,
)


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
# canaries: the comparison fails on a wrong engine, and the reference
# runs with every engine of the system poisoned
# ----------------------------------------------------------------------
def mismatches(name, runner, isa):
    """The grid cases of ``name`` on which ``runner`` over the system
    leaves another state or error than the reference."""
    return [case for case in cases(name)
            if run_on(Cpu, runner, case, isa)
            != run_on(ReferenceCpu, run_steps, case, isa)]


def test_an_interpreted_add_that_subtracts_fails(monkeypatch):
    """The interpreted loop, and ``step()`` on it, compute from the
    ISA's compiled value; the translator pastes the table's text."""
    monkeypatch.setattr(translate, "_SHARED", {})
    isa = Isa()
    isa._values[int(Opcode.ADD)] = isa._values[int(Opcode.SUB)]
    assert mismatches("ADD", run_interpreted, isa)
    assert mismatches("ADD", run_steps, isa)
    assert not mismatches("ADD", run_translated, isa)


def test_a_translated_add_that_subtracts_fails(monkeypatch):
    monkeypatch.setattr(translate, "_SHARED", {})
    monkeypatch.setitem(SEMANTICS, Opcode.ADD, SEMANTICS[Opcode.SUB])
    isa = Isa()
    assert mismatches("ADD", run_translated, isa)
    assert not mismatches("ADD", run_interpreted, isa)


def test_the_reference_calls_no_engine_of_the_system(monkeypatch):
    calls = []

    def poisoned(label):
        def boom(*args, **kwargs):
            calls.append(label)
            raise AssertionError(f"{label} called")
        return boom

    for owner, name in ((Cpu, "step"), (Cpu, "run_block"),
                        (Cpu, "_run_block_fast"), (Cpu, "_predecode"),
                        (BlockTranslator, "execute")):
        monkeypatch.setattr(owner, name,
                            poisoned(f"{owner.__name__}.{name}"))
    isa = Isa()
    for name in sorted(Opcode.__members__):
        for case in cases(name):
            run_on(ReferenceCpu, run_steps, case, isa)

    # device IRQs, with a profiler and a fault trigger attached
    from repro.fault.inject import arm_cpu_fault

    cpu, log = make_irq_cpu(12, 3, ReferenceCpu)
    profiler = Profiler(cpu)
    arm_cpu_fault(cpu, FaultSpec(kind="cpu_reg_flip", target="cpu",
                                 index=2, bit=4, count=9))
    cpu.observers.append(ObserverSaboteur(
        cpu, FaultSpec(kind="cpu_reg_flip", target="cpu", index=13,
                       bit=3, count=20)))
    assert run_ref(cpu, 500) is None
    assert cpu.halted and cpu.irq_count and log and not cpu._triggers
    assert profiler.total_instructions == cpu.instr_count

    # deferred external accesses
    ext = make_ext_cpu(ReferenceCpu)
    while not ext.halted:
        access = ext.step()
        if isinstance(access, ExternalAccess):
            ext.complete_access(read_value=access.value or 5,
                                extra_cycles=3)
    assert ext.get_reg(3) == 10
    assert calls == []


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
