"""Register read/write sets and golden's register liveness, checked
against code that shares nothing with them.

Every :data:`~repro.isa.instructions.SEMANTICS` row names the registers
it reads and writes (``Isa.register_masks``), and ``BatchCpu`` turns
them into golden's liveness: the registers golden still reads after
each retirement before writing them (``BatchCpu.live_after``).  A
software fault cell trusts that table to answer every flip of a dead
register with golden's record (DESIGN §14), so both are checked here
against the frozen reference interpreter ``ReferenceCpu``
(``tests/isa/r32_harness.py``):

* one instruction at a time, for every opcode, the glue and a custom
  op: changing a register outside the read set changes no result, no
  register outside the write set changes, and every register in the
  read set can change a result;
* a Hypothesis differential over random programs: wherever the table
  marks a register dead, the reference run with that register flipped
  there ends in golden's halted snapshot, that register aside.
"""

import random
import re

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.fault import FaultSpec
from repro.isa import BatchCpu
from repro.isa.assembler import assemble
from repro.isa.cpu import CpuError, Memory
from repro.isa.instructions import (
    ALL_REGS,
    MASK32,
    N_REGS,
    SEMANTICS,
    CustomOp,
    Format,
    Instruction,
    Isa,
    Opcode,
)

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    ReferenceCpu,
    i_type,
    instr_st,
    make_ref,
    mem_type,
    program_words,
    r_type,
    run_ref,
    snapshot,
)

CUSTOM = 0x80


def custom_isa():
    """A stock ISA with one custom op whose result depends on both
    sources."""
    isa = Isa()
    isa.add_custom(CustomOp("mac3", CUSTOM, lambda a, b: a * 3 + b))
    return isa


#: every opcode the sets are checked for: the table's rows and the
#: custom op
OPCODES = sorted(int(op) for op in SEMANTICS) + [CUSTOM]
#: where the instruction under test sits; the data words live below it
PC0 = 0x200
#: data words every load can hit (addresses 0..63)
DATA = dict(enumerate(random.Random(1).choices(range(1 << 32), k=64)))


def one_step(isa, instr, regs):
    """``instr`` executed once on the reference from ``regs``: (error,
    snapshot)."""
    memory = Memory()
    memory.load_image({**DATA, PC0: isa.encode(instr)})
    cpu = ReferenceCpu(isa, memory, pc=PC0)
    cpu.regs = list(regs)
    cpu.epc = 0x77
    try:
        cpu.step()
        error = None
    except CpuError as exc:
        error = str(exc)
    return error, snapshot(cpu)


def aside(state, register):
    """``state`` with ``register``'s slot blanked."""
    regs = list(state["regs"])
    regs[register] = None
    return {**state, "regs": tuple(regs)}


def instruction(isa, op, rd, rs1, rs2, imm):
    """``op`` with the operand fields its format encodes (a jump target
    kept below 0x400)."""
    fmt = isa.fmt(op)
    if fmt is Format.R:
        return Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
    if fmt is Format.I:
        return Instruction(op, rd=rd, rs1=rs1, imm=imm)
    return Instruction(op, imm=imm & 0x3FF)


#: random programs: the harness's mix, whose programs that halt are
#: short, and longer ones that mostly halt: ALU code, loads and stores,
#: and forward branches
forward_st = st.builds(
    lambda op, rd, rs1, off: Instruction(op, rd=rd, rs1=rs1, imm=off),
    st.sampled_from([0x40, 0x41, 0x42, 0x43]), st.integers(0, 15),
    st.integers(0, 15), st.integers(0, 4))
programs_st = st.one_of(
    st.lists(instr_st, min_size=1, max_size=24),
    st.lists(st.one_of(r_type, i_type, mem_type, forward_st),
             min_size=8, max_size=32))
#: small words, so loads and stores hit DATA and branches compare equal,
#: and any word
word_st = st.one_of(st.integers(0, 40), st.integers(0, MASK32))
imm_st = st.one_of(st.integers(-8, 40), st.integers(-0x8000, 0x7FFF))


# ----------------------------------------------------------------------
# the sets of one instruction, against the reference
# ----------------------------------------------------------------------
class TestRegisterSets:
    @settings(max_examples=80, **COMMON)
    @given(rd=st.integers(0, 15), rs1=st.integers(0, 15),
           rs2=st.integers(0, 15), imm=imm_st,
           regs=st.lists(word_st, min_size=N_REGS, max_size=N_REGS),
           flip=st.integers(1, MASK32))
    def test_reads_and_writes_bound_what_the_reference_does(
            self, rd, rs1, rs2, imm, regs, flip):
        """Every opcode, on the same operands and register file."""
        isa = custom_isa()
        for op in OPCODES:
            instr = instruction(isa, op, rd, rs1, rs2, imm)
            reads, writes = isa.register_masks(instr)
            error, state = one_step(isa, instr, regs)
            for r in range(N_REGS):
                if not writes >> r & 1:
                    assert state["regs"][r] == regs[r], (instr, r)
            for r in range(N_REGS):
                if reads >> r & 1:
                    continue
                changed = list(regs)
                changed[r] ^= flip
                got_error, got = one_step(isa, instr, changed)
                assert got_error == error, (instr, r)
                if writes >> r & 1 and error is None:  # a trap writes none
                    assert got == state, (instr, r)
                else:
                    assert aside(got, r) == aside(state, r), (instr, r)

    @pytest.mark.parametrize("op", OPCODES)
    def test_every_read_can_change_a_result(self, op):
        """The sets are tight as well as sound: a register in the read
        set that could not change a result would only hide dead
        flips."""
        isa = custom_isa()
        rng = random.Random(op)
        imm = 5 if isa.fmt(op) is Format.I else 0x21
        instr = instruction(isa, op, 1, 2, 3, imm)
        reads, _writes = isa.register_masks(instr)
        words = [0, 1, 2, 3, 0x80000000, MASK32]
        for r in [r for r in range(N_REGS) if reads >> r & 1]:
            for _ in range(300):
                regs = [rng.choice(words + [rng.getrandbits(32)])
                        for _ in range(N_REGS)]
                changed = list(regs)
                changed[r] ^= rng.choice([1, 2, 0x80000000,
                                          rng.getrandbits(32) | 1])
                error, state = one_step(isa, instr, regs)
                got_error, got = one_step(isa, instr, changed)
                if got_error != error or aside(got, r) != aside(state, r):
                    break
            else:
                pytest.fail(f"r{r} never changes {isa.disassemble(instr)}")


class TestRegisterMasks:
    def test_alu_and_branch_rows_read_what_their_expressions_use(self):
        """The sets of the table's expression rows agree with the
        placeholders the engines paste operands into."""
        fields = {"a": "rs1", "b": "rs2", "l": "rd"}
        for op, row in SEMANTICS.items():
            text = row.value or row.taken
            if text is None:
                continue
            used = {fields[name] for name in re.findall(r"{(\w)}", text)
                    if name in fields}
            assert set(row.reads) == used, Opcode(op).name
            assert row.writes == (("rd",) if row.value else ()), \
                Opcode(op).name

    def test_glue_rows(self):
        isa = Isa()
        masks = {
            op: isa.register_masks(Instruction(int(op), rd=1, rs1=2, rs2=3,
                                               imm=0))
            for op in (Opcode.LW, Opcode.SW, Opcode.J, Opcode.JAL,
                       Opcode.JR, Opcode.RETI, Opcode.HALT)
        }
        assert masks == {
            Opcode.LW: (1 << 2, 1 << 1),
            Opcode.SW: (1 << 2 | 1 << 1, 0),  # rd is the stored word
            Opcode.J: (0, 0),
            Opcode.JAL: (0, 1 << 15),  # the link register
            Opcode.JR: (1 << 2, 0),
            Opcode.RETI: (0, 0),
            Opcode.HALT: (0, 0),
        }

    def test_r0_is_never_read_or_written(self):
        isa = custom_isa()
        for op in OPCODES:
            reads, writes = isa.register_masks(
                instruction(isa, op, 0, 0, 0, 0))
            assert not reads & 1 and not writes & 1

    def test_a_custom_op_reads_both_sources(self):
        isa = custom_isa()
        assert isa.register_masks(Instruction(CUSTOM, rd=4, rs1=5, rs2=6)) \
            == (1 << 5 | 1 << 6, 1 << 4)

    def test_an_unknown_opcode_reads_every_register(self):
        assert Isa().register_masks(Instruction(0x90, rd=4)) == \
            (ALL_REGS, 0)


# ----------------------------------------------------------------------
# golden's liveness table
# ----------------------------------------------------------------------
CHAIN_ASM = """
        addi r1, r0, 7         ; 1: writes r1
        addi r2, r1, 1         ; 2: reads r1, writes r2
        sw   r2, 0x10(r0)      ; 3: reads r2
        addi r1, r0, 0         ; 4: writes r1 again
        jal  sub               ; 5: writes r15
        halt                   ; 7
sub:    jr   r15               ; 6: reads r15
"""


def golden(image, budget=BUDGET):
    batch = BatchCpu(Isa(), image)
    batch.run(budget)
    return batch


class TestLiveness:
    def test_a_hand_checked_table(self):
        batch = golden(dict(assemble(CHAIN_ASM).image))
        assert [batch.live_after(k) for k in range(9)] == [
            0, 1 << 1, 1 << 2, 0, 0, 1 << 15, 0, 0, 0]

    def test_no_table_unless_golden_halts(self):
        spin = golden(dict(assemble("spin: j spin").image))
        errs = golden(program_words([Instruction(0x04, rd=1, rs1=0,
                                                 rs2=0)]))
        for batch in (spin, errs):
            assert batch.live is None
            assert batch.live_after(1) == (1 << N_REGS) - 1  # r0 too

    def test_live_after_needs_a_run_and_a_retirement(self):
        batch = BatchCpu(Isa(), dict(assemble(CHAIN_ASM).image))
        with pytest.raises(RuntimeError):
            batch.live_after(1)
        batch.run(BUDGET)
        with pytest.raises(ValueError, match="retired"):
            batch.live_after(-1)

    # no shrinking: each example runs up to a hundred reference runs,
    # and the failing site is in the assertion message anyway
    @settings(max_examples=150, phases=[Phase.explicit, Phase.generate],
              **COMMON)
    @given(instrs=programs_st, bit=st.integers(0, 31))
    def test_a_dead_flip_ends_in_goldens_halted_snapshot(self, instrs, bit):
        """Every dead site of each program (up to about 100 of them),
        each flipped at its own bit."""
        image = program_words(instrs)
        batch = golden(image)
        ref = make_ref(image)
        error = run_ref(ref)
        if batch.live is None:
            assert error is not None or not ref.halted
            return
        assert error is None and ref.halted
        halt = ref.instr_count
        want = snapshot(ref)
        # r0 and the retirements from the halt on are dead whatever the
        # program; tests/fault/test_dead_faults.py sweeps those
        dead = [(k, r) for k in range(1, halt) for r in range(1, N_REGS)
                if not batch.live_after(k) >> r & 1]
        for count, r in dead[::len(dead) // 100 + 1]:
            site = (count, r, (bit + count + r) % 32)
            cpu = make_ref(image)
            cpu.observers.append(ObserverSaboteur(cpu, FaultSpec(
                kind="cpu_reg_flip", target="cpu", index=r, bit=site[2],
                count=count)))
            assert run_ref(cpu) is None, site
            assert aside(snapshot(cpu), r) == aside(want, r), site
