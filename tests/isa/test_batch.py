"""Differential property tests for the fork engine.

:class:`repro.isa.BatchCpu` claims that a copy of its golden run, taken
at the latest checkpoint before a fault is due and finished on the
scalar tiers, is *byte-identical* to a fresh run of the same program
with the same fault armed from retirement 0 (DESIGN §14: the engine may
only reorganize work, never change it).  Hypothesis drives random
programs × random faults — register/pc/flag flips, mid-run IRQs,
self-modifying stores, division faults, illegal words, faults due past
golden's halt — through copies of one golden run, at several checkpoint
spacings, and through the reference interpreter ``ReferenceCpu``
(``tests/isa/r32_harness.py``) with the fault as a retirement observer,
and compares complete snapshots *and* error strings fault by fault.
Faults due at and past golden's halt run on the harness's programs
that halt (``halting_programs``), since few of the mixed random
programs halt, and those after a couple of retirements.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import FaultSpec
from repro.isa import BatchCpu
from repro.isa import batch as batch_mod
from repro.isa.assembler import assemble
from repro.isa.cpu import CpuError
from repro.isa.instructions import Instruction, Isa

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    halting_programs,
    instr_st,
    make_ref,
    program_words,
    snapshot,
)

reg_flip = st.builds(
    lambda index, bit, count: FaultSpec(
        kind="cpu_reg_flip", target="cpu",
        index=index, bit=bit, count=count),
    st.integers(0, 17),  # 16/17 are invalid -> scalar IndexError path
    st.integers(0, 31), st.integers(0, 40))
pc_flip = st.builds(
    lambda bit, count: FaultSpec(
        kind="cpu_pc_flip", target="cpu", bit=bit, count=count),
    st.integers(0, 11), st.integers(0, 40))
flag_flip = st.builds(
    lambda flag, count: FaultSpec(
        kind="cpu_flag_flip", target="cpu", flag=flag, count=count),
    st.sampled_from(["irq_enabled", "irq_pending", "halted"]),
    st.integers(0, 40))

fault_st = st.one_of(st.none(), reg_flip, pc_flip, flag_flip)

#: checkpoint spacings the differential runs golden at: every
#: retirement, an odd stride, and the default
spacing_st = st.sampled_from([1, 3, batch_mod.CHECKPOINT_SPACING])
#: a budget small enough that spacing 1 is not widened (at most 127
#: chunks)
FINE = 100


def drive_scalar(cpu, budget, steps=0):
    """The driver of both sides of every comparison: ``run_block``
    until halt, budget, or error — the system's engines on a forked
    cell, the reference's ``step()`` loop on the from-zero run."""
    try:
        while steps < budget and not cpu.halted:
            done, _cycles, access = cpu.run_block(budget - steps)
            assert access is None
            steps += done
        return None
    except (CpuError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_reference(image, spec, budget=BUDGET):
    """The from-zero reference: the fault as a retirement observer (the
    independent reference of tests/fault/test_trigger_reference.py) on
    the reference interpreter."""
    cpu = make_ref(image)
    if spec is not None:
        cpu.observers.append(ObserverSaboteur(cpu, spec))
    return drive_scalar(cpu, budget), snapshot(cpu)


def golden_run(image, budget=BUDGET, spacing=batch_mod.CHECKPOINT_SPACING):
    """A golden run of ``image``, checkpointed every ``spacing``
    retirements."""
    batch = BatchCpu(Isa(), image)
    with mock.patch.object(batch_mod, "CHECKPOINT_SPACING", spacing):
        batch.run(budget)
    return batch


def fork_for(batch, spec, budget=BUDGET):
    """The copy a cell starts from: the latest checkpoint before its
    fault is due, or golden's end for a fault-free cell."""
    return batch.fork_at(budget if spec is None else max(1, spec.count) - 1)


def run_forked(batch, spec, budget=BUDGET):
    """One cell: its copy of golden, the fault re-armed as the
    reference observer with the copy's retirements counted."""
    cpu = fork_for(batch, spec, budget)
    steps = cpu.instr_count
    if spec is not None:
        saboteur = ObserverSaboteur(cpu, spec)
        saboteur.retired = steps
        cpu.observers.append(saboteur)
    return drive_scalar(cpu, budget, steps), snapshot(cpu)


def assert_forks_match_reference(image, specs, budget=BUDGET,
                                 spacing=batch_mod.CHECKPOINT_SPACING):
    batch = golden_run(image, budget, spacing)
    for spec in specs:
        assert run_forked(batch, spec, budget) == \
            run_reference(image, spec, budget), spec
    return batch


def retirements(batch):
    return [cpu.instr_count for cpu in batch.checkpoints]


# ----------------------------------------------------------------------
# the core differential: random programs × random faults
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(max_examples=50, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=24),
        specs=st.lists(fault_st, min_size=1, max_size=12),
        illegal_at=st.one_of(st.none(), st.integers(0, 23)),
        spacing=spacing_st,
    )
    def test_random_programs_random_faults(self, instrs, specs, illegal_at,
                                           spacing):
        image = program_words(instrs, illegal_at)
        assert_forks_match_reference(image, specs, spacing=spacing)

    @settings(max_examples=20, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=16),
        specs=st.lists(fault_st, min_size=1, max_size=6),
        budget=st.integers(1, 60),
        spacing=spacing_st,
    )
    def test_budget_edges(self, instrs, specs, budget, spacing):
        """Tiny budgets: golden stops mid-program, down to one step."""
        image = program_words(instrs)
        assert_forks_match_reference(image, specs, budget, spacing)

    def test_single_lane(self):
        """One fault-free cell: a copy of golden's end."""
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=3)] * 4)
        batch = assert_forks_match_reference(image, [None])
        assert retirements(batch) == [0, 5]


# ----------------------------------------------------------------------
# a hot loop: golden runs it translated, cells fork from inside it
# ----------------------------------------------------------------------
LOOP_ASM = """
        li   r1, {n}
        li   r2, 0
loop:   mul  r3, r1, r1
        add  r2, r2, r3
        sw   r2, 0x200(r0)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
"""


def loop_image(n=30):
    return dict(assemble(LOOP_ASM.format(n=n)).image)


class TestHotBlocks:
    def test_blocks_engage_and_match(self):
        image = loop_image()
        specs = [None] + [
            FaultSpec(kind="cpu_reg_flip", target="cpu",
                      index=2, bit=b, count=40 + 7 * b)
            for b in range(6)
        ] + [FaultSpec(kind="cpu_reg_flip", target="cpu",
                       index=1, bit=0, count=130)]
        batch = assert_forks_match_reference(image, specs)
        # golden ran its 64-retirement chunks translated, and keeps a
        # copy after each; the last is its halt at retirement 153
        assert batch._golden.translator is not None
        assert retirements(batch) == [0, 64, 128, 153]
        assert fork_for(batch, specs[-1]).instr_count == 128

    @settings(max_examples=25, **COMMON)
    @given(specs=st.lists(fault_st, min_size=1, max_size=8),
           spacing=spacing_st)
    def test_hot_loop_random_faults(self, specs, spacing):
        assert_forks_match_reference(loop_image(), specs, spacing=spacing)


# ----------------------------------------------------------------------
# IRQs injected mid-run via flag flips (handler present and absent)
# ----------------------------------------------------------------------
IRQ_ASM = """
        li   r1, 25
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        sw   r2, 0x200(r0)
        halt
        .org 0x40
        addi r13, r13, 1      ; handler: count entries
        reti
"""


class TestInterrupts:
    @settings(max_examples=40, **COMMON)
    @given(
        count=st.integers(1, 90),
        flag=st.sampled_from(["irq_pending", "irq_enabled"]),
        spacing=spacing_st,
    )
    def test_flag_flip_irqs_identical(self, count, flag, spacing):
        """A pending-flag flip fires an IRQ at an arbitrary retirement
        — including mid-way through a hot block's scalar trace — and
        the handler returns via RETI; every cell must match scalar."""
        image = dict(assemble(IRQ_ASM).image)
        specs = [
            None,
            FaultSpec(kind="cpu_flag_flip", target="cpu",
                      flag=flag, count=count),
            FaultSpec(kind="cpu_flag_flip", target="cpu",
                      flag="irq_pending", count=count + 1),
        ]
        assert_forks_match_reference(image, specs, spacing=spacing)

    def test_irq_without_handler_is_a_crash_everywhere(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)] * 30)
        spec = FaultSpec(kind="cpu_flag_flip", target="cpu",
                         flag="irq_pending", count=5)
        assert_forks_match_reference(image, [spec, None], FINE, spacing=1)


# ----------------------------------------------------------------------
# self-modifying code: golden and the copies rewrite their own code
# ----------------------------------------------------------------------
SMC_ASM = """
        li   r1, 0x7F000000   ; encodes HALT (li expands to 2 words)
        li   r2, 4
        sw   r1, 5(r0)        ; overwrite the second addi with halt
        addi r3, r3, 1
        addi r3, r3, 1        ; addr 5: replaced before it executes
        halt
"""


class TestSelfModifyingCode:
    def test_store_to_code_drains_and_matches(self):
        image = dict(assemble(SMC_ASM).image)
        specs = [None, None,
                 FaultSpec(kind="cpu_reg_flip", target="cpu",
                           index=3, bit=0, count=2)]
        batch = assert_forks_match_reference(image, specs, FINE,
                                             spacing=1)
        # the faulted cell forks after golden's first retirement, before
        # golden's store rewrites address 5; golden's end sees it
        # rewritten
        faulted = fork_for(batch, specs[2], FINE)
        assert faulted.instr_count == 1
        assert faulted.memory.ram[5] == image[5]
        end = fork_for(batch, None, FINE)
        assert end.halted and end.memory.ram[5] == 0x7F000000

    @settings(max_examples=20, **COMMON)
    @given(
        target=st.integers(0, 8),
        word=st.sampled_from([0x7F000000, 0x20110001, 0x1F000000]),
        spacing=spacing_st,
    )
    def test_random_code_stores(self, target, word, spacing):
        """Store halt / addi / an illegal word over each program
        address in turn; every cell must match scalar."""
        instrs = [Instruction(0x27, rd=1, imm=word >> 16),  # LUI hi
                  Instruction(0x22, rd=1, rs1=1, imm=word & 0xFFFF),
                  Instruction(0x31, rd=1, rs1=0, imm=target)]
        instrs += [Instruction(0x20, rd=2, rs1=2, imm=1)] * 5
        image = program_words(instrs)
        specs = [None, FaultSpec(kind="cpu_reg_flip", target="cpu",
                                 index=2, bit=1, count=5)]
        assert_forks_match_reference(image, specs, spacing=spacing)


# ----------------------------------------------------------------------
# golden ends at once: every copy replays its end
# ----------------------------------------------------------------------
class TestDivergence:
    def test_all_lanes_diverge_on_first_instruction(self):
        """Golden faults on a zero divisor at pc=0, so it keeps its
        initial state twice, and every copy replays the error."""
        image = program_words([Instruction(0x04, rd=1, rs1=2, rs2=3)])
        batch = assert_forks_match_reference(image, [None] * 3)
        assert retirements(batch) == [0, 0]

    def test_all_lanes_diverge_on_illegal_word(self):
        image = {0: 0x1F000000}
        assert_forks_match_reference(image, [None] * 3)

    def test_all_lanes_diverge_on_unprogrammed_fetch(self):
        image = program_words([Instruction(0x50, imm=9)])  # j 9 -> hole
        assert_forks_match_reference(image, [None] * 3)


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApi:
    def test_run_is_single_shot(self):
        image = program_words([Instruction(0x20, rd=1, rs1=1, imm=1)])
        batch = BatchCpu(Isa(), image)
        batch.run(BUDGET)
        with pytest.raises(RuntimeError):
            batch.run(BUDGET)

    @pytest.mark.parametrize("budget", [float("nan"), 0, -5, 2.5, True])
    def test_budget_must_be_an_int_of_at_least_one(self, budget):
        """A NaN budget used to retire nothing per call and never end."""
        batch = BatchCpu(Isa(), program_words([]))
        with pytest.raises(ValueError, match="budget"):
            batch.run(budget)
        assert batch.checkpoints == []

    def test_fork_at_needs_a_run_and_a_retirement(self):
        batch = BatchCpu(Isa(), program_words([]))
        with pytest.raises(RuntimeError):
            batch.fork_at(0)
        batch.run(BUDGET)
        with pytest.raises(ValueError, match="retired"):
            batch.fork_at(-1)

    def test_a_long_budget_widens_the_spacing(self):
        """A program that never halts keeps at most 128 checkpoints:
        at budget 20,000 they are 158 retirements apart."""
        image = dict(assemble("spin: j spin").image)
        batch = golden_run(image, budget=20_000)
        counts = retirements(batch)
        assert len(counts) == 128
        assert counts == [min(158 * i, 20_000) for i in range(128)]
        assert fork_for(batch, None, 20_000).instr_count == 20_000


# ----------------------------------------------------------------------
# fork facts, every retirement a checkpoint
# ----------------------------------------------------------------------
COUNTER_ASM = """
        addi r1, r0, 0
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        halt
"""
#: the retirement that halts COUNTER_ASM
HALT_AT = 6


def counter_image():
    return dict(assemble(COUNTER_ASM).image)


def reg_flip_at(count, index=1, bit=3):
    return FaultSpec(kind="cpu_reg_flip", target="cpu", index=index,
                     bit=bit, count=count)


class TestForks:
    def test_a_faulted_lane_forks_just_before_its_fault(self):
        specs = [reg_flip_at(count) for count in (0, 1, 2, 5)]
        batch = assert_forks_match_reference(counter_image(), specs, FINE,
                                             spacing=1)
        assert retirements(batch) == list(range(HALT_AT + 1))
        for spec in specs:
            cpu = fork_for(batch, spec, FINE)
            assert cpu.instr_count == max(1, spec.count) - 1
            assert not cpu.halted

    def test_lanes_with_the_same_due_count_get_their_own_copies(self):
        specs = [reg_flip_at(3, bit=b) for b in range(4)] + [
            FaultSpec(kind="cpu_pc_flip", target="cpu", bit=0, count=3)]
        batch = golden_run(counter_image(), FINE, spacing=1)
        before = snapshot(batch.fork_at(2))
        cpus = [fork_for(batch, spec, FINE) for spec in specs]
        assert len({id(cpu) for cpu in cpus}) == len(cpus)
        assert len({id(cpu.memory.ram) for cpu in cpus}) == len(cpus)
        assert all(cpu.instr_count == 2 for cpu in cpus)
        for spec in specs:
            assert run_forked(batch, spec, FINE) == \
                run_reference(counter_image(), spec, FINE)
        # finishing the copies changed no checkpoint
        assert snapshot(batch.fork_at(2)) == before

    def test_halted_flip_due_at_goldens_own_halt(self):
        """The cell forks one retirement before golden's halt; a fresh
        run un-halts at the halt and retires it once more."""
        spec = FaultSpec(kind="cpu_flag_flip", target="cpu",
                         flag="halted", count=HALT_AT)
        batch = golden_run(counter_image(), FINE, spacing=1)
        cpu = fork_for(batch, spec, FINE)
        assert cpu.instr_count == HALT_AT - 1 and not cpu.halted
        assert run_forked(batch, spec, FINE) == \
            run_reference(counter_image(), spec, FINE)
        _error, state = run_forked(batch, spec, FINE)
        assert state["halted"] and state["instr_count"] == HALT_AT + 1

    def test_a_fault_due_past_the_halt_leaves_at_goldens_end(self):
        specs = [None, reg_flip_at(HALT_AT + 1), reg_flip_at(HALT_AT + 30)]
        batch = assert_forks_match_reference(counter_image(), specs, FINE,
                                             spacing=1)
        for spec in specs:
            cpu = fork_for(batch, spec, FINE)
            assert cpu.halted and cpu.instr_count == HALT_AT
        golden = run_forked(batch, None, FINE)
        assert all(run_forked(batch, spec, FINE) == golden
                   for spec in specs)

    @settings(max_examples=40, **COMMON)
    @given(instrs=halting_programs(), past=st.integers(1, 30),
           index=st.integers(1, 15), bit=st.integers(0, 31),
           spacing=spacing_st)
    def test_faults_at_and_past_the_halt_of_random_programs(
            self, instrs, past, index, bit, spacing):
        """Programs that halt: faults due at golden's halt retirement
        fork just before it (a halted flip runs the halt once more),
        and faults due past it leave at golden's end."""
        image = program_words(instrs)
        batch = golden_run(image, spacing=spacing)
        end = batch.checkpoints[-1]
        assert end.halted
        halt_at = end.instr_count
        at_halt = [
            FaultSpec(kind="cpu_flag_flip", target="cpu", flag="halted",
                      count=halt_at),
            reg_flip_at(halt_at, index=index, bit=bit),
            FaultSpec(kind="cpu_pc_flip", target="cpu", bit=bit % 12,
                      count=halt_at),
        ]
        past_halt = [
            reg_flip_at(halt_at + past, index=index, bit=bit),
            FaultSpec(kind="cpu_flag_flip", target="cpu", flag="halted",
                      count=halt_at + past),
        ]
        assert_forks_match_reference(image, at_halt + past_halt,
                                     spacing=spacing)
        for spec in at_halt:
            assert fork_for(batch, spec).instr_count < halt_at
        for spec in past_halt:
            cpu = fork_for(batch, spec)
            assert cpu.halted and cpu.instr_count == halt_at

    def test_a_budget_smaller_than_a_pause(self):
        specs = [reg_flip_at(2), reg_flip_at(5), None]
        batch = assert_forks_match_reference(counter_image(), specs, 3,
                                             spacing=1)
        assert retirements(batch) == [0, 1, 2, 3]
        assert [fork_for(batch, spec, 3).instr_count
                for spec in specs] == [1, 3, 3]

    def test_golden_raising_before_a_pause(self):
        """Golden divides by zero at retirement 3: cells due later fork
        from golden's state there and replay the same error."""
        image = program_words([
            Instruction(0x20, rd=1, rs1=1, imm=1),
            Instruction(0x20, rd=1, rs1=1, imm=1),
            Instruction(0x04, rd=2, rs1=1, rs2=3),  # r3 == 0
            Instruction(0x20, rd=1, rs1=1, imm=1),
        ])
        specs = [reg_flip_at(2, index=3, bit=0), reg_flip_at(9), None]
        batch = assert_forks_match_reference(image, specs, FINE,
                                             spacing=1)
        # one copy after each retirement, and golden's state after the
        # error
        assert retirements(batch) == [0, 1, 2, 2]
        assert [fork_for(batch, spec, FINE).instr_count
                for spec in specs] == [1, 2, 2]
        assert run_forked(batch, specs[0], FINE)[0] is None  # r3 flipped
        assert run_forked(batch, None, FINE)[0].startswith("CpuError")
