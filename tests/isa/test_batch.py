"""Differential property tests for the fork engine.

:class:`repro.isa.BatchCpu` claims every lane, forked from one golden
run and finished on the scalar tiers, is *byte-identical* to a fresh
scalar run of the same program with the same fault armed (DESIGN §14:
the engine may only reorganize work, never change it).  Hypothesis
drives random programs × random fault lanes — register/pc/flag flips,
mid-run IRQs, self-modifying stores, division faults, illegal words,
faults due past golden's halt — through the engine and a scalar
reference, and compares complete snapshots *and* error strings lane by
lane.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fault import FaultSpec
from repro.isa import BatchCpu
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import Instruction, Isa, Opcode

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    instr_st,
    make_cpu,
    program_words,
    snapshot,
)

regs_st = st.integers(0, 15)

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


def drive_scalar(cpu, budget, steps=0):
    """The scalar reference/continuation driver: ``run_block`` until
    halt, budget, or error.  Shared by both sides of every comparison,
    so a batch lane's continuation is structurally the scalar run."""
    try:
        while steps < budget and not cpu.halted:
            done, _cycles, access = cpu.run_block(budget - steps)
            assert access is None
            steps += done
        return None
    except (CpuError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_scalar_lane(image, spec, budget=BUDGET, poke=None):
    """The scalar reference: the fault as a retirement observer (the
    independent reference of tests/fault/test_trigger_reference.py)."""
    cpu = make_cpu(image)
    if poke is not None:
        addr, value = poke
        cpu.memory.ram[addr] = value
    if spec is not None:
        cpu.observers.append(ObserverSaboteur(cpu, spec))
    return drive_scalar(cpu, budget), snapshot(cpu)


def finish_lane(exit, budget=BUDGET):
    """A lane's scalar continuation, its unfired fault re-armed as the
    same reference observer with ``exit.steps`` retirements counted."""
    cpu = exit.cpu
    if exit.spec is not None:
        saboteur = ObserverSaboteur(cpu, exit.spec)
        saboteur.retired = exit.steps
        cpu.observers.append(saboteur)
    return drive_scalar(cpu, budget, exit.steps), snapshot(cpu)


def assert_batch_matches_scalar(image, specs, budget=BUDGET):
    batch = BatchCpu(Isa(), image, n_lanes=len(specs))
    for lane, spec in enumerate(specs):
        if spec is not None:
            batch.arm(lane, spec)
    exits = batch.run(budget)
    assert sorted(e.lane for e in exits) == list(range(len(specs)))
    for exit in exits:
        want = run_scalar_lane(image, specs[exit.lane], budget)
        got = finish_lane(exit, budget)
        assert got == want, (
            f"lane {exit.lane} ({specs[exit.lane]}, "
            f"drained as {exit.reason!r}) diverged from scalar"
        )
    return batch.stats


# ----------------------------------------------------------------------
# the core differential: random programs × random fault lanes
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(max_examples=50, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=24),
        specs=st.lists(fault_st, min_size=1, max_size=12),
        illegal_at=st.one_of(st.none(), st.integers(0, 23)),
    )
    def test_random_programs_random_faults(self, instrs, specs, illegal_at):
        image = program_words(instrs, illegal_at)
        assert_batch_matches_scalar(image, specs)

    @settings(max_examples=20, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=16),
        specs=st.lists(fault_st, min_size=1, max_size=6),
        budget=st.integers(0, 60),
    )
    def test_budget_edges(self, instrs, specs, budget):
        """Tiny budgets: lanes exit mid-program, including budget=0."""
        image = program_words(instrs)
        assert_batch_matches_scalar(image, specs, budget)

    def test_single_lane(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=3)] * 4)
        stats = assert_batch_matches_scalar(image, [None])
        assert stats.lanes == 1


# ----------------------------------------------------------------------
# a hot loop: golden runs it translated, lanes fork from inside it
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
        ]
        stats = assert_batch_matches_scalar(image, specs)
        # every faulted lane forked at its own pause; the fault-free one
        # left at golden's halt
        assert stats.reasons == {"fork": 6, "halt": 1}
        assert stats.lane_instrs == sum(39 + 7 * b for b in range(6)) \
            + stats.steps

    @settings(max_examples=25, **COMMON)
    @given(specs=st.lists(fault_st, min_size=1, max_size=8))
    def test_hot_loop_random_faults(self, specs):
        assert_batch_matches_scalar(loop_image(), specs)


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
    )
    def test_flag_flip_irqs_identical(self, count, flag):
        """A pending-flag flip fires an IRQ at an arbitrary retirement
        — including mid-way through a hot block's scalar trace — and
        the handler returns via RETI; every lane must match scalar."""
        image = dict(assemble(IRQ_ASM).image)
        specs = [
            None,
            FaultSpec(kind="cpu_flag_flip", target="cpu",
                      flag=flag, count=count),
            FaultSpec(kind="cpu_flag_flip", target="cpu",
                      flag="irq_pending", count=count + 1),
        ]
        assert_batch_matches_scalar(image, specs)

    def test_irq_without_handler_is_a_crash_everywhere(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)] * 30)
        spec = FaultSpec(kind="cpu_flag_flip", target="cpu",
                         flag="irq_pending", count=5)
        assert_batch_matches_scalar(image, [spec, None])


# ----------------------------------------------------------------------
# self-modifying code: golden and the lanes rewrite their own code
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
        batch = BatchCpu(Isa(), image, n_lanes=len(specs))
        for lane, spec in enumerate(specs):
            if spec is not None:
                batch.arm(lane, spec)
        exits = batch.run(BUDGET)
        # the faulted lane forks after golden's first retirement, before
        # golden's store rewrites address 5; the others see it rewritten
        faulted = exits[2]
        assert faulted.reason == "fork"
        assert faulted.steps == faulted.cpu.instr_count == 1
        assert faulted.cpu.memory.ram[5] == image[5]
        assert exits[0].reason == "halt"
        assert exits[0].cpu.memory.ram[5] == 0x7F000000
        for exit in exits:
            assert finish_lane(exit) == run_scalar_lane(
                image, specs[exit.lane])

    @settings(max_examples=20, **COMMON)
    @given(
        target=st.integers(0, 8),
        word=st.sampled_from([0x7F000000, 0x20110001, 0x1F000000]),
    )
    def test_random_code_stores(self, target, word):
        """Store halt / addi / an illegal word over each program
        address in turn; every lane must match scalar."""
        instrs = [Instruction(0x27, rd=1, imm=word >> 16),  # LUI hi
                  Instruction(0x22, rd=1, rs1=1, imm=word & 0xFFFF),
                  Instruction(0x31, rd=1, rs1=0, imm=target)]
        instrs += [Instruction(0x20, rd=2, rs1=2, imm=1)] * 5
        image = program_words(instrs)
        assert_batch_matches_scalar(image, [None, None])


# ----------------------------------------------------------------------
# input sweeps and degenerate batches
# ----------------------------------------------------------------------
DIVERGE_ASM = """
        lw   r1, 0x100(r0)    ; per-lane seed
        andi r2, r1, 1
        beq  r2, r0, even
        addi r3, r0, 111
        j    out
even:   addi r3, r0, 222
out:    sw   r3, 0x200(r0)
        lw   r4, 0x100(r0)
        div  r5, r3, r4       ; faults when the lane's seed is 0
        halt
"""


class TestDivergence:
    @settings(max_examples=30, **COMMON)
    @given(seeds=st.lists(st.integers(0, 7), min_size=1, max_size=9))
    def test_seed_lane_sweep_matches_scalar(self, seeds):
        """Input sweep: lanes take a data-dependent branch and some
        divide by zero — each must equal a scalar run with the seed
        poked into the image."""
        image = dict(assemble(DIVERGE_ASM).image)
        image.setdefault(0x100, 0)
        batch = BatchCpu(Isa(), image, n_lanes=len(seeds))
        for lane, seed in enumerate(seeds):
            batch.seed_lane(lane, 0x100, seed)
        exits = batch.run(BUDGET)
        assert sorted(e.lane for e in exits) == list(range(len(seeds)))
        for exit in exits:
            want = run_scalar_lane(image, None,
                                   poke=(0x100, seeds[exit.lane]))
            assert finish_lane(exit) == want

    def test_all_lanes_diverge_on_first_instruction(self):
        """Degenerate batch: golden faults on a zero divisor at pc=0,
        so every lane leaves with golden's state before a single
        instruction retires."""
        image = program_words([Instruction(0x04, rd=1, rs1=2, rs2=3)])
        stats = assert_batch_matches_scalar(image, [None] * 5)
        assert stats.steps == 0
        assert stats.lane_instrs == 0

    def test_all_lanes_diverge_on_illegal_word(self):
        image = {0: 0x1F000000}
        assert_batch_matches_scalar(image, [None] * 3)

    def test_all_lanes_diverge_on_unprogrammed_fetch(self):
        image = program_words([Instruction(0x50, imm=9)])  # j 9 -> hole
        assert_batch_matches_scalar(image, [None] * 3)


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApi:
    def test_arm_rejects_non_cpu_kinds(self):
        batch = BatchCpu(Isa(), program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)]), n_lanes=1)
        with pytest.raises(ValueError):
            batch.arm(0, FaultSpec(kind="signal_flip", target="enable"))

    def test_arm_after_run_rejected(self):
        image = program_words([Instruction(0x20, rd=1, rs1=1, imm=1)])
        batch = BatchCpu(Isa(), image, n_lanes=2)
        batch.run(BUDGET)
        with pytest.raises(RuntimeError):
            batch.arm(0, FaultSpec(kind="cpu_reg_flip", target="cpu",
                                   index=1, bit=0, count=1))

    def test_lane_setup_is_validated(self):
        image = program_words([Instruction(0x20, rd=1, rs1=1, imm=1)])
        with pytest.raises(ValueError):
            BatchCpu(Isa(), image, n_lanes=0)
        batch = BatchCpu(Isa(), image, n_lanes=2)
        spec = FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                         bit=0, count=1)
        with pytest.raises(ValueError):
            batch.arm(2, spec)
        with pytest.raises(ValueError):
            batch.seed_lane(-1, 0x100, 1)
        batch.arm(0, spec)
        with pytest.raises(ValueError):
            batch.arm(0, spec)
        batch.run(BUDGET)
        with pytest.raises(RuntimeError):
            batch.seed_lane(1, 0x100, 1)

    def test_run_is_single_shot(self):
        image = program_words([Instruction(0x20, rd=1, rs1=1, imm=1)])
        batch = BatchCpu(Isa(), image, n_lanes=1)
        batch.run(BUDGET)
        with pytest.raises(RuntimeError):
            batch.run(BUDGET)


# ----------------------------------------------------------------------
# fork facts: pause points, and lanes that leave at golden's end
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


def run_batch(image, specs, budget=BUDGET):
    batch = BatchCpu(Isa(), image, n_lanes=len(specs))
    for lane, spec in enumerate(specs):
        if spec is not None:
            batch.arm(lane, spec)
    return batch.run(budget), batch.stats


def reg_flip_at(count, index=1, bit=3):
    return FaultSpec(kind="cpu_reg_flip", target="cpu", index=index,
                     bit=bit, count=count)


class TestForks:
    def test_a_faulted_lane_forks_just_before_its_fault(self):
        specs = [reg_flip_at(count) for count in (0, 1, 2, 5)]
        exits, stats = run_batch(counter_image(), specs)
        for exit, spec in zip(exits, specs):
            assert exit.reason == "fork" and exit.spec is spec
            assert exit.steps == exit.cpu.instr_count \
                == max(1, spec.count) - 1
            assert not exit.cpu.halted
        assert stats.drained() == 4 and stats.lane_instrs == 0 + 0 + 1 + 4
        assert_batch_matches_scalar(counter_image(), specs)

    def test_lanes_with_the_same_due_count_get_their_own_copies(self):
        specs = [reg_flip_at(3, bit=b) for b in range(4)] + [
            FaultSpec(kind="cpu_pc_flip", target="cpu", bit=0, count=3)]
        exits, stats = run_batch(counter_image(), specs)
        cpus = [exit.cpu for exit in exits]
        assert len({id(cpu) for cpu in cpus}) == len(cpus)
        assert len({id(cpu.memory.ram) for cpu in cpus}) == len(cpus)
        assert all(exit.steps == 2 for exit in exits)
        # golden ran once up to the shared pause
        assert stats.dispatches == 1 and stats.steps == 2
        assert_batch_matches_scalar(counter_image(), specs)

    def test_halted_flip_due_at_goldens_own_halt(self):
        """The lane forks one retirement before golden's halt; a fresh
        run un-halts at the halt and retires it once more."""
        spec = FaultSpec(kind="cpu_flag_flip", target="cpu",
                         flag="halted", count=HALT_AT)
        (exit,), _stats = run_batch(counter_image(), [spec])
        assert exit.reason == "fork" and exit.steps == HALT_AT - 1
        cpu = exit.cpu
        assert finish_lane(exit) == run_scalar_lane(counter_image(), spec)
        assert cpu.halted and cpu.instr_count == HALT_AT + 1

    def test_a_fault_due_past_the_halt_leaves_at_goldens_end(self):
        specs = [None, reg_flip_at(HALT_AT + 1), reg_flip_at(HALT_AT + 30)]
        exits, stats = run_batch(counter_image(), specs)
        assert [exit.reason for exit in exits] == ["halt"] * 3
        assert all(exit.cpu.halted and exit.steps == HALT_AT
                   for exit in exits)
        assert stats.drained() == 0 and stats.steps == HALT_AT
        golden = finish_lane(exits[0])
        for exit, spec in zip(exits, specs):
            assert finish_lane(exit) == golden
            assert finish_lane(exit) == run_scalar_lane(counter_image(),
                                                        spec)

    def test_a_budget_smaller_than_a_pause(self):
        specs = [reg_flip_at(2), reg_flip_at(5), None]
        exits, stats = run_batch(counter_image(), specs, budget=3)
        assert [exit.reason for exit in exits] == \
            ["fork", "budget", "budget"]
        assert [exit.steps for exit in exits] == [1, 3, 3]
        assert stats.steps == 3
        assert_batch_matches_scalar(counter_image(), specs, budget=3)

    def test_golden_raising_before_a_pause(self):
        """Golden divides by zero at retirement 3: lanes due later leave
        with golden's state there and replay the same error."""
        image = program_words([
            Instruction(0x20, rd=1, rs1=1, imm=1),
            Instruction(0x20, rd=1, rs1=1, imm=1),
            Instruction(0x04, rd=2, rs1=1, rs2=3),  # r3 == 0
            Instruction(0x20, rd=1, rs1=1, imm=1),
        ])
        specs = [reg_flip_at(2, index=3, bit=0), reg_flip_at(9), None]
        exits, stats = run_batch(image, specs)
        assert [exit.reason for exit in exits] == \
            ["fork", "error", "error"]
        assert exits[1].steps == exits[1].cpu.instr_count == 2
        assert stats.reasons == {"fork": 1, "error": 2}
        for exit in exits:
            assert finish_lane(exit) == run_scalar_lane(
                image, specs[exit.lane])
        assert finish_lane(exits[0])[0] is None  # r3 flipped: no error

    def test_a_seeded_lane_forks_from_the_initial_state(self):
        image = dict(assemble(DIVERGE_ASM).image)
        image.setdefault(0x100, 0)
        batch = BatchCpu(Isa(), image, n_lanes=3)
        batch.seed_lane(0, 0x100, 5)
        batch.arm(1, reg_flip_at(4))
        exits = batch.run(BUDGET)
        assert exits[0].reason == "fork" and exits[0].steps == 0
        assert exits[0].cpu.memory.ram[0x100] == 5
        assert exits[1].cpu.memory.ram[0x100] == 0
        assert exits[2].reason == "error"  # golden divides by seed 0
