"""Differential property tests for the block-translation tier.

The translated tier (``repro.isa.translate``) claims observable
identity with the interpreted ``run_block`` operand-cache loop and
with the reference interpreter ``ReferenceCpu``
(``tests/isa/r32_harness.py``, which shares no execution code with
``repro.isa.cpu``) under the DESIGN §13 equivalence contract.
Hypothesis drives ≥200 random programs per property through the
reference and both engines and compares complete architectural
snapshots: wild jumps, illegal words, division
faults, device IRQs raised mid-block, fault bit-flips, stores into
already-translated code, ISAs built with a custom op and a retimed
opcode, and observer attach/detach cycles that must re-engage the
translated tier.  The
process-wide block cache is checked on its own: a block compiled on one
CPU runs on another without compiling, only when everything its code
bakes in matches, and still under the reusing CPU's write-watch.

Every property here must pass under ``PYTHONHASHSEED`` 0 and 1 (the
suite is derandomized, so CI runs are reproducible).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import FaultSpec
from repro.fault.inject import FaultInjector, System, arm_cpu_fault
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory
from repro.isa import translate
from repro.isa.instructions import CustomOp, Instruction, Isa, Opcode
from repro.isa.translate import BlockTranslator, install

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    ENC,
    ReferenceCpu,
    chunks_st,
    init_regs,
    instr_st,
    make_cpu,
    make_ext_cpu,
    make_irq_cpu,
    make_ref,
    program_words,
    run_fast,
    run_ref,
    snapshot,
)

pytestmark = pytest.mark.slow  # exhaustive: the smoke lane skips it

hot_st = st.sampled_from([1, 2, 4])  # 1 = translate eagerly


def make_trans_cpu(image, isa=None, hot=1, regs=None):
    cpu = make_cpu(image, isa, regs=regs)
    install(cpu, hot_threshold=hot)
    return cpu


@pytest.fixture
def empty_cache(monkeypatch):
    """Start from an empty process-wide block cache, so compile counts
    do not depend on which tests ran before (restored afterwards)."""
    monkeypatch.setattr(translate, "_SHARED", {})


def forbid_untranslated(cpu):
    """After this, only the translated tier may execute blocks.

    Strict: even the budget-remainder delegation to the interpreted
    tier trips it, so use only with budgets that cover whole blocks.
    """

    def boom(*args):
        raise AssertionError("untranslated tier used")

    cpu._observed_step = boom
    cpu._run_block_fast = boom


def forbid_slow(cpu):
    """After this, the observed step may never run.  The translated
    tier may still delegate budget remainders to the interpreted
    tier — that is part of its contract."""

    def boom(*args):
        raise AssertionError("observed step taken with no observers")

    cpu._observed_step = boom


def test_the_guards_fire_on_the_paths_they_forbid():
    image = program_words([Instruction(0x20, rd=1, rs1=1, imm=1)] * 6)
    cpu = make_trans_cpu(image)
    forbid_slow(cpu)
    cpu.observers.append(lambda pc, instr: None)
    with pytest.raises(AssertionError, match="observed step"):
        cpu.run_block(50)
    cpu = make_trans_cpu(image)
    forbid_untranslated(cpu)
    with pytest.raises(AssertionError, match="untranslated"):
        cpu.run_block(3)  # shorter than the block: interpreted
    cpu.observers.append(lambda pc, instr: None)
    with pytest.raises(AssertionError, match="untranslated"):
        cpu.run_block(50)


# ----------------------------------------------------------------------
# the core differential: the reference and both engines
# ----------------------------------------------------------------------
class TestTranslateDifferential:
    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=20),
        chunks=chunks_st,
        illegal_at=st.one_of(st.none(), st.integers(0, 19)),
        hot=hot_st,
        regs=init_regs,
    )
    def test_translate_matches_both_tiers(
        self, instrs, chunks, illegal_at, hot, regs
    ):
        image = program_words(instrs, illegal_at)
        ref = make_ref(image, regs=regs)
        fast = make_cpu(image, regs=regs)
        trans = make_trans_cpu(image, hot=hot, regs=regs)
        err_ref = run_ref(ref)
        err_fast = run_fast(fast, tuple(chunks))
        err_trans = run_fast(trans, tuple(chunks))
        assert err_ref == err_fast == err_trans
        state = snapshot(ref)
        assert state == snapshot(fast)
        assert state == snapshot(trans)

    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=20),
        hot=hot_st,
        regs=init_regs,
    )
    def test_warm_cache_rerun_identical(self, instrs, hot, regs):
        """A second run over a warm block cache retires identically to
        the first run from a cold cache (the cache is a pure memo)."""
        image = program_words(instrs)
        cold = make_trans_cpu(image, hot=hot, regs=regs)
        err_cold = run_fast(cold, (BUDGET,))
        state_cold = snapshot(cold)

        warm = make_trans_cpu(image, hot=hot, regs=regs)
        run_fast(warm, (7,))
        translator = warm.translator
        # re-run from reset state on the *same* translator/cache
        warm.__init__(warm.isa, warm.memory, pc=0)
        warm.regs[:] = regs
        warm.memory.load_image(dict(image))
        warm.memory.loads = warm.memory.stores = 0
        warm.translator = translator
        translator.cpu = warm
        err_warm = run_fast(warm, (BUDGET,))
        assert err_cold == err_warm
        state_warm = snapshot(warm)
        state_warm["ram"] = state_cold["ram"]  # first run may have SMC'd
        state_warm["loads"] = state_cold["loads"]
        state_warm["stores"] = state_cold["stores"]
        if state_cold["ram"] == dict(image) or err_cold is not None:
            return  # self-modified or errored: registers may differ too
        assert state_cold == state_warm


# ----------------------------------------------------------------------
# device IRQs raised mid-block
# ----------------------------------------------------------------------
class TestTranslateInterrupts:
    @settings(max_examples=200, **COMMON)
    @given(
        limit=st.integers(1, 30),
        modulus=st.integers(1, 5),
        chunks=chunks_st,
        hot=hot_st,
    )
    def test_device_irqs_identical(self, limit, modulus, chunks, hot):
        ref, log_ref = make_irq_cpu(limit, modulus, ReferenceCpu)
        trans, log_trans = make_irq_cpu(limit, modulus)
        install(trans, hot_threshold=hot)
        budget = 20 * limit + 50
        assert run_ref(ref, budget) == run_fast(
            trans, tuple(chunks), budget
        )
        assert snapshot(ref) == snapshot(trans)
        assert log_ref == log_trans
        if limit >= modulus:
            assert trans.irq_count > 0
        if hot == 1:
            assert trans.translator.translations > 0


# ----------------------------------------------------------------------
# fault bit-flips, with the injector disarmed mid-run
# ----------------------------------------------------------------------
class TestTranslateFaults:
    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=20),
        chunks=chunks_st,
        reg=st.integers(0, 15),
        bit=st.integers(0, 31),
        count=st.integers(1, 40),
        hot=hot_st,
        regs=init_regs,
    )
    def test_fault_bitflips_identical(
        self, instrs, chunks, reg, bit, count, hot, regs
    ):
        """A register bit-flip must corrupt the reference (an observer
        on the reference interpreter) and the translated engine (an
        armed trigger, which keeps the translated tier) identically."""
        spec = FaultSpec(
            kind="cpu_reg_flip", target="cpu", index=reg, bit=bit,
            count=count,
        )
        image = program_words(instrs)
        ref = make_ref(image, regs=regs)
        trans = make_trans_cpu(image, hot=hot, regs=regs)
        ref.observers.append(ObserverSaboteur(ref, spec))
        arm_cpu_fault(trans, spec)
        assert run_ref(ref) == run_fast(trans, tuple(chunks))
        assert snapshot(ref) == snapshot(trans)

    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=16),
        phase1=st.integers(1, 30),
        reg=st.integers(1, 15),
        bit=st.integers(0, 31),
        count=st.integers(1, 10),
        hot=hot_st,
        regs=init_regs,
    )
    def test_injector_disarm_reengages_translated_tier(
        self, instrs, phase1, reg, bit, count, hot, regs
    ):
        """arm → run → disarm → run: the translated engine stays
        identical to the reference across the whole lifecycle, and
        after ``disarm()`` it never takes the observed step."""
        spec = FaultSpec(
            kind="cpu_reg_flip", target="cpu", index=reg, bit=bit,
            count=count,
        )
        image = program_words(instrs)
        ref = make_ref(image, regs=regs)
        trans = make_trans_cpu(image, hot=1, regs=regs)

        def lifecycle(cpu, runner, *run_args):
            injector = FaultInjector(System(sim=None, cpu=cpu))
            injector.arm(spec)
            err = runner(cpu, *run_args, phase1)
            injector.disarm()
            assert not cpu.observers
            if err is not None:
                return err
            if cpu is trans:
                forbid_slow(cpu)
            return runner(cpu, *run_args, BUDGET)

        err_ref = lifecycle(ref, lambda c, b: run_ref(c, b))
        err_trans = lifecycle(
            trans, lambda c, b: run_fast(c, (BUDGET,), b)
        )
        assert err_ref == err_trans
        assert snapshot(ref) == snapshot(trans)


# ----------------------------------------------------------------------
# self-modifying code: stores into an already-translated block
# ----------------------------------------------------------------------
def smc_image(target, word, rounds):
    """A loop whose body rewrites its own instruction ``target`` with
    ``word`` (fetched from data) once ``r1`` counts down — the block is
    guaranteed hot (hence translated) before the rewrite lands."""
    instrs = [
        Instruction(0x20, rd=1, rs1=0, imm=rounds),  # 0: counter
        Instruction(0x30, rd=2, rs1=0, imm=30),      # 1: new code word
        Instruction(0x01, rd=3, rs1=3, rs2=1),       # 2: loop body...
        Instruction(0x02, rd=4, rs1=3, rs2=2),       # 3
        Instruction(0x08, rd=5, rs1=4, rs2=3),       # 4
        Instruction(0x0D, rd=6, rs1=5, rs2=1),       # 5
        Instruction(0x31, rd=2, rs1=0, imm=target),  # 6: rewrite code!
        Instruction(0x20, rd=1, rs1=1, imm=-1),      # 7: r1 -= 1
        Instruction(0x41, rd=1, rs1=0, imm=-8),      # 8: bne r1,r0 -> 2
        Instruction(int(Opcode.HALT)),               # 9
    ]
    image = {i: ENC.encode(x) for i, x in enumerate(instrs)}
    image[30] = word
    return image


REWRITE_WORDS = [
    ENC.encode(Instruction(0x01, rd=7, rs1=1, rs2=2)),   # add
    ENC.encode(Instruction(0x20, rd=3, rs1=0, imm=11)),  # addi
    ENC.encode(Instruction(0x50, imm=9)),                # j halt
    ENC.encode(Instruction(int(Opcode.HALT))),
    0x1F000000,                                          # illegal word
]


class TestSelfModifyingCode:
    @settings(max_examples=200, **COMMON)
    @given(
        target=st.integers(2, 8),
        word=st.sampled_from(REWRITE_WORDS),
        rounds=st.integers(1, 5),
        chunks=chunks_st,
        hot=hot_st,
    )
    def test_store_into_translated_block(
        self, target, word, rounds, chunks, hot
    ):
        image = smc_image(target, word, rounds)
        ref = make_ref(image)
        fast = make_cpu(image)
        trans = make_trans_cpu(image, hot=hot)
        budget = 40 * rounds + 60
        err_ref = run_ref(ref, budget)
        assert err_ref == run_fast(fast, tuple(chunks), budget)
        assert err_ref == run_fast(trans, tuple(chunks), budget)
        state = snapshot(ref)
        assert state == snapshot(fast)
        assert state == snapshot(trans)

    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=16),
        phase1=st.integers(1, 40),
        addr=st.integers(0, 16),
        word=st.sampled_from(REWRITE_WORDS),
        hot=hot_st,
        regs=init_regs,
    )
    def test_external_store_invalidates_between_runs(
        self, instrs, phase1, addr, word, hot, regs
    ):
        """Code rewritten through ``Memory.write`` *between* run_block
        calls — e.g. by a DMA device or another tier — must invalidate
        translated blocks exactly like an in-block store."""
        image = program_words(instrs)
        ref = make_ref(image, regs=regs)
        trans = make_trans_cpu(image, hot=hot, regs=regs)

        def run_two_phase(cpu, runner):
            err = runner(cpu, phase1)
            cpu.memory.write(addr, word)
            if err is not None:
                return err
            return runner(cpu, BUDGET)

        err_ref = run_two_phase(ref, lambda c, b: run_ref(c, b))
        err_trans = run_two_phase(
            trans, lambda c, b: run_fast(c, (BUDGET,), b)
        )
        assert err_ref == err_trans
        assert snapshot(ref) == snapshot(trans)


# ----------------------------------------------------------------------
# an ISA built with a custom op and a retimed opcode
# ----------------------------------------------------------------------
CUSTOM_WORD = 0x80000000 | (7 << 20) | (1 << 16) | (2 << 12)  # op 0x80


class TestExtendedIsa:
    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=14),
        custom_at=st.one_of(st.none(), st.integers(0, 13)),
        add_cycles=st.integers(1, 9),
        mac_cycles=st.integers(1, 5),
        hot=hot_st,
        regs=init_regs,
    )
    def test_extended_isa_identical(
        self, instrs, custom_at, add_cycles, mac_cycles, hot, regs
    ):
        """Random programs, some embedding the custom word, on an ISA
        built with a mac and a retimed ADD: the translated tier matches
        the reference."""
        image = program_words(instrs)
        if custom_at is not None:
            image[custom_at % len(instrs)] = CUSTOM_WORD
        isa = Isa(customs=[CustomOp(
            "mac", 0x80, lambda a, b: (a * b + 7) & 0xFFFFFFFF,
            cycles=mac_cycles,
        )], cycles={Opcode.ADD: add_cycles})
        ref = make_ref(image, isa, regs)
        trans = make_trans_cpu(image, isa, hot=hot, regs=regs)
        assert run_ref(ref) == run_fast(trans)
        assert snapshot(ref) == snapshot(trans)


# ----------------------------------------------------------------------
# observer attach/detach re-engaging the translated tier
# ----------------------------------------------------------------------
class TestObserverLifecycle:
    @settings(max_examples=200, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=16),
        phase1=st.integers(1, 20),
        phase2=st.integers(1, 20),
        chunks=chunks_st,
        regs=init_regs,
    )
    def test_attach_detach_cycle_identical(
        self, instrs, phase1, phase2, chunks, regs
    ):
        """free → observed → free again: the retirement sequence the
        observer sees matches the reference, and after detach the
        translated CPU runs without touching the other tiers."""
        image = program_words(instrs)
        ref = make_ref(image, regs=regs)
        trans = make_trans_cpu(image, hot=1, regs=regs)
        seen_ref, seen_trans = [], []

        def drive(cpu, seen, runner):
            err = runner(cpu, phase1)
            if err is not None:
                return err
            hook = lambda pc, i: seen.append((pc, i.opcode))  # noqa: E731
            cpu.observers.append(hook)
            err = runner(cpu, phase2)
            cpu.observers.remove(hook)
            if err is not None:
                return err
            if cpu is trans:
                forbid_slow(cpu)
            return runner(cpu, BUDGET)

        err_ref = drive(ref, seen_ref, lambda c, b: run_ref(c, b))
        err_trans = drive(
            trans, seen_trans,
            lambda c, b: run_fast(c, tuple(chunks), b),
        )
        assert err_ref == err_trans
        assert snapshot(ref) == snapshot(trans)
        assert seen_ref == seen_trans


# ----------------------------------------------------------------------
# deferred external accesses through the translated tier
# ----------------------------------------------------------------------
class TestTranslateExternalAccess:
    def drive(self, cpu, use_block):
        accesses = []
        stored = {}
        for _ in range(50):
            if cpu.halted:
                break
            if use_block:
                _steps, _cycles, access = cpu.run_block(3)
            else:
                result = cpu.step()
                access = (
                    result if isinstance(result, ExternalAccess) else None
                )
            if access is not None:
                accesses.append(
                    (access.addr, access.value, access.is_write)
                )
                if access.is_write:
                    stored[access.addr] = access.value
                    cpu.complete_access(extra_cycles=7)
                else:
                    cpu.complete_access(
                        read_value=stored.get(access.addr, 0),
                        extra_cycles=7,
                    )
        return accesses

    @pytest.mark.parametrize("hot", [1, 2])
    def test_deferred_accesses_identical(self, hot):
        ref, trans = make_ext_cpu(ReferenceCpu), make_ext_cpu()
        install(trans, hot_threshold=hot)
        assert self.drive(ref, False) == self.drive(trans, True)
        assert snapshot(ref) == snapshot(trans)
        assert trans.get_reg(3) == 10

    def test_run_block_while_pending_rejected(self):
        cpu = make_ext_cpu()
        install(cpu, hot_threshold=1)
        while not isinstance(cpu.step(), ExternalAccess):
            pass
        with pytest.raises(CpuError, match="pending"):
            cpu.run_block(1)


# ----------------------------------------------------------------------
# the process-wide block cache
# ----------------------------------------------------------------------
ADDI_R1 = Instruction(0x20, rd=1, rs1=1, imm=1)


def forbid_compile(monkeypatch):
    def boom(self, *args):
        raise AssertionError("compiled a block the cache holds")

    monkeypatch.setattr(BlockTranslator, "_compile", boom)


@pytest.mark.usefixtures("empty_cache")
class TestSharedCache:
    def test_block_compiled_on_one_cpu_runs_on_another(self, monkeypatch):
        image = program_words([ADDI_R1] * 5)
        first = make_trans_cpu(image)
        first.run_block(50)
        assert (first.translator.translations,
                first.translator.reused) == (1, 0)

        forbid_compile(monkeypatch)
        second = make_cpu(image)
        install(second)  # default threshold: a cached block is not cold
        forbid_untranslated(second)
        second.run_block(50)
        assert (second.translator.translations,
                second.translator.reused) == (1, 1)
        assert snapshot(second) == snapshot(first)
        assert set(range(6)) <= second.memory.code_watch

    def test_a_different_code_word_compiles_its_own_block(self):
        first = make_trans_cpu(program_words([ADDI_R1] * 5))
        first.run_block(50)
        other = program_words([ADDI_R1] * 4 + [
            Instruction(0x20, rd=1, rs1=1, imm=9)])
        second = make_trans_cpu(other)
        second.run_block(50)
        assert second.translator.reused == 0
        assert second.get_reg(1) == 13 and first.get_reg(1) == 5

    def test_a_different_cycle_table_compiles_its_own_block(self):
        image = program_words([ADDI_R1] * 5)
        first = make_trans_cpu(image)
        first.run_block(50)
        slow = Isa(cycles={Opcode.ADDI: 3})
        second = make_trans_cpu(image, slow)
        ref = make_ref(image, slow)
        second.run_block(50)
        run_ref(ref)
        assert second.translator.reused == 0
        assert snapshot(second) == snapshot(ref)
        assert second.cycle_count == first.cycle_count + 10

    def test_custom_ops_share_only_with_the_same_semantics(self):
        image = program_words([ADDI_R1, ADDI_R1])
        image[2] = CUSTOM_WORD  # r7 = mac(r1, r2)
        image[3] = ENC.encode(Instruction(int(Opcode.HALT)))

        def isa_with(semantics):
            return Isa(customs=[CustomOp("mac", 0x80, semantics)])

        double = lambda a, b: 2 * a  # noqa: E731
        cpus = []
        for semantics in (double, lambda a, b: 3 * a, double):
            cpu = make_trans_cpu(image, isa_with(semantics))
            cpu.run_block(50)
            cpus.append(cpu)
        assert [cpu.translator.reused for cpu in cpus] == [0, 0, 1]
        assert [cpu.get_reg(7) for cpu in cpus] == [4, 6, 4]

    def test_a_store_into_a_reused_block_invalidates_it(self):
        image = program_words([ADDI_R1] * 4)
        make_trans_cpu(image).run_block(50)
        patch = ENC.encode(Instruction(0x20, rd=1, rs1=1, imm=100))

        def run_twice(cpu, runner):
            runner(cpu)
            cpu.pc, cpu.halted = 0, False
            cpu.memory.write(2, patch)
            runner(cpu)

        reused = make_trans_cpu(image)
        run_twice(reused, lambda c: c.run_block(50))
        ref = make_ref(image)
        run_twice(ref, run_ref)
        assert reused.translator.reused == 1
        assert reused.get_reg(1) == 4 + 103
        assert snapshot(reused) == snapshot(ref)

    @settings(max_examples=50, **COMMON)
    @given(
        target=st.integers(2, 8),
        word=st.sampled_from(REWRITE_WORDS),
        rounds=st.integers(1, 5),
        chunks=chunks_st,
    )
    def test_self_modifying_code_on_a_reusing_cpu(self, target, word,
                                                  rounds, chunks):
        """The in-block store exit and the write-watch both hold on a
        CPU that never compiled the block it runs."""
        image = smc_image(target, word, rounds)
        budget = 40 * rounds + 60
        run_fast(make_trans_cpu(image), tuple(chunks), budget)
        ref = make_ref(image)
        reused = make_trans_cpu(image)
        assert run_ref(ref, budget) == run_fast(reused, tuple(chunks),
                                                budget)
        assert snapshot(reused) == snapshot(ref)
        assert reused.translator.reused > 0


# ----------------------------------------------------------------------
# translator unit behavior
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("empty_cache")
class TestTranslatorMechanics:
    def test_blocks_actually_translate_and_execute(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)] * 6
        )
        cpu = make_cpu(image)
        translator = install(cpu, hot_threshold=1)
        forbid_untranslated(cpu)
        cpu.run_block(50)  # budget covers the whole block
        assert cpu.halted
        assert translator.translations >= 1

    def test_cold_blocks_delegate_until_hot(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)] * 4
        )
        cpu = make_cpu(image)
        translator = install(cpu, hot_threshold=3)
        cpu.run_block(5)
        assert translator.translations == 0  # first entry: still cold
        cpu.__init__(cpu.isa, cpu.memory, pc=0)
        cpu.translator = translator
        cpu.run_block(5)
        cpu.__init__(cpu.isa, cpu.memory, pc=0)
        cpu.translator = translator
        cpu.run_block(5)
        assert translator.translations == 1  # third entry crossed 3

    def test_hot_threshold_validation(self):
        cpu = make_cpu(program_words([Instruction(int(Opcode.HALT))]))
        with pytest.raises(ValueError):
            BlockTranslator(cpu, hot_threshold=0)

    def test_capacity_overflow_evicts_oldest(self):
        instrs = []
        for _ in range(6):
            instrs.extend([
                Instruction(0x20, rd=1, rs1=1, imm=1),
                Instruction(0x50, imm=0),  # j — block terminator
            ])
        image = program_words(instrs)
        # every other pc starts a block; cap the cache below that
        cpu = make_cpu(image)
        translator = install(cpu, hot_threshold=1, max_blocks=2)
        for entry_pc in range(0, 12, 2):
            cpu.pc = entry_pc
            cpu.halted = False
            cpu.run_block(2)
        # oldest-first eviction: the cache never exceeds its cap, only
        # single blocks drop, and the whole cache is never cleared
        assert translator.block_count == 2
        assert translator.evictions == 4
        assert translator.translations == 6
        # the newest blocks survived: re-entering them compiles nothing
        for entry_pc in (8, 10):
            cpu.pc = entry_pc
            cpu.halted = False
            cpu.run_block(2)
        assert translator.translations == 6
        # an evicted block re-translates on demand, displacing the
        # (new) oldest entry
        cpu.pc = 0
        cpu.halted = False
        cpu.run_block(2)
        assert translator.translations == 7
        assert translator.evictions == 5
        assert translator.block_count == 2

    def test_repr_and_counters(self):
        image = program_words(
            [Instruction(0x20, rd=1, rs1=1, imm=1)] * 3
        )
        cpu = make_cpu(image)
        translator = install(cpu, hot_threshold=1)
        cpu.run_block(10)
        text = repr(translator)
        assert "BlockTranslator" in text and "translations=" in text
        assert translator.block_count >= 1
