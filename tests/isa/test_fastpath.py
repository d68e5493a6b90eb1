"""Differential property tests for the interpreted CPU tier.

``Cpu.run_block()`` and ``Cpu.step()`` claim to be *observably
identical* to the reference interpreter's ``step()`` loop (DESIGN.md
§9: same architectural state, same counts, same errors at the same
point, any block size).  The reference is ``ReferenceCpu``
(``tests/isa/r32_harness.py``), a frozen interpreter that shares no
execution code with ``repro.isa.cpu``.  Hypothesis drives random
programs — including wild jumps, self-modifying stores, division
faults, illegal words, injected IRQs and fault bit-flips — through
both and compares complete snapshots, so any divergence between the
interpreted tier (one compiled function per decoded word) and the
reference is a test failure, not a silent accuracy bug.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import FaultSpec
from repro.fault.inject import arm_cpu_fault
from repro.isa import emit
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess
from repro.isa.instructions import CustomOp, Instruction, Isa, Opcode

from tests.fault.observer_reference import ObserverSaboteur
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    ENC,
    ReferenceCpu,
    init_regs,
    instr_st,
    make_cpu,
    make_ext_cpu,
    make_irq_cpu,
    make_ref,
    program_words,
    run_fast,
    run_ref,
    run_stepped,
    snapshot,
)

#: a 3-iteration loop whose cycle count every edit below moves
CYCLE_LOOP = """
        addi r1, r0, 3
    loop:
        add  r2, r2, r1
        mul  r3, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
"""
_ADD, _MUL = int(Opcode.ADD), int(Opcode.MUL)


def _move_last(cycles, op, cost):
    """Re-insert ``op`` at ``cost`` as the table's last entry."""
    cycles.pop(op, None)
    cycles[op] = cost


#: every mutating dict method, as (setup before caches warm, the edit)
CYCLE_EDITS = {
    "__setitem__": (lambda c: None, lambda c: c.__setitem__(_ADD, 9)),
    "__delitem__": (lambda c: None, lambda c: c.__delitem__(_MUL)),
    "__ior__": (lambda c: None, lambda c: c.__ior__({_ADD: 9})),
    "update": (lambda c: None, lambda c: c.update({_ADD: 9})),
    "pop": (lambda c: None, lambda c: c.pop(_MUL)),
    "popitem": (lambda c: _move_last(c, _ADD, 9), lambda c: c.popitem()),
    "clear": (lambda c: None, lambda c: c.clear()),
    "setdefault": (lambda c: c.pop(_ADD, None),
                   lambda c: c.setdefault(_ADD, 9)),
}


# ----------------------------------------------------------------------
# the core differential: random programs, random block sizes
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(max_examples=60, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=24),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        illegal_at=st.one_of(st.none(), st.integers(0, 23)),
        regs=init_regs,
    )
    def test_run_block_matches_step_loop(self, instrs, chunks, illegal_at,
                                         regs):
        image = program_words(instrs, illegal_at)
        ref, fast, stepped = make_ref(image, regs=regs), \
            make_cpu(image, regs=regs), make_cpu(image, regs=regs)
        err_ref = run_ref(ref)
        assert err_ref == run_fast(fast, tuple(chunks))
        assert err_ref == run_stepped(stepped)
        assert snapshot(ref) == snapshot(fast) == snapshot(stepped)

    @settings(max_examples=40, **COMMON)
    @given(instrs=st.lists(instr_st, min_size=1, max_size=24),
           regs=init_regs)
    def test_run_matches_step_loop(self, instrs, regs):
        """``Cpu.run()`` (built on run_block) vs the step loop."""
        image = program_words(instrs)
        ref, fast = make_ref(image, regs=regs), make_cpu(image, regs=regs)
        err_ref = run_ref(ref)
        try:
            fast.run(max_instructions=BUDGET)
            err_fast = None
        except CpuError as exc:
            err_fast = str(exc)
        if err_ref is None and not ref.halted:
            # budget exhausted: run() raises where the loop just stops
            assert err_fast is not None and "budget" in err_fast
        else:
            assert err_ref == err_fast
        assert snapshot(ref) == snapshot(fast)

    @settings(max_examples=30, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=20),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        regs=init_regs,
    )
    def test_observers_force_identical_slow_path(self, instrs, chunks,
                                                 regs):
        """With observers armed the system retires as the reference
        does *and* the observer sees the same (pc, opcode) sequence."""
        image = program_words(instrs)
        ref, fast = make_ref(image, regs=regs), make_cpu(image, regs=regs)
        seen_ref, seen_fast = [], []
        ref.observers.append(lambda pc, i: seen_ref.append((pc, i.opcode)))
        fast.observers.append(lambda pc, i: seen_fast.append((pc, i.opcode)))
        assert run_ref(ref) == run_fast(fast, tuple(chunks))
        assert snapshot(ref) == snapshot(fast)
        assert seen_ref == seen_fast

    @settings(max_examples=30, **COMMON)
    @given(
        instrs=st.lists(instr_st, min_size=1, max_size=20),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        reg=st.integers(0, 15),
        bit=st.integers(0, 31),
        count=st.integers(1, 40),
        regs=init_regs,
    )
    def test_fault_bitflips_identical(self, instrs, chunks, reg, bit, count,
                                      regs):
        """A one-shot register bit-flip — the reference observer on the
        reference, the armed trigger on run_block's interpreted tier —
        must corrupt both identically, including flips of r0, which the
        architectural read path must still honor."""
        spec = FaultSpec(kind="cpu_reg_flip", target="cpu",
                         index=reg, bit=bit, count=count)
        image = program_words(instrs)
        ref, fast = make_ref(image, regs=regs), make_cpu(image, regs=regs)
        ref.observers.append(ObserverSaboteur(ref, spec))
        arm_cpu_fault(fast, spec)
        assert run_ref(ref) == run_fast(fast, tuple(chunks))
        assert snapshot(ref) == snapshot(fast)


# ----------------------------------------------------------------------
# interrupts raised mid-run by a device model
# ----------------------------------------------------------------------
class TestInterruptDifferential:
    @settings(max_examples=25, **COMMON)
    @given(
        limit=st.integers(1, 30),
        modulus=st.integers(1, 5),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    )
    def test_device_irqs_identical(self, limit, modulus, chunks):
        ref, log_ref = make_irq_cpu(limit, modulus, ReferenceCpu)
        fast, log_fast = make_irq_cpu(limit, modulus)
        budget = 20 * limit + 50
        assert run_ref(ref, budget) == run_fast(fast, tuple(chunks), budget)
        assert snapshot(ref) == snapshot(fast)
        assert log_ref == log_fast
        if limit >= modulus:  # some stored value was divisible
            assert ref.irq_count > 0


# ----------------------------------------------------------------------
# external accesses: run_block and step defer exactly like the reference
# ----------------------------------------------------------------------
class TestExternalAccess:
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
                access = result if isinstance(result, ExternalAccess) else None
            if access is not None:
                accesses.append((access.addr, access.value, access.is_write))
                if access.is_write:
                    stored[access.addr] = access.value
                    cpu.complete_access(extra_cycles=7)
                else:
                    cpu.complete_access(
                        read_value=stored.get(access.addr, 0),
                        extra_cycles=7)
        return accesses

    def test_deferred_accesses_identical(self):
        ref, fast, stepped = make_ext_cpu(ReferenceCpu), make_ext_cpu(), \
            make_ext_cpu()
        accesses = self.drive(ref, False)
        assert self.drive(fast, True) == accesses
        assert self.drive(stepped, False) == accesses
        assert snapshot(ref) == snapshot(fast) == snapshot(stepped)
        assert ref.get_reg(3) == 10

    def test_run_block_while_pending_rejected(self):
        cpu = make_ext_cpu()
        while not isinstance(cpu.step(), ExternalAccess):
            pass
        with pytest.raises(CpuError, match="pending"):
            cpu.run_block(1)


# ----------------------------------------------------------------------
# cache invalidation: the trace cache may never serve stale decode/timing
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_custom_op_registration_invalidates_decode(self):
        isa = Isa()
        word = 0x80100000 | (2 << 16) | (3 << 12)  # opcode 0x80 r1,r2,r3
        image = {0: word, 1: ENC.encode(Instruction(int(Opcode.HALT)))}
        cpu = make_cpu(image, isa)
        with pytest.raises(CpuError, match="illegal opcode"):
            cpu.run_block(4)
        isa.add_custom(CustomOp("mac3", 0x80, lambda a, b: a * b + 1,
                                cycles=3))
        cpu = make_cpu(image, isa)
        cpu.regs[2], cpu.regs[3] = 6, 7
        cpu.run_block(4)
        assert cpu.get_reg(1) == 43
        assert cpu.halted

    def test_cycle_edit_invalidates_timing(self):
        image = program_words([Instruction(0x01, rd=1, rs1=1, rs2=1)] * 4)
        isa_a, isa_b = Isa(), Isa()
        isa_a.cycles[int(Opcode.ADD)] = 9
        isa_b.cycles[int(Opcode.ADD)] = 9
        ref, fast = make_ref(image, isa_a), make_cpu(image, isa_b)
        run_ref(ref, 2), run_fast(fast, (1,), 2)
        # retime mid-run: both engines must pick the new cost up
        isa_a.cycles[int(Opcode.ADD)] = 2
        isa_b.cycles[int(Opcode.ADD)] = 2
        assert run_ref(ref) == run_fast(fast)
        assert snapshot(ref) == snapshot(fast)
        assert ref.cycle_count == 9 * 2 + 2 * 2 + 1  # 2 old, 2 new, halt

    def test_operand_cache_lives_on_the_isa(self, monkeypatch):
        """CPUs on one ISA share its operand cache; after a version
        change the next CPU to run rebuilds it with the new timing."""
        mul = Instruction(int(Opcode.MUL), rd=1, rs1=1, rs2=1)
        image = program_words([mul] * 4)
        isa = Isa()
        first = make_cpu(image, isa)
        run_fast(first, (8,))
        assert first.cycle_count == 4 * 4 + 1
        word = ENC.encode(mul)
        predecoded = []
        predecode = Cpu._predecode

        def counting(cpu, word, pc):
            predecoded.append(word)
            return predecode(cpu, word, pc)

        monkeypatch.setattr(Cpu, "_predecode", counting)
        run_fast(make_cpu(image, isa), (8,))
        assert predecoded == []
        isa.cycles[int(Opcode.MUL)] = 7
        cpu = make_cpu(image, isa)
        run_fast(cpu, (8,))
        assert predecoded == [word, image[4]]
        assert cpu.cycle_count == 4 * 7 + 1

    def test_word_functions_are_compiled_once_per_process(
            self, monkeypatch):
        """The interpreted tier's one-instruction functions are shared
        by every ISA in the process, keyed by word and cycles; past
        ``MAX_WORDS`` the oldest goes first, and no result moves."""
        from repro.isa.translate import auto_translation

        compiled = []
        compile_code = emit.compile_code

        def counting(isa, name, *args):
            compiled.append(name)
            return compile_code(isa, name, *args)

        monkeypatch.setattr(emit, "compile_code", counting)
        monkeypatch.setattr(emit, "_WORDS", {})
        monkeypatch.setattr(emit, "MAX_WORDS", 4)
        image = program_words([Instruction(0x20, rd=1, rs1=1, imm=k)
                               for k in (1, 2)])
        retimed = Isa()
        retimed.cycles[int(Opcode.ADDI)] = 5
        counts = []
        for isa in (Isa(), Isa(), retimed):
            ref = make_ref(image, isa)
            run_ref(ref)
            with auto_translation(False):
                fast = make_cpu(image, isa)
                run_fast(fast)
            assert snapshot(fast) == snapshot(ref)
            counts.append(len(compiled))
        # the second ISA compiled nothing; the retimed one its two addi
        # words, evicting the first word compiled
        assert counts == [3, 3, 5]
        assert list(emit._WORDS) == [(image[1], 1, None),
                                     (image[2], 1, None),
                                     (image[0], 5, None),
                                     (image[1], 5, None)]

    @pytest.mark.parametrize("method", sorted(CYCLE_EDITS))
    def test_every_cycle_edit_reaches_every_tier(self, method):
        """Each mutating dict method on ``Isa.cycles`` bumps the ISA's
        version, so the cycle table, the operand cache and translated
        blocks warmed before the edit all see it, as the reference does."""
        setup, edit = CYCLE_EDITS[method]
        isa = Isa()
        setup(isa.cycles)
        self._check_edit_reaches_every_tier(isa, lambda: edit(isa.cycles))

    def test_rebinding_cycles_reaches_every_tier(self):
        """Assigning a new table to ``Isa.cycles`` is an edit too: the
        ISA copies it into a map that bumps the version, now and on
        every later edit."""
        isa = Isa()
        table = {Opcode.ADD: 9}

        def rebind():
            isa.cycles = table

        self._check_edit_reaches_every_tier(isa, rebind)
        assert isa.cycles == table and isa.cycles is not table
        version = isa.version
        isa.cycles[_MUL] = 5
        assert isa.version > version
        table[_ADD] = 2  # the ISA kept a copy
        assert isa.cycles_of(_ADD) == 9

    @staticmethod
    def _check_edit_reaches_every_tier(isa, edit):
        from repro.isa.translate import auto_translation, install

        image = assemble(CYCLE_LOOP, isa).image
        before = make_cpu(image, isa)
        before.run_block(BUDGET)  # warms every cache, translated
        with auto_translation(False):
            run_fast(make_cpu(image, isa))
        version = isa.version
        edit()
        assert isa.version > version
        ref = make_ref(image, isa)
        run_ref(ref)
        assert ref.cycle_count != before.cycle_count  # the edit shows
        with auto_translation(False):
            fast = make_cpu(image, isa)
            run_fast(fast)
        translated = make_cpu(image, isa)
        install(translated, hot_threshold=1)
        run_fast(translated)
        assert translated.translator.translations > 0
        assert snapshot(fast) == snapshot(ref)
        assert snapshot(translated) == snapshot(ref)

    def test_decode_is_a_pure_cache(self):
        """decode() is defined as a memo over decode_uncached()."""
        isa = Isa()
        for instr in [Instruction(0x01, rd=1, rs1=2, rs2=3),
                      Instruction(0x20, rd=4, rs1=5, imm=-7),
                      Instruction(0x50, imm=123)]:
            word = isa.encode(instr)
            assert isa.decode(word) == isa.decode_uncached(word)
            assert isa.decode(word) is isa.decode(word)  # memoized
        with pytest.raises(ValueError):
            isa.decode(0x1F000000)
        with pytest.raises(ValueError):  # illegal words are never cached
            isa.decode(0x1F000000)
