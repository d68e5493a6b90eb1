"""Differential property tests for the CPU fast path.

``Cpu.run_block()`` claims to be *observably identical* to a
``step()`` loop (DESIGN.md §9: same architectural state, same counts,
same errors at the same point, any block size).  Hypothesis drives
random programs — including wild jumps, self-modifying stores,
division faults, illegal words, injected IRQs and fault bit-flips —
through both engines and compares complete snapshots, so any
divergence between the pre-decoded trace-cache executor and the
reference interpreter is a test failure, not a silent accuracy bug.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fault import FaultSpec
from repro.fault.inject import arm_cpu_fault
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory
from repro.isa.instructions import CustomOp, Instruction, Isa, Opcode

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

BUDGET = 250  # step-equivalents per engine per example

_ENC = Isa()  # encoding is identical across stock Isa instances

R_OPS = [0x01, 0x02, 0x03, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D]
I_OPS = [0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27]

regs_st = st.integers(0, 15)

r_type = st.builds(
    lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1, rs2=rs2),
    st.sampled_from(R_OPS), regs_st, regs_st, regs_st)
div_type = st.builds(  # may fault on zero divisor — errors must match too
    lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1, rs2=rs2),
    st.sampled_from([0x04, 0x05]), regs_st, regs_st, regs_st)
i_type = st.builds(
    lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1, imm=imm),
    st.sampled_from(I_OPS), regs_st, regs_st,
    st.integers(-0x8000, 0x7FFF))
mem_type = st.builds(  # any address is plain RAM here (sparse dict)
    lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1, imm=imm),
    st.sampled_from([0x30, 0x31]), regs_st, regs_st,
    st.integers(0, 0x400))
branch = st.builds(
    lambda op, rd, rs1, off: Instruction(op, rd=rd, rs1=rs1, imm=off),
    st.sampled_from([0x40, 0x41, 0x42, 0x43]), regs_st, regs_st,
    st.integers(-4, 6))
jump = st.builds(
    lambda op, imm: Instruction(op, imm=imm),
    st.sampled_from([0x50, 0x51]), st.integers(0, 24))
jr = st.builds(lambda rs1: Instruction(0x52, rs1=rs1), regs_st)

instr_st = st.one_of(
    r_type, i_type, mem_type, branch,
    div_type, jump, jr,
)


def program_words(instrs, illegal_at=None):
    """Assembled image: the instructions, a trailing ``halt``, and
    optionally one undecodable word spliced in."""
    words = [_ENC.encode(i) for i in instrs] + [_ENC.encode(
        Instruction(int(Opcode.HALT)))]
    if illegal_at is not None and instrs:
        words[illegal_at % len(instrs)] = 0x1F000000  # illegal opcode
    return {i: w for i, w in enumerate(words)}


def make_cpu(image, isa=None):
    mem = Memory()
    mem.load_image(dict(image))
    return Cpu(isa or Isa(), mem)


def snapshot(cpu):
    return {
        "pc": cpu.pc, "regs": tuple(cpu.regs),
        "instr_count": cpu.instr_count, "cycle_count": cpu.cycle_count,
        "irq_count": cpu.irq_count, "halted": cpu.halted,
        "epc": cpu.epc, "irq_enabled": cpu.irq_enabled,
        "irq_pending": cpu.irq_pending,
        "ram": dict(cpu.memory.ram),
        "loads": cpu.memory.loads, "stores": cpu.memory.stores,
    }


def run_ref(cpu, budget=BUDGET):
    """The reference engine: one ``step()`` per instruction."""
    try:
        steps = 0
        while steps < budget and not cpu.halted:
            result = cpu.step()
            assert not isinstance(result, ExternalAccess)
            steps += 1
        return None
    except CpuError as exc:
        return str(exc)


def run_fast(cpu, chunks=(BUDGET,), budget=BUDGET):
    """The fast engine: ``run_block()`` in arbitrary chunk sizes."""
    try:
        steps = 0
        i = 0
        while steps < budget and not cpu.halted:
            chunk = min(chunks[i % len(chunks)], budget - steps)
            i += 1
            done, _cycles, access = cpu.run_block(chunk)
            assert access is None
            steps += done
        return None
    except CpuError as exc:
        return str(exc)


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
    )
    def test_run_block_matches_step_loop(self, instrs, chunks, illegal_at):
        image = program_words(instrs, illegal_at)
        ref, fast = make_cpu(image), make_cpu(image)
        err_ref = run_ref(ref)
        err_fast = run_fast(fast, tuple(chunks))
        assert err_ref == err_fast
        assert snapshot(ref) == snapshot(fast)

    @settings(max_examples=40, **COMMON)
    @given(instrs=st.lists(instr_st, min_size=1, max_size=24))
    def test_run_matches_step_loop(self, instrs):
        """``Cpu.run()`` (now built on run_block) vs the step loop."""
        image = program_words(instrs)
        ref, fast = make_cpu(image), make_cpu(image)
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
    )
    def test_observers_force_identical_slow_path(self, instrs, chunks):
        """With observers armed both engines retire identically *and*
        the observer sees the same (pc, opcode) sequence."""
        image = program_words(instrs)
        ref, fast = make_cpu(image), make_cpu(image)
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
    )
    def test_fault_bitflips_identical(self, instrs, chunks, reg, bit, count):
        """A one-shot register bit-flip — the reference observer on the
        step loop, the armed trigger on run_block's fast tier — must
        corrupt both identically, including flips of r0, which the
        architectural read path must still honor."""
        # imported here: that module imports this one's helpers
        from tests.fault.test_trigger_reference import ObserverSaboteur

        spec = FaultSpec(kind="cpu_reg_flip", target="cpu",
                         index=reg, bit=bit, count=count)
        image = program_words(instrs)
        ref, fast = make_cpu(image), make_cpu(image)
        ref.observers.append(ObserverSaboteur(ref, spec))
        arm_cpu_fault(fast, spec)
        assert run_ref(ref) == run_fast(fast, tuple(chunks))
        assert snapshot(ref) == snapshot(fast)


# ----------------------------------------------------------------------
# interrupts raised mid-run by a device model
# ----------------------------------------------------------------------
IRQ_PROG = """
    .org 0x0
    addi r1, r0, 0
    addi r2, r0, {limit}
loop:
    addi r1, r1, 1
    sw   r1, 0x100(r0)     ; device may raise an IRQ
    blt  r1, r2, loop
    halt
    .org 0x40
    addi r13, r13, 1       ; handler: count entries
    reti
"""


def make_irq_cpu(limit, modulus):
    isa = Isa()
    prog = assemble(IRQ_PROG.format(limit=limit), isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = Cpu(isa, mem)
    log = []

    def write_fn(offset, value):
        log.append((offset, value))
        if value % modulus == 0:
            cpu.raise_irq()

    mem.add_region("dev", 0x100, 4, write_fn=write_fn)
    return cpu, log


class TestInterruptDifferential:
    @settings(max_examples=25, **COMMON)
    @given(
        limit=st.integers(1, 30),
        modulus=st.integers(1, 5),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    )
    def test_device_irqs_identical(self, limit, modulus, chunks):
        ref, log_ref = make_irq_cpu(limit, modulus)
        fast, log_fast = make_irq_cpu(limit, modulus)
        budget = 20 * limit + 50
        assert run_ref(ref, budget) == run_fast(fast, tuple(chunks), budget)
        assert snapshot(ref) == snapshot(fast)
        assert log_ref == log_fast
        if limit >= modulus:  # some stored value was divisible
            assert ref.irq_count > 0


# ----------------------------------------------------------------------
# external accesses: run_block must defer exactly like step
# ----------------------------------------------------------------------
EXT_PROG = """
    addi r1, r0, 5
    sw   r1, 0x200(r0)     ; external
    lw   r2, 0x200(r0)     ; external
    add  r3, r2, r1
    halt
"""


def make_ext_cpu():
    isa = Isa()
    prog = assemble(EXT_PROG, isa)
    mem = Memory()
    mem.load_image(prog.image)
    mem.add_region("ext", 0x200, 4, external=True)
    return Cpu(isa, mem)


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
        ref, fast = make_ext_cpu(), make_ext_cpu()
        assert self.drive(ref, False) == self.drive(fast, True)
        assert snapshot(ref) == snapshot(fast)
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
        image = {0: word, 1: _ENC.encode(Instruction(int(Opcode.HALT)))}
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
        ref, fast = make_cpu(image, isa_a), make_cpu(image, isa_b)
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
        run_fast(make_cpu(image, isa), (8,))
        word = _ENC.encode(mul)
        assert isa._ops[word][5] == 4
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
        assert isa._ops[word][5] == 7
        assert cpu.cycle_count == 4 * 7 + 1

    @pytest.mark.parametrize("method", sorted(CYCLE_EDITS))
    def test_every_cycle_edit_reaches_every_tier(self, method):
        """Each mutating dict method on ``Isa.cycles`` bumps the ISA's
        version, so the cycle table, the operand cache and translated
        blocks warmed before the edit all see it, as ``step()`` does."""
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
        ref = make_cpu(image, isa)
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
