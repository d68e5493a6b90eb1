"""R32 differential-test harness: the reference CPU, Hypothesis
strategies and engines.

The differential suites (``test_fastpath``, ``test_translate``,
``test_batch``, ``test_semantics_reference`` and
``tests/fault/test_trigger_reference``) share these random-program
strategies (:func:`halting_programs` for the runs that must halt),
CPU builders, snapshots and reference/fast drivers.  The
reference every one of them diffs against is :class:`ReferenceCpu`, a
standalone frozen interpreter that shares no execution code with
``repro.isa.cpu``.  This module defines no tests, so importing it never
applies ``@given`` — which Hypothesis refuses to do inside a running
``@given`` test.
"""

from typing import Callable, List, Optional, Tuple, Union

from hypothesis import HealthCheck, strategies as st

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory, _Defer
from repro.isa.instructions import MASK32, N_REGS, Instruction, Isa, Opcode


# ----------------------------------------------------------------------
# the reference: a standalone frozen interpreter
# ----------------------------------------------------------------------
IRQ_ENTRY_CYCLES = 4  # frozen here, not imported: the system must match


def _signed(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


class ReferenceCpu:
    """The R32 processor as a plain interpreter, frozen.

    ``step()`` and what it uses to fetch, dispatch, take an IRQ, defer,
    retire, fire a trigger and complete an access are verbatim copies
    of ``repro.isa.cpu.Cpu`` at commit 23d40a6, when ``step()`` was an
    interpreter of its own.  ``_execute``, ``_div``, ``_mod`` and
    ``_signed`` are the hand-written interpreter of c74450d, from
    before the semantics table existed.  ``run_block`` is the reference
    block: a ``step()`` loop.

    It is no ``Cpu`` and calls no ``Cpu`` method: no operand cache, no
    block translator, no semantics table.  It shares only the memory
    model (``Memory``, which defers external accesses by raising
    ``_Defer``), the ISA's decoder and timing (``Isa.decode``,
    ``cycles_of``, ``custom``) and the error and access types with the
    system.
    """

    def __init__(
        self,
        isa: Isa,
        memory: Optional[Memory] = None,
        pc: int = 0,
        ivec: int = 0x40,
    ) -> None:
        self.isa = isa
        self.memory = memory if memory is not None else Memory()
        self.regs: List[int] = [0] * N_REGS
        self.pc = pc
        self.ivec = ivec
        self.epc = 0
        self.halted = False
        self.irq_pending = False
        self.irq_enabled = True
        self.cycle_count = 0
        self.instr_count = 0
        self.irq_count = 0
        self._pending: Optional[Tuple[int, Instruction, ExternalAccess]] = None
        self.observers: List[Callable[[int, Instruction], None]] = []
        self._triggers: List[Tuple[int, Callable[[], None]]] = []

    def get_reg(self, index: int) -> int:
        """Read a register (r0 reads as zero)."""
        return 0 if index == 0 else self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        """Write a register (writes to r0 are discarded)."""
        if index != 0:
            self.regs[index] = value & MASK32

    def raise_irq(self) -> None:
        """Assert the (single) interrupt request line."""
        self.irq_pending = True

    def _take_irq(self) -> int:
        self.irq_pending = False
        self.irq_enabled = False
        self.epc = self.pc
        self.pc = self.ivec
        self.irq_count += 1
        return IRQ_ENTRY_CYCLES

    def add_trigger(self, due: int, fire: Callable[[], None]) -> None:
        """Call ``fire()`` once, right after retirement number ``due``."""
        if due <= self.instr_count:
            raise ValueError(
                f"trigger due at retirement {due}, but "
                f"{self.instr_count} have already retired"
            )
        triggers = self._triggers
        at = len(triggers)
        while at and triggers[at - 1][0] > due:
            at -= 1
        triggers.insert(at, (due, fire))

    def remove_trigger(self, fire: Callable[[], None]) -> None:
        """Drop ``fire`` if it has not fired yet; otherwise a no-op."""
        self._triggers[:] = [t for t in self._triggers if t[1] is not fire]

    def _fire_due(self) -> None:
        """Fire every trigger due at the just-retired instruction."""
        triggers = self._triggers
        while triggers and triggers[0][0] <= self.instr_count:
            triggers.pop(0)[1]()

    def step(self) -> Union[int, ExternalAccess]:
        """Execute one instruction.

        Returns the cycles consumed, or an :class:`ExternalAccess` if the
        instruction touched an external region (the CPU is then frozen
        until :meth:`complete_access`).
        """
        if self.halted:
            return 0
        if self._pending is not None:
            raise CpuError("step() while an external access is pending")
        if self.irq_pending and self.irq_enabled:
            return self._take_irq()
        word = self.memory.ram.get(self.pc)
        if word is None:
            raise CpuError(f"fetch from unprogrammed address {self.pc:#x}")
        try:
            instr = self.isa.decode(word)
        except ValueError as exc:
            raise CpuError(f"pc={self.pc:#x}: {exc}") from None
        pc_before = self.pc
        try:
            cycles = self._execute(instr)
        except _Defer as defer:
            self._pending = (pc_before, instr, defer.access)
            return defer.access
        self._retire(pc_before, instr, cycles)
        return cycles

    def complete_access(
        self, read_value: int = 0, extra_cycles: int = 0
    ) -> int:
        """Finish a deferred external access.

        ``read_value`` is the word returned by the device for loads.
        ``extra_cycles`` lets the backplane charge bus stall cycles into
        the CPU's cycle counter.  Returns total cycles for the
        instruction.
        """
        if self._pending is None:
            raise CpuError("no external access pending")
        pc_before, instr, access = self._pending
        self._pending = None
        if not access.is_write:
            self.set_reg(instr.rd, read_value)
        self.pc = pc_before + 1  # loads/stores never branch
        cycles = self.isa.cycles_of(instr.opcode) + extra_cycles
        self._retire(pc_before, instr, cycles)
        return cycles

    @property
    def pending_access(self) -> Optional[ExternalAccess]:
        """The in-flight external access, if any."""
        return self._pending[2] if self._pending else None

    def _retire(self, pc: int, instr: Instruction, cycles: int) -> None:
        self.instr_count += 1
        self.cycle_count += cycles
        # a snapshot: an observer may detach itself without hiding this
        # retirement from the observers after it
        for observer in tuple(self.observers):
            observer(pc, instr)
        if self._triggers:
            self._fire_due()

    def run_block(self, max_steps):
        """The reference ``run_block``: up to ``max_steps`` ``step()``
        calls, stopping after ``halt`` or a deferred access."""
        steps = 0
        cycles = 0
        while steps < max_steps and not self.halted:
            result = self.step()
            steps += 1
            if isinstance(result, ExternalAccess):
                return steps, cycles, result
            cycles += result
        return steps, cycles, None

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
# strategies, builders and drivers
# ----------------------------------------------------------------------
COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

BUDGET = 250  # step-equivalents per engine per example

ENC = Isa()  # encoding is identical across stock Isa instances

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


# ----------------------------------------------------------------------
# programs that halt
# ----------------------------------------------------------------------
#: the data words of :func:`halting_programs`, above any program's code
HALT_DATA = 0x200
BRANCH_OPS = (0x40, 0x41, 0x42, 0x43)

#: one item of a halting program: ``(instructions, distance)``, where a
#: control transfer carries how many items it skips and gets its
#: target when the program is laid out
_plain = st.one_of(r_type, i_type).map(lambda instr: ((instr,), None))
_divide = st.builds(  # ``ori rs2, rs2, 1`` first: the divisor is odd
    lambda op, rd, rs1, rs2: ((Instruction(0x22, rd=rs2, rs1=rs2, imm=1),
                               Instruction(op, rd=rd, rs1=rs1, rs2=rs2)),
                              None),
    st.sampled_from([0x04, 0x05]), regs_st, regs_st, st.integers(1, 15))
_access = st.builds(  # plain-RAM data words, never code
    lambda op, rd, off: ((Instruction(op, rd=rd, imm=HALT_DATA + off),),
                         None),
    st.sampled_from([0x30, 0x31]), regs_st, st.integers(0, 15))
_forward = st.builds(
    lambda op, rd, rs1, skip: ((Instruction(op, rd=rd, rs1=rs1),), skip),
    st.sampled_from(BRANCH_OPS), regs_st, regs_st, st.integers(0, 6))
_jump = st.builds(
    lambda op, skip: ((Instruction(op),), skip),
    st.sampled_from([0x50, 0x51]), st.integers(0, 6))


@st.composite
def halting_programs(draw, min_size=8, max_size=40):
    """Random programs that halt, for :func:`program_words`: ALU code,
    divisions by a divisor made odd just before, loads and stores of
    data words at :data:`HALT_DATA` (no store rewrites code), and
    branches and jumps that only go forward, to the start of a later
    item or to the trailing ``halt``.  Every run retires at most one
    instruction per word and halts, unless a fault intervenes."""
    items = draw(st.lists(st.one_of(_plain, _plain, _divide, _access,
                                    _forward, _jump),
                          min_size=min_size, max_size=max_size))
    starts = [0]
    for instrs, _skip in items:
        starts.append(starts[-1] + len(instrs))
    program = []
    for index, (instrs, skip) in enumerate(items):
        if skip is None:
            program.extend(instrs)
            continue
        (instr,) = instrs
        target = starts[min(index + 1 + skip, len(items))]
        at = starts[index]
        program.append(Instruction(
            instr.opcode, rd=instr.rd, rs1=instr.rs1,
            imm=target - at - 1 if instr.opcode in BRANCH_OPS else target))
    return program


def program_words(instrs, illegal_at=None):
    """Assembled image: the instructions, a trailing ``halt``, and
    optionally one undecodable word spliced in."""
    words = [ENC.encode(i) for i in instrs] + [ENC.encode(
        Instruction(int(Opcode.HALT)))]
    if illegal_at is not None and instrs:
        words[illegal_at % len(instrs)] = 0x1F000000  # illegal opcode
    return {i: w for i, w in enumerate(words)}


#: initial values of r1..r15 for random programs (r0 stays 0): from
#: all-zero registers an ADD and a SUB of two registers agree, so a
#: wrong one would not show.  Small values keep some ``jr`` targets and
#: addresses inside the program, so not every run faults at once.
init_regs = st.lists(st.integers(0, 31) | st.integers(0, MASK32),
                     min_size=N_REGS - 1,
                     max_size=N_REGS - 1).map(lambda rest: [0] + rest)


def make_cpu(image, isa=None, cls=Cpu, regs=None):
    """A CPU over ``image``, starting from ``regs`` if given."""
    mem = Memory()
    mem.load_image(dict(image))
    cpu = cls(isa or Isa(), mem)
    if regs is not None:
        cpu.regs[:] = regs
    return cpu


def make_ref(image, isa=None, regs=None):
    """:func:`make_cpu`'s twin on the reference."""
    return make_cpu(image, isa, ReferenceCpu, regs)


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
    """The reference engine: one ``ReferenceCpu.step()`` per step."""
    assert type(cpu) is ReferenceCpu, "the reference runs on ReferenceCpu"
    try:
        steps = 0
        while steps < budget and not cpu.halted:
            result = cpu.step()
            assert not isinstance(result, ExternalAccess)
            steps += 1
        return None
    except CpuError as exc:
        return str(exc)


def run_stepped(cpu, budget=BUDGET):
    """The system's ``Cpu.step()``, once per step."""
    assert type(cpu) is Cpu
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


#: run_block chunk sizes, cycled until the budget is spent
chunks_st = st.lists(st.integers(1, 9), min_size=1, max_size=4)


# ----------------------------------------------------------------------
# a device model that raises interrupts mid-run
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


def make_irq_cpu(limit, modulus, cls=Cpu):
    isa = Isa()
    prog = assemble(IRQ_PROG.format(limit=limit), isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = cls(isa, mem)
    log = []

    def write_fn(offset, value):
        log.append((offset, value))
        if value % modulus == 0:
            cpu.raise_irq()

    mem.add_region("dev", 0x100, 4, write_fn=write_fn)
    return cpu, log


# ----------------------------------------------------------------------
# external accesses the CPU must defer
# ----------------------------------------------------------------------
EXT_PROG = """
    addi r1, r0, 5
    sw   r1, 0x200(r0)     ; external
    lw   r2, 0x200(r0)     ; external
    add  r3, r2, r1
    halt
"""


def make_ext_cpu(cls=Cpu):
    isa = Isa()
    prog = assemble(EXT_PROG, isa)
    mem = Memory()
    mem.load_image(prog.image)
    mem.add_region("ext", 0x200, 4, external=True)
    return cls(isa, mem)
