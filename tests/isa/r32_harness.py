"""R32 differential-test harness: Hypothesis strategies and engines.

The differential suites (``test_fastpath``, ``test_translate``,
``test_batch``, ``test_semantics_reference`` and
``tests/fault/test_trigger_reference``) share these random-program
strategies, CPU builders, snapshots and reference/fast drivers.  This
module defines no tests, so importing it never applies ``@given`` —
which Hypothesis refuses to do inside a running ``@given`` test.
"""

from hypothesis import HealthCheck, strategies as st

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory
from repro.isa.instructions import Instruction, Isa, Opcode

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


def program_words(instrs, illegal_at=None):
    """Assembled image: the instructions, a trailing ``halt``, and
    optionally one undecodable word spliced in."""
    words = [ENC.encode(i) for i in instrs] + [ENC.encode(
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


def make_ext_cpu():
    isa = Isa()
    prog = assemble(EXT_PROG, isa)
    mem = Memory()
    mem.load_image(prog.image)
    mem.add_region("ext", 0x200, 4, external=True)
    return Cpu(isa, mem)
