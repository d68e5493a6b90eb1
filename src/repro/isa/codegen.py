"""Code generation: lowering CDFG behaviors to R32 assembly.

This is the *software implementation* path for a behavior.  The same
CDFG also drives high-level synthesis (:mod:`repro.hls`), so a behavior
can be compiled both ways and the two implementations cross-checked —
the unified functional understanding Section 3.2 of the paper demands of
co-synthesis tools.

The generator is deliberately simple (this is a 1996-era flow): ops are
emitted in topological order with a greedy register allocator over
``r1``-``r12`` that spills to a reserved memory window using a
farthest-next-use victim policy.  Inputs and outputs live in fixed
memory windows so a test harness (or the co-simulation backplane) can
marshal data in and out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.cdfg import CDFG, Op, OpKind
from repro.isa.assembler import Program, assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa

ALLOCATABLE = list(range(1, 13))  # r1..r12; r13 scratch, r14 sp, r15 ra
SCRATCH = 13


class CodegenError(RuntimeError):
    """Raised when a CDFG cannot be lowered."""


@dataclass
class CompiledKernel:
    """The result of compiling a CDFG to R32.

    * ``asm`` — the generated assembly text;
    * ``program`` — the assembled image;
    * ``input_addrs`` / ``output_addrs`` — memory word addresses of each
      primary input/output, keyed by port name.
    """

    cdfg_name: str
    asm: str
    program: Program
    input_addrs: Dict[str, int]
    output_addrs: Dict[str, int]
    spill_slots: int

    @property
    def code_size(self) -> int:
        """Instructions + data words in the image."""
        return self.program.size

    def run(
        self,
        inputs: Dict[str, int],
        isa: Optional[Isa] = None,
        memory: Optional[Dict[int, int]] = None,
        max_instructions: int = 1_000_000,
    ) -> Tuple[Dict[str, int], int]:
        """Execute on a fresh CPU; returns (outputs, cycles).

        ``memory`` optionally pre-populates data RAM (for CDFGs with
        LOAD/STORE ops) and receives stores back.
        """
        isa = isa or Isa()
        mem = Memory()
        mem.load_image(self.program.image)
        if memory:
            mem.ram.update(memory)
        for name, addr in self.input_addrs.items():
            if name not in inputs:
                raise CodegenError(f"missing input {name!r}")
            mem.ram[addr] = inputs[name] & 0xFFFFFFFF
        cpu = Cpu(isa, mem, pc=self.program.entry)
        cycles = cpu.run(max_instructions=max_instructions)
        outputs = {
            name: mem.ram.get(addr, 0)
            for name, addr in self.output_addrs.items()
        }
        if memory is not None:
            memory.clear()
            memory.update(mem.ram)
        return outputs, cycles


class _Allocator:
    """Greedy register allocator with farthest-next-use spilling."""

    def __init__(self, emit, spill_base: int) -> None:
        self._emit = emit
        self.spill_base = spill_base
        self.reg_of: Dict[str, int] = {}
        self.owner: Dict[int, Optional[str]] = {r: None for r in ALLOCATABLE}
        self.spill_slot: Dict[str, int] = {}
        self.clean_home: Dict[str, Tuple[str, int]] = {}
        self.next_uses: Dict[str, List[int]] = {}
        self.spills = 0
        self.reloads = 0

    def set_uses(self, uses: Dict[str, List[int]]) -> None:
        self.next_uses = uses

    # ------------------------------------------------------------------
    def ensure_in_reg(self, value: str, pinned: List[int]) -> int:
        """Make sure ``value`` is in a register; returns the register."""
        if value in self.reg_of:
            return self.reg_of[value]
        reg = self._grab_reg(pinned)
        self._materialize(value, reg)
        self.reg_of[value] = reg
        self.owner[reg] = value
        return reg

    def alloc_dest(self, value: str, pinned: List[int]) -> int:
        """Allocate a destination register for a new value."""
        reg = self._grab_reg(pinned)
        self.reg_of[value] = reg
        self.owner[reg] = value
        return reg

    def mark_clean(self, value: str, kind: str, payload: int) -> None:
        """Record that ``value`` can be rematerialized (input word at
        address ``payload``, or constant ``payload``) instead of spilled."""
        self.clean_home[value] = (kind, payload)

    def drop_if_dead(self, value: str, position: int) -> None:
        """Free the register of ``value`` if it has no uses after
        ``position``."""
        remaining = [u for u in self.next_uses.get(value, []) if u > position]
        if not remaining and value in self.reg_of:
            self.owner[self.reg_of[value]] = None
            del self.reg_of[value]

    # ------------------------------------------------------------------
    def _grab_reg(self, pinned: List[int]) -> int:
        for reg in ALLOCATABLE:
            if self.owner[reg] is None and reg not in pinned:
                return reg
        victim_reg = self._pick_victim(pinned)
        self._spill(victim_reg)
        return victim_reg

    def _pick_victim(self, pinned: List[int]) -> int:
        best_reg, best_key = None, None
        for reg in ALLOCATABLE:
            if reg in pinned:
                continue
            value = self.owner[reg]
            uses = self.next_uses.get(value, [])
            key = uses[0] if uses else 10**9
            if best_key is None or key > best_key:
                best_reg, best_key = reg, key
        if best_reg is None:
            raise CodegenError("register pressure too high: all regs pinned")
        return best_reg

    def _spill(self, reg: int) -> None:
        value = self.owner[reg]
        if value not in self.clean_home:
            if value not in self.spill_slot:
                self.spill_slot[value] = self.spill_base + len(self.spill_slot)
            slot = self.spill_slot[value]
            self._emit(f"sw r{reg}, {slot}(r0)", f"spill {value}")
            self.spills += 1
        self.owner[reg] = None
        del self.reg_of[value]

    def _materialize(self, value: str, reg: int) -> None:
        if value in self.spill_slot:
            self._emit(f"lw r{reg}, {self.spill_slot[value]}(r0)",
                       f"reload {value}")
            self.reloads += 1
            return
        if value in self.clean_home:
            kind, payload = self.clean_home[value]
            if kind == "input":
                self._emit(f"lw r{reg}, {payload}(r0)", f"load input {value}")
            else:
                self._emit(f"li r{reg}, {payload}", f"const {value}")
            self.reloads += 1
            return
        raise CodegenError(f"value {value!r} lost (not in reg, spill, or home)")


@dataclass(frozen=True)
class Fusion:
    """Directive: emit ``outer`` (whose only-use input ``inner`` is folded
    in) as one custom instruction ``mnemonic`` over ``externals``.

    Produced by the ASIP pattern miner (:mod:`repro.asip.custom`); the
    custom mnemonic must be installed on the ISA passed to
    :func:`compile_cdfg`.
    """

    outer: str
    inner: str
    mnemonic: str
    externals: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.externals) <= 2:
            raise ValueError("custom instructions take 1 or 2 operands")


def compile_cdfg(
    cdfg: CDFG,
    isa: Optional[Isa] = None,
    input_base: int = 0x1000,
    output_base: int = 0x1100,
    spill_base: int = 0x1200,
    origin: int = 0,
    fusions: Optional[Dict[str, Fusion]] = None,
) -> CompiledKernel:
    """Compile a CDFG to an R32 program.

    Raises :class:`CodegenError` for CDFGs using ops the ISA cannot
    express.  ``fusions`` maps *outer* op names to :class:`Fusion`
    directives: the fused pair is emitted as a single custom instruction
    (the ASIP path of Sections 4.3/4.4).
    """
    isa = isa or Isa()
    fusions = fusions or {}
    fused_inner = {f.inner for f in fusions.values()}
    for fusion in fusions.values():
        if isa.custom_by_name(fusion.mnemonic) is None:
            raise CodegenError(
                f"fusion mnemonic {fusion.mnemonic!r} not installed on ISA"
            )
        if cdfg.uses(fusion.inner) != [fusion.outer]:
            raise CodegenError(
                f"fusion inner {fusion.inner!r} must feed only "
                f"{fusion.outer!r}"
            )
    lines: List[str] = []

    def emit(text: str, comment: str = "") -> None:
        pad = " " * max(1, 28 - len(text))
        lines.append(f"    {text}{pad}; {comment}" if comment else f"    {text}")

    alloc = _Allocator(emit, spill_base)

    input_addrs: Dict[str, int] = {}
    output_addrs: Dict[str, int] = {}
    for i, op in enumerate(cdfg.inputs()):
        input_addrs[op.name] = input_base + i
        alloc.mark_clean(op.name, "input", input_base + i)
    for i, op in enumerate(cdfg.outputs()):
        output_addrs[op.name] = output_base + i

    order = cdfg.topological_order()
    positions = {name: i for i, name in enumerate(order)}
    uses: Dict[str, List[int]] = {name: [] for name in order}
    for name in order:
        for arg in cdfg.op(name).args:
            uses[arg].append(positions[name])
    alloc.set_uses(uses)

    emit_map = _EMITTERS
    for position, name in enumerate(order):
        op = cdfg.op(name)
        if name in fused_inner:
            continue  # folded into its consumer's custom instruction
        if op.kind is OpKind.INPUT:
            continue  # loaded lazily by the allocator
        if op.kind is OpKind.CONST:
            alloc.mark_clean(name, "const", _to_signed(op.value))
            continue
        if op.kind is OpKind.OUTPUT:
            src = op.args[0]
            reg = alloc.ensure_in_reg(src, [])
            emit(f"sw r{reg}, {output_addrs[name]}(r0)", f"output {name}")
            alloc.drop_if_dead(src, position)
            continue
        if name in fusions:
            _emit_fusion(fusions[name], alloc, emit, position)
            alloc.drop_if_dead(op.name, position)
            continue
        emitter = emit_map.get(op.kind)
        if emitter is None:
            raise CodegenError(f"op kind {op.kind} not supported by codegen")
        emitter(op, alloc, emit, position)
        for arg in op.args:
            alloc.drop_if_dead(arg, position)
        alloc.drop_if_dead(op.name, position)  # frees never-used results

    emit("halt")
    asm = "\n".join(lines) + "\n"
    program = assemble(asm, isa, origin=origin)
    return CompiledKernel(
        cdfg_name=cdfg.name,
        asm=asm,
        program=program,
        input_addrs=input_addrs,
        output_addrs=output_addrs,
        spill_slots=len(alloc.spill_slot),
    )


def _to_signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def _emit_fusion(
    fusion: Fusion, alloc: _Allocator, emit, position: int
) -> None:
    ra = alloc.ensure_in_reg(fusion.externals[0], [])
    if len(fusion.externals) == 2:
        rb = alloc.ensure_in_reg(fusion.externals[1], [ra])
    else:
        rb = 0
    rd = alloc.alloc_dest(fusion.outer, [ra, rb])
    emit(
        f"{fusion.mnemonic} r{rd}, r{ra}, r{rb}",
        f"fused {fusion.inner}+{fusion.outer}",
    )
    for ext in fusion.externals:
        alloc.drop_if_dead(ext, position)


_SIMPLE_BINOPS = {
    OpKind.ADD: "add", OpKind.SUB: "sub", OpKind.MUL: "mul",
    OpKind.DIV: "div", OpKind.MOD: "mod", OpKind.AND: "and",
    OpKind.OR: "or", OpKind.XOR: "xor", OpKind.SHL: "sll",
    OpKind.SHR: "srl",
}


def _emit_binop(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rb = alloc.ensure_in_reg(op.args[1], [ra])
    rd = alloc.alloc_dest(op.name, [ra, rb])
    emit(f"{_SIMPLE_BINOPS[op.kind]} r{rd}, r{ra}, r{rb}", op.name)


def _emit_not(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rd = alloc.alloc_dest(op.name, [ra])
    emit(f"sub r{rd}, r0, r{ra}", f"{op.name}: ~a = -a - 1")
    emit(f"addi r{rd}, r{rd}, -1")


def _emit_neg(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rd = alloc.alloc_dest(op.name, [ra])
    emit(f"sub r{rd}, r0, r{ra}", op.name)


def _emit_compare(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rb = alloc.ensure_in_reg(op.args[1], [ra])
    rd = alloc.alloc_dest(op.name, [ra, rb])
    kind = op.kind
    if kind is OpKind.LT:
        emit(f"slt r{rd}, r{ra}, r{rb}", op.name)
    elif kind is OpKind.GT:
        emit(f"slt r{rd}, r{rb}, r{ra}", op.name)
    elif kind is OpKind.GE:
        emit(f"slt r{rd}, r{ra}, r{rb}", op.name)
        emit(f"xori r{rd}, r{rd}, 1")
    elif kind is OpKind.LE:
        emit(f"slt r{rd}, r{rb}, r{ra}", op.name)
        emit(f"xori r{rd}, r{rd}, 1")
    elif kind is OpKind.EQ:
        emit(f"sub r{rd}, r{ra}, r{rb}", op.name)
        emit(f"sltu r{rd}, r0, r{rd}")
        emit(f"xori r{rd}, r{rd}, 1")
    elif kind is OpKind.NE:
        emit(f"sub r{rd}, r{ra}, r{rb}", op.name)
        emit(f"sltu r{rd}, r0, r{rd}")


def _emit_mux(op: Op, alloc: _Allocator, emit, position: int) -> None:
    """Branch-free select: res = b ^ ((a ^ b) & -(cond != 0))."""
    rc = alloc.ensure_in_reg(op.args[0], [])
    ra = alloc.ensure_in_reg(op.args[1], [rc])
    rb = alloc.ensure_in_reg(op.args[2], [rc, ra])
    rd = alloc.alloc_dest(op.name, [rc, ra, rb])
    emit(f"sltu r{SCRATCH}, r0, r{rc}", f"{op.name}: cond != 0")
    emit(f"sub r{SCRATCH}, r0, r{SCRATCH}", "mask = 0 or ~0")
    emit(f"xor r{rd}, r{ra}, r{rb}")
    emit(f"and r{rd}, r{rd}, r{SCRATCH}")
    emit(f"xor r{rd}, r{rd}, r{rb}")


def _emit_load(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rd = alloc.alloc_dest(op.name, [ra])
    emit(f"lw r{rd}, 0(r{ra})", op.name)


def _emit_store(op: Op, alloc: _Allocator, emit, position: int) -> None:
    ra = alloc.ensure_in_reg(op.args[0], [])
    rv = alloc.ensure_in_reg(op.args[1], [ra])
    emit(f"sw r{rv}, 0(r{ra})", op.name)
    # the store op's "result" is the stored value; alias it
    rd = alloc.alloc_dest(op.name, [ra, rv])
    emit(f"add r{rd}, r{rv}, r0", f"{op.name} result alias")


_EMITTERS = {
    **{kind: _emit_binop for kind in _SIMPLE_BINOPS},
    OpKind.NOT: _emit_not,
    OpKind.NEG: _emit_neg,
    OpKind.LT: _emit_compare,
    OpKind.LE: _emit_compare,
    OpKind.EQ: _emit_compare,
    OpKind.NE: _emit_compare,
    OpKind.GE: _emit_compare,
    OpKind.GT: _emit_compare,
    OpKind.MUX: _emit_mux,
    OpKind.LOAD: _emit_load,
    OpKind.STORE: _emit_store,
}
