"""The R32 instruction set: definition and binary encoding.

R32 is a small 32-bit RISC ISA in the spirit of the embedded cores of the
paper's era.  Sixteen general registers (``r0`` reads as zero; ``r15`` is
the link register), word-addressed memory, and three instruction formats:

* **R-type** ``op rd, rs1, rs2`` — register ALU operations;
* **I-type** ``op rd, rs1, imm16`` — immediates, loads/stores, branches
  (branches use rd/rs1 as the two compared registers);
* **J-type** ``op imm24`` — jumps and calls.

Binary layout (32 bits)::

    [31:24] opcode   [23:20] rd   [19:16] rs1   [15:12] rs2   [11:0] 0
    [31:24] opcode   [23:20] rd   [19:16] rs1   [15:0]  imm16 (signed)
    [31:24] opcode   [23:0]  imm24 (signed)

Opcodes ``0x80``-``0xFF`` are the *custom instruction* space: an ASIP
derivative of R32 binds these to application-specific functional units
(Section 4.3/4.4 of the paper; PEAS-I [14], instruction-set metamorphosis
[15]).  The base ISA traps on them unless an implementation is installed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

MASK32 = 0xFFFFFFFF
N_REGS = 16
LINK_REG = 15
CUSTOM_BASE = 0x80


class Format(enum.Enum):
    """Instruction encoding formats."""

    R = "r"
    I = "i"  # noqa: E741 - conventional format name
    J = "j"


class Opcode(enum.IntEnum):
    """Base R32 opcodes (custom space starts at :data:`CUSTOM_BASE`)."""

    # R-type ALU
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04
    MOD = 0x05
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    SLL = 0x09
    SRL = 0x0A
    SRA = 0x0B
    SLT = 0x0C
    SLTU = 0x0D
    # I-type ALU
    ADDI = 0x20
    ANDI = 0x21
    ORI = 0x22
    XORI = 0x23
    SLLI = 0x24
    SRLI = 0x25
    SLTI = 0x26
    LUI = 0x27
    # memory
    LW = 0x30
    SW = 0x31
    # control (I-type compares rd and rs1)
    BEQ = 0x40
    BNE = 0x41
    BLT = 0x42
    BGE = 0x43
    # J-type
    J = 0x50
    JAL = 0x51
    JR = 0x52  # I-type: jump to rs1
    # system
    RETI = 0x60
    HALT = 0x7F


FORMATS: Dict[int, Format] = {
    Opcode.ADD: Format.R, Opcode.SUB: Format.R, Opcode.MUL: Format.R,
    Opcode.DIV: Format.R, Opcode.MOD: Format.R, Opcode.AND: Format.R,
    Opcode.OR: Format.R, Opcode.XOR: Format.R, Opcode.SLL: Format.R,
    Opcode.SRL: Format.R, Opcode.SRA: Format.R, Opcode.SLT: Format.R,
    Opcode.SLTU: Format.R,
    Opcode.ADDI: Format.I, Opcode.ANDI: Format.I, Opcode.ORI: Format.I,
    Opcode.XORI: Format.I, Opcode.SLLI: Format.I, Opcode.SRLI: Format.I,
    Opcode.SLTI: Format.I, Opcode.LUI: Format.I,
    Opcode.LW: Format.I, Opcode.SW: Format.I,
    Opcode.BEQ: Format.I, Opcode.BNE: Format.I, Opcode.BLT: Format.I,
    Opcode.BGE: Format.I,
    Opcode.J: Format.J, Opcode.JAL: Format.J, Opcode.JR: Format.I,
    Opcode.RETI: Format.J, Opcode.HALT: Format.J,
}

#: Default cycle costs per opcode family; an :class:`Isa` may override.
DEFAULT_CYCLES: Dict[int, int] = {
    Opcode.MUL: 4,
    Opcode.DIV: 12,
    Opcode.MOD: 12,
    Opcode.LW: 2,
    Opcode.SW: 2,
    Opcode.JAL: 2,
    Opcode.J: 1,
    Opcode.JR: 1,
    Opcode.RETI: 2,
}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    opcode: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def mnemonic(self, isa: "Isa") -> str:
        """Assembly mnemonic for this opcode under ``isa``."""
        return isa.mnemonic(self.opcode)


@dataclass
class CustomOp:
    """An application-specific instruction bound into the custom space.

    ``semantics(a, b) -> result`` defines the operation on two source
    operands; ``cycles`` its latency; ``area`` the silicon cost of the
    functional unit that implements it (used by the ASIP selection tools).
    """

    name: str
    opcode: int
    semantics: Callable[[int, int], int]
    cycles: int = 1
    area: float = 50.0

    def __post_init__(self) -> None:
        if not CUSTOM_BASE <= self.opcode <= 0xFF:
            raise ValueError(
                f"custom opcode {self.opcode:#x} outside custom space"
            )
        if self.cycles < 1:
            raise ValueError("custom op cycles must be >= 1")


class _CycleMap(dict):
    """The ISA's opcode→cycles override table, invalidation-aware.

    Behaves exactly like the plain dict it replaces, but bumps the
    owning :class:`Isa`'s :attr:`~Isa.version` on every mutation so the
    memoized :meth:`Isa.cycle_table` (and any CPU-side cache keyed on
    the version) can never serve stale timing.
    """

    def __init__(self, isa: "Isa", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._isa = isa

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._isa.version += 1

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._isa.version += 1

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._isa.version += 1

    def pop(self, *args):
        result = super().pop(*args)
        self._isa.version += 1
        return result

    def clear(self) -> None:
        super().clear()
        self._isa.version += 1

    def setdefault(self, key, default=None):
        result = super().setdefault(key, default)
        self._isa.version += 1
        return result


class Isa:
    """An R32 ISA variant: base opcodes plus installed custom ops.

    A plain ``Isa()`` is the stock processor; the ASIP tools derive
    variants by :meth:`add_custom` — this object *is* the
    hardware/software boundary of a Type I system, and moving a function
    into a custom instruction is the paper's Section 4.3 form of
    hardware/software partitioning.

    Decoding is memoized per 32-bit word (an executed word decodes to
    the same :class:`Instruction` forever under a fixed custom-op set),
    and the per-opcode timing model can be flattened into one dict by
    :meth:`cycle_table`.  :attr:`version` counts every mutation that
    could invalidate either — installing a custom op or editing
    :attr:`cycles` — so caches key on it.  The CPU fast path's per-word
    operand cache lives here too, so every CPU on one ISA shares it.
    """

    def __init__(self, name: str = "r32") -> None:
        self.name = name
        self._customs: Dict[int, CustomOp] = {}
        self._custom_by_name: Dict[str, CustomOp] = {}
        #: bumped on any change to decode or timing behavior
        self.version = 0
        self.cycles: Dict[int, int] = _CycleMap(self, DEFAULT_CYCLES)
        self._decode_cache: Dict[int, Instruction] = {}
        self._cycle_table: Optional[Dict[int, int]] = None
        self._cycle_table_version = -1
        #: word -> (opcode, rd, rs1, rs2, imm, cycles, Instruction,
        #: custom-semantics-or-None), filled by the CPU fast path
        #: (``Cpu._predecode``) and valid for ``_ops_version`` only
        self._ops: Dict[int, tuple] = {}
        self._ops_version = -1

    def add_custom(self, op: CustomOp) -> CustomOp:
        """Install a custom instruction (R-type)."""
        if op.opcode in self._customs:
            raise ValueError(f"custom opcode {op.opcode:#x} already in use")
        if op.name.upper() in Opcode.__members__ or \
                op.name in self._custom_by_name:
            raise ValueError(f"mnemonic {op.name!r} already in use")
        self._customs[op.opcode] = op
        self._custom_by_name[op.name] = op
        # a formerly-illegal word may now decode; drop the memo table
        self._decode_cache.clear()
        self.version += 1
        return op

    def next_custom_opcode(self) -> int:
        """Lowest free opcode in the custom space."""
        for code in range(CUSTOM_BASE, 0x100):
            if code not in self._customs:
                return code
        raise ValueError("custom opcode space exhausted")

    def custom(self, opcode: int) -> Optional[CustomOp]:
        """The custom op at ``opcode``, or None."""
        return self._customs.get(opcode)

    def custom_by_name(self, name: str) -> Optional[CustomOp]:
        """The custom op with mnemonic ``name``, or None."""
        return self._custom_by_name.get(name)

    @property
    def customs(self) -> Tuple[CustomOp, ...]:
        """All installed custom ops, by opcode order."""
        return tuple(self._customs[k] for k in sorted(self._customs))

    def custom_area(self) -> float:
        """Total functional-unit area of the installed custom ops."""
        return sum(op.area for op in self._customs.values())

    def fmt(self, opcode: int) -> Format:
        """Encoding format of ``opcode`` (custom ops are R-type)."""
        if opcode in self._customs:
            return Format.R
        return FORMATS[Opcode(opcode)]

    def mnemonic(self, opcode: int) -> str:
        """Assembly mnemonic of ``opcode``."""
        if opcode in self._customs:
            return self._customs[opcode].name
        return Opcode(opcode).name.lower()

    def opcode_of(self, mnemonic: str) -> int:
        """Opcode for ``mnemonic`` (base or custom)."""
        upper = mnemonic.upper()
        if upper in Opcode.__members__:
            return int(Opcode[upper])
        op = self._custom_by_name.get(mnemonic)
        if op is not None:
            return op.opcode
        raise KeyError(f"unknown mnemonic {mnemonic!r}")

    def cycles_of(self, opcode: int) -> int:
        """Cycle cost of ``opcode`` under this ISA's timing model."""
        if opcode in self._customs:
            return self._customs[opcode].cycles
        return self.cycles.get(opcode, 1)

    def cycle_table(self) -> Dict[int, int]:
        """The timing model flattened to one opcode→cycles dict.

        Covers every decodable opcode (all base opcodes plus installed
        customs), so an executor may index it with any decoded
        instruction's opcode without a fallback.  Memoized against
        :attr:`version`; treat the returned dict as read-only.
        """
        if self._cycle_table_version != self.version:
            table = {int(op): self.cycles_of(int(op)) for op in Opcode}
            for code in self._customs:
                table[code] = self.cycles_of(code)
            self._cycle_table = table
            self._cycle_table_version = self.version
        return self._cycle_table

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def encode(self, instr: Instruction) -> int:
        """Encode to a 32-bit word."""
        self._check_fields(instr)
        word = (instr.opcode & 0xFF) << 24
        fmt = self.fmt(instr.opcode)
        if fmt is Format.R:
            word |= (instr.rd & 0xF) << 20
            word |= (instr.rs1 & 0xF) << 16
            word |= (instr.rs2 & 0xF) << 12
        elif fmt is Format.I:
            word |= (instr.rd & 0xF) << 20
            word |= (instr.rs1 & 0xF) << 16
            word |= instr.imm & 0xFFFF
        else:
            word |= instr.imm & 0xFFFFFF
        return word

    def decode(self, word: int) -> Instruction:
        """Decode a 32-bit word (memoized per word value).

        The memo table is invalidated when a custom op is installed;
        illegal words are never cached, so they stay re-decodable after
        the custom space grows over them.
        """
        instr = self._decode_cache.get(word)
        if instr is None:
            instr = self.decode_uncached(word)
            self._decode_cache[word] = instr
        return instr

    def decode_uncached(self, word: int) -> Instruction:
        """Decode a 32-bit word without consulting the memo table.

        The reference decode path: :meth:`decode` is defined as a cache
        over exactly this function (asserted by the fast-path
        differential tests and timed by ``benchmarks/test_bench_isa``).
        """
        opcode = (word >> 24) & 0xFF
        if opcode not in self._customs:
            try:
                Opcode(opcode)
            except ValueError:
                raise ValueError(f"illegal opcode {opcode:#x}") from None
        fmt = self.fmt(opcode)
        if fmt is Format.R:
            return Instruction(
                opcode,
                rd=(word >> 20) & 0xF,
                rs1=(word >> 16) & 0xF,
                rs2=(word >> 12) & 0xF,
            )
        if fmt is Format.I:
            imm = word & 0xFFFF
            if imm & 0x8000:
                imm -= 0x10000
            return Instruction(
                opcode,
                rd=(word >> 20) & 0xF,
                rs1=(word >> 16) & 0xF,
                imm=imm,
            )
        imm = word & 0xFFFFFF
        if imm & 0x800000:
            imm -= 0x1000000
        return Instruction(opcode, imm=imm)

    def _check_fields(self, instr: Instruction) -> None:
        for reg in (instr.rd, instr.rs1, instr.rs2):
            if not 0 <= reg < N_REGS:
                raise ValueError(f"register r{reg} out of range")
        fmt = self.fmt(instr.opcode)
        if fmt is Format.I and not -0x8000 <= instr.imm <= 0xFFFF:
            raise ValueError(f"imm16 {instr.imm} out of range")
        if fmt is Format.J and not -0x800000 <= instr.imm <= 0xFFFFFF:
            raise ValueError(f"imm24 {instr.imm} out of range")

    def disassemble(self, instr: Instruction) -> str:
        """Human-readable assembly text for one instruction."""
        mn = self.mnemonic(instr.opcode)
        fmt = self.fmt(instr.opcode)
        if instr.opcode in (Opcode.HALT, Opcode.RETI):
            return mn
        if fmt is Format.R:
            return f"{mn} r{instr.rd}, r{instr.rs1}, r{instr.rs2}"
        if instr.opcode == Opcode.LW:
            return f"{mn} r{instr.rd}, {instr.imm}(r{instr.rs1})"
        if instr.opcode == Opcode.SW:
            return f"{mn} r{instr.rd}, {instr.imm}(r{instr.rs1})"
        if instr.opcode == Opcode.JR:
            return f"{mn} r{instr.rs1}"
        if instr.opcode == Opcode.LUI:
            return f"{mn} r{instr.rd}, {instr.imm}"
        if fmt is Format.I:
            return f"{mn} r{instr.rd}, r{instr.rs1}, {instr.imm}"
        return f"{mn} {instr.imm}"

    def __repr__(self) -> str:
        return f"Isa({self.name!r}, customs={len(self._customs)})"
