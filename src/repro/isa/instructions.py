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

What each base opcode computes is written once, in :data:`SEMANTICS`;
the one code generator both execution engines run
(:mod:`repro.isa.emit`) builds every instruction from it.

Opcodes ``0x80``-``0xFF`` are the *custom instruction* space: an ASIP
derivative of R32 binds these to application-specific functional units
(Section 4.3/4.4 of the paper; PEAS-I [14], instruction-set metamorphosis
[15]).  The base ISA traps on them unless an implementation is installed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro import _domain

MASK32 = 0xFFFFFFFF
N_REGS = 16
LINK_REG = 15
#: every register but r0, as a bit mask: r0 reads as zero whatever its
#: slot holds, so no engine ever reads it
ALL_REGS = (1 << N_REGS) - 2
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


class CpuError(RuntimeError):
    """Raised for illegal instructions or execution faults."""


def _signed(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def _div(a: int, b: int) -> int:
    """Signed division truncating toward zero; traps on a zero divisor."""
    sa, sb = _signed(a), _signed(b)
    if sb == 0:
        raise CpuError("division by zero")
    q = abs(sa) // abs(sb)
    return q if (sa >= 0) == (sb >= 0) else -q


def _mod(a: int, b: int) -> int:
    """Signed remainder with the dividend's sign; traps on a zero divisor."""
    sa, sb = _signed(a), _signed(b)
    if sb == 0:
        raise CpuError("modulo by zero")
    r = abs(sa) % abs(sb)
    return r if sa >= 0 else -r


@dataclass(frozen=True)
class Semantics:
    """One row of :data:`SEMANTICS`: an opcode's format, default cycles
    and meaning.

    ``value`` (ALU ops) is the word written to ``rd``, a Python
    expression over ``{a}`` (rs1's value), ``{b}`` (rs2's value) and
    ``{imm}`` (the decoded, sign-extended immediate).  ``taken``
    (branches) is the condition over ``{l}`` (rd's value) and ``{a}``.
    Loads, stores, jumps, ``reti`` and ``halt`` have neither: what they
    do is control and memory glue, written once, in the code generator
    both engines run (:mod:`repro.isa.emit`).

    ``reads`` and ``writes`` name the registers the row reads and
    writes, glue included, as operand fields (``"rd"``, ``"rs1"``,
    ``"rs2"``) or fixed register numbers (JAL's :data:`LINK_REG`).  A
    read is a register whose value can change the result; an
    instruction that retires replaces the whole of each register it
    writes (one that traps writes none).  :meth:`Isa.register_masks`
    turns them into bit masks for one decoded instruction.
    """

    fmt: Format
    cycles: int = 1
    value: Optional[str] = None
    taken: Optional[str] = None
    #: may raise, so it is evaluated after the state commit even when
    #: rd is r0
    raises: bool = False
    #: ends a basic block of the translated tier
    ends_block: bool = False
    #: the registers read: operand field names or register numbers
    reads: Tuple[Union[str, int], ...] = ()
    #: the registers written, in the same form
    writes: Tuple[Union[str, int], ...] = ()


_R, _I, _J = Format.R, Format.I, Format.J
#: register access of the rows whose expressions read ``{a}`` and
#: ``{b}`` (R-type ALU), ``{a}`` alone (I-type ALU, LW) or ``{l}`` and
#: ``{a}`` (branches)
_AB = dict(reads=("rs1", "rs2"), writes=("rd",))
_A = dict(reads=("rs1",), writes=("rd",))
_LA = dict(reads=("rd", "rs1"))

#: The R32 semantics table: one row per base opcode, the one place
#: that says what each computes.  The code generator
#: (:mod:`repro.isa.emit`) pastes operand text into its strings
#: (registers as ``regs[i]``, r0 as ``0``, the immediate as a literal)
#: for both engines, so every expression is written the way generated
#: code should run it:
#:
#: * every placeholder is parenthesised, so negative immediates and
#:   subscripts compose, and CPython's constant folder reduces
#:   ``addi rd, r0, k`` and ``lui rd, k`` to stored constants;
#: * register values are words in ``[0, 2**32)``, so a result is
#:   masked only when it can leave that range, and a signed compare
#:   flips the sign bit of both sides (``x ^ 0x80000000`` orders words
#:   as their two's-complement values) instead of sign-extending;
#: * no builtin calls: ``1 if x < y else 0``, not ``int(x < y)``.
SEMANTICS: Dict[int, Semantics] = {
    Opcode.ADD: Semantics(_R, value="(({a}) + ({b})) & 0xFFFFFFFF", **_AB),
    Opcode.SUB: Semantics(_R, value="(({a}) - ({b})) & 0xFFFFFFFF", **_AB),
    Opcode.MUL: Semantics(_R, 4, "(({a}) * ({b})) & 0xFFFFFFFF", **_AB),
    Opcode.DIV: Semantics(_R, 12, "_div(({a}), ({b})) & 0xFFFFFFFF",
                          raises=True, **_AB),
    Opcode.MOD: Semantics(_R, 12, "_mod(({a}), ({b})) & 0xFFFFFFFF",
                          raises=True, **_AB),
    Opcode.AND: Semantics(_R, value="({a}) & ({b})", **_AB),
    Opcode.OR: Semantics(_R, value="({a}) | ({b})", **_AB),
    Opcode.XOR: Semantics(_R, value="({a}) ^ ({b})", **_AB),
    Opcode.SLL: Semantics(_R, value="(({a}) << (({b}) & 31)) & 0xFFFFFFFF",
                          **_AB),
    Opcode.SRL: Semantics(_R, value="({a}) >> (({b}) & 31)", **_AB),
    Opcode.SRA: Semantics(_R, value="(((({a}) ^ 0x80000000) - 0x80000000)"
                                    " >> (({b}) & 31)) & 0xFFFFFFFF", **_AB),
    Opcode.SLT: Semantics(_R, value="1 if (({a}) ^ 0x80000000)"
                                    " < (({b}) ^ 0x80000000) else 0", **_AB),
    Opcode.SLTU: Semantics(_R, value="1 if ({a}) < ({b}) else 0", **_AB),
    Opcode.ADDI: Semantics(_I, value="(({a}) + ({imm})) & 0xFFFFFFFF", **_A),
    Opcode.ANDI: Semantics(_I, value="({a}) & (({imm}) & 0xFFFF)", **_A),
    Opcode.ORI: Semantics(_I, value="({a}) | (({imm}) & 0xFFFF)", **_A),
    Opcode.XORI: Semantics(_I, value="({a}) ^ (({imm}) & 0xFFFF)", **_A),
    Opcode.SLLI: Semantics(_I, value="(({a}) << (({imm}) & 31))"
                                     " & 0xFFFFFFFF", **_A),
    Opcode.SRLI: Semantics(_I, value="({a}) >> (({imm}) & 31)", **_A),
    Opcode.SLTI: Semantics(_I, value="1 if (({a}) ^ 0x80000000)"
                                     " < ({imm}) + 0x80000000 else 0", **_A),
    # the one ALU row that reads no register
    Opcode.LUI: Semantics(_I, value="(({imm}) & 0xFFFF) << 16",
                          writes=("rd",)),
    Opcode.LW: Semantics(_I, 2, **_A),  # address base rs1
    Opcode.SW: Semantics(_I, 2, reads=("rs1", "rd")),  # rd: the data
    Opcode.BEQ: Semantics(_I, taken="({l}) == ({a})", ends_block=True,
                          **_LA),
    Opcode.BNE: Semantics(_I, taken="({l}) != ({a})", ends_block=True,
                          **_LA),
    Opcode.BLT: Semantics(_I, taken="(({l}) ^ 0x80000000)"
                                    " < (({a}) ^ 0x80000000)",
                          ends_block=True, **_LA),
    Opcode.BGE: Semantics(_I, taken="(({l}) ^ 0x80000000)"
                                    " >= (({a}) ^ 0x80000000)",
                          ends_block=True, **_LA),
    Opcode.J: Semantics(_J, ends_block=True),
    Opcode.JAL: Semantics(_J, 2, ends_block=True, writes=(LINK_REG,)),
    Opcode.JR: Semantics(_I, ends_block=True, reads=("rs1",)),  # to rs1
    Opcode.RETI: Semantics(_J, 2, ends_block=True),
    Opcode.HALT: Semantics(_J, ends_block=True),
}


def _mask(instr: Instruction, fields: Tuple[Union[str, int], ...]) -> int:
    """The registers ``fields`` (:attr:`Semantics.reads` or
    :attr:`~Semantics.writes`) name in ``instr``, as a bit mask without
    r0."""
    bits = 0
    for field in fields:
        bits |= 1 << (field if isinstance(field, int)
                      else getattr(instr, field))
    return bits & ALL_REGS


#: The names the table's expressions call, for the generated code's
#: namespace.
HELPERS = {"_div": _div, "_mod": _mod}

FORMATS: Dict[int, Format] = {op: row.fmt for op, row in SEMANTICS.items()}
#: Default cycle costs; an :class:`Isa` may override.
DEFAULT_CYCLES: Dict[int, int] = {
    op: row.cycles for op, row in SEMANTICS.items()
}

#: Assembler pseudo-ops: expanded before custom ops are looked up, so
#: no custom op may take one of these names.
PSEUDO_OPS = frozenset(("nop", "mov", "li", "la"))
_MNEMONIC_RE = re.compile(r"[a-z_][a-z0-9_]*")


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
        _domain.count("custom opcode", self.opcode, CUSTOM_BASE, 0x100)
        _domain.count("cycles", self.cycles, 1)
        _domain.real("area", self.area, least=0)


class _CycleMap(dict):
    """The ISA's opcode→cycles override table, invalidation-aware.

    Behaves exactly like the plain dict it replaces, but every mutating
    method (:data:`_CYCLE_MUTATORS`) bumps the owning :class:`Isa`'s
    :attr:`~Isa.version`, so the memoized :meth:`Isa.cycle_table` (and
    any cache keyed on the version) can never serve stale timing.
    """

    def __init__(self, isa: "Isa", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._isa = isa


_CYCLE_MUTATORS = ("__setitem__", "__delitem__", "__ior__", "update", "pop",
                   "popitem", "clear", "setdefault")


def _bumping(method: Callable) -> Callable:
    def bump(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        self._isa.version += 1
        return result

    bump.__name__ = method.__name__
    return bump


for _name in _CYCLE_MUTATORS:
    setattr(_CycleMap, _name, _bumping(getattr(dict, _name)))


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
    could invalidate either — :meth:`add_custom`, each mutating method
    of :attr:`cycles` and assigning :attr:`cycles` — so caches key on
    it.  The interpreted tier's per-word operand cache lives here too,
    so every CPU on one ISA shares it.
    """

    def __init__(self, name: str = "r32") -> None:
        self.name = name
        self._customs: Dict[int, CustomOp] = {}
        self._custom_by_name: Dict[str, CustomOp] = {}
        #: bumped on any change to decode or timing behavior
        self.version = 0
        self._cycles: Dict[int, int] = _CycleMap(self, DEFAULT_CYCLES)
        self._decode_cache: Dict[int, Instruction] = {}
        self._cycle_table: Optional[Dict[int, int]] = None
        self._cycle_table_version = -1
        #: word -> its compiled one-instruction function
        #: (:func:`repro.isa.emit.word_function`), filled by the
        #: interpreted tier (``Cpu._predecode``) and valid for
        #: ``_ops_version`` only
        self._ops: Dict[int, Callable] = {}
        self._ops_version = -1

    @property
    def cycles(self) -> Dict[int, int]:
        """The opcode→cycles overrides of the base opcodes.

        Every edit bumps :attr:`version`: each mutating dict method of
        the table, and assigning a new table, which is copied into a
        fresh invalidation-aware map.
        """
        return self._cycles

    @cycles.setter
    def cycles(self, table: Dict[int, int]) -> None:
        self._cycles = _CycleMap(self, table)
        self.version += 1

    def add_custom(self, op: CustomOp) -> CustomOp:
        """Install a custom instruction (R-type).

        Its name must be one the assembler can emit: a lowercase
        identifier (the assembler lowercases every mnemonic) that is no
        base mnemonic, pseudo-op (:data:`PSEUDO_OPS`) or installed
        custom op.
        """
        name = op.name
        if op.opcode in self._customs:
            raise ValueError(f"custom opcode {op.opcode:#x} already in use")
        if not _MNEMONIC_RE.fullmatch(name):
            raise ValueError(
                f"custom op name {name!r} is not a lowercase identifier, "
                "so the assembler could never emit it"
            )
        if name in PSEUDO_OPS:
            raise ValueError(
                f"custom op name {name!r} clashes with the assembler "
                f"pseudo-op {name!r}"
            )
        if name.upper() in Opcode.__members__ or \
                name in self._custom_by_name:
            raise ValueError(f"mnemonic {name!r} already in use")
        self._customs[op.opcode] = op
        self._custom_by_name[name] = op
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

    def register_masks(self, instr: Instruction) -> Tuple[int, int]:
        """The registers ``instr`` reads and writes, as bit masks (bit
        r for register r, never r0).

        A base opcode has its :data:`SEMANTICS` row's sets, a custom op
        reads rs1 and rs2 and writes rd, and any other opcode reads
        every register and writes none.
        """
        op = instr.opcode
        row = SEMANTICS.get(op)
        if row is not None:
            reads, writes = row.reads, row.writes
        elif op in self._customs:  # rd = semantics(rs1, rs2)
            reads, writes = ("rs1", "rs2"), ("rd",)
        else:
            return ALL_REGS, 0
        return _mask(instr, reads), _mask(instr, writes)

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
        return self._cycles.get(opcode, 1)

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
