"""A two-pass assembler for the R32 ISA.

Syntax summary::

    ; full-line or trailing comments (also '#')
    start:                    ; labels
        addi  r1, r0, 10
        lw    r2, 4(r1)       ; loads/stores: imm(base)
        sw    r2, 0(r3)
        beq   r1, r2, done    ; branches take a label (pc-relative encode)
        jal   func            ; jumps take a label (absolute encode)
        jr    r15
        li    r4, 0x12345678  ; pseudo: load 32-bit immediate
        la    r5, table       ; pseudo: load address of label
        mov   r6, r4          ; pseudo: add r6, r4, r0
        nop                   ; pseudo: add r0, r0, r0
        halt
    .org  0x100               ; set location counter (words)
    table:
    .word 1, 2, 0xdead        ; literal data words
    .space 4                  ; reserve zeroed words

Addresses are *word* addresses; the location counter advances by one per
instruction or data word.  Custom instructions installed on the
:class:`repro.isa.instructions.Isa` assemble like R-type ops by their
mnemonic.

Every error is an :class:`AssemblerError` naming its source line.  R32
addresses are 32-bit, so nothing is placed at ``2**32`` or above, and
an image holds at most :data:`MAX_IMAGE_WORDS` words; a directive that
would break either limit fails before it places a word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    PSEUDO_OPS, Format, Instruction, Isa, Opcode,
)


class AssemblerError(ValueError):
    """Raised with a line number for any assembly problem."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Program:
    """An assembled memory image.

    ``image`` maps word address to 32-bit word.  ``symbols`` maps label to
    word address.  ``source_map`` maps instruction address back to the
    source line for profiling and disassembly listings.
    """

    image: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    source_map: Dict[int, int] = field(default_factory=dict)
    entry: int = 0

    @property
    def size(self) -> int:
        """Number of occupied memory words (code + data)."""
        return len(self.image)

    def listing(self, isa: Isa) -> str:
        """Disassembly listing of the whole image."""
        lines = []
        for addr in sorted(self.image):
            word = self.image[addr]
            try:
                text = isa.disassemble(isa.decode(word))
            except ValueError:
                text = f".word {word:#010x}"
            lines.append(f"{addr:6d}: {word:08x}  {text}")
        return "\n".join(lines)


#: One past the highest word address: R32 addresses are 32-bit.
ADDRESS_LIMIT = 1 << 32
#: Most words one image may hold (256 KiB of 32-bit words).  ``.space``
#: is the one directive that places words without a source token for
#: each, so this is what bounds the memory and time assembling takes.
MAX_IMAGE_WORDS = 1 << 16

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_REG_RE = re.compile(r"^r([0-9]+)$")
_MEM_RE = re.compile(r"^(-?\w+)\((r\d+|zero|ra|sp)\)$")

REG_ALIASES = {"zero": 0, "ra": 15, "sp": 14}


def _parse_reg(tok: str, lineno: int) -> int:
    tok = tok.lower()
    if tok in REG_ALIASES:
        return REG_ALIASES[tok]
    match = _REG_RE.match(tok)
    if match and int(match.group(1)) < 16:
        return int(match.group(1))
    raise AssemblerError(lineno, f"bad register {tok!r}")


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AssemblerError(lineno, f"bad integer {tok!r}") from None


def _parse_word(tok: str, lineno: int) -> int:
    """A 32-bit data word: signed or unsigned, so [-2**31, 2**32)."""
    value = _parse_int(tok, lineno)
    if not -0x80000000 <= value <= 0xFFFFFFFF:
        raise AssemblerError(lineno, f"{tok!r} does not fit in 32 bits")
    return value & 0xFFFFFFFF


@dataclass
class _Item:
    """One location-counter entry produced by pass 1."""

    addr: int
    lineno: int
    kind: str  # 'instr' | 'word'
    mnemonic: str = ""
    operands: Tuple[str, ...] = ()
    value: int = 0


def _tokenize_operands(rest: str) -> List[str]:
    return [tok.strip() for tok in rest.split(",")] if rest.strip() else []


def assemble(text: str, isa: Optional[Isa] = None, origin: int = 0) -> Program:
    """Assemble R32 source text into a :class:`Program`."""
    isa = isa or Isa()
    items, symbols = _pass1(text, isa, origin)
    return _pass2(items, symbols, isa, origin)


def _pass1(
    text: str, isa: Isa, origin: int
) -> Tuple[List[_Item], Dict[str, int]]:
    if not 0 <= origin < ADDRESS_LIMIT:
        raise ValueError(f"origin {origin} is not a 32-bit address")
    loc = origin
    placed = 0  # words in the image so far
    items: List[_Item] = []
    symbols: Dict[str, int] = {}

    def reserve(count: int) -> int:
        """Claim ``count`` words at the location counter, checking both
        limits before anything is placed; returns the first address."""
        nonlocal loc, placed
        if loc + count > ADDRESS_LIMIT:
            raise AssemblerError(
                lineno, f"{count} word(s) at {loc:#x} run past the "
                        "32-bit address space")
        if placed + count > MAX_IMAGE_WORDS:
            raise AssemblerError(
                lineno, f"image exceeds {MAX_IMAGE_WORDS} words")
        addr = loc
        loc += count
        placed += count
        return addr

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        while line:
            if ":" in line and not line.startswith("."):
                head, _, tail = line.partition(":")
                head = head.strip()
                if _LABEL_RE.match(head):
                    if head in symbols:
                        raise AssemblerError(lineno, f"duplicate label {head!r}")
                    symbols[head] = loc
                    line = tail.strip()
                    continue
            break
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if mnemonic == ".org":
            new_loc = _parse_int(rest.strip(), lineno)
            if new_loc < loc:
                raise AssemblerError(lineno, ".org may not move backwards")
            if new_loc >= ADDRESS_LIMIT:
                raise AssemblerError(
                    lineno, f".org {new_loc:#x} is past the 32-bit "
                            "address space")
            loc = new_loc
        elif mnemonic == ".word":
            for tok in _tokenize_operands(rest):
                value = _parse_word(tok, lineno)
                items.append(_Item(reserve(1), lineno, "word", value=value))
        elif mnemonic == ".space":
            count = _parse_int(rest.strip(), lineno)
            # checked inline, not by repro._domain: the error carries
            # the source line
            if count < 0:
                raise AssemblerError(lineno, ".space count must be >= 0")
            first = reserve(count)
            items.extend(_Item(addr, lineno, "word", value=0)
                         for addr in range(first, first + count))
        else:
            operands = tuple(_tokenize_operands(rest))
            size = _instr_size(mnemonic, operands, isa, lineno)
            items.append(_Item(reserve(size), lineno, "instr", mnemonic,
                               operands))
    return items, symbols


def _instr_size(
    mnemonic: str, operands: Tuple[str, ...], isa: Isa, lineno: int
) -> int:
    """Words occupied by an instruction (pseudo-ops may expand)."""
    if mnemonic == "la":
        return 2
    if mnemonic == "li":
        if len(operands) != 2:
            raise AssemblerError(lineno, "li takes rd, imm32")
        value = _parse_word(operands[1], lineno)
        signed = value - 0x100000000 if value & 0x80000000 else value
        return 1 if -0x8000 <= signed < 0x8000 else 2
    if mnemonic in PSEUDO_OPS:  # mov, nop
        return 1
    try:
        isa.opcode_of(mnemonic)
    except KeyError:
        raise AssemblerError(lineno, f"unknown mnemonic {mnemonic!r}") from None
    return 1


def _pass2(
    items: List[_Item], symbols: Dict[str, int], isa: Isa, origin: int
) -> Program:
    prog = Program(entry=origin, symbols=dict(symbols))
    for item in items:
        if item.kind == "word":
            _emit(prog, item.addr, item.value, item.lineno)
            continue
        for offset, instr in enumerate(
            _expand(item, symbols, isa)
        ):
            try:
                word = isa.encode(instr)
            except ValueError as exc:  # an operand out of its field
                raise AssemblerError(item.lineno, str(exc)) from None
            _emit(prog, item.addr + offset, word, item.lineno)
    return prog


def _emit(prog: Program, addr: int, word: int, lineno: int) -> None:
    if addr in prog.image:
        raise AssemblerError(lineno, f"address {addr} assembled twice")
    prog.image[addr] = word
    prog.source_map[addr] = lineno


def _resolve(tok: str, symbols: Dict[str, int], lineno: int) -> int:
    if _LABEL_RE.match(tok) and tok in symbols:
        return symbols[tok]
    if _LABEL_RE.match(tok) and not tok.lstrip("-").isdigit() \
            and not tok.lower().startswith("0x"):
        # looks like a label but undefined
        try:
            return int(tok, 0)
        except ValueError:
            raise AssemblerError(lineno, f"undefined label {tok!r}") from None
    return _parse_int(tok, lineno)


def _expand(
    item: _Item, symbols: Dict[str, int], isa: Isa
) -> List[Instruction]:
    mn, ops, lineno = item.mnemonic, item.operands, item.lineno

    if mn == "nop":
        _expect(ops, 0, lineno, "nop")
        return [Instruction(Opcode.ADD, 0, 0, 0)]
    if mn == "mov":
        _expect(ops, 2, lineno, "mov rd, rs")
        return [Instruction(Opcode.ADD, _parse_reg(ops[0], lineno),
                            _parse_reg(ops[1], lineno), 0)]
    if mn == "li":
        _expect(ops, 2, lineno, "li rd, imm32")
        rd = _parse_reg(ops[0], lineno)
        value = _parse_word(ops[1], lineno)
        return _load_imm(rd, value, lineno)
    if mn == "la":
        _expect(ops, 2, lineno, "la rd, label")
        rd = _parse_reg(ops[0], lineno)
        value = _resolve(ops[1], symbols, lineno)
        if not -0x80000000 <= value <= 0xFFFFFFFF:
            raise AssemblerError(lineno, f"{ops[1]!r} does not fit in 32 bits")
        seq = _load_imm(rd, value & 0xFFFFFFFF, lineno)
        if len(seq) == 1:
            seq.append(Instruction(Opcode.ADD, rd, rd, 0))  # keep size == 2
        return seq

    opcode = isa.opcode_of(mn)
    fmt = isa.fmt(opcode)

    if opcode in (Opcode.HALT, Opcode.RETI):
        _expect(ops, 0, lineno, mn)
        return [Instruction(opcode)]
    if opcode in (Opcode.J, Opcode.JAL):
        _expect(ops, 1, lineno, f"{mn} target")
        return [Instruction(opcode, imm=_resolve(ops[0], symbols, lineno))]
    if opcode == Opcode.JR:
        _expect(ops, 1, lineno, "jr rs")
        return [Instruction(opcode, rs1=_parse_reg(ops[0], lineno))]
    if opcode in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
        _expect(ops, 3, lineno, f"{mn} ra, rb, target")
        target = _resolve(ops[2], symbols, lineno)
        offset = target - (item.addr + 1)
        if not -0x8000 <= offset < 0x8000:
            raise AssemblerError(lineno, f"branch to {target} out of range")
        return [Instruction(opcode, rd=_parse_reg(ops[0], lineno),
                            rs1=_parse_reg(ops[1], lineno), imm=offset)]
    if opcode in (Opcode.LW, Opcode.SW):
        _expect(ops, 2, lineno, f"{mn} rd, imm(base)")
        match = _MEM_RE.match(ops[1].replace(" ", ""))
        if not match:
            raise AssemblerError(lineno, f"bad memory operand {ops[1]!r}")
        imm = _resolve(match.group(1), symbols, lineno)
        base = _parse_reg(match.group(2), lineno)
        return [Instruction(opcode, rd=_parse_reg(ops[0], lineno),
                            rs1=base, imm=imm)]
    if opcode == Opcode.LUI:
        _expect(ops, 2, lineno, "lui rd, imm16")
        return [Instruction(opcode, rd=_parse_reg(ops[0], lineno),
                            imm=_parse_int(ops[1], lineno))]
    if fmt is Format.R:
        _expect(ops, 3, lineno, f"{mn} rd, rs1, rs2")
        return [Instruction(opcode, rd=_parse_reg(ops[0], lineno),
                            rs1=_parse_reg(ops[1], lineno),
                            rs2=_parse_reg(ops[2], lineno))]
    # generic I-type ALU
    _expect(ops, 3, lineno, f"{mn} rd, rs1, imm")
    return [Instruction(opcode, rd=_parse_reg(ops[0], lineno),
                        rs1=_parse_reg(ops[1], lineno),
                        imm=_resolve(ops[2], symbols, lineno))]


def _load_imm(rd: int, value: int, lineno: int) -> List[Instruction]:
    signed = value - 0x100000000 if value & 0x80000000 else value
    if -0x8000 <= signed < 0x8000:
        return [Instruction(Opcode.ADDI, rd, 0, imm=signed)]
    return [
        Instruction(Opcode.LUI, rd, imm=(value >> 16) & 0xFFFF),
        Instruction(Opcode.ORI, rd, rd, imm=value & 0xFFFF),
    ]


def _expect(ops: Tuple[str, ...], count: int, lineno: int, usage: str) -> None:
    if len(ops) != count:
        raise AssemblerError(lineno, f"expected: {usage}")
