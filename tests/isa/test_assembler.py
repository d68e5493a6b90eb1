"""Tests for the two-pass assembler."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.assembler import (
    ADDRESS_LIMIT,
    MAX_IMAGE_WORDS,
    AssemblerError,
    assemble,
)
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import PSEUDO_OPS, CustomOp, Isa, Opcode


def run_program(text, isa=None, max_instructions=100_000):
    isa = isa or Isa()
    prog = assemble(text, isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = Cpu(isa, mem, pc=prog.entry)
    cpu.run(max_instructions=max_instructions)
    return cpu, mem, prog


class TestBasics:
    def test_simple_program_assembles_and_runs(self):
        cpu, _mem, _prog = run_program("""
            addi r1, r0, 10
            addi r2, r0, 32
            add  r3, r1, r2
            halt
        """)
        assert cpu.get_reg(3) == 42

    def test_comments_and_blank_lines_ignored(self):
        prog = assemble("""
            ; a comment
            # another
            addi r1, r0, 1   ; trailing
            halt
        """)
        assert prog.size == 2

    def test_labels_resolve(self):
        cpu, _m, _p = run_program("""
                addi r1, r0, 0
                j skip
                addi r1, r0, 99   ; must be skipped
            skip:
                addi r1, r1, 5
                halt
        """)
        assert cpu.get_reg(1) == 5

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\na:\nhalt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere\nhalt")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("bogus r1, r2, r3")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r99, r2")

    def test_register_aliases(self):
        cpu, _m, _p = run_program("""
            addi ra, zero, 7
            add  r1, ra, zero
            halt
        """)
        assert cpu.get_reg(1) == 7
        assert cpu.get_reg(15) == 7


class TestBranches:
    def test_loop_counts(self):
        cpu, _m, _p = run_program("""
                addi r1, r0, 0      ; i = 0
                addi r2, r0, 5      ; n = 5
            loop:
                beq  r1, r2, done
                addi r1, r1, 1
                j loop
            done:
                halt
        """)
        assert cpu.get_reg(1) == 5

    def test_all_branch_kinds(self):
        cpu, _m, _p = run_program("""
                addi r1, r0, -3
                addi r2, r0, 4
                addi r5, r0, 0
                blt  r1, r2, a      ; signed -3 < 4: taken
                halt
            a:  addi r5, r5, 1
                bge  r2, r1, b      ; 4 >= -3: taken
                halt
            b:  addi r5, r5, 1
                bne  r1, r2, c      ; taken
                halt
            c:  addi r5, r5, 1
                halt
        """)
        assert cpu.get_reg(5) == 3

    def test_backward_branch(self):
        cpu, _m, _p = run_program("""
                addi r1, r0, 3
            again:
                addi r1, r1, -1
                bne  r1, r0, again
                halt
        """)
        assert cpu.get_reg(1) == 0


class TestCallsAndMemory:
    def test_jal_jr_calling_convention(self):
        cpu, _m, _p = run_program("""
                addi r1, r0, 20
                jal  double
                add  r4, r2, r0
                halt
            double:
                add  r2, r1, r1
                jr   ra
        """)
        assert cpu.get_reg(4) == 40

    def test_load_store(self):
        cpu, mem, _p = run_program("""
                addi r1, r0, 123
                sw   r1, 0x200(r0)
                lw   r2, 0x200(r0)
                halt
        """)
        assert mem.ram[0x200] == 123
        assert cpu.get_reg(2) == 123

    def test_memory_operand_with_label(self):
        cpu, _m, _p = run_program("""
                lw   r1, table(r0)
                halt
            .org 0x80
            table:
            .word 777
        """)
        assert cpu.get_reg(1) == 777


class TestDirectivesAndPseudos:
    def test_org_and_word(self):
        prog = assemble("""
            .org 0x10
            .word 1, 2, 0xdeadbeef
        """)
        assert prog.image[0x10] == 1
        assert prog.image[0x12] == 0xDEADBEEF

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".org 0x10\n.org 0x5\n")

    def test_space_reserves_zeroed_words(self):
        prog = assemble(".space 3")
        assert [prog.image[i] for i in range(3)] == [0, 0, 0]

    def test_overlapping_emission_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 1\n.org 0\n.word 2\n")

    def test_li_small_is_one_word(self):
        prog = assemble("li r1, 100\nhalt")
        assert prog.size == 2

    def test_li_large_is_two_words(self):
        cpu, _m, prog = run_program("li r1, 0x12345678\nhalt")
        assert cpu.get_reg(1) == 0x12345678
        assert prog.size == 3

    def test_li_negative(self):
        cpu, _m, _p = run_program("li r1, -5\naddi r1, r1, 5\nhalt")
        assert cpu.get_reg(1) == 0

    def test_li_large_negative(self):
        cpu, _m, _p = run_program("li r1, -100000\nhalt")
        assert cpu.get_reg(1) == (-100000) & 0xFFFFFFFF

    def test_la_loads_label_address(self):
        cpu, _m, prog = run_program("""
                la r1, data
                lw r2, 0(r1)
                halt
            data: .word 55
        """)
        assert cpu.get_reg(1) == prog.symbols["data"]
        assert cpu.get_reg(2) == 55

    def test_mov_and_nop(self):
        cpu, _m, _p = run_program("""
            addi r1, r0, 9
            nop
            mov  r2, r1
            halt
        """)
        assert cpu.get_reg(2) == 9


class TestRangeErrors:
    """Out-of-range operands name their line instead of escaping as a
    bare ValueError from the encoder or wrapping silently."""

    @pytest.mark.parametrize("source,lineno,message", [
        ("addi r1, r0, 100000", 1, "imm16 100000 out of range"),
        ("halt\nlw r2, 99999(r1)", 2, "imm16 99999 out of range"),
        ("nop\nnop\nlui r1, 70000", 3, "imm16 70000 out of range"),
        ("jal 99999999", 1, "imm24 99999999 out of range"),
        (".word 1\n.word 0x1FFFFFFFF", 2, "does not fit in 32 bits"),
        (".word -2147483649", 1, "does not fit in 32 bits"),
        ("li r1, 0x1FFFFFFFF", 1, "does not fit in 32 bits"),
        ("nop\nli r1, -2147483649", 2, "does not fit in 32 bits"),
    ])
    def test_out_of_range_operand_names_its_line(self, source, lineno,
                                                  message):
        with pytest.raises(AssemblerError, match=message) as info:
            assemble(source)
        assert info.value.lineno == lineno
        assert str(info.value).startswith(f"line {lineno}: ")

    @pytest.mark.parametrize("source,lineno,message", [
        (".org 0x100000000\nhalt", 1, "past the 32-bit address space"),
        (".org 0xFFFFFFFF\nhalt\nhalt", 3,
         "at 0x100000000 run past the 32-bit address space"),
        (".org 0xFFFFFFFF\nli r1, 0x12345678", 2,
         "2 word.s. at 0xffffffff run past"),
        (".org 0xFFFFFFFE\n.word 1, 2, 3", 2, "run past the 32-bit"),
        (".org 0xFFFFFFF0\n.space 17", 2, "run past the 32-bit"),
        (".space 0x1FFFFFFFF", 1, "run past the 32-bit"),
        (".space 99999999", 1, f"image exceeds {MAX_IMAGE_WORDS} words"),
        (f".space {MAX_IMAGE_WORDS}\nhalt", 2, "image exceeds"),
        ("la r1, end\n.org 0xFFFFFFFF\nhalt\nend:", 1,
         "'end' does not fit in 32 bits"),
        ("la r2, 0x100000000", 1, "does not fit in 32 bits"),
        ("addi r\u00b2, r0, 1", 1, "bad register"),
    ])
    def test_nothing_is_placed_past_the_address_space(self, source,
                                                      lineno, message):
        with pytest.raises(AssemblerError, match=message) as info:
            assemble(source)
        assert info.value.lineno == lineno

    def test_the_last_word_of_the_address_space_is_usable(self):
        prog = assemble(".org 0xFFFFFFFF\nhalt")
        assert list(prog.image) == [ADDRESS_LIMIT - 1]
        assert len(assemble(f".space {MAX_IMAGE_WORDS}").image) \
            == MAX_IMAGE_WORDS

    def test_word_and_li_take_signed_and_unsigned_32_bit_values(self):
        prog = assemble(".word 0xFFFFFFFF, -2147483648, -1")
        assert [prog.image[i] for i in range(3)] == \
            [0xFFFFFFFF, 0x80000000, 0xFFFFFFFF]
        cpu, _m, _p = run_program("li r1, 0xFFFFFFFF\n"
                                  "li r2, -2147483648\nhalt")
        assert cpu.get_reg(1) == 0xFFFFFFFF
        assert cpu.get_reg(2) == 0x80000000


class TestCustomInstructions:
    def test_custom_mnemonic_assembles(self):
        isa = Isa(customs=[CustomOp("sad", 0x80,
                                    lambda a, b: abs(a - b) & 0xFFFFFFFF)])
        cpu, _m, _p = run_program("""
            addi r1, r0, 3
            addi r2, r0, 10
            sad  r3, r1, r2
            halt
        """, isa=isa)
        assert cpu.get_reg(3) == 7


    @pytest.mark.parametrize("name", ["mac", "fx_0a1b2c3d"])
    def test_every_installable_name_assembles(self, name):
        isa = Isa(customs=[CustomOp(name, 0x80, lambda a, b: a + b)])
        cpu, _m, _p = run_program(f"""
            addi r1, r0, 3
            addi r2, r0, 4
            {name.upper()} r3, r1, r2
            halt
        """, isa=isa)
        assert cpu.get_reg(3) == 7

    def test_pseudo_ops_keep_their_expansion(self):
        """No custom op can take a pseudo-op's name, so ``nop`` stays
        ``add r0, r0, r0`` on every ISA."""
        with pytest.raises(ValueError, match="pseudo-op 'nop'"):
            Isa(customs=[CustomOp("nop", 0x80, lambda a, b: a)])
        isa = Isa()
        assert assemble("nop", isa).image == {0: 0x01000000}
        lines = {"nop": "nop", "mov": "mov r1, r2", "li": "li r1, 5",
                 "la": "la r1, 0"}
        assert set(lines) == PSEUDO_OPS
        for mnemonic, line in lines.items():
            assert mnemonic.upper() not in Opcode.__members__
            assert assemble(line, isa).image


class TestListing:
    def test_listing_disassembles(self):
        isa = Isa()
        prog = assemble("addi r1, r0, 4\nhalt", isa)
        listing = prog.listing(isa)
        assert "addi r1, r0, 4" in listing
        assert "halt" in listing


# ----------------------------------------------------------------------
# fuzzing: random lines of every form must assemble or fail precisely
# ----------------------------------------------------------------------
MNEMONICS = [op.name.lower() for op in Opcode] + ["li", "la", "mov", "nop"]
DIRECTIVES = [".org", ".word", ".space", ".bss"]
REGISTERS = [f"r{i}" for i in range(16)] + [
    "R7", "zero", "ra", "sp", "SP", "r16", "r99", "r-1", "x3", "r",
    "r\u00b2", "r 1"]
LABELS = ["start", "loop", "data", "_tail", "end"]

#: field edges, 32-bit edges, past 2**32, and sizes far past the image
#: bound — large draws are the point, none are filtered out
EDGES = [
    0x7FFF, 0x8000, 0xFFFF, 0x10000, -0x8000, -0x8001, 0x7FFFFF,
    0x800000, 0xFFFFFF, 0x1000000, -0x800001, 0x7FFFFFFF, 0x80000000,
    0xFFFFFFFE, 0xFFFFFFFF, ADDRESS_LIMIT, ADDRESS_LIMIT + 1,
    0x1FFFFFFFF, 99999999, MAX_IMAGE_WORDS - 1, MAX_IMAGE_WORDS,
    MAX_IMAGE_WORDS + 1, -0x80000000, -0x80000001, 10 ** 30,
]
value_st = st.one_of(st.integers(-40, 40), st.sampled_from(EDGES),
                     st.integers(-(2 ** 40), 2 ** 40))


def spell(value, form):
    if form == "hex":
        return f"{'-' if value < 0 else ''}{abs(value):#x}"
    return str(value)


number_st = st.builds(spell, value_st, st.sampled_from(["dec", "hex"]))
operand_st = st.one_of(
    st.sampled_from(REGISTERS),
    number_st,
    st.sampled_from(LABELS + ["nowhere"]),
    st.builds("{}({})".format,
              st.one_of(number_st, st.sampled_from(LABELS)),
              st.sampled_from(REGISTERS)),
    st.text(max_size=6),
)
statement_st = st.builds(
    lambda label, head, operands: (
        (f"{label}: " if label else "") + head
        + (" " + ", ".join(operands) if operands else "")),
    st.one_of(st.none(), st.sampled_from(LABELS)),
    st.sampled_from(MNEMONICS + DIRECTIVES),
    st.lists(operand_st, max_size=4),
)
line_st = st.one_of(
    statement_st,
    st.builds("{}:".format, st.sampled_from(LABELS)),
    st.just("; a comment"),
    st.just(""),
    st.text(max_size=12),
)


class TestFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=st.lists(line_st, min_size=1, max_size=12))
    def test_random_source_assembles_or_names_its_line(self, lines):
        source = "\n".join(lines)
        try:
            prog = assemble(source)
        except AssemblerError as exc:
            assert 1 <= exc.lineno <= len(source.splitlines())
            assert str(exc).startswith(f"line {exc.lineno}: ")
        else:
            assert all(0 <= addr < ADDRESS_LIMIT for addr in prog.image)
            assert all(0 <= word <= 0xFFFFFFFF
                       for word in prog.image.values())
            assert len(prog.image) <= MAX_IMAGE_WORDS
