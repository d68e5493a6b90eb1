"""Tests for R32 ISA definition and encoding."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.isa.instructions import (
    DEFAULT_CYCLES,
    PSEUDO_OPS,
    CustomOp,
    Format,
    Instruction,
    Isa,
    Opcode,
)

regs = st.integers(0, 15)
imm16 = st.integers(-0x8000, 0x7FFF)
imm24 = st.integers(-0x800000, 0x7FFFFF)

R_OPS = [op for op in Opcode if Isa().fmt(op) is Format.R]
I_OPS = [op for op in Opcode if Isa().fmt(op) is Format.I]
J_OPS = [op for op in Opcode if Isa().fmt(op) is Format.J]


class TestEncoding:
    @given(op=st.sampled_from(R_OPS), rd=regs, rs1=regs, rs2=regs)
    def test_r_type_roundtrip(self, op, rd, rs1, rs2):
        isa = Isa()
        instr = Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
        assert isa.decode(isa.encode(instr)) == instr

    @given(op=st.sampled_from(I_OPS), rd=regs, rs1=regs, imm=imm16)
    def test_i_type_roundtrip(self, op, rd, rs1, imm):
        isa = Isa()
        instr = Instruction(op, rd=rd, rs1=rs1, imm=imm)
        assert isa.decode(isa.encode(instr)) == instr

    @given(op=st.sampled_from(J_OPS), imm=imm24)
    def test_j_type_roundtrip(self, op, imm):
        isa = Isa()
        instr = Instruction(op, imm=imm)
        assert isa.decode(isa.encode(instr)) == instr

    def test_register_out_of_range_rejected(self):
        isa = Isa()
        with pytest.raises(ValueError):
            isa.encode(Instruction(Opcode.ADD, rd=16))

    def test_imm_out_of_range_rejected(self):
        isa = Isa()
        with pytest.raises(ValueError):
            isa.encode(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=0x10000))

    def test_illegal_opcode_decode_rejected(self):
        isa = Isa()
        with pytest.raises(ValueError):
            isa.decode(0xEE000000)


class TestCustomOps:
    def test_custom_lookup(self):
        op = CustomOp("mac3", 0x80, lambda a, b: a * b + 1, cycles=2,
                      area=80.0)
        isa = Isa(customs=[op])
        assert isa.custom(0x80) is op
        assert isa.custom_by_name("mac3") is op
        assert isa.opcode_of("mac3") == 0x80
        assert isa.cycles_of(0x80) == 2
        assert isa.cycle_table()[0x80] == 2
        assert isa.custom_area() == 80.0

    def test_custom_opcode_space_enforced(self):
        with pytest.raises(ValueError):
            CustomOp("bad", 0x10, lambda a, b: a)

    def test_custom_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            CustomOp("bad", 0x80, lambda a, b: a, cycles=0)

    @pytest.mark.parametrize("field,value", [
        ("cycles", 9), ("cycles", 0.5), ("semantics", max), ("area", 1.0),
        ("name", "other"), ("opcode", 0x81)])
    def test_a_custom_op_is_frozen(self, field, value):
        """An ISA bakes a custom op's fields into compiled code, so no
        field can change after the op is built (and none can bypass
        the domain checks that way)."""
        op = CustomOp("mac", 0x80, lambda a, b: a, cycles=2)
        isa = Isa(customs=[op])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, field, value)
        assert op.cycles == 2 and isa.cycles_of(0x80) == 2

    def test_duplicate_opcode_rejected(self):
        with pytest.raises(ValueError, match="0x80 already in use"):
            Isa(customs=[CustomOp("one", 0x80, lambda a, b: a),
                         CustomOp("two", 0x80, lambda a, b: b)])

    def test_duplicate_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="'fused' already in use"):
            Isa(customs=[CustomOp("fused", 0x80, lambda a, b: a),
                         CustomOp("fused", 0x81, lambda a, b: b)])

    def test_base_mnemonic_collision_rejected(self):
        with pytest.raises(ValueError, match="'add' already in use"):
            Isa(customs=[CustomOp("add", 0x80, lambda a, b: a)])

    @pytest.mark.parametrize("name", ["MAC", "fx_Mac", "my op", "mac\t",
                                      "1mac", "mac-2", "mac:", ""])
    def test_names_the_assembler_cannot_emit_rejected(self, name):
        """The assembler lowercases every mnemonic and splits on
        whitespace, so only a lowercase identifier can be emitted."""
        with pytest.raises(ValueError, match="not a lowercase identifier"):
            Isa(customs=[CustomOp(name, 0x80, lambda a, b: a)])

    @pytest.mark.parametrize("name", sorted(PSEUDO_OPS))
    def test_pseudo_op_names_rejected(self, name):
        """The assembler expands pseudo-ops before it looks custom ops
        up, so a custom op by such a name would never be emitted."""
        with pytest.raises(ValueError, match=f"pseudo-op '{name}'"):
            Isa(customs=[CustomOp(name, 0x80, lambda a, b: a)])

    @pytest.mark.parametrize("name", ["mac", "mac3", "sad", "fma0",
                                      "mulx", "badfx", "c0", "_x",
                                      "fx_0123456789abcdef"])
    def test_names_in_use_still_install(self, name):
        isa = Isa(customs=[CustomOp(name, 0x80, lambda a, b: a)])
        assert isa.opcode_of(name) == 0x80

    def test_custom_encodes_as_r_type(self):
        isa = Isa(customs=[CustomOp("fma", 0x82, lambda a, b: a)])
        instr = Instruction(0x82, rd=1, rs1=2, rs2=3)
        assert isa.decode(isa.encode(instr)) == instr
        assert isa.fmt(0x82) is Format.R


class TestCycleTable:
    def test_overrides_apply_to_base_opcodes_only(self):
        isa = Isa(cycles={Opcode.MUL: 7, int(Opcode.LW): 3})
        assert isa.cycles_of(Opcode.MUL) == 7
        assert isa.cycles_of(Opcode.LW) == 3
        assert isa.cycles_of(Opcode.ADD) == DEFAULT_CYCLES[Opcode.ADD]
        assert Isa().cycles_of(Opcode.MUL) == DEFAULT_CYCLES[Opcode.MUL]

    def test_the_isa_keeps_a_copy(self):
        table = {Opcode.ADD: 9}
        isa = Isa(cycles=table)
        table[Opcode.ADD] = 2
        assert isa.cycles_of(Opcode.ADD) == 9

    def test_the_cycle_table_is_read_only(self):
        isa = Isa()
        with pytest.raises(TypeError):
            isa.cycle_table()[int(Opcode.ADD)] = 9
        assert isa.cycles_of(Opcode.ADD) == 1
        assert set(isa.cycle_table()) == {int(op) for op in Opcode}

class TestDisassembly:
    def test_formats(self):
        isa = Isa()
        assert isa.disassemble(Instruction(Opcode.ADD, 1, 2, 3)) == \
            "add r1, r2, r3"
        assert isa.disassemble(Instruction(Opcode.LW, 1, 2, imm=4)) == \
            "lw r1, 4(r2)"
        assert isa.disassemble(Instruction(Opcode.HALT)) == "halt"
        assert isa.disassemble(Instruction(Opcode.J, imm=64)) == "j 64"
        assert isa.disassemble(Instruction(Opcode.JR, rs1=15)) == "jr r15"

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(KeyError):
            Isa().opcode_of("frobnicate")
