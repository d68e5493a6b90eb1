"""Tests for custom-instruction mining and fused code generation."""

import pytest

from repro.asip.custom import fusions_for, install, mine_candidates
from repro.graph import kernels
from repro.graph.cdfg import CDFG, MASK32
from repro.isa.codegen import CodegenError, Fusion, compile_cdfg
from repro.isa.instructions import CUSTOM_BASE, CustomOp, Isa


def shift_add_graph():
    """y = (a << 3) + b — the classic two-operand fusable pattern."""
    g = CDFG("shiftadd")
    a, b = g.inp("a"), g.inp("b")
    three = g.const(3)
    g.out("y", g.add(g.shl(a, three), b))
    return g


WORKLOADS = {
    "crc": (kernels.crc_step(), 10.0),
    "fir": (kernels.fir(8, coefficients=[3, -5, 7, 2, 9, -1, 4, 6]), 5.0),
    "sa": (shift_add_graph(), 2.0),
}


class TestMining:
    def test_finds_shift_add_pattern(self):
        cands = mine_candidates({"sa": (shift_add_graph(), 1.0)})
        assert len(cands) == 1
        cand = cands[0]
        assert cand.key[0] == "shl" and cand.key[1] == "add"
        assert cand.n_externals == 2
        assert cand.semantics(5, 100) == ((5 << 3) + 100) & MASK32

    def test_multi_use_inner_not_fused(self):
        g = CDFG("reuse")
        a, b = g.inp("a"), g.inp("b")
        m = g.mul(a, a)
        g.out("y1", g.add(m, b))
        g.out("y2", g.sub(m, b))  # m has two consumers
        cands = mine_candidates({"g": (g, 1.0)})
        assert all(
            not (c.key[0] == "mul") for c in cands
        )

    def test_three_operand_pattern_rejected(self):
        g = CDFG("mac")
        a, b, c = g.inp("a"), g.inp("b"), g.inp("c")
        g.out("y", g.add(g.mul(a, b), c))  # 3 externals
        assert mine_candidates({"g": (g, 1.0)}) == []

    def test_constants_are_baked_into_semantics(self):
        cands = mine_candidates(
            {"fir": (kernels.fir(4, coefficients=[7, 7, 7, 7]), 1.0)}
        )
        mul_adds = [c for c in cands if c.key[0] == "mul"]
        assert mul_adds
        cand = mul_adds[0]
        # semantics multiplies by the baked constant 7
        assert cand.semantics(3, 10) == (3 * 7 + 10) & MASK32

    def test_identical_patterns_share_one_candidate(self):
        cands = mine_candidates(
            {"fir": (kernels.fir(4, coefficients=[7, 7, 7, 7]), 1.0)}
        )
        sevens = [c for c in cands if c.key[0] == "mul"]
        assert len(sevens) == 1
        assert len(sevens[0].occurrences) == 4

    def test_weights_accumulate_value(self):
        light = mine_candidates({"sa": (shift_add_graph(), 1.0)})[0]
        heavy = mine_candidates({"sa": (shift_add_graph(), 9.0)})[0]
        assert heavy.value == pytest.approx(9 * light.value)

    def test_deterministic_order(self):
        a = [c.mnemonic for c in mine_candidates(WORKLOADS)]
        b = [c.mnemonic for c in mine_candidates(WORKLOADS)]
        assert a == b


class TestFusedCodegen:
    def run_both(self, cdfg, workload_name, workloads):
        cands = mine_candidates(workloads)
        isa = install(cands, "asip")
        fusions = fusions_for(cands, workload_name)
        inputs = {op.name: (i * 13 + 5) & 0xFFF
                  for i, op in enumerate(cdfg.inputs())}
        base = compile_cdfg(cdfg)
        base_out, base_cycles = base.run(dict(inputs))
        fused = compile_cdfg(cdfg, isa, fusions=fusions)
        fused_out, fused_cycles = fused.run(dict(inputs), isa=isa)
        return base_out, base_cycles, fused_out, fused_cycles, fusions

    def test_fused_code_is_functionally_identical(self):
        g = shift_add_graph()
        base_out, _bc, fused_out, _fc, fusions = self.run_both(
            g, "sa", {"sa": (g, 1.0)}
        )
        assert fusions
        assert fused_out == base_out

    def test_fused_code_is_faster(self):
        g = kernels.fir(8, coefficients=[3, -5, 7, 2, 9, -1, 4, 6])
        _bo, base_cycles, _fo, fused_cycles, fusions = self.run_both(
            g, "fir", {"fir": (g, 1.0)}
        )
        assert fusions
        assert fused_cycles < base_cycles

    def test_crc_kernel_roundtrip_with_fusion(self):
        g = kernels.crc_step()
        base_out, _bc, fused_out, _fc, _f = self.run_both(
            g, "crc", {"crc": (g, 1.0)}
        )
        assert fused_out == base_out

    def test_fusion_requires_installed_mnemonic(self):
        g = shift_add_graph()
        shl = next(o.name for o in g.compute_ops() if o.kind.value == "shl")
        add = next(o.name for o in g.compute_ops() if o.kind.value == "add")
        fusion = Fusion(outer=add, inner=shl, mnemonic="ghost",
                        externals=("a", "b"))
        with pytest.raises(CodegenError):
            compile_cdfg(g, Isa(), fusions={add: fusion})

    def test_fusion_validates_single_use(self):
        g = CDFG("reuse")
        a, b = g.inp("a"), g.inp("b")
        m = g.mul(a, b)
        s = g.add(m, m)  # m used twice by the same op -> uses list != [s]
        g.out("y", s)
        g.out("z", m)   # and also by an output
        isa = Isa(customs=[CustomOp("fma0", 0x80, lambda x, y: x)])
        fusion = Fusion(outer=s, inner=m, mnemonic="fma0",
                        externals=("a", "b"))
        with pytest.raises(CodegenError):
            compile_cdfg(g, isa, fusions={s: fusion})

    def test_overlapping_occurrences_resolved(self):
        cands = mine_candidates(WORKLOADS)
        fusions = fusions_for(cands, "crc")
        used = set()
        for fusion in fusions.values():
            assert fusion.outer not in used
            assert fusion.inner not in used
            used.add(fusion.outer)
            used.add(fusion.inner)


class TestInstall:
    def test_install_builds_an_isa_numbered_from_the_custom_base(self):
        cands = mine_candidates(WORKLOADS)[:3]
        isa = install(cands, "asip")
        assert isa.name == "asip"
        assert [op.opcode for op in isa.customs] == \
            [CUSTOM_BASE + k for k in range(3)]
        assert [op.name for op in isa.customs] == \
            [c.mnemonic for c in cands]
        assert isa.custom_area() == sum(c.area for c in cands)

    def test_install_leaves_every_other_isa_stock(self):
        cands = mine_candidates(WORKLOADS)[:2]
        first, second = install(cands), install(cands[1:])
        assert first is not second and first.name == "r32"
        assert second.custom(CUSTOM_BASE).name == cands[1].mnemonic
        assert Isa().customs == () and install([]).customs == ()
