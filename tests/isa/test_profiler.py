"""Tests for the execution profiler."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, ExternalAccess, Memory
from repro.isa.instructions import Isa, Opcode
from repro.isa.profiler import Profiler


def profiled_run(text):
    isa = Isa()
    prog = assemble(text, isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = Cpu(isa, mem, pc=prog.entry)
    profiler = Profiler(cpu)
    cpu.run()
    return cpu, profiler, prog


LOOP_PROGRAM = """
        addi r1, r0, 0
        addi r2, r0, 50
    loop:
        mul  r3, r1, r1
        addi r1, r1, 1
        bne  r1, r2, loop
        halt
"""


class TestCounting:
    def test_totals_match_cpu(self):
        cpu, prof, _p = profiled_run(LOOP_PROGRAM)
        assert prof.total_instructions == cpu.instr_count
        assert prof.total_cycles == cpu.cycle_count

    def test_taken_branch_penalties_are_charged_to_the_branch(self):
        cpu, prof, _p = profiled_run("""
                addi r1, r0, 10
            loop:
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        """)
        assert cpu.cycle_count == 31
        assert prof.total_cycles == 31
        assert prof.opcode_cycles[int(Opcode.BNE)] == 10 + 9  # 9 taken

    def test_backplane_stall_cycles_are_charged_to_the_access(self):
        isa = Isa()
        memory = Memory()
        memory.load_image(assemble("lw r1, 0(r2)\nhalt", isa).image)
        memory.add_region("dev", 0x1000, 4, external=True)
        cpu = Cpu(isa, memory)
        cpu.regs[2] = 0x1000
        prof = Profiler(cpu)
        assert isinstance(cpu.step(), ExternalAccess)
        cpu.complete_access(7, extra_cycles=5)
        cpu.step()
        assert cpu.cycle_count == 2 + 5 + 1
        assert prof.total_cycles == cpu.cycle_count
        assert prof.opcode_cycles[int(Opcode.LW)] == 7

    def test_hot_pcs_are_the_loop_body(self):
        _c, prof, prog = profiled_run(LOOP_PROGRAM)
        loop_addr = prog.symbols["loop"]
        hot = dict(prof.hot_pcs(3))
        assert loop_addr in hot
        assert hot[loop_addr] == 50

    def test_opcode_histogram(self):
        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        hist = prof.opcode_histogram()
        assert hist["mul"] == 50
        assert hist["bne"] == 50
        assert hist["halt"] == 1

    def test_cycle_share_dominated_by_mul(self):
        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        share = prof.cycle_share()
        assert share["mul"] == max(share.values())
        assert sum(share.values()) == pytest.approx(1.0)


class TestBasicBlocks:
    def test_loop_is_one_hot_block(self):
        _c, prof, prog = profiled_run(LOOP_PROGRAM)
        blocks = prof.hot_blocks(1)
        assert len(blocks) == 1
        block = blocks[0]
        assert block.start == prog.symbols["loop"]
        assert block.executions == 50
        assert block.size == 3  # mul, addi, bne

    def test_blocks_cover_all_executed_pcs(self):
        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        covered = set()
        for block in prof.basic_blocks():
            covered.update(range(block.start, block.end + 1))
        assert covered == set(prof.pc_counts)

    def test_straightline_program_is_one_block(self):
        _c, prof, _p = profiled_run("""
            addi r1, r0, 1
            addi r2, r0, 2
            add  r3, r1, r2
            halt
        """)
        blocks = prof.basic_blocks()
        assert len(blocks) == 1
        assert blocks[0].size == 4


class TestReports:
    def test_coverage(self):
        _c, prof, prog = profiled_run(LOOP_PROGRAM)
        assert prof.coverage(prog.size) == pytest.approx(1.0)
        assert prof.coverage(0) == 0.0

    def test_report_contains_sections(self):
        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        report = prof.report()
        assert "instructions:" in report
        assert "hot opcodes:" in report
        assert "mul" in report

    def test_empty_profile(self):
        cpu = Cpu(Isa(), Memory())
        prof = Profiler(cpu)
        assert prof.total_instructions == 0
        assert prof.cycle_share() == {}
        assert prof.basic_blocks() == []


class TestMetricsBridge:
    def test_totals_land_in_registry_counters(self):
        from repro.cosim.metrics import MetricsRegistry

        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        registry = prof.to_metrics(MetricsRegistry())
        counters = registry.snapshot()["counters"]
        assert counters["isa.instructions"] == prof.total_instructions
        assert counters["isa.cycles"] == prof.total_cycles
        assert counters["isa.op.mul.count"] == 50
        assert counters["isa.op.mul.cycles"] == \
            prof.opcode_cycles[prof.isa.opcode_of("mul")]

    def test_hot_blocks_exported_as_extraction_candidates(self):
        from repro.cosim.metrics import MetricsRegistry

        _c, prof, prog = profiled_run(LOOP_PROGRAM)
        counters = prof.to_metrics(MetricsRegistry()).snapshot()["counters"]
        block = prof.hot_blocks(1)[0]
        key = f"isa.block.{block.start:#x}_{block.end:#x}"
        assert counters[f"{key}.executions"] == 50
        assert counters[f"{key}.instructions"] == 50 * block.size

    def test_block_size_histogram_covers_every_block(self):
        from repro.cosim.metrics import MetricsRegistry

        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        registry = prof.to_metrics(MetricsRegistry())
        h = registry.histograms["isa.block.size"]
        assert h.count == len(prof.basic_blocks())
        assert h.max == max(b.size for b in prof.basic_blocks())

    def test_prefix_and_chaining(self):
        from repro.cosim.metrics import MetricsRegistry

        _c, prof, _p = profiled_run(LOOP_PROGRAM)
        registry = MetricsRegistry()
        assert prof.to_metrics(registry, prefix="cpu0") is registry
        counters = registry.snapshot()["counters"]
        assert "cpu0.instructions" in counters
        assert not any(k.startswith("isa.") for k in counters)

    def test_two_profiles_aggregate_into_one_registry(self):
        from repro.cosim.metrics import MetricsRegistry

        _c1, prof1, _p1 = profiled_run(LOOP_PROGRAM)
        _c2, prof2, _p2 = profiled_run(LOOP_PROGRAM)
        registry = MetricsRegistry()
        prof1.to_metrics(registry)
        prof2.to_metrics(registry)
        assert registry.counters["isa.instructions"].value == \
            prof1.total_instructions + prof2.total_instructions
