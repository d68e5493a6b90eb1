"""Tests for the CPU model: semantics, timing, MMIO, interrupts."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory
from repro.isa.instructions import Isa, Opcode


def make_cpu(text, isa=None, **cpu_kwargs):
    isa = isa or Isa()
    prog = assemble(text, isa)
    mem = Memory()
    mem.load_image(prog.image)
    return Cpu(isa, mem, pc=prog.entry, **cpu_kwargs), mem


class TestArithmetic:
    def test_signed_ops(self):
        cpu, _m = make_cpu("""
            li  r1, -20
            li  r2, 6
            div r3, r1, r2      ; -3 (truncate toward zero)
            mod r4, r1, r2      ; -2
            sra r5, r1, r2      ; -20 >> 6 arithmetic = -1
            slt r6, r1, r2      ; 1
            sltu r7, r1, r2     ; 0 (0xffffffec unsigned is huge)
            halt
        """)
        cpu.run()
        assert cpu.get_reg(3) == (-3) & 0xFFFFFFFF
        assert cpu.get_reg(4) == (-2) & 0xFFFFFFFF
        assert cpu.get_reg(5) == (-1) & 0xFFFFFFFF
        assert cpu.get_reg(6) == 1
        assert cpu.get_reg(7) == 0

    def test_division_by_zero_faults(self):
        cpu, _m = make_cpu("div r1, r0, r0\nhalt")
        with pytest.raises(CpuError):
            cpu.run()

    def test_r0_is_hardwired_zero(self):
        cpu, _m = make_cpu("""
            addi r0, r0, 99
            add  r1, r0, r0
            halt
        """)
        cpu.run()
        assert cpu.get_reg(0) == 0
        assert cpu.get_reg(1) == 0

    def test_logical_immediates_zero_extend(self):
        cpu, _m = make_cpu("""
            li   r1, 0
            ori  r2, r1, 0xFFFF     ; 0x0000FFFF, not sign-extended
            halt
        """)
        cpu.run()
        assert cpu.get_reg(2) == 0xFFFF

    def test_wraparound_arithmetic(self):
        cpu, _m = make_cpu("""
            li  r1, 0xFFFFFFFF
            addi r2, r1, 1
            halt
        """)
        cpu.run()
        assert cpu.get_reg(2) == 0


class TestTiming:
    def test_cycle_accounting(self):
        isa = Isa()
        cpu, _m = make_cpu("""
            addi r1, r0, 2      ; 1 cycle
            mul  r2, r1, r1     ; 4 cycles
            lw   r3, 0x100(r0)  ; 2 cycles
            halt                ; 1 cycle
        """, isa=isa)
        cpu.run()
        assert cpu.cycle_count == 1 + 4 + 2 + 1
        assert cpu.instr_count == 4

    def test_taken_branch_costs_extra(self):
        base_cpu, _m = make_cpu("""
            addi r1, r0, 1
            beq  r1, r0, skip   ; not taken: 1 cycle
            skip: halt
        """)
        base_cpu.run()
        taken_cpu, _m = make_cpu("""
            addi r1, r0, 0
            beq  r1, r0, skip   ; taken: 2 cycles
            skip: halt
        """)
        taken_cpu.run()
        assert taken_cpu.cycle_count == base_cpu.cycle_count + 1

    def test_instruction_budget_enforced(self):
        cpu, _m = make_cpu("loop: j loop\nhalt")
        with pytest.raises(CpuError):
            cpu.run(max_instructions=100)

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, 100.0, True,
                                        "100", None])
    def test_instruction_budget_must_be_an_int(self, budget):
        """A NaN budget was never exhausted, so a spinning program ran
        forever; 2.5 ran three instructions and True one."""
        cpu, _m = make_cpu("loop: j loop\nhalt")
        with pytest.raises(ValueError, match="max_instructions"):
            cpu.run(max_instructions=budget)
        assert cpu.instr_count == 0


class TestMemoryRegions:
    def test_synchronous_device_region(self):
        log = []
        isa = Isa()
        prog = assemble("""
            li  r1, 42
            sw  r1, 0x500(r0)
            lw  r2, 0x501(r0)
            halt
        """, isa)
        mem = Memory()
        mem.load_image(prog.image)
        mem.add_region(
            "dev", 0x500, 4,
            read_fn=lambda off: 1000 + off,
            write_fn=lambda off, val: log.append((off, val)),
        )
        cpu = Cpu(isa, mem)
        cpu.run()
        assert log == [(0, 42)]
        assert cpu.get_reg(2) == 1001

    def test_unreadable_region_faults(self):
        isa = Isa()
        prog = assemble("lw r1, 0x500(r0)\nhalt", isa)
        mem = Memory()
        mem.load_image(prog.image)
        mem.add_region("wo", 0x500, 1, write_fn=lambda o, v: None)
        cpu = Cpu(isa, mem)
        with pytest.raises(CpuError):
            cpu.run()

    def test_overlapping_regions_rejected(self):
        mem = Memory()
        mem.add_region("a", 0x100, 16, read_fn=lambda o: 0)
        with pytest.raises(ValueError):
            mem.add_region("b", 0x108, 16, read_fn=lambda o: 0)

    @pytest.mark.parametrize("field, base, size", [
        ("size", 0x100, float("nan")),  # mapped, yet no address in it
        ("size", 0x100, 2.5),           # mapped three words
        ("size", 0x100, True),
        ("size", 0x100, 0),
        ("size", 0x100, -4),
        ("base", -1, 4),
        ("base", 256.0, 4),
        ("base", float("nan"), 4),
        ("base", True, 4),
    ])
    def test_region_bounds_must_be_ints(self, field, base, size):
        mem = Memory()
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            mem.add_region("dev", base, size, read_fn=lambda o: 0)
        assert mem.region_at(0x100) is None and mem.region_at(1) is None

    def test_region_bounds_accept_the_domain_edges(self):
        mem = Memory()
        mem.add_region("first", 0, 1, read_fn=lambda o: 7)
        assert mem.region_at(0).name == "first"
        assert mem.region_at(1) is None

    def test_fetch_from_unprogrammed_address_faults(self):
        cpu = Cpu(Isa(), Memory())
        with pytest.raises(CpuError):
            cpu.step()


class TestExternalAccess:
    def build(self):
        isa = Isa()
        prog = assemble("""
            li  r1, 7
            sw  r1, 0x800(r0)
            lw  r2, 0x800(r0)
            halt
        """, isa)
        mem = Memory()
        mem.load_image(prog.image)
        mem.add_region("ext", 0x800, 8, external=True)
        return Cpu(isa, mem), prog

    def test_step_returns_access_and_freezes(self):
        cpu, _p = self.build()
        # li is 1 instr (small) -> step; then sw defers
        assert isinstance(cpu.step(), int)
        access = cpu.step()
        assert isinstance(access, ExternalAccess)
        assert access.is_write and access.addr == 0x800 and access.value == 7
        with pytest.raises(CpuError):
            cpu.step()  # frozen until completion

    def test_complete_write_then_read(self):
        cpu, _p = self.build()
        store = {}
        while not cpu.halted:
            result = cpu.step()
            if isinstance(result, ExternalAccess):
                if result.is_write:
                    store[result.addr] = result.value
                    cpu.complete_access()
                else:
                    cpu.complete_access(read_value=store[result.addr] + 1,
                                        extra_cycles=10)
        assert cpu.get_reg(2) == 8
        assert store == {0x800: 7}

    def test_extra_cycles_charged(self):
        cpu, _p = self.build()
        cycles_without_stall = None
        result = cpu.step()
        result = cpu.step()
        before = cpu.cycle_count
        cpu.complete_access(extra_cycles=50)
        isa_cost = cpu.isa.cycles_of(Opcode.SW)
        assert cpu.cycle_count - before == isa_cost + 50

    def test_complete_without_pending_rejected(self):
        cpu, _p = self.build()
        with pytest.raises(CpuError):
            cpu.complete_access()

    def test_run_refuses_external_access(self):
        cpu, _p = self.build()
        with pytest.raises(CpuError):
            cpu.run()


class TestInterrupts:
    def program(self):
        return """
                addi r1, r0, 0
            loop:
                addi r1, r1, 1
                addi r2, r0, 100
                bne  r1, r2, loop
                halt
            .org 0x40
            handler:
                addi r5, r5, 1      ; count interrupts
                reti
        """

    def test_irq_vectors_and_returns(self):
        cpu, _m = make_cpu(self.program())
        fired = {"n": 0}
        while not cpu.halted:
            cpu.step()
            if cpu.instr_count == 10 and fired["n"] == 0:
                cpu.raise_irq()
                fired["n"] = 1
        assert cpu.get_reg(5) == 1
        assert cpu.get_reg(1) == 100  # main loop completed correctly
        assert cpu.irq_count == 1

    def test_irq_disabled_until_reti(self):
        cpu, _m = make_cpu(self.program())
        # raise two IRQs back to back; second must wait for reti
        cpu.step()
        cpu.raise_irq()
        cpu.step()  # vectors
        assert not cpu.irq_enabled
        cpu.raise_irq()
        cpu.step()  # handler body (addi) — irq pending but masked
        assert cpu.pc != cpu.ivec or cpu.irq_count == 1
        cpu.step()  # reti
        assert cpu.irq_enabled
        cpu.step()  # vectors again
        assert cpu.irq_count == 2

    def test_epc_restored(self):
        cpu, _m = make_cpu(self.program())
        for _ in range(4):
            cpu.step()
        resume_pc = cpu.pc
        cpu.raise_irq()
        cpu.step()  # irq entry
        assert cpu.epc == resume_pc
        cpu.step()  # handler addi
        cpu.step()  # reti
        assert cpu.pc == resume_pc


class TestObservers:
    def test_observers_see_retired_pcs(self):
        cpu, _m = make_cpu("""
            addi r1, r0, 1
            addi r2, r0, 2
            halt
        """)
        seen = []
        cpu.observers.append(lambda pc, instr: seen.append(pc))
        cpu.run()
        assert seen == [0, 1, 2]
