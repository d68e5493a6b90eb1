"""Software cells answered from golden's record.

A software fault that changes only state golden's remaining run never
reads gets golden's own record, with no fork and no run (DESIGN §14):
a flip of a register golden writes before it reads it again, or never
reads again, after the due retirement, and any flip of ``irq_enabled``
on a CPU with no interrupt source.  These tests pin how many E24 cells
that answers, and check the records it returns against the same
faults run from retirement 0 (``from_zero``), over every site of a
short program with calls, memory and a branch.
"""

from collections import Counter

import pytest

from repro.fault import SCENARIOS, FaultSpec, InjectionError
from repro.fault.scenarios import (
    Scenario,
    SoftwareWorkload,
    run_sw_scenario,
)
from repro.isa import BatchCpu

from tests.fault.test_batch_campaign import from_zero, swmac_faults

#: the seed-7 E24 cells answered from golden, by kind (flag flips by
#: flag)
E24_ANSWERED = {"cpu_reg_flip": 32, "irq_enabled": 27}


@pytest.fixture
def forks(monkeypatch):
    """Every ``BatchCpu.fork_at`` call's retirement, in order."""
    calls = []
    fork_at = BatchCpu.fork_at

    def spy(self, retired):
        calls.append(retired)
        return fork_at(self, retired)

    monkeypatch.setattr(BatchCpu, "fork_at", spy)
    return calls


def answered(scenario, fault, forks):
    """Run one cell; whether golden's record answered it, that is,
    whether it only took golden's end and never forked at its due
    retirement."""
    forks.clear()
    run_sw_scenario(scenario, fault)
    if forks == [scenario.software.budget]:
        return True
    assert forks == [max(1, fault.count) - 1], fault
    return False


def test_e24_answers_59_cells_from_golden(forks):
    """A table that fell back to "every register live" would answer
    only the irq_enabled flips, and fail here."""
    scenario = SCENARIOS["swmac"]
    kinds = Counter(fault.flag or fault.kind for fault in swmac_faults()
                    if answered(scenario, fault, forks))
    assert kinds == E24_ANSWERED


# ----------------------------------------------------------------------
# every site of a short program with calls, memory and a branch
# ----------------------------------------------------------------------
CALLS_ASM = """
        lw   r1, 0x100(r0)     ; n, the input word
        li   r2, 0             ; sum
loop:   jal  body
        addi r1, r1, -1
        bne  r1, r0, loop
        sw   r2, 0x300(r0)     ; result
        lw   r3, 0x300(r0)     ; read back
        sw   r3, 0x301(r0)
        li   r4, 1
        sw   r4, 0x302(r0)     ; verdict
        li   r5, 0xD0E
        sw   r5, 0x303(r0)     ; end marker
        halt
body:   add  r2, r2, r1
        jr   r15
        .org 0x100
        .word 4
"""
#: retirements golden takes: two, four calls of five, eight
CALLS_HALT = 2 + 4 * 5 + 8

CALLS = Scenario(
    name="calls",
    targets={},
    horizon=500.0,
    software=SoftwareWorkload(
        source=CALLS_ASM, budget=500, out_base=0x300, out_len=4,
        end_marker=0xD0E, verdict_index=2, seed_addr=0x100),
)


def reg_flip(count, index, bit=2):
    return FaultSpec(kind="cpu_reg_flip", target="cpu", index=index,
                     bit=bit, count=count)


class TestEverySite:
    def test_golden_halts_where_counted(self):
        record = run_sw_scenario(CALLS)
        assert record["completed"] and record["activations"] == CALLS_HALT

    def test_answered_register_flips_equal_from_zero_runs(self, forks):
        dead = set()
        for count in range(CALLS_HALT + 2):
            for index in range(16):
                fault = reg_flip(count, index)
                if answered(CALLS, fault, forks):
                    dead.add((max(1, count), index))
                assert run_sw_scenario(CALLS, fault) == \
                    from_zero(CALLS, fault), fault
        # r0 is never read, nothing is read after the halt, and the
        # link register is read only by jr, after each jal wrote it
        assert {(k, 0) for k in range(1, CALLS_HALT + 2)} <= dead
        assert {(k, r) for k in (CALLS_HALT, CALLS_HALT + 1)
                for r in range(16)} <= dead
        assert (3, 15) not in dead  # after the first jal
        assert (5, 15) in dead  # after the first jr
        assert len(dead) < (CALLS_HALT + 1) * 16

    def test_flag_flips(self, forks):
        for count in range(1, CALLS_HALT + 2):
            for flag in ("irq_enabled", "irq_pending", "halted"):
                fault = FaultSpec(kind="cpu_flag_flip", target="cpu",
                                  flag=flag, count=count)
                assert answered(CALLS, fault, forks) == \
                    (flag == "irq_enabled")
                assert run_sw_scenario(CALLS, fault) == \
                    from_zero(CALLS, fault), fault


class TestNothingElseIsAnswered:
    def test_a_register_past_the_file_still_raises(self, forks):
        """r16 would be dead everywhere if it were looked up."""
        for count in (1, CALLS_HALT + 5):
            with pytest.raises(InjectionError, match="no register r16"):
                run_sw_scenario(CALLS, reg_flip(count, 16))

    def test_golden_that_never_halts_answers_no_register_flip(self, forks):
        spin = Scenario(name="spin", targets={}, horizon=50.0,
                        software=SoftwareWorkload(
                            source="spin: j spin", budget=50, out_base=0x300,
                            out_len=1, end_marker=1, verdict_index=0,
                            seed_addr=0x100))
        for count in (1, 10, 60):
            for index in (0, 3, 15):
                fault = reg_flip(count, index)
                assert not answered(spin, fault, forks)
                assert run_sw_scenario(spin, fault) == from_zero(spin, fault)
        flip = FaultSpec(kind="cpu_flag_flip", target="cpu",
                         flag="irq_enabled", count=10)
        assert answered(spin, flip, forks)
        assert run_sw_scenario(spin, flip) == from_zero(spin, flip)
