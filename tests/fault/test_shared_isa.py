"""Scenario CPUs share one stock ISA per process.

A cell after the first finds the ISA's decode and operand caches warm,
and an ISA that something mutated is never handed to a later cell.
"""

import pytest

from repro.cosim.kernel import Simulator
from repro.fault.scenarios import (
    SCENARIOS,
    _build_sw_cpu,
    _stock_isa,
    run_scenario,
)
from repro.isa.cpu import Cpu
from repro.isa.instructions import CustomOp, Opcode

SCENARIO_CPUS = ["coproc", "swmac"]


def _scenario_isa(name):
    """The ISA of a freshly built CPU of scenario ``name``."""
    scenario = SCENARIOS[name]
    if scenario.software is not None:
        return _build_sw_cpu(scenario).isa
    system, _summarize = scenario.build(Simulator())
    return system.cpu.isa


@pytest.mark.parametrize("name", SCENARIO_CPUS)
def test_a_second_cell_decodes_nothing(monkeypatch, name):
    run_scenario(name)
    predecoded = []
    predecode = Cpu._predecode

    def counting(cpu, word, pc):
        predecoded.append(word)
        return predecode(cpu, word, pc)

    monkeypatch.setattr(Cpu, "_predecode", counting)
    run_scenario(name)
    assert predecoded == []
    assert _scenario_isa(name) is _scenario_isa(name)


@pytest.mark.parametrize("mutate", ["add_custom", "edit_cycles"])
@pytest.mark.parametrize("name", SCENARIO_CPUS)
def test_a_mutated_isa_is_never_reused(name, mutate):
    before = run_scenario(name)
    isa = _scenario_isa(name)
    if mutate == "add_custom":
        isa.add_custom(CustomOp("mulx", 0x80, lambda a, b: a * b))
    else:
        isa.cycles[int(Opcode.MUL)] = 9
    assert run_scenario(name) == before
    fresh = _stock_isa()
    assert fresh is not isa and fresh.version == 0 and not fresh.customs
