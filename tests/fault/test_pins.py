"""Whole campaign documents pinned, and hang verdicts that do not hinge
on the watchdog budget.

Histogram pins cannot see a changed ``activations`` count or hang
message inside a record; a SHA-256 of the whole ``to_json()`` document
can.  The digests hold under any ``PYTHONHASHSEED``, so any change to
the kernel, the injectors or the scenarios that moves one byte of any
record fails here.

A hang verdict should be a property of the fault, not of the budget
that caught it: every coproc and msgpipe fault must classify the same
at 2000, 4000 (the default), 8000 and 100,000 stalled activations.

swmac has no kernel; its budget is an instruction count
(``SoftwareWorkload.budget``, 8,000, where golden retires 3,216), so
its ``hang`` class means "ran more than 2.49x golden's instructions",
not "never terminates".  Its verdicts hold at 8,000 and 16,000; the
faults that flip at 4,000 and at 100,000 are pinned one by one.
"""

import dataclasses
import hashlib

import pytest

from repro.cosim.backplane import Backplane
from repro.cosim.kernel import Simulator, Watchdog
from repro.fault import (
    FAULT_VERSION,
    SCENARIOS,
    run_campaign,
    run_scenario,
    sample_faults,
)
from repro.fault.campaign import classify
from repro.fault.scenarios import run_sw_scenario

DOCUMENT_SHA256 = {
    "coproc":
        "d93103de8b98816a71e352c0c23b07cdd9bf4070f6e2840b3b159ebce3e7a879",
    "msgpipe":
        "f1da8e4dbc82b79caa493786401bfd20643140867f9d3aec1af51e68772a6642",
    "swmac":
        "e2d1356f12d77a78853119808a070659b365562d89c91b18e957935d5e8f779c",
}

#: the same documents at two more sample seeds
SEED_DOCUMENT_SHA256 = {
    ("coproc", 1):
        "5340a6130e0d494d5bee6fbda0b3c5a4706826ccf77498107689606b96a7b50d",
    ("coproc", 2):
        "0de8dd17c638284d1c75332cacf7e4e3334fc68bf5c0720d219283f88de901b3",
    ("swmac", 1):
        "43f3314670acb4114266b43ad710ac339fb93ce32edc2ab183fc8c862a10799d",
    ("swmac", 2):
        "199aa970f88024839f37bd99a8b3f640125eb96a8e94697a369ac7755778432a",
}

BUDGETS = (2000, 4000, 8000, 100_000)

#: fault index -> outcome of the swmac faults (200 per sample seed)
#: whose verdict differs from the default budget's, per budget
SWMAC_FLIPS = {
    4000: {
        7: {i: "hang" for i in (22, 103, 106, 114, 115, 163, 169)},
        1: {i: "hang" for i in (13, 25, 43, 76, 85, 100, 106, 192, 199)},
        2: {i: "hang" for i in (31, 37, 43, 82, 118)},
    },
    16_000: {7: {}, 1: {}, 2: {}},
    # flips of r12, the loop bound, that finish given the instructions
    100_000: {
        7: {111: "sdc"},
        1: {},
        2: {102: "sdc", 111: "sdc"},
    },
}

SWMAC_LOOP_BOUND_FLIPS = {
    (7, 111): "cpu_reg_flip r12 bit11 @n=1832",
    (2, 102): "cpu_reg_flip r12 bit13 @n=1744",
    (2, 111): "cpu_reg_flip r12 bit11 @n=1263",
}


def _digest(doc):
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DOCUMENT_SHA256))
def test_campaign_document_digest(name):
    faults = sample_faults(SCENARIOS[name].targets, 200, seed=7)
    doc = run_campaign(name, faults).to_json()
    assert _digest(doc) == DOCUMENT_SHA256[name]


@pytest.mark.parametrize("name,seed", sorted(SEED_DOCUMENT_SHA256))
def test_campaign_document_digest_at_more_seeds(name, seed):
    faults = sample_faults(SCENARIOS[name].targets, 200, seed=seed)
    want = SEED_DOCUMENT_SHA256[(name, seed)]
    assert _digest(run_campaign(name, faults).to_json()) == want


def _verdicts(name, faults, budget):
    watchdog = Watchdog(max_stalled_activations=budget)
    golden = run_scenario(name, watchdog=watchdog)
    return [classify(golden, run_scenario(name, fault, watchdog=watchdog))
            for fault in faults]


@pytest.mark.parametrize("seed", [7, 1, 2])
@pytest.mark.parametrize("name", ["coproc", "msgpipe"])
def test_hang_verdicts_do_not_depend_on_the_budget(name, seed):
    faults = sample_faults(SCENARIOS[name].targets, 200, seed=seed)
    by_budget = {budget: _verdicts(name, faults, budget)
                 for budget in BUDGETS}
    reference = by_budget[4000]
    assert "hang" in reference
    for budget, verdicts in by_budget.items():
        assert verdicts == reference, budget


def _sw_verdicts(faults, budget):
    base = SCENARIOS["swmac"]
    scenario = dataclasses.replace(
        base, software=dataclasses.replace(base.software, budget=budget))
    golden = run_sw_scenario(scenario)
    return [classify(golden, run_sw_scenario(scenario, fault))
            for fault in faults]


@pytest.mark.parametrize("seed", [7, 1, 2])
def test_swmac_hang_verdicts_against_the_instruction_budget(seed):
    faults = sample_faults(SCENARIOS["swmac"].targets, 200, seed=seed)
    reference = _sw_verdicts(faults, 8000)
    assert "hang" in reference
    for budget, flips in SWMAC_FLIPS.items():
        verdicts = _sw_verdicts(faults, budget)
        changed = {i: verdict for i, verdict in enumerate(verdicts)
                   if verdict != reference[i]}
        assert changed == flips[seed], budget
    for i in SWMAC_FLIPS[100_000][seed]:
        assert reference[i] == "hang"
        assert faults[i].describe() == SWMAC_LOOP_BOUND_FLIPS[(seed, i)]


def test_coproc_cpu_time_is_internal_cycles_plus_access_time(monkeypatch):
    """The backplane's timing rule, pinned on golden coproc: model time
    advances by the cycles ``run_block`` returns plus each external
    access's adapter time; an external LW/SW's own cycles and its stall
    cycles enter ``cpu.cycle_count`` but not model time (DESIGN §8).
    So the CPU retires 109 instructions in 186 cycles (1,860 ns at its
    10 ns clock) and halts at 1,052 ns.  A timing model that charged
    those cycles would move every coproc record, so it would bump
    FAULT_VERSION."""
    planes = []
    start = Backplane.start
    monkeypatch.setattr(Backplane, "start",
                        lambda plane: planes.append(plane) or start(plane))
    sim = Simulator()
    system, _summarize = SCENARIOS["coproc"].build(sim)
    cpu = system.cpu
    returned = []
    run_block = cpu.run_block

    def recording(max_steps):
        result = run_block(max_steps)
        returned.append(result[1])
        return result

    cpu.run_block = recording
    while not cpu.halted:
        sim.step()
    (plane,) = planes
    assert (cpu.instr_count, cpu.cycle_count, sim.now) == (109, 186, 1052.0)
    # the halting call's cycles are still to be waited out
    assert sim.now == 10.0 * sum(returned[:-1]) + plane.stall_time
    assert FAULT_VERSION == 1
