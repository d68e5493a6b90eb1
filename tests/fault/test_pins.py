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
"""

import hashlib

import pytest

from repro.cosim.kernel import Watchdog
from repro.fault import SCENARIOS, run_campaign, run_scenario, sample_faults
from repro.fault.campaign import classify

DOCUMENT_SHA256 = {
    "coproc":
        "d93103de8b98816a71e352c0c23b07cdd9bf4070f6e2840b3b159ebce3e7a879",
    "msgpipe":
        "f1da8e4dbc82b79caa493786401bfd20643140867f9d3aec1af51e68772a6642",
    "swmac":
        "e2d1356f12d77a78853119808a070659b365562d89c91b18e957935d5e8f779c",
}

BUDGETS = (2000, 4000, 8000, 100_000)


@pytest.mark.parametrize("name", sorted(DOCUMENT_SHA256))
def test_campaign_document_digest(name):
    faults = sample_faults(SCENARIOS[name].targets, 200, seed=7)
    doc = run_campaign(name, faults).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == DOCUMENT_SHA256[name]


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
