"""Fault injection and dependability evaluation for the co-simulation.

The paper's Section 3 argument — that a mixed hardware/software design
is only as good as the interfaces binding the two sides — cuts both
ways: those interfaces are also where transient faults do their damage.
This package measures that, DAVOS/SBFI style:

* :mod:`repro.fault.spec` — :class:`FaultSpec`, the deterministic,
  fingerprinted description of one fault, plus the seeded stratified
  sampler over a scenario's target space;
* :mod:`repro.fault.inject` — :class:`FaultInjector`, arming specs
  against a live :class:`System` (signal/register bit-flips, CPU state
  corruption, message-boundary faults, timing faults);
* :mod:`repro.fault.scenarios` — the deterministic campaign workloads
  (``coproc``: full R32 + MAC + FIFO stack; ``msgpipe``: message rung
  only; ``swmac``: CPU-only) and :func:`run_scenario`; every cell of
  a software-only scenario (:func:`run_sw_scenario`) starts as a copy
  of one checkpointed golden run (DESIGN §14);
* :mod:`repro.fault.campaign` — :func:`run_campaign`: golden-vs-faulty
  cells run through the campaign service's one execution path
  (:func:`repro.campaign.service.run_cells`: in-process at one worker,
  on a :class:`~repro.campaign.CampaignStore`'s shards otherwise),
  outcome classification (masked / sdc / detected / hang / crash),
  and the dependability report.

Quick tour::

    from repro.fault import SCENARIOS, run_campaign, sample_faults

    targets = SCENARIOS["coproc"].targets
    faults = sample_faults(targets, n=40, seed=7)
    result = run_campaign("coproc", faults, workers=4)
    print(result.dependability_table())
"""

from repro.fault.spec import (
    CPU_FLAGS,
    FAULT_VERSION,
    KINDS,
    OUTCOMES,
    FaultSpec,
    FaultSpecError,
    sample_faults,
)
from repro.fault.inject import (
    FaultInjector,
    InjectionError,
    System,
    arm_fault,
)
from repro.fault.scenarios import (
    DEFAULT_WATCHDOG,
    SCENARIOS,
    Scenario,
    SoftwareWorkload,
    run_scenario,
    run_sw_batch,
    run_sw_scenario,
)
from repro.fault.campaign import (
    CampaignError,
    CampaignResult,
    CampaignStats,
    cell_fingerprint,
    classify,
    run_campaign,
    run_fault_cell,
)

__all__ = [
    "CPU_FLAGS",
    "FAULT_VERSION",
    "KINDS",
    "OUTCOMES",
    "FaultSpec",
    "FaultSpecError",
    "sample_faults",
    "FaultInjector",
    "InjectionError",
    "System",
    "arm_fault",
    "DEFAULT_WATCHDOG",
    "SCENARIOS",
    "Scenario",
    "SoftwareWorkload",
    "run_scenario",
    "run_sw_batch",
    "run_sw_scenario",
    "CampaignError",
    "CampaignResult",
    "CampaignStats",
    "cell_fingerprint",
    "classify",
    "run_campaign",
    "run_fault_cell",
]
