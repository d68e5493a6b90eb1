"""Evaluating one genome: partition record + dependability objective.

One genome evaluation is deliberately shaped like one sweep cell: the
genome's core axes are poured into a :class:`repro.sweep.config.
SweepConfig` (so the workload graph, deadline, budget, and heuristic
seed derivation are *identical* to what the sweep engine would
produce for the same axes), the chosen heuristic runs with the
genome's knob and tuning-weight genes applied, and the result is a
plain JSON record that is a pure function of the payload —
cacheable, resumable, and byte-identical wherever it runs.

Objectives (all minimized) are computed **parent-side** from the
record, never inside workers:

* ``cost`` — the six-factor cost under *fixed reference weights*
  (recomputed from the record's raw ``cost_terms``, so tuning-weight
  genes steer the heuristic without bending the yardstick);
* ``latency_ns`` — the schedule's end-to-end latency;
* ``exposure`` — ``1 − detection coverage`` under a
  :class:`DependabilityModel` built from a real
  :func:`repro.fault.campaign.run_campaign` run: the campaign
  measures per-surface detection coverage once (cached), and each
  design point weights those coverages by how much of *its* partition
  lives on each surface (hardware tasks ↔ signal/register faults,
  software tasks ↔ CPU-state faults, boundary traffic ↔ message
  faults).  Dependability-aware partitioning, with the fault
  subsystem as the objective rather than a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.explore.genome import Genome, SearchSpace, split_genome
from repro.obs.session import Obs
from repro.partition import HEURISTICS, CostWeights
from repro.partition.knobs import validate_knobs
from repro.sweep.config import SweepConfig

#: Objective vector names, in order, for each model arity.
OBJECTIVES_2D = ("cost", "latency_ns")
OBJECTIVES_3D = ("cost", "latency_ns", "exposure")


@dataclass(frozen=True)
class ProblemSpec:
    """The fixed (non-searched) half of the evaluation context.

    ``seed`` pins the workload instance per (generator, n_tasks) pair —
    the explorer searches *design* axes, not luck.  The spec rides
    inside every genome fingerprint, so changing it invalidates
    nothing silently.  The fields are :class:`SweepConfig`'s, and a bad
    value fails its checks here, not at an exploration's first genome.
    """

    seed: int = 0
    deadline_factor: Optional[float] = 0.7
    area_budget_factor: Optional[float] = 0.5
    hw_parallelism: Optional[int] = 1

    def __post_init__(self) -> None:
        SweepConfig(
            seed=self.seed,
            deadline_factor=self.deadline_factor,
            area_budget_factor=self.area_budget_factor,
            hw_parallelism=self.hw_parallelism,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "deadline_factor": self.deadline_factor,
            "area_budget_factor": self.area_budget_factor,
            "hw_parallelism": self.hw_parallelism,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProblemSpec":
        return cls(**data)


def genome_config(genome: Genome, problem: ProblemSpec) -> SweepConfig:
    """The sweep-cell view of a genome's core axes.

    Reusing :class:`SweepConfig` is what guarantees the explorer and
    the sweep engine see byte-identical workloads for the same axes —
    same graph seed derivation, same deadline/budget scaling.
    """
    core, _, _ = split_genome(genome)
    return SweepConfig(
        generator=core["generator"],
        n_tasks=core["n_tasks"],
        cost_model=core["cost_model"],
        heuristic=core["heuristic"],
        seed=problem.seed,
        comm=core["comm"],
        deadline_factor=problem.deadline_factor,
        area_budget_factor=problem.area_budget_factor,
        hw_parallelism=problem.hw_parallelism,
    )


def run_genome(payload: Dict[str, Any],
               obs: Optional[Obs] = None) -> Dict[str, Any]:
    """Evaluate one genome payload (the ``explore`` runner calls it).

    ``payload`` is plain JSON: ``{"genome": <effective genome>,
    "problem": <ProblemSpec dict>}`` — the same dict the campaign
    store queues, so in-process and store runs execute identical code.
    ``obs``, the worker session of an observed genome, gets a ``genome``
    span and per-heuristic counters; the record is the same.
    """
    from repro.partition.cost import cost_terms, partition_cost

    genome: Genome = payload["genome"]
    if obs is not None:
        with obs.span("genome", heuristic=genome.get("heuristic"),
                      generator=genome.get("generator")):
            record = run_genome(payload)
        obs.count("explore.worker.genomes")
        obs.count(f"explore.heuristic.{record['algorithm']}.genomes")
        return record
    problem_spec = ProblemSpec.from_dict(payload["problem"])
    core, knobs, weight_genes = split_genome(genome)
    validate_knobs(core["heuristic"], knobs)
    config = genome_config(genome, problem_spec)
    problem = config.build_problem()
    tuning = CostWeights(**weight_genes) if weight_genes \
        else CostWeights()
    heuristic = HEURISTICS[core["heuristic"]]
    result = heuristic(
        problem, weights=tuning, seed=config.heuristic_seed(), **knobs,
    )
    evaluation = result.evaluation
    raw = cost_terms(problem, evaluation, result.hw_tasks)
    return {
        "genome": dict(sorted(genome.items())),
        "algorithm": result.algorithm,
        "n_tasks": len(problem.graph),
        "hw_tasks": sorted(result.hw_tasks),
        "n_hw": len(result.hw_tasks),
        "n_sw": len(result.sw_tasks),
        "tuned_cost": result.cost,
        "cost_terms": {k: raw[k] for k in sorted(raw)},
        "latency_ns": evaluation.latency_ns,
        "hw_area": evaluation.hw_area,
        "sw_size": evaluation.sw_size,
        "comm_ns": evaluation.comm_ns,
        "overlap_fraction": evaluation.overlap_fraction,
        "deadline_met": evaluation.deadline_met,
        "area_feasible": result.area_feasible,
        "feasible": result.feasible,
        "moves_evaluated": result.moves_evaluated,
    }


def reference_cost(record: Dict[str, Any],
                   weights: Optional[CostWeights] = None) -> float:
    """The scalar cost objective under fixed reference weights.

    Summed in sorted factor order — float addition is non-associative
    and this number lands in byte-compared front tables.
    """
    weights = weights if weights is not None else CostWeights()
    total = 0.0
    for factor in sorted(record["cost_terms"]):
        total += getattr(weights, factor) * record["cost_terms"][factor]
    return total


# ----------------------------------------------------------------------
# the dependability objective
# ----------------------------------------------------------------------
#: fault-kind prefixes per surface (see repro.fault.spec KINDS).
_HW_KINDS = ("signal_flip", "reg_flip")
_SW_KINDS = ("cpu_reg_flip", "cpu_pc_flip", "cpu_flag_flip")
_COMM_KINDS = (
    "msg_drop", "msg_dup", "msg_delay", "msg_reorder", "msg_corrupt",
)


@dataclass(frozen=True)
class DependabilityModel:
    """Campaign-measured detection coverage per injection surface.

    ``coverage_*`` is ``detected / (detected + sdc)`` over the
    campaign's faults on that surface (1.0 when the surface exposed
    nothing — consistent with
    :meth:`repro.fault.campaign.CampaignResult.detection_coverage`).
    :meth:`exposure` weights the surfaces by where a concrete design
    point's functionality lives.
    """

    scenario: str
    faults: int
    coverage_hw: float
    coverage_sw: float
    coverage_comm: float

    @classmethod
    def from_campaign(cls, result) -> "DependabilityModel":
        """Distill a :class:`~repro.fault.campaign.CampaignResult`."""
        by_kind = result.by_kind()

        def coverage(kinds) -> float:
            detected = sum(
                by_kind[k]["detected"] for k in kinds if k in by_kind
            )
            sdc = sum(
                by_kind[k]["sdc"] for k in kinds if k in by_kind
            )
            exposed = detected + sdc
            return detected / exposed if exposed else 1.0

        return cls(
            scenario=result.scenario,
            faults=len(result.rows),
            coverage_hw=coverage(_HW_KINDS),
            coverage_sw=coverage(_SW_KINDS),
            coverage_comm=coverage(_COMM_KINDS),
        )

    def exposure(self, record: Dict[str, Any]) -> float:
        """``1 − coverage`` of one design point, in [0, 1].

        Surface weights come from the partition itself: the fraction
        of tasks in hardware weights the hardware-fault coverage, the
        software fraction weights CPU-fault coverage, and the
        boundary-communication share of the schedule
        (``comm_ns / latency_ns``) weights message-fault coverage.
        A design that localizes functionality on well-covered surfaces
        scores lower exposure — which is precisely the co-design
        trade this objective exists to reward.
        """
        n = max(1, record["n_hw"] + record["n_sw"])
        latency = record["latency_ns"]
        w_comm = min(1.0, record["comm_ns"] / latency) \
            if latency > 0 else 0.0
        w_hw = (record["n_hw"] / n) * (1.0 - w_comm)
        w_sw = (record["n_sw"] / n) * (1.0 - w_comm)
        total = w_hw + w_sw + w_comm
        if total <= 0.0:
            return 0.0
        coverage = (
            w_hw * self.coverage_hw
            + w_sw * self.coverage_sw
            + w_comm * self.coverage_comm
        ) / total
        return 1.0 - coverage

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "faults": self.faults,
            "coverage_hw": self.coverage_hw,
            "coverage_sw": self.coverage_sw,
            "coverage_comm": self.coverage_comm,
        }


def measure_dependability(
    scenario: str,
    n_faults: int,
    seed: int,
    workers: int = 1,
    cache=None,
    obs: Optional[Obs] = None,
) -> DependabilityModel:
    """Run (or replay from cache) the coverage-measuring campaign.

    The campaign's cells land in the same cache/store the genome
    records use — fault fingerprints and genome fingerprints are
    distinct SHA-256 keys — so a warm explorer re-run recomputes
    neither genomes nor faults.  ``obs`` is the campaign's
    :class:`~repro.obs.session.Obs` session.
    """
    from repro.fault import sample_faults
    from repro.fault.campaign import run_campaign
    from repro.fault.scenarios import SCENARIOS

    faults = sample_faults(
        SCENARIOS[scenario].targets, n_faults, seed=seed,
    )
    result = run_campaign(
        scenario, faults, workers=workers, cache=cache, obs=obs,
    )
    return DependabilityModel.from_campaign(result)


def objectives_from_record(
    record: Dict[str, Any],
    model: Optional[DependabilityModel] = None,
    weights: Optional[CostWeights] = None,
) -> Tuple[float, ...]:
    """The minimization objective vector of one evaluated genome.

    2-D (cost, latency) without a dependability model, 3-D
    (cost, latency, exposure) with one.  Pure parent-side function of
    JSON-stable inputs: fronts never depend on worker count.
    """
    cost = reference_cost(record, weights)
    latency = record["latency_ns"]
    if model is None:
        return (cost, latency)
    return (cost, latency, model.exposure(record))


def objective_names(model: Optional[DependabilityModel]) -> Tuple[str, ...]:
    """The names matching :func:`objectives_from_record`'s vector."""
    return OBJECTIVES_3D if model is not None else OBJECTIVES_2D
