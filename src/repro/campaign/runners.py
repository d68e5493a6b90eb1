"""Payload runners: how a campaign cell turns a queued job into a
record.

A job payload must be plain JSON (it lives in the ``jobs`` table and
survives process death), so runners rebuild the typed objects from
dicts — the same dict forms the engines already fingerprint.  Every
runner returns ``(record, obs)`` where ``obs`` is the worker-side
observability payload (or None on the unobserved path); records are
pure functions of the payload, so a resumed, re-sharded, or
work-stolen cell produces byte-identical output wherever it runs.

Both execution paths of :func:`repro.campaign.service.run_cells` — the
in-process loop and the store's shards — run the runner registered
under the campaign's name, and each runner calls its engine's cell
function through the engine module's attribute, looked up at call
time.  The registry is keyed by name because shard *processes*
receive the runner by name — a string round-trips through the
process boundary and the jobs table; a closure does not.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

RunnerResult = Tuple[Dict[str, Any], Optional[Dict[str, Any]]]
Runner = Callable[[Dict[str, Any]], RunnerResult]

#: name → runner; extended via :func:`register_runner`.
RUNNERS: Dict[str, Runner] = {}


def register_runner(name: str, fn: Runner) -> None:
    """Register a runner under ``name`` (last registration wins)."""
    RUNNERS[name] = fn


def get_runner(name: str) -> Runner:
    """Look up a runner, with a helpful error on typos."""
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign runner {name!r}; have {sorted(RUNNERS)}"
        ) from None


# ----------------------------------------------------------------------
# sweep cells
# ----------------------------------------------------------------------
def _sweep_weights(payload: Dict[str, Any]):
    from repro.partition import CostWeights

    weights = payload.get("weights")
    return CostWeights(**weights) if weights is not None else None


def run_sweep_payload(payload: Dict[str, Any]) -> RunnerResult:
    """One sweep cell from its JSON payload (unobserved)."""
    from repro.sweep.config import SweepConfig
    from repro.sweep.engine import run_cell

    config = SweepConfig.from_dict(payload["config"])
    return run_cell(config, weights=_sweep_weights(payload)), None


def run_sweep_payload_observed(payload: Dict[str, Any]) -> RunnerResult:
    """One sweep cell plus its worker-side spans/probe/metrics."""
    from repro.sweep.config import SweepConfig
    from repro.sweep.engine import run_cell_observed

    config = SweepConfig.from_dict(payload["config"])
    return run_cell_observed(config, weights=_sweep_weights(payload))


# ----------------------------------------------------------------------
# fault cells
# ----------------------------------------------------------------------
def run_fault_payload(payload: Dict[str, Any]) -> RunnerResult:
    """One fault-campaign cell from its JSON payload (unobserved)."""
    from repro.fault.campaign import run_fault_cell

    return run_fault_cell((payload["scenario"], payload["fault"])), None


def run_fault_payload_observed(payload: Dict[str, Any]) -> RunnerResult:
    """One fault-campaign cell plus its observability payload."""
    from repro.fault.campaign import run_fault_cell_observed

    return run_fault_cell_observed(
        (payload["scenario"], payload["fault"])
    )


# ----------------------------------------------------------------------
# explorer genome cells
# ----------------------------------------------------------------------
def run_explore_payload(payload: Dict[str, Any]) -> RunnerResult:
    """One explorer genome evaluation from its JSON payload."""
    from repro.explore.driver import run_genome

    return run_genome(payload), None


def run_explore_payload_observed(payload: Dict[str, Any]) -> RunnerResult:
    """One explorer genome evaluation plus its observability payload."""
    from repro.explore.driver import run_genome_observed

    return run_genome_observed(payload)


register_runner("sweep", run_sweep_payload)
register_runner("sweep_observed", run_sweep_payload_observed)
register_runner("fault", run_fault_payload)
register_runner("fault_observed", run_fault_payload_observed)
register_runner("explore", run_explore_payload)
register_runner("explore_observed", run_explore_payload_observed)
