"""Payload runners: how a campaign cell turns a queued job into a
record.

A job payload must be plain JSON (it lives in the ``jobs`` table and
survives process death), so runners rebuild the typed objects from
dicts — the same dict forms the engines already fingerprint.
``runner(payload, obs)`` returns the record; ``obs`` is the worker
session an observed cell runs under (``Obs.worker``), else None.
Records are pure functions of the payload, so a resumed, re-sharded,
work-stolen or observed cell produces byte-identical output wherever
it runs.

Both execution paths of :func:`repro.campaign.service.run_cells` — the
in-process loop and the store's shards — run the runner registered
under the campaign's name, and each runner calls its engine's cell
function through the engine module's attribute, looked up at call
time.  The registry is keyed by name because shard *processes*
receive the runner by name — a string round-trips through the
process boundary and the jobs table; a closure does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.obs.session import Obs

Runner = Callable[[Dict[str, Any], Optional["Obs"]], Dict[str, Any]]

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


def run_sweep_payload(payload: Dict[str, Any],
                      obs: Optional[Obs] = None) -> Dict[str, Any]:
    """One sweep cell from its JSON payload."""
    from repro.sweep.config import SweepConfig
    from repro.sweep.engine import run_cell

    config = SweepConfig.from_dict(payload["config"])
    return run_cell(config, weights=_sweep_weights(payload), obs=obs)


# ----------------------------------------------------------------------
# fault cells
# ----------------------------------------------------------------------
def run_fault_payload(payload: Dict[str, Any],
                      obs: Optional[Obs] = None) -> Dict[str, Any]:
    """One fault-campaign cell from its JSON payload."""
    from repro.fault.campaign import run_fault_cell

    return run_fault_cell((payload["scenario"], payload["fault"]),
                          obs=obs)


# ----------------------------------------------------------------------
# explorer genome cells
# ----------------------------------------------------------------------
def run_explore_payload(payload: Dict[str, Any],
                        obs: Optional[Obs] = None) -> Dict[str, Any]:
    """One explorer genome evaluation from its JSON payload."""
    from repro.explore.driver import run_genome

    return run_genome(payload, obs=obs)


register_runner("sweep", run_sweep_payload)
register_runner("fault", run_fault_payload)
register_runner("explore", run_explore_payload)
