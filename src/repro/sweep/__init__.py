"""Parallel experiment sweeps over the partitioning framework.

The throughput layer the ROADMAP's north star asks for: apply the
paper's Section 3.3/Section 5 comparison machinery to *many*
methodology instances at once, instead of one figure-benchmark at a
time.

* :mod:`repro.sweep.config` — sweep cells (generator × cost model ×
  heuristic × seed), stable fingerprints, deterministic seed
  derivation, grid expansion;
* :mod:`repro.sweep.engine` — ``run_sweep``, which runs the cells
  through the campaign service's one execution path (in-process, or
  on a :class:`~repro.campaign.CampaignStore`'s shards) with result
  reuse and metrics instrumentation;
* :mod:`repro.sweep.table` — the canonical result table and the
  Section 5-style comparison report;
* :mod:`repro.sweep.differential` — the cross-heuristic invariant
  harness that makes the parallel numbers trustworthy.

Quick tour::

    from repro.campaign import CampaignStore
    from repro.sweep import expand_grid, run_sweep

    grid = expand_grid(
        generators=("layered", "forkjoin"),
        heuristics=("greedy", "kl", "vulcan", "cosyma"),
        seeds=range(8),
    )
    table = run_sweep(grid, workers=4, cache=CampaignStore("sweep.sqlite"))
    print(table.comparison_report())
"""

from repro._lazy import lazy_exports

# nothing loads with the package: importing it never pulls in the
# partitioners behind a sweep cell
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweep.config": (
        "COMM_MODELS",
        "CONFIG_VERSION",
        "SweepConfig",
        "expand_grid",
        "parse_seed_spec",
    ),
    "repro.sweep.table": ("SweepResult",),
    "repro.sweep.engine": (
        "SweepCellError",
        "SweepStats",
        "run_cell",
        "run_cell_observed",
        "run_sweep",
    ),
    "repro.sweep.differential": (
        "DifferentialReport",
        "check_result",
        "graph_signature",
        "random_problem_config",
        "run_differential",
    ),
})

__all__ = [
    "COMM_MODELS",
    "CONFIG_VERSION",
    "SweepConfig",
    "expand_grid",
    "parse_seed_spec",
    "SweepResult",
    "SweepCellError",
    "SweepStats",
    "run_cell",
    "run_cell_observed",
    "run_sweep",
    "DifferentialReport",
    "check_result",
    "graph_signature",
    "random_problem_config",
    "run_differential",
]
