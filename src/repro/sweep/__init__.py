"""Parallel experiment sweeps over the partitioning framework.

The throughput layer the ROADMAP's north star asks for: apply the
paper's Section 3.3/Section 5 comparison machinery to *many*
methodology instances at once, instead of one figure-benchmark at a
time.

* :mod:`repro.sweep.config` — sweep cells (generator × cost model ×
  heuristic × seed), stable fingerprints, deterministic seed
  derivation, grid expansion;
* :mod:`repro.sweep.engine` — the ``ProcessPoolExecutor`` fan-out with
  result caching and PR 1 metrics instrumentation;
* :mod:`repro.sweep.cache` — the fingerprint-keyed on-disk JSON cache;
* :mod:`repro.sweep.table` — the canonical result table and the
  Section 5-style comparison report;
* :mod:`repro.sweep.differential` — the cross-heuristic invariant
  harness that makes the parallel numbers trustworthy.

Quick tour::

    from repro.sweep import ResultCache, expand_grid, run_sweep

    grid = expand_grid(
        generators=("layered", "forkjoin"),
        heuristics=("greedy", "kl", "vulcan", "cosyma"),
        seeds=range(8),
    )
    table = run_sweep(grid, workers=4, cache=ResultCache(".sweep-cache"))
    print(table.comparison_report())
"""

from repro._lazy import lazy_exports

# nothing loads with the package: a fault campaign needs only the cache
# and the pool fan-out, never the partitioners behind a sweep cell
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweep.config": (
        "COMM_MODELS",
        "CONFIG_VERSION",
        "SweepConfig",
        "expand_grid",
        "parse_seed_spec",
    ),
    "repro.sweep.cache": ("CACHE_VERSION", "CacheVersionError",
                          "ResultCache"),
    "repro.sweep.table": ("SweepResult",),
    "repro.sweep.engine": (
        "CellTiming",
        "PoolJobError",
        "SweepCellError",
        "SweepStats",
        "pool_map",
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
    "CACHE_VERSION",
    "CacheVersionError",
    "ResultCache",
    "SweepResult",
    "CellTiming",
    "PoolJobError",
    "SweepCellError",
    "SweepStats",
    "pool_map",
    "run_cell",
    "run_cell_observed",
    "run_sweep",
    "DifferentialReport",
    "check_result",
    "graph_signature",
    "random_problem_config",
    "run_differential",
]
