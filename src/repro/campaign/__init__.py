"""Campaign-as-a-service: durable, sharded, resumable experiment runs.

The one execution path under the sweep, fault and explore engines:

* :mod:`repro.campaign.store` — :class:`CampaignStore`, one SQLite
  file holding a fingerprint-keyed result store (``CACHE_VERSION``
  semantics, plus an import of the JSON cache directories earlier
  versions wrote) and a lease-stamped persistent job queue;
* :mod:`repro.campaign.service` — :func:`run_cells`, the dispatch
  every engine calls (a plain in-process loop with no store and one
  worker, the store otherwise), and :func:`run_store_jobs`, the
  coordinator + N shard processes that drain the queue with batched
  claim/commit transactions, reclaim dead leases, and make any
  interrupted campaign resumable with byte-identical final tables;
* :mod:`repro.campaign.runners` — the named payload→record runner
  registry both paths execute from.

Quick tour::

    from repro.campaign import CampaignStore
    from repro.sweep import expand_grid, run_sweep

    store = CampaignStore("campaign.sqlite")
    grid = expand_grid(heuristics=("greedy", "kl"), seeds=range(32))
    table = run_sweep(grid, workers=4, cache=store)   # kill it anytime;
    table = run_sweep(grid, workers=4, cache=store)   # resumes, 0 recompute
"""

from repro._lazy import lazy_exports

# nothing loads with the package: a workers=1 campaign with no store
# runs its cells through repro.campaign.service without sqlite3
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaign.store": ("CACHE_VERSION", "CacheVersionError",
                             "CampaignStore", "JOB_STATES"),
    "repro.campaign.service": ("CampaignCellError", "CampaignInterrupted",
                               "run_cells", "run_store_jobs"),
    "repro.campaign.runners": ("RUNNERS", "get_runner",
                               "register_runner"),
})

__all__ = [
    "CACHE_VERSION",
    "CacheVersionError",
    "CampaignStore",
    "JOB_STATES",
    "CampaignCellError",
    "CampaignInterrupted",
    "run_cells",
    "run_store_jobs",
    "RUNNERS",
    "get_runner",
    "register_runner",
]
