"""The acceptance test for checkpoint/resume: SIGKILL a sharded
campaign mid-flight, resume against the same store, and get the exact
table an uninterrupted run produces — recomputing only uncommitted
cells.

The victim runs in its own session (process group), so one ``killpg``
takes down coordinator and shards together — the closest safe
approximation of a power cut.  Resume relies on two store behaviours
tested in isolation elsewhere: batched claim/commit transactions (a
kill never leaves a half-committed cell) and dead-pid lease reclaim
(the killed shards' cells are runnable again immediately).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.obs import Obs
from repro.sweep import expand_grid, run_sweep

#: ~0.5-0.7s/cell (annealing) so the kill lands mid-campaign even on
#: fast hosts, without making the test crawl.
GRID_KW = dict(
    generators=("layered",),
    n_tasks=(14,),
    heuristics=("annealing",),
    seeds=range(8),
)

VICTIM = """\
import sys
from repro.campaign import CampaignStore
from repro.sweep import expand_grid, run_sweep

grid = expand_grid(generators=("layered",), n_tasks=(14,),
                   heuristics=("annealing",), seeds=range(8))
run_sweep(grid, workers=2, cache=CampaignStore(sys.argv[1]))
"""


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@pytest.mark.slow
def test_sigkill_resume_is_byte_identical(tmp_path):
    grid = expand_grid(**GRID_KW)
    store_path = tmp_path / "campaign.sqlite"

    victim = subprocess.Popen(
        [sys.executable, "-c", VICTIM, str(store_path)],
        env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # wait until real progress is committed, then pull the plug
        store = CampaignStore(store_path)
        deadline = time.time() + 120
        while time.time() < deadline:
            if victim.poll() is not None:
                break
            if store_path.exists() and len(store) >= 2:
                break
            time.sleep(0.05)
        os.killpg(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=30)

    committed = set(store.fingerprints())
    total = {c.fingerprint for c in grid}
    assert committed, "campaign was killed before any commit"
    assert committed < total, (
        "campaign finished before the kill; grow the grid"
    )
    # the killed shards left leases behind; none of them half-committed
    for fingerprint in committed:
        assert store.get(fingerprint) is not None

    # resume: only the uncommitted cells are recomputed
    metrics = MetricsRegistry()
    resumed = run_sweep(grid, workers=2, cache=store,
                        obs=Obs(metrics=metrics))
    assert metrics.counter("sweep.cells.computed").value == \
        len(total - committed)
    assert metrics.counter("sweep.cache.hits").value == len(committed)

    # and the final table is byte-identical to an uninterrupted run
    reference = run_sweep(grid, workers=2)
    assert resumed.to_json() == reference.to_json()

    # a second resume touches nothing at all
    again = MetricsRegistry()
    rerun = run_sweep(grid, workers=2, cache=store, obs=Obs(metrics=again))
    assert again.counter("sweep.cells.computed").value == 0
    assert rerun.to_json() == reference.to_json()
