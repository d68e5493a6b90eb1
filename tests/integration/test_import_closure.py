"""Each entry point imports only the code it runs.

A fault campaign is the innermost task of the paper's flow (Figure 2:
co-simulation inside co-synthesis inside partitioning), so it must not
load the outer ones: no numpy, no fork engine, no translator (a
backplane-stepped CPU never builds one), no partitioners, estimators,
HLS or graph generators, no process pool.  A software-only campaign
forked from one golden run loads the fork engine and the translator,
and still no numpy.
Package surfaces keep every public name, resolving the heavy ones on
first access.

Every check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: modules (and their submodules) no campaign or store entry point loads
HEAVY = (
    "numpy", "scipy", "networkx", "multiprocessing",
    "repro.isa.batch", "repro.isa.translate", "repro.partition",
    "repro.estimate", "repro.hls", "repro.graph", "repro.sweep.config",
)

ENTRY_POINTS = {
    "fault campaign": "from repro.fault import run_campaign\n",
    "campaign store": "from repro.campaign import CampaignStore\n",
}

#: the seed-7 E18 dependability histogram (200 coproc faults)
E18 = {"masked": 96, "sdc": 49, "detected": 6, "hang": 40, "crash": 9}
#: the seed-7 E24 dependability histogram (200 swmac faults)
E24 = {"masked": 64, "sdc": 46, "detected": 16, "hang": 24, "crash": 50}

#: (package, name, defining module) of every lazily resolved name
LAZY = [
    ("repro.isa", name, "repro.isa.translate") for name in (
        "BlockTranslator", "auto_translation", "install")
] + [
    ("repro.isa", name, "repro.isa.batch")
    for name in ("BatchCpu", "BatchStats", "LaneExit")
] + [
    ("repro.obs", name, "repro.obs.perfetto") for name in (
        "REQUIRED_KEYS", "kernel_trace_events", "to_perfetto_json",
        "to_trace_events", "validate_trace_events")
] + [
    ("repro.obs", "fold_spans", "repro.obs.flame"),
    ("repro.obs", "render_flamegraph", "repro.obs.flame"),
    ("repro.obs", "PostMortem", "repro.obs.postmortem"),
    ("repro.obs", "post_mortem", "repro.obs.postmortem"),
    ("repro.obs", "ProgressProbe", "repro.partition.seeding"),
    ("repro.obs", "ProgressRecord", "repro.partition.seeding"),
] + [
    ("repro.sweep", name, "repro.sweep.config") for name in (
        "COMM_MODELS", "CONFIG_VERSION", "SweepConfig", "expand_grid",
        "parse_seed_spec")
] + [
    ("repro.sweep", "SweepResult", "repro.sweep.table"),
] + [
    ("repro.sweep", name, "repro.sweep.engine") for name in (
        "SweepCellError", "SweepStats", "run_cell", "run_sweep")
] + [
    ("repro.campaign", name, "repro.campaign.store") for name in (
        "CACHE_VERSION", "CacheVersionError", "CampaignStore",
        "JOB_STATES")
] + [
    ("repro.campaign", name, "repro.campaign.service") for name in (
        "CampaignCellError", "CampaignInterrupted", "run_cells",
        "run_store_jobs")
] + [
    ("repro.campaign", name, "repro.campaign.runners")
    for name in ("RUNNERS", "get_runner", "register_runner")
] + [
    ("repro.sweep", name, "repro.sweep.differential") for name in (
        "DifferentialReport", "check_result", "graph_signature",
        "random_problem_config", "run_differential")
]

REPORT_HEAVY = (
    "import json, sys\n"
    f"heavy = {HEAVY!r}\n"
    "print(json.dumps(sorted(m for m in sys.modules if m in heavy\n"
    "      or m.startswith(tuple(h + '.' for h in heavy)))))\n"
)


def run_python(code: str, lines: int = 1):
    """Run ``code`` in a fresh interpreter; its last ``lines`` stdout
    lines, each read as JSON (one value when ``lines`` is 1)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    values = [json.loads(line)
              for line in proc.stdout.splitlines()[-lines:]]
    return values[0] if lines == 1 else values


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_imports_nothing_heavy(entry):
    assert run_python(ENTRY_POINTS[entry] + REPORT_HEAVY) == []


def campaign_without_numpy(scenario: str, batch: bool = False) -> str:
    """Source that runs the seed-7 campaign of 200 faults with numpy
    unimportable, prints its histogram, then what it loaded of HEAVY."""
    return (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.fault import SCENARIOS, run_campaign, sample_faults\n"
        f"faults = sample_faults(SCENARIOS[{scenario!r}].targets, 200,\n"
        "                       seed=7)\n"
        f"doc = run_campaign({scenario!r}, faults,\n"
        f"                   batch={batch!r}).to_json()\n"
        "print(json.dumps(json.loads(doc)['histogram']))\n"
        "sys.modules.pop('numpy')\n"
    ) + REPORT_HEAVY


def test_coproc_campaign_runs_without_numpy():
    """The seed-7 E18 campaign gives its pinned histogram with numpy
    unimportable, and running it loads nothing heavy either."""
    histogram, heavy = run_python(campaign_without_numpy("coproc"),
                                  lines=2)
    assert histogram == E18
    assert heavy == []


def test_serial_campaign_opens_no_store():
    """A workers=1 campaign with no store runs its cells in a plain
    loop: it never loads sqlite3, a temporary store or a
    process pool."""
    code = (
        "import json, sys\n"
        "from repro.fault import SCENARIOS, run_campaign, sample_faults\n"
        "faults = sample_faults(SCENARIOS['msgpipe'].targets, 8, seed=7)\n"
        "run_campaign('msgpipe', faults)\n"
        "print(json.dumps(sorted(m for m in ('sqlite3', 'multiprocessing',\n"
        "                                    'repro.campaign.store')\n"
        "                        if m in sys.modules)))\n"
    )
    assert run_python(code) == []


def test_forked_swmac_campaign_runs_without_numpy():
    """The seed-7 E24 campaign forked from one golden run gives its
    pinned histogram with numpy unimportable; it loads the fork engine
    and the translator it runs, and no numpy."""
    histogram, heavy = run_python(
        campaign_without_numpy("swmac", batch=True), lines=2)
    assert histogram == E24
    assert "repro.isa.batch" in heavy
    assert not [m for m in heavy if m.split(".")[0] == "numpy"]


def test_observability_session_loads_no_store_or_partitioner():
    """The session every driver takes is importable on its own: no
    store, no process machinery, no partitioners."""
    code = (
        "import json, sys\n"
        "from repro.obs import Obs\n"
        "print(json.dumps(sorted(m for m in ('sqlite3', 'multiprocessing',\n"
        "                                    'repro.partition',\n"
        "                                    'repro.campaign.store')\n"
        "                        if m in sys.modules)))\n"
    )
    assert run_python(code) == []


def test_lazy_names_resolve_to_the_defining_modules_objects():
    """Each lazy name is public, not loaded with its package, and on
    first access is the defining module's own object."""
    code = (
        "import importlib, json\n"
        f"lazy = {LAZY!r}\n"
        "eager = [f'{p}.{n}' for p, n, _ in lazy\n"
        "         if n not in importlib.import_module(p).__all__\n"
        "         or n in vars(importlib.import_module(p))]\n"
        "wrong = [f'{p}.{n}' for p, n, m in lazy\n"
        "         if getattr(importlib.import_module(p), n)\n"
        "         is not getattr(importlib.import_module(m), n)]\n"
        "print(json.dumps({'eager': eager, 'wrong': wrong}))\n"
    )
    assert run_python(code) == {"eager": [], "wrong": []}


@pytest.mark.parametrize("package", ["repro.campaign", "repro.isa",
                                     "repro.obs", "repro.sweep"])
def test_star_import_and_dir_list_every_public_name(package):
    code = (
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "names = {}\n"
        f"exec('from {package} import *', names)\n"
        "print(json.dumps({\n"
        "    'unbound': [n for n in package.__all__ if n not in names],\n"
        "    'undir': [n for n in package.__all__\n"
        "              if n not in dir(package)],\n"
        "}))\n"
    )
    assert run_python(code) == {"unbound": [], "undir": []}
