"""The end-to-end benchmark (``bench/run.py``) at ``--smoke`` size.

Pins what later changes must not break: every workload runs clean,
every metric ``BENCHMARK.json`` names comes out with its unit, traced
documents equal untraced ones, a wrapper whose target has gone away
turns its layer metrics into ``None`` with a reason instead of failing
the run, and the untraced run installs no wrapper at all.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
BENCH = os.path.join(REPO, "bench")

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _bench(tmp_path, *argv):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--out", str(out), *argv],
        capture_output=True, text=True, cwd=REPO, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    untraced = _bench(tmp_path_factory.mktemp("untraced"))
    traced = _bench(tmp_path_factory.mktemp("traced"), "--traced")
    return untraced, traced


def _check_metrics(last, doc, wanted):
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= len(WORKLOADS)
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert doc["workloads"][name]["failed_frac"] == 0
        for metric in wanted:
            entry = last["metrics"][f"{name}/{metric['name']}"]
            assert entry["unit"] == metric["unit"], (name, metric)
            assert entry["value"] is not None, (name, metric)


@pytest.mark.slow  # five child processes per run: the smoke lane skips
def test_untraced_smoke_reports_every_end_to_end_metric(smoke_runs):
    (last, doc), _ = smoke_runs
    _check_metrics(last, doc, CONTRACT["end_to_end"])
    for name in WORKLOADS:
        assert last["metrics"][f"{name}/setup_s"]["value"] > 0


@pytest.mark.slow
def test_traced_smoke_reports_every_layer_metric(smoke_runs):
    _, (last, doc) = smoke_runs
    _check_metrics(last, doc, CONTRACT["per_layer"])
    for name in WORKLOADS:
        assert doc["workloads"][name]["missing"] == {}
    coproc = doc["workloads"]["coproc-campaign"]["metrics"]
    assert coproc["cosim.activations"]["value"] > 0
    assert coproc["batch.run_s"]["value"] is None
    assert coproc["batch.run_s"]["reason"]


@pytest.mark.slow
def test_traced_documents_equal_untraced_ones(smoke_runs):
    (_, untraced), (_, traced) = smoke_runs
    for name in WORKLOADS:
        assert traced["workloads"][name]["digest"] \
            == untraced["workloads"][name]["digest"], name


def test_refuses_to_run_without_the_program(tmp_path):
    # a checkout holding only the benchmark has nothing to measure
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(BENCH, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "coproc-campaign", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import workloads
    return layers, workloads


def test_missing_target_becomes_null_with_a_reason(bench_modules):
    layers, workloads = bench_modules
    targets = tuple(
        (name, module, "Simulator.no_such_method" if name == "cosim"
         else path)
        for name, module, path in layers.TARGETS)
    recorder = layers.Recorder(targets=targets)
    wl = workloads.WORKLOADS["msgpipe-store"]
    wl.setup()
    faults = wl.make_input(7, "smoke")
    import repro.cosim.kernel as kernel
    original_run = kernel.Simulator.run

    recorder.install()
    try:
        result, _ = wl.run(faults)
    finally:
        recorder.uninstall()
    assert kernel.Simulator.run is original_run
    assert "Simulator.no_such_method" in recorder.missing["cosim"]

    wall = sum(s[2] - s[1] for s in recorder.spans if s[3] is None)
    metrics = layers.summarize_layers(
        [{"wall": wall, "folded": layers.fold(recorder.spans),
          "counts": dict(recorder.counts)}], recorder.missing)
    for name in ("cosim.self_s", "cosim.self_pct", "cosim.activations",
                 "cosim.ns_per_activation"):
        assert metrics[name]["value"] is None, name
        assert "no_such_method" in metrics[name]["reason"], name
    assert metrics["store.write_s"]["value"] > 0
    assert metrics["fault.cells"]["value"] > 0
    doc, _cells, problems = wl.judge(result)
    assert problems == []


def test_untraced_run_installs_no_wrapper(bench_modules, monkeypatch):
    layers, workloads = bench_modules

    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(layers.Recorder, "install", refuse)
    wl = workloads.WORKLOADS["swmac-batch"]
    wl.setup()
    child = workloads.Child(wl, seed=3, seconds=0.0, smoke=True,
                            trace=False)
    out = child.run(wl.make_input(3, "smoke"), spans_path=None)
    assert child.failures == []
    assert out["run_s"] and "layers" not in out
