"""Tests of the benchmark itself, at short horizons.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path, PurePath

import pytest

import harness
import layers

ROOT = Path(__file__).resolve().parent.parent

#: short-horizon sizes of each workload (the benchmark's own sizes take
#: minutes).  Golden-day's p95 <= QoS check holds from a 1200 s day up;
#: squeezing the diurnal cycle harder outruns the controller's dwell times.
SHORT = {
    "golden-day": {"day": 1200.0},
    "fleet-100": {"services": 4, "day": 120.0},
    "overload-chaos": {"day": 300.0},
}


@pytest.fixture(autouse=True)
def pinned(monkeypatch):
    """The benchmark's pinned executor settings, undone after each test."""
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_CACHE", "on")
    harness.pin_environment()
    yield
    harness.executor.configure(workers=None, cache=None)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_pinning_overrides_the_environment():
    assert harness.executor.resolve_workers() == 1
    assert harness.executor.resolve_cache() is None


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    report = harness.measure("golden-day", 3, 0.0, **SHORT["golden-day"])
    assert [(n, u) for n, (_, u) in report.metrics.items()] == _declared("end_to_end")
    assert all(v > 0 for v, _ in report.metrics.values())
    layered = harness.measure_layers("golden-day", 3, **SHORT["golden-day"])
    assert [(n, u) for n, (_, u) in layered.metrics.items()] == _declared("per_layer")


@pytest.mark.parametrize("workload", list(SHORT))
def test_tracing_leaves_modelled_outputs_and_counts_identical(workload):
    report = harness.measure_layers(workload, 5, **SHORT[workload])
    plain, traced = report.runs
    assert traced.digest == plain.digest
    assert traced.modelled == plain.modelled
    assert traced.counts == plain.counts
    assert sum(traced.self_s.values()) > 0.5 * traced.wall_s
    assert report.metrics["trace.accounted_frac"][0] <= 1.0 + 1e-6


@pytest.mark.parametrize("workload", list(SHORT))
def test_counts_repeat_exactly_across_runs(workload):
    first = harness.run_once(workload, 7, **SHORT[workload])
    second = harness.run_once(workload, 7, **SHORT[workload])
    assert second.counts == first.counts
    assert second.digest == first.digest
    assert first.counts["sim.events"] > 0
    assert first.counts["cluster.executions_user"] == first.user_completed


@pytest.mark.parametrize("workload", list(SHORT))
def test_another_seed_changes_the_digest(workload):
    a = harness.run_once(workload, 1, **SHORT[workload])
    b = harness.run_once(workload, 2, **SHORT[workload])
    assert a.digest != b.digest


def test_set_up_only_runs_simulate_nothing():
    dry = harness.run_once("golden-day", 1, dry=True, **SHORT["golden-day"])
    assert dry.counts["sim.events"] < 100
    assert dry.setup_s > 0 and dry.loop_s < dry.setup_s


def test_layer_of_maps_packages_and_modules():
    package = PurePath("/x/repro/src/repro")
    assert layers.layer_of("/x/repro/src/repro/sim/environment.py", package) == "sim"
    assert layers.layer_of("/x/repro/src/repro/telemetry.py", package) == "telemetry"
    assert layers.layer_of("/x/repro/src/repro/graph/runtime.py", package) == layers.OTHER
    assert layers.layer_of("/x/repro/src/repro/__init__.py", package) == layers.OTHER
    assert layers.layer_of("/x/repro/perfbench/harness.py", package) is None
    assert layers.layer_of("/usr/lib/python3/heapq.py", package) is None
    assert layers.layer_of("~", package) is None


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden-day", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_a_failed_output_check_is_loud():
    # a 300 s day squeezes the diurnal cycle past the controller's dwell
    # times, and seed 5's foreground p95 then exceeds its QoS target
    with pytest.raises(harness.CheckFailed, match="QoS target"):
        harness.run_once("golden-day", 5, day=300.0)


def test_fleet_seed_zero_is_the_plain_fleet_sweep():
    probe = harness.Probe()
    with probe.installed():
        harness.fleet_module.fleet_sweep(services=4, day=120.0, seed=0, workers=1, cache=False)
    assert harness.run_once("fleet-100", 0, **SHORT["fleet-100"]).digest == harness._digest(probe.records)
