"""The parallel executor: bit-determinism, dedup, and sweep resume.

The headline contract is that worker count is invisible in the output:
``workers=4`` must reproduce the serial batch ``float.hex``-for-hex,
because results merge in submission order and every run is independently
seeded.  The sweeps' own determinism gates then extend to the parallel
path for free.
"""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.experiments import executor as executor_module
from repro.experiments.cache import RunCache
from repro.experiments.chaos import chaos_sweep
from repro.experiments.executor import (
    RunRequest,
    configure,
    resolve_workers,
    run_many,
    run_systems,
)
from repro.experiments.overload import overload_sweep
from repro.experiments.runner import run_nameko
from repro.experiments.scenarios import chaos_scenario, default_scenario


def _hexes(result, name="matmul"):
    return [x.hex() for x in result.services[name].metrics.latencies.values()]


def _row_hexes(figure):
    return [
        [x.hex() if isinstance(x, float) else x for x in row] for row in figure.rows
    ]


class TestRunRequest:
    def test_rejects_unknown_system(self):
        scenario = default_scenario("float", day=60.0)
        with pytest.raises(ValueError, match="unknown system"):
            RunRequest(system="knative", scenario=scenario)

    def test_variant_is_amoeba_only(self):
        scenario = default_scenario("float", day=60.0)
        with pytest.raises(ValueError, match="variant only applies"):
            RunRequest(system="nameko", scenario=scenario, variant="nom")

    def test_config_is_amoeba_or_graph_only(self):
        from repro.core import AmoebaConfig

        scenario = default_scenario("float", day=60.0)
        with pytest.raises(ValueError, match="config only applies"):
            RunRequest(system="nameko", scenario=scenario, config=AmoebaConfig())

    def test_graph_system_requires_graph_scenario(self):
        from repro.experiments.dag import dag_scenario

        flat = default_scenario("float", day=60.0)
        with pytest.raises(TypeError, match="GraphScenario"):
            RunRequest(system="graph", scenario=flat)
        with pytest.raises(TypeError, match="flat Scenario"):
            RunRequest(system="amoeba", scenario=dag_scenario(2, day=60.0))

    def test_serverless_config_is_openwhisk_only(self):
        from repro.serverless.config import ServerlessConfig

        scenario = default_scenario("float", day=60.0)
        with pytest.raises(ValueError, match="serverless_config"):
            RunRequest(
                system="amoeba", scenario=scenario, serverless_config=ServerlessConfig()
            )

    def test_requests_are_picklable(self):
        request = RunRequest(
            system="amoeba", scenario=default_scenario("float", day=60.0, seed=3)
        )
        clone = pickle.loads(pickle.dumps(request))
        from repro.experiments.cache import fingerprint

        assert fingerprint(clone) == fingerprint(request)


class TestResolution:
    def test_workers_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        configure(workers=None)
        assert resolve_workers() == 1

    def test_env_and_argument_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        configure(workers=None)
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        configure(workers=5)
        try:
            assert resolve_workers() == 5
        finally:
            configure(workers=None)

    def test_bad_values_raise(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_WORKERS", "many")
        configure(workers=None)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()


class TestDeterministicMerge:
    def test_parallel_matches_serial_bit_for_bit(self):
        requests = [
            RunRequest(
                system="amoeba",
                scenario=chaos_scenario("matmul", fault_scale=s, day=120.0, seed=0),
            )
            for s in (0.0, 1.0)
        ]
        serial = run_many(requests, workers=1, cache=False)
        parallel = run_many(requests, workers=2, cache=False)
        for a, b in zip(serial, parallel):
            assert _hexes(a) == _hexes(b)

    def test_duplicate_requests_share_one_execution(self, tmp_path):
        cache = RunCache(tmp_path / "c", salt="s")
        request = RunRequest(system="nameko", scenario=default_scenario("float", day=90.0))
        results = run_many([request, request], workers=1, cache=cache)
        assert results[0] is results[1]
        assert cache.stores == 1 and cache.misses == 1

    def test_run_systems_maps_variants(self):
        scenario = default_scenario("float", day=90.0, seed=0)
        results = run_systems(scenario, ("nameko", "nom"), workers=1, cache=False)
        assert set(results) == {"nameko", "nom"}
        with pytest.raises(ValueError, match="unknown system"):
            run_systems(scenario, ("knative",), workers=1, cache=False)


class TestSweepIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_chaos_sweep_parallel_identity(self, workers):
        kw = dict(name="matmul", day=120.0, seed=0, scales=(0.0, 1.0))
        serial = chaos_sweep(workers=1, cache=False, **kw)
        parallel = chaos_sweep(workers=workers, cache=False, **kw)
        assert _row_hexes(serial) == _row_hexes(parallel)

    def test_overload_sweep_parallel_identity(self):
        kw = dict(name="matmul", day=120.0, seed=0, factors=(2.0,))
        serial = overload_sweep(workers=1, cache=False, **kw)
        parallel = overload_sweep(workers=2, cache=False, **kw)
        assert _row_hexes(serial) == _row_hexes(parallel)


class TestCachedSweeps:
    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        scales = (0.0, 0.5, 1.0)
        cache = RunCache(tmp_path / "c", salt="s")
        # "interrupted" sweep: only the first two scales finished
        run_many(
            [
                RunRequest(
                    system="amoeba",
                    scenario=chaos_scenario("matmul", fault_scale=s, day=120.0, seed=0),
                )
                for s in scales[:2]
            ],
            workers=1,
            cache=cache,
        )
        assert cache.stores == 2
        resumed = RunCache(tmp_path / "c", salt="s")
        figure = chaos_sweep(
            "matmul", day=120.0, seed=0, scales=scales, workers=1, cache=resumed
        )
        assert resumed.hits == 2 and resumed.stores == 1
        fresh = chaos_sweep("matmul", day=120.0, seed=0, scales=scales, workers=1, cache=False)
        assert _row_hexes(figure) == _row_hexes(fresh)

    def test_warm_rerun_executes_nothing(self, tmp_path):
        cache = RunCache(tmp_path / "c", salt="s")
        request = RunRequest(system="nameko", scenario=default_scenario("float", day=90.0))
        first = run_many([request], workers=1, cache=cache)
        warm = RunCache(tmp_path / "c", salt="s")
        second = run_many([request], workers=1, cache=warm)
        assert warm.hits == 1 and warm.stores == 0
        assert _hexes(first[0], "float") == _hexes(second[0], "float")


#: pid of the pytest process — the killer functions below use it to tell
#: "I am a forked pool worker" (kill) from "I am the inline fallback in
#: the parent" (run normally / raise an attributable error)
_PARENT_PID = os.getpid()

#: sentinel seed marking the one request that murders its worker
_KILLER_SEED = 666

_real_execute = executor_module.execute_request


def _kill_worker_execute(request):
    """SIGKILL the pool worker for the killer request; inline it succeeds."""
    if request.seed == _KILLER_SEED and os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_execute(request)


def _always_fail_execute(request):
    """The killer request dies in workers and raises inline (a hard failure)."""
    if request.seed == _KILLER_SEED:
        if os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("this request fails everywhere")
    return _real_execute(request)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="killer injection relies on fork inheriting the patched module",
)
class TestWorkerCrash:
    """A dead pool worker must not hang, abort, or corrupt the batch."""

    def _requests(self):
        return [
            RunRequest(
                system="nameko",
                scenario=default_scenario("float", day=30.0, seed=s),
                seed=s,
            )
            for s in (1, _KILLER_SEED, 2)
        ]

    def test_dead_worker_batch_still_completes_bit_identically(self, monkeypatch):
        requests = self._requests()
        serial = run_many(requests, workers=1, cache=False)
        monkeypatch.setattr(executor_module, "execute_request", _kill_worker_execute)
        survived = run_many(requests, workers=2, cache=False)
        assert len(survived) == len(serial)
        for a, b in zip(serial, survived):
            assert _hexes(a, "float") == _hexes(b, "float")

    def test_reliably_crashing_request_surfaces_a_per_request_error(self, monkeypatch):
        requests = self._requests()
        monkeypatch.setattr(executor_module, "execute_request", _always_fail_execute)
        with pytest.raises(RuntimeError, match="kept killing pool workers") as exc_info:
            run_many(requests, workers=2, cache=False)
        # the error names the offending request and chains its inline failure
        assert f"seed {_KILLER_SEED}" in str(exc_info.value)
        assert isinstance(exc_info.value.__cause__, RuntimeError)


class TestResultPickle:
    def test_run_result_round_trips_bit_exactly(self):
        scenario = default_scenario("float", day=90.0, seed=0)
        result = run_nameko(scenario)
        clone = pickle.loads(pickle.dumps(result))
        assert _hexes(clone, "float") == _hexes(result, "float")
        fg, fg2 = result.foreground(scenario), clone.foreground(scenario)
        assert fg.usage.mean_cores.hex() == fg2.usage.mean_cores.hex()
