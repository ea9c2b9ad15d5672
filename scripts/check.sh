#!/usr/bin/env bash
# The single development gate: every PR must pass this locally and in CI.
#
#   1. simlint  — the repo's own whole-program analyzer: sim-kernel
#                 invariants SIM001..SIM017 plus the ARCH001..ARCH004
#                 import-graph layering rules (DESIGN.md §7 and §12)
#                 over src/ + tests/ + benchmarks/, with stale-ignore
#                 auditing (--strict-ignores), the committed baseline
#                 (simlint-baseline.json), a SARIF artifact
#                 (simlint.sarif), and a cold/warm incremental-cache
#                 guard: the warm re-lint must be >= 5x faster than the
#                 cold run.  Always runs; pure stdlib, so there is no
#                 environment where it can't.
#   2. mypy     — strict typing on repro.sim / repro.core /
#                 repro.serverless / repro.overload (config in
#                 pyproject.toml).  Skipped with a warning when mypy is
#                 not installed.
#   3. ruff     — baseline style layer (config in pyproject.toml).
#                 Skipped with a warning when ruff is not installed.
#   4. chaos    — zero-fault determinism gate: a chaos scenario with all
#                 fault rates scaled to zero must be float.hex-identical
#                 to a run with no fault layer at all (DESIGN.md §8).
#   5. overload — two gates on the overload layer (DESIGN.md §9): a
#                 disabled OverloadPolicy must be float.hex-identical to
#                 a run with no overload layer at all, and an enabled
#                 policy under 2.5x offered load + faults must shed,
#                 hold admitted p95 inside QoS, and finish (no wedge).
#   6. executor — parallel-identity gate (DESIGN.md §10): a workers=4
#                 fan-out of a chaos batch must be float.hex-identical
#                 to the workers=1 serial batch.  The chaos/overload
#                 smokes above also route through run_many, so they
#                 exercise whatever REPRO_WORKERS the environment sets
#                 (CI runs the whole gate under REPRO_WORKERS=2).
#   7. queueing — large-N Erlang regression gate: Eq. 1–5 must stay
#                 finite and reference-accurate at N in the thousands
#                 (the log-space rewrite; DESIGN.md §11).
#   8. fleet    — fleet smoke (DESIGN.md §11): a small fleet sweep must
#                 be float.hex-identical across worker counts and every
#                 member must complete queries.
#   9. dag      — call-graph gates (DESIGN.md §13): a single-node DAG
#                 with deadline propagation off must be
#                 float.hex-identical to the equivalent flat scenario;
#                 and the retry-storm gate — at 2.5x overload on a
#                 4-deep chain with a mid-chain brownout, the budgeted
#                 resilience stack must hold the end-to-end violation
#                 fraction under its bound while the naive unbounded
#                 client measurably blows up, with both legs
#                 float.hex-deterministic across worker counts.
#  10. spot     — spot-preemption gates (DESIGN.md §14): attaching spot
#                 capacity with a zero-preemption FaultPlan must leave
#                 the golden scenario float.hex-identical; and the
#                 preemption-storm gate — at spot fraction 0.5 with a
#                 guaranteed reclamation, the graceful drain protocol
#                 must keep QoS violations (drops included) at or under
#                 10% while the no-notice hard kill exceeds 25%, with
#                 both legs float.hex-deterministic across worker
#                 counts.
#  11. perfbench — the simulator benchmark's own tests (perfbench/):
#                 metric names match BENCHMARK.json, tracing leaves the
#                 modelled outputs and counts identical, and the probe
#                 can still install its wrappers on
#                 core.runtime.build_surface_set, ContainerPool.prewarm
#                 and IaaSService.deploy: a refactor that renames or
#                 moves one of them fails here, not in a later benchmark.
#  12. pytest   — the quick test tier (slow end-to-end benches excluded;
#                 run `pytest` with no -m filter for the full tier).
#
# Usage: scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== simlint: whole-program invariants + architecture =="
python - <<'EOF'
import tempfile
import time
from pathlib import Path

from repro.analysis.lint import main

TARGETS = ["src", "tests", "benchmarks"]
FLAGS = ["--strict-ignores", "--baseline", "simlint-baseline.json"]

# the gating run: persistent cache (CI restores it), SARIF artifact,
# per-rule summary table
rc = main(
    TARGETS + FLAGS
    + ["--cache", ".simlint_cache.json", "--stats",
       "--format", "sarif", "--output", "simlint.sarif"]
)
if rc != 0:
    raise SystemExit(rc)

# the incremental-cache guard: a genuinely cold run against a throwaway
# cache, then a warm re-run, which must be >= 5x faster
with tempfile.TemporaryDirectory() as tmp:
    scratch = str(Path(tmp) / "cache.json")
    t0 = time.perf_counter()
    cold_rc = main(TARGETS + FLAGS + ["--cache", scratch])
    t1 = time.perf_counter()
    warm_rc = main(TARGETS + FLAGS + ["--cache", scratch])
    t2 = time.perf_counter()
cold, warm = t1 - t0, t2 - t1
print(f"simlint: cold {cold:.3f}s, warm {warm:.3f}s ({cold / warm:.1f}x)")
if cold_rc != 0 or warm_rc != 0:
    raise SystemExit(cold_rc or warm_rc)
if warm * 5 > cold:
    raise SystemExit(
        f"incremental cache regression: warm re-lint {warm:.3f}s is not "
        f">=5x faster than the cold run {cold:.3f}s"
    )
EOF

echo "== mypy: strict typing gate =="
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy
else
    echo "warning: mypy not installed; skipping the typing gate" >&2
fi

echo "== ruff: baseline style =="
if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    ruff check src
else
    echo "warning: ruff not installed; skipping the style gate" >&2
fi

echo "== chaos: zero-fault plan is bit-identical to no fault layer =="
python - <<'EOF'
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.scenarios import chaos_scenario, default_scenario

plain, zero = run_many(
    [
        RunRequest(system="amoeba", scenario=default_scenario("matmul", day=600.0, seed=0)),
        RunRequest(system="amoeba", scenario=chaos_scenario("matmul", fault_scale=0.0, day=600.0, seed=0)),
    ],
    cache=False,
)
assert zero.faults is not None and zero.faults.total_injected == 0

def hexes(result):
    return [x.hex() for x in result.services["matmul"].metrics.latencies.values()]

if hexes(zero) != hexes(plain):
    raise SystemExit("zero-fault chaos run diverged from the no-fault-layer baseline")
print("zero-fault chaos run is bit-identical to the baseline")
EOF

echo "== overload: disabled policy is bit-identical + enabled policy protects =="
python - <<'EOF'
from dataclasses import replace

from repro.experiments.executor import RunRequest, run_many
from repro.experiments.scenarios import default_scenario, overload_scenario
from repro.overload import OverloadPolicy

def hexes(result):
    return [x.hex() for x in result.services["matmul"].metrics.latencies.values()]

base = default_scenario("matmul", day=600.0, seed=0)
policy = OverloadPolicy()
plain, wired, stormy = run_many(
    [
        RunRequest(system="amoeba", scenario=base),
        RunRequest(system="amoeba", scenario=replace(base, overload=OverloadPolicy.disabled())),
        RunRequest(
            system="amoeba",
            scenario=overload_scenario("matmul", lambda_factor=2.5, policy=policy, day=600.0, seed=0),
        ),
    ],
    cache=False,
)
assert wired.overload is not None and not wired.overload.policy_enabled
assert wired.overload.total_rejections == 0
if hexes(wired) != hexes(plain):
    raise SystemExit("disabled-policy run diverged from the no-overload-layer baseline")
print("disabled-policy run is bit-identical to the baseline")

m = stormy.services["matmul"].metrics
ov = stormy.overload
assert ov is not None and ov.policy_enabled
drops = m.counters["drops"]
assert sum(drops.values()) > 0, "expected the overload policy to shed something"
assert m.completed > 0, "expected surviving goodput under overload"
p95 = m.latency_percentile(95)
if p95 > m.qos_target:
    raise SystemExit(f"admitted p95 {p95:.3f}s exceeds QoS {m.qos_target:g}s under overload")
assert ov.peak_queue_depth_serverless <= policy.max_queue_depth
assert ov.peak_queue_depth_iaas <= policy.max_queue_depth
print(
    f"overload smoke: p95 {p95:.3f}s <= QoS {m.qos_target:g}s, "
    f"drops {drops}, breaker {ov.breaker_state} "
    f"(opens {ov.breaker_trips + ov.breaker_reopens})"
)
EOF

echo "== executor: workers=4 batch is bit-identical to workers=1 =="
python - <<'EOF'
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.scenarios import chaos_scenario

requests = [
    RunRequest(
        system="amoeba",
        scenario=chaos_scenario("matmul", fault_scale=scale, day=300.0, seed=0),
    )
    for scale in (0.0, 1.0)
]

def hexes(results):
    return [
        [x.hex() for x in r.services["matmul"].metrics.latencies.values()]
        for r in results
    ]

serial = run_many(requests, workers=1, cache=False)
parallel = run_many(requests, workers=4, cache=False)
if hexes(serial) != hexes(parallel):
    raise SystemExit("workers=4 fan-out diverged from the workers=1 serial batch")
print("workers=4 fan-out is float.hex-identical to the serial batch")
EOF

echo "== queueing: large-N Erlang math stays finite and accurate =="
python - <<'EOF'
from decimal import Decimal, getcontext

from repro.sim.queueing import (
    discriminant_lambda, erlang_pin, min_servers, wait_quantile,
)

getcontext().prec = 60

def decimal_pin(n, rho):
    # Eq. 1-2: pi_N = (a^N/N!) * pi_0 with the Eq. 1 normalization
    a = Decimal(n) * Decimal(rho)
    s = Decimal(0)
    term = Decimal(1)
    for k in range(1, n):
        term = term * a / k
        s += term
    t_n = term * a / n
    return float(t_n / (1 + s + t_n / (1 - Decimal(rho))))

for n in (700, 2000, 5000):
    got, want = erlang_pin(n, 0.95), decimal_pin(n, 0.95)
    rel = abs(got - want) / want
    if rel > 1e-10:
        raise SystemExit(f"erlang_pin({n}, 0.95) off by {rel:.2e} vs Decimal reference")
# the ISSUE 6 repros: both used to raise `math domain error`
assert erlang_pin(1000, 0.95) > 0.0
assert wait_quantile(0.95, 1900.0, 1.0, 2000) == 0.0  # P{W>0} < 5%: inside QoS
assert discriminant_lambda(1.0, 2000, 1.2) > 0.0
assert min_servers(1900.0, 1.0, 1.2, 0.95, n_cap=4096) >= 1900
print("large-N Erlang gate: Eq. 1-5 finite and within 1e-10 of the Decimal reference")
EOF

echo "== fleet: sweep smoke, worker-count invariant =="
python - <<'EOF'
from repro.experiments.fleet import fleet_sweep

def hexes(figure):
    return [
        [x.hex() if isinstance(x, float) else x for x in row]
        for row in figure.extras["per_service"]
    ]

serial = fleet_sweep(services=5, daily_queries=2.5e5, day=120.0, seed=0,
                     workers=1, cache=False)
fanned = fleet_sweep(services=5, daily_queries=2.5e5, day=120.0, seed=0,
                     workers=2, cache=False)
if hexes(serial) != hexes(fanned):
    raise SystemExit("fleet sweep diverged between workers=1 and workers=2")
assert all(row[2] > 0 for row in serial.extras["per_service"]), "a fleet member completed nothing"
print(f"fleet smoke: {serial.extras['total_completed']} completions, "
      "workers=2 float.hex-identical to serial")
EOF

echo "== dag: single-node flat identity + retry-storm acceptance =="
python - <<'EOF'
from repro.experiments.dag import VIOLATION_BOUND, storm_comparison
from repro.experiments.graphrun import run_graph
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import Scenario, sized_reservoir
from repro.graph import GraphScenario, chain_topology
from repro.workloads import ConstantTrace, benchmark

# -- gate 1: a single-node DAG (propagation off, no retries) IS the flat
#    scenario — same RNG stream names, same construction order
day, rate, limit = 120.0, 3.0, 8
trace = ConstantTrace(rate)
reservoir = sized_reservoir(trace, day)
graph_run = run_graph(GraphScenario(
    name="identity", topology=chain_topology(1, "float"), trace=trace,
    e2e_target=benchmark("float").qos_target, duration=day, seed=5,
    retry=None, propagate_deadlines=False, iaas_peak_rate=rate,
    reservoir=reservoir, limits=(limit,),
))
flat_run = run_amoeba(Scenario(
    foreground=benchmark("float"), trace=trace, limit=limit, background=(),
    duration=day, seed=5, iaas_peak_rate=rate, reservoir=reservoir,
))

def hexes(result):
    return [x.hex() for x in result.services["float"].metrics.latencies.values()]

if hexes(graph_run) != hexes(flat_run):
    raise SystemExit("single-node DAG diverged from the equivalent flat scenario")
print("single-node DAG is float.hex-identical to the flat scenario")

# -- gate 2: retry-storm acceptance at 2.5x overload, 4-deep chain,
#    mid-chain brownout — budgeted bounded, naive measurably not, both
#    deterministic across worker counts
serial = storm_comparison(depth=4, seed=0, day=120.0, workers=1, cache=False)
fanned = storm_comparison(depth=4, seed=0, day=120.0, workers=2, cache=False)
for leg in ("budgeted", "naive"):
    a, b = serial[leg], fanned[leg]
    if [x.hex() for x in a.latencies] != [x.hex() for x in b.latencies]:
        raise SystemExit(f"{leg} leg diverged between workers=1 and workers=2")
    if a.retries != b.retries:
        raise SystemExit(f"{leg} retry accounting diverged across worker counts")
budgeted, naive = serial["budgeted"], serial["naive"]
if budgeted.violation_fraction > VIOLATION_BOUND:
    raise SystemExit(
        f"budgeted stack violated QoS on {budgeted.violation_fraction:.1%} of "
        f"completed requests (bound {VIOLATION_BOUND:.0%})"
    )
if naive.violation_fraction < 0.25:
    raise SystemExit(
        f"naive baseline only violated {naive.violation_fraction:.1%} — the "
        "storm gate is no longer discriminating"
    )
if naive.retries["attempted"] < 5 * max(1, budgeted.retries["attempted"]):
    raise SystemExit(
        f"naive retries ({naive.retries['attempted']}) are not >=5x the "
        f"budgeted stack's ({budgeted.retries['attempted']}) — no storm"
    )
print(
    f"retry-storm gate: budgeted viol {budgeted.violation_fraction:.1%} <= "
    f"{VIOLATION_BOUND:.0%}, naive viol {naive.violation_fraction:.1%}, "
    f"retries {budgeted.retries['attempted']} vs {naive.retries['attempted']} "
    f"({naive.retries['attempted'] / max(1, budgeted.retries['attempted']):.0f}x), "
    "both legs worker-count invariant"
)
EOF

echo "== spot: zero-preemption identity + preemption-storm acceptance =="
python - <<'EOF'
from dataclasses import replace

from repro.cluster import SpotSpec
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import default_scenario
from repro.experiments.spot import (
    GRACEFUL_VIOLATION_BOUND,
    HARDKILL_VIOLATION_FLOOR,
    preemption_comparison,
)
from repro.faults import FaultPlan

# -- gate 1: zero-preemption bit-identity — attaching spot capacity and
#    the new fault fields at probability 0.0 must leave the golden
#    scenario's latency stream float.hex-identical (no stray draws, no
#    stray events that reorder the sim)
sc = default_scenario("matmul", day=600.0, seed=0)
plain = run_amoeba(sc)
spotted = run_amoeba(replace(sc, spot=SpotSpec(fraction=0.5), faults=FaultPlan()))

def hexes(result):
    return [x.hex() for x in result.services["matmul"].metrics.latencies.values()]

if spotted.faults is None or spotted.faults.total_injected != 0:
    raise SystemExit("the zero plan injected faults")
if hexes(spotted) != hexes(plain):
    raise SystemExit("zero-preemption spot rental diverged from the plain scenario")
print("zero-preemption spot rental is float.hex-identical to on-demand")

# -- gate 2: preemption-storm acceptance at spot fraction 0.5 with a
#    guaranteed reclamation and serverless pinned out of reach — the
#    graceful drain keeps QoS violations bounded, the no-notice hard
#    kill measurably does not, and both legs are deterministic across
#    worker counts
serial = preemption_comparison(seed=0, workers=1, cache=False)
fanned = preemption_comparison(seed=0, workers=2, cache=False)
for leg in ("graceful", "hardkill"):
    a = serial[leg].services["matmul"].metrics
    b = fanned[leg].services["matmul"].metrics
    if [x.hex() for x in a.latencies.values()] != [x.hex() for x in b.latencies.values()]:
        raise SystemExit(f"{leg} leg diverged between workers=1 and workers=2")
    if a.counters["preemptions"] != b.counters["preemptions"]:
        raise SystemExit(f"{leg} preemption accounting diverged across worker counts")
graceful = serial["graceful"].services["matmul"].metrics
hardkill = serial["hardkill"].services["matmul"].metrics
if graceful.violation_fraction_with_failures > GRACEFUL_VIOLATION_BOUND:
    raise SystemExit(
        f"graceful drain violated QoS on "
        f"{graceful.violation_fraction_with_failures:.1%} of queries "
        f"(bound {GRACEFUL_VIOLATION_BOUND:.0%})"
    )
if hardkill.violation_fraction_with_failures <= HARDKILL_VIOLATION_FLOOR:
    raise SystemExit(
        f"hard kill only violated "
        f"{hardkill.violation_fraction_with_failures:.1%} — the storm gate "
        "is no longer discriminating"
    )
if graceful.counters["preemptions"]["killed_inflight"] != 0:
    raise SystemExit("graceful drain killed in-flight queries")
print(
    f"preemption-storm gate: graceful viol "
    f"{graceful.violation_fraction_with_failures:.1%} <= "
    f"{GRACEFUL_VIOLATION_BOUND:.0%}, hardkill "
    f"{hardkill.violation_fraction_with_failures:.1%} > "
    f"{HARDKILL_VIOLATION_FLOOR:.0%}, both legs worker-count invariant"
)
EOF

echo "== perfbench: benchmark harness and probe hooks =="
python -m pytest perfbench -q

echo "== pytest: quick tier =="
python -m pytest -x -q -m "not slow"

echo "== all gates green =="
