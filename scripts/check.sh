#!/usr/bin/env bash
# The single development gate: every PR must pass this locally and in CI.
#
#   1. simlint   — the repo's own whole-program analyzer: sim-kernel
#                  invariants SIM001..SIM017 plus the ARCH001..ARCH004
#                  import-graph layering rules (DESIGN.md §7 and §12)
#                  over src/ + tests/ + benchmarks/, with stale-ignore
#                  auditing (--strict-ignores), the committed baseline
#                  (simlint-baseline.json), a per-rule summary table and
#                  a SARIF artifact (simlint.sarif).  Always runs; pure
#                  stdlib, so there is no environment where it can't.
#   2. mypy      — strict typing on repro.sim / repro.core /
#                  repro.serverless / repro.overload (config in
#                  pyproject.toml).  Skipped with a warning when mypy is
#                  not installed.
#   3. ruff      — baseline style layer (config in pyproject.toml).
#                  Skipped with a warning when ruff is not installed.
#   4. perfbench — the simulator benchmark's own tests (perfbench/):
#                  metric names match BENCHMARK.json, tracing leaves the
#                  modelled outputs and counts identical, and the probe
#                  can still install its wrappers on
#                  core.runtime.build_surface_set, ContainerPool.prewarm
#                  and IaaSService.deploy: a refactor that renames or
#                  moves one of them fails here, not in a later benchmark.
#   5. pytest    — the quick test tier (slow end-to-end benches excluded;
#                  run `pytest` with no -m filter for the full tier).  The
#                  determinism and acceptance guarantees live here as
#                  tests: zero-fault, disabled-policy, zero-preemption and
#                  single-node-DAG bit identity, the overload, retry-storm
#                  and preemption-storm acceptance runs, large-N Erlang
#                  accuracy, and worker-count invariance of the chaos,
#                  fleet, dag and spot batches (README, "Development
#                  checks", names each test).  CI runs it under
#                  REPRO_WORKERS=2, so batches that take the default
#                  worker count also go through the process pool.
#
# Usage: scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== simlint: whole-program invariants + architecture =="
python -m repro.analysis.lint src tests benchmarks \
    --strict-ignores --baseline simlint-baseline.json \
    --stats --format sarif --output simlint.sarif

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

echo "== perfbench: benchmark harness and probe hooks =="
python -m pytest perfbench -q

echo "== pytest: quick tier =="
python -m pytest -x -q -m "not slow"

echo "== all gates green =="
