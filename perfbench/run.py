"""Simulator benchmark: one Amoeba workload, end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload golden-day --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (medians over repeated runs of
the seed), ``--trace 1`` the per-layer metrics of one profiled run next to
one untraced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 when the simulator's
sources are missing.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_commit(root: Path) -> str:
    """HEAD's commit id, read without running git; "unknown" outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # the traced run's profile also covers the simulator's import, so
    # layers that a workload never calls still report their own time
    profile = cProfile.Profile() if args.trace else None
    t_import = time.perf_counter()
    if profile is not None:
        profile.enable()
    import harness
    from repro.core import InvariantViolation
    from repro.experiments.cache import code_salt

    if profile is not None:
        profile.disable()
    import_s = time.perf_counter() - t_import

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.pin_environment()
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} usable_cores={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} commit={_git_commit(ROOT)} "
        f"source_sha256={code_salt()[:16]} workers=1 cache=off"
    )
    try:
        if args.trace:
            report = harness.measure_layers(args.workload, args.seed, profile, import_s)
        else:
            report = harness.measure(args.workload, args.seed, args.seconds)
    except (harness.CheckFailed, InvariantViolation) as exc:
        print(f"perfbench: output check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"# {len(report.runs)} full runs, {len(report.setup_samples)} set-up samples, "
          f"digest {report.runs[0].digest[:16]}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()}
    print(json.dumps(
        {"correct": True, "attempted": len(report.runs), "failed": 0, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
