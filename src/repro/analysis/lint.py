"""The sim-kernel linter CLI: ``python -m repro.analysis.lint <paths>``.

Front-end over :mod:`repro.analysis.engine`.  Walks the given
files/directories, runs the per-file SIM rules plus the whole-program
ARCH layering pass, honours inline ``# simlint: ignore[SIM00x]`` escape
hatches (anchored to the enclosing statement, so a directive on a
``def`` line covers findings on its decorators and a directive anywhere
in a multi-line statement covers the whole statement), and exits
non-zero when any non-baselined violation survives.  Pure standard
library, so it runs in any environment the repo itself runs in.

Output formats: ``text`` (one ``path:line:col: RULE message`` line per
finding), ``json`` (the full report), and ``sarif`` (SARIF 2.1.0 for CI
artifact upload).  ``--baseline`` demotes accepted findings;
``--strict-ignores`` turns stale ignore directives (SIM016) into errors.

The module-level helpers (:func:`lint_source`, :func:`lint_file`,
:func:`lint_paths`) remain the stable legacy API: SIM001-SIM011 only,
no flow/ARCH rules, exceptions for unparsable files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis import engine as _engine
from repro.analysis.baseline import BaselineError, load_baseline, write_baseline
from repro.analysis.engine import ALL_RULES, Report, run_engine
from repro.analysis.rules import Violation
from repro.analysis.sarif import to_sarif

__all__ = ["BrokenModule", "lint_file", "lint_paths", "lint_source", "main"]


class BrokenModule(Exception):
    """Raised when a file cannot be parsed (reported as a hard error)."""


def lint_source(source: str, path: str) -> List[Violation]:
    """Lint one module's source text; ``path`` scopes path-based rules.

    Legacy per-file surface: SIM001-SIM011 only (no dataflow or ARCH
    rules — those need the engine's whole-program context).
    """
    analysis = _engine.analyze_source(source, path, legacy_only=True)
    if analysis.broken is not None:
        raise BrokenModule(analysis.broken)
    return analysis.violations


def lint_file(path: Path) -> List[Violation]:
    """Lint one file on disk."""
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def _iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path, _scope in _engine.iter_python_files(paths):
        yield path


def lint_paths(paths: Sequence[Path]) -> List[Violation]:
    """Lint every Python file under ``paths`` (files or directories)."""
    violations: List[Violation] = []
    for path in _iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.summary}")
        lines.append(f"        {rule.invariant}")
    return "\n".join(lines)


def _report_to_json(report: Report) -> dict:
    def rows(violations: Sequence[Violation]) -> List[dict]:
        return [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule_id,
                "message": v.message,
            }
            for v in violations
        ]

    return {
        "errors": rows(report.errors),
        "warnings": rows(report.warnings),
        "baselined": rows(report.baselined),
        "staleBaseline": report.stale_baseline,
        "broken": report.broken,
        "stats": report.stats,
        "files": {"analyzed": report.files_analyzed},
        "packageOrder": report.package_order,
    }


def _stats_table(report: Report) -> str:
    header = f"{'rule':<9}{'errors':>8}{'warnings':>10}{'baselined':>11}{'suppressed':>12}"
    lines = [header, "-" * len(header)]
    totals = {"errors": 0, "warnings": 0, "baselined": 0, "suppressed": 0}
    for rule in ALL_RULES:
        row = report.stats.get(rule.id)
        if row is None or not any(row.values()):
            continue
        lines.append(
            f"{rule.id:<9}{row['errors']:>8}{row['warnings']:>10}"
            f"{row['baselined']:>11}{row['suppressed']:>12}"
        )
        for key in totals:
            totals[key] += row[key]
    lines.append(
        f"{'total':<9}{totals['errors']:>8}{totals['warnings']:>10}"
        f"{totals['baselined']:>11}{totals['suppressed']:>12}"
    )
    return "\n".join(lines)


def _emit(document: str, output: Optional[Path]) -> None:
    if output is not None:
        output.write_text(document, encoding="utf-8")
    else:
        print(document)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=(
            "Check simulation-kernel invariants (SIM001..SIM017) and "
            "architecture layering (ARCH001..ARCH004)."
        ),
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and its invariant, then exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the report to a file instead of stdout"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline of accepted findings (see repro.analysis.baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write the surviving errors as a fresh baseline file and exit 0",
    )
    parser.add_argument(
        "--justification",
        default="accepted pre-existing finding; ratchet down over time",
        help="justification recorded on entries written by --write-baseline",
    )
    parser.add_argument(
        "--strict-ignores",
        action="store_true",
        help="treat stale '# simlint: ignore' directives (SIM016) as errors",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print a per-rule summary table to stderr"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis.lint src)")

    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline = {}
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    report = run_engine(args.paths, strict_ignores=args.strict_ignores, baseline=baseline)

    if report.broken:
        for message in report.broken:
            print(message, file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        count = write_baseline(report.errors, args.write_baseline, args.justification)
        print(
            f"simlint: wrote {count} baseline entr{'ies' if count != 1 else 'y'} "
            f"to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if args.format == "text":
        for violation in report.errors:
            print(violation.render())
        for violation in report.warnings:
            print(f"warning: {violation.render()}")
        for violation in report.baselined:
            print(f"baselined: {violation.render()}")
    elif args.format == "json":
        _emit(json.dumps(_report_to_json(report), indent=2, sort_keys=True), args.output)
    else:
        document = to_sarif(ALL_RULES, report.errors, report.warnings, report.baselined)
        _emit(json.dumps(document, indent=2, sort_keys=True), args.output)

    for message in report.stale_baseline:
        print(f"warning: {message}", file=sys.stderr)
    if args.stats:
        print(_stats_table(report), file=sys.stderr)

    if report.errors:
        count = len(report.errors)
        print(f"simlint: {count} violation{'s' if count != 1 else ''} found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
