"""``python -m repro.analysis``: the static-analysis CLI.

Examples::

    # Lint the installed tree against every registered invariant.
    python -m repro.analysis check
    python -m repro.analysis check --format json
    python -m repro.analysis check --rule determinism --rule obs-names

    # Verify serialized schemas against their pinned version baselines
    # (and repin after an intentional, version-bumped change).
    python -m repro.analysis versions
    python -m repro.analysis versions --update
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.engine import all_rules, get_rule, run_checks
from repro.analysis.versions import check_versions, write_baselines
from repro.utils.tables import format_table


def _cmd_check(args: argparse.Namespace) -> int:
    rules = (tuple(get_rule(name) for name in args.rule)
             if args.rule else None)
    report = run_checks(root=args.root, rules=rules)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    for violation in report.violations:
        print(violation.render())
    summary = (f"checked {report.modules} modules against "
               f"{len(report.rules)} rules: "
               f"{len(report.violations)} violations "
               f"({report.suppressed} allowlisted)")
    if report.ok:
        print(f"OK: {summary}")
        return 0
    print(f"FAIL: {summary}", file=sys.stderr)
    return 1


def _cmd_versions(args: argparse.Namespace) -> int:
    if args.update:
        path = write_baselines()
        print(f"repinned schema baselines -> {path}")
    report = check_versions()
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    rows = [
        (finding.name, str(finding.version),
         str(finding.pinned_version) if finding.pinned_version is not None
         else "-",
         finding.fields_hash, finding.pinned_hash or "-", finding.status)
        for finding in report.findings
    ]
    print(format_table(
        ("schema", "version", "pinned", "fields", "pinned_fields",
         "status"), rows))
    for finding in report.findings:
        if not finding.ok:
            print(f"FAIL {finding.name}: {finding.advice}",
                  file=sys.stderr)
    if report.ok:
        print(f"OK: {len(report.findings)} schemas match their pins")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="import-graph linter and schema-version guard for "
                    "the repro tree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule_names = ", ".join(rule.name for rule in all_rules())
    p_check = sub.add_parser(
        "check", help="lint the tree against the registered invariants")
    p_check.add_argument("--root", default=None, metavar="DIR",
                         help="package root to analyze (default: the "
                              "installed repro package)")
    p_check.add_argument("--rule", action="append", default=[],
                         metavar="NAME",
                         help=f"run only this rule (repeatable); "
                              f"one of: {rule_names}")
    p_check.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="output format (default: text)")
    p_check.set_defaults(func=_cmd_check)

    p_versions = sub.add_parser(
        "versions", help="verify serialized schemas against their "
                         "pinned version baselines")
    p_versions.add_argument("--update", action="store_true",
                            help="repin the baselines to the current "
                                 "tree (after bumping the version "
                                 "constant)")
    p_versions.add_argument("--format", choices=("table", "json"),
                            default="table",
                            help="output format (default: table)")
    p_versions.set_defaults(func=_cmd_versions)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
