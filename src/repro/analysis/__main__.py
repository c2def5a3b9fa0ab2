"""``python -m repro.analysis``: the static-analysis CLI.

Examples::

    # Lint the installed tree against every registered invariant.
    python -m repro.analysis check
    python -m repro.analysis check --format json
    python -m repro.analysis check --rule determinism --rule obs-names
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.engine import all_rules, get_rule, run_checks


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="import-graph linter for the repro tree",
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
