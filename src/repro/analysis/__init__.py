"""``repro.analysis``: static analysis of the repro source tree.

The **invariant linter** (``python -m repro.analysis check``) is a rule
registry (:mod:`repro.analysis.rules`) over one AST-derived import
graph (:mod:`repro.analysis.graph`) enforcing layering, acyclicity,
determinism, fcntl lock discipline, frozen-dataclass mutation scope,
and observability-name hygiene, with per-rule justified allowlists and
``--format json``.

Everything is computed from source text with :mod:`ast` -- nothing is
imported to be analyzed -- so the linter runs identically in CI and on
half-broken working trees.
"""

from repro.analysis.engine import (
    Allow,
    CheckContext,
    CheckReport,
    LintRule,
    Violation,
    all_rules,
    get_rule,
    register_rule,
    run_checks,
)
from repro.analysis.graph import (
    ImportEdge,
    ImportGraph,
    ModuleInfo,
    build_graph,
    repo_graph,
)

__all__ = [
    "Allow",
    "CheckContext",
    "CheckReport",
    "ImportEdge",
    "ImportGraph",
    "LintRule",
    "ModuleInfo",
    "Violation",
    "all_rules",
    "build_graph",
    "get_rule",
    "register_rule",
    "repo_graph",
    "run_checks",
]
