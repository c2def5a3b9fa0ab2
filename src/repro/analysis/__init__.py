"""``repro.analysis``: static analysis of the repro source tree.

Two tools:

- the **invariant linter** (``python -m repro.analysis check``): a
  rule registry (:mod:`repro.analysis.rules`) over one AST-derived
  import graph (:mod:`repro.analysis.graph`) enforcing layering
  acyclicity, determinism, fcntl lock discipline, frozen-dataclass
  mutation scope, and observability-name hygiene, with per-rule
  justified allowlists and ``--format json``;
- the **schema-version guard** (``python -m repro.analysis
  versions``): serialized-field-set hashes pinned against the
  ``*_VERSION`` constants, so changing a persisted schema without
  bumping its version fails CI (:mod:`repro.analysis.versions`).

Everything is computed from source text with :mod:`ast` -- nothing is
imported to be analyzed -- so the tools run identically in CI and on
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
from repro.analysis.versions import (
    BASELINE_PATH,
    SchemaProbe,
    SchemaState,
    VersionFinding,
    VersionReport,
    check_versions,
    default_probes,
    schema_states,
    write_baselines,
)

__all__ = [
    "Allow",
    "BASELINE_PATH",
    "CheckContext",
    "CheckReport",
    "ImportEdge",
    "ImportGraph",
    "LintRule",
    "ModuleInfo",
    "SchemaProbe",
    "SchemaState",
    "VersionFinding",
    "VersionReport",
    "Violation",
    "all_rules",
    "build_graph",
    "check_versions",
    "default_probes",
    "get_rule",
    "register_rule",
    "repo_graph",
    "run_checks",
    "schema_states",
    "write_baselines",
]
