"""Schema-version guard: field sets pinned against version constants.

Every persisted schema in the tree carries a version constant
(``RECORD_VERSION``, ``SPEC_VERSION``, ``REQUEST_VERSION``,
``RESULT_VERSION``, ``COSEARCH_PROBE_VERSION``)
that store keys and record loaders key on -- but nothing used to stop
a PR from adding a serialized field while leaving the constant alone,
silently colliding new-shape records with old-shape caches.

This module hashes each schema's *serialized field set* (the keys its
``to_dict`` actually emits, probed at runtime on representative
instances) and pins ``(version, fields_hash)`` pairs in a checked-in
baseline file.  ``python -m repro.analysis versions`` recomputes and
compares: a changed field set with an unchanged version fails loudly
("bump the constant"), and any intentional change is committed by
rerunning with ``--update`` *after* the bump -- so the baseline diff
and the version bump always travel in the same commit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

#: Where the pinned (version, fields_hash) pairs live.
BASELINE_PATH = Path(__file__).parent / "version_baselines.json"


@dataclass(frozen=True)
class SchemaProbe:
    """How to measure one versioned schema's serialized surface."""

    name: str  #: the version constant, e.g. ``"RECORD_VERSION"``
    module: str  #: where the constant lives
    version: Callable[[], int]
    fields: Callable[[], tuple[str, ...]]


@dataclass(frozen=True)
class SchemaState:
    """One schema's measured (version, field set) state."""

    name: str
    module: str
    version: int
    fields: tuple[str, ...]

    @property
    def fields_hash(self) -> str:
        payload = json.dumps(sorted(self.fields), separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------
# Field-set extractors.  Each probes a representative instance and
# flattens nested serialized mappings with dotted prefixes, so adding,
# renaming, or nesting a key all change the hash.
# ---------------------------------------------------------------------
def _request_fields() -> tuple[str, ...]:
    from repro.eval.request import EvalRequest

    data = EvalRequest(workload="cnn_lstm").to_dict()
    return tuple(sorted(set(data) - {"options"})
                 + sorted(f"options.{key}" for key in data["options"]))


def _result_fields() -> tuple[str, ...]:
    from repro.eval.result import EvalResult, LayerResult

    data = EvalResult(workload="w", config_label="c",
                      backend="model").to_dict()
    layer = LayerResult(name="l", macs=0, cycles=0.0,
                        energy_pj=0.0).to_dict()
    return tuple(sorted(set(data) - {"layers"})
                 + sorted(f"layer.{key}" for key in layer))


class _ProbePoint:
    """A minimal record-protocol point for probing make_record."""

    def key(self) -> str:
        return "probe"

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "probe"}


def _record_fields() -> tuple[str, ...]:
    from repro.dse.records import make_record

    record = make_record(
        _ProbePoint(), {"probe": True}, elapsed_s=0.0,
        fingerprint="probe", attempts=2, last_error="err", extra={})
    return tuple(sorted(record))


def _spec_fields() -> tuple[str, ...]:
    from repro.dse.retry import RetryPolicy
    from repro.dse.spec import CampaignSpec, EvalPoint

    point = EvalPoint(accelerator="BitWave", network="cnn_lstm").to_dict()
    campaign = CampaignSpec(
        name="probe", accelerators=("BitWave",), networks=("cnn_lstm",),
        retry=RetryPolicy()).to_dict()
    retry = campaign.get("retry") or {}
    return tuple(
        sorted(point)
        + sorted(f"campaign.{key}" for key in set(campaign) - {"retry"})
        + sorted(f"campaign.retry.{key}" for key in retry))


def _cosearch_fields() -> tuple[str, ...]:
    from repro.arch import DEFAULT_ARCH
    from repro.opt.cosearch import CosearchProbe

    probe = CosearchProbe(workload="cnn_lstm", arch=DEFAULT_ARCH,
                          preset="bitwave-16nm", strategy={})
    return tuple(sorted(probe.to_dict()))


def _constant(module: str, name: str) -> Callable[[], int]:
    def read() -> int:
        import importlib

        return int(getattr(importlib.import_module(module), name))

    return read


def default_probes() -> tuple[SchemaProbe, ...]:
    """The guarded schemas, one probe per version constant."""
    return (
        SchemaProbe("REQUEST_VERSION", "repro.eval.request",
                    _constant("repro.eval.request", "REQUEST_VERSION"),
                    _request_fields),
        SchemaProbe("RESULT_VERSION", "repro.eval.result",
                    _constant("repro.eval.result", "RESULT_VERSION"),
                    _result_fields),
        SchemaProbe("RECORD_VERSION", "repro.dse.records",
                    _constant("repro.dse.records", "RECORD_VERSION"),
                    _record_fields),
        SchemaProbe("SPEC_VERSION", "repro.dse.spec",
                    _constant("repro.dse.spec", "SPEC_VERSION"),
                    _spec_fields),
        SchemaProbe("COSEARCH_PROBE_VERSION", "repro.opt.cosearch",
                    _constant("repro.opt.cosearch",
                              "COSEARCH_PROBE_VERSION"),
                    _cosearch_fields),
    )


def schema_states(
    probes: tuple[SchemaProbe, ...] | None = None,
) -> tuple[SchemaState, ...]:
    """Measure every guarded schema's current state."""
    return tuple(
        SchemaState(name=probe.name, module=probe.module,
                    version=probe.version(), fields=probe.fields())
        for probe in (probes if probes is not None else default_probes()))


def load_baselines(
    path: str | Path | None = None,
) -> dict[str, dict[str, Any]]:
    baseline_path = Path(path) if path is not None else BASELINE_PATH
    if not baseline_path.exists():
        return {}
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    return data if isinstance(data, dict) else {}


def write_baselines(
    path: str | Path | None = None,
    probes: tuple[SchemaProbe, ...] | None = None,
) -> Path:
    """Repin every schema's (version, fields_hash) baseline."""
    baseline_path = Path(path) if path is not None else BASELINE_PATH
    payload = {
        state.name: {
            "module": state.module,
            "version": state.version,
            "fields_hash": state.fields_hash,
            "fields": list(state.fields),
        }
        for state in schema_states(probes)
    }
    baseline_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return baseline_path


@dataclass(frozen=True)
class VersionFinding:
    """One schema's comparison against its pinned baseline."""

    name: str
    module: str
    status: str  #: ``ok`` / ``changed`` / ``stale-pin`` / ``unpinned``
    version: int
    fields_hash: str
    pinned_version: int | None
    pinned_hash: str | None
    advice: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "module": self.module,
            "status": self.status,
            "version": self.version,
            "fields_hash": self.fields_hash,
            "pinned_version": self.pinned_version,
            "pinned_hash": self.pinned_hash,
            "advice": self.advice,
        }


def _compare(state: SchemaState,
             pinned: Mapping[str, Any] | None) -> VersionFinding:
    if pinned is None:
        return VersionFinding(
            state.name, state.module, "unpinned", state.version,
            state.fields_hash, None, None,
            f"no baseline for {state.name}; run `python -m "
            f"repro.analysis versions --update` to pin it")
    pinned_version = int(pinned["version"])
    pinned_hash = str(pinned["fields_hash"])
    if (state.version == pinned_version
            and state.fields_hash == pinned_hash):
        status, advice = "ok", ""
    elif state.version == pinned_version:
        status = "changed"
        advice = (f"serialized field set of {state.module} changed but "
                  f"{state.name} is still {state.version}: bump the "
                  f"constant, then rerun `python -m repro.analysis "
                  f"versions --update` in the same commit")
    else:
        status = "stale-pin"
        advice = (f"{state.name} is {state.version} but the baseline "
                  f"pins {pinned_version}: rerun `python -m "
                  f"repro.analysis versions --update` to commit the "
                  f"new pin")
    return VersionFinding(
        state.name, state.module, status, state.version,
        state.fields_hash, pinned_version, pinned_hash, advice)


@dataclass
class VersionReport:
    """Outcome of one ``versions`` run."""

    findings: tuple[VersionFinding, ...]

    @property
    def ok(self) -> bool:
        return all(finding.ok for finding in self.findings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "schemas": [finding.to_dict() for finding in self.findings],
        }


def check_versions(
    probes: tuple[SchemaProbe, ...] | None = None,
    baselines: Mapping[str, Mapping[str, Any]] | None = None,
) -> VersionReport:
    """Compare every guarded schema against its pinned baseline."""
    if baselines is None:
        baselines = load_baselines()
    findings = tuple(
        _compare(state, baselines.get(state.name))
        for state in schema_states(probes))
    return VersionReport(findings=findings)
