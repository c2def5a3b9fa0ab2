"""The schema-version guard: field-set hashes vs pinned baselines."""

from __future__ import annotations

import json

import pytest

from repro.analysis.versions import (
    BASELINE_PATH,
    SchemaProbe,
    check_versions,
    default_probes,
    load_baselines,
    schema_states,
    write_baselines,
)

GUARDED = (
    "REQUEST_VERSION", "RESULT_VERSION", "RECORD_VERSION",
    "SPEC_VERSION", "COSEARCH_PROBE_VERSION",
)


def probe(version=1, fields=("a", "b")):
    return SchemaProbe("TEST_VERSION", "tests.fake",
                       lambda: version, lambda: tuple(fields))


def baseline_for(test_probe):
    state = schema_states((test_probe,))[0]
    return {state.name: {"module": state.module,
                         "version": state.version,
                         "fields_hash": state.fields_hash}}


class TestStates:
    def test_every_guarded_schema_probed(self):
        names = [state.name for state in schema_states()]
        assert names == list(GUARDED)

    def test_fields_hash_order_insensitive(self):
        one = schema_states((probe(fields=("a", "b")),))[0]
        two = schema_states((probe(fields=("b", "a")),))[0]
        assert one.fields_hash == two.fields_hash

    def test_fields_hash_sees_every_field(self):
        base = schema_states((probe(fields=("a", "b")),))[0]
        grown = schema_states((probe(fields=("a", "b", "c")),))[0]
        renamed = schema_states((probe(fields=("a", "c")),))[0]
        assert base.fields_hash != grown.fields_hash
        assert base.fields_hash != renamed.fields_hash

    def test_nested_fields_flattened_with_prefixes(self):
        by_name = {state.name: state for state in schema_states()}
        assert any(field.startswith("options.")
                   for field in by_name["REQUEST_VERSION"].fields)
        assert any(field.startswith("layer.")
                   for field in by_name["RESULT_VERSION"].fields)
        assert any(field.startswith("campaign.retry.")
                   for field in by_name["SPEC_VERSION"].fields)


class TestCheck:
    def test_matching_pin_is_ok(self):
        test_probe = probe()
        report = check_versions((test_probe,), baseline_for(test_probe))
        assert report.ok
        assert report.findings[0].status == "ok"

    def test_field_change_without_bump_trips(self):
        """The guard's whole point: mutate a serialized field set while
        leaving the version constant alone, and the check fails."""
        pinned = baseline_for(probe(fields=("a", "b")))
        report = check_versions(
            (probe(fields=("a", "b", "sneaky")),), pinned)
        assert not report.ok
        finding = report.findings[0]
        assert finding.status == "changed"
        assert "bump the constant" in finding.advice

    def test_version_bump_without_repin_trips(self):
        pinned = baseline_for(probe(version=1))
        report = check_versions((probe(version=2),), pinned)
        assert not report.ok
        assert report.findings[0].status == "stale-pin"
        assert "--update" in report.findings[0].advice

    def test_unpinned_schema_trips(self):
        report = check_versions((probe(),), {})
        assert not report.ok
        assert report.findings[0].status == "unpinned"

    def test_report_to_dict_round_trips(self):
        test_probe = probe()
        report = check_versions((test_probe,), baseline_for(test_probe))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["schemas"][0]["name"] == "TEST_VERSION"


class TestBaselineFile:
    def test_update_round_trip(self, tmp_path):
        path = tmp_path / "baselines.json"
        write_baselines(path, (probe(),))
        pinned = load_baselines(path)
        report = check_versions((probe(),), pinned)
        assert report.ok
        assert pinned["TEST_VERSION"]["fields"] == ["a", "b"]

    def test_missing_baseline_file_reads_empty(self, tmp_path):
        assert load_baselines(tmp_path / "nope.json") == {}

    def test_checked_in_baseline_matches_tree(self):
        """The committed pin file must always match the committed
        schemas -- exactly what CI enforces."""
        assert BASELINE_PATH.exists()
        report = check_versions()
        assert report.ok, [f.advice for f in report.findings
                           if not f.ok]
        assert len(report.findings) == len(GUARDED)

    def test_checked_in_baseline_lists_fields(self):
        pinned = load_baselines()
        for name in GUARDED:
            assert pinned[name]["fields"], name

    def test_default_probes_read_real_constants(self):
        for schema_probe in default_probes():
            assert schema_probe.version() >= 1


@pytest.mark.parametrize("name", GUARDED)
def test_each_schema_pinned(name):
    assert name in load_baselines()
