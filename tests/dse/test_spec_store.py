"""Campaign specs, config hashing, and the persistent result store."""

import json
import os
import sys
import threading
import time

import pytest

from repro import faults
from repro.accelerators import BITWAVE_VARIANTS, SOTA_ACCELERATORS
from repro.accelerators.base import LayerEvaluation, NetworkEvaluation
from repro.dse import store as store_module
from repro.dse.records import make_record, result_from_dict, result_to_dict
from repro.dse.spec import CampaignSpec, config_hash, paper_grid
from repro.dse.store import ResultStore, encode_record, scan_jsonl
from repro.eval.fingerprints import code_fingerprint
from repro.eval.request import EvalRequest
from repro.eval.result import from_network_evaluation
from repro.model.energy import EnergyBreakdown
from repro.model.latency import LatencyBreakdown
from repro.model.zigzag import ActivityCounts
from repro.workloads.nets import NETWORKS


def _synthetic_evaluation() -> NetworkEvaluation:
    """A hand-built evaluation with repr-awkward floats (no profiling)."""
    counts = ActivityCounts(
        n_mac=12345, macs_per_cycle=1024.0, utilization=0.1 + 0.2,
        dram_read_weight=1e7 / 3.0, dram_read_act=7.25, dram_write_act=0.1,
        sram_read_weight=2.0 ** 0.5, sram_read_input=3.0, sram_write_output=4.0,
        reg_read=5.5, reg_write=6.5)
    latency = LatencyBreakdown(
        dram_cycles=1.0 / 7.0, sram_write_output_cycles=2.0,
        sram_read_input_cycles=3.0, sram_read_weight_cycles=4.0,
        reg_read_cycles=5.0, compute_cycles=1e-9)
    energy = EnergyBreakdown(
        dram_pj=0.1, sram_pj=0.2, reg_pj=0.3, compute_pj=1e12 + 0.5)
    return NetworkEvaluation(
        accelerator="Test", network="cnn_lstm",
        layers=[LayerEvaluation(
            layer="l0", su_name="SU1", counts=counts,
            latency=latency, energy=energy)])


class TestConfigHash:
    def test_pinned_value(self):
        # Catches drift in what a key hashes: the request's fields, its
        # canonical spellings, or config_hash's JSON form.  A deliberate
        # change repins this and re-derives opt.halving.SMOKE_SEED;
        # stored records need nothing, as the edit rotates every
        # namespace.
        assert EvalRequest("cnn_lstm", "SCNN").key() == "6c82ea12407968b2"

    def test_key_order_independent(self):
        a = config_hash({"x": 1, "y": [1, 2], "z": None})
        b = config_hash({"z": None, "y": [1, 2], "x": 1})
        assert a == b

    def test_distinct_points_distinct_keys(self):
        keys = {
            EvalRequest(net, acc, variant=v).key()
            for acc, net, v in [
                ("SCNN", "cnn_lstm", None),
                ("SCNN", "resnet18", None),
                ("BitWave", "cnn_lstm", None),
                ("BitWave", "cnn_lstm", "Dense"),
                ("BitWave", "cnn_lstm", "+DF"),
            ]
        }
        assert len(keys) == 5

    def test_key_matches_request_hash(self):
        # Campaign points are repro.eval requests: one cache keyspace.
        (point,) = CampaignSpec(name="t", networks=("resnet18",),
                                variants=("+DF+SM",)).points()
        assert point == EvalRequest("resnet18", variant="+DF+SM")
        assert point.key() == config_hash(point.to_dict())

    def test_backend_is_part_of_the_key(self):
        model = EvalRequest("cnn_lstm")
        sim = EvalRequest("cnn_lstm", backend="sim-vectorized")
        assert model.key() != sim.key()
        assert sim.config_label == "BitWave@sim-vectorized"

    def test_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 12
        int(fp, 16)


class TestCampaignSpec:
    def test_points_cross_product(self):
        spec = CampaignSpec(
            name="t", accelerators=("SCNN", "Stripes"),
            networks=("cnn_lstm", "resnet18"), variants=("Dense",))
        points = spec.points()
        assert len(points) == 2 * 2 + 2
        assert len({p.key() for p in points}) == len(points)

    def test_paper_grid_shape(self):
        points = paper_grid().points()
        # The fully-enabled variant canonicalizes into the SotA
        # BitWave column, so one variant row collapses per network.
        expected = len(SOTA_ACCELERATORS) * len(NETWORKS) \
            + (len(BITWAVE_VARIANTS) - 1) * len(NETWORKS)
        assert len(points) == expected

    def test_rejects_empty_networks(self):
        with pytest.raises(ValueError, match="at least one network"):
            CampaignSpec(name="t", accelerators=("SCNN",)).validate()

    def test_rejects_no_configs(self):
        with pytest.raises(ValueError, match="accelerator or variant"):
            CampaignSpec(name="t", networks=("cnn_lstm",)).validate()

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(name="t", accelerators=("SCNN", "SCNN"),
                         networks=("cnn_lstm",)).validate()

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="name"):
            CampaignSpec(name="bad name!", accelerators=("SCNN",),
                         networks=("cnn_lstm",)).validate()

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            CampaignSpec(name="t", networks=("cnn_lstm",),
                         variants=("Sparse",)).validate()

    def test_json_roundtrip(self, tmp_path):
        spec = CampaignSpec(
            name="rt", accelerators=("BitWave",),
            networks=("cnn_lstm",), variants=("Dense", "+DF"))
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert CampaignSpec.from_json(path) == spec

    def test_saved_spec_with_a_version_field_loads(self, tmp_path):
        # Spec files written while specs carried a schema version
        # still load, to the same grid and keys.
        path = tmp_path / "saved.json"
        path.write_text(json.dumps({
            "version": 3, "name": "saved", "accelerators": ["SCNN"],
            "networks": ["cnn_lstm"], "variants": ["Dense"],
            "backends": ["model"], "archs": ["bitwave-16nm@sram_pj=0.5"],
        }, indent=2) + "\n")
        spec = CampaignSpec(
            name="saved", accelerators=("SCNN",), networks=("cnn_lstm",),
            variants=("Dense",), archs=("bitwave-16nm@sram_pj=0.5",))
        loaded = CampaignSpec.from_json(path)
        assert loaded == spec
        assert [p.key() for p in loaded.points()] == \
            [p.key() for p in spec.points()]
        assert "version" not in spec.to_dict()

    def test_lists_normalized_to_tuples(self):
        spec = CampaignSpec(name="t", accelerators=["SCNN"],
                            networks=["cnn_lstm"])
        assert spec.accelerators == ("SCNN",)
        assert spec.points()


class TestRecords:
    def test_exact_roundtrip(self):
        result = from_network_evaluation(_synthetic_evaluation())
        data = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(data) == result

    def test_make_record_fields(self):
        point = EvalRequest("cnn_lstm", "SCNN")
        result = from_network_evaluation(_synthetic_evaluation())
        record = make_record(point, result, elapsed_s=1.5)
        assert record["key"] == point.key()
        assert record["point"] == point.to_dict()
        assert record["fingerprint"] == code_fingerprint()
        assert record["elapsed_s"] == 1.5
        assert record["result"]["layers"]
        assert record["result"]["backend"] == "model"

    def test_make_record_names_the_tree_for_every_backend(self):
        point = EvalRequest("cnn_lstm", backend="sim-vectorized")
        result = from_network_evaluation(_synthetic_evaluation())
        record = make_record(point, result)
        assert record["fingerprint"] == code_fingerprint()


class TestResultStore:
    def _record(self, key: str, marker: int) -> dict:
        return {"key": key, "marker": marker,
                "result": from_network_evaluation(
                    _synthetic_evaluation()).to_dict()}

    def test_roundtrip_across_instances(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        fresh = ResultStore(tmp_path, namespace="ns")
        assert "k1" in fresh
        assert fresh.get("k1")["marker"] == 1
        assert fresh.result("k1") == from_network_evaluation(
            _synthetic_evaluation())

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        assert store.get("nope") is None
        assert store.result("nope") is None
        assert len(store) == 0

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k", self._record("k", 1))
        store.put("k", self._record("k", 2))
        fresh = ResultStore(tmp_path, namespace="ns")
        assert fresh.get("k")["marker"] == 2
        assert len(fresh) == 1

    def test_torn_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        with store.path.open("a") as handle:
            handle.write('{"key": "k2", "trunc')  # crashed mid-write
        fresh = ResultStore(tmp_path, namespace="ns")
        assert "k1" in fresh and "k2" not in fresh

    def test_compact_drops_duplicates(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k", self._record("k", 1))
        store.put("k", self._record("k", 2))
        stats = store.compact()
        assert stats.live_records == 1
        assert stats.reclaimed_bytes > 0
        assert len(store.path.read_text().strip().splitlines()) == 1
        assert ResultStore(tmp_path, namespace="ns").get("k")["marker"] == 2

    def test_compact_with_zero_live_records_unlinks(self, tmp_path):
        # A file holding only a torn write must not survive compaction
        # as stale on-disk garbage.
        store = ResultStore(tmp_path, namespace="ns")
        store.path.parent.mkdir(parents=True)
        store.path.write_text('{"key": "k1", "trunc')
        torn_bytes = store.path.stat().st_size
        stats = store.compact()
        assert stats.live_records == 0
        assert stats.reclaimed_bytes == torn_bytes
        assert not store.path.exists()

    def test_compact_on_missing_file_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        assert store.compact() == (0, 0)
        # Truly a no-op: no namespace dir (or lockfile husk) appears.
        assert not store.path.parent.exists()

    def test_non_dict_json_lines_skipped(self, tmp_path):
        # A foreign/corrupt file may hold valid JSON that is not a
        # record object; the loader must skip it, not crash.
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        with store.path.open("a") as handle:
            handle.write('"hello"\n123\n[1, 2]\n')
        fresh = ResultStore(tmp_path, namespace="ns")
        assert sorted(fresh.keys()) == ["k1"]
        assert fresh.compact().live_records == 1

    def test_compact_sees_other_writers(self, tmp_path):
        # compact() re-reads under the lock, so records appended by
        # another store instance survive the rewrite.
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        other = ResultStore(tmp_path, namespace="ns")
        other.put("k2", self._record("k2", 2))
        stats = store.compact()
        assert stats.live_records == 2
        fresh = ResultStore(tmp_path, namespace="ns")
        assert "k1" in fresh and "k2" in fresh

    @pytest.mark.parametrize("payload", [
        None,                              # no result at all
        {"layers": []},                    # a result without a workload
        "cnn_lstm",                        # a result that is no mapping
    ], ids=["no-result", "no-workload", "not-a-mapping"])
    @pytest.mark.parametrize("load", [True, False],
                             ids=["load", "index-only"])
    def test_record_without_an_evaluation_result_is_a_miss(
            self, tmp_path, payload, load):
        store = ResultStore(tmp_path, namespace="ns")
        record = self._record("k", 1)
        if payload is None:
            del record["result"]
        else:
            record["result"] = payload
        store.put("k", record)
        reader = ResultStore(tmp_path, namespace="ns")
        assert "k" in reader  # raw record still visible (and loaded)
        assert reader.result("k", load=load) is None  # but no result
        assert reader.result_with_json("k", load=load) is None

    def test_default_namespace_is_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.namespace == code_fingerprint()
        assert store.path.parent.name == code_fingerprint()

    def test_refresh_sees_external_writes(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        other = ResultStore(tmp_path, namespace="ns")
        assert "k1" in other
        store.put("k2", self._record("k2", 2))
        assert "k2" not in other  # loaded index is a snapshot
        other.refresh()
        assert "k2" in other

    def test_result_without_load_reads_only_the_index(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", self._record("k1", 1))
        other = ResultStore(tmp_path, namespace="ns")
        assert other.result("k1", load=False) is None  # file never read
        assert other.result("k1") is not None          # this loads it
        store.put("k2", self._record("k2", 2))
        assert other.result("k2", load=False) is None  # index snapshot
        assert other.result("k1", load=False) == other.result("k1")


def _spy_scans(monkeypatch) -> list:
    """Record ``(start, ScanResult)`` of every store read from now on."""
    scans = []
    real = store_module.scan_jsonl

    def spy(path, start=0):
        result = real(path, start)
        scans.append((start, result))
        return result

    monkeypatch.setattr(store_module, "scan_jsonl", spy)
    return scans


def _index(store: ResultStore) -> dict:
    return {key: store.get(key) for key in store.keys()}


class TestRefresh:
    """``refresh()`` reads only what was appended since the last read,
    and reads the file whole once it is not the file the index read."""

    _record = TestResultStore._record

    def _filled(self, tmp_path, *markers: int) -> ResultStore:
        store = ResultStore(tmp_path, namespace="ns")
        for i, marker in enumerate(markers):
            store.put(f"k{i}", self._record(f"k{i}", marker))
        return store

    def test_one_external_append_parses_one_line(self, tmp_path,
                                                 monkeypatch):
        writer = self._filled(tmp_path, 1, 2, 3)
        reader = ResultStore(tmp_path, namespace="ns")
        assert len(reader) == 3
        writer.put("k9", self._record("k9", 9))
        scans = _spy_scans(monkeypatch)
        reader.refresh()
        assert [scan.raw_lines for _, scan in scans] == [1]
        assert reader.get("k9")["marker"] == 9
        reader.refresh()
        assert [scan.raw_lines for _, scan in scans] == [1, 0]
        assert _index(reader) == _index(ResultStore(tmp_path, namespace="ns"))

    def test_own_put_is_not_parsed_again(self, tmp_path, monkeypatch):
        store = self._filled(tmp_path, 1)
        store.put("k1", self._record("k1", 2))
        _, encoded = store.result_with_json("k1")
        scans = _spy_scans(monkeypatch)
        store.refresh()
        assert [scan.raw_lines for _, scan in scans] == [0]
        assert store.result_with_json("k1")[1] is encoded
        assert _index(store) == _index(ResultStore(tmp_path, namespace="ns"))

    def test_a_record_appended_before_a_put_is_still_read(self, tmp_path,
                                                          monkeypatch):
        store = self._filled(tmp_path, 1)
        ResultStore(tmp_path, namespace="ns").put(
            "k5", self._record("k5", 5))
        store.put("k1", self._record("k1", 2))
        scans = _spy_scans(monkeypatch)
        store.refresh()
        assert [scan.raw_lines for _, scan in scans] == [2]
        assert store.get("k5")["marker"] == 5
        assert _index(store) == _index(ResultStore(tmp_path, namespace="ns"))

    def test_a_torn_put_leaves_its_fragment_for_the_next_read(
            self, tmp_path, monkeypatch):
        store = self._filled(tmp_path, 1)
        offset = store.path.stat().st_size
        faults.configure("torn_write:key=k1")
        try:
            store.put("k1", self._record("k1", 2))
        finally:
            faults.configure(None)
        scans = _spy_scans(monkeypatch)
        store.refresh()
        store.put("k2", self._record("k2", 3))
        store.refresh()
        assert [(start, scan.partial) for start, scan in scans] == [
            (offset, True), (offset, False)]
        assert len(scans[1][1].corrupt) == 1  # the fragment, now whole
        assert store.get("k2")["marker"] == 3
        assert "k1" not in ResultStore(tmp_path, namespace="ns")

    def test_a_file_compacted_elsewhere_is_read_whole(self, tmp_path,
                                                      monkeypatch):
        writer = self._filled(tmp_path, 1, 2)
        writer.put("k0", self._record("k0", 5))
        reader = ResultStore(tmp_path, namespace="ns")
        assert len(reader) == 2
        inode = reader.path.stat().st_ino
        ResultStore(tmp_path, namespace="ns").compact()
        for key in ("k7", "k8"):  # grow past the reader's offset
            writer.put(key, self._record(key, 7))
        assert reader.path.stat().st_ino != inode
        scans = _spy_scans(monkeypatch)
        reader.refresh()
        assert [(start, scan.raw_lines) for start, scan in scans] == [(0, 4)]
        assert _index(reader) == _index(ResultStore(tmp_path, namespace="ns"))

    @pytest.mark.parametrize("rewrite", [
        (("k1", 5), ("k0", 6), ("k2", 7)),  # longer, other bytes
        (("k0", 6),),                       # truncated below the offset
    ], ids=["longer", "shorter"])
    def test_a_file_rewritten_in_place_is_read_whole(self, tmp_path,
                                                     monkeypatch, rewrite):
        self._filled(tmp_path, 1, 2)
        reader = ResultStore(tmp_path, namespace="ns")
        assert len(reader) == 2
        inode = reader.path.stat().st_ino
        reader.path.write_bytes(b"".join(
            encode_record(self._record(key, marker))
            for key, marker in rewrite))
        assert reader.path.stat().st_ino == inode
        scans = _spy_scans(monkeypatch)
        reader.refresh()
        assert [(start, scan.raw_lines) for start, scan in scans] == [
            (0, len(rewrite))]
        assert _index(reader) == _index(ResultStore(tmp_path, namespace="ns"))
        assert reader.get("k0")["marker"] == 6

    def test_a_line_is_indexed_once_its_newline_lands(self, tmp_path,
                                                      monkeypatch):
        self._filled(tmp_path, 1)
        reader = ResultStore(tmp_path, namespace="ns")
        assert len(reader) == 1
        counted = []
        monkeypatch.setattr(store_module, "counter",
                            lambda name, n=1, **attrs: counted.append(n))
        scans = _spy_scans(monkeypatch)
        line = encode_record(self._record("k1", 2))
        with reader.path.open("ab") as handle:
            handle.write(line[:100])
        reader.refresh()
        assert "k1" not in reader and counted == []
        # A whole-file scan (dse gc, dse summary) reports it corrupt.
        assert scan_jsonl(reader.path).corrupt == (line[:100].decode(),)
        with reader.path.open("ab") as handle:
            handle.write(line[100:])
        reader.refresh()
        reader.refresh()
        assert reader.get("k1")["marker"] == 2 and counted == []
        assert [("k1" in scan.records) for _, scan in scans] == [
            False, True, False]

    def test_a_refresh_racing_a_put_keeps_the_newer_record(
            self, tmp_path, monkeypatch):
        store = self._filled(tmp_path, 1)  # loaded, file present
        ResultStore(tmp_path, namespace="ns").put(
            "k", self._record("k", 1))  # the older record, appended
        real = store_module.scan_jsonl
        scanned, put_done = threading.Event(), threading.Event()

        def held_scan(*args):
            result = real(*args)
            if threading.current_thread() is reader:
                scanned.set()
                put_done.wait(timeout=0.5)  # hold the scan open
            return result

        def put_newer():
            try:
                store.put("k", self._record("k", 2))
            finally:
                put_done.set()

        monkeypatch.setattr(store_module, "scan_jsonl", held_scan)
        reader = threading.Thread(target=store.refresh)
        writer = threading.Thread(target=put_newer)
        reader.start()
        assert scanned.wait(timeout=10)
        writer.start()
        for thread in (reader, writer):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert store.get("k")["marker"] == 2
        assert ResultStore(tmp_path, namespace="ns").get("k")["marker"] == 2

    def test_concurrent_refreshes_follow_a_writer(self, tmp_path):
        store = self._filled(tmp_path, 0, 0, 0)
        writer = ResultStore(tmp_path, namespace="ns")
        records = [self._record(f"k{i % 3}", i) for i in range(3, 300)]
        stop = threading.Event()
        deadline = time.monotonic() + 20
        problems: list[str] = []

        def refresh_loop():
            latest = dict.fromkeys(("k0", "k1", "k2"), 0)
            try:
                while not stop.is_set() and time.monotonic() < deadline:
                    store.refresh()
                    for key, seen in latest.items():
                        record = store.get(key)
                        marker = -1 if record is None else record["marker"]
                        if marker < seen:  # an older read won
                            problems.append(f"{key}: {seen} -> {marker}")
                        latest[key] = marker
            except Exception as exc:  # noqa: BLE001 -- reported below
                problems.append(repr(exc))

        def write():
            try:
                for record in records:
                    if time.monotonic() > deadline:
                        break
                    writer.put(record["key"], record)
            finally:
                stop.set()

        threads = [threading.Thread(target=refresh_loop)
                   for _ in range((os.cpu_count() or 1) + 2)]
        threads.append(threading.Thread(target=write))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() < deadline, "the writer never finished"
        assert problems == []
        store.refresh()
        assert _index(store) == _index(ResultStore(tmp_path, namespace="ns"))
        assert store.get("k2")["marker"] == 299
