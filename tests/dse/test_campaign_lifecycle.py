"""The campaign-lifecycle layer: deterministic sharding, cross-process
store locking, shard merge, store GC, and failure-tolerant execution.

The acceptance pins: (1) a two-shard campaign run as two separate OS
processes against the same store root merges into one namespace with no
lost or duplicated records; (2) a campaign with one poisoned point
completes and persists every other point, reports the failure in
``summary_line``/``summary_data``, and exits nonzero.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dse.executor import CampaignRun, _worker, drive_points, run_campaign
from repro.dse.gc import collect_garbage, gc_table, live_namespaces
from repro.dse.records import RECORD_VERSION, make_record, result_from_dict
from repro.dse.spec import CampaignSpec, Shard
from repro.dse.store import ResultStore, StoreRouter
from repro.dse.summary import summary_data, summary_table
from repro.eval.fingerprints import (
    code_fingerprint,
    opt_fingerprint,
    sim_backend_fingerprint,
)
from repro.eval.registry import get_backend

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spec(**overrides) -> CampaignSpec:
    base = dict(name="lifecycle", accelerators=("SCNN", "Stripes"),
                networks=("cnn_lstm",))
    base.update(overrides)
    return CampaignSpec(**base)


def _drive(points, run, router, worker, **kwargs):
    """drive_points with the standard evaluation-grid plumbing."""
    drive_points(
        points, run,
        worker=worker,
        cached_result=router.result,
        make_point_record=lambda point, payload, elapsed: make_record(
            point, payload, elapsed,
            fingerprint=get_backend(point.backend).fingerprint()),
        decode_result=result_from_dict,
        store_for=router.for_point,
        **kwargs,
    )


def _poison_worker(point):
    """Module-level (picklable) worker that fails exactly one point."""
    if point.accelerator == "SCNN":
        raise RuntimeError("injected fault")
    return _worker(point)


class TestShard:
    def test_parse(self):
        assert Shard.parse("0/2") == Shard(0, 2)
        assert Shard.parse(" 3/8 ") == Shard(3, 8)
        assert str(Shard(1, 4)) == "1/4"

    @pytest.mark.parametrize("bad", ["", "2", "a/b", "1/2/3", "-1/2"])
    def test_parse_rejects_bad_spellings(self, bad):
        with pytest.raises(ValueError, match="shard"):
            Shard.parse(bad)

    def test_index_must_be_below_count(self):
        with pytest.raises(ValueError, match="index"):
            Shard(2, 2)
        with pytest.raises(ValueError, match="count"):
            Shard(0, 0)

    def test_shards_partition_the_grid(self):
        points = _spec(networks=("cnn_lstm", "resnet18", "mobilenetv2"),
                       variants=("Dense", "+DF")).points()
        for count in (1, 2, 3, 5):
            shards = [Shard(i, count).select(points) for i in range(count)]
            keys = [p.key() for shard in shards for p in shard]
            assert sorted(keys) == sorted(p.key() for p in points)
            assert len(set(keys)) == len(points)

    def test_assignment_is_deterministic_and_key_local(self):
        # The same point lands in the same shard regardless of what
        # else is in the grid (assignment depends only on its own key).
        small = _spec().points()
        big = _spec(networks=("cnn_lstm", "resnet18")).points()
        shard = Shard(0, 3)
        small_selected = {p.key() for p in shard.select(small)}
        big_selected = {p.key() for p in shard.select(big)}
        assert small_selected == {k for k in big_selected
                                  if k in {p.key() for p in small}}

    def test_single_shard_is_identity(self):
        points = _spec().points()
        assert Shard(0, 1).select(points) == points

    def test_sharded_runs_cover_the_grid(self, tmp_path):
        spec = _spec(networks=("cnn_lstm", "mobilenetv2"))
        total = len(spec.points())
        counts = []
        for index in range(2):
            run = run_campaign(spec, ResultStore(tmp_path),
                               shard=Shard(index, 2))
            assert not run.failed
            counts.append(run.evaluated)
        assert sum(counts) == total
        store = ResultStore(tmp_path)
        assert len(store) == total
        rows = summary_data(spec, store)
        assert all(row["stored"] for row in rows)


class TestTwoProcessShardedCampaign:
    """Acceptance: two shards, two OS processes, one store root."""

    def test_concurrent_shards_merge_into_one_namespace(self, tmp_path):
        # This grid splits 3/1 over two shards, so both processes
        # genuinely evaluate and append concurrently.
        spec_args = ["--name", "twoproc",
                     "--accelerators", "SCNN,Stripes",
                     "--networks", "cnn_lstm,resnet18"]
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.dse", "run", *spec_args,
                 "--shard", f"{index}/2", "--store", str(tmp_path),
                 "--quiet"],
                env=env, cwd=REPO_ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for index in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, (out, err)

        spec = CampaignSpec(name="twoproc",
                            accelerators=("SCNN", "Stripes"),
                            networks=("cnn_lstm", "resnet18"))
        points = spec.points()
        store = ResultStore(tmp_path)
        # No lost records: every point is stored...
        assert sorted(store.keys()) == sorted(p.key() for p in points)
        # ...and no duplicated ones: concurrent appends under the lock
        # produced exactly one intact line per point.
        lines = store.path.read_text().strip().splitlines()
        assert len(lines) == len(points)
        assert len({json.loads(line)["key"] for line in lines}) \
            == len(points)
        assert all(summary_data(spec, store)[i]["stored"]
                   for i in range(len(points)))


def _hammer(root: str, namespace: str, prefix: str, n: int) -> None:
    store = ResultStore(root, namespace=namespace)
    for i in range(n):
        store.put(f"{prefix}{i}", {"version": RECORD_VERSION,
                                   "prefix": prefix, "i": i})


class TestStoreConcurrency:
    def test_two_processes_append_under_the_lock(self, tmp_path):
        procs = [
            multiprocessing.Process(
                target=_hammer, args=(str(tmp_path), "ns", prefix, 50))
            for prefix in ("a", "b")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ResultStore(tmp_path, namespace="ns")
        assert len(store) == 100
        # Every line is intact JSON: the writers never interleaved.
        lines = store.path.read_text().strip().splitlines()
        assert len(lines) == 100
        for line in lines:
            json.loads(line)

    def test_torn_trailing_line_resume(self, tmp_path):
        store = ResultStore(tmp_path, namespace="ns")
        store.put("k1", {"version": RECORD_VERSION, "marker": 1})
        with store.path.open("a") as handle:
            handle.write('{"key": "k2", "trunc')  # crashed mid-write
        resumed = ResultStore(tmp_path, namespace="ns")
        assert "k1" in resumed and "k2" not in resumed
        # Appending after the torn fragment starts a fresh line (the
        # fragment has no newline); the new record must not be lost by
        # concatenating onto it.
        resumed.put("k3", {"version": RECORD_VERSION, "marker": 3})
        fresh = ResultStore(tmp_path, namespace="ns")
        assert "k1" in fresh and "k3" in fresh
        # compact() heals the file: only live records survive.
        stats = fresh.compact()
        assert stats.live_records == 2
        for line in fresh.path.read_text().strip().splitlines():
            json.loads(line)


class TestMerge:
    def _fill(self, root, namespace, keys, marker):
        # Stamped like make_record: computed under this namespace.
        store = ResultStore(root, namespace=namespace)
        for key in keys:
            store.put(key, {"version": RECORD_VERSION,
                            "fingerprint": namespace, "marker": marker})
        return store

    def test_merge_folds_and_is_idempotent(self, tmp_path):
        a = self._fill(tmp_path / "a", "ns", ("k1", "k2"), 1)
        b = self._fill(tmp_path / "b", "ns", ("k3",), 2)
        assert b.merge(a).written == 2
        assert sorted(b.keys()) == ["k1", "k2", "k3"]
        size = b.path.stat().st_size
        # Merging the same shard again changes nothing.
        assert b.merge(a).written == 0
        assert b.path.stat().st_size == size
        fresh = ResultStore(tmp_path / "b", namespace="ns")
        assert len(fresh) == 3

    def test_merge_is_last_wins_on_conflict(self, tmp_path):
        dest = self._fill(tmp_path / "dest", "ns", ("k",), 1)
        src = self._fill(tmp_path / "src", "ns", ("k",), 2)
        assert dest.merge(src).written == 1
        assert dest.get("k")["marker"] == 2
        assert ResultStore(tmp_path / "dest",
                           namespace="ns").get("k")["marker"] == 2

    def test_merge_accepts_bare_jsonl_and_namespace_dir(self, tmp_path):
        src = self._fill(tmp_path / "src", "ns", ("k1",), 1)
        via_file = ResultStore(tmp_path / "d1", namespace="ns")
        assert via_file.merge(src.path).written == 1
        via_dir = ResultStore(tmp_path / "d2", namespace="ns")
        assert via_dir.merge(src.path.parent).written == 1
        assert "k1" in via_file and "k1" in via_dir

    def test_merge_skips_records_of_another_fingerprint(self, tmp_path):
        # Records computed by other code must never be served as this
        # namespace's results -- nor records that name no fingerprint.
        src = self._fill(tmp_path / "src", "F", ("k1",), 1)
        src.put("k2", {"version": RECORD_VERSION, "marker": 1})
        dest = ResultStore(tmp_path / "dest", namespace="G")
        assert dest.merge(src.path) == (0, 2)
        assert len(dest) == 0 and not dest.path.exists()

    def test_merge_skips_torn_source_lines(self, tmp_path):
        src = self._fill(tmp_path / "src", "ns", ("k1",), 1)
        with src.path.open("a") as handle:
            handle.write('{"key": "k2", "trunc')
        dest = ResultStore(tmp_path / "dest", namespace="ns")
        assert dest.merge(src).written == 1
        assert "k2" not in dest

    def test_merge_missing_source_is_a_noop(self, tmp_path):
        dest = ResultStore(tmp_path / "dest", namespace="ns")
        assert dest.merge(tmp_path / "nope" / "results.jsonl") == (0, 0)
        assert not dest.path.exists()

    def test_cli_merge_whole_store_root(self, tmp_path, capsys):
        from repro.dse.__main__ import main as dse_main

        self._fill(tmp_path / "a", "ns1", ("k1",), 1)
        self._fill(tmp_path / "a", "ns2", ("k2",), 1)
        dest = tmp_path / "dest"
        assert dse_main(["merge", "--store", str(dest),
                         str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "merge complete: 2 records" in out
        assert "k1" in ResultStore(dest, namespace="ns1")
        assert "k2" in ResultStore(dest, namespace="ns2")

    def test_cli_merge_files_bare_records_by_fingerprint(
            self, tmp_path, capsys):
        # A results.jsonl copied from another host needs no namespace:
        # each record names its own, and it is never this checkout's.
        from repro.dse.__main__ import main as dse_main

        sim = self._fill(tmp_path / "src", "simnet-abc", ("k1",), 1)
        model = self._fill(tmp_path / "src", "abc", ("k2",), 1)
        model.put("k3", {"version": RECORD_VERSION, "marker": 1})
        model.put("k4", {"version": RECORD_VERSION, "marker": 1,
                         "fingerprint": "../escape"})
        copied = tmp_path / "copied.jsonl"
        copied.write_bytes(sim.path.read_bytes() + model.path.read_bytes())
        dest = tmp_path / "dest"
        assert dse_main(["merge", "--store", str(dest), str(copied)]) == 0
        assert "skipped 2 records" in capsys.readouterr().out
        assert not (tmp_path / "escape").exists()
        assert sorted(p.name for p in dest.iterdir()) == ["abc",
                                                          "simnet-abc"]
        assert list(ResultStore(dest, namespace="simnet-abc").keys()) \
            == ["k1"]
        assert list(ResultStore(dest, namespace="abc").keys()) == ["k2"]


class TestGc:
    def _stale(self, root, name, age_days, n_records=3):
        store = ResultStore(root, namespace=name)
        for i in range(n_records):
            store.put(f"k{i}", {"version": RECORD_VERSION, "i": i})
        old = time.time() - age_days * 86400
        os.utime(store.path, (old, old))
        return store

    def test_live_namespaces_cover_every_backend(self):
        assert live_namespaces() == {code_fingerprint(),
                                     sim_backend_fingerprint(),
                                     opt_fingerprint()}

    def test_leftover_sim_namespace_is_stale(self, tmp_path):
        # The retired sim-validation campaigns wrote a ``sim-`` prefix
        # on the current digest; nothing reads it any more.
        leftover = "sim-" + code_fingerprint()
        for live_ns in live_namespaces():
            ResultStore(tmp_path, namespace=live_ns).put(
                "k", {"version": RECORD_VERSION})
        store = self._stale(tmp_path, leftover, age_days=10)
        assert live_namespaces() == {code_fingerprint(),
                                     sim_backend_fingerprint(),
                                     opt_fingerprint()}
        now = time.time()
        kept = collect_garbage(tmp_path, max_age_days=30, now=now)
        entry = next(ns for ns in kept.namespaces
                     if ns.namespace == leftover)
        assert (entry.live, entry.action) == (False, "keep")
        assert store.path.exists()
        assert all(ns.live for ns in kept.namespaces if ns is not entry)
        evicted = collect_garbage(tmp_path, max_age_days=30,
                                  now=now + 21 * 86400)
        actions = {ns.namespace: ns.action for ns in evicted.namespaces}
        assert actions[leftover] == "evict"
        assert not store.path.parent.exists()
        assert all(action != "evict" for ns, action in actions.items()
                   if ns != leftover)

    def test_stale_namespace_evicted_by_age(self, tmp_path):
        self._stale(tmp_path, "deadbeef0001", age_days=90)
        young = self._stale(tmp_path, "deadbeef0002", age_days=1)
        report = collect_garbage(tmp_path, max_age_days=30)
        actions = {ns.namespace: ns.action for ns in report.namespaces}
        assert actions == {"deadbeef0001": "evict",
                           "deadbeef0002": "keep"}
        assert not (tmp_path / "deadbeef0001").exists()
        assert young.path.exists()
        assert report.evicted == 1
        assert report.reclaimed_bytes > 0

    def test_live_namespace_compacts_but_never_evicts(self, tmp_path):
        live_ns = code_fingerprint()
        store = ResultStore(tmp_path, namespace=live_ns)
        store.put("k", {"version": RECORD_VERSION, "marker": 1})
        store.put("k", {"version": RECORD_VERSION, "marker": 2})
        old = time.time() - 365 * 86400
        os.utime(store.path, (old, old))
        report = collect_garbage(tmp_path, max_age_days=1, max_bytes=0)
        (entry,) = report.namespaces
        assert entry.live
        assert entry.action == "compact"
        assert entry.reclaimed_bytes > 0
        fresh = ResultStore(tmp_path, namespace=live_ns)
        assert fresh.get("k")["marker"] == 2
        assert len(fresh.path.read_text().strip().splitlines()) == 1

    def test_dry_run_touches_nothing(self, tmp_path):
        self._stale(tmp_path, "deadbeef0001", age_days=90)
        before = (tmp_path / "deadbeef0001" / "results.jsonl").read_bytes()
        report = collect_garbage(tmp_path, max_age_days=30, dry_run=True)
        assert report.namespaces[0].action == "evict"
        assert (tmp_path / "deadbeef0001" /
                "results.jsonl").read_bytes() == before
        assert "dry run" in gc_table(report)

    def test_size_budget_evicts_oldest_stale_first(self, tmp_path):
        oldest = self._stale(tmp_path, "deadbeef0001", age_days=20)
        newest = self._stale(tmp_path, "deadbeef0002", age_days=5)
        budget = newest.path.stat().st_size
        report = collect_garbage(tmp_path, max_age_days=30,
                                 max_bytes=budget)
        actions = {ns.namespace: ns.action for ns in report.namespaces}
        assert actions["deadbeef0001"] == "evict"
        assert actions["deadbeef0002"] == "keep"
        assert not oldest.path.exists()

    def test_evicts_namespace_husk_left_by_zero_live_compact(self, tmp_path):
        # A zero-live-record compact() unlinks results.jsonl but leaves
        # the dir + lockfile; the GC must still be able to reclaim it.
        store = ResultStore(tmp_path, namespace="deadbeef0001")
        store.path.parent.mkdir(parents=True)
        store.path.write_text('{"key": "k1", "trunc')
        assert store.compact().live_records == 0
        assert store.path.parent.exists() and not store.path.exists()
        old = time.time() - 90 * 86400
        os.utime(store.path.parent, (old, old))
        report = collect_garbage(tmp_path, max_age_days=30)
        (entry,) = report.namespaces
        assert (entry.action, entry.records, entry.size_bytes) \
            == ("evict", 0, 0)
        assert not store.path.parent.exists()

    def test_unrelated_directories_are_never_evicted(self, tmp_path):
        foreign = tmp_path / "not-a-namespace"
        foreign.mkdir()
        (foreign / "data.txt").write_text("keep me")
        empty = tmp_path / "empty-foreign-dir"  # no store lockfile
        empty.mkdir()
        old = time.time() - 365 * 86400
        os.utime(foreign, (old, old))
        os.utime(empty, (old, old))
        report = collect_garbage(tmp_path, max_age_days=1)
        assert report.namespaces == ()
        assert (foreign / "data.txt").exists()
        assert empty.exists()

    def test_rejects_negative_budgets(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            collect_garbage(tmp_path, max_age_days=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            collect_garbage(tmp_path, max_bytes=-1)

    def test_missing_root_reports_empty(self, tmp_path):
        report = collect_garbage(tmp_path / "nope")
        assert report.namespaces == ()

    def test_cli_gc_json(self, tmp_path, capsys):
        from repro.dse.__main__ import main as dse_main

        self._stale(tmp_path, "deadbeef0001", age_days=90)
        assert dse_main(["gc", "--store", str(tmp_path), "--dry-run",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dry_run"] is True
        assert payload["evicted"] == 1
        assert payload["namespaces"][0]["action"] == "evict"
        assert (tmp_path / "deadbeef0001").exists()


class TestFailureTolerance:
    def _run_with(self, tmp_path, worker, spec=None, **kwargs):
        spec = spec or _spec()
        store = ResultStore(tmp_path)
        points = spec.points()
        run: CampaignRun = CampaignRun(
            spec=spec, store_path=store.path, points=points,
            total=len(points))
        _drive(points, run, StoreRouter(store), worker, **kwargs)
        return run, store

    def test_serial_poisoned_point_spares_the_rest(self, tmp_path):
        run, store = self._run_with(tmp_path, _poison_worker, jobs=1)
        assert run.evaluated == 1
        assert len(run.failed) == 1
        assert run.failed_labels() == ["SCNN/cnn_lstm"]
        (error,) = run.failed.values()
        assert "injected fault" in error
        # The surviving point persisted; the failed one did not.
        assert len(store) == 1
        assert "failed=1" in run.summary_line
        assert "SCNN/cnn_lstm" in run.summary_line

    def test_pool_poisoned_point_spares_the_rest(self, tmp_path):
        spec = _spec(networks=("cnn_lstm", "mobilenetv2"))
        run, store = self._run_with(tmp_path, _poison_worker, spec=spec,
                                    jobs=2)
        assert run.evaluated == 2   # both Stripes points
        assert len(run.failed) == 2  # both SCNN points
        assert len(store) == 2
        assert sorted(run.failed_labels()) == [
            "SCNN/cnn_lstm", "SCNN/mobilenetv2"]

    def test_failed_points_retry_on_resume(self, tmp_path):
        run, _ = self._run_with(tmp_path, _poison_worker, jobs=1)
        assert run.failed
        # The fault is gone on the next run: only the failed point
        # re-evaluates, the survivor is served from the store.
        resumed, _ = self._run_with(tmp_path, _worker, jobs=1)
        assert (resumed.cached, resumed.evaluated) == (1, 1)
        assert not resumed.failed

    def test_progress_counts_failures_and_never_overruns(self, tmp_path):
        events = []

        def progress(done, total, label, *, cached, elapsed_s):
            events.append((done, total, label))

        run, _ = self._run_with(tmp_path, _poison_worker, jobs=1,
                                progress=progress)
        assert [done for done, _, _ in events] == [1, 2]
        assert all(done <= total for done, total, _ in events)
        # The live line flags the fault as it happens, not only in the
        # final summary.
        failed_lines = [label for _, _, label in events
                        if label.startswith("FAILED ")]
        assert len(failed_lines) == 1
        assert "injected fault" in failed_lines[0]

    def test_grid_refuses_partial_results(self, tmp_path):
        run, _ = self._run_with(tmp_path, _poison_worker, jobs=1)
        with pytest.raises(RuntimeError, match="SCNN/cnn_lstm"):
            run.grid()

    def test_summary_data_surfaces_failures(self, tmp_path):
        run, store = self._run_with(tmp_path, _poison_worker, jobs=1)
        rows = summary_data(run.spec, store, failures=run.failed)
        by_config = {row["config"]: row for row in rows}
        assert "injected fault" in by_config["SCNN"]["error"]
        assert by_config["SCNN"]["stored"] is False
        assert by_config["Stripes"]["error"] is None
        assert by_config["Stripes"]["stored"] is True
        json.loads(json.dumps(rows))  # strictly serializable
        table = summary_table(run.spec, store, failures=run.failed)
        assert "FAILED" in table

    def test_force_failure_over_stored_record_still_reports_failed(
            self, tmp_path):
        # First run stores both points; a --force re-run where one
        # point raises must not let the stale stored record mask the
        # failure in the table.
        good, store = self._run_with(tmp_path, _worker, jobs=1)
        assert not good.failed
        forced, _ = self._run_with(tmp_path, _poison_worker, jobs=1,
                                   force=True)
        assert forced.failed
        rows = summary_data(forced.spec, store, failures=forced.failed)
        scnn = {row["config"]: row for row in rows}["SCNN"]
        assert scnn["stored"] is True  # the pre-force record survives
        assert "injected fault" in scnn["error"]
        table = summary_table(forced.spec, store, failures=forced.failed)
        scnn_row = next(line for line in table.splitlines()
                        if line.startswith("SCNN"))
        assert "FAILED" in scnn_row

    def test_cli_exit_code_and_report(self, tmp_path, monkeypatch, capsys):
        from repro.dse import executor
        from repro.dse.__main__ import main as dse_main

        monkeypatch.setenv("REPRO_DSE_STORE", str(tmp_path))
        real = executor.evaluate_point

        def poisoned(point):
            if point.accelerator == "SCNN":
                raise RuntimeError("injected fault")
            return real(point)

        monkeypatch.setattr(executor, "evaluate_point", poisoned)
        code = dse_main(["run", "--name", "poisoned",
                         "--accelerators", "SCNN,Stripes",
                         "--networks", "cnn_lstm", "--quiet"])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        assert "FAILED" in captured.out          # summary-table status
        assert "injected fault" in captured.err  # per-point stderr line

        # The healthy point persisted and resumes from cache; with the
        # fault gone the campaign completes and exits 0.
        monkeypatch.setattr(executor, "evaluate_point", real)
        code = dse_main(["run", "--name", "poisoned",
                         "--accelerators", "SCNN,Stripes",
                         "--networks", "cnn_lstm", "--quiet"])
        assert code == 0
        assert "cached=1 evaluated=1" in capsys.readouterr().out


class TestDedupeAndRecommits:
    def test_duplicate_key_points_deduped_with_warning(self, tmp_path):
        spec = _spec(accelerators=("Stripes",))
        store = ResultStore(tmp_path)
        (point,) = spec.points()
        points = [point, point]  # a buggy caller's duplicate expansion
        run: CampaignRun = CampaignRun(
            spec=spec, store_path=store.path, points=points,
            total=len(points))
        with pytest.warns(RuntimeWarning, match="duplicates the key"):
            _drive(points, run, StoreRouter(store), _worker, jobs=1)
        # total corrected, one evaluation, one record, progress sane,
        # and the run's own point list deduped (so failure reporting
        # could never list one point twice).
        assert (run.total, run.evaluated, run.cached) == (1, 1, 0)
        assert run.points == [point]
        assert len(store) == 1

    def test_recommitted_key_counted_separately_and_clamped(self, tmp_path):
        # A worker streaming back an already-committed key (the
        # pre-fix 101/100 progress bug) must not inflate the counters.
        spec = _spec()
        store = ResultStore(tmp_path)
        points = spec.points()
        first_key = points[0].key()

        def same_key_worker(point):
            key, payload, elapsed = _worker(points[0])
            return first_key, payload, elapsed

        events = []

        def progress(done, total, label, *, cached, elapsed_s):
            events.append((done, total))

        run: CampaignRun = CampaignRun(
            spec=spec, store_path=store.path, points=points,
            total=len(points))
        _drive(points, run, StoreRouter(store), same_key_worker, jobs=1,
               progress=progress)
        assert run.evaluated == 1
        assert run.recommits == 1
        assert all(done <= total for done, total in events)
        assert "re-committed" in run.summary_line
