"""Executor semantics: caching, resume, and parallel/serial equivalence.

The acceptance grid (2 accelerators x 2 networks) runs through the
real ``multiprocessing`` pool; the cheaper single-network campaigns
cover the serial path, force mode, and progress reporting.
"""

import pytest

from repro.dse.executor import resolve_jobs, run_campaign
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore


def _spec(**overrides) -> CampaignSpec:
    base = dict(name="exec-test", accelerators=("SCNN", "Stripes"),
                networks=("cnn_lstm",))
    base.update(overrides)
    return CampaignSpec(**base)


class TestSerialExecution:
    def test_first_run_evaluates_and_persists(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_campaign(_spec(), store)
        assert (run.total, run.cached, run.evaluated) == (2, 0, 2)
        assert store.path.exists()
        assert len(store) == 2
        for point in run.points:
            assert run.result_for(point).total_cycles > 0

    def test_second_run_fully_cached(self, tmp_path):
        run_campaign(_spec(), ResultStore(tmp_path))
        # Fresh store instance: nothing carried over in memory.
        resumed = run_campaign(_spec(), ResultStore(tmp_path))
        assert (resumed.cached, resumed.evaluated) == (2, 0)

    def test_partial_resume(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(_spec(accelerators=("SCNN",)), store)
        grown = run_campaign(_spec(), ResultStore(tmp_path))
        assert (grown.cached, grown.evaluated) == (1, 1)

    def test_force_reevaluates(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(_spec(), store)
        forced = run_campaign(_spec(), store, force=True)
        assert (forced.cached, forced.evaluated) == (0, 2)
        assert len(store) == 2  # duplicates superseded, not re-keyed

    def test_cached_equals_computed(self, tmp_path):
        first = run_campaign(_spec(), ResultStore(tmp_path))
        resumed = run_campaign(_spec(), ResultStore(tmp_path))
        for key, evaluation in first.results.items():
            assert resumed.results[key] == evaluation

    def test_progress_events(self, tmp_path):
        events = []

        def progress(done, total, label, *, cached, elapsed_s):
            events.append((done, total, label, cached))

        run_campaign(_spec(), ResultStore(tmp_path), progress=progress)
        assert [e[0] for e in events] == [1, 2]
        assert all(e[1] == 2 and not e[3] for e in events)
        events.clear()
        run_campaign(_spec(), ResultStore(tmp_path), progress=progress)
        assert all(e[3] for e in events)

    def test_grid_keys(self, tmp_path):
        spec = _spec(variants=("Dense",))
        run = run_campaign(spec, ResultStore(tmp_path))
        grid = run.grid()
        assert ("SCNN", "cnn_lstm") in grid
        assert ("BitWave[Dense]", "cnn_lstm") in grid

    def test_unwritable_store_degrades_to_no_persistence(self, tmp_path):
        store = ResultStore(tmp_path)
        # Make the namespace dir a file so mkdir/open fail with OSError.
        store.path.parent.parent.mkdir(parents=True, exist_ok=True)
        store.path.parent.touch()
        run = run_campaign(_spec(accelerators=("Stripes",)), store)
        assert run.evaluated == 1
        assert run.persist_failures == 1
        assert "not persisted" in run.summary_line
        assert run.results  # the evaluation itself still came back


class TestParallelExecution:
    """The ISSUE acceptance grid: >= 2 accelerators x 2 networks
    through the pool executor, persisted, then resumed with zero
    re-evaluations."""

    @pytest.fixture(scope="class")
    def acceptance_spec(self):
        return CampaignSpec(
            name="acceptance",
            accelerators=("SCNN", "Stripes"),
            networks=("cnn_lstm", "mobilenetv2"),
        )

    def test_pool_run_persists_and_resumes_from_cache(
            self, acceptance_spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("acceptance")
        first = run_campaign(
            acceptance_spec, ResultStore(root), jobs=2)
        assert (first.total, first.cached, first.evaluated) == (4, 0, 4)
        assert ResultStore(root).path.exists()

        resumed = run_campaign(
            acceptance_spec, ResultStore(root), jobs=2)
        assert resumed.evaluated == 0, "resume must not re-evaluate"
        assert resumed.cached == 4

        serial = run_campaign(
            acceptance_spec, ResultStore(tmp_path_factory.mktemp("serial")),
            jobs=1)
        assert serial.evaluated == 4
        for key, evaluation in serial.results.items():
            parallel_ev = first.results[key]
            assert parallel_ev == evaluation, \
                "parallel and serial evaluations must be identical"


class TestResolveJobs:
    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestBackendAxis:
    """Backend is a first-class campaign axis: sim-backed points ride
    the same executor and land in the campaign's store beside the
    model's records."""

    def test_mixed_backend_campaign(self, tmp_path):
        spec = CampaignSpec(
            name="mixed",
            accelerators=("SCNN", "BitWave"),
            networks=("cnn_lstm@frames=4+bins=64+hidden=64",),
            backends=("model", "sim-vectorized"),
        )
        points = spec.points()
        # Sim backends expand against BitWave only; labels spell the
        # canonical workload (parameters sorted by name).
        assert [p.label for p in points] == [
            "SCNN/cnn_lstm@bins=64+frames=4+hidden=64",
            "BitWave/cnn_lstm@bins=64+frames=4+hidden=64",
            "BitWave@sim-vectorized/cnn_lstm@bins=64+frames=4+hidden=64",
        ]

        store = ResultStore(tmp_path)
        run = run_campaign(spec, store)
        assert (run.total, run.cached, run.evaluated) == (3, 0, 3)

        sim_point = points[-1]
        assert sim_point.key() in store
        assert store.result(points[0].key()) is not None
        assert [path.name for path in tmp_path.iterdir()] \
            == [store.namespace]

        # Resume serves every backend from the one namespace.
        resumed = run_campaign(spec, ResultStore(tmp_path))
        assert (resumed.cached, resumed.evaluated) == (3, 0)
        assert resumed.results == run.results

    def test_sim_result_metrics_flow_into_summary(self, tmp_path):
        from repro.dse.summary import summary_data

        spec = CampaignSpec(
            name="simsum",
            accelerators=("BitWave",),
            networks=("cnn_lstm@frames=4+bins=64+hidden=64",),
            backends=("sim-vectorized",),
        )
        store = ResultStore(tmp_path)
        run_campaign(spec, store)
        rows = summary_data(spec, store)
        assert len(rows) == 1
        assert rows[0]["stored"] is True
        assert rows[0]["backend"] == "sim-vectorized"
        assert rows[0]["cycles"] > 0
        # The sim energy epilog prices the structural counters.
        assert rows[0]["energy"] > 0
        assert rows[0]["tops_per_w"] > 0

    def test_sim_only_campaign_without_bitwave_is_an_error(self):
        spec = CampaignSpec(
            name="empty",
            accelerators=("SCNN",),
            networks=("cnn_lstm",),
            backends=("sim-vectorized",),
        )
        with pytest.raises(ValueError, match="zero points"):
            spec.points()

    def test_energy_priced_vs_legacy_unpriced_paths(self, tmp_path):
        """Both energy paths pin down: current sim records carry priced
        energy (ranked in summaries and Pareto fronts); genuinely
        unpriced records -- stores written before the sim-energy epilog
        -- read as missing, never as a best-possible zero (and the JSON
        stays RFC-parseable)."""
        import json as json_mod

        from repro.dse.records import make_record
        from repro.dse.summary import pareto_data, summary_data
        from repro.eval.result import EvalResult, LayerResult

        spec = CampaignSpec(
            name="mixedsum",
            accelerators=("BitWave",),
            networks=("cnn_lstm@frames=4+bins=64+hidden=64",),
            backends=("model", "sim-vectorized"),
        )
        store = ResultStore(tmp_path)
        run_campaign(spec, store)
        rows = summary_data(spec, store)
        by_backend = {row["backend"]: row for row in rows}
        assert by_backend["model"]["energy"] > 0
        # Priced path: the sim epilog fills real energy metrics.
        assert by_backend["sim-vectorized"]["energy"] > 0
        assert by_backend["sim-vectorized"]["tops_per_w"] > 0
        json_mod.loads(json_mod.dumps(rows))  # strictly serializable

        front = pareto_data(spec, store, x="cycles", y="energy")
        # Priced sim records rank in the front like any other point.
        assert front
        assert all(row["energy"] is not None for row in front)

        # Legacy path: overwrite the sim record with an unpriced result
        # (energy_pj=0, empty component dicts -- the pre-epilog layout).
        sim_point = next(p for p in spec.points()
                         if p.backend == "sim-vectorized")
        stored = store.result(sim_point.key())
        unpriced = EvalResult(
            workload=stored.workload,
            config_label=stored.config_label,
            backend=stored.backend,
            clock_hz=stored.clock_hz,
            layers=tuple(
                LayerResult(name=l.name, macs=l.macs, cycles=l.cycles,
                            energy_pj=0.0, energy={}, traffic=l.traffic,
                            detail=l.detail)
                for l in stored.layers),
        )
        store.put(sim_point.key(), make_record(sim_point, unpriced))
        rows = summary_data(spec, store)
        legacy = {row["backend"]: row for row in rows}["sim-vectorized"]
        assert legacy["stored"] is True
        assert legacy["energy"] is None
        assert legacy["tops_per_w"] is None
        json_mod.loads(json_mod.dumps(rows))
        front = pareto_data(spec, store, x="cycles", y="energy")
        assert all(row["backend"] == "model" for row in front)
