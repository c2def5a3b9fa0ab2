"""The accuracy x hardware co-search: the acceptance pin is a nonempty
accuracy-vs-TOPS/W frontier with a genuine trade-off, deterministic
across runs and fully cached on a rerun."""

from __future__ import annotations

import pytest

from repro import faults
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.opt.cosearch import (
    COSEARCH_ORIGIN,
    CosearchConfig,
    CosearchProbe,
    cosearch,
    effective_zero_columns,
    strategy_signature,
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One co-search on a cold store (shared: the accuracy phase is the
    expensive part of this module)."""
    store = ResultStore(tmp_path_factory.mktemp("cosearch"))
    return store, cosearch(store)


class TestFrontier:
    def test_frontier_is_nonempty_and_priced(self, run):
        _, result = run
        assert result.front
        for row in result.front:
            assert row["accuracy"] is not None
            assert row["tops_per_w"] > 0
            assert row["cycles"] > 0

    def test_frontier_is_a_genuine_tradeoff(self, run):
        """Nondominated over (accuracy, TOPS/W) both maximized: along
        the front, higher efficiency must cost accuracy."""
        _, result = run
        accuracies = [row["accuracy"] for row in result.front]
        efficiencies = [row["tops_per_w"] for row in result.front]
        assert accuracies == sorted(accuracies)
        assert efficiencies == sorted(efficiencies, reverse=True)
        if len(result.front) > 1:
            assert max(efficiencies) > min(efficiencies)

    def test_history_respects_the_accuracy_floor(self, run):
        _, result = run
        config = result.config
        assert 0 < len(result.history) <= config.max_moves
        for _layer, gs, new_z, accuracy in result.history:
            assert gs in config.group_sizes
            assert accuracy >= config.min_accuracy

    def test_archive_prices_every_snapshot_under_every_arch(self, run):
        _, result = run
        expected = (len(result.history) + 1) * len(result.config.archs)
        assert len(result.rows) == expected
        assert result.counts["failed"] == 0
        # Move 0 is the empty strategy: the untouched baseline.
        baselines = [r for r in result.rows if r["moves"] == 0]
        assert all(r["strategy"] == {} for r in baselines)


class TestDeterminism:
    def test_same_config_same_trajectory_and_front(self, run, tmp_path):
        _, first = run
        second = cosearch(ResultStore(tmp_path / "replay"))
        assert second.history == first.history
        assert second.trajectory == first.trajectory
        assert second.front == first.front

    def test_rerun_on_warm_store_reprices_nothing(self, run):
        store, first = run
        again = cosearch(store)
        assert again.counts["evaluated"] == 0
        assert again.counts["saved"] == again.counts["probes"]
        assert again.front == first.front


class TestPersistence:
    def test_probes_land_beside_the_other_records_with_origin(self, run):
        store, result = run
        cache = ResultStore(store.root)
        for key in result.trajectory:
            record = cache.get(key)
            assert record is not None
            assert record["extra"]["origin"] == COSEARCH_ORIGIN

    def test_probe_key_ignores_zero_targets(self):
        probe = CosearchProbe(
            workload="cnn_lstm", arch="bitwave-16nm", preset="tiny",
            strategy={"fc": {16: 2, 8: 0}})
        trimmed = CosearchProbe(
            workload="cnn_lstm", arch="bitwave-16nm", preset="tiny",
            strategy={"fc": {16: 2}})
        assert probe.key() == trimmed.key()

    def test_probe_key_separates_archs(self):
        a = CosearchProbe(workload="cnn_lstm", arch="bitwave-16nm",
                          preset="tiny", strategy={})
        b = CosearchProbe(workload="cnn_lstm", arch="bitwave-dense-16nm",
                          preset="tiny", strategy={})
        assert a.key() != b.key()

    def test_probe_key_holds_only_what_bitwave_reads(self, tmp_path):
        # The BitWave model never reads the BCS group size, so the
        # second arch's probes are the first's: 4 prices, not 8.
        plain = CosearchProbe(workload="cnn_lstm", arch="bitwave-16nm",
                              preset="tiny", strategy={})
        grouped = CosearchProbe(workload="cnn_lstm",
                                arch="bitwave-16nm@group=16",
                                preset="tiny", strategy={})
        assert plain.key() == grouped.key()
        result = cosearch(ResultStore(tmp_path), CosearchConfig(
            archs=("bitwave-16nm", "bitwave-16nm@group=16")))
        assert result.counts == {
            "probes": 8, "evaluated": 4, "saved": 4, "failed": 0}


class TestChaos:
    def test_injected_crashes_heal_and_match_the_clean_front(self, run,
                                                             tmp_path):
        _, reference = run
        faults.configure("seed=7,crash:0.5:attempt<1:site=opt")
        try:
            result = cosearch(ResultStore(tmp_path / "chaos"))
        finally:
            faults.configure(None)
        assert result.counts["failed"] == 0
        assert result.front == reference.front

    def test_probes_failing_for_good_are_counted_not_stored(self,
                                                            tmp_path):
        faults.configure("seed=7,crash:1:site=opt")  # every attempt
        try:
            result = cosearch(ResultStore(tmp_path),
                              policy=RetryPolicy(backoff_s=0.0))
        finally:
            faults.configure(None)
        assert result.front == ()
        assert result.counts == {
            "probes": 8, "evaluated": 0, "saved": 0, "failed": 8}
        assert len(ResultStore(tmp_path)) == 0


class TestStrategyShapes:
    def test_signature_drops_zeros_and_sorts(self):
        signature = strategy_signature(
            {"b": {16: 1, 8: 0}, "a": {4: 2}, "c": {}})
        assert signature == {"a": {"4": 2}, "b": {"16": 1}}
        assert list(signature) == ["a", "b"]

    def test_effective_zero_columns_takes_the_strongest_target(self):
        strategy = {"fc": {16: 1, 8: 3}, "conv": {16: 0}}
        assert effective_zero_columns(strategy) == {"fc": 3}


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CosearchConfig(network="nope")
        with pytest.raises(ValueError):
            CosearchConfig(archs=())
        with pytest.raises(ValueError):
            CosearchConfig(max_moves=-1)
        with pytest.raises(ValueError):
            CosearchConfig(batch=0)
        with pytest.raises(ValueError):
            CosearchConfig(archs=("no-such-preset",))
