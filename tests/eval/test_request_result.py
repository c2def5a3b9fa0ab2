"""EvalRequest/EvalResult unit behavior: validation, keys, schema."""

from __future__ import annotations

import pytest

from repro.eval import (
    EvalOptions,
    EvalRequest,
    EvalResult,
    LayerResult,
    config_hash,
)
from repro.workloads.nets import network_layers, parse_network


class TestParseNetwork:
    def test_bare_name(self):
        assert parse_network("resnet18") == ("resnet18", {})

    def test_parametrized(self):
        assert parse_network("bert_base@tokens=128") \
            == ("bert_base", {"tokens": 128})

    def test_multiple_params(self):
        base, params = parse_network("cnn_lstm@frames=4+hidden=128")
        assert base == "cnn_lstm"
        assert params == {"frames": 4, "hidden": 128}

    def test_unknown_network(self):
        with pytest.raises(ValueError, match="unknown network"):
            parse_network("alexnet")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_network("resnet18@tokens=4")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="integer"):
            parse_network("bert_base@tokens=big")
        with pytest.raises(ValueError, match=">= 1"):
            parse_network("bert_base@tokens=0")
        with pytest.raises(ValueError, match="name=value"):
            parse_network("bert_base@tokens")

    def test_token_count_drives_layer_table(self):
        base = network_layers("bert_base")
        swept = network_layers("bert_base@tokens=128")
        assert [s.name for s in base] == [s.name for s in swept]
        assert all(s.ox == 4 for s in base)
        assert all(s.ox == 128 for s in swept)
        # Weight shapes (and thus sparsity stats) are token-independent.
        assert [(s.k, s.c) for s in base] == [(s.k, s.c) for s in swept]


class TestEvalRequest:
    def test_defaults_and_key_stability(self):
        a = EvalRequest(workload="cnn_lstm")
        b = EvalRequest(workload="cnn_lstm", accelerator="BitWave",
                        backend="model")
        assert a == b
        assert a.key() == b.key()
        assert a.key() == config_hash(a.to_dict())

    def test_axes_change_the_key(self):
        base = EvalRequest(workload="cnn_lstm")
        assert base.key() != EvalRequest(workload="resnet18").key()
        assert base.key() != EvalRequest(workload="cnn_lstm",
                                         accelerator="SCNN").key()
        assert base.key() != EvalRequest(workload="cnn_lstm",
                                         backend="sim-vectorized").key()
        assert base.key() != EvalRequest(
            workload="cnn_lstm", options=EvalOptions(batch=2)).key()
        assert base.key() != EvalRequest(
            workload="bert_base@tokens=64").key()

    def test_full_variant_canonicalizes(self):
        full = EvalRequest(workload="cnn_lstm", variant="+DF+SM+BF")
        sota = EvalRequest(workload="cnn_lstm")
        assert full == sota
        assert full.config_label == "BitWave"

    def test_round_trip(self):
        request = EvalRequest(
            workload="bert_base@tokens=64", variant="+DF",
            arch="bitwave-16nm@group=16+sram_pj=0.5",
            options=EvalOptions(batch=2))
        assert EvalRequest.from_dict(request.to_dict()) == request
        # Absent keys take the constructor defaults.
        assert EvalRequest.from_dict({"workload": "cnn_lstm"}) \
            == EvalRequest(workload="cnn_lstm")

    def test_from_dict_refuses_unknown_keys(self):
        # A misspelled axis must not silently evaluate the default:
        # SCNN at the default arch, or BitWave for a bad accelerator.
        for typo in ({"archh": "bitwave-dense-16nm"},
                     {"acclerator": "SCNN"},
                     {"network": "cnn_lstm"}):
            data = {"workload": "cnn_lstm", "accelerator": "SCNN", **typo}
            with pytest.raises(ValueError, match=next(iter(typo))):
                EvalRequest.from_dict(data)

    def test_canonicalization_matches_constructor_defaults(self):
        # The canonicalization is only sound while BitWave() defaults
        # equal the fully-enabled ablation rung.
        from repro.accelerators.bitwave import BREAKDOWN_CONFIGS, BitWave

        bw = BitWave()
        assert BREAKDOWN_CONFIGS["+DF+SM+BF"] == (
            bw.dataflow, bw.columns, bw.bitflip)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown accelerator"):
            EvalRequest(workload="cnn_lstm", accelerator="TPU").validate()
        with pytest.raises(ValueError, match="unknown backend"):
            EvalRequest(workload="cnn_lstm", backend="rtl").validate()
        with pytest.raises(ValueError, match="unknown network"):
            EvalRequest(workload="alexnet").validate()
        with pytest.raises(ValueError, match="BitWave ablations"):
            EvalRequest(workload="cnn_lstm", accelerator="SCNN",
                        variant="Dense").validate()
        with pytest.raises(ValueError, match="unknown BitWave variant"):
            EvalRequest(workload="cnn_lstm", variant="+XX").validate()

    def test_sim_backend_restrictions(self):
        with pytest.raises(ValueError, match="fully-enabled BitWave"):
            EvalRequest(workload="cnn_lstm", accelerator="SCNN",
                        backend="sim-vectorized").validate()
        with pytest.raises(ValueError, match="fully-enabled BitWave"):
            EvalRequest(workload="cnn_lstm", variant="+DF",
                        backend="sim-vectorized").validate()

    def test_bad_options(self):
        for batch in (0, "2", 2.0, True):
            with pytest.raises(ValueError, match="batch"):
                EvalRequest(workload="cnn_lstm",
                            options=EvalOptions(batch=batch)).validate()
        # A mistyped key must not silently evaluate the defaults.
        with pytest.raises(ValueError, match="bacth"):
            EvalOptions.from_dict({"bacth": 4})

    def test_legacy_sim_option_keys_fail_loudly(self):
        """Pre-arch request dicts carrying sim geometry must not
        silently deserialize onto default hardware."""
        with pytest.raises(ValueError, match="arch axis"):
            EvalOptions.from_dict({"batch": 1, "sim_group_size": 16})
        with pytest.raises(ValueError, match="sim_max_contexts"):
            EvalOptions.from_dict({"batch": 1, "sim_max_contexts": 64})

    def test_arch_axis(self):
        base = EvalRequest(workload="cnn_lstm")
        swept = EvalRequest(workload="cnn_lstm",
                            arch="bitwave-16nm@sram_pj=0.5")
        assert swept.key() != base.key()
        # The preset's own values canonicalize away.
        assert EvalRequest(workload="cnn_lstm",
                           arch="bitwave-16nm@group=8") == base
        assert "bitwave-16nm@sram_pj=0.5" in swept.config_label
        with pytest.raises(ValueError, match="unknown arch preset"):
            EvalRequest(workload="cnn_lstm", arch="tpu-v4").validate()
        with pytest.raises(ValueError, match="unknown arch field"):
            EvalRequest(workload="cnn_lstm",
                        arch="bitwave-16nm@foo=1").validate()

    def test_labels(self):
        assert EvalRequest(workload="cnn_lstm").label == "BitWave/cnn_lstm"
        assert EvalRequest(workload="cnn_lstm", accelerator="SCNN").label \
            == "SCNN/cnn_lstm"
        assert EvalRequest(workload="cnn_lstm", variant="+DF").config_label \
            == "BitWave[+DF]"
        assert EvalRequest(workload="cnn_lstm",
                           backend="sim-vectorized").config_label \
            == "BitWave@sim-vectorized"


class TestEvalResult:
    def _result(self) -> EvalResult:
        return EvalResult(
            workload="w", config_label="c", backend="model",
            layers=(
                LayerResult(name="l0", macs=100, cycles=10.0, energy_pj=4.0,
                            energy={"dram": 1.0, "sram": 1.0, "reg": 1.0,
                                    "compute": 1.0},
                            traffic={"dram_elems": 5.0}),
                LayerResult(name="l1", macs=300, cycles=30.0, energy_pj=12.0,
                            energy={"dram": 9.0, "sram": 1.0, "reg": 1.0,
                                    "compute": 1.0},
                            traffic={"dram_elems": 7.0}),
            ))

    def test_totals(self):
        result = self._result()
        assert result.total_macs == 400
        assert result.total_cycles == 40.0
        assert result.total_energy_pj == 16.0
        assert result.traffic_totals() == {"dram_elems": 12.0}

    def test_energy_shares(self):
        shares = self._result().energy_shares()
        assert shares["dram"] == 10.0 / 16.0
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_no_energy_model_means_inf_efficiency(self):
        result = EvalResult(
            workload="w", config_label="c", backend="sim-vectorized",
            layers=(LayerResult(name="l", macs=10, cycles=5.0,
                                energy_pj=0.0),))
        assert result.efficiency_tops_per_w == float("inf")
        assert result.energy_shares()["dram"] == 0.0

    def test_dict_round_trip(self):
        result = self._result()
        assert EvalResult.from_dict(result.to_dict()) == result

    def test_model_layer_detail_matches_asdict(self):
        """The model's per-layer breakdown is the counts' and the
        latency's fields, in field order, as ``asdict`` spells them."""
        from dataclasses import asdict

        from repro.accelerators import build_accelerator
        from repro.eval.backends import model_network_evaluation
        from repro.eval.result import layer_from_evaluation

        evaluation = model_network_evaluation(
            build_accelerator("SCNN"), "cnn_lstm@frames=2+bins=32+hidden=32")
        for layer in evaluation.layers:
            detail = layer_from_evaluation(layer).detail
            for name, record in (("counts", layer.counts),
                                 ("latency", layer.latency)):
                assert list(detail[name].items()) \
                    == list(asdict(record).items())


class TestCanonicalWorkloads:
    """Equivalent workload spellings share one cache key (review fix)."""

    def test_default_params_drop(self):
        from repro.workloads.nets import canonical_network

        assert canonical_network("bert_base@tokens=4") == "bert_base"
        assert canonical_network("bert_base@tokens=64") \
            == "bert_base@tokens=64"

    def test_param_order_canonicalizes(self):
        from repro.workloads.nets import canonical_network

        assert canonical_network("cnn_lstm@hidden=128+frames=4") \
            == canonical_network("cnn_lstm@frames=4+hidden=128")

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            parse_network("bert_base@tokens=4+tokens=8")

    def test_request_keys_unify_spellings(self):
        assert EvalRequest(workload="bert_base@tokens=4").key() \
            == EvalRequest(workload="bert_base").key()
        assert EvalRequest(workload="cnn_lstm@hidden=128+frames=4").key() \
            == EvalRequest(workload="cnn_lstm@frames=4+hidden=128").key()

    def test_bad_workload_still_reported_by_validate(self):
        request = EvalRequest(workload="alexnet")  # construction is lazy
        with pytest.raises(ValueError, match="unknown network"):
            request.validate()
