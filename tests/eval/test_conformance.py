"""Backend-conformance suite: every registered backend over a shared
mini-grid must produce schema-complete, serializable, cacheable
:class:`EvalResult`s -- plus the cross-backend check that the
analytical model and the simulator stay within the established Section
V-B deviation bound (<6%) through the new API, and the check that the
simulator's counters-only lowering counts exactly what both full
datapaths count.
"""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from datapath_reference import ReferenceNPU
from repro.arch import parse_arch
from repro.eval import (
    EvalRequest,
    EvalResult,
    backend_names,
    evaluate,
    get_backend,
)
from repro.eval.lowering import (
    layer_matmul_weights,
    output_rows,
    simulate_layer,
)
from repro.eval.registry import register_backend
from repro.sim.npu import BitWaveNPU, MatmulCounters
from repro.utils.rng import seeded_rng
from repro.workloads.nets import network_layers

#: A parametrized CNN-LSTM small enough for every backend.
MINI_WORKLOAD = "cnn_lstm@frames=4+bins=64+hidden=64"

#: The shared conformance grid: every backend answers these.
MINI_GRID = (MINI_WORKLOAD, "cnn_lstm@frames=2+bins=32+hidden=32")


def _mini_requests(backend: str) -> list[EvalRequest]:
    requests = [EvalRequest(workload=wl, accelerator="BitWave",
                            backend=backend) for wl in MINI_GRID]
    if backend == "model":
        # The model backend also answers other accelerators + variants.
        requests.append(EvalRequest(workload=MINI_WORKLOAD,
                                    accelerator="SCNN"))
        requests.append(EvalRequest(workload=MINI_WORKLOAD,
                                    variant="+DF"))
    return requests


def _datapath_runs(spec, arch, weights):
    """``run_fc`` of ``spec``'s matmul on the simulator and on the
    column-serial oracle over all of its output rows, with real
    activations."""
    acts = seeded_rng("tests", "lowering", spec.name).integers(
        -128, 128, (output_rows(spec), weights.shape[1]))
    return {datapath: npu(arch).run_fc(weights, acts)
            for datapath, npu in (("vectorized", BitWaveNPU),
                                  ("reference", ReferenceNPU))}


class TestBuiltinRegistry:
    def test_two_builtin_backends(self):
        names = backend_names()
        for expected in ("model", "sim-vectorized"):
            assert expected in names
        assert "sim-reference" not in names

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("rtl")

    def test_custom_backend_registration(self):
        class Echo:
            name = "echo-test"

            def evaluate(self, request):
                return EvalResult(workload=request.workload,
                                  config_label="echo", backend=self.name)

        register_backend(Echo())
        try:
            assert "echo-test" in backend_names()
            assert get_backend("echo-test").name == "echo-test"
        finally:
            from repro.eval.registry import _REGISTRY

            _REGISTRY.pop("echo-test", None)


class TestBackendConformance:
    """Every backend must fill the canonical schema completely."""

    @pytest.mark.parametrize("backend",
                             ("model", "sim-vectorized"))
    def test_schema_complete(self, backend, isolated_store):
        for request in _mini_requests(backend):
            result = evaluate(request)
            assert result.backend == backend
            assert result.workload == request.workload
            assert result.layers, "no per-layer breakdown"
            for layer in result.layers:
                assert layer.name
                assert layer.macs > 0
                assert layer.cycles > 0 and math.isfinite(layer.cycles)
                assert layer.energy_pj >= 0.0
                assert layer.traffic, "no traffic counters"
                for value in layer.traffic.values():
                    assert math.isfinite(value)
            assert result.total_macs == sum(l.macs for l in result.layers)
            assert result.total_cycles > 0
            assert result.effective_tops > 0
            # Finite for every backend: the sim prices its counters too.
            assert result.efficiency_tops_per_w > 0
            assert math.isfinite(result.efficiency_tops_per_w)

    @pytest.mark.parametrize("backend",
                             ("model", "sim-vectorized"))
    def test_json_round_trip_is_exact(self, backend, isolated_store):
        import json

        request = EvalRequest(workload=MINI_WORKLOAD, backend=backend)
        result = evaluate(request)
        wire = json.loads(json.dumps(result.to_dict()))
        assert EvalResult.from_dict(wire) == result

    @pytest.mark.parametrize("backend",
                             ("model", "sim-vectorized"))
    def test_store_cache_round_trip(self, backend, isolated_store):
        from repro.eval import api

        request = EvalRequest(workload=MINI_WORKLOAD, backend=backend)
        first = evaluate(request)
        # Same process: memo identity.
        assert evaluate(request) is first
        # Fresh process (simulated): store round-trip equality.
        api.reset_cache()
        reloaded = evaluate(request)
        assert reloaded is not first
        assert reloaded == first

    def test_sim_backends_agree_bit_exactly(self, isolated_store):
        """The counters-only evaluation and both full datapaths are one
        structural machine: identical counters on every layer."""
        arch = parse_arch("bitwave-16nm")
        result = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                      backend="sim-vectorized"))
        specs = network_layers(MINI_WORKLOAD)
        assert [layer.name for layer in result.layers] \
            == [spec.name for spec in specs]
        for layer, spec in zip(result.layers, specs):
            weights = layer_matmul_weights(spec)
            for datapath, run in _datapath_runs(spec, arch, weights).items():
                where = (spec.name, datapath)
                assert layer.cycles == run.total_cycles, where
                assert layer.detail["compute_cycles"] \
                    == run.compute_cycles, where
                assert layer.detail["fetch_cycles"] == run.fetch_cycles, where
                assert layer.detail["column_ops"] == run.column_ops, where
                assert layer.traffic == {
                    "weight_bits_fetched": run.weight_bits_fetched,
                    "dense_weight_bits": run.dense_weight_bits,
                    "act_words_fetched": run.outputs.shape[0]
                    * weights.shape[1],
                }, where

    def test_model_energy_is_componentwise(self, isolated_store):
        result = evaluate(EvalRequest(workload=MINI_WORKLOAD))
        shares = result.energy_shares()
        assert set(shares) == {"dram", "sram", "reg", "compute"}
        assert sum(shares.values()) == pytest.approx(1.0)


class TestCrossBackendDeviation:
    """The established Section V-B bound, through the new API: every
    simulated layer's matched analytical compute-cycle prediction stays
    within <6% of the structural simulator (the suite scope: FC, conv
    and pointwise layers at realistic sizes -- the bound was never
    established for depthwise or tiny-K layers)."""

    @pytest.mark.parametrize("workload", ("cnn_lstm", "resnet18"))
    def test_model_vs_sim_vectorized_within_bound(
            self, workload, isolated_store):
        result = evaluate(EvalRequest(workload=workload,
                                      backend="sim-vectorized"))
        for layer in result.layers:
            assert layer.detail["model_deviation"] < 0.06, layer.name

    def test_context_rescale_is_exact(self):
        """Whole-network sim evaluation counts one ``OXu`` context block
        from the weights and rescales it to every output context; the
        full datapaths run every row with real activations.  For every
        layer, ``simulate_layer`` must report exactly the counters
        ``run_fc`` reports on both datapaths.  40 frames span several
        context blocks at every arch below, so the rescale actually
        multiplies."""
        workload = "cnn_lstm@frames=40+bins=32+hidden=32"
        counters = [field.name for field in fields(MatmulCounters)]
        for label in ("bitwave-16nm", "bitwave-16nm@group=16",
                      "bitwave-dense-16nm", "bitwave-16nm@ku=64+oxu=8"):
            arch = parse_arch(label)
            for spec in network_layers(workload):
                weights = layer_matmul_weights(spec)
                lowered = simulate_layer(spec, BitWaveNPU(arch=arch),
                                         weights=weights)
                assert lowered.total_rows == output_rows(spec)
                assert lowered.total_rows > 2 * arch.oxu
                runs = _datapath_runs(spec, arch, weights)
                for datapath, run in runs.items():
                    for name in counters:
                        assert getattr(lowered, name) == getattr(run, name), \
                            (label, spec.name, datapath, name)


class TestExplicitStore:
    """evaluate(store=...) must really consult the given store."""

    def test_explicit_store_bypasses_memo(self, isolated_store, tmp_path):
        from repro.dse.store import ResultStore

        request = EvalRequest(workload=MINI_WORKLOAD)
        evaluate(request)  # warms the default store + memo

        mine = ResultStore(tmp_path / "mine")
        result = evaluate(request, store=mine)
        assert request.key() in mine  # written despite the warm memo
        assert result == evaluate(request)
