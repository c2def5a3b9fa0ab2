"""Sim-energy epilog and the arch evaluation axis, end to end.

The acceptance bar: ``evaluate()`` with ``backend="sim-vectorized"``
returns non-``None`` ``energy_pj`` and ``efficiency_tops_per_w`` that
agree with the matched analytical-model prediction within the same <6%
deviation bound established for cycles, and an ``--archs``-swept DSE
campaign persists distinctly-hashed records per arch override.
"""

from __future__ import annotations

import json
import math

import pytest

from datapath_reference import ReferenceNPU
from repro.arch import parse_arch
from repro.eval import EvalRequest, evaluate
from repro.eval.lowering import layer_matmul_weights, output_rows
from repro.sim.npu import BitWaveNPU
from repro.utils.rng import seeded_rng
from repro.workloads.nets import network_layers

#: A parametrized CNN-LSTM small enough for both datapaths.
MINI_WORKLOAD = "cnn_lstm@frames=4+bins=64+hidden=64"

#: The paper's Section V-B bound (<6% vs RTL), reused for energy.
DEVIATION_BOUND = 0.06


class TestSimEnergyPriced:
    def test_energy_fields_populated(self, isolated_store):
        result = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                      backend="sim-vectorized"))
        assert result.models_energy
        assert result.total_energy_pj > 0
        assert math.isfinite(result.efficiency_tops_per_w)
        assert result.efficiency_tops_per_w > 0
        for layer in result.layers:
            assert layer.energy_pj > 0
            assert set(layer.energy) == {"dram", "sram", "reg", "compute"}
            assert layer.energy_pj == pytest.approx(
                sum(layer.energy.values()))

    def test_datapaths_price_identically(self, isolated_store):
        """Both datapaths are one structural machine: identical counters
        mean identical priced energy.  The counters-only evaluation
        prices the on-chip components (SRAM, register, compute) from the
        same counters, so it matches either datapath exactly there; only
        DRAM differs, by the evaluation's fusion rules."""
        arch = parse_arch("bitwave-16nm")
        result = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                      backend="sim-vectorized"))
        for layer, spec in zip(result.layers, network_layers(MINI_WORKLOAD)):
            weights = layer_matmul_weights(spec)
            acts = seeded_rng("tests", "energy", spec.name).integers(
                -128, 128, (output_rows(spec), weights.shape[1]))
            vec = BitWaveNPU(arch).run_fc(weights, acts).energy
            ref = ReferenceNPU(arch).run_fc(weights, acts).energy
            assert vec == ref, spec.name
            for component in ("sram", "reg", "compute"):
                assert layer.energy[component] \
                    == vec.components()[component], (spec.name, component)


class TestEnergyDeviationBound:
    """Sim-priced energy vs the matched analytical eq. (4) prediction."""

    @pytest.mark.parametrize("workload", ("cnn_lstm", "resnet18"))
    def test_per_layer_energy_within_bound(self, workload, isolated_store):
        result = evaluate(EvalRequest(workload=workload,
                                      backend="sim-vectorized"))
        for layer in result.layers:
            assert layer.detail["energy_deviation"] < DEVIATION_BOUND, \
                layer.name

    @pytest.mark.parametrize("workload", ("cnn_lstm", "resnet18"))
    def test_efficiency_within_bound(self, workload, isolated_store):
        """TOPS/W from the sim epilog vs TOPS/W from the matched
        analytic energies, network-level."""
        result = evaluate(EvalRequest(workload=workload,
                                      backend="sim-vectorized"))
        analytic_total = sum(layer.detail["analytic_energy_pj"]
                             for layer in result.layers)
        analytic_eff = 2.0 * result.total_macs / (analytic_total * 1e-12) \
            / 1e12
        deviation = abs(result.efficiency_tops_per_w - analytic_eff) \
            / result.efficiency_tops_per_w
        assert deviation < DEVIATION_BOUND

    def test_tech_override_moves_sim_energy(self, isolated_store):
        base = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                    backend="sim-vectorized"))
        cheap = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                     backend="sim-vectorized",
                                     arch="bitwave-16nm@dram_pj=6"))
        assert cheap.total_energy_pj < base.total_energy_pj
        # Cycles are untouched by a pure unit-energy override.
        assert cheap.total_cycles == base.total_cycles

    def test_sram_capacity_moves_both_backends(self, isolated_store):
        """The sram_kb axis reaches the analytical mapper's fusion
        thresholds AND the sim epilog -- one spec moves both backends."""
        for backend in ("model", "sim-vectorized"):
            base = evaluate(EvalRequest(workload="resnet18",
                                        backend=backend))
            small = evaluate(EvalRequest(workload="resnet18",
                                         backend=backend,
                                         arch="bitwave-16nm@sram_kb=64"))
            assert small.total_energy_pj > base.total_energy_pj, backend

    def test_clock_override_consistent_across_entry_points(
            self, isolated_store):
        """The legacy NetworkEvaluation path and repro.eval agree on
        clock-derived metrics for a clock-overridden arch."""
        from repro.accelerators.bitwave import BitWave
        from repro.arch import parse_arch
        from repro.eval.backends import model_network_evaluation

        arch = "bitwave-16nm@clock_mhz=500"
        legacy = model_network_evaluation(
            BitWave(arch=parse_arch(arch)), MINI_WORKLOAD)
        result = evaluate(EvalRequest(workload=MINI_WORKLOAD, arch=arch))
        assert result.runtime_s == result.total_cycles / 500e6
        assert legacy.effective_tops == result.effective_tops

    def test_clock_survives_legacy_record_round_trip(self, isolated_store):
        """A legacy evaluation's non-default clock survives its store
        record's JSON round trip (from_network_evaluation defaults to
        the evaluation's own clock)."""
        from repro.accelerators.bitwave import BitWave
        from repro.arch import parse_arch
        from repro.eval.backends import model_network_evaluation
        from repro.eval.result import EvalResult, from_network_evaluation

        legacy = model_network_evaluation(
            BitWave(arch=parse_arch("bitwave-16nm@clock_mhz=500")),
            MINI_WORKLOAD)
        restored = EvalResult.from_dict(json.loads(json.dumps(
            from_network_evaluation(legacy).to_dict())))
        assert restored.clock_hz == 500e6
        assert restored.effective_tops == legacy.effective_tops


class TestArchAxisCaching:
    def test_overridden_arch_never_collides_with_default(self, isolated_store):
        base = EvalRequest(workload=MINI_WORKLOAD, backend="sim-vectorized")
        swept = EvalRequest(workload=MINI_WORKLOAD, backend="sim-vectorized",
                            arch="bitwave-16nm@group=16")
        assert base.key() != swept.key()
        a = evaluate(base)
        b = evaluate(swept)
        # G=16 streams different column groups: different counters.
        assert a.total_cycles != b.total_cycles

    def test_archs_swept_campaign_persists_distinct_records(self, tmp_path):
        """An --archs-swept campaign lands one distinctly-hashed record
        per arch override, on both backends."""
        from repro.dse.executor import run_campaign
        from repro.dse.spec import CampaignSpec
        from repro.dse.store import ResultStore

        spec = CampaignSpec(
            name="tech-sense",
            accelerators=("BitWave",),
            networks=(MINI_WORKLOAD,),
            backends=("model", "sim-vectorized"),
            archs=("bitwave-16nm", "bitwave-16nm@sram_pj=0.5",
                   "bitwave-16nm@group=16+dram_pj=30"),
        )
        points = spec.points()
        assert len(points) == 6  # 3 archs x 2 backends
        assert len({p.key() for p in points}) == 6

        store = ResultStore(tmp_path)
        run = run_campaign(spec, store)
        assert (run.total, run.evaluated) == (6, 6)
        for point in points:
            stored = store.result(point.key())
            assert stored is not None
            assert stored.models_energy  # both backends price energy
        # Resume is fully cached -- records really landed per-arch.
        resumed = run_campaign(spec, ResultStore(tmp_path))
        assert (resumed.cached, resumed.evaluated) == (6, 0)

    def test_duplicate_arch_spellings_rejected(self):
        from repro.dse.spec import CampaignSpec

        spec = CampaignSpec(
            name="dupes",
            accelerators=("BitWave",),
            networks=(MINI_WORKLOAD,),
            archs=("bitwave-16nm", "bitwave-16nm@group=8"),
        )
        with pytest.raises(ValueError, match="duplicate arch"):
            spec.validate()


class TestNpuArchConstruction:
    def test_dense_columns_mode_engages_zcip_dense_schedule(
            self, isolated_store):
        """An arch with columns="dense" really simulates dense mode
        (and the matched analytic halves model it): the datapath
        streams the configured precision, not sparsity-skipped SM
        columns."""
        from repro.arch import parse_arch
        from repro.sim.npu import BitWaveNPU

        npu = BitWaveNPU(arch=parse_arch(
            "bitwave-16nm@columns=dense+dense_precision=4"))
        assert npu.parser.dense_mode
        assert npu.parser.dense_precision == 4

        dense = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                     backend="sim-vectorized",
                                     arch="bitwave-16nm@columns=dense"))
        sm = evaluate(EvalRequest(workload=MINI_WORKLOAD,
                                  backend="sim-vectorized"))
        assert dense.total_cycles != sm.total_cycles
        for layer in dense.layers:
            assert layer.detail["model_deviation"] < DEVIATION_BOUND
            assert layer.detail["energy_deviation"] < DEVIATION_BOUND

    def test_model_bitwave_defaults_from_dense_arch(self):
        """The model side follows the spec's columns mode: a dense
        arch builds a dense-columns, no-bitflip BitWave."""
        from repro.accelerators import build_accelerator
        from repro.arch import parse_arch

        acc = build_accelerator("BitWave", parse_arch("bitwave-dense-16nm"))
        assert acc.columns == "dense"
        assert acc.bitflip is False

    def test_legacy_positional_technology_errors_clearly(self):
        from repro.accelerators.scnn import SCNN
        from repro.model.technology import TECH_16NM

        with pytest.raises(TypeError, match="tech= keyword"):
            SCNN(TECH_16NM)

    @pytest.mark.parametrize("label", (
        "bitwave-dense-16nm",
        "bitwave-16nm@columns=dense+dense_precision=4"))
    def test_npu_reports_the_arch_it_runs(self, label):
        """The spec is the machine: what the NPU reports is what its
        parser and fetcher run."""
        arch = parse_arch(label)
        npu = BitWaveNPU(arch=arch)
        assert npu.arch == arch
        assert npu.parser.dense_precision == arch.dense_precision
        assert npu.fetcher.weight_bw_bits == arch.weight_bw_bits

    def test_arch_configures_geometry_and_tech(self):
        from repro.arch import parse_arch
        from repro.sim.npu import BitWaveNPU

        arch = parse_arch("bitwave-16nm@group=16+oxu=8+sram_pj=0.5")
        npu = BitWaveNPU(arch=arch)
        assert (npu.group_size, npu.oxu) == (16, 8)
        assert npu.tech.sram_pj_per_element == 0.5

    def test_run_carries_energy(self):
        import numpy as np

        from repro.sim.npu import BitWaveNPU

        rng = np.random.default_rng(7)
        w = rng.integers(-8, 8, (16, 32)).astype(np.int8)
        a = rng.integers(-8, 8, (4, 32)).astype(np.int32)
        run = BitWaveNPU().run_fc(w, a)
        assert run.energy is not None
        assert run.energy_pj == pytest.approx(run.energy.total_pj)
        assert run.energy.total_pj > 0
