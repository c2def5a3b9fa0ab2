"""Golden-equivalence suite: the default preset IS the old hard-coded
hardware description.

``tests/arch/golden/harness_outputs.json`` captures the Fig. 13-18 and
Table IV harness outputs from the commit *before* the ``repro.arch``
refactor (module-level constants, class-attribute widths, loose NPU
kwargs).  Every ``run()`` under the default ``bitwave-16nm`` preset
must reproduce them bit-identically -- JSON round-trips floats by
shortest-repr, so ``==`` over the decoded tree is an exact comparison.

Regenerate deliberately (only when the *model* changes, never for a
pure refactor) with::

    PYTHONPATH=src python -c "
    import json
    from repro.experiments import (fig13_breakdown, fig14_speedup,
        fig15_energy, fig16_energy_breakdown, fig17_efficiency,
        fig18_area_power, tab4_pe_types)
    json.dump({'fig13': fig13_breakdown.run(), 'fig14': fig14_speedup.run(),
               'fig15': fig15_energy.run(), 'fig16': fig16_energy_breakdown.run(),
               'fig17': fig17_efficiency.run(), 'fig18': fig18_area_power.run(),
               'tab4': tab4_pe_types.run()},
              open('tests/arch/golden/harness_outputs.json', 'w'),
              indent=2, sort_keys=True)"

``tests/arch/golden/stats_outputs.json`` pins the three harnesses that
read the bit-column statistics directly (Figs. 1, 4 and 5), captured
from the plane-unpacking implementation before the index-byte kernel
replaced it.  Regenerate it the same way, only when the statistics are
meant to change::

    PYTHONPATH=src python -c "
    import json
    from repro.experiments import (fig01_sparsity, fig04_bcs_2c_vs_sm,
        fig05_compression)
    json.dump({'fig01': fig01_sparsity.run(), 'fig04': fig04_bcs_2c_vs_sm.run(),
               'fig05': fig05_compression.run()},
              open('tests/arch/golden/stats_outputs.json', 'w'),
              indent=2, sort_keys=True)"

``tests/arch/golden/sim_outputs.json`` pins the ``sim-vectorized``
backend per layer -- cycles, the four energy components, traffic and
the compute/fetch/column-op counters -- for cnn_lstm, mobilenetv2 and
resnet18 at three archs, captured from the lowering that simulated 64
activation rows per layer and rescaled them, before the counters-only
lowering replaced it.  Regenerate it, only when the simulator is meant
to change, by dumping ``{arch: {network: sim_golden(arch, network)}}``
over ``SIM_GOLDEN_ARCHS`` x ``SIM_GOLDEN_NETWORKS`` as JSON; the test
compares decoded trees, so any layout passes (the committed file keeps
one layer per line).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "harness_outputs.json"
STATS_GOLDEN_PATH = Path(__file__).parent / "golden" / "stats_outputs.json"
SIM_GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_outputs.json"
SIM_GOLDEN_ARCHS = ("bitwave-16nm", "bitwave-16nm@group=16",
                    "bitwave-dense-16nm")
SIM_GOLDEN_NETWORKS = ("cnn_lstm", "mobilenetv2", "resnet18")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def isolated_store(tmp_path_factory):
    """Module-scoped store isolation: the Fig. 13-17 harnesses share one
    evaluation grid, so one warm store serves every golden test."""
    import os

    from repro.eval import api

    old = os.environ.get("REPRO_DSE_STORE")
    os.environ["REPRO_DSE_STORE"] = str(tmp_path_factory.mktemp("golden"))
    api.reset_cache()
    yield
    if old is None:
        os.environ.pop("REPRO_DSE_STORE", None)
    else:
        os.environ["REPRO_DSE_STORE"] = old
    api.reset_cache()


def _canonical(tree):
    """Round-trip through JSON so both sides use identical encodings."""
    return json.loads(json.dumps(tree, sort_keys=True))


class TestGoldenEquivalence:
    """Fig. 13-17 grids under the default preset, bit-identical."""

    def test_fig13_breakdown(self, golden, isolated_store):
        from repro.experiments import fig13_breakdown

        assert _canonical(fig13_breakdown.run()) == golden["fig13"]

    def test_fig14_speedup(self, golden, isolated_store):
        from repro.experiments import fig14_speedup

        assert _canonical(fig14_speedup.run()) == golden["fig14"]

    def test_fig15_energy(self, golden, isolated_store):
        from repro.experiments import fig15_energy

        assert _canonical(fig15_energy.run()) == golden["fig15"]

    def test_fig16_energy_breakdown(self, golden, isolated_store):
        from repro.experiments import fig16_energy_breakdown

        assert _canonical(fig16_energy_breakdown.run()) == golden["fig16"]

    def test_fig17_efficiency(self, golden, isolated_store):
        from repro.experiments import fig17_efficiency

        assert _canonical(fig17_efficiency.run()) == golden["fig17"]


class TestGoldenAreaPower:
    """Fig. 18 / Table IV through the ArchSpec accessors, bit-identical."""

    def test_fig18_area_power(self, golden):
        from repro.experiments import fig18_area_power

        assert _canonical(fig18_area_power.run()) == golden["fig18"]

    def test_tab4_pe_types(self, golden):
        from repro.experiments import tab4_pe_types

        assert _canonical(tab4_pe_types.run()) == golden["tab4"]


class TestGoldenStatistics:
    """Figs. 1, 4 and 5 from the bit-column statistics, bit-identical."""

    @pytest.fixture(scope="class")
    def stats_golden(self):
        return json.loads(STATS_GOLDEN_PATH.read_text())

    def test_fig01_sparsity(self, stats_golden):
        from repro.experiments import fig01_sparsity

        assert _canonical(fig01_sparsity.run()) == stats_golden["fig01"]

    def test_fig04_bcs_2c_vs_sm(self, stats_golden):
        from repro.experiments import fig04_bcs_2c_vs_sm

        assert _canonical(fig04_bcs_2c_vs_sm.run()) == stats_golden["fig04"]

    def test_fig05_compression(self, stats_golden):
        from repro.experiments import fig05_compression

        assert _canonical(fig05_compression.run()) == stats_golden["fig05"]


def sim_golden(arch: str, network: str) -> dict:
    """The pinned fields of one sim-backed evaluation, per layer."""
    from repro.eval import EvalRequest, get_backend

    result = get_backend("sim-vectorized").evaluate(EvalRequest(
        workload=network, backend="sim-vectorized", arch=arch))
    return {
        layer.name: {
            "cycles": layer.cycles,
            "energy": layer.energy,
            "traffic": layer.traffic,
            **{name: layer.detail[name] for name in
               ("compute_cycles", "fetch_cycles", "column_ops")},
        }
        for layer in result.layers
    }


class TestGoldenSim:
    """The simulator backend's per-layer outputs, bit-identical."""

    @pytest.fixture(scope="class")
    def sim_golden_tree(self):
        return json.loads(SIM_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("arch", SIM_GOLDEN_ARCHS)
    @pytest.mark.parametrize("network", SIM_GOLDEN_NETWORKS)
    def test_sim_backend(self, sim_golden_tree, arch, network):
        assert _canonical(sim_golden(arch, network)) \
            == sim_golden_tree[arch][network]
