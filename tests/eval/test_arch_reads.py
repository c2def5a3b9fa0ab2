"""Request keys hold only the arch fields an evaluation reads.

Every backend declares, per configuration, the arch override names its
evaluation can read (``EvalBackend.arch_reads``), and
:class:`EvalRequest` keeps only those in its canonical arch.  Two
oracles hold the declarations to the code, in both directions:

- *conformance*: one non-default value per override field, evaluated
  with the field actually applied, on a conv + fc network and a
  depthwise one at two presets.  A field outside the declared set
  leaves ``to_dict()`` byte-identical; a declared field changes it for
  at least one tested (network, preset, value).
- *read recording*: the ``ArchSpec``, ``TechSpec`` and ``Technology``
  fields each (backend, configuration) touches during ``evaluate``,
  mapped to grammar names through the ``OVERRIDE_FIELDS`` targets,
  stay within the declared set.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import fields

import pytest

from repro.accelerators import SOTA_ACCELERATORS, config_arch_reads
from repro.arch import OVERRIDE_FIELDS, ArchSpec, TechSpec, parse_arch
from repro.dse.spec import CampaignSpec
from repro.eval import EvalRequest, get_backend
from repro.eval import backends as backends_module
from repro.eval import lowering
from repro.model.technology import Technology

#: A conv + fc network and a depthwise one (bert_base's profile is too
#: slow for a unit test).
NETWORKS = ("cnn_lstm@frames=4+bins=64+hidden=64", "mobilenetv2")

#: Presets the overrides apply to: the sparse SM point and the dense one.
BASES = ("bitwave-16nm", "bitwave-dense-16nm")

#: Two candidate values per override field; a base uses the first one
#: that differs from its own.  Widths and capacities are small, so the
#: memory terms bind.
VALUES: dict[str, tuple[object, object]] = {
    "group": (16, 32),
    "ku": (64, 128),
    "oxu": (8, 4),
    "weight_bw": (64, 512),
    "act_bw": (64, 1024),
    "sram_w": (64, 128),
    "sram_a": (64, 128),
    "sram_kb": (16, 32),
    "n_bce": (256, 1024),
    "columns": ("dense", "sm"),
    "dense_precision": (4, 2),
    "clock_mhz": (500, 125),
    "dram_pj": (30, 120),
    "sram_pj": (0.5, 2),
    "reg_pj": (0.06, 0.015),
    "mac_pj": (0.1, 0.05),
    "serial_pj": (0.05, 0.01),
    "bce_pj": (0.01, 0.02),
    "dram_bits": (64, 128),
    "sram_bits": (64, 128),
}

#: Every (backend, accelerator, variant) configuration.
CONFIGS = (
    [("model", name, None) for name in SOTA_ACCELERATORS]
    + [("model", "BitWave", variant) for variant in ("Dense", "+DF", "+DF+SM")]
    + [("sim-vectorized", "BitWave", None)]
)


def _config_id(config: tuple[str, str, str | None]) -> str:
    backend, accelerator, variant = config
    return f"{backend}:{accelerator}" + (f"[{variant}]" if variant else "")


def _override(base: str, name: str) -> str:
    """``base`` with one non-default value of ``name`` applied."""
    for value in VALUES[name]:
        spelled = f"{base}@{name}={value}"
        if parse_arch(spelled) != parse_arch(base):
            return spelled
    raise AssertionError(f"no non-default {name} value for {base}")


@pytest.fixture(scope="module")
def cached_weights():
    """Draw each simulated layer's weights once for the whole module.

    The simulator redraws a layer's synthetic weights on every
    evaluation; these tests evaluate each layer at dozens of archs, and
    the weights never depend on the arch.
    """
    cache: dict = {}
    real = lowering.layer_matmul_weights

    def cached(spec):
        if spec not in cache:
            cache[spec] = real(spec)
            cache[spec].flags.writeable = False
        return cache[spec]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lowering, "layer_matmul_weights", cached)
        yield


def _evaluate_spelled(config, workload: str, arch: str) -> str:
    """The backend's result at exactly ``arch``, as canonical JSON
    without ``config_label`` (which spells the arch)."""
    backend, accelerator, variant = config
    request = EvalRequest(workload=workload, accelerator=accelerator,
                          variant=variant, backend=backend)
    # Pin the spelling itself: the request would drop what it cannot
    # read, and that drop is what this module tests.
    object.__setattr__(request, "arch", arch)
    payload = get_backend(backend).evaluate(request).to_dict()
    del payload["config_label"]
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_declared_reads_are_exactly_the_fields_that_move_results(
        config, cached_weights):
    backend, accelerator, variant = config
    declared = get_backend(backend).arch_reads(accelerator, variant)
    baseline = {(network, base): _evaluate_spelled(config, network, base)
                for network in NETWORKS for base in BASES}
    silent = []
    for name in OVERRIDE_FIELDS:
        cases = [(network, base) for network in NETWORKS for base in BASES]
        if name in declared:
            if not any(_evaluate_spelled(config, network,
                                         _override(base, name))
                       != baseline[network, base]
                       for network, base in cases):
                silent.append(name)
        else:
            for network, base in cases:
                spelled = _override(base, name)
                assert _evaluate_spelled(config, network, spelled) \
                    == baseline[network, base], \
                    f"{name} is not declared but moves {network} at {spelled}"
    assert not silent, f"declared but never move a result: {silent}"


class _Recorder:
    """Field reads of the recording specs, by grammar target."""

    def __init__(self) -> None:
        self.targets: set[str] = set()
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        self.paused, was = True, self.paused
        try:
            yield
        finally:
            self.paused = was


def _recording_type(cls: type, prefix: str, recorder: _Recorder) -> type:
    """A subclass of the dataclass ``cls`` that records each read of a
    field as ``prefix + name``."""
    names = frozenset(field.name for field in fields(cls))

    class Recording(cls):
        def __getattribute__(self, name):
            if name in names and not recorder.paused:
                recorder.targets.add(prefix + name)
            return object.__getattribute__(self, name)

    return Recording


def _recording_arch(spec: ArchSpec, recorder: _Recorder) -> ArchSpec:
    """``spec`` rebuilt from recording types.

    ``technology()`` converts every tech field, read or not, so the
    conversion goes unrecorded and the ``Technology`` it returns
    records the fields the pricing code actually uses.
    """
    recording_technology = _recording_type(Technology, "tech.", recorder)

    class RecordingTech(_recording_type(TechSpec, "tech.", recorder)):
        def technology(self):
            with recorder.pause():
                plain = TechSpec.technology(self)
                values = {field.name: getattr(plain, field.name)
                          for field in fields(Technology)}
            return recording_technology(**values)

    recording_spec = _recording_type(ArchSpec, "", recorder)
    with recorder.pause():
        tech = RecordingTech(**spec.tech.to_dict())
        values = {field.name: getattr(spec, field.name)
                  for field in fields(ArchSpec) if field.name != "tech"}
        return recording_spec(**values, tech=tech)


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_every_arch_read_during_evaluate_is_declared(
        config, cached_weights, monkeypatch):
    backend, accelerator, variant = config
    names = {override.target: name
             for name, override in OVERRIDE_FIELDS.items()}
    recorder = _Recorder()
    real_parse = backends_module.parse_arch
    monkeypatch.setattr(
        backends_module, "parse_arch",
        lambda spelling: _recording_arch(real_parse(spelling), recorder))
    for network in NETWORKS:
        for base in BASES:
            _evaluate_spelled(config, network, base)
    read = {names[target] for target in recorder.targets if target in names}
    # Every backend prices its result's clock: the recorder works.
    assert "clock_mhz" in read
    declared = get_backend(backend).arch_reads(accelerator, variant)
    assert read <= declared, f"read but not declared: {read - declared}"


def test_declared_names_are_grammar_names():
    for config in CONFIGS:
        backend, accelerator, variant = config
        assert get_backend(backend).arch_reads(accelerator, variant) \
            <= set(OVERRIDE_FIELDS), _config_id(config)


def test_unknown_configurations_have_no_read_set():
    with pytest.raises(ValueError, match="unknown accelerator"):
        config_arch_reads("TPU")
    with pytest.raises(ValueError, match="unknown BitWave variant"):
        config_arch_reads("BitWave", "+XX")
    with pytest.raises(ValueError, match="BitWave ablations"):
        config_arch_reads("SCNN", "+DF")


class TestCanonicalKeys:
    def test_unreadable_overrides_drop_from_the_key(self):
        plain = EvalRequest(workload="cnn_lstm", accelerator="SCNN",
                            arch="bitwave-16nm@dram_pj=30")
        spelled = EvalRequest(workload="cnn_lstm", accelerator="SCNN",
                              arch="bitwave-16nm@group=16+dram_pj=30+ku=64")
        assert spelled == plain
        assert spelled.key() == plain.key()
        assert spelled.arch == "bitwave-16nm@dram_pj=30.0"
        assert spelled.label == plain.label

    def test_read_overrides_stay(self):
        sim = EvalRequest(workload="cnn_lstm", backend="sim-vectorized",
                          arch="bitwave-16nm@group=16+n_bce=256")
        assert sim.arch == "bitwave-16nm@group=16"
        full = EvalRequest(workload="cnn_lstm",
                           arch="bitwave-16nm@columns=dense+sram_bits=64")
        assert full.arch == "bitwave-16nm@columns=dense"
        # A rung fixes its column mode but reads a dense precision.
        rung = EvalRequest(workload="cnn_lstm", variant="+DF",
                           arch="bitwave-16nm@columns=dense"
                                "+dense_precision=4")
        assert rung.arch == "bitwave-16nm@dense_precision=4"
        sm_rung = EvalRequest(workload="cnn_lstm", variant="+DF+SM",
                              arch="bitwave-16nm@dense_precision=4")
        assert sm_rung.arch == "bitwave-16nm"

    def test_invalid_requests_keep_their_arch_verbatim(self):
        unknown = EvalRequest(workload="cnn_lstm", accelerator="TPU",
                              arch="bitwave-16nm@group=16")
        assert unknown.arch == "bitwave-16nm@group=16"
        with pytest.raises(ValueError, match="unknown accelerator"):
            unknown.validate()
        # A bad value of an unread field is still an error.
        bad = EvalRequest(workload="cnn_lstm", accelerator="SCNN",
                          arch="bitwave-16nm@ku=12")
        assert bad.arch == "bitwave-16nm@ku=12"
        with pytest.raises(ValueError, match="ku"):
            bad.validate()

    def test_register_arch_clears_the_memo(self):
        from repro.arch import ARCH_PRESETS, PRESET_DESCRIPTIONS, register_arch
        from repro.arch.presets import _parse_spelling, canonical_arch

        name = "scratch-reads-test"
        try:
            register_arch(name, ArchSpec())
            spelled = f"{name}@group=16"
            assert EvalRequest(workload="cnn_lstm", backend="sim-vectorized",
                               arch=spelled).arch == spelled
            register_arch(name, ArchSpec(group_size=16))
            assert EvalRequest(workload="cnn_lstm", backend="sim-vectorized",
                               arch=spelled).arch == name  # now a no-op
        finally:
            ARCH_PRESETS.pop(name, None)
            PRESET_DESCRIPTIONS.pop(name, None)
            _parse_spelling.cache_clear()
            canonical_arch.cache_clear()


class TestPointAxes:
    """A campaign's points are requests, so every axis is canonical and
    spellings of one evaluation expand to one point."""

    @staticmethod
    def _points(**axes):
        return CampaignSpec(name="axes", **axes).points()

    def test_network_spelling_canonicalizes(self):
        (point,) = self._points(accelerators=("BitWave",),
                                networks=("bert_base@tokens=4",))
        assert point.workload == "bert_base"
        assert point.label == "BitWave/bert_base"
        assert point == EvalRequest("bert_base")

    def test_unreadable_overrides_leave_the_point(self):
        (point,) = self._points(
            accelerators=("SCNN",), networks=("cnn_lstm",),
            archs=("bitwave-16nm@group=16+sram_pj=0.5",
                   "bitwave-16nm@sram_pj=0.5"))
        assert point.arch == "bitwave-16nm@sram_pj=0.5"
        assert point.to_dict()["arch"] == "bitwave-16nm@sram_pj=0.5"
        (sim,) = self._points(
            accelerators=("BitWave",), networks=("cnn_lstm",),
            backends=("sim-vectorized",),
            archs=("bitwave-16nm@group=16+sram_w=512",))
        assert sim.arch == "bitwave-16nm@group=16"

    def test_full_rung_is_the_comparison_build(self):
        (point,) = self._points(accelerators=("BitWave",),
                                networks=("cnn_lstm",),
                                variants=("+DF+SM+BF",))
        assert point == EvalRequest("cnn_lstm")
