"""The ``@field=value`` override grammar: parse, canonicalize, errors."""

from __future__ import annotations

import pytest

from repro.arch import (
    ARCH_PRESETS,
    DEFAULT_ARCH,
    PRESET_DESCRIPTIONS,
    arch_overrides,
    canonical_arch,
    default_arch,
    parse_arch,
    register_arch,
)
from repro.arch import presets


class TestParseArch:
    def test_bare_preset(self):
        assert parse_arch("bitwave-16nm") == default_arch()

    def test_spec_passthrough(self):
        spec = default_arch()
        assert parse_arch(spec) is spec

    def test_issue_grammar_example(self):
        spec = parse_arch("bitwave-16nm@sram_pj=0.5+group=16")
        assert spec.group_size == 16
        assert spec.tech.sram_pj_per_element == 0.5
        # Untouched fields keep the preset's values.
        assert spec.ku == default_arch().ku
        assert spec.tech.dram_pj_per_element == \
            default_arch().tech.dram_pj_per_element

    def test_scaled_field(self):
        assert parse_arch(
            "bitwave-16nm@clock_mhz=500").tech.clock_frequency_hz == 500e6

    def test_geometry_fields(self):
        spec = parse_arch("bitwave-16nm@ku=64+oxu=8+weight_bw=512")
        assert (spec.ku, spec.oxu, spec.weight_bw_bits) == (64, 8, 512)

    def test_overrides_revalidate(self):
        with pytest.raises(ValueError, match="8-kernel weight-segment"):
            parse_arch("bitwave-16nm@ku=12")

    def test_dense_preset(self):
        spec = parse_arch("bitwave-dense-16nm")
        assert (spec.group_size, spec.ku) == (64, 64)


class TestArchOverrides:
    def test_split(self):
        base, overrides = arch_overrides("bitwave-16nm@group=16+dram_pj=30")
        assert base == "bitwave-16nm"
        assert overrides == {"group": 16, "dram_pj": 30.0}

    def test_int_fields_reject_floats(self):
        with pytest.raises(ValueError, match="must be an integer"):
            arch_overrides("bitwave-16nm@group=8.5")


class TestCanonicalArch:
    def test_bare_is_canonical(self):
        assert canonical_arch(DEFAULT_ARCH) == DEFAULT_ARCH

    def test_noop_override_dropped(self):
        assert canonical_arch("bitwave-16nm@group=8") == "bitwave-16nm"
        assert canonical_arch("bitwave-16nm@clock_mhz=250") == "bitwave-16nm"

    def test_sorted_and_value_normalized(self):
        assert canonical_arch("bitwave-16nm@sram_pj=0.50+group=16") \
            == "bitwave-16nm@group=16+sram_pj=0.5"

    def test_equivalent_spellings_share_one_form(self):
        spellings = (
            "bitwave-16nm@group=16+sram_pj=0.5",
            "bitwave-16nm@sram_pj=0.5+group=16",
            "bitwave-16nm@sram_pj=.5+group=16+ku=32",  # ku=32 is default
        )
        forms = {canonical_arch(s) for s in spellings}
        assert len(forms) == 1
        # And the canonical form parses back to the same spec.
        assert parse_arch(forms.pop()) == parse_arch(spellings[0])


class TestErrors:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown arch preset"):
            parse_arch("tpu-v4")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown arch field"):
            parse_arch("bitwave-16nm@voltage=0.8")

    def test_malformed_override(self):
        with pytest.raises(ValueError, match="field=value"):
            parse_arch("bitwave-16nm@group")
        with pytest.raises(ValueError, match="field=value"):
            parse_arch("bitwave-16nm@=8")

    def test_duplicate_field(self):
        with pytest.raises(ValueError, match="duplicate arch field"):
            parse_arch("bitwave-16nm@group=8+group=16")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="must be a number"):
            parse_arch("bitwave-16nm@sram_pj=cheap")


class TestMemo:
    """Both resolvers memoize per spelling; registering forgets."""

    @pytest.fixture
    def scratch_name(self):
        name = "memo-test-16nm"
        yield name
        ARCH_PRESETS.pop(name, None)
        PRESET_DESCRIPTIONS.pop(name, None)
        presets._parse_spelling.cache_clear()
        canonical_arch.cache_clear()

    def test_reregistering_a_name_changes_what_it_resolves_to(
            self, scratch_name):
        narrow, wide = default_arch(), ARCH_PRESETS["bitwave-su2-16nm"]
        override = f"{scratch_name}@group={wide.group_size}"
        register_arch(scratch_name, narrow)
        assert parse_arch(scratch_name) == narrow
        assert canonical_arch(override) == override
        register_arch(scratch_name, wide)
        assert parse_arch(scratch_name) == wide
        assert canonical_arch(override) == scratch_name  # now a no-op

    def test_a_bad_spelling_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown arch preset"):
                parse_arch("tpu-v4")
            with pytest.raises(ValueError, match="unknown arch field"):
                canonical_arch("bitwave-16nm@voltage=0.8")
