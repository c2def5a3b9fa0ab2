"""Named architecture presets and the ``@field=value`` override grammar.

A hardware design point is named the same way a workload is
parametrized (:func:`repro.workloads.nets.parse_network`): a preset
name, optionally followed by ``@`` and ``+``-joined overrides::

    bitwave-16nm
    bitwave-16nm@group=16
    bitwave-16nm@sram_pj=0.5+group=16

:func:`parse_arch` resolves a spec string to a frozen
:class:`~repro.arch.spec.ArchSpec`; :func:`canonical_arch` gives every
equivalent spelling one canonical form (overrides equal to the preset's
own value are dropped, the rest sort by name), so equivalent spellings
share one evaluation-cache key and one campaign grid point; given the
override names an evaluation reads, it also drops the rest, so a
request key holds only fields that can change its result.  Both
memoize per spelling (every request key and validation resolves its
arch), and :func:`register_arch` clears the memo.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, NamedTuple

from repro.arch.spec import ArchSpec, TechSpec

#: The paper's system point; the default everywhere an arch is optional.
DEFAULT_ARCH = "bitwave-16nm"


class _Override(NamedTuple):
    """One grammar field: where it lands and how its value parses.

    ``parse`` turns the spelled value into the grammar's unit (what
    :func:`canonical_arch` prints back); ``scale`` converts the grammar
    unit into the spec field's unit (e.g. MHz -> Hz).
    """

    target: str  #: ``ArchSpec`` field name, or ``"tech.<field>"``
    parse: Callable[[str], "int | float | str"]
    help: str
    scale: float = 1.0

    def field_value(self, value: "int | float | str") -> "int | float | str":
        if self.scale != 1.0 and not isinstance(value, str):
            return value * self.scale
        return value


def _int(raw: str) -> int:
    return int(raw)


def _float(raw: str) -> float:
    return float(raw)


#: The override grammar: short axis name -> spec field.
OVERRIDE_FIELDS: dict[str, _Override] = {
    # PE-array geometry
    "group": _Override("group_size", _int, "BCS column group size"),
    "ku": _Override("ku", _int, "kernel unroll (multiple of 8)"),
    "oxu": _Override("oxu", _int, "output-spatial unroll"),
    "weight_bw": _Override("weight_bw_bits", _int,
                           "weight fetch bandwidth (bits/cycle)"),
    "act_bw": _Override("act_bw_bits", _int,
                        "activation fetch bandwidth (bits/cycle)"),
    # memory hierarchy
    "sram_w": _Override("sram_w_bits", _int,
                        "weight-SRAM port width (bits/cycle)"),
    "sram_a": _Override("sram_a_bits", _int,
                        "activation-SRAM port width (bits/cycle)"),
    "sram_kb": _Override("sram_kb", _int, "total SRAM capacity (KB)"),
    "n_bce": _Override("n_bce", _int, "bit-column engines in the array"),
    # precision / columns mode
    "columns": _Override("columns", str, "ZCIP column mode (sm|dense)"),
    "dense_precision": _Override("dense_precision", _int,
                                 "ZCIP dense-mode precision (bits)"),
    # technology point
    "clock_mhz": _Override("tech.clock_frequency_hz", _float,
                           "clock frequency (MHz)", scale=1e6),
    "dram_pj": _Override("tech.dram_pj_per_element", _float,
                         "DRAM energy (pJ/byte)"),
    "sram_pj": _Override("tech.sram_pj_per_element", _float,
                         "SRAM energy (pJ/byte)"),
    "reg_pj": _Override("tech.reg_pj_per_element", _float,
                        "register energy (pJ/byte)"),
    "mac_pj": _Override("tech.mac_bit_parallel_pj", _float,
                        "bit-parallel MAC energy (pJ)"),
    "serial_pj": _Override("tech.mac_bit_serial_cycle_pj", _float,
                           "bit-serial lane-cycle energy (pJ)"),
    "bce_pj": _Override("tech.bce_column_cycle_pj", _float,
                        "BCE column lane-cycle energy (pJ)"),
    "dram_bits": _Override("tech.dram_bits_per_cycle", _int,
                           "DRAM interface width (bits/cycle)"),
    "sram_bits": _Override("tech.sram_bits_per_cycle", _int,
                           "default SRAM interface width (bits/cycle)"),
}


def _table_i_point(group: int, oxu: int, weight_bw: int,
                   act_bw: int) -> ArchSpec:
    return ArchSpec(group_size=group, oxu=oxu,
                    weight_bw_bits=weight_bw, act_bw_bits=act_bw)


#: Registered presets (name -> spec); the Fig. 13 / Table III designs.
ARCH_PRESETS: dict[str, ArchSpec] = {
    # The paper's system point: Table I SU1 geometry at 16 nm / 250 MHz.
    DEFAULT_ARCH: ArchSpec(),
    # Table I alternates: SU2 / SU3 widen the column group.
    "bitwave-su2-16nm": _table_i_point(16, 8, 512, 1024),
    "bitwave-su3-16nm": _table_i_point(32, 4, 1024, 1024),
    # The Fig. 13 Dense baseline's fixed [Cu=64, Ku=64] unrolling,
    # streaming every column (ZCIP dense mode at full 8-bit precision).
    "bitwave-dense-16nm": ArchSpec(
        group_size=64, ku=64, oxu=1,
        weight_bw_bits=4096, act_bw_bits=64,
        columns="dense", dense_precision=8),
}

#: One-line description per preset (README / CLI help).
PRESET_DESCRIPTIONS: dict[str, str] = {
    DEFAULT_ARCH: "paper system point (Table I SU1, 16 nm, 250 MHz)",
    "bitwave-su2-16nm": "Table I SU2 geometry (G=16, OXu=8)",
    "bitwave-su3-16nm": "Table I SU3 geometry (G=32, OXu=4)",
    "bitwave-dense-16nm": "Fig. 13 Dense baseline ([Cu=64, Ku=64])",
}


def arch_names() -> tuple[str, ...]:
    """Registered preset names, in registration order."""
    return tuple(ARCH_PRESETS)


def register_arch(name: str, spec: ArchSpec,
                  description: str = "") -> ArchSpec:
    """Add a preset to the registry (last registration wins).

    Caching caveat: evaluation-cache keys hash the arch *spelling*
    (preset name + overrides), not the resolved field values -- the
    built-in presets are covered by the source fingerprint, but a
    runtime-registered name is not.  Re-registering an existing name
    with different field values does NOT invalidate results cached
    under the old meaning; pick a fresh name (or version the name,
    ``"custom-v2"``) when the hardware a name describes changes.
    """
    if not name or "@" in name or "+" in name or "=" in name:
        raise ValueError(
            f"preset name {name!r} must be non-empty and free of the "
            f"override grammar characters '@', '+', '='")
    ARCH_PRESETS[name] = spec
    if description:
        PRESET_DESCRIPTIONS[name] = description
    _parse_spelling.cache_clear()
    canonical_arch.cache_clear()
    return spec


def default_arch() -> ArchSpec:
    """The :data:`DEFAULT_ARCH` preset."""
    return ARCH_PRESETS[DEFAULT_ARCH]


def _apply(spec: ArchSpec, name: str,
           value: "int | float | str") -> ArchSpec:
    """Apply one grammar-unit override onto ``spec``."""
    override = OVERRIDE_FIELDS[name]
    field_value = override.field_value(value)
    if override.target.startswith("tech."):
        return spec.with_tech(**{override.target[len("tech."):]: field_value})
    return replace(spec, **{override.target: field_value})


def arch_overrides(spec: str) -> tuple[str, dict[str, "int | float | str"]]:
    """Split an arch spec string into ``(preset name, overrides)``.

    ``"bitwave-16nm"`` -> ``("bitwave-16nm", {})``;
    ``"bitwave-16nm@sram_pj=0.5+group=16"`` ->
    ``("bitwave-16nm", {"sram_pj": 0.5, "group": 16})``.  Raises
    ``ValueError`` for unknown presets, unknown fields, malformed or
    duplicate overrides.
    """
    base, _, override_str = spec.partition("@")
    if base not in ARCH_PRESETS:
        raise ValueError(
            f"unknown arch preset {base!r}; one of {arch_names()}")
    overrides: dict[str, int | float | str] = {}
    if override_str:
        for part in override_str.split("+"):
            name, sep, raw = part.partition("=")
            if not sep or not name or not raw:
                raise ValueError(
                    f"bad arch override {part!r} in {spec!r} "
                    f"(expected field=value)")
            if name not in OVERRIDE_FIELDS:
                raise ValueError(
                    f"unknown arch field {name!r} in {spec!r}; "
                    f"one of {tuple(OVERRIDE_FIELDS)}")
            if name in overrides:
                raise ValueError(f"duplicate arch field {name!r} in {spec!r}")
            try:
                overrides[name] = OVERRIDE_FIELDS[name].parse(raw)
            except ValueError:
                kind = ("an integer"
                        if OVERRIDE_FIELDS[name].parse is _int else "a number")
                raise ValueError(
                    f"arch field {name!r} must be {kind}, got {raw!r}")
    return base, overrides


def parse_arch(spec: "str | ArchSpec") -> ArchSpec:
    """Resolve an arch spec string (or pass a spec through).

    Overrides apply in spelling order onto the named preset; the
    resulting spec re-validates, so e.g. ``@ku=12`` reports the
    segment-width constraint instead of silently mis-accounting.
    """
    if isinstance(spec, ArchSpec):
        return spec
    return _parse_spelling(spec)


@lru_cache(maxsize=4096)
def _parse_spelling(spec: str) -> ArchSpec:
    base, overrides = arch_overrides(spec)
    resolved = ARCH_PRESETS[base]
    for name, value in overrides.items():
        resolved = _apply(resolved, name, value)
    return resolved


@lru_cache(maxsize=4096)
def canonical_arch(spec: str, reads: "frozenset[str] | None" = None) -> str:
    """One spelling per design point: no-op overrides dropped, the rest
    sorted by field name.

    ``"bitwave-16nm@group=8"`` (the preset's own value) canonicalizes
    to ``"bitwave-16nm"``, and ``"bitwave-16nm@sram_pj=0.50+group=16"``
    to ``"bitwave-16nm@group=16+sram_pj=0.5"``.  Given ``reads`` (the
    override names an evaluation can read), every other override is
    dropped too, once validated: ``"bitwave-16nm@group=16+sram_pj=0.5"``
    with a read set lacking ``group`` is ``"bitwave-16nm@sram_pj=0.5"``.
    """
    base, overrides = arch_overrides(spec)
    preset = ARCH_PRESETS[base]
    kept: dict[str, int | float | str] = {}
    for name, value in sorted(overrides.items()):
        if _apply(preset, name, value) != preset and (
                reads is None or name in reads):
            kept[name] = value
    if not kept:
        return base
    return base + "@" + "+".join(f"{name}={value}"
                                 for name, value in kept.items())


#: Re-exported for the arch package root.
__all__ = [
    "ARCH_PRESETS",
    "DEFAULT_ARCH",
    "OVERRIDE_FIELDS",
    "PRESET_DESCRIPTIONS",
    "arch_names",
    "arch_overrides",
    "canonical_arch",
    "default_arch",
    "parse_arch",
    "register_arch",
]
