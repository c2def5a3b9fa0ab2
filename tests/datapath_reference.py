"""Column-serial reference datapath of the BitWave NPU.

This is the structural gold model that :class:`repro.sim.npu.BitWaveNPU`
replaced with one GEMM per bit plane: a scalar ZCIP parse per weight
group (Fig. 7), one BCE pass per (kernel, group) pair streaming the
group's non-zero columns one at a time (Fig. 8), one SMM lane per weight
bit, and each group's sync counter taken from its parsed shift schedule
rather than from the lookup tables.  :class:`ReferenceNPU` swaps it in
for the one compute step ``run_fc`` calls, so the oracle tests compare
outputs and counters of the two datapaths field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.arch import ArchSpec, default_arch
from repro.sim.npu import BitWaveNPU
from repro.sim.zcip import ZeroColumnIndexParser


def arch_with(**fields: Any) -> ArchSpec:
    """The default arch with some fields replaced (validated)."""
    return replace(default_arch(), **fields)


@dataclass(frozen=True)
class ParsedIndex:
    """Decoded control for one column group.

    ``shifts`` lists the bit significance (0 = LSB) of every non-zero
    magnitude column in streaming order (MSB first), matching the
    single-shift alignment applied after the BCE adder stage.
    """

    sign_request: bool
    shifts: tuple[int, ...]
    sync_counter: int


class ReferenceParser(ZeroColumnIndexParser):
    """The ZCIP decoding one index byte at a time, bit by bit."""

    def parse(self, index_byte: int) -> ParsedIndex:
        """Decode one weight-index byte (ignored in dense mode)."""
        if self.dense_precision is not None:
            magnitude_columns = self.dense_precision - 1
            return ParsedIndex(
                sign_request=True,
                shifts=tuple(range(magnitude_columns - 1, -1, -1)),
                sync_counter=self.dense_precision,
            )
        if not 0 <= index_byte <= 0xFF:
            raise ValueError(f"index byte out of range: {index_byte}")
        sign_request = bool(index_byte & 0x80)
        shifts = tuple(
            significance
            for significance in range(6, -1, -1)
            if index_byte & (1 << significance)
        )
        sync = len(shifts) + (1 if sign_request else 0)
        return ParsedIndex(
            sign_request=sign_request, shifts=shifts, sync_counter=sync)


def smm_partial_products(
    activations: np.ndarray,
    weight_bits: np.ndarray,
    weight_signs: np.ndarray,
) -> np.ndarray:
    """Per-lane partial products of one bit column (Fig. 8, step 2):
    ``bit * (sign ? -activation : activation)``, int64."""
    activations = np.asarray(activations, dtype=np.int64)
    bits = np.asarray(weight_bits, dtype=np.int64)
    signs = np.asarray(weight_signs, dtype=np.int64)
    signed_acts = np.where(signs.astype(bool), -activations, activations)
    return bits * signed_acts


def smm_column_sum(
    activations: np.ndarray,
    weight_bits: np.ndarray,
    weight_signs: np.ndarray,
) -> np.ndarray:
    """Step 3 of Fig. 8: accumulate all lane partial products of a column."""
    return smm_partial_products(
        activations, weight_bits, weight_signs).sum(axis=-1)


class BitColumnEngine:
    """One BCE lane-group; processes one column group at a time.

    Activations and signs stay in registers across the group's non-zero
    columns; each cycle streams one ``G x 1b`` weight column through the
    SMMs, the adder tree and the column's single shift.
    """

    def __init__(self, group_size: int = 8) -> None:
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size
        self.cycles = 0
        self.column_ops = 0

    def process_group(
        self,
        activations: np.ndarray,
        columns: np.ndarray,
        signs: np.ndarray,
        parsed: ParsedIndex,
    ) -> np.ndarray:
        """Run one group against a batch of activation contexts.

        ``activations`` is ``(..., G)``; leading axes are output
        contexts served by spatially-parallel BCEs (the weight column is
        broadcast, so they add no cycles).  ``columns`` is
        ``(len(parsed.shifts), G)`` magnitude bits in streaming order and
        ``signs`` the ``(G,)`` sign bits.  Returns the int64 partial
        sums, shape ``activations.shape[:-1]``.
        """
        activations = np.asarray(activations, dtype=np.int64)
        if activations.shape[-1] != self.group_size:
            raise ValueError(
                f"expected {self.group_size} activations, got "
                f"{activations.shape[-1]}")
        if columns.shape[0] != len(parsed.shifts):
            raise ValueError(
                f"{columns.shape[0]} columns but {len(parsed.shifts)} shifts")
        accumulator = np.zeros(activations.shape[:-1], dtype=np.int64)
        for column_bits, shift in zip(columns, parsed.shifts):
            partial = smm_column_sum(activations, column_bits, signs)
            accumulator += partial << np.int64(shift)
            self.cycles += 1
            self.column_ops += 1
        if parsed.sign_request:
            # Sign-column fetch occupies the pipe for one cycle.
            self.cycles += 1
        return accumulator


class ReferenceNPU(BitWaveNPU):
    """:class:`BitWaveNPU` running the column-serial datapath."""

    def _compute(
        self,
        acts: np.ndarray,
        planes: np.ndarray,
        signs: np.ndarray,
        index_bytes: np.ndarray,
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """One scalar ZCIP parse and one :class:`BitColumnEngine` pass
        per (kernel, group) pair; same contract as the plane-GEMM step."""
        k, n_groups = index_bytes.shape
        outputs = np.zeros((acts.shape[0], k), dtype=np.int64)
        sync = np.zeros((k, n_groups), dtype=np.int64)
        column_ops = 0
        parser = ReferenceParser(self.parser.dense_precision)
        engine = BitColumnEngine(self.group_size)
        for ki in range(k):
            for gi in range(n_groups):
                parsed = parser.parse(int(index_bytes[ki, gi]))
                # Plane index of each streamed column (MSB-first
                # magnitude order); dense mode streams every column of
                # the configured precision.
                selected = [7 - s for s in parsed.shifts]
                outputs[:, ki] += engine.process_group(
                    acts[:, gi, :], planes[ki, gi, selected, :],
                    signs[ki, gi], parsed)
                column_ops += len(parsed.shifts)
                sync[ki, gi] = parsed.sync_counter
        return outputs, column_ops, sync
