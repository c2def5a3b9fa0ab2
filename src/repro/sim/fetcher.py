"""Activation/weight fetcher (paper Fig. 11).

The fetcher moves packed 64-bit compressed-weight segments and
activation words from the SRAM banks to the data dispatcher at the
bandwidths of the layer's configured SU (Table I).  It never decodes
the compressed stream -- BitWave's point is that the packed segments
feed the array directly.
"""

from __future__ import annotations

#: Segment granularity of the weight SRAM layout (Fig. 10).
SEGMENT_BITS = 64


class DataFetcher:
    """Counts fetch traffic under a given SU's bandwidth configuration."""

    def __init__(self, weight_bw_bits: int, act_bw_bits: int) -> None:
        if weight_bw_bits % SEGMENT_BITS:
            raise ValueError(
                f"weight bandwidth must be a multiple of {SEGMENT_BITS} bits")
        self.weight_bw_bits = weight_bw_bits
        self.act_bw_bits = act_bw_bits

    def fetch_weight_columns(self, total_column_bits: int) -> int:
        """Fetch compressed column payload; returns fetch cycles."""
        segments = -(-total_column_bits // SEGMENT_BITS)
        segments_per_cycle = self.weight_bw_bits // SEGMENT_BITS
        return -(-segments // segments_per_cycle)

    def fetch_activations(self, n_words: int) -> int:
        """Fetch 8-bit activation words; returns fetch cycles."""
        words_per_cycle = max(self.act_bw_bits // 8, 1)
        return -(-n_words // words_per_cycle)
