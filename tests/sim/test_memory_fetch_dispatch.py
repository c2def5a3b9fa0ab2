"""Tests for the simulator's fetcher model."""

import pytest

from repro.sim.fetcher import DataFetcher, SEGMENT_BITS


class TestDataFetcher:
    def test_weight_segments_rounded_up(self):
        # 100 bits occupy 2 segments: 2 cycles at one segment per cycle.
        fetcher = DataFetcher(weight_bw_bits=64, act_bw_bits=1024)
        assert fetcher.fetch_weight_columns(100) == 2
        fetcher = DataFetcher(weight_bw_bits=256, act_bw_bits=1024)
        assert fetcher.fetch_weight_columns(100) == 1  # 4 segments/cycle

    def test_weight_bw_limits_cycles(self):
        fetcher = DataFetcher(weight_bw_bits=64, act_bw_bits=1024)
        cycles = fetcher.fetch_weight_columns(SEGMENT_BITS * 10)
        assert cycles == 10

    def test_act_bandwidth(self):
        fetcher = DataFetcher(weight_bw_bits=256, act_bw_bits=64)
        cycles = fetcher.fetch_activations(32)  # 8 words/cycle
        assert cycles == 4

    def test_invalid_weight_bw(self):
        with pytest.raises(ValueError, match="multiple"):
            DataFetcher(weight_bw_bits=100, act_bw_bits=64)
