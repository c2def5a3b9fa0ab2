"""The index-byte kernel against the plane-unpacking reference.

Every statistic, mask, stream index and encoder output built on
:func:`repro.core.bitcolumn.index_bytes` must equal what the reference
in ``bitcolumn_reference`` computes from unpacked bit planes -- exactly,
on Int8 tensors that include -128, at every group size of Fig. 5 and in
both formats.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bitcolumn_reference as reference
from repro.core.bitcolumn import (
    FORMATS,
    bit_sparsity,
    column_sparsity,
    group_weights,
    nonzero_column_counts,
    zero_column_mask,
)
from repro.core.compression import bcs_compress, bcs_compression_ratio
from repro.sim.npu import BitWaveNPU
from repro.sparsity.stats import compute_layer_stats

GROUP_SIZES = (1, 2, 4, 8, 16, 32, 64)

int8_tensors = arrays(np.int8, st.integers(1, 600),
                      elements=st.integers(-128, 127))
kernel_matrices = arrays(
    np.int8, st.tuples(st.integers(1, 9), st.integers(1, 150)),
    elements=st.integers(-128, 127))


def _assert_identical(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_identical(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert type(got) is type(want)
        assert got == want


@given(int8_tensors)
@settings(deadline=None)
def test_layer_stats_match_reference(weights):
    got = compute_layer_stats(weights, group_sizes=GROUP_SIZES)
    want = reference.layer_stats(weights, GROUP_SIZES)
    for field in fields(want):
        _assert_identical(getattr(got, field.name), getattr(want, field.name))


@given(int8_tensors, st.sampled_from(GROUP_SIZES), st.sampled_from(FORMATS))
@settings(deadline=None)
def test_zero_columns_match_reference(weights, group_size, fmt):
    groups = group_weights(weights, group_size)
    mask = reference.zero_column_mask(groups, fmt)
    assert np.array_equal(zero_column_mask(groups, fmt), mask)
    assert np.array_equal(nonzero_column_counts(groups, fmt),
                          8 - mask.sum(axis=1))
    assert column_sparsity(weights, group_size, fmt) == float(mask.mean())
    assert bit_sparsity(weights, fmt) == float(
        1.0 - reference.bitplanes(weights, fmt).mean())


@given(int8_tensors, st.sampled_from(GROUP_SIZES))
@settings(deadline=None)
def test_bcs_stream_and_ratio_match_reference(weights, group_size):
    stream = bcs_compress(weights, group_size)
    want = reference.bcs_compress(weights, group_size)
    _assert_identical(stream.indices, want.indices)
    _assert_identical(stream.columns, want.columns)
    assert bcs_compression_ratio(weights, group_size) == \
        stream.compression_ratio
    assert bcs_compression_ratio(weights, group_size, ideal=True) == \
        stream.ideal_compression_ratio


@given(kernel_matrices, st.sampled_from(GROUP_SIZES))
@settings(deadline=None)
def test_encoder_matches_reference(weights, group_size):
    got = BitWaveNPU(group_size=group_size)._encode_groups(weights)
    want = reference.encode_groups(weights, group_size)
    for got_part, want_part in zip(got, want):
        _assert_identical(got_part, want_part)
