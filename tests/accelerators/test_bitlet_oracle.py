"""Bitlet's memoized significance model against the per-value loop.

:func:`repro.accelerators.bitlet.expected_max_significance_population`
computes each binomial's point probabilities once and caches whole
results.  Its value must equal what ``bitlet_reference`` computes --
exactly, for any eight occupancies in [0, 1] and every interleave
width the tests use, on a first call and on a cached one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bitlet_reference as reference
from repro.accelerators.bitlet import expected_max_significance_population

occupancies = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=8, max_size=8)


@pytest.mark.parametrize("m", [1, 4, 8])
@given(occupancy=occupancies)
@example(occupancy=[0.0] * 8)
@example(occupancy=[1.0] * 8)
@settings(deadline=None)
def test_memoized_model_matches_reference(m, occupancy):
    occupancy = np.array(occupancy)
    want = reference.expected_max_significance_population(occupancy, m)
    for _ in range(2):  # computed, then served from the cache
        assert expected_max_significance_population(occupancy, m) == want
