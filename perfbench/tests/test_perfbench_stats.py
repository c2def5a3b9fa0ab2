"""The latency percentile rule and the spread statistic."""

from __future__ import annotations

import pytest

from perfbench.stats import percentile, quartiles, spread, supported_percentile


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),
    (9_999, 99.0),
    (1_000, 99.0),
    (999, 95.0),
    (200, 95.0),
    (199, 90.0),
    (100, 90.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_leaves_ten_samples_beyond_its_rank():
    for n in (20, 100, 999, 1_000, 6_000, 12_345):
        p = supported_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > percentile(values, p))
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_spread_is_quartile_distance_over_median():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, median, q3 = quartiles(values)
    assert median == 3.0
    assert spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0
