"""The Bitlet significance model as it was before its memoization.

This is the per-value binomial loop that
:func:`repro.accelerators.bitlet.expected_max_significance_population`
replaced: it recomputes every point probability for every CDF value.
The oracle test requires the memoized code to match it bit for bit.
"""

from __future__ import annotations

from math import comb

import numpy as np


def binomial_cdf(v: np.ndarray, n: int, p: float) -> np.ndarray:
    """CDF of Binomial(n, p) at integer points ``v``."""
    out = np.zeros(len(v))
    for i, vi in enumerate(v):
        k = np.arange(0, min(int(vi), n) + 1)
        out[i] = float(np.sum(
            [comb(n, int(kk)) * p ** kk * (1 - p) ** (n - kk) for kk in k]))
    return np.minimum(out, 1.0)


def expected_max_significance_population(occupancy: np.ndarray,
                                         m: int) -> float:
    """E[max over significances of Binomial(m, p_j)]."""
    values = np.arange(0, m + 1)
    cdf_product = np.ones(m + 1)
    for p in occupancy:
        cdf_product *= binomial_cdf(values, m, float(p))
    pmf = np.diff(np.concatenate([[0.0], cdf_product]))
    return float((values * pmf).sum())
