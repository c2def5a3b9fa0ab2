"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import api
from repro.utils.rng import seeded_rng


@pytest.fixture
def rng() -> np.random.Generator:
    return seeded_rng("tests", "shared")


@pytest.fixture
def laplacian_int8(rng: np.random.Generator) -> np.ndarray:
    """Int8 weights with the small-magnitude-dominated shape of real DNNs."""
    values = rng.laplace(loc=0.0, scale=9.0, size=4096)
    return np.clip(np.round(values), -127, 127).astype(np.int8)


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Route the default (env-derived) store into a tmp dir."""
    monkeypatch.setenv("REPRO_DSE_STORE", str(tmp_path))
    api.reset_cache()
    yield tmp_path
    api.reset_cache()
