"""The bound-expanding scalar search: bracketing, expansion, failure
tolerance, and the arch-field tuner over the shared store."""

from __future__ import annotations

import math

import pytest

from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest
from repro.opt.objective import Objective
from repro.opt.scalar import (
    TUNE_ORIGIN,
    bound_expanding_search,
    tune_arch_field,
)


def _linear(x: float) -> float:
    return 2.0 * x + 1.0


class TestBisection:
    def test_converges_inside_initial_bracket(self):
        result = bound_expanding_search(
            _linear, 11.0, lo=0.0, hi=10.0, tolerance=0.01)
        assert result.converged
        assert result.best_x == pytest.approx(5.0, abs=0.01)
        assert result.expansions == 0

    def test_probe_log_is_deterministic(self):
        first = bound_expanding_search(
            _linear, 11.0, lo=0.0, hi=10.0, tolerance=0.01)
        second = bound_expanding_search(
            _linear, 11.0, lo=0.0, hi=10.0, tolerance=0.01)
        assert first.probes == second.probes

    def test_endpoint_already_within_tolerance(self):
        result = bound_expanding_search(
            _linear, 1.0, lo=0.0, hi=10.0, tolerance=0.5)
        assert result.converged and result.tries == 1
        assert result.best_x == 0.0

    def test_max_tries_caps_the_probe_budget(self):
        result = bound_expanding_search(
            _linear, 11.3, lo=0.0, hi=10.0, tolerance=0.0, max_tries=5)
        assert result.tries <= 5
        assert not result.converged  # zero tolerance, finite budget

    def test_decreasing_objective(self):
        result = bound_expanding_search(
            lambda x: 100.0 - x, 40.0, lo=0.0, hi=100.0,
            tolerance=0.01, increasing=False)
        assert result.converged
        assert result.best_x == pytest.approx(60.0, abs=0.1)

    def test_integer_mode_stops_on_adjacent_bracket(self):
        result = bound_expanding_search(
            _linear, 10.0, lo=0.0, hi=7.0, tolerance=0.0, integer=True)
        assert all(x == int(x) for x, _ in result.probes)
        # 10.0 is unreachable on integers (f(4)=9, f(5)=11): the search
        # must stop on the adjacent bracket, not loop forever.
        assert result.best_x in (4.0, 5.0)
        assert not result.converged


class TestExpansion:
    def test_hi_expands_until_target_bracketed(self):
        result = bound_expanding_search(
            _linear, 101.0, lo=0.0, hi=10.0, tolerance=0.01)
        assert result.converged
        assert result.best_x == pytest.approx(50.0, abs=0.01)
        assert result.expansions >= 2
        assert result.hi >= 50.0

    def test_lo_expands_when_bracket_overshoots(self):
        result = bound_expanding_search(
            _linear, -39.0, lo=0.0, hi=10.0, tolerance=0.01)
        assert result.converged
        assert result.best_x == pytest.approx(-20.0, abs=0.01)
        assert result.lo <= -20.0

    def test_expansion_budget_exhaustion_reports_best_effort(self):
        result = bound_expanding_search(
            _linear, 1e9, lo=0.0, hi=1.0, tolerance=0.01,
            max_expansions=2)
        assert not result.converged
        assert result.expansions == 2
        assert result.best_value < 1e9


class TestFailureTolerance:
    def test_flaky_probe_is_retried(self):
        failures = []

        def flaky(x: float) -> float:
            if x not in failures:
                failures.append(x)
                raise RuntimeError("weather")
            return _linear(x)

        result = bound_expanding_search(
            flaky, 11.0, lo=0.0, hi=10.0, tolerance=0.01,
            policy=RetryPolicy(backoff_s=0.0))
        assert result.converged
        assert all(value is not None for _, value in result.probes)

    def test_poison_probe_ends_search_with_best_so_far(self):
        def poisoned(x: float) -> float:
            if x > 4.0:
                raise ValueError("deterministic bug")
            return _linear(x)

        result = bound_expanding_search(
            poisoned, 11.0, lo=0.0, hi=10.0, tolerance=0.01,
            policy=RetryPolicy(backoff_s=0.0))
        assert not result.converged
        assert result.probes[-1][1] is None  # the terminal failure
        assert result.best_x == 0.0  # best measured point survives

    def test_all_probes_failed_reports_nan(self):
        def broken(x: float) -> float:
            raise ValueError("nothing works")

        result = bound_expanding_search(
            broken, 11.0, lo=0.0, hi=10.0, tolerance=0.01,
            policy=RetryPolicy(backoff_s=0.0))
        assert not result.converged
        assert math.isnan(result.best_value)
        assert result.tries == 1

    def test_retry_budget_is_policy_controlled(self):
        calls = []

        def counting(x: float) -> float:
            calls.append(x)
            raise RuntimeError("weather")

        bound_expanding_search(
            counting, 11.0, lo=0.0, hi=10.0, tolerance=0.01,
            policy=RetryPolicy(max_attempts=2, backoff_s=0.0))
        assert len(calls) == 2  # one probe, one retry, then give up


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tolerance": -1.0},
        {"max_tries": 1},
        {"expand_factor": 1.0},
        {"lo": 5.0, "hi": 5.0},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        merged = {"lo": 0.0, "hi": 10.0, "tolerance": 0.1, **kwargs}
        with pytest.raises(ValueError):
            bound_expanding_search(_linear, 1.0, **merged)


class TestTuneArchField:
    """The store-backed driver over one hardware axis.

    ``sram_pj`` (SRAM access energy) against the ``energy`` metric is
    the pinned test axis: the model's total energy rises monotonically
    with it, and it is a float field so the probe spelling path gets
    exercised too.
    """

    NETWORK = "cnn_lstm@frames=2+bins=32+hidden=32"

    def _measure(self, store: ResultStore, sram_pj: float) -> float:
        from repro.dse.summary import METRICS
        point = EvalRequest(
            self.NETWORK, arch=f"bitwave-16nm@sram_pj={sram_pj:g}")
        probe = Objective(store, origin="opt:test").probe(point)
        return METRICS["energy"].extract(probe.result)

    def test_converges_and_stamps_tune_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "tune")
        f_lo, f_hi = (self._measure(store, 0.1), self._measure(store, 4.0))
        assert f_lo < f_hi  # the monotonicity the axis pin relies on
        target = (f_lo + f_hi) / 2.0

        result = tune_arch_field(
            "sram_pj", target, store, network=self.NETWORK,
            metric="energy", lo=0.1, hi=4.0,
            tolerance=(f_hi - f_lo) * 0.05, integer=False)
        assert result.converged
        assert 0.1 <= result.best_x <= 4.0

        # Every tuning probe landed in the shared store with origin.
        records = [store.get(key) for key in store.keys()]
        records = [r for r in records
                   if r.get("extra", {}).get("origin") == TUNE_ORIGIN]
        assert records

    def test_rerun_is_deterministic_and_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path / "tune")
        f_lo, f_hi = (self._measure(store, 0.1), self._measure(store, 4.0))
        target = (f_lo + f_hi) / 2.0
        kwargs = dict(network=self.NETWORK, metric="energy",
                      lo=0.1, hi=4.0, tolerance=(f_hi - f_lo) * 0.05,
                      integer=False)
        first = tune_arch_field("sram_pj", target, store, **kwargs)
        second = tune_arch_field("sram_pj", target, store, **kwargs)
        assert second.probes == first.probes
        assert second.best_x == first.best_x
