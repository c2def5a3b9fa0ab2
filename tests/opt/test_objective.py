"""The Objective adapter: cache sharing, retries, and provenance.

Acceptance pins: a probe of a point an exhaustive campaign already
stored evaluates nothing; an injected ``crash:site=opt`` plan is healed
by the retry loop; poison error types fail fast; and every record a
guided probe writes carries ``origin``/``round`` provenance that the
summary and Pareto JSON rows surface.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro import faults
from repro.dse.executor import run_campaign
from repro.dse.retry import RetryPolicy
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore
from repro.dse.summary import pareto_data, summary_data
from repro.eval.registry import get_backend
from repro.eval.request import EvalRequest
from repro.opt.objective import Objective

POINT = EvalRequest("cnn_lstm@frames=2+bins=32+hidden=32")

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a pool worker sees the stubbed backend only when forked "
           "from this process")


def _store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestCaching:
    def test_second_probe_is_a_store_hit(self, tmp_path):
        objective = Objective(_store(tmp_path), origin="opt:test")
        first = objective.probe(POINT)
        second = objective.probe(POINT)
        assert first.ok and not first.cached and first.attempts == 1
        assert second.ok and second.cached and second.attempts == 0
        assert second.result == first.result
        assert objective.counts() == {
            "probes": 2, "evaluated": 1, "saved": 1, "failed": 0}

    def test_exhaustive_run_prewarms_guided_probes(self, tmp_path):
        """The cache-sharing contract: guided probes of points an
        exhaustive campaign stored evaluate nothing."""
        store = _store(tmp_path)
        spec = CampaignSpec(name="warm", accelerators=("BitWave",),
                            networks=(POINT.workload,))
        run = run_campaign(spec, store)
        assert run.evaluated == 1
        objective = Objective(store, origin="opt:test")
        probe = objective.probe(POINT)
        assert probe.ok and probe.cached
        assert objective.evaluated == 0

    def test_guided_probe_prewarms_exhaustive_run(self, tmp_path):
        store = _store(tmp_path)
        Objective(store, origin="opt:test").probe(POINT)
        spec = CampaignSpec(name="warm", accelerators=("BitWave",),
                            networks=(POINT.workload,))
        run = run_campaign(spec, store)
        assert run.evaluated == 0 and run.cached == 1


class TestFailureTolerance:
    def test_injected_crash_is_healed_by_retry(self, tmp_path):
        faults.configure("seed=7,crash:1:attempt<1:site=opt")
        objective = Objective(_store(tmp_path), origin="opt:test",
                              policy=RetryPolicy(backoff_s=0.0))
        probe = objective.probe(POINT)
        assert probe.ok and probe.attempts == 2
        record = objective.store.get(POINT.key())
        assert record["attempts"] == 2
        assert "InjectedFault" in record["last_error"]

    def test_retry_budget_exhausted_returns_failed_probe(self, tmp_path):
        faults.configure("seed=7,crash:1:site=opt")  # every attempt
        objective = Objective(_store(tmp_path), origin="opt:test",
                              policy=RetryPolicy(backoff_s=0.0))
        probe = objective.probe(POINT)
        assert not probe.ok and probe.result is None
        assert probe.attempts == objective.policy.max_attempts
        assert "InjectedFault" in probe.error
        assert objective.failed == 1
        # Nothing broken was persisted: the store has no record.
        assert objective.store.get(POINT.key()) is None

    def test_poison_error_fails_fast(self, tmp_path, monkeypatch):
        class _Poison:
            def evaluate(self, request):
                raise ValueError("deterministic bug")

        monkeypatch.setattr("repro.opt.objective.get_backend",
                            lambda name: _Poison())
        objective = Objective(_store(tmp_path), origin="opt:test",
                              policy=RetryPolicy(backoff_s=0.0))
        probe = objective.probe(POINT)
        assert not probe.ok and probe.attempts == 1
        assert probe.error.startswith("ValueError")

    def test_transient_error_is_retried(self, tmp_path, monkeypatch):
        from repro.eval.registry import get_backend
        real = get_backend(POINT.backend)
        calls = []

        class _Flaky:
            def evaluate(self, request):
                calls.append(request.key())
                if len(calls) == 1:
                    raise RuntimeError("weather")
                return real.evaluate(request)

        monkeypatch.setattr("repro.opt.objective.get_backend",
                            lambda name: _Flaky())
        objective = Objective(_store(tmp_path), origin="opt:test",
                              policy=RetryPolicy(backoff_s=0.0))
        probe = objective.probe(POINT)
        assert probe.ok and probe.attempts == 2 and len(calls) == 2


    @FORK_ONLY
    def test_timeout_kills_the_probe(self, tmp_path, monkeypatch):
        # ``opt sh/tune/cosearch --timeout``: only a watchdog worker
        # can stop an attempt past its deadline, as in a campaign.
        backend = get_backend(POINT.backend)
        evaluate = backend.evaluate

        def hung(request):
            time.sleep(2.0)
            return evaluate(request)

        monkeypatch.setattr(backend, "evaluate", hung)
        objective = Objective(_store(tmp_path), origin="opt:test",
                              policy=RetryPolicy(timeout_s=0.5,
                                                 max_attempts=1))
        start = time.perf_counter()
        probe = objective.probe(POINT)
        elapsed = time.perf_counter() - start
        assert not probe.ok and probe.attempts == 1
        assert probe.error.startswith("timeout after")
        assert elapsed < 1.5
        assert objective.failed == 1
        assert not objective.store.path.exists()

    def test_unwritable_store_still_answers(self, tmp_path):
        store = _store(tmp_path)
        # Make the namespace dir a file so mkdir/open fail with OSError.
        store.path.parent.parent.mkdir(parents=True, exist_ok=True)
        store.path.parent.touch()
        objective = Objective(store, origin="opt:test")
        probe = objective.probe(POINT)
        assert probe.ok and probe.attempts == 1
        assert objective.persist_failures == 1
        assert objective.counts() == {
            "probes": 1, "evaluated": 1, "saved": 0, "failed": 0}


class TestProvenance:
    def test_record_extra_carries_origin_and_round(self, tmp_path):
        objective = Objective(_store(tmp_path), origin="opt:test")
        objective.probe(POINT, round_index=3)
        record = objective.store.get(POINT.key())
        assert record["extra"] == {"origin": "opt:test", "round": 3}

    def test_summary_and_pareto_rows_surface_provenance(self, tmp_path):
        store = _store(tmp_path)
        spec = CampaignSpec(name="prov", accelerators=("BitWave",),
                            networks=(POINT.workload,))
        Objective(store, origin="opt:test").probe(POINT)
        (row,) = summary_data(spec, store)
        assert row["origin"] == "opt:test" and row["round"] == 0
        (prow,) = pareto_data(spec, store, x="cycles", y="tops_per_w")
        assert prow["origin"] == "opt:test" and prow["round"] == 0

    def test_exhaustive_records_read_as_origin_none(self, tmp_path):
        store = _store(tmp_path)
        spec = CampaignSpec(name="prov", accelerators=("BitWave",),
                            networks=(POINT.workload,))
        run_campaign(spec, store)
        (row,) = summary_data(spec, store)
        assert row["origin"] is None and row["round"] is None
