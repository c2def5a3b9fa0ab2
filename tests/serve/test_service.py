"""The evaluation service: coalescing, cache tiers, retries, drain.

The acceptance pins: (1) N=8 concurrent identical sim-backed requests
produce exactly one backend call, one store append, and 8 identical
responses, with the counters matching (``serve.coalesced == 7``);
(2) a repeat request hits the hot tier; (3) a saturated miss queue
answers ``rejected`` (503 at the HTTP layer) instead of hoarding
latency; (4) a poison request settles as ``poisoned`` with the last
error preserved; (5) two service instances over one store root share
results through the store tier.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import sys
import threading
import time

import pytest

from repro import faults
from repro.dse import store as store_module
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest
from repro.serve import service as service_module
from repro.serve.service import EvalService, Outcome
from serve_helpers import counting_backend, fake_result, mini_request, run_async

#: A zero-wait retry policy so failure tests don't sleep.
FAST_RETRY = RetryPolicy(backoff_s=0.0, jitter=0.0)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a pool worker sees the stubbed backend only when forked "
           "from this process")


async def _started(root, **kwargs) -> EvalService:
    service = EvalService(root, **kwargs)
    await service.start()
    return service


def _store_lines(root) -> list[dict]:
    lines = []
    for path in root.rglob("results.jsonl"):
        for line in path.read_text().splitlines():
            if line.strip():
                lines.append(json.loads(line))
    return lines


class TestCoalescing:
    def test_eight_identical_requests_one_evaluation(self, tmp_path,
                                                     monkeypatch):
        calls = counting_backend(monkeypatch, "sim-vectorized")
        request = mini_request(backend="sim-vectorized")

        async def main():
            service = await _started(tmp_path)
            outcomes = await asyncio.gather(
                *(service.submit(request) for _ in range(8)))
            await service.drain(timeout_s=5)
            return outcomes

        outcomes = run_async(main())
        assert len(calls) == 1                      # one backend call
        assert len(_store_lines(tmp_path)) == 1     # one store append
        assert all(o.ok for o in outcomes)
        dicts = [o.result.to_dict() for o in outcomes]
        assert all(d == dicts[0] for d in dicts)    # 8 identical answers
        assert sorted(o.source for o in outcomes) == \
            ["coalesced"] * 7 + ["computed"]

    def test_coalescing_counters(self, tmp_path, monkeypatch):
        counting_backend(monkeypatch, "sim-vectorized")
        request = mini_request(backend="sim-vectorized")

        async def main():
            service = await _started(tmp_path)
            await asyncio.gather(
                *(service.submit(request) for _ in range(8)))
            # A repeat after settlement is a hot-tier hit.
            repeat = await service.submit(request)
            await service.drain(timeout_s=5)
            return service, repeat

        service, repeat = run_async(main())
        counts = service.metrics.counters()
        assert counts["serve.coalesced"] == 7
        assert counts["serve.cache.miss"] == 1
        assert counts["serve.evaluated"] == 1
        assert counts["serve.requests"] == 9
        assert counts["serve.cache.hot_hit"] == 1
        assert repeat.source == "hot"

    def test_different_requests_do_not_coalesce(self, tmp_path,
                                                monkeypatch):
        calls = counting_backend(monkeypatch, "model")
        a = mini_request()
        b = EvalRequest(workload="cnn_lstm@frames=2+bins=32+hidden=32")

        async def main():
            service = await _started(tmp_path)
            outcomes = await asyncio.gather(service.submit(a),
                                            service.submit(b))
            await service.drain(timeout_s=5)
            return service, outcomes

        service, outcomes = run_async(main())
        assert len(calls) == 2
        assert all(o.ok for o in outcomes)
        assert service.metrics.count("serve.coalesced") == 0
        assert len(_store_lines(tmp_path)) == 2


class TestCacheTiers:
    def test_store_tier_across_instances(self, tmp_path, monkeypatch):
        calls = counting_backend(monkeypatch, "model")
        request = mini_request()

        async def first():
            service = await _started(tmp_path)
            outcome = await service.submit(request)
            await service.drain(timeout_s=5)
            return outcome

        async def second():
            # A fresh instance: cold hot tier, warm store.
            service = await _started(tmp_path)
            outcome = await service.submit(request)
            counters = service.metrics.counters()
            await service.drain(timeout_s=5)
            return outcome, counters

        computed = run_async(first())
        stored, counters = run_async(second())
        assert len(calls) == 1                     # store answered run 2
        assert computed.source == "computed"
        assert stored.source == "store"
        assert counters["serve.cache.store_hit"] == 1
        assert stored.result.to_dict() == computed.result.to_dict()

    def test_hot_tier_disabled_falls_back_to_store(self, tmp_path,
                                                   monkeypatch):
        counting_backend(monkeypatch, "model")
        request = mini_request()

        async def main():
            service = await _started(tmp_path, hot_max=0)
            first = await service.submit(request)
            second = await service.submit(request)
            await service.drain(timeout_s=5)
            return service, first, second

        service, first, second = run_async(main())
        assert first.source == "computed"
        assert second.source == "store"
        assert service.metrics.count("serve.cache.hot_hit") == 0


class TestStoreLookupOnTheLoop:
    def test_loaded_namespace_hit_skips_the_thread(self, tmp_path,
                                                   monkeypatch):
        """A key in a loaded namespace's index is answered on the loop;
        with a fault plan armed it goes through ``_load_stored``, so a
        ``slow_io`` stall never blocks the loop."""
        counting_backend(monkeypatch, "model")
        request = mini_request()

        async def main():
            service = await _started(tmp_path, hot_max=0)
            lookups = []
            load = service._load_stored

            def spy(*args):
                lookups.append(args)
                return load(*args)

            monkeypatch.setattr(service, "_load_stored", spy)
            outcomes = [await service.submit(request)]   # reads the file
            counts = [len(lookups)]
            outcomes.append(await service.submit(request))
            counts.append(len(lookups))
            faults.configure("seed=7,slow_s=0.01,slow_io:1:site=serve")
            outcomes.append(await service.submit(request))
            counts.append(len(lookups))
            await service.drain(timeout_s=5)
            return service, outcomes, counts

        service, outcomes, counts = run_async(main())
        assert [o.source for o in outcomes] == ["computed", "store", "store"]
        assert counts == [1, 1, 2]
        assert service.metrics.count("serve.faults.slow_read") == 1
        assert service.metrics.count("serve.cache.store_hit") == 2

    def test_index_miss_refreshes_on_the_thread(self, tmp_path,
                                                monkeypatch):
        """A record another writer appended after this service loaded
        the namespace misses the loop-side index; the thread path's
        refresh finds it instead of recomputing."""
        calls = counting_backend(monkeypatch, "model")
        first = mini_request()
        later = EvalRequest(workload="cnn_lstm@frames=2+bins=32+hidden=32")

        async def main():
            reader = await _started(tmp_path, hot_max=0)
            writer = await _started(tmp_path)
            await reader.submit(first)                 # loads the namespace
            await writer.submit(later)                 # appended after it
            outcome = await reader.submit(later)
            for service in (reader, writer):
                await service.drain(timeout_s=5)
            return outcome

        outcome = run_async(main())
        assert outcome.source == "store"
        assert len(calls) == 2                         # later computed once

    def test_loop_reads_racing_refreshes_answer_right(self, tmp_path,
                                                      monkeypatch):
        """Stored keys read on the loop while misses refresh the same
        namespace on several threads: every answer is its own key's
        result, and its bytes are that result's encoding."""
        def answer(request):
            return fake_result(request,
                               cycles=float(len(request.workload)) / 7)

        counting_backend(monkeypatch, "model", fn=answer)

        def mini(frames: int, hidden: int) -> EvalRequest:
            return EvalRequest(
                workload=f"cnn_lstm@frames={frames}+bins=32+hidden={hidden}")

        stored = [mini(2, h) for h in range(1, 25)]
        missing = [mini(3, h) for h in range(1, 25)]

        async def main():
            writer = await _started(tmp_path)
            await asyncio.gather(*(writer.submit(r) for r in stored))
            await writer.drain(timeout_s=5)
            service = await _started(tmp_path, hot_max=0)
            await service.submit(stored[0])        # loads the namespace
            requests = [r for pair in zip(stored, missing) for r in pair] * 4
            outcomes = await asyncio.wait_for(asyncio.gather(
                *(service.submit(r) for r in requests)), timeout=30)
            await service.drain(timeout_s=5)
            return requests, outcomes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            requests, outcomes = run_async(main())
        finally:
            sys.setswitchinterval(interval)
        for request, outcome in zip(requests, outcomes):
            assert outcome.ok and outcome.key == request.key()
            expected = answer(request).to_dict()
            assert outcome.result.to_dict() == expected
            assert outcome.result_json == json.dumps(
                expected, sort_keys=True).encode()


class TestStoredResultBytes:
    """A stored result is encoded at most once per record, and its
    bytes follow the record when it is replaced or reloaded."""

    @staticmethod
    def _stored(root, request: EvalRequest) -> None:
        async def main():
            service = await _started(root)
            await service.submit(request)
            await service.drain(timeout_s=5)

        run_async(main())

    def test_two_store_hits_encode_the_result_once(self, tmp_path,
                                                   monkeypatch):
        counting_backend(monkeypatch, "model")
        request = mini_request()
        self._stored(tmp_path, request)
        encoded = []
        encode = store_module.encode_json

        def counting(payload):
            encoded.append(payload)
            return encode(payload)

        for module in (store_module, service_module):
            monkeypatch.setattr(module, "encode_json", counting)

        async def main():
            service = await _started(tmp_path, hot_max=0)
            # The first hit reads the file on a thread, the second
            # answers from the loaded index on the loop.
            outcomes = [await service.submit(request) for _ in range(2)]
            await service.drain(timeout_s=5)
            return outcomes

        outcomes = run_async(main())
        assert [o.source for o in outcomes] == ["store", "store"]
        assert len(encoded) == 1
        expected = json.dumps(outcomes[0].result.to_dict(),
                              sort_keys=True).encode()
        assert [o.result_json for o in outcomes] == [expected] * 2

    def test_replaced_and_reloaded_records_answer_their_own_bytes(
            self, tmp_path, monkeypatch):
        counting_backend(monkeypatch, "model")
        request = mini_request()
        self._stored(tmp_path, request)

        def replaced(store: ResultStore, cycles: float) -> dict:
            record = dict(store.get(request.key()))
            record["result"] = fake_result(request, cycles=cycles).to_dict()
            return record

        async def main():
            service = await _started(tmp_path, hot_max=0)
            answers = [await service.submit(request)]
            store = service.store
            store.put(request.key(), replaced(store, 7.0))
            answers.append(await service.submit(request))
            other = ResultStore(tmp_path, namespace=store.namespace)
            other.put(request.key(), replaced(other, 9.0))
            answers.append(await service.submit(request))  # not reloaded
            store.refresh()
            answers.append(await service.submit(request))
            await service.drain(timeout_s=5)
            return answers

        answers = run_async(main())
        assert [o.source for o in answers] == ["store"] * 4
        cycles = [json.loads(o.result_json)["layers"][0]["cycles"]
                  for o in answers]
        assert cycles == [100.0, 7.0, 7.0, 9.0]
        for outcome in answers:
            assert outcome.result_json == json.dumps(
                outcome.result.to_dict(), sort_keys=True).encode()


class TestBackpressure:
    def test_saturated_queue_rejects(self, tmp_path, monkeypatch):
        release = threading.Event()

        def slow(request):
            release.wait(timeout=10)
            return fake_result(request)

        counting_backend(monkeypatch, "model", fn=slow)
        reqs = [EvalRequest(
            workload=f"cnn_lstm@frames=2+bins=32+hidden={h}")
            for h in (16, 32, 64)]

        async def main():
            service = await _started(tmp_path, queue_max=1)
            # First miss: dispatched, blocks the batch thread.
            t1 = asyncio.create_task(service.submit(reqs[0]))
            await asyncio.sleep(0.1)
            # Second miss: parks in the (size-1) queue.
            t2 = asyncio.create_task(service.submit(reqs[1]))
            await asyncio.sleep(0.05)
            # Third miss: queue full -> settled 'rejected' immediately.
            rejected = await service.submit(reqs[2])
            release.set()
            first, second = await asyncio.gather(t1, t2)
            await service.drain(timeout_s=5)
            return service, first, second, rejected

        service, first, second, rejected = run_async(main())
        assert first.ok and second.ok
        assert not rejected.ok
        assert rejected.kind == "rejected"
        assert "saturated" in rejected.error
        assert service.metrics.count("serve.rejected") == 1


class TestFailures:
    """The failure table, computed inline (``workers=0``);
    :class:`TestPoolFailures` runs it through the supervised pool."""

    workers = 0

    def test_poison_request_fails_fast_with_last_error(self, tmp_path,
                                                       monkeypatch):
        def poison(request):
            raise ValueError("deterministically broken config")

        counting_backend(monkeypatch, "model", fn=poison)

        async def main():
            service = await _started(tmp_path, policy=FAST_RETRY,
                                     workers=self.workers)
            outcome = await service.submit(mini_request())
            await service.drain(timeout_s=5)
            return service, outcome

        service, outcome = run_async(main())
        assert not outcome.ok
        assert outcome.poisoned
        assert outcome.attempts == 1               # no retry on poison
        assert outcome.etype == "ValueError"
        assert "deterministically broken" in outcome.error
        assert service.metrics.count("serve.poisoned") == 1
        assert service.metrics.count("serve.failed") == 1
        assert _store_lines(tmp_path) == []        # failures don't persist

    def test_transient_failure_retries_then_commits(self, tmp_path,
                                                    monkeypatch):
        attempts = {"n": 0}

        def flaky(request):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient infrastructure weather")
            return fake_result(request)

        counting_backend(monkeypatch, "model", fn=flaky)

        async def main():
            service = await _started(tmp_path, policy=FAST_RETRY,
                                     workers=self.workers)
            outcome = await service.submit(mini_request())
            await service.drain(timeout_s=5)
            return service, outcome

        service, outcome = run_async(main())
        assert outcome.ok
        assert outcome.attempts == 2
        assert service.metrics.count("serve.retried") == 1
        (record,) = _store_lines(tmp_path)
        assert record["attempts"] == 2
        assert "transient" in record["last_error"]

    def test_retry_budget_exhausts(self, tmp_path, monkeypatch):
        def always_down(request):
            raise OSError("the disk is on fire")

        counting_backend(monkeypatch, "model", fn=always_down)

        async def main():
            service = await _started(
                tmp_path, policy=FAST_RETRY.with_overrides(max_attempts=2),
                workers=self.workers)
            outcome = await service.submit(mini_request())
            await service.drain(timeout_s=5)
            return service, outcome

        service, outcome = run_async(main())
        assert not outcome.ok
        assert not outcome.poisoned                # transient, not poison
        assert outcome.attempts == 2
        assert service.metrics.count("serve.failed") == 1


@FORK_ONLY
class TestPoolFailures(TestFailures):
    """The same table through the supervised pool (``workers=1``)."""

    workers = 1


@FORK_ONLY
class TestTimeout:
    def test_inline_service_enforces_the_timeout(self, tmp_path,
                                                 monkeypatch):
        # A timeout needs the watchdog even at workers=0, as a
        # campaign's does at --jobs 1.
        def hung(request):
            time.sleep(2.0)
            return fake_result(request)

        counting_backend(monkeypatch, "model", fn=hung)

        async def main():
            service = await _started(
                tmp_path, workers=0,
                policy=FAST_RETRY.with_overrides(timeout_s=0.5,
                                                 max_attempts=1))
            start = time.perf_counter()
            outcome = await service.submit(mini_request())
            elapsed = time.perf_counter() - start
            await service.drain(timeout_s=5)
            return service, outcome, elapsed

        service, outcome, elapsed = run_async(main())
        assert not outcome.ok
        assert outcome.kind == "timeout"
        assert outcome.attempts == 1
        assert elapsed < 1.5
        assert service.metrics.count("serve.timed_out") == 1
        assert _store_lines(tmp_path) == []


class TestDrain:
    def test_drain_rejects_new_misses_serves_caches(self, tmp_path,
                                                    monkeypatch):
        counting_backend(monkeypatch, "model")
        warm = mini_request()
        cold = EvalRequest(workload="cnn_lstm@frames=2+bins=32+hidden=32")

        async def main():
            service = await _started(tmp_path)
            await service.submit(warm)             # computed, hot now
            assert service.health()["status"] == "ok"
            settled = await service.drain(timeout_s=5)
            health = service.health()
            hot = await service.submit(warm)       # hot tier still answers
            miss = await service.submit(cold)      # new misses rejected
            return settled, health, hot, miss

        settled, health, hot, miss = run_async(main())
        assert settled
        assert health["status"] == "draining"
        assert hot.ok and hot.source == "hot"
        assert not miss.ok
        assert miss.kind == "draining"

    def test_drain_waits_for_inflight(self, tmp_path, monkeypatch):
        release = threading.Event()

        def slow(request):
            release.wait(timeout=10)
            return fake_result(request)

        counting_backend(monkeypatch, "model", fn=slow)

        async def main():
            service = await _started(tmp_path)
            task = asyncio.create_task(service.submit(mini_request()))
            await asyncio.sleep(0.1)               # dispatched, blocked
            drain = asyncio.create_task(service.drain(timeout_s=10))
            await asyncio.sleep(0.05)
            assert not drain.done()                # waiting on in-flight
            release.set()
            outcome = await task
            settled = await drain
            return settled, outcome

        settled, outcome = run_async(main())
        assert settled
        assert outcome.ok                          # finished, not dropped


class TestTwoClients:
    def test_two_services_one_store(self, tmp_path, monkeypatch):
        """Two service instances (two event loops, as two processes
        would be) against one store root: one computes, the other reads
        the committed record through the store tier, and concurrent
        distinct keys from both all persist."""
        calls = counting_backend(monkeypatch, "model")
        shared = mini_request()
        only_a = EvalRequest(workload="cnn_lstm@frames=2+bins=32+hidden=16")
        only_b = EvalRequest(workload="cnn_lstm@frames=2+bins=32+hidden=32")

        async def client(extra):
            service = await _started(tmp_path)
            outcomes = await asyncio.gather(service.submit(shared),
                                            service.submit(extra))
            await service.drain(timeout_s=5)
            return outcomes

        a_shared, a_extra = run_async(client(only_a))
        b_shared, b_extra = run_async(client(only_b))
        assert a_shared.source == "computed"
        assert b_shared.source == "store"          # client 2 reads client 1
        assert a_extra.ok and b_extra.ok
        assert a_shared.result.to_dict() == b_shared.result.to_dict()
        assert len(calls) == 3                     # shared computed once
        assert len(_store_lines(tmp_path)) == 3


class TestValidation:
    def test_invalid_request_raises_value_error(self, tmp_path):
        async def main():
            service = await _started(tmp_path)
            try:
                with pytest.raises(ValueError, match="unknown"):
                    await service.submit(
                        EvalRequest(workload="no_such_net"))
            finally:
                await service.drain(timeout_s=5)

        run_async(main())

    def test_submit_before_start_raises(self, tmp_path):
        async def main():
            service = EvalService(tmp_path)
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(mini_request())

        run_async(main())

    def test_constructor_bounds(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            EvalService(tmp_path, workers=-1)
        with pytest.raises(ValueError, match="queue_max"):
            EvalService(tmp_path, queue_max=0)

    def test_outcome_and_job_shapes(self):
        request = mini_request()
        assert not Outcome(key="k").ok
        assert Outcome(key="k", result=fake_result(request)).ok


class TestPoolMode:
    def test_pool_workers_compute_and_commit(self, tmp_path):
        """workers>=1 runs misses through the supervised WatchdogPool
        (real subprocesses, unpatched backends)."""
        request = mini_request()                   # model backend: fast

        async def main():
            service = await _started(tmp_path, workers=2,
                                     policy=FAST_RETRY)
            outcomes = await asyncio.gather(
                *(service.submit(request) for _ in range(4)))
            await service.drain(timeout_s=10)
            return service, outcomes

        service, outcomes = run_async(main())
        assert all(o.ok for o in outcomes)
        assert sorted(o.source for o in outcomes) == \
            ["coalesced"] * 3 + ["computed"]
        assert service.metrics.count("serve.evaluated") == 1
        assert len(_store_lines(tmp_path)) == 1
