"""The chaos matrix: injected faults against the self-healing campaign.

Each test arms a deterministic :class:`~repro.faults.FaultPlan` and
drives a campaign straight through it -- a real one, or one over
sim-backed points whose backend is stubbed to a 20 ms fake, so only
the evaluation engine's machinery is under test -- asserting the run
completes without human intervention and the self-healing counters
match the injected plan exactly.  The acceptance pins: (1) a seeded
plan with crashes and a guaranteed hang finishes with every point
evaluated and the retried results bit-identical to a clean run; (2) a
poison point is quarantined on its first attempt; (3) a torn store
write is re-evaluated on resume and quarantined by ``compact``.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import faults, obs
from repro.dse.executor import run_campaign
from repro.dse.retry import RetryPolicy
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore, scan_jsonl
from repro.eval.registry import get_backend
from repro.eval.result import EvalResult, LayerResult
from repro.obs.report import aggregate, iter_events

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a pool worker sees the stubbed backend only when forked "
           "from this process")


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks into the next test (or the exported env)."""
    yield
    faults.configure(None)
    faults.clear_point_context()


def _spec(n: int) -> CampaignSpec:
    """``n`` sim-backed BitWave points: model-free, so no profile pass
    runs, and fault clauses target them by key."""
    return CampaignSpec(
        name="chaos", accelerators=("BitWave",), backends=("sim-vectorized",),
        networks=tuple(f"cnn_lstm@frames={i + 1}+bins=32+hidden=32"
                       for i in range(n)))


@pytest.fixture
def stub(monkeypatch):
    """Stub the sim backend: every evaluation answers a fake result
    after 20 ms, except the keys passed in, which raise a deterministic
    bug (poison).  Forked pool workers inherit the stub."""

    def install(*poisoned: str) -> None:
        def evaluate(request):
            if request.key() in poisoned:
                raise ValueError("deterministic bug")
            time.sleep(0.02)
            return EvalResult(
                workload=request.workload,
                config_label=request.config_label, backend=request.backend,
                layers=(LayerResult(name="l0", macs=1000, cycles=100.0,
                                    energy_pj=5.0,
                                    energy={"dram": 2.0, "sram": 1.0,
                                            "reg": 1.0, "compute": 1.0}),))

        monkeypatch.setattr(get_backend("sim-vectorized"), "evaluate",
                            evaluate)

    install()
    return install


def _keys(spec: CampaignSpec) -> list[str]:
    return [point.key() for point in spec.points()]


_FAST = dict(backoff_s=0.01, jitter=0.0)


class TestSelfHealingDriver:
    def test_crash_on_every_first_attempt_retries_to_success(
            self, tmp_path, stub):
        faults.configure("seed=7,crash:1:attempt<1")
        store = ResultStore(tmp_path)
        spec = _spec(4)
        events = []

        def progress(done, total, label, *, cached, elapsed_s):
            events.append((done, label))

        run = run_campaign(spec, store, policy=RetryPolicy(**_FAST),
                           progress=progress)
        assert not run.failed
        assert (run.evaluated, run.retried) == (4, 4)
        assert (run.timed_out, run.poisoned) == (0, 0)
        assert all(run.attempts[key] == 2 for key in _keys(spec))
        assert all("InjectedFault" in run.last_error[key]
                   for key in _keys(spec))
        assert "retried=4" in run.summary_line
        # A retried point reports exactly once (terminal outcome only).
        assert [done for done, _ in events] == [1, 2, 3, 4]
        # The record remembers the bumpy history.
        record = store.get(_keys(spec)[0])
        assert record["attempts"] == 2
        assert "InjectedFault" in record["last_error"]

    def test_exhausted_retry_budget_becomes_failure(self, tmp_path, stub):
        faults.configure("seed=7,crash:1")  # every attempt crashes
        run = run_campaign(_spec(2), ResultStore(tmp_path),
                           policy=RetryPolicy(max_attempts=2, **_FAST))
        assert len(run.failed) == 2
        assert run.poisoned == 0  # transient classification, budget spent
        assert all(attempts == 2 for attempts in run.attempts.values())
        assert "ERROR" in run.summary_line

    def test_poison_quarantined_on_first_attempt(self, tmp_path, stub):
        spec = _spec(2)
        ok, bad = _keys(spec)
        stub(bad)
        run = run_campaign(spec, ResultStore(tmp_path),
                           policy=RetryPolicy(**_FAST))
        assert run.poisoned == 1
        assert run.retried == 0
        assert run.attempts[bad] == 1, "poison must not be retried"
        assert "ValueError" in run.failed[bad]
        assert ok in run.results
        assert "poisoned=1" in run.summary_line

    @FORK_ONLY
    def test_die_in_pool_detected_as_worker_death(self, tmp_path, stub):
        spec = _spec(3)
        victim = _keys(spec)[1]
        faults.configure(f"seed=7,die:key={victim}:attempt<1")
        run = run_campaign(spec, ResultStore(tmp_path), jobs=2,
                           policy=RetryPolicy(backoff_s=0.05, jitter=0.0))
        assert not run.failed
        assert (run.evaluated, run.retried) == (3, 1)
        assert run.timed_out == 0
        assert "worker-died" in run.last_error[victim]

    @FORK_ONLY
    def test_hang_killed_by_timeout_watchdog(self, tmp_path, stub):
        spec = _spec(3)
        victim = _keys(spec)[1]
        faults.configure(f"seed=7,hang_s=30,hang:key={victim}:attempt<1")
        run = run_campaign(spec, ResultStore(tmp_path), jobs=2,
                           policy=RetryPolicy(timeout_s=1.5, backoff_s=0.05,
                                              jitter=0.0))
        assert not run.failed
        assert (run.retried, run.timed_out) == (1, 1)
        assert "timeout" in run.last_error[victim]
        assert "timed_out=1" in run.summary_line

    @FORK_ONLY
    def test_hang_killed_by_heartbeat_silence(self, tmp_path, stub):
        # No per-point deadline at all: the hung worker is caught purely
        # by its heartbeat going silent.
        spec = _spec(3)
        victim = _keys(spec)[1]
        faults.configure(f"seed=7,hang_s=30,hang:key={victim}:attempt<1")
        run = run_campaign(spec, ResultStore(tmp_path), jobs=2,
                           policy=RetryPolicy(timeout_s=None,
                                              heartbeat_timeout_s=2.0,
                                              backoff_s=0.05, jitter=0.0))
        assert not run.failed
        assert (run.retried, run.timed_out) == (1, 1)
        assert "heartbeat-silent" in run.last_error[victim]

    def test_sigint_stops_gracefully_and_resumes(self, tmp_path, stub):
        spec = _spec(3)

        def progress(done, total, label, *, cached, elapsed_s):
            if done == 1:
                os.kill(os.getpid(), signal.SIGINT)

        run = run_campaign(spec, ResultStore(tmp_path), progress=progress)
        assert run.interrupted
        assert run.interrupt_signum == signal.SIGINT
        assert run.evaluated == 1
        assert run.remaining == 2
        assert "INTERRUPTED: 2 points" in run.summary_line
        assert "rerun the same command to resume" in run.summary_line
        # The completed result is on disk; a rerun picks up the rest.
        resumed = run_campaign(spec, ResultStore(tmp_path))
        assert not resumed.interrupted
        assert (resumed.cached, resumed.evaluated) == (1, 2)

    def test_torn_write_heals_on_resume_and_compact_quarantines(
            self, tmp_path, stub):
        spec = _spec(2)
        torn = _keys(spec)[0]
        faults.configure(f"seed=7,torn_write:key={torn}:attempt<1")
        run = run_campaign(spec, ResultStore(tmp_path),
                           policy=RetryPolicy(**_FAST))
        assert run.evaluated == 2  # the tear is invisible to the writer
        fresh = ResultStore(tmp_path)
        scan = scan_jsonl(fresh.path)
        assert len(scan.records) == 1, "the torn record must be lost"
        assert len(scan.corrupt) == 1
        assert torn not in fresh

        # Resume: only the torn point re-evaluates, and its re-append
        # (write ordinal 1, past the attempt<1 gate) lands intact.
        resumed = run_campaign(spec, ResultStore(tmp_path),
                               policy=RetryPolicy(**_FAST))
        assert (resumed.cached, resumed.evaluated) == (1, 1)
        healed = ResultStore(tmp_path)
        assert len(scan_jsonl(healed.path).records) == 2

        # compact() preserves the fragment in a quarantine sidecar.
        healed.compact()
        sidecars = list(healed.path.parent.glob("corrupt-*.jsonl"))
        assert len(sidecars) == 1
        fragment = sidecars[0].read_text(encoding="utf-8").strip()
        assert scan.corrupt[0] == fragment
        final = scan_jsonl(healed.path)
        assert (len(final.records), final.corrupt) == (2, ())


class TestChaosCounters:
    def test_obs_counters_match_the_injected_plan(self, tmp_path, stub):
        trace_root = tmp_path / "trace"
        obs.configure(trace_root)
        try:
            faults.configure("seed=7,crash:1:attempt<1")
            run = run_campaign(_spec(3), ResultStore(tmp_path / "store"),
                               policy=RetryPolicy(**_FAST))
        finally:
            obs.configure(None)
            faults.configure(None)
        assert run.retried == 3
        counters = aggregate(iter_events(trace_root))["counters"]
        assert counters["faults.injected"]["total"] == 3
        assert counters["dse.points.retried"]["total"] == 3
        assert counters["dse.point.recovered"]["total"] == 3
        assert counters["dse.points.timed_out"]["total"] == 0
        assert counters["dse.points.poisoned"]["total"] == 0
        assert counters["dse.points.evaluated"]["total"] == 3


class TestRealCampaignChaos:
    """The ISSUE acceptance: a seeded chaos plan (every point crashes
    once, one targeted point hangs) against the real evaluation grid
    completes with zero human intervention and the retried results are
    bit-identical to a clean run."""

    def test_crash_plus_hang_campaign_is_bit_identical(self, tmp_path):
        spec = CampaignSpec(name="chaos", accelerators=("SCNN", "Stripes"),
                            networks=("cnn_lstm",))
        clean = run_campaign(spec, ResultStore(tmp_path / "clean"), jobs=2)
        assert not clean.failed

        hang_key = spec.points()[0].key()
        plan = faults.configure(
            f"seed=7,hang_s=30,hang:key={hang_key}:attempt<1,"
            f"crash:1:attempt<1")
        # The plan is its own oracle: every point is hit exactly once
        # on its first attempt (the hang clause shadows the crash for
        # the targeted key -- first match wins).
        injected = list(plan.planned(
            "eval", [p.key() for p in spec.points()]))
        assert len(injected) == 2
        assert {clause.kind for _, _, clause in injected} \
            == {"hang", "crash"}

        chaos = run_campaign(
            spec, ResultStore(tmp_path / "chaos"), jobs=2,
            policy=RetryPolicy(timeout_s=6.0, backoff_s=0.05, jitter=0.0))
        assert not chaos.failed
        assert chaos.retried == 2, "every point needed its retry"
        assert chaos.timed_out == 1, "exactly the planned hang"
        assert chaos.poisoned == 0
        assert chaos.results == clean.results, \
            "retried results must be bit-identical to the clean run"
        # The store remembers which point had the bumpy ride.
        record = ResultStore(tmp_path / "chaos").get(hang_key)
        assert record["attempts"] == 2
