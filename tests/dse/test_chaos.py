"""The chaos matrix: injected faults against the self-healing executor.

Each test arms a deterministic :class:`~repro.faults.FaultPlan` and
drives a real campaign (or the shared driver over cheap synthetic
points) straight through it, asserting the run completes without human
intervention and the self-healing counters match the injected plan
exactly.  The acceptance pins: (1) a seeded plan with crashes and a
guaranteed hang finishes with every point evaluated and the retried
results bit-identical to a clean run; (2) a poison point is
quarantined on its first attempt; (3) a torn store write is
re-evaluated on resume and quarantined by ``compact``.
"""

import os
import signal
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import pytest

from repro import faults, obs
from repro.dse.executor import CampaignRun, drive_points, run_campaign
from repro.dse.retry import RetryPolicy
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore, scan_jsonl
from repro.obs.report import aggregate, iter_events


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks into the next test (or the exported env)."""
    yield
    faults.configure(None)
    faults.clear_point_context()


@dataclass(frozen=True)
class ChaosPoint:
    """A picklable stand-in grid point; its name is its config key, so
    fault clauses can target it with ``key=<prefix>``."""

    name: str

    @property
    def label(self) -> str:
        return self.name

    def key(self) -> str:
        return self.name

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name}


def _ok_worker(point: ChaosPoint) -> tuple[str, dict[str, Any], float]:
    time.sleep(0.02)
    return point.key(), {"value": point.name}, 0.02


def _poison_worker(point: ChaosPoint) -> tuple[str, dict[str, Any], float]:
    if point.name.endswith("bad"):
        raise ValueError("deterministic bug")
    return _ok_worker(point)


def _points(prefix: str, n: int) -> list[ChaosPoint]:
    return [ChaosPoint(f"{prefix}{i}") for i in range(n)]


def _drive(points, store, *, jobs=1, policy=None, worker=_ok_worker,
           progress=None) -> CampaignRun:
    """drive_points over synthetic points with a real backing store."""
    run: CampaignRun = CampaignRun(
        spec=SimpleNamespace(name="chaos"), store_path=store.path,
        points=list(points), total=len(points))
    drive_points(
        points, run,
        jobs=jobs,
        worker=worker,
        cached_result=lambda p: (store.get(p.key()) or {}).get("result"),
        make_point_record=lambda p, payload, elapsed: {"result": payload},
        decode_result=lambda payload: payload,
        store=store,
        policy=policy,
        progress=progress,
    )
    return run


_FAST = dict(backoff_s=0.01, jitter=0.0)


class TestSelfHealingDriver:
    def test_crash_on_every_first_attempt_retries_to_success(self, tmp_path):
        faults.configure("seed=7,crash:1:attempt<1")
        store = ResultStore(tmp_path)
        points = _points("crash-", 4)
        events = []

        def progress(done, total, label, *, cached, elapsed_s):
            events.append((done, label))

        run = _drive(points, store, policy=RetryPolicy(**_FAST),
                     progress=progress)
        assert not run.failed
        assert (run.evaluated, run.retried) == (4, 4)
        assert (run.timed_out, run.poisoned) == (0, 0)
        assert all(run.attempts[p.key()] == 2 for p in points)
        assert all("InjectedFault" in run.last_error[p.key()]
                   for p in points)
        assert "retried=4" in run.summary_line
        # A retried point reports exactly once (terminal outcome only).
        assert [done for done, _ in events] == [1, 2, 3, 4]
        # The record remembers the bumpy history.
        record = store.get(points[0].key())
        assert record["attempts"] == 2
        assert "InjectedFault" in record["last_error"]

    def test_exhausted_retry_budget_becomes_failure(self, tmp_path):
        faults.configure("seed=7,crash:1")  # every attempt crashes
        run = _drive(_points("stub-", 2), ResultStore(tmp_path),
                     policy=RetryPolicy(max_attempts=2, **_FAST))
        assert len(run.failed) == 2
        assert run.poisoned == 0  # transient classification, budget spent
        assert all(attempts == 2 for attempts in run.attempts.values())
        assert "ERROR" in run.summary_line

    def test_poison_quarantined_on_first_attempt(self, tmp_path):
        points = [ChaosPoint("pois-ok"), ChaosPoint("pois-bad")]
        run = _drive(points, ResultStore(tmp_path), worker=_poison_worker,
                     policy=RetryPolicy(**_FAST))
        assert run.poisoned == 1
        assert run.retried == 0
        assert run.attempts["pois-bad"] == 1, "poison must not be retried"
        assert "ValueError" in run.failed["pois-bad"]
        assert "pois-ok" in run.results
        assert "poisoned=1" in run.summary_line

    def test_die_in_pool_detected_as_worker_death(self, tmp_path):
        faults.configure("seed=7,die:key=die-1:attempt<1")
        points = _points("die-", 3)
        run = _drive(points, ResultStore(tmp_path), jobs=2,
                     policy=RetryPolicy(backoff_s=0.05, jitter=0.0))
        assert not run.failed
        assert (run.evaluated, run.retried) == (3, 1)
        assert run.timed_out == 0
        assert "worker-died" in run.last_error["die-1"]

    def test_hang_killed_by_timeout_watchdog(self, tmp_path):
        faults.configure("seed=7,hang_s=30,hang:key=hg-1:attempt<1")
        points = _points("hg-", 3)
        run = _drive(points, ResultStore(tmp_path), jobs=2,
                     policy=RetryPolicy(timeout_s=1.5, backoff_s=0.05,
                                        jitter=0.0))
        assert not run.failed
        assert (run.retried, run.timed_out) == (1, 1)
        assert "timeout" in run.last_error["hg-1"]
        assert "timed_out=1" in run.summary_line

    def test_hang_killed_by_heartbeat_silence(self, tmp_path):
        # No per-point deadline at all: the hung worker is caught purely
        # by its heartbeat going silent.
        faults.configure("seed=7,hang_s=30,hang:key=hb-1:attempt<1")
        points = _points("hb-", 3)
        run = _drive(points, ResultStore(tmp_path), jobs=2,
                     policy=RetryPolicy(timeout_s=None,
                                        heartbeat_timeout_s=2.0,
                                        backoff_s=0.05, jitter=0.0))
        assert not run.failed
        assert (run.retried, run.timed_out) == (1, 1)
        assert "heartbeat-silent" in run.last_error["hb-1"]

    def test_sigint_stops_gracefully_and_resumes(self, tmp_path):
        points = _points("int-", 3)

        def progress(done, total, label, *, cached, elapsed_s):
            if done == 1:
                os.kill(os.getpid(), signal.SIGINT)

        run = _drive(points, ResultStore(tmp_path), progress=progress)
        assert run.interrupted
        assert run.interrupt_signum == signal.SIGINT
        assert run.evaluated == 1
        assert run.remaining == 2
        assert "INTERRUPTED: 2 points" in run.summary_line
        assert "rerun the same command to resume" in run.summary_line
        # The completed result is on disk; a rerun picks up the rest.
        resumed = _drive(points, ResultStore(tmp_path))
        assert not resumed.interrupted
        assert (resumed.cached, resumed.evaluated) == (1, 2)

    def test_torn_write_heals_on_resume_and_compact_quarantines(
            self, tmp_path):
        faults.configure("seed=7,torn_write:key=torn-0:attempt<1")
        points = _points("torn-", 2)
        run = _drive(points, ResultStore(tmp_path),
                     policy=RetryPolicy(**_FAST))
        assert run.evaluated == 2  # the tear is invisible to the writer
        fresh = ResultStore(tmp_path)
        scan = scan_jsonl(fresh.path)
        assert len(scan.records) == 1, "the torn record must be lost"
        assert len(scan.corrupt) == 1
        assert "torn-0" not in fresh

        # Resume: only the torn point re-evaluates, and its re-append
        # (write ordinal 1, past the attempt<1 gate) lands intact.
        resumed = _drive(points, ResultStore(tmp_path),
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
    def test_obs_counters_match_the_injected_plan(self, tmp_path):
        trace_root = tmp_path / "trace"
        obs.configure(trace_root)
        try:
            faults.configure("seed=7,crash:1:attempt<1")
            run = _drive(_points("cnt-", 3), ResultStore(tmp_path / "store"),
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
