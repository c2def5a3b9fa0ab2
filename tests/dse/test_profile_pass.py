"""The executor's profile pass: each layer profiled once per campaign.

A cold pooled campaign profiles its model networks layer by layer over
the pool before the point workers fork, and the workers inherit the
profiles.  Calls to ``synthetic_weights`` are logged to a file by a
wrapper installed before any fork, so the log covers every process.
A profile task that fails is dropped, and the point's worker profiles
that layer itself; an interrupt during the pass stops the campaign
before the point pool forks.
"""

from __future__ import annotations

import os
import signal
from collections import Counter

import pytest

from repro.dse import executor
from repro.dse.executor import run_campaign
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore
from repro.sparsity import profiles
from repro.workloads.nets import network_layers

NETWORKS = ("cnn_lstm", "mobilenetv2")


def _spec(**overrides) -> CampaignSpec:
    base = dict(name="profile-pass", accelerators=("SCNN", "Stripes"),
                networks=NETWORKS)
    base.update(overrides)
    return CampaignSpec(**base)


def _forget_profiles() -> None:
    profiles.network_weight_stats.cache_clear()
    profiles._LAYER_STATS.clear()


@pytest.fixture
def cold_profiles():
    """This process's profile caches, empty as in a fresh CLI run."""
    _forget_profiles()
    yield
    _forget_profiles()


@pytest.fixture
def weight_log(monkeypatch, tmp_path):
    """Log every ``synthetic_weights`` call, in any process, to a file;
    returns a reader of ``(network, layer) -> calls``."""
    log = tmp_path / "weights.log"
    real = profiles.synthetic_weights

    def logged(spec):
        with log.open("a") as handle:
            handle.write(f"{spec.network} {spec.name}\n")
        return real(spec)

    monkeypatch.setattr(profiles, "synthetic_weights", logged)

    def calls() -> Counter:
        if not log.exists():
            return Counter()
        return Counter(tuple(line.split())
                       for line in log.read_text().splitlines())

    return calls


def test_pooled_campaign_profiles_each_layer_once(
        cold_profiles, weight_log, tmp_path):
    run = run_campaign(_spec(), ResultStore(tmp_path), jobs=2)
    assert (run.evaluated, len(run.failed)) == (4, 0)
    calls = weight_log()
    layers = {(spec.network, spec.name)
              for network in NETWORKS for spec in network_layers(network)}
    assert set(calls) == layers
    twice = sorted(layer for layer, n in calls.items() if n > 1)
    assert not twice, f"profiled more than once: {twice}"


def test_serial_and_sim_only_campaigns_skip_the_pass(
        cold_profiles, weight_log, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the profile pass started a pool")

    sim_only = _spec(networks=("cnn_lstm@frames=2+bins=32+hidden=32",
                               "cnn_lstm@frames=2+bins=16+hidden=16"),
                     accelerators=("BitWave",), backends=("sim-vectorized",))
    run = run_campaign(sim_only, ResultStore(tmp_path / "sim"), jobs=2)
    assert run.evaluated == 2
    assert not weight_log()
    monkeypatch.setattr(executor, "WatchdogPool", no_pool)
    run = run_campaign(_spec(networks=("cnn_lstm",)),
                       ResultStore(tmp_path / "serial"), jobs=1)
    assert run.evaluated == 2


@pytest.mark.parametrize("fault", ["raise", "die"])
def test_dropped_profile_task_is_profiled_by_the_point_worker(
        cold_profiles, monkeypatch, tmp_path, fault):
    spec = _spec(networks=("cnn_lstm",))
    serial = run_campaign(spec, ResultStore(tmp_path / "serial"), jobs=1)
    _forget_profiles()
    victim = network_layers("cnn_lstm")[0]
    real = executor.layer_weight_stats

    def faulty(layer):
        if layer == victim:
            if fault == "die":
                os._exit(137)
            raise RuntimeError("injected profile fault")
        return real(layer)

    monkeypatch.setattr(executor, "layer_weight_stats", faulty)
    pooled = run_campaign(spec, ResultStore(tmp_path / "pooled"), jobs=2)
    assert (pooled.evaluated, len(pooled.failed)) == (2, 0)
    assert pooled.results == serial.results
    # The parent installed every other layer but never profiled the
    # dropped one itself, nor loaded the network it belongs to.
    assert victim not in profiles._LAYER_STATS
    assert len(profiles._LAYER_STATS) == len(network_layers("cnn_lstm")) - 1
    assert profiles.network_weight_stats.cache_info().currsize == 0


def test_sigint_during_the_pass_stops_the_campaign(
        cold_profiles, monkeypatch, tmp_path):
    spec = _spec(networks=("cnn_lstm",))
    parent = os.getpid()
    first = network_layers("cnn_lstm")[0]
    real = executor.layer_weight_stats

    def interrupting(layer):
        if layer == first:
            os.kill(parent, signal.SIGINT)
        return real(layer)

    pool_tasks = []
    real_pool = executor.WatchdogPool

    def recording_pool(task, *args, **kwargs):
        pool_tasks.append(task)
        return real_pool(task, *args, **kwargs)

    monkeypatch.setattr(executor, "layer_weight_stats", interrupting)
    monkeypatch.setattr(executor, "WatchdogPool", recording_pool)
    run = run_campaign(spec, ResultStore(tmp_path), jobs=2)
    assert run.interrupted
    assert run.interrupt_signum == signal.SIGINT
    assert (run.evaluated, run.remaining) == (0, 2)
    assert pool_tasks == [executor._profile_task], "forked a point pool"
    monkeypatch.undo()
    resumed = run_campaign(spec, ResultStore(tmp_path), jobs=2)
    assert not resumed.interrupted
    assert (resumed.cached, resumed.evaluated) == (0, 2)
