"""The layer map: serial results from one thread per CPU, first error
in layer order, nothing left running, and serial in pool workers."""

from __future__ import annotations

import _thread
import contextvars
import json
import threading
import time

import pytest

from repro.dse.pool import WatchdogPool
from repro.dse.retry import RetryPolicy
from repro.eval.backends import SimBackend
from repro.eval.request import EvalRequest
from repro.utils import layermap
from repro.utils.layermap import map_layers

SIM_REQUEST = EvalRequest("cnn_lstm", "BitWave", backend="sim-vectorized")


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the map may use."""
    def patch(n: int) -> None:
        monkeypatch.setattr(layermap, "usable_cpus", lambda: n)
    return patch


class _Log:
    """Thread-safe record of which layers started, and how many ran at
    once."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.started: list[int] = []
        self.threads: set[int] = set()
        self.running = 0
        self.most = 0

    def enter(self, index: int) -> None:
        with self.lock:
            self.started.append(index)
            self.threads.add(threading.get_ident())
            self.running += 1
            self.most = max(self.most, self.running)

    def leave(self) -> None:
        with self.lock:
            self.running -= 1


def _threads_started_by(fn) -> int:
    started = []
    real = threading.Thread.start

    def counting(self: threading.Thread) -> None:
        started.append(self)
        real(self)

    threading.Thread.start = counting  # type: ignore[method-assign]
    try:
        fn()
    finally:
        threading.Thread.start = real  # type: ignore[method-assign]
    return len(started)


def test_results_match_a_serial_map_in_order(cpus):
    cpus(4)
    log = _Log()

    def square(index: int) -> int:
        log.enter(index)
        time.sleep(0.001 * (index % 5))
        log.leave()
        return index * index

    layers = list(range(40))
    assert map_layers(square, layers) == [i * i for i in layers]
    assert sorted(log.started) == layers
    assert log.most > 1, "the layers never ran side by side"


def test_the_first_failing_layer_in_layer_order_raises(cpus):
    cpus(2)

    def fail(index: int) -> int:
        if index == 0:
            time.sleep(0.1)  # fails last in time, first in layer order
            raise ValueError("layer 0")
        if index == 1:
            raise KeyError("layer 1")
        return index

    with pytest.raises(ValueError, match="layer 0"):
        map_layers(fail, range(10))


def test_no_layer_starts_after_an_error_and_no_thread_outlives(cpus):
    cpus(2)
    log = _Log()
    before = threading.active_count()

    def fail(index: int) -> int:
        log.enter(index)
        if index == 0:
            time.sleep(0.2)
        if index == 1:
            raise RuntimeError("boom")
        return index

    with pytest.raises(RuntimeError, match="boom"):
        map_layers(fail, range(20))
    assert sorted(log.started) == [0, 1]
    assert threading.active_count() == before


def test_no_layer_starts_after_a_keyboard_interrupt(cpus):
    cpus(2)
    log = _Log()
    before = threading.active_count()
    interrupted = threading.Event()

    def layer(index: int) -> int:
        log.enter(index)
        if threading.current_thread() is threading.main_thread():
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                time.sleep(0.001)  # the interrupt lands here
        elif not interrupted.is_set():
            interrupted.set()
            _thread.interrupt_main()
            time.sleep(0.05)
        else:
            time.sleep(0.05)
        return index

    with pytest.raises(KeyboardInterrupt):
        map_layers(layer, range(40))
    count = len(log.started)
    assert count <= 3, log.started
    assert threading.active_count() == before
    time.sleep(0.1)
    assert len(log.started) == count


def test_runs_at_most_one_thread_per_cpu(cpus):
    cpus(3)
    log = _Log()

    def layer(index: int) -> int:
        log.enter(index)
        time.sleep(0.02)
        log.leave()
        return index

    assert _threads_started_by(lambda: map_layers(layer, range(12))) == 2, \
        "the calling thread takes layers too"
    assert log.most <= 3
    assert len(log.threads) <= 3


def test_never_more_threads_than_layers(cpus):
    cpus(8)
    assert _threads_started_by(lambda: map_layers(str, [1, 2])) == 1, \
        "the calling thread takes layers too"
    assert _threads_started_by(lambda: map_layers(str, [1])) == 0


def test_each_layer_runs_in_a_copy_of_the_callers_context(cpus):
    cpus(2)
    var: contextvars.ContextVar[str] = contextvars.ContextVar("var")
    var.set("caller")

    def layer(index: int) -> str:
        seen = var.get()
        var.set(f"layer {index}")
        return seen

    assert map_layers(layer, range(6)) == ["caller"] * 6
    assert var.get() == "caller"


def test_sim_result_is_identical_serial_and_parallel(cpus):
    cpus(1)
    serial = SimBackend().evaluate(SIM_REQUEST).to_dict()
    cpus(2)
    parallel = SimBackend().evaluate(SIM_REQUEST).to_dict()
    assert json.dumps(parallel, sort_keys=True) \
        == json.dumps(serial, sort_keys=True)


def test_a_sim_evaluation_in_a_pool_worker_starts_no_threads(cpus):
    cpus(4)
    evaluate = lambda: SimBackend().evaluate(SIM_REQUEST)  # noqa: E731
    assert _threads_started_by(evaluate) == 3, "the check counts threads"

    outcomes = []

    def task(point, attempt):
        return _threads_started_by(evaluate), 0.0

    pool = WatchdogPool(task, jobs=1, policy=RetryPolicy(max_attempts=1))
    assert pool.run(["sim"], lambda point, attempt, payload, elapsed,
                    reason: outcomes.append((payload, reason)))
    assert outcomes == [(0, "ok")]
