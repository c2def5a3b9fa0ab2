"""Tracer core: emission, enable/disable, buffering, process safety."""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro import obs
from repro.obs import tracer
from repro.obs.report import iter_events


def read_events(directory):
    return list(iter_events(directory))


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.trace_dir() is None

    def test_trace_returns_shared_null_span(self):
        # The no-op span is one shared object: the disabled hot path
        # allocates nothing per call.
        a = obs.trace("x", attr=1)
        b = obs.trace("y")
        assert a is b
        with a:
            pass

    def test_counter_gauge_observe_are_noops(self, tmp_path):
        obs.counter("c", n=3)
        obs.gauge("g", 1.0)
        obs.observe("o", 0.5)
        obs.flush()
        assert not list(tmp_path.iterdir())

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.trace("x"):
                raise RuntimeError("boom")


class TestEmission:
    def test_span_event(self, trace_dir):
        with obs.trace("phase.one", layer="conv1"):
            pass
        obs.flush()
        (event,) = read_events(trace_dir)
        assert event["t"] == "span"
        assert event["name"] == "phase.one"
        assert event["attrs"] == {"layer": "conv1"}
        assert event["dur_s"] >= 0.0
        assert event["ok"] is True
        assert event["pid"] == os.getpid()

    def test_span_records_failure(self, trace_dir):
        with pytest.raises(ValueError):
            with obs.trace("phase.bad"):
                raise ValueError("nope")
        obs.flush()
        (event,) = read_events(trace_dir)
        assert event["ok"] is False

    def test_counter_and_gauge_and_observe(self, trace_dir):
        obs.counter("hits", n=2, backend="model")
        obs.gauge("depth", 7.0)
        obs.observe("lock.wait", 0.25, namespace="ns")
        obs.flush()
        by_name = {event["name"]: event for event in read_events(trace_dir)}
        assert by_name["hits"]["n"] == 2
        assert by_name["hits"]["attrs"] == {"backend": "model"}
        assert by_name["depth"]["value"] == 7.0
        assert by_name["lock.wait"]["t"] == "span"
        assert by_name["lock.wait"]["dur_s"] == 0.25

    def test_events_buffer_until_flush(self, trace_dir):
        obs.counter("c")
        assert read_events(trace_dir) == []
        obs.flush()
        assert len(read_events(trace_dir)) == 1

    def test_auto_flush_at_batch_size(self, trace_dir):
        for _ in range(tracer.FLUSH_EVERY):
            obs.counter("c")
        assert len(read_events(trace_dir)) == tracer.FLUSH_EVERY


class TestConfigure:
    def test_configure_sets_and_clears_env(self, tmp_path):
        resolved = obs.configure(tmp_path / "t")
        assert os.environ[obs.TRACE_ENV] == str(resolved)
        assert obs.enabled()
        assert obs.trace_dir() == resolved
        obs.configure(None)
        assert obs.TRACE_ENV not in os.environ
        assert not obs.enabled()

    def test_configure_flushes_previous_sink(self, tmp_path):
        obs.configure(tmp_path / "a")
        obs.counter("c")
        obs.configure(tmp_path / "b")  # must not lose the buffered event
        assert len(read_events(tmp_path / "a")) == 1
        obs.configure(None)

    def test_env_init(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "envtrace"))
        tracer._init_from_env()
        try:
            assert obs.enabled()
            obs.counter("c")
            obs.flush()
            assert len(read_events(tmp_path / "envtrace")) == 1
        finally:
            obs.configure(None)


def _child_emit(directory: str) -> None:
    # Runs in a forked child that inherited the parent's live sink:
    # its events must land in a file of its own.
    obs.counter("from_child")
    obs.flush()


class TestProcessSafety:
    def test_one_file_per_process(self, trace_dir):
        obs.counter("from_parent")
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_child_emit, args=(str(trace_dir),))
        proc.start()
        proc.join()
        assert proc.exitcode == 0
        obs.flush()
        events = read_events(trace_dir)
        names = {event["name"] for event in events}
        assert names == {"from_parent", "from_child"}
        # Two distinct pids, two distinct files.
        assert len({event["pid"] for event in events}) == 2
        assert len(list(trace_dir.glob("trace-*.jsonl"))) == 2

    def test_forked_child_does_not_replay_parent_buffer(self, trace_dir):
        # The parent's unflushed event must appear exactly once even
        # though the child inherits the buffer via fork.
        obs.counter("parent_only")
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_child_emit, args=(str(trace_dir),))
        proc.start()
        proc.join()
        obs.flush()
        events = [event for event in read_events(trace_dir)
                  if event["name"] == "parent_only"]
        assert len(events) == 1

    def test_threads_lose_and_repeat_no_event(self, trace_dir):
        threads, events = 4, 5000
        workers = [threading.Thread(
            target=lambda: [obs.counter("tick") for _ in range(events)])
            for _ in range(threads)]
        # Frequent thread switches put one thread's append in the
        # middle of another's flush.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        obs.flush()
        lines = sum(len(path.read_text().splitlines())
                    for path in trace_dir.glob("trace-*.jsonl"))
        assert lines == threads * events

    def test_torn_trailing_line_tolerated(self, trace_dir):
        obs.counter("good")
        obs.flush()
        path = next(iter(trace_dir.glob("trace-*.jsonl")))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"t": "counter", "name": "to')  # torn write
        events = read_events(trace_dir)
        assert [event["name"] for event in events] == ["good"]

    def test_lines_are_valid_json(self, trace_dir):
        obs.counter("a", n=1, label="x/y")
        with obs.trace("b"):
            pass
        obs.flush()
        path = next(iter(trace_dir.glob("trace-*.jsonl")))
        for line in path.read_text().splitlines():
            json.loads(line)
