"""Report aggregation and the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.__main__ import main
from repro.obs.report import (aggregate, iter_events, percentile,
                              report_data, slowest_spans)


def write_trace(directory, lines, name="trace-1-aa.jsonl"):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def span(name, dur_s, pid=1, ok=True, **attrs):
    event = {"t": "span", "name": name, "ts": 0.0, "dur_s": dur_s,
             "ok": ok, "pid": pid}
    if attrs:
        event["attrs"] = attrs
    return event


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.95) == 0.0

    def test_single(self):
        assert percentile([3.0], 0.50) == 3.0
        assert percentile([3.0], 0.95) == 3.0

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 1.0) == 100.0


class TestAggregate:
    def test_span_stats(self, tmp_path):
        write_trace(tmp_path, [
            span("sim.compute", 0.1),
            span("sim.compute", 0.3),
            span("sim.compute", 0.2, ok=False),
        ])
        data = aggregate(iter_events(tmp_path))
        stats = data["spans"]["sim.compute"]
        assert stats["count"] == 3
        assert stats["total_s"] == pytest.approx(0.6)
        assert stats["mean_s"] == pytest.approx(0.2)
        assert stats["p50_s"] == pytest.approx(0.2)
        assert stats["max_s"] == pytest.approx(0.3)
        assert stats["errors"] == 1

    def test_counter_breakdown(self, tmp_path):
        write_trace(tmp_path, [
            {"t": "counter", "name": "eval.cache", "n": 1, "pid": 1,
             "attrs": {"result": "miss", "backend": "model"}},
            {"t": "counter", "name": "eval.cache", "n": 1, "pid": 1,
             "attrs": {"result": "miss", "backend": "model"}},
            {"t": "counter", "name": "eval.cache", "n": 3, "pid": 2,
             "attrs": {"result": "store", "backend": "model"}},
        ])
        data = aggregate(iter_events(tmp_path))
        entry = data["counters"]["eval.cache"]
        assert entry["total"] == 5
        assert entry["breakdown"] == {
            "backend=model,result=miss": 2,
            "backend=model,result=store": 3,
        }

    def test_gauges_and_processes(self, tmp_path):
        write_trace(tmp_path, [
            {"t": "gauge", "name": "queue.depth", "value": 2.0, "pid": 1},
            {"t": "gauge", "name": "queue.depth", "value": 6.0, "pid": 2},
        ])
        data = aggregate(iter_events(tmp_path))
        assert data["gauges"]["queue.depth"] == {
            "count": 2, "min": 2.0, "mean": 4.0, "max": 6.0}
        assert data["processes"] == 2
        assert data["events"] == 2

    def test_merges_files_in_name_order(self, tmp_path):
        write_trace(tmp_path, [span("a", 0.1, pid=2)],
                    name="trace-2-bb.jsonl")
        write_trace(tmp_path, [span("a", 0.2, pid=1)],
                    name="trace-1-aa.jsonl")
        events = list(iter_events(tmp_path))
        assert [event["pid"] for event in events] == [1, 2]
        assert aggregate(events)["spans"]["a"]["count"] == 2

    def test_missing_directory(self, tmp_path):
        data = aggregate(iter_events(tmp_path / "nope"))
        assert data["events"] == 0
        assert data["spans"] == {}

    def test_tolerates_garbage_lines(self, tmp_path):
        path = write_trace(tmp_path, [span("ok", 0.1)])
        with path.open("a") as handle:
            handle.write("not json\n")
            handle.write('{"t": "span", "name": "to')  # torn write
        data = aggregate(iter_events(tmp_path))
        assert data["events"] == 1


class TestSlowest:
    def test_top_n_longest_first(self, tmp_path):
        write_trace(tmp_path, [
            span("a", 0.1, label="p1"),
            span("b", 0.5, label="p2"),
            span("c", 0.3, label="p3"),
            {"t": "counter", "name": "noise", "n": 1, "pid": 1},
        ])
        slowest = slowest_spans(iter_events(tmp_path), top=2)
        assert [entry["name"] for entry in slowest] == ["b", "c"]
        assert slowest[0]["attrs"] == {"label": "p2"}


class TestReportData:
    def test_round_trip_from_tracer(self, trace_dir):
        with obs.trace("phase.x", layer="conv"):
            pass
        obs.counter("hits", n=2)
        obs.gauge("depth", 4.0)
        obs.flush()
        data = report_data(trace_dir, top=5)
        assert data["spans"]["phase.x"]["count"] == 1
        assert data["counters"]["hits"]["total"] == 2
        assert data["gauges"]["depth"]["count"] == 1
        assert data["slowest"][0]["name"] == "phase.x"
        assert data["dir"] == str(trace_dir)


class TestCli:
    def test_report_table(self, tmp_path, capsys):
        write_trace(tmp_path, [span("sim.compute", 0.25, layer="fc1"),
                               {"t": "counter", "name": "hits", "n": 3,
                                "pid": 1}])
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.compute" in out
        assert "Per-phase span latency" in out
        assert "Counters" in out
        assert "Slowest spans" in out

    def test_report_json(self, tmp_path, capsys):
        write_trace(tmp_path, [span("a", 0.1)])
        assert main(["report", str(tmp_path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spans"]["a"]["count"] == 1
        assert data["events"] == 1

    def test_slow_subcommand(self, tmp_path, capsys):
        write_trace(tmp_path, [span("a", 0.1, label="x"),
                               span("b", 0.9, label="y")])
        assert main(["slow", str(tmp_path), "--top", "1",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == ["b"]

    def test_empty_directory(self, tmp_path, capsys):
        tmp_path.joinpath("empty").mkdir()
        assert main(["report", str(tmp_path / "empty")]) == 0
        assert "(no events)" in capsys.readouterr().out
