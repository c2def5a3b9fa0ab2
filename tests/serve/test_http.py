"""The HTTP front end, over a real socket on an ephemeral port.

Every test speaks actual HTTP/1.1 to an ``asyncio.start_server``
instance -- no handler-poking -- so the request parser, routing,
status mapping, and JSON serialization are all on the hook.
"""

from __future__ import annotations

import asyncio
from urllib.parse import quote, urlencode

from repro.serve.http import (
    outcome_status,
    request_from_query,
    spec_from_query,
    start_http,
)
from repro.serve.service import EvalService, Outcome
from serve_helpers import (
    MINI_WORKLOAD,
    counting_backend,
    fake_result,
    http_request,
    mini_request,
    run_async,
)

EVAL_PATH = "/eval?" + urlencode({"workload": MINI_WORKLOAD})


async def _served(root, **kwargs):
    service = EvalService(root, **kwargs)
    await service.start()
    server = await start_http(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return service, server, port


async def _shutdown(service, server):
    server.close()
    await server.wait_closed()
    await service.drain(timeout_s=5)


class TestEndpoints:
    def test_healthz_eval_metrics_roundtrip(self, tmp_path, monkeypatch):
        counting_backend(monkeypatch, "model")

        async def main():
            service, server, port = await _served(tmp_path)
            health = await http_request(port, "GET", "/healthz")
            first = await http_request(port, "GET", EVAL_PATH)
            repeat = await http_request(port, "GET", EVAL_PATH)
            metrics = await http_request(port, "GET", "/metrics")
            await _shutdown(service, server)
            return health, first, repeat, metrics

        health, first, repeat, metrics = run_async(main())
        assert health[0] == 200 and health[2]["status"] == "ok"
        assert first[0] == 200
        assert first[2]["source"] == "computed"
        # The served result carries the canonical workload spelling
        # (parameters sorted), not necessarily the query's.
        assert first[2]["result"]["workload"] == mini_request().workload
        assert repeat[0] == 200 and repeat[2]["source"] == "hot"
        assert metrics[0] == 200
        counters = metrics[2]["counters"]
        assert counters["serve.cache.hot_hit"] == 1
        assert counters["serve.evaluated"] == 1
        assert metrics[2]["gauges"]["serve.hot_entries"] == 1
        assert metrics[2]["latency"]["count"] >= 2

    def test_batch_coalesces_identical_requests(self, tmp_path,
                                                monkeypatch):
        counting_backend(monkeypatch, "model")
        entry = mini_request().to_dict()

        async def main():
            service, server, port = await _served(tmp_path)
            batch = await http_request(port, "POST", "/eval/batch",
                                       body=[entry] * 8)
            metrics = await http_request(port, "GET", "/metrics")
            await _shutdown(service, server)
            return batch, metrics

        batch, metrics = run_async(main())
        assert batch[0] == 200
        assert batch[2]["count"] == 8
        assert all(item["ok"] and item["status"] == 200
                   for item in batch[2]["results"])
        counters = metrics[2]["counters"]
        assert counters["serve.coalesced"] == 7
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.evaluated"] == 1

    def test_summary_and_pareto_over_served_results(self, tmp_path,
                                                    monkeypatch):
        counting_backend(monkeypatch, "model")
        grid = urlencode({"name": "mini", "accelerators": "BitWave",
                          "networks": MINI_WORKLOAD})

        async def main():
            service, server, port = await _served(tmp_path)
            await http_request(port, "GET", EVAL_PATH)  # prewarm 1 point
            summary = await http_request(port, "GET", f"/summary?{grid}")
            pareto = await http_request(
                port, "GET", f"/pareto?{grid}&x=cycles&y=energy")
            await _shutdown(service, server)
            return summary, pareto

        summary, pareto = run_async(main())
        assert summary[0] == 200
        assert summary[2]["campaign"] == "mini"
        (row,) = summary[2]["rows"]
        assert row["network"] == MINI_WORKLOAD
        assert row["cycles"] > 0
        assert pareto[0] == 200
        assert pareto[2]["x"] == "cycles"
        assert len(pareto[2]["rows"]) == 1

    def test_dashboard_served_as_html(self, tmp_path):
        async def main():
            service, server, port = await _served(tmp_path)
            root = await http_request(port, "GET", "/")
            dash = await http_request(port, "GET", "/dashboard")
            await _shutdown(service, server)
            return root, dash

        root, dash = run_async(main())
        for status, headers, text in (root, dash):
            assert status == 200
            assert headers["content-type"].startswith("text/html")
            assert "repro.serve" in text
            assert "/metrics" in text       # it polls the JSON API


class TestErrorMapping:
    def test_missing_workload_is_400(self, tmp_path):
        async def main():
            service, server, port = await _served(tmp_path)
            reply = await http_request(port, "GET", "/eval")
            bad_int = await http_request(
                port, "GET", "/eval?workload=cnn_lstm&batch=two")
            await _shutdown(service, server)
            return reply, bad_int

        reply, bad_int = run_async(main())
        assert reply[0] == 400
        assert "workload" in reply[2]["error"]
        assert bad_int[0] == 400
        assert "batch" in bad_int[2]["error"]

    def test_unknown_path_404_wrong_method_405(self, tmp_path):
        async def main():
            service, server, port = await _served(tmp_path)
            missing = await http_request(port, "GET", "/nope")
            wrong = await http_request(port, "POST", "/healthz")
            get_batch = await http_request(port, "GET", "/eval/batch")
            await _shutdown(service, server)
            return missing, wrong, get_batch

        missing, wrong, get_batch = run_async(main())
        assert missing[0] == 404
        assert wrong[0] == 405
        assert get_batch[0] == 405

    def test_poison_request_is_422_with_last_error(self, tmp_path,
                                                   monkeypatch):
        def poison(request):
            raise ValueError("deterministically broken")

        counting_backend(monkeypatch, "model", fn=poison)

        async def main():
            service, server, port = await _served(tmp_path)
            reply = await http_request(port, "GET", EVAL_PATH)
            await _shutdown(service, server)
            return reply

        status, _, payload = run_async(main())
        assert status == 422
        assert payload["poisoned"] is True
        assert "deterministically broken" in payload["last_error"]
        assert payload["etype"] == "ValueError"

    def test_draining_healthz_503_and_misses_rejected(self, tmp_path,
                                                      monkeypatch):
        counting_backend(monkeypatch, "model")

        async def main():
            service, server, port = await _served(tmp_path)
            await http_request(port, "GET", EVAL_PATH)   # warm the hot tier
            await service.drain(timeout_s=5)
            health = await http_request(port, "GET", "/healthz")
            warm = await http_request(port, "GET", EVAL_PATH)
            cold = await http_request(
                port, "GET",
                "/eval?workload=" + quote("cnn_lstm@frames=2+bins=32"
                                          "+hidden=32", safe=""))
            server.close()
            await server.wait_closed()
            return health, warm, cold

        health, warm, cold = run_async(main())
        assert health[0] == 503
        assert health[2]["status"] == "draining"
        assert warm[0] == 200 and warm[2]["source"] == "hot"
        assert cold[0] == 503
        assert "draining" in cold[2]["error"]

    def test_malformed_request_line_and_bad_batch_json(self, tmp_path):
        async def main():
            service, server, port = await _served(tmp_path)
            # Garbage on the wire: the parser answers 400, not a hang.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            bad_json = await http_request(port, "POST", "/eval/batch",
                                          body="not a list")
            empty = await http_request(port, "POST", "/eval/batch",
                                       body=[])
            await _shutdown(service, server)
            return raw, bad_json, empty

        raw, bad_json, empty = run_async(main())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert bad_json[0] == 400
        assert empty[0] == 400

    def test_batch_entries_mean_what_get_eval_means(self, tmp_path,
                                                    monkeypatch):
        """The accelerator defaults to BitWave as on ``GET /eval``, a
        mistyped option value fails its own entry only, and an unknown
        option key is refused instead of evaluating the defaults."""
        calls = counting_backend(monkeypatch, "model")
        good = {"workload": MINI_WORKLOAD}

        async def main():
            service, server, port = await _served(tmp_path)
            default = await http_request(port, "POST", "/eval/batch",
                                         body=[good])
            mixed = await http_request(
                port, "POST", "/eval/batch",
                body=[good, {**good, "options": {"batch": "2"}}])
            typo = await http_request(
                port, "POST", "/eval/batch",
                body=[{**good, "options": {"bacth": 4}}])
            await _shutdown(service, server)
            return default, mixed, typo

        default, mixed, typo = run_async(main())
        assert default[0] == 200
        (entry,) = default[2]["results"]
        assert entry["ok"] and entry["status"] == 200
        assert calls == [mini_request()]
        assert mixed[0] == 200
        first, second = mixed[2]["results"]
        assert first["ok"] and first["source"] == "hot"
        assert not second["ok"] and second["status"] == 400
        assert "batch" in second["error"]
        assert typo[0] == 400
        assert "bacth" in typo[2]["error"]
        assert len(calls) == 1


class TestQueryHelpers:
    def test_request_from_query_defaults_and_overrides(self):
        request = request_from_query({
            "workload": ["cnn_lstm"],
            "backend": ["sim-vectorized"],
            "batch": ["2"],
        })
        assert request.workload == "cnn_lstm"
        assert request.backend == "sim-vectorized"
        assert request.options.batch == 2
        assert request.accelerator == "BitWave"   # the default

    def test_spec_from_query_defaults_to_paper_grid(self):
        spec = spec_from_query({})
        assert spec.accelerators                  # the full grid
        assert spec.networks

    def test_spec_from_query_inline_axes(self):
        spec = spec_from_query({"name": ["mini"],
                                "accelerators": ["BitWave,SCNN"],
                                "networks": ["cnn_lstm"]})
        assert spec.name == "mini"
        assert spec.accelerators == ("BitWave", "SCNN")

    def test_outcome_status_mapping(self):
        ok = Outcome(key="k", result=fake_result(mini_request()))
        assert outcome_status(ok) == 200
        assert outcome_status(Outcome(key="k", kind="rejected")) == 503
        assert outcome_status(Outcome(key="k", kind="draining")) == 503
        assert outcome_status(Outcome(key="k", poisoned=True)) == 422
        assert outcome_status(Outcome(key="k", error="boom")) == 500
