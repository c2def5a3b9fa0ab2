"""The HTTP front end, over a real socket on an ephemeral port.

Every test speaks actual HTTP/1.1 to a :func:`start_http` server -- no
handler-poking -- so the request parser, routing, status mapping, and
JSON serialization are all on the hook.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from urllib.parse import quote, urlencode

import pytest

from repro.dse.records import make_record, result_to_dict
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest
from repro.serve import http
from repro.serve.http import (
    outcome_payload,
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
    http_raw,
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
        # A summary row names its point's canonical workload spelling.
        assert row["network"] == EvalRequest(workload=MINI_WORKLOAD).workload
        assert row["cycles"] > 0
        assert pareto[0] == 200
        assert pareto[2]["x"] == "cycles"
        assert len(pareto[2]["rows"]) == 1

    def test_summary_sees_records_another_store_appended(self, tmp_path,
                                                         monkeypatch):
        counting_backend(monkeypatch, "model")
        grid = urlencode({"name": "mini", "accelerators": "BitWave,SCNN",
                          "networks": MINI_WORKLOAD})
        appended = mini_request(accelerator="SCNN")

        async def main():
            service, server, port = await _served(tmp_path)
            await http_request(port, "GET", EVAL_PATH)  # loads the store
            ResultStore(tmp_path).put(appended.key(), make_record(
                appended, result_to_dict(fake_result(appended)), 0.0))
            summary = await http_request(port, "GET", f"/summary?{grid}")
            await _shutdown(service, server)
            return service, summary

        service, summary = run_async(main())
        assert summary[0] == 200
        stored = {row["config"]: row["stored"] for row in summary[2]["rows"]}
        assert stored == {"BitWave": True, "SCNN": True}
        assert service.metrics.count("serve.evaluated") == 1

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

    def test_unknown_request_fields_are_400(self, tmp_path, monkeypatch):
        """A misspelled field is refused, never read as the default
        configuration; one misspelled batch entry refuses the batch."""
        calls = counting_backend(monkeypatch, "model")
        good = {"workload": MINI_WORKLOAD}

        async def main():
            service, server, port = await _served(tmp_path)
            query = await http_request(
                port, "GET", "/eval?" + urlencode(
                    {"workload": MINI_WORKLOAD, "acclerator": "SCNN"}))
            batch = await http_request(
                port, "POST", "/eval/batch",
                body=[good, {**good, "archh": "bitwave-dense-16nm"}])
            await _shutdown(service, server)
            return query, batch

        query, batch = run_async(main())
        assert query[0] == 400
        assert "acclerator" in query[2]["error"]
        assert batch[0] == 400
        assert "archh" in batch[2]["error"]
        assert calls == []

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


# -- parse limits -----------------------------------------------------------

def _exchange(port: int, data: bytes | list[bytes]) -> bytes:
    """Send ``data`` on a blocking socket and read the reply to EOF.

    A list is sent one segment at a time, and an empty segment shuts
    the socket's write side (the client half-closes).  The server may
    answer and close before it has read everything it was sent (a
    refused head or body), which resets the connection; the exchange
    then ends with whatever reply had arrived.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for segment in [data] if isinstance(data, bytes) else data:
                if segment:
                    sock.sendall(segment)
                    time.sleep(0.001)
                else:
                    sock.shutdown(socket.SHUT_WR)
        except ConnectionError:
            pass
        chunks = []
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _head(request_line: bytes, *headers: bytes) -> bytes:
    return b"\r\n".join((request_line, *headers)) + b"\r\n\r\n"


def _header_lines(n: int) -> list[bytes]:
    return [b"Host: localhost"] + [b"X-Pad-%d: %d" % (i, i)
                                   for i in range(1, n)]


def _request_line(size: int) -> bytes:
    """A ``/healthz`` request line of ``size`` bytes, CRLF included."""
    pad = size - len(b"GET /healthz?x= HTTP/1.1\r\n")
    return b"GET /healthz?x=" + b"x" * pad + b" HTTP/1.1\r\n"


#: A valid one-entry batch body, and its chunked transfer coding.
BATCH = json.dumps([{"workload": MINI_WORKLOAD}]).encode()
CHUNKED = b"%x\r\n%s\r\n0\r\n\r\n" % (len(BATCH), BATCH)

KIB = 1024
PARSE_LIMITS = [
    pytest.param([bytes([byte]) for byte in
                  _head(b"GET /healthz HTTP/1.1", b"Host: localhost")],
                 200, None, id="one-byte-segments"),
    pytest.param(b"GET /healthz HTTP/1.1\nHost: localhost\n\n",
                 200, None, id="bare-LF"),
    pytest.param(_request_line(8192) + b"\r\n", 200, None,
                 id="8192B-request-line"),
    pytest.param(_request_line(8193) + b"\r\n", 400,
                 "request line too long", id="8193B-request-line"),
    pytest.param([_head(b"GET /healthz HTTP/1.1", b"Host: localhost"), b""],
                 200, None, id="half-closed-after-request"),
    pytest.param([b"GET /healthz HTTP/1.1\r\nHost: localhost", b""],
                 200, None, id="head-ended-by-EOF"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1",
                       b"Transfer-Encoding: chunked") + CHUNKED,
                 411, "Content-Length", id="chunked-body"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1", b"Content-Length: 2",
                       b"Content-Length: %d" % len(BATCH)) + BATCH,
                 400, "bad Content-Length", id="differing-lengths"),
    pytest.param(_head(b"GET /healthz HTTP/1.1", b"Content-Length: 0",
                       b"Content-Length: 0"),
                 200, None, id="identical-lengths"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1",
                       b"Content-Length: 10") + b"x" * 5,
                 408, "timed out", id="stalled-body"),
    pytest.param(_head(b"GET /healthz?" + b"x" * 9 * KIB + b" HTTP/1.1"),
                 400, "request line too long", id="9KiB-request-line"),
    pytest.param(_head(b"GET /healthz?" + b"x" * 70 * KIB + b" HTTP/1.1"),
                 400, "request line too long", id="70KiB-request-line"),
    pytest.param(_head(b"GET /healthz HTTP/1.1",
                       b"X-Big: " + b"x" * 70 * KIB),
                 400, "header line too long", id="70KiB-header"),
    pytest.param(_head(b"GET /healthz HTTP/1.1", *_header_lines(64)),
                 200, None, id="64-headers"),
    pytest.param(_head(b"GET /healthz HTTP/1.1", *_header_lines(65)),
                 400, "too many headers", id="65-headers"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1", b"Content-Length: -5"),
                 400, "bad Content-Length", id="negative-length"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1", b"Content-Length: abc"),
                 400, "bad Content-Length", id="non-integer-length"),
    pytest.param(_head(b"POST /eval/batch HTTP/1.1",
                       b"Content-Length: 5000000") + b"x" * 5_000_000,
                 413, "body too large", id="5MB-body"),
    pytest.param(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n",
                 408, "timed out", id="stalled-head"),
]


class TestParseLimits:
    @pytest.mark.parametrize("data, status, error", PARSE_LIMITS)
    def test_limits_over_a_real_socket(self, tmp_path, monkeypatch,
                                       data, status, error):
        monkeypatch.setattr(http, "READ_TIMEOUT_S", 1.0)  # the stalled head

        async def main():
            service, server, port = await _served(tmp_path)
            reply = await asyncio.to_thread(_exchange, port, data)
            await _shutdown(service, server)
            return reply

        reply = run_async(main())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == str(status).encode()
        assert int(dict(line.split(b": ", 1)
                        for line in head.split(b"\r\n")[1:])
                   [b"Content-Length"]) == len(body)
        if error is not None:
            assert error in json.loads(body)["error"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_client_gone_mid_body_gets_no_reply_and_holds_nothing(
            self, tmp_path):
        """The server closes its side once the client's EOF leaves the
        body short, well before the read deadline."""
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        async def main():
            service, server, port = await _served(tmp_path)
            before = open_fds()
            reply = await asyncio.to_thread(
                _exchange, port,
                [_head(b"POST /eval/batch HTTP/1.1", b"Content-Length: 10")
                 + b"x" * 5, b""])
            deadline = time.monotonic() + 2.0
            while open_fds() != before and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            after = open_fds()
            health = await http_request(port, "GET", "/healthz")
            await _shutdown(service, server)
            return reply, before, after, health

        reply, before, after, health = run_async(main())
        assert reply == b""
        assert after == before
        assert health[0] == 200


# -- reply bytes ------------------------------------------------------------

def _canonical(workload: str) -> str:
    return EvalRequest(workload=workload).workload


#: Workloads the fated backend below fails, holds or answers.
POISON = _canonical("cnn_lstm@frames=2+bins=32+hidden=16")
FLAKY = _canonical("cnn_lstm@frames=2+bins=32+hidden=24")
SLOW = _canonical("cnn_lstm@frames=2+bins=32+hidden=40")
OTHER = _canonical("cnn_lstm@frames=2+bins=32+hidden=48")

#: One attempt per evaluation, so a transient failure settles as a 500.
ONE_TRY = RetryPolicy(max_attempts=1, backoff_s=0.0, jitter=0.0)


def _eval_path(workload: str) -> str:
    return "/eval?" + urlencode({"workload": workload})


def _fated_backend(monkeypatch, release: threading.Event) -> None:
    """The model backend, stubbed: POISON raises a poison error, FLAKY
    a transient one, SLOW waits for ``release``, the rest answer with
    floats that need every digit to round-trip."""
    def evaluate(request):
        if request.workload == POISON:
            raise ValueError("deterministically broken")
        if request.workload == FLAKY:
            raise OSError("transient weather")
        if request.workload == SLOW:
            release.wait(timeout=10)
        return fake_result(request, cycles=1 / 3)

    counting_backend(monkeypatch, "model", fn=evaluate)


def _record_outcomes(service: EvalService) -> list:
    """Wrap ``service.submit``; the list keeps, in call order, what each
    call settled to: its Outcome, or the ValueError it raised."""
    settled: list = []
    submit = service.submit

    async def spy(request):
        slot = len(settled)
        settled.append(None)
        try:
            settled[slot] = await submit(request)
        except ValueError as exc:
            settled[slot] = exc
            raise
        return settled[slot]

    service.submit = spy
    return settled


def _encode(payload) -> bytes:
    """The dict path: the whole payload through ``json.dumps``."""
    return json.dumps(payload, sort_keys=True).encode()


def _entry(settled) -> dict:
    """One ``/eval/batch`` entry's payload dict."""
    if isinstance(settled, ValueError):
        return {"ok": False, "status": 400, "error": str(settled)}
    return {**outcome_payload(settled), "ok": settled.ok,
            "status": outcome_status(settled)}


async def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def _result_bytes(body: bytes) -> bytes:
    return body[body.find(b'"result": ') + 10:body.rfind(b', "source": "')]


class TestReplyBytes:
    """Answered results are spliced in from bytes encoded once, and
    every body stays byte-identical to encoding its payload dict."""

    @pytest.mark.parametrize("hot_max", [8, 0])
    def test_eval_bodies_match_the_dict_path(self, tmp_path, monkeypatch,
                                             hot_max):
        release = threading.Event()
        _fated_backend(monkeypatch, release)

        async def main():
            answered = []  # (reply, the outcome it answers)
            for _ in range(2):  # the second instance reads the first's store
                service, server, port = await _served(
                    tmp_path, hot_max=hot_max, policy=ONE_TRY)
                settled = _record_outcomes(service)
                for workload in (MINI_WORKLOAD, MINI_WORKLOAD, POISON, FLAKY):
                    reply = await http_raw(port, "GET", _eval_path(workload))
                    answered.append((reply, settled[-1]))
                await _shutdown(service, server)
            service, server, port = await _served(
                tmp_path, hot_max=hot_max, policy=ONE_TRY)
            settled = _record_outcomes(service)
            pair = [asyncio.create_task(
                        http_raw(port, "GET", _eval_path(SLOW)))
                    for _ in range(2)]
            await _until(lambda: service.metrics.count("serve.coalesced") == 1)
            release.set()
            pair_replies = await asyncio.gather(*pair)
            pair_outcomes = list(settled)
            await service.drain(timeout_s=5)
            reply = await http_raw(port, "GET", _eval_path(OTHER))
            answered.append((reply, settled[-1]))
            server.close()
            await server.wait_closed()
            return answered, pair_replies, pair_outcomes

        answered, pair_replies, pair_outcomes = run_async(main())
        for (status, _, body), outcome in answered:
            assert status == outcome_status(outcome)
            assert body == _encode(outcome_payload(outcome))
        assert sorted(body for _, _, body in pair_replies) == \
            sorted(_encode(outcome_payload(o)) for o in pair_outcomes)
        outcomes = [o for _, o in answered] + pair_outcomes
        tiers = {"computed", "store", "coalesced", "hot"}
        if not hot_max:
            tiers.remove("hot")
        assert {o.source for o in outcomes if o.ok} == tiers
        assert {outcome_status(o) for o in outcomes} == {200, 422, 500, 503}

    @pytest.mark.parametrize("hot_max", [8, 0])
    def test_batch_entries_match_the_dict_path(self, tmp_path, monkeypatch,
                                               hot_max):
        _fated_backend(monkeypatch, threading.Event())
        entries = [{"workload": w}
                   for w in (MINI_WORKLOAD, MINI_WORKLOAD, POISON, FLAKY)]
        entries.append({"workload": MINI_WORKLOAD, "accelerator": "Nope"})

        async def main():
            answered = []  # (reply, what its entries settled to)
            for instance in range(2):  # the second reads the first's store
                service, server, port = await _served(
                    tmp_path, hot_max=hot_max, policy=ONE_TRY)
                settled = _record_outcomes(service)
                for _ in range(2):  # the repeat finds what the first filled
                    start = len(settled)
                    reply = await http_raw(port, "POST", "/eval/batch",
                                           body=entries)
                    answered.append((reply, settled[start:]))
                if instance:
                    await service.drain(timeout_s=5)
                    start = len(settled)
                    reply = await http_raw(port, "POST", "/eval/batch",
                                           body=[{"workload": OTHER}])
                    answered.append((reply, settled[start:]))
                await _shutdown(service, server)
            return answered

        answered = run_async(main())
        for (status, _, body), settled in answered:
            assert status == 200
            results = [_entry(s) for s in settled]
            assert body == _encode({"count": len(results),
                                    "results": results})
        entries = [_entry(s) for _, settled in answered for s in settled]
        tiers = {"computed", "store", "coalesced", "hot"}
        if not hot_max:
            tiers.remove("hot")
        assert {e["source"] for e in entries if e["ok"]} == tiers
        assert {e["status"] for e in entries} == {200, 400, 422, 500, 503}

    def test_one_key_keeps_its_result_bytes_through_every_tier(self,
                                                               tmp_path):
        """Real model results: computed, hot, evicted by another key,
        then read back from the store, the result's bytes never
        change."""
        async def main():
            service, server, port = await _served(tmp_path, hot_max=1)
            replies = [await http_raw(port, "GET", _eval_path(workload))
                       for workload in (MINI_WORKLOAD, MINI_WORKLOAD, OTHER,
                                        MINI_WORKLOAD)]
            await _shutdown(service, server)
            return replies

        replies = run_async(main())
        bodies = [replies[i][2] for i in (0, 1, 3)]
        assert [json.loads(b)["source"] for b in bodies] == \
            ["computed", "hot", "store"]
        assert len({_result_bytes(b) for b in bodies}) == 1
        assert json.loads(replies[2][2])["source"] == "computed"

    def test_duplicate_stored_key_in_a_batch_answers_store_then_hot(
            self, tmp_path, monkeypatch):
        """Nothing separates a loop-side store hit from its answer, so
        the duplicate finds the hot tier; misses still coalesce."""
        counting_backend(monkeypatch, "model")

        async def main():
            service, server, port = await _served(tmp_path, hot_max=1)
            await http_raw(port, "GET", EVAL_PATH)         # stored, loaded
            await http_raw(port, "GET", _eval_path(OTHER))  # evicts it
            stored = await http_request(port, "POST", "/eval/batch",
                                        body=[{"workload": MINI_WORKLOAD}] * 2)
            missed = await http_request(port, "POST", "/eval/batch",
                                        body=[{"workload": SLOW}] * 2)
            await _shutdown(service, server)
            return stored, missed

        stored, missed = run_async(main())
        assert [e["source"] for e in stored[2]["results"]] == ["store", "hot"]
        assert [e["source"] for e in missed[2]["results"]] == \
            ["computed", "coalesced"]
