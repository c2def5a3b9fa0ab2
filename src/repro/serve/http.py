"""A hand-rolled asyncio HTTP/1.1 front end for the evaluation service.

Stdlib-only by design: the service must run anywhere the reproduction
runs.  Each connection gets one :class:`asyncio.Protocol` that
collects the request head and body in its own buffer, parses them,
answers through :meth:`HttpFrontend.dispatch` and closes: one request
per connection (``Connection: close``), JSON in and out.

Every JSON body is :func:`~repro.dse.store.encode_json` of its
payload.  An answered evaluation's result is not re-encoded: its bytes,
encoded once per process (by the store for a stored result, else when
the service filled its hot-tier entry), are spliced into the ``/eval``
and ``/eval/batch`` bodies, which stay byte-identical to encoding the
whole payload dict (:func:`outcome_payload`).

Endpoints::

    GET  /eval?workload=W[&accelerator=A][&variant=V][&backend=B]
              [&arch=SPEC][&batch=N]
    POST /eval/batch        {"requests": [<EvalRequest dict>, ...]}
    GET  /summary?[name=&accelerators=&networks=&variants=&backends=&archs=]
    GET  /pareto?[x=cycles&y=energy&<grid params>]
    GET  /healthz
    GET  /metrics
    GET  /  (or /dashboard)  -- the static HTML dashboard

Status codes: 200 answered, 400 bad request, 404 unknown path,
405 wrong method, 408 request not read within ``READ_TIMEOUT_S``,
411 a ``Transfer-Encoding`` body (send ``Content-Length``), 413
oversized body, 422 poison evaluation (the request is
deterministic-broken; retrying cannot help), 500 evaluation failed
after the retry budget, 503 queue saturated or draining.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Mapping, cast
from urllib.parse import parse_qs, urlsplit

from repro.dse.retry import PointFailure
from repro.dse.spec import CampaignSpec, paper_grid
from repro.dse.store import encode_json
from repro.dse.summary import METRICS, pareto_data, summary_data
from repro.eval.request import EvalOptions, EvalRequest
from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.service import EvalService, Outcome

#: Hard parse limits: a service facing a network owes itself bounds.
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 1 << 22  # 4 MiB of batch JSON is plenty
READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large", 422: "Unprocessable Entity",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """An error with a definite HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def outcome_status(outcome: Outcome) -> int:
    """The HTTP status an evaluation outcome maps to."""
    if outcome.ok:
        return 200
    if outcome.kind in ("rejected", "draining"):
        return 503
    if outcome.poisoned:
        return 422
    return 500


def outcome_payload(outcome: Outcome) -> dict[str, Any]:
    """The JSON payload of one settled evaluation outcome, as a dict.

    :func:`outcome_body` encodes failures through it; an answered
    outcome's body is this dict's encoding, built without it.
    """
    payload: dict[str, Any] = {
        "key": outcome.key,
        "source": outcome.source,
        "attempts": outcome.attempts,
    }
    if outcome.ok:
        assert outcome.result is not None
        payload["result"] = outcome.result.to_dict()
    else:
        payload.update({
            "error": outcome.error,
            "etype": outcome.etype,
            "kind": outcome.kind,
            "poisoned": outcome.poisoned,
            "last_error": outcome.error,
        })
    return payload


def splice_json(payload: Mapping[str, Any], name: str, raw: bytes) -> bytes:
    """``encode_json({**payload, name: value})`` for ``raw``, the
    encoding of ``value``, without decoding or re-encoding it.

    Keys sort, so ``raw`` lands between the keys before and after
    ``name``; ``payload`` must not hold ``name`` itself.
    """
    before = encode_json({k: v for k, v in payload.items() if k < name})
    after = encode_json({k: v for k, v in payload.items() if k > name})
    parts = (before[1:-1], encode_json(name) + b": " + raw, after[1:-1])
    return b"{" + b", ".join(part for part in parts if part) + b"}"


def outcome_body(outcome: Outcome, **fields: Any) -> bytes:
    """The JSON bytes of ``outcome_payload(outcome)`` plus ``fields``."""
    if not outcome.ok:
        return encode_json({**outcome_payload(outcome), **fields})
    assert outcome.result_json is not None
    return splice_json({"key": outcome.key, "source": outcome.source,
                        "attempts": outcome.attempts, **fields},
                       "result", outcome.result_json)


def _first(query: Mapping[str, list[str]], name: str,
           default: str | None = None) -> str | None:
    values = query.get(name)
    return values[0] if values else default


def _int_param(query: Mapping[str, list[str]], name: str,
               default: int) -> int:
    raw = _first(query, name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name!r} must be an "
                             f"integer, got {raw!r}") from None


#: The ``/eval`` query parameters: the request axes plus ``batch``.
_EVAL_PARAMS = frozenset(("workload", "accelerator", "variant", "backend",
                          "arch", "batch"))


def request_from_query(query: Mapping[str, list[str]]) -> EvalRequest:
    """Build an :class:`EvalRequest` from ``/eval`` query parameters.

    Any other parameter is refused: a misspelled axis must not
    silently evaluate the default configuration.
    """
    unknown = query.keys() - _EVAL_PARAMS
    if unknown:
        raise HttpError(400, f"unknown query parameters {sorted(unknown)}; "
                             f"one of {sorted(_EVAL_PARAMS)}")
    workload = _first(query, "workload")
    if not workload:
        raise HttpError(400, "missing required query parameter 'workload'")
    kwargs: dict[str, Any] = {
        "workload": workload,
        "options": EvalOptions(
            batch=_int_param(query, "batch", EvalOptions().batch)),
    }
    for name in ("accelerator", "variant", "backend", "arch"):
        value = _first(query, name)
        if value is not None:
            kwargs[name] = value
    return EvalRequest(**kwargs)


def request_from_dict(data: Any) -> EvalRequest:
    """Build an :class:`EvalRequest` from one ``/eval/batch`` entry."""
    if not isinstance(data, Mapping):
        raise HttpError(400, f"batch entries must be objects, got "
                             f"{type(data).__name__}")
    if "workload" not in data:
        raise HttpError(400, "batch entry missing required key 'workload'")
    try:
        return EvalRequest.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise HttpError(400, f"bad batch entry: {exc}") from None


def spec_from_query(query: Mapping[str, list[str]]) -> CampaignSpec:
    """The campaign grid a ``/summary`` / ``/pareto`` call reports over.

    Axes arrive as CSV query parameters mirroring the ``repro.dse``
    CLI; with no axes at all, the full paper grid is the default view.
    """
    def csv(name: str) -> tuple[str, ...]:
        raw = _first(query, name, "")
        assert raw is not None
        return tuple(part for part in raw.split(",") if part)

    name = _first(query, "name", "serve") or "serve"
    axes = {axis: csv(axis) for axis in
            ("accelerators", "networks", "variants", "backends", "archs")}
    if not any(axes.values()):
        return paper_grid(name)
    spec = CampaignSpec(
        name=name,
        accelerators=axes["accelerators"],
        networks=axes["networks"],
        variants=axes["variants"],
        backends=axes["backends"] or ("model",),
        archs=axes["archs"],
    )
    spec.validate()
    return spec


class HttpFrontend:
    """Routes parsed HTTP requests onto one :class:`EvalService`."""

    def __init__(self, service: EvalService) -> None:
        self.service = service

    # -- endpoint handlers ----------------------------------------------
    async def _eval(self, query: Mapping[str, list[str]]
                    ) -> tuple[int, Any]:
        try:
            request = request_from_query(query)
            outcome = await self.service.submit(request)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return outcome_status(outcome), outcome_body(outcome)

    async def _eval_batch(self, body: bytes) -> tuple[int, Any]:
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"bad JSON body: {exc}") from None
        entries = data.get("requests") if isinstance(data, Mapping) else data
        if not isinstance(entries, list) or not entries:
            raise HttpError(400, "body must be a non-empty JSON list (or "
                                 "{'requests': [...]}) of request objects")
        requests = [request_from_dict(entry) for entry in entries]

        async def one(request: EvalRequest) -> bytes:
            try:
                outcome = await self.service.submit(request)
            except ValueError as exc:
                return encode_json({"ok": False, "status": 400,
                                    "error": str(exc)})
            return outcome_body(outcome, ok=outcome.ok,
                                status=outcome_status(outcome))

        results = await asyncio.gather(*(one(r) for r in requests))
        return 200, splice_json({"count": len(results)}, "results",
                                b"[" + b", ".join(results) + b"]")

    async def _stored_rows(self, view: Callable[..., list[dict[str, Any]]],
                           spec: CampaignSpec, *args: str
                           ) -> list[dict[str, Any]]:
        """``view(spec, store, *args)`` over the service's store, refreshed
        first; both run in a worker thread, off the event loop."""
        def rows() -> list[dict[str, Any]]:
            store = self.service.store
            store.refresh()
            return view(spec, store, *args)

        return await asyncio.to_thread(rows)

    async def _summary(self, query: Mapping[str, list[str]]
                       ) -> tuple[int, Any]:
        try:
            spec = spec_from_query(query)
            rows = await self._stored_rows(summary_data, spec)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return 200, {"campaign": spec.name, "points": len(rows),
                     "rows": rows}

    async def _pareto(self, query: Mapping[str, list[str]]
                      ) -> tuple[int, Any]:
        x = _first(query, "x", "cycles") or "cycles"
        y = _first(query, "y", "energy") or "energy"
        if x not in METRICS or y not in METRICS:
            raise HttpError(400, f"pareto objectives must be one of "
                                 f"{sorted(METRICS)}; got x={x!r} y={y!r}")
        try:
            spec = spec_from_query(query)
            rows = await self._stored_rows(pareto_data, spec, x, y)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return 200, {"campaign": spec.name, "x": x, "y": y,
                     "points": len(rows), "rows": rows}

    # -- dispatch --------------------------------------------------------
    async def dispatch(self, method: str, path: str,
                       query: Mapping[str, list[str]],
                       body: bytes) -> tuple[int, Any, str]:
        """Route one request; returns (status, payload, content type).

        The payload is HTML text, an encoded JSON body (the ``/eval``
        endpoints) or a JSON-able object.
        """
        if path in ("/", "/dashboard"):
            if method != "GET":
                raise HttpError(405, f"{path} supports GET only")
            return 200, DASHBOARD_HTML, "text/html; charset=utf-8"
        if path == "/eval/batch":
            if method != "POST":
                raise HttpError(405, "/eval/batch supports POST only")
            status, payload = await self._eval_batch(body)
            return status, payload, "application/json"
        if method != "GET":
            raise HttpError(405, f"{path} supports GET only")
        if path == "/eval":
            status, payload = await self._eval(query)
        elif path == "/summary":
            status, payload = await self._summary(query)
        elif path == "/pareto":
            status, payload = await self._pareto(query)
        elif path == "/healthz":
            payload = self.service.health()
            status = 503 if self.service.draining else 200
        elif path == "/metrics":
            status, payload = 200, self.service.snapshot()
        else:
            raise HttpError(404, f"unknown path {path!r}")
        return status, payload, "application/json"


class _Connection(asyncio.Protocol):
    """One connection: buffer one request, answer it, write, close.

    The head is parsed line by line as bytes arrive, so an over-long
    line or head is refused before it is buffered whole.  Reading
    stops once the request is complete, :meth:`HttpFrontend.dispatch`
    answers it, and closing the transport flushes the reply first.
    """

    def __init__(self, frontend: HttpFrontend) -> None:
        self.frontend = frontend
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.pos = 0                        # first byte not yet parsed
        self.method = ""                    # set by the request line
        self.target = ""
        self.headers: list[tuple[str, str]] = []
        self.length: int | None = None      # body length, once the head ends
        self.deadline: asyncio.TimerHandle | None = None
        self.task: "asyncio.Task[None] | None" = None

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        # Head plus body must arrive within the deadline.
        self.deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, self._reply, 408,
            {"error": "request read timed out"})

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._advance()

    def eof_received(self) -> bool:
        """Keep the transport open while a reply is owed: a client may
        half-close once it has sent its request."""
        assert self.transport is not None
        if self.task is None and self.length is None and self.buffer:
            # As a line reader at EOF: the partial last line is a line,
            # and the head ends there.
            for _ in range(2):
                if self.length is None and not self.transport.is_closing():
                    self.buffer += b"\n"
                    self._advance()
        return self.task is not None

    def connection_lost(self, exc: Exception | None) -> None:
        assert self.deadline is not None
        self.deadline.cancel()

    # -- reading ---------------------------------------------------------
    def _advance(self) -> None:
        """Parse what has arrived; answer once the request is whole."""
        assert self.transport is not None and self.deadline is not None
        try:
            request = self._parse()
        except HttpError as exc:
            self._reply(exc.status, {"error": exc.message})
            return
        if request is not None:
            self.deadline.cancel()
            self.transport.pause_reading()
            self.task = asyncio.get_running_loop().create_task(
                self._answer(*request))

    def _parse(self) -> tuple[str, str, dict[str, list[str]], bytes] | None:
        """The request once the buffer holds all of it, else ``None``."""
        while self.length is None:
            what = "header line" if self.method else "request line"
            end = self.buffer.find(b"\n", self.pos) + 1
            if not end:
                if len(self.buffer) - self.pos >= MAX_REQUEST_LINE:
                    raise HttpError(400, f"{what} too long")
                return None
            line = bytes(self.buffer[self.pos:end])
            self.pos = end
            if len(line) > MAX_REQUEST_LINE:
                raise HttpError(400, f"{what} too long")
            if not self.method:
                try:
                    self.method, self.target, _version = \
                        line.decode("latin-1").split()
                except ValueError:
                    raise HttpError(400, "malformed request line") from None
            elif line in (b"\r\n", b"\n"):
                self.length = _body_length(self.headers)
            elif len(self.headers) == MAX_HEADERS:
                raise HttpError(400, f"too many headers (max {MAX_HEADERS})")
            else:
                name, _, value = line.decode("latin-1").partition(":")
                self.headers.append((name.strip().lower(), value.strip()))
        if len(self.buffer) - self.pos < self.length:
            return None
        body = bytes(self.buffer[self.pos:self.pos + self.length])
        split = urlsplit(self.target)
        query = parse_qs(split.query, keep_blank_values=True)
        return self.method.upper(), split.path or "/", query, body

    # -- answering -------------------------------------------------------
    async def _answer(self, method: str, path: str,
                      query: dict[str, list[str]], body: bytes) -> None:
        """Dispatch one parsed request; a failing handler costs its
        request a 500, never the server."""
        metrics = self.frontend.service.metrics
        try:
            status, payload, ctype = await self.frontend.dispatch(
                method, path, query, body)
        except HttpError as exc:
            metrics.incr("serve.http.errors")
            status, payload, ctype = (exc.status, {"error": exc.message},
                                      "application/json")
        except Exception as exc:  # noqa: BLE001 -- the server survives
            metrics.incr("serve.http.errors")
            status, payload, ctype = (
                500, {"error": PointFailure.from_exception(exc).error},
                "application/json")
        except asyncio.CancelledError:
            assert self.transport is not None
            self.transport.close()
            raise
        self._reply(status, payload, ctype)

    def _reply(self, status: int, payload: Any,
               content_type: str = "application/json") -> None:
        """Send one response and close: ``bytes`` as they are, text as
        UTF-8, and any other payload as :func:`encode_json`."""
        assert self.transport is not None and self.deadline is not None
        self.deadline.cancel()
        if self.transport.is_closing():
            return  # the client went away
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = encode_json(payload)
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        self.transport.write(head + body)
        self.transport.close()


def _body_length(headers: list[tuple[str, str]]) -> int:
    """The body length a complete head declares; refuses framing this
    parser cannot honour."""
    if any(name == "transfer-encoding" for name, _ in headers):
        raise HttpError(411, "Transfer-Encoding is not supported; "
                             "send the body with a Content-Length")
    lengths = {value for name, value in headers if name == "content-length"}
    if not lengths:
        return 0
    try:
        (length,) = lengths  # differing duplicates: RFC 9112 section 6.3
        n = int(length)
        if n < 0:
            raise ValueError(length)
    except ValueError:
        raise HttpError(400, "bad Content-Length") from None
    if n > MAX_BODY_BYTES:
        raise HttpError(413, f"body too large (max {MAX_BODY_BYTES})")
    return n


async def start_http(service: EvalService, host: str = "127.0.0.1",
                     port: int = 0) -> asyncio.AbstractServer:
    """Bind the HTTP front end; ``port=0`` picks an ephemeral port."""
    frontend = HttpFrontend(service)
    return await asyncio.get_running_loop().create_server(
        lambda: _Connection(frontend), host, port)
