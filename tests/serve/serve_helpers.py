"""Shared helpers for the serving tests.

No ``pytest-asyncio`` in the image, so async tests run their coroutine
through :func:`run_async` (a thin ``asyncio.run``) inside ordinary
sync test functions -- each test gets a fresh event loop, which also
matches how the service is actually launched (one ``asyncio.run`` per
process).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, TypeVar

import pytest

from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult, LayerResult

T = TypeVar("T")

#: The parametrized CNN-LSTM small enough for every backend.
MINI_WORKLOAD = "cnn_lstm@frames=4+bins=64+hidden=64"

#: The ``src`` directory a child ``python -m repro...`` imports from.
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_async(coro: Awaitable[T]) -> T:
    return asyncio.run(coro)  # type: ignore[arg-type]


def mini_request(**overrides: Any) -> EvalRequest:
    return EvalRequest(workload=MINI_WORKLOAD, **overrides)


def fake_result(request: EvalRequest, cycles: float = 100.0) -> EvalResult:
    """A tiny but schema-complete result for stubbed backends."""
    return EvalResult(
        workload=request.workload,
        config_label=request.config_label,
        backend=request.backend,
        layers=(LayerResult(name="l0", macs=1000, cycles=cycles,
                            energy_pj=5.0,
                            energy={"dram": 2.0, "sram": 1.0,
                                    "reg": 1.0, "compute": 1.0}),),
    )


async def http_raw(port: int, method: str, path: str,
                   body: Any = None) -> tuple[int, dict[str, str], bytes]:
    """One raw HTTP/1.1 exchange against a local server.

    Returns ``(status, headers, body bytes)`` exactly as sent.
    ``path`` is sent verbatim -- callers quote their own query values.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = (b"" if body is None
                   else json.dumps(body).encode("utf-8"))
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        if payload:
            head += (f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n")
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_bytes


async def http_request(port: int, method: str, path: str,
                       body: Any = None,
                       ) -> tuple[int, dict[str, str], Any]:
    """:func:`http_raw`, with the payload JSON-decoded when the
    response says so."""
    status, headers, body_bytes = await http_raw(port, method, path, body)
    decoded: Any = body_bytes
    if headers.get("content-type", "").startswith("application/json"):
        decoded = json.loads(body_bytes.decode("utf-8"))
    else:
        decoded = body_bytes.decode("utf-8", errors="replace")
    return status, headers, decoded


def counting_backend(monkeypatch: pytest.MonkeyPatch, name: str,
                     fn: Callable[[EvalRequest], EvalResult] | None = None,
                     ) -> list[EvalRequest]:
    """Replace backend ``name``'s ``evaluate`` with a counting stub.

    Returns the (mutable) list of requests the stub has served; ``fn``
    overrides the answer (default: :func:`fake_result`).  A pool worker
    forked after the patch (``workers>=1`` under the ``fork`` start
    method) inherits the stub, but its calls land in the worker's copy
    of the list, not this one.
    """
    from repro.eval.registry import get_backend

    backend = get_backend(name)
    calls: list[EvalRequest] = []

    def evaluate(request: EvalRequest) -> EvalResult:
        calls.append(request)
        return (fn or fake_result)(request)

    monkeypatch.setattr(backend, "evaluate", evaluate)
    return calls


def cli_env() -> dict[str, str]:
    """The environment of a ``python -m repro...`` child process: this
    tree on its path, unbuffered output, no inherited fault plan."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    env.pop("REPRO_FAULTS", None)
    return env


def spawn_server(store: Path, *extra: str) -> subprocess.Popen:
    """``python -m repro.serve`` on an ephemeral port over ``store``."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--store", str(store), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())


def await_port(proc: subprocess.Popen, deadline_s: float = 20.0) -> int:
    """Parse the listening port from the startup line on stderr."""
    deadline = time.monotonic() + deadline_s
    assert proc.stderr is not None
    while time.monotonic() < deadline:
        line = proc.stderr.readline().decode()
        if not line:
            assert proc.poll() is None, "server died during startup"
            continue
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise AssertionError("server never announced its port")
