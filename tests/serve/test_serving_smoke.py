"""The serving smoke: a real ``python -m repro.serve`` over a store a
``dse run`` prewarmed, driven with plain HTTP.

One subprocess scenario, in order: a store-tier hit and its hot-tier
repeat; a batch of 8 identical misses that coalesces onto ONE
evaluation (``serve.coalesced == 7``), whose first attempt the injected
``crash:site=serve`` plan breaks and the retry heals; a hot-tier repeat
of it; a store-tier hit again once the one-entry hot tier has evicted
the prewarmed point; the summary and Pareto views; a record that a
concurrent ``dse run`` appends, answered from the store without an
evaluation; and a graceful SIGTERM drain exiting 128+15.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import urllib.request

from serve_helpers import await_port, cli_env, spawn_server

GRID = "name=serve-smoke&accelerators=SCNN,Stripes&networks=cnn_lstm"


def _dse_run(store, name: str, accelerator: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.dse", "run", "--name", name,
         "--accelerators", accelerator, "--networks", "cnn_lstm",
         "--store", str(store), "--quiet"],
        env=cli_env(), check=True, capture_output=True, timeout=300)


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=60) as reply:
        return reply.status, json.load(reply)


def _post(base: str, path: str, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300) as reply:
        return reply.status, json.load(reply)


def _drive(base: str, store) -> None:
    status, health = _get(base, "/healthz")
    assert status == 200 and health["status"] == "ok", health

    # The prewarmed point answers from the persistent store tier, and
    # its repeat from the hot tier with the same result.
    status, warm = _get(base, "/eval?workload=cnn_lstm&accelerator=SCNN")
    assert status == 200 and warm["source"] == "store", warm
    status, hot = _get(base, "/eval?workload=cnn_lstm&accelerator=SCNN")
    assert status == 200 and hot["source"] == "hot", hot
    assert hot["result"] == warm["result"], hot

    # 8 identical misses coalesce onto ONE evaluation (whose first
    # attempt the injected plan crashes; the retry heals).
    entry = {"workload": "cnn_lstm", "accelerator": "Stripes"}
    status, batch = _post(base, "/eval/batch", [entry] * 8)
    assert status == 200 and batch["count"] == 8, batch
    assert all(item["ok"] for item in batch["results"]), batch

    # A repeat of the batch point is a hot-tier hit.
    status, again = _get(base, "/eval?workload=cnn_lstm&accelerator=Stripes")
    assert status == 200 and again["source"] == "hot", again

    # The batch point took the one hot slot, so the prewarmed point
    # answers from the store again, with the same result.
    status, stored = _get(base, "/eval?workload=cnn_lstm&accelerator=SCNN")
    assert status == 200 and stored["source"] == "store", stored
    assert stored["result"] == warm["result"], stored

    _, metrics = _get(base, "/metrics")
    counters = metrics["counters"]
    expected = {
        "serve.coalesced": 7,        # 8 identical -> 1 leader
        "serve.cache.miss": 1,
        "serve.cache.store_hit": 2,  # the prewarmed point, twice
        "serve.cache.hot_hit": 2,    # the two repeats
        "serve.evaluated": 1,        # exactly one computation
        "serve.retried": 1,          # the injected crash, healed
        "serve.faults.recovered": 1,
        "serve.failed": 0,
    }
    assert {name: counters.get(name, 0) for name in expected} == expected
    assert metrics["latency"]["count"] >= 3, metrics["latency"]

    status, summary = _get(base, f"/summary?{GRID}")
    assert status == 200 and len(summary["rows"]) == 2, summary
    assert all(row["stored"] for row in summary["rows"]), summary
    status, pareto = _get(base, f"/pareto?{GRID}&x=cycles&y=energy")
    assert status == 200 and pareto["rows"], pareto

    # Another process appends to the store while the service runs: the
    # next request finds the record without evaluating it.
    _dse_run(store, "serve-smoke-append", "Pragmatic")
    status, appended = _get(
        base, "/eval?workload=cnn_lstm&accelerator=Pragmatic")
    assert status == 200 and appended["source"] == "store", appended
    _, metrics = _get(base, "/metrics")
    assert metrics["counters"]["serve.evaluated"] == 1
    assert metrics["counters"]["serve.cache.store_hit"] == 3


def test_serving_smoke(tmp_path):
    store = tmp_path / "store"
    _dse_run(store, "serve-smoke", "SCNN")
    with spawn_server(store, "--hot-max", "1",
                      "--inject", "seed=7,crash:1:attempt<1:site=serve"
                      ) as proc:
        try:
            _drive(f"http://127.0.0.1:{await_port(proc)}", store)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    assert code == 128 + signal.SIGTERM  # 143: the graceful drain path
