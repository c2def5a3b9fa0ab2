"""``python -m repro.serve``: the CLI, signals, and exit codes.

One real subprocess test (the signal path cannot be pinned in-process:
``asyncio.run`` + ``add_signal_handler`` + the 128+N exit convention
only compose for real in a child), plus parser-level checks.
"""

from __future__ import annotations

import json
import signal
import urllib.request

import pytest

from repro.serve.__main__ import build_parser
from serve_helpers import await_port, spawn_server


class TestServerProcess:
    def test_serves_then_drains_on_sigterm_with_128n_exit(self, tmp_path):
        # The context manager closes the stdout/stderr pipes on exit.
        with spawn_server(tmp_path / "store") as proc:
            try:
                port = await_port(proc)
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz",
                        timeout=10) as reply:
                    assert reply.status == 200
                    assert json.load(reply)["status"] == "ok"
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/eval?workload=cnn_lstm"
                        f"%40frames%3D2%2Bbins%3D32%2Bhidden%3D32",
                        timeout=60) as reply:
                    assert json.load(reply)["source"] == "computed"
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            stderr = proc.stderr.read().decode() if proc.stderr else ""
        assert code == 128 + signal.SIGTERM  # 143: the drain completed
        assert "draining" in stderr
        # The computed record persisted before shutdown.
        stored = list((tmp_path / "store").rglob("results.jsonl"))
        assert len(stored) == 1


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8351
        assert args.workers == 0
        assert args.store is None
        assert args.inject is None

    def test_all_flags_parse(self):
        args = build_parser().parse_args([
            "--host", "0.0.0.0", "--port", "0", "--store", "/tmp/s",
            "--workers", "4", "--hot-max", "16", "--queue-max", "8",
            "--max-attempts", "5", "--timeout", "60", "--backoff", "0.5",
            "--inject", "seed=7,crash:0.3:site=serve"])
        assert args.workers == 4
        assert args.hot_max == 16
        assert args.queue_max == 8
        assert args.max_attempts == 5
        assert args.timeout == 60.0
        assert args.inject.startswith("seed=7")

    def test_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--nope"])
