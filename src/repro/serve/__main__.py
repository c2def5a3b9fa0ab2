"""``python -m repro.serve``: run the always-on evaluation service.

Examples::

    # Serve the default store root on localhost:8351, inline compute.
    python -m repro.serve

    # A shared store with 4 supervised worker processes and a bigger
    # hot tier; the watchdog kills and respawns hung evaluations.
    python -m repro.serve --store /var/lib/repro --workers 4 \\
        --hot-max 4096 --timeout 600

    # Chaos drill: deterministic faults at the serve site (injected
    # crashes retry per the policy; slow_io stalls store reads).
    python -m repro.serve --inject 'seed=7,crash:0.3:site=serve'

    # Then, from any client:
    curl 'http://127.0.0.1:8351/eval?workload=cnn_lstm&backend=model'
    curl 'http://127.0.0.1:8351/metrics'

SIGINT/SIGTERM drain gracefully -- in-flight evaluations finish and
commit, new misses get 503 -- then the process exits ``128+signum``
(the shell convention for a signal-terminated run, same as the
campaign executor).  A second signal force-quits immediately.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.dse.__main__ import (
    _activate_faults,
    _add_resilience_arguments,
    _policy_from_args,
)
from repro.serve.cache import DEFAULT_HOT_MAX
from repro.serve.http import start_http
from repro.serve.service import DEFAULT_QUEUE_MAX, EvalService

#: Default TCP port ("serve" on a phone keypad would be overkill; this
#: is just an unassigned-registry pick that avoids the usual 8000s).
DEFAULT_PORT = 8351


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on evaluation service: request coalescing, "
                    "an in-memory hot tier, and the shared result store "
                    "behind a JSON HTTP API.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port; 0 picks an ephemeral port "
                             "(default %(default)s)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store root (default: "
                             "$REPRO_DSE_STORE or ~/.cache/repro-dse)")
    parser.add_argument("--workers", type=int, default=0,
                        help="supervised worker processes per batch; 0 "
                             "evaluates inline in-process, or on one "
                             "supervised worker when --timeout is set "
                             "(default %(default)s)")
    parser.add_argument("--hot-max", type=int, default=DEFAULT_HOT_MAX,
                        help="hot-tier capacity in results; 0 disables "
                             "the tier (default %(default)s)")
    parser.add_argument("--queue-max", type=int,
                        default=DEFAULT_QUEUE_MAX,
                        help="pending-miss bound before requests get "
                             "503 (default %(default)s)")
    _add_resilience_arguments(parser)
    return parser


async def _serve(args: argparse.Namespace) -> int:
    """Run the service until a signal drains it; returns the exit code."""
    service = EvalService(
        args.store,
        workers=args.workers,
        hot_max=args.hot_max,
        queue_max=args.queue_max,
        policy=_policy_from_args(args, None),
    )
    await service.start()
    server = await start_http(service, args.host, args.port)

    stop = asyncio.Event()
    got_signum = 0

    def on_signal(signum: int) -> None:
        # First signal: drain.  Second: the operator means it.
        nonlocal got_signum
        if stop.is_set():
            os._exit(128 + signum)
        got_signum = signum
        stop.set()

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, on_signal, signum)

    sockets = server.sockets or []
    for sock in sockets:
        host, port = sock.getsockname()[:2]
        print(f"repro.serve listening on http://{host}:{port} "
              f"(store={service.store_root or 'default'}, "
              f"workers={service.workers})", file=sys.stderr, flush=True)

    try:
        await stop.wait()
        name = signal.Signals(got_signum).name
        print(f"{name}: draining (in-flight evaluations finish; "
              f"new misses get 503)...", file=sys.stderr, flush=True)
        server.close()
        await server.wait_closed()
        settled = await service.drain()
        print(f"drained {'cleanly' if settled else 'with timeouts'}; "
              f"exiting", file=sys.stderr, flush=True)
        return 128 + got_signum
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(signum)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _activate_faults(args)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    raise SystemExit(main())
