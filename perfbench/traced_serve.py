"""``python3 -m perfbench.traced_serve --tallies DIR -- <serve args>``:
``python -m repro.serve`` with the per-layer wrappers installed.

Only the traced pass uses this launcher; timed runs start the real
``python -m repro.serve``.  The tallies are written when the service
returns from its SIGTERM drain.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.traced_serve")
    parser.add_argument("--tallies", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args

    from repro.serve import __main__ as serve_main

    from perfbench.layers import TARGETS
    from perfbench.tracer import Tallies

    tallies = Tallies(args.tallies)
    tallies.install(TARGETS)
    try:
        return serve_main.main(serve_args)
    finally:
        tallies.flush()


if __name__ == "__main__":
    sys.exit(main())
