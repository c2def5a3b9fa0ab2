"""The ``serve-skew`` load: a seeded request schedule and its client.

The key space is cnn_lstm model requests over the six accelerators and
sixteen ``sram_pj`` overrides (96 keys); a Zipf law over a seeded
ranking of those keys makes a few hot.  The service runs with a hot
tier of 24 results, so popular keys come from memory and the tail
from the store.  Four mid-popularity keys are left unseeded and
compute on first touch.

The client is one process running a closed loop over one connection
at a time, because the callers this stands for (dashboards,
``repro.opt``, scripts) wait for each reply.  4% of the requests are a
``POST /eval/batch`` of eight keys, whose entries the service answers
concurrently.  A second concurrent connection was tried and dropped:
it doubled p50 and spread the GET tail over the batch population
without raising throughput on two CPUs.  With 200 batches in 5000
requests and at most four computed misses, the p99 rank (the 50th
slowest) falls inside the batch population.

The hot tier is an LRU, so a key is hot exactly when fewer than 24
other keys were touched since its own last touch.  Only the order of
touches *inside* one batch is left to the service's threads, so the
generator redraws any batch whose tiers would depend on it
(:class:`LruModel`): two runs of one seed see the same tiers.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import socket
import sys
import time
from pathlib import Path
from typing import Any
from urllib.parse import urlencode

ACCELERATORS = ("SCNN", "Stripes", "Pragmatic", "Bitlet", "HUAA", "BitWave")
SRAM_PJ = tuple(round(0.50 + 0.05 * i, 2) for i in range(16))
WORKLOAD = "cnn_lstm"

HOT_MAX = 24
ZIPF_S = 1.1
REQUESTS = 5000
BATCH_SHARE = 0.04
BATCH_SIZE = 8
UNSEEDED = 4
#: Popularity ranks the unseeded keys are drawn from: touched early
#: enough to compute in every round, rare enough to stay a tail.
UNSEEDED_RANKS = range(6, 30)
#: Keys per seeding batch (below the service's 64-deep miss queue).
SEED_CHUNK = 32
#: Redraws allowed per batch before the schedule is declared unbuildable.
MAX_REDRAWS = 10_000
#: Longest wait for one reply before it counts as failed.
REPLY_TIMEOUT_S = 60.0


def key_space() -> list[dict[str, str]]:
    """The request parameters of every key, by key index."""
    return [{"workload": WORKLOAD, "accelerator": accelerator,
             "arch": f"bitwave-16nm@sram_pj={sram}"}
            for accelerator in ACCELERATORS for sram in SRAM_PJ]


class LruModel:
    """Tiers an LRU of ``capacity`` results gives each key of one
    request, whatever order the keys of a batch are touched in."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: key -> stamp of its last touch (one stamp per request)
        self.last: dict[int, int] = {}
        self.clock = 0

    def predict(self, keys: list[int]) -> list[str] | None:
        """``hot``/``store``/``computed`` per key, or ``None`` when a
        tier depends on the order of the request's own keys."""
        tiers = []
        for x in keys:
            if x not in self.last:
                tiers.append("computed")
                continue
            stamp = self.last[x]
            newer = sum(1 for y, t in self.last.items() if y != x and t > stamp)
            # Touched in x's last request or in this one: before or
            # after x, depending on order.
            same = sum(1 for y, t in self.last.items()
                       if y != x and t == stamp)
            fresh = sum(1 for y in keys if y != x
                        and (y not in self.last or self.last[y] < stamp))
            if newer + same + fresh < self.capacity:
                tiers.append("hot")
            elif newer >= self.capacity:
                tiers.append("store")
            else:
                return None
        return tiers

    def commit(self, keys: list[int]) -> None:
        """Touch ``keys`` in one request (one stamp)."""
        for key in keys:
            self.last[key] = self.clock
        self.clock += 1


def build_schedule(seed: int, requests: int = REQUESTS) -> dict[str, Any]:
    """The seeded schedule: keys to seed, the warm pass, the requests."""
    rng = random.Random(seed)
    space = key_space()
    ranking = rng.sample(range(len(space)), len(space))
    cumulative = []
    total = 0.0
    for rank in range(len(space)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    unseeded = {ranking[r] for r in rng.sample(UNSEEDED_RANKS, UNSEEDED)}
    seeded = [k for k in range(len(space)) if k not in unseeded]
    # Touching every seeded key once, one at a time, leaves the hot
    # tier in a known state whatever seeding left in it.
    warm = rng.sample(seeded, len(seeded))

    model = LruModel(HOT_MAX)
    for key in warm:
        model.commit([key])

    def draw(n: int) -> list[int]:
        chosen: list[int] = []
        while len(chosen) < n:
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            key = ranking[min(rank, len(space) - 1)]
            if key not in chosen:
                chosen.append(key)
        return chosen

    # A fixed batch count keeps every seed's mix, and p99 rank, alike.
    batches = set(rng.sample(range(requests),
                             round(BATCH_SHARE * requests)))
    ops: list[list[Any]] = []
    predicted = {"hot": 0, "store": 0, "computed": 0}
    for index in range(requests):
        size = BATCH_SIZE if index in batches else 1
        for _ in range(MAX_REDRAWS):
            keys = draw(size)
            tiers = model.predict(keys)
            if tiers is not None:
                break
        else:
            raise RuntimeError(f"seed {seed}: no order-independent batch")
        model.commit(keys)
        for tier in tiers:
            predicted[tier] += 1
        ops.append(["batch", keys] if size > 1 else ["get", keys[0]])
    return {"seed": seed, "hot_max": HOT_MAX, "space": space,
            "seeded": seeded, "warm": warm, "ops": ops,
            "predicted": predicted}


# -- the client ----------------------------------------------------------

class Client:
    """Sends the schedule and checks every reply.

    Each request gets its own connection (the service closes every
    connection after its reply).  Replies are checked between
    requests, outside the timed part.
    """

    def __init__(self, port: int, space: list[dict[str, str]]) -> None:
        self.port = port
        self.space = space
        self.gets = [self._head("GET", "/eval?" + urlencode(params))
                     for params in space]
        #: key -> bytes of its first result (byte-identity check)
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.status: dict[str, int] = {}
        self.tiers = {"hot": 0, "store": 0, "coalesced": 0, "computed": 0}
        self.computed_total = 0
        self.latency_ms: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.problems: list[str] = []

    @staticmethod
    def _head(method: str, target: str, body: bytes = b"") -> bytes:
        return (f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1") + body

    def send(self, request: bytes) -> tuple[bytes, float]:
        """One request on a fresh connection: ``(raw reply, ms)``."""
        start = time.perf_counter()
        chunks = []
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=REPLY_TIMEOUT_S) as sock:
                sock.sendall(request)
                while chunk := sock.recv(1 << 16):
                    chunks.append(chunk)
        except OSError as exc:
            self.problems.append(f"request failed: {exc}")
            chunks = []
        return b"".join(chunks), (time.perf_counter() - start) * 1e3

    @staticmethod
    def _status(reply: bytes) -> int:
        try:
            return int(reply.split(b" ", 2)[1])
        except (IndexError, ValueError):
            return 0

    @staticmethod
    def _json(reply: bytes) -> Any:
        try:
            return json.loads(reply.partition(b"\r\n\r\n")[2] or b"null")
        except json.JSONDecodeError:
            return None

    def _answer(self, key: int, status: int, source: Any, blob: Any,
                measured: bool) -> bool:
        """Check one evaluation answer; returns whether it is good."""
        self.status[str(status)] = self.status.get(str(status), 0) + 1
        if status != 200 or blob is None:
            self.problems.append(f"key {key}: status {status}")
            return False
        if source == "computed":
            self.computed_total += 1
        if measured and source in self.tiers:
            self.tiers[source] += 1
        if self.reference.setdefault(key, blob) != blob:
            self.problems.append(f"key {key}: {source} result differs")
            return False
        return True

    def _get_answer(self, reply: bytes) -> tuple[Any, Any]:
        """``(source, result bytes)`` of a ``GET /eval`` reply.

        The service writes ``json.dumps(payload, sort_keys=True)``, so
        the result's bytes sit between ``"result": `` and the
        ``"source"`` key that follows it; slicing them out compares the
        bytes as sent.  Any other layout is parsed and re-encoded the
        same way, which yields the same bytes.
        """
        start = reply.find(b'"result": ')
        end = reply.rfind(b', "source": "')
        if start < 0 or end < start or not reply.endswith(b'"}'):
            answer = self._json(reply)
            if not isinstance(answer, dict) or "result" not in answer:
                return None, None
            return answer.get("source"), json.dumps(answer["result"],
                                                    sort_keys=True).encode()
        return (reply[end + 13:-2].decode("latin-1"),
                reply[start + 10:end])

    def request(self, op: list[Any]) -> bytes:
        kind, arg = op
        if kind == "get":
            return self.gets[arg]
        body = json.dumps({"requests": [self.space[k] for k in arg]})
        return self._head("POST", "/eval/batch", body.encode("utf-8"))

    def check(self, op: list[Any], reply: bytes, ms: float,
              measured: bool) -> None:
        kind, arg = op
        status = self._status(reply)
        self.attempted += 1
        if kind == "get":
            source, blob = self._get_answer(reply)
            ok = self._answer(arg, status, source, blob, measured)
            if ok and measured:
                self.by_kind.setdefault(source, []).append(ms)
        else:
            answer = self._json(reply)
            entries = (answer.get("results", [])
                       if isinstance(answer, dict) else [])
            ok = status == 200 and len(entries) == len(arg)
            if not ok:
                self.problems.append(f"batch: status {status}")
            for key, entry in zip(arg, entries):
                blob = (json.dumps(entry["result"], sort_keys=True).encode()
                        if "result" in entry else None)
                ok = self._answer(key, entry.get("status", 0),
                                  entry.get("source"), blob, measured) and ok
            if measured:
                self.by_kind.setdefault("batch", []).append(ms)
        self.failed += not ok
        if measured:
            self.latency_ms.append(ms)

    def run(self, schedule: dict[str, Any]) -> dict[str, Any]:
        seeded = schedule["seeded"]
        setup = [["batch", seeded[i:i + SEED_CHUNK]]
                 for i in range(0, len(seeded), SEED_CHUNK)]
        setup += [["get", key] for key in schedule["warm"]]
        for op in setup:
            self.check(op, *self.send(self.request(op)), measured=False)
        measure_start = time.monotonic()
        for op in schedule["ops"]:
            self.check(op, *self.send(self.request(op)), measured=True)
        measure_end = time.monotonic()
        return {
            "measure_start": measure_start, "measure_end": measure_end,
            "attempted": self.attempted, "failed": self.failed,
            "status": self.status, "tiers": self.tiers,
            "predicted": schedule["predicted"],
            "computed_total": self.computed_total,
            "latency_ms": self.latency_ms, "by_kind": self.by_kind,
            "problems": self.problems[:20],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.serveload")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--schedule", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    schedule = json.loads(Path(args.schedule).read_text())
    client = Client(args.port, schedule["space"])
    record = client.run(schedule)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
