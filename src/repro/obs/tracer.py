"""Span/counter/gauge emission into per-process JSONL trace files.

Design constraints, in priority order:

1. **Near-zero cost when disabled.**  Every public entry point reads
   one module global (``_SINK``) and bails; the disabled ``trace()``
   returns a shared singleton context manager so the hot path allocates
   nothing.  The overhead tests pin this.
2. **Process-safe without coordination.**  Each process writes its own
   ``trace-<pid>-<token>.jsonl``; a forked pool worker detects the pid
   change on its first event and starts a fresh file (dropping any
   buffer inherited from the parent, which the parent still owns).
   Flushes are single ``os.write`` appends to an ``O_APPEND``
   descriptor opened per flush, so no file handle -- and no userspace
   buffer -- ever crosses a ``fork``.  Threads share the process's
   buffer under one lock, taken only once tracing is enabled.
3. **Crash-tolerant.**  Events are buffered in small batches and the
   reader tolerates a torn trailing line, mirroring the result store's
   discipline; ``flush()`` is cheap and the campaign worker calls it
   after every point because ``multiprocessing.Pool`` teardown does not
   run ``atexit`` hooks in workers.

Event schema (one JSON object per line)::

    {"t": "span",    "name": ..., "pid": ..., "ts": ..., "dur_s": ...,
     "ok": true, "attrs": {...}}
    {"t": "counter", "name": ..., "pid": ..., "ts": ..., "n": ...,
     "attrs": {...}}
    {"t": "gauge",   "name": ..., "pid": ..., "ts": ..., "value": ...,
     "attrs": {...}}

``ts`` is epoch seconds at emission; ``dur_s`` is a monotonic
``perf_counter`` delta.  ``attrs`` is omitted when empty.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from pathlib import Path
from types import TracebackType
from typing import Any

#: Environment variable naming the trace directory; presence enables
#: tracing (and is inherited by spawned/forked worker processes).
TRACE_ENV = "REPRO_TRACE"

#: Per-process trace file name: ``trace-<pid>-<token>.jsonl``.
TRACE_FILE_PREFIX = "trace-"
TRACE_FILE_GLOB = "trace-*.jsonl"

#: Events buffered between writes; small enough that a crashed worker
#: loses at most a moment of history.
FLUSH_EVERY = 64


class _Sink:
    """Buffered JSONL writer bound to one process and one directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._pid = os.getpid()
        self._buffer: list[str] = []
        self._path = self._fresh_path()
        #: Guards the buffer and the file against concurrent emitters
        #: (serve's event loop and its worker threads, the layer map).
        self._lock = threading.Lock()

    def _fresh_path(self) -> Path:
        token = os.urandom(3).hex()  # pid reuse across runs stays unique
        return self.directory / f"{TRACE_FILE_PREFIX}{self._pid}-{token}.jsonl"

    @property
    def path(self) -> Path:
        return self._path

    def emit(self, event: dict[str, Any]) -> None:
        pid = os.getpid()
        event["pid"] = pid
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            if pid != self._pid:
                # Forked child: the inherited buffer belongs to the
                # parent (which still holds it); start a fresh file and
                # buffer.
                self._pid = pid
                self._buffer = []
                self._path = self._fresh_path()
            self._buffer.append(line)
            if len(self._buffer) >= FLUSH_EVERY:
                self._write()

    def flush(self) -> None:
        with self._lock:
            self._write()

    def _write(self) -> None:
        """Append the buffer to the file; the caller holds the lock."""
        if not self._buffer:
            return
        data = ("\n".join(self._buffer) + "\n").encode("utf-8")
        self._buffer = []
        self.directory.mkdir(parents=True, exist_ok=True)
        # One O_APPEND write per flush: atomic enough that concurrent
        # processes (which anyway write distinct files) and crashed
        # workers leave at worst one torn trailing line.
        fd = os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)


#: The process-wide sink; ``None`` means tracing is disabled and every
#: entry point returns immediately.
_SINK: _Sink | None = None


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self,
                 exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timing span; emits one ``span`` event on exit."""

    __slots__ = ("_sink", "_name", "_attrs", "_start")

    def __init__(self, sink: _Sink, name: str,
                 attrs: dict[str, Any]) -> None:
        self._sink = sink
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self,
                 exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> bool:
        dur = time.perf_counter() - self._start
        event: dict[str, Any] = {
            "t": "span", "name": self._name, "ts": time.time(),
            "dur_s": dur, "ok": exc_type is None,
        }
        if self._attrs:
            event["attrs"] = self._attrs
        self._sink.emit(event)
        return False


def trace(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Context manager timing one phase: ``with trace("sim.decode"):``.

    When tracing is disabled this returns a shared no-op object --
    callers pay one global read and two trivial method calls.
    """
    sink = _SINK
    if sink is None:
        return _NULL_SPAN
    return _Span(sink, name, attrs)


def counter(name: str, n: int = 1, **attrs: Any) -> None:
    """Record a monotonic event count (``n`` occurrences of ``name``)."""
    sink = _SINK
    if sink is None:
        return
    event: dict[str, Any] = {"t": "counter", "name": name,
                             "ts": time.time(), "n": n}
    if attrs:
        event["attrs"] = attrs
    sink.emit(event)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Record a sampled value (queue depth, bytes, ...)."""
    sink = _SINK
    if sink is None:
        return
    event: dict[str, Any] = {"t": "gauge", "name": name,
                             "ts": time.time(), "value": value}
    if attrs:
        event["attrs"] = attrs
    sink.emit(event)


def observe(name: str, seconds: float, **attrs: Any) -> None:
    """Record a duration the caller measured itself, as a span event.

    For intervals that cannot wrap a ``with`` block -- e.g. the time a
    blocking ``flock`` call spent waiting -- so they still land in the
    per-phase latency tables next to ordinary spans.
    """
    sink = _SINK
    if sink is None:
        return
    event: dict[str, Any] = {"t": "span", "name": name, "ts": time.time(),
                             "dur_s": seconds, "ok": True}
    if attrs:
        event["attrs"] = attrs
    sink.emit(event)


def enabled() -> bool:
    """Whether tracing is currently active in this process."""
    return _SINK is not None


def trace_dir() -> Path | None:
    """The active trace directory, or ``None`` when disabled."""
    return _SINK.directory if _SINK is not None else None


def flush() -> None:
    """Write any buffered events now (no-op when disabled)."""
    if _SINK is not None:
        _SINK.flush()


def configure(directory: str | Path | None) -> Path | None:
    """Enable tracing into ``directory`` (``None`` disables).

    Also sets/clears :data:`TRACE_ENV` so worker processes -- forked or
    spawned -- inherit the same destination.  Returns the resolved
    directory (or ``None``).  Idempotent: reconfiguring to the same
    directory keeps emitting there (in a fresh per-process file).
    """
    global _SINK
    flush()
    if directory is None:
        _SINK = None
        os.environ.pop(TRACE_ENV, None)
        return None
    resolved = Path(directory).expanduser()
    resolved.mkdir(parents=True, exist_ok=True)
    os.environ[TRACE_ENV] = str(resolved)
    _SINK = _Sink(resolved)
    return resolved


def _init_from_env() -> None:
    """Pick up ``$REPRO_TRACE`` at import (covers spawned workers)."""
    global _SINK
    directory = os.environ.get(TRACE_ENV)
    if directory:
        path = Path(directory).expanduser()
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            return  # unusable destination: stay disabled
        _SINK = _Sink(path)


def _unlock_in_child() -> None:
    """A forked child starts with a fresh lock: another thread of the
    parent may have held the inherited one at the fork."""
    if _SINK is not None:
        _SINK._lock = threading.Lock()


_init_from_env()
atexit.register(flush)
os.register_at_fork(after_in_child=_unlock_in_child)
