"""Per-layer call tallies, recorded from outside the program.

:class:`Tallies` wraps public functions and methods of ``repro`` and
records, per wrapped name, the call count, total busy seconds and self
seconds (total minus the part of the call's interval that wrapped
callees cover), plus optional extra sums such as weights profiled or
MACs simulated.  Nothing under ``src/`` changes and nothing is read
from ``repro.obs``, whose tracer a later change rewrites.

Each process writes its own ``tallies-<pid>.json`` into one directory;
:func:`merge` sums them.  Three details matter:

- ``from``-imports bind a function into every importing module, so a
  function target is replaced wherever a loaded ``repro`` module holds
  it; method targets are replaced on their class.
- Campaign pool workers are forked and leave through ``os._exit``,
  which skips ``atexit``; a forked process therefore writes its file
  each time an outermost wrapped call returns.  The process that
  installed the wrappers writes its file when told (:meth:`flush`).
- Frames live in a :class:`contextvars.ContextVar`, so asyncio tasks
  and ``asyncio.to_thread`` calls attribute child time to the call that
  awaits them; concurrent children are merged as intervals, never
  double counted.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: ``extra(args, kwargs, result, before) -> {suffix: amount}``.
ExtraFn = Callable[[tuple, dict, Any, Any], "dict[str, float]"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``."""

    name: str
    where: str
    #: Sums extra amounts per call (``.weights``, ``.macs``, ...).
    extra: ExtraFn | None = None
    #: Snapshot taken before the call and handed to ``extra``.
    before: Callable[[tuple, dict], Any] | None = None


@dataclass
class _Frame:
    name: str
    start: float
    pid: int
    parent: "_Frame | None"
    children: list[tuple[float, float]] = field(default_factory=list)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tallies:
    """Call tallies of one process tree, written under ``out_dir``."""

    def __init__(self, out_dir: str | Path,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self.owner_pid = os.getpid()
        #: name -> [calls, total seconds, self seconds]
        self.rows: dict[str, list[float]] = {}
        #: "name.suffix" -> summed extra amount
        self.extra: dict[str, float] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._frame: contextvars.ContextVar[_Frame | None] = \
            contextvars.ContextVar(f"perfbench-frame-{id(self)}",
                                   default=None)
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        # A forked child starts from empty tallies (the parent writes
        # its own) and a fresh lock (the parent's may have been held).
        self.rows = {}
        self.extra = {}
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def enter(self, name: str) -> tuple[_Frame, contextvars.Token]:
        parent = self._frame.get()
        pid = os.getpid()
        if parent is not None and parent.pid != pid:
            parent = None  # inherited across fork: this call is outermost
        frame = _Frame(name, self.clock(), pid, parent)
        return frame, self._frame.set(frame)

    def exit(self, frame: _Frame, token: contextvars.Token,
             extra: dict[str, float] | None = None) -> None:
        end = self.clock()
        self._frame.reset(token)
        total = end - frame.start
        self_s = total - covered(frame.children)
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))
        with self._lock:
            row = self.rows.setdefault(frame.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total
            row[2] += self_s
            for suffix, amount in (extra or {}).items():
                key = f"{frame.name}.{suffix}"
                self.extra[key] = self.extra.get(key, 0.0) + amount
        if frame.parent is None and frame.pid != self.owner_pid:
            self.flush()

    def wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded under ``target.name``."""
        name, extra_fn, before_fn = target.name, target.extra, target.before

        def snapshot(args: tuple, kwargs: dict) -> Any:
            if before_fn is None:
                return None
            try:
                return before_fn(args, kwargs)
            except Exception:  # noqa: BLE001 -- never break the program
                return None

        def measure(args: tuple, kwargs: dict, result: Any,
                    before: Any) -> dict[str, float] | None:
            if extra_fn is None:
                return None
            try:
                return extra_fn(args, kwargs, result, before)
            except Exception:  # noqa: BLE001 -- never break the program
                return {"extra_errors": 1.0}

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                before = snapshot(args, kwargs)
                frame, token = self.enter(name)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self.exit(frame, token,
                              measure(args, kwargs, result, before))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = snapshot(args, kwargs)
            frame, token = self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(frame, token, measure(args, kwargs, result, before))
        for attr in ("cache_info", "cache_clear"):  # lru_cache targets
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- installing ------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; a target the tree no longer has is noted
        in :attr:`missing` and skipped, so the benchmark outlives
        refactors of the program it measures."""
        for target in targets:
            module_name, _, path = target.where.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.where)
                continue
            wrapper = self.wrap(target, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)

    # -- output ----------------------------------------------------------
    def flush(self) -> None:
        """Write this process's tallies (atomically replacing the last)."""
        with self._lock:
            data = {"pid": os.getpid(), "rows": dict(self.rows),
                    "extra": dict(self.extra), "missing": self.missing}
        path = self.out_dir / f"tallies-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)


def merge(out_dir: str | Path) -> tuple[dict[str, list[float]],
                                        dict[str, float], list[str]]:
    """Sum every process's tallies under ``out_dir``."""
    rows: dict[str, list[float]] = {}
    extra: dict[str, float] = {}
    missing: set[str] = set()
    for path in sorted(Path(out_dir).glob("tallies-*.json")):
        data = json.loads(path.read_text())
        for name, (calls, total, self_s) in data["rows"].items():
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        for key, amount in data["extra"].items():
            extra[key] = extra.get(key, 0.0) + amount
        missing.update(data["missing"])
    return rows, extra, sorted(missing)
