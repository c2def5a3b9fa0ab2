"""Retry policies: how a failed attempt is settled, and after what wait.

A :class:`RetryPolicy` says how many times a point may be attempted,
how long to wait between attempts (exponential backoff with
*deterministic* jitter keyed by the point's config hash, so two runs
of the same campaign back off identically), which exception classes
are worth retrying versus *poison* (deterministic bugs that will fail
every attempt identically), and the wall-clock deadline past which the
parent-side watchdog declares a worker hung.

Every failed attempt is a :class:`PointFailure`, and the policy alone
decides its fate: :meth:`RetryPolicy.settle` returns the backoff before
the next attempt, or ``None`` once the failure is terminal.  The
evaluation engine's one outcome handler (:mod:`repro.dse.engine`) calls
it for campaigns, the service and guided-search probes alike;
:meth:`RetryPolicy.call` is the loop for a plain callable that raises
(the scalar search's probes).

The policy rides on :class:`~repro.dse.spec.CampaignSpec` (optional
``retry`` field, JSON round-tripped) and the ``--max-attempts`` /
``--timeout`` / ``--backoff`` flags of ``repro.dse run``, ``repro.serve``
and ``repro.opt``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping, TypeVar

T = TypeVar("T")

#: Exception type names that will fail identically on every attempt --
#: programming errors, not infrastructure weather.  Everything else
#: (OSError, MemoryError, timeouts, worker death, injected faults) is
#: presumed transient and worth the retry budget.
POISON_TYPES = (
    "AssertionError",
    "AttributeError",
    "KeyError",
    "NotImplementedError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
)

#: Failure kinds the parent synthesizes when a worker produces no
#: payload at all; always retryable (the process, not the point's
#: code, is what failed -- until proven otherwise by the budget).
WORKER_FAILURE_KINDS = ("timeout", "heartbeat-silent", "worker-died")


@dataclass(frozen=True)
class PointFailure:
    """One failed attempt.  ``etype`` (the exception class name) is what
    the policy classifies; ``kind`` is ``"exception"``, or the
    :data:`WORKER_FAILURE_KINDS` reason the watchdog killed it for."""

    error: str
    etype: str = ""
    kind: str = "exception"

    @classmethod
    def from_exception(cls, exc: BaseException) -> "PointFailure":
        etype = type(exc).__name__
        return cls(f"{etype}: {exc}", etype=etype)

    @classmethod
    def killed(cls, reason: str, elapsed: float,
               attempt: int) -> "PointFailure":
        return cls(f"{reason} after {elapsed:.1f}s (attempt {attempt + 1})",
                   etype=reason, kind=reason)


def _number(value: Any) -> bool:
    """A real number (``bool`` excluded; the range checks reject NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and a point deadline."""

    #: Total attempts per point (1 = never retry).
    max_attempts: int = 3
    #: Per-point wall-clock deadline the watchdog enforces by killing
    #: and respawning the worker (``None`` = no deadline).
    timeout_s: float | None = None
    #: First backoff; attempt ``n`` waits ``backoff_s * factor**n``
    #: (clamped to ``max_backoff_s``) plus deterministic jitter.
    backoff_s: float = 0.1
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    #: Jitter fraction: the wait is scaled by a factor drawn
    #: deterministically from ``(key, attempt)`` in
    #: ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.1
    #: Kill a worker whose heartbeat has been silent this long while a
    #: point is in flight (``None`` disables; the per-point timeout is
    #: the usual guard, this one catches hard-frozen workers when no
    #: timeout is set).
    heartbeat_timeout_s: float | None = 30.0
    #: Exception type names classified as poison (never retried).
    poison: tuple[str, ...] = field(default=POISON_TYPES)

    def __post_init__(self) -> None:
        if not (isinstance(self.max_attempts, int)
                and not isinstance(self.max_attempts, bool)
                and self.max_attempts >= 1):
            raise ValueError(f"max_attempts must be an integer >= 1, "
                             f"got {self.max_attempts!r}")
        for name in ("timeout_s", "heartbeat_timeout_s"):
            value = getattr(self, name)
            if value is not None and not (_number(value) and value > 0):
                raise ValueError(f"{name} must be > 0, got {value!r}")
        for name, low in (("backoff_s", 0.0), ("max_backoff_s", 0.0),
                          ("backoff_factor", 1.0)):
            value = getattr(self, name)
            if not (_number(value) and math.isfinite(value)
                    and value >= low):
                raise ValueError(
                    f"{name} must be a finite number >= {low:g}, "
                    f"got {value!r}")
        if not (_number(self.jitter) and 0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")
        # A bare string would iterate as single characters.
        if not (isinstance(self.poison, (list, tuple))
                and all(isinstance(name, str) for name in self.poison)):
            raise ValueError(
                f"poison must be a list of exception type names, "
                f"got {self.poison!r}")
        object.__setattr__(self, "poison", tuple(self.poison))

    def is_retryable(self, etype: str, kind: str = "exception") -> bool:
        """Whether a failure is worth another attempt.

        ``kind`` is ``"exception"`` for a payload the worker streamed
        back, or one of :data:`WORKER_FAILURE_KINDS` for failures the
        parent synthesized (those are always retryable -- the process
        died, the point's code may be fine).
        """
        if kind in WORKER_FAILURE_KINDS:
            return True
        return etype not in self.poison

    def backoff_for(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``key``'s attempt
        ``attempt + 1`` -- exponential in ``attempt``, jittered by a
        deterministic draw so shards don't thundering-herd one store
        yet every run of a campaign backs off identically."""
        base = min(self.backoff_s * self.backoff_factor ** attempt,
                   self.max_backoff_s)
        if base <= 0 or self.jitter == 0:
            return base
        digest = hashlib.sha256(
            f"backoff|{key}|{attempt}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * u - 1.0))

    def poisoned(self, failure: PointFailure) -> bool:
        """Whether ``failure`` is poison: an exception of a type that
        fails identically on every attempt."""
        return not self.is_retryable(failure.etype, failure.kind)

    def settle(self, key: str, attempt: int,
               failure: PointFailure) -> float | None:
        """Decide ``key``'s failed attempt ``attempt`` (0-based): the
        backoff in seconds before the next attempt, or ``None`` when
        the failure is terminal (poison, or the budget is spent)."""
        if self.poisoned(failure) or attempt + 1 >= self.max_attempts:
            return None
        return self.backoff_for(key, attempt)

    def call(self, key: str, fn: Callable[[int], T],
             ) -> tuple[T | None, list[PointFailure]]:
        """Run ``fn(attempt)`` until it returns or fails for good.

        Returns ``fn``'s value (``None`` once an attempt failed for
        good) and every failed attempt, in order.  An exception is
        settled like any failure (:meth:`settle`); a retry first sleeps
        out its backoff.
        """
        failures: list[PointFailure] = []
        while True:
            try:
                return fn(len(failures)), failures
            except Exception as exc:  # noqa: BLE001 -- settled below
                failures.append(PointFailure.from_exception(exc))
                backoff = self.settle(key, len(failures) - 1, failures[-1])
                if backoff is None:
                    return None, failures
                time.sleep(backoff)

    def needs_watchdog(self) -> bool:
        """Whether this policy requires parent-side worker supervision,
        so the engine runs attempts in a worker process even where it
        would run them inline (``--jobs 1``, ``--workers 0``, guided
        search)."""
        return self.timeout_s is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "timeout_s": self.timeout_s,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "max_backoff_s": self.max_backoff_s,
            "jitter": self.jitter,
            "heartbeat_timeout_s": self.heartbeat_timeout_s,
            "poison": list(self.poison),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown retry-policy fields {sorted(unknown)}; "
                f"one of {sorted(known)}")
        return cls(**data)

    def with_overrides(self, **overrides: Any) -> "RetryPolicy":
        """A copy with any non-``None`` overrides applied (CLI flags
        layered over a spec's stored policy)."""
        applied = {name: value for name, value in overrides.items()
                   if value is not None}
        return replace(self, **applied) if applied else self
