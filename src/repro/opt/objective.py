"""The failure-tolerant, cache-sharing objective behind every probe.

An :class:`Objective` turns ``repro.eval.evaluate``'s machinery into a
deterministic callback for guided drivers: store lookup first (guided
and exhaustive runs share the fingerprint-namespaced cache keyspace),
backend compute on a miss with bounded retries under a
:class:`repro.dse.retry.RetryPolicy`, and a store record stamped with
search provenance (``origin`` and round index in ``extra``) so mixed
guided+exhaustive stores stay auditable.

Probes are chaos-testable: each attempt binds the fault-injection point
context and fires the ``opt`` site, so an ``--inject
'crash:…:site=opt'`` plan exercises the retry loop exactly like real
infrastructure weather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import faults
from repro.dse.records import make_record
from repro.dse.retry import RetryPolicy
from repro.dse.spec import EvalPoint
from repro.dse.store import ResultStore, StoreRouter
from repro.eval.registry import get_backend
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult
from repro.obs import counter, trace


@dataclass(frozen=True)
class Probe:
    """One objective evaluation: what was asked and what came back."""

    point: EvalPoint
    request: EvalRequest
    result: EvalResult | None
    #: ``True`` when the result came from the store (no evaluation ran).
    cached: bool
    #: Backend evaluation attempts this probe consumed (0 for a hit).
    attempts: int
    #: The terminal error for a failed probe (``result is None``).
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class Objective:
    """Deterministic, failure-tolerant ``probe(point) -> Probe`` callback.

    ``origin`` names the driver (``"opt:sh"``, ``"opt:cosearch"``, ...)
    and is stamped into every record this objective writes.  The
    ``trajectory`` lists every probed request key in call order --
    cache hits included -- so two runs of a seeded driver can be
    checked for bit-identical probe sequences.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        origin: str,
        policy: RetryPolicy | None = None,
        sleep: bool = True,
    ) -> None:
        self.router = StoreRouter(store)
        self.origin = origin
        self.policy = policy or RetryPolicy()
        #: Suppress real backoff sleeps (tests pin trajectories, not
        #: wall clock; the backoff durations stay deterministic either
        #: way).
        self.sleep = sleep
        self.trajectory: list[str] = []
        self.evaluated = 0
        self.saved = 0
        self.failed = 0

    def probe(self, point: EvalPoint, *, round_index: int = 0) -> Probe:
        """Answer one point: store hit, or evaluate-with-retries.

        Never raises on evaluation failure -- a probe that exhausts its
        retry budget (or hits a poison error) returns with
        ``result=None`` and the driver ranks it last.  This is what
        lets a guided run keep converging while infrastructure
        misbehaves under it.
        """
        request = point.request()
        request.validate()
        key = request.key()
        self.trajectory.append(key)
        store = self.router.for_point(point)
        with trace("opt.probe", origin=self.origin, round=round_index,
                   backend=point.backend, workload=point.network):
            cached = store.result(key)
            if cached is not None:
                self.saved += 1
                counter("opt.probes.saved", origin=self.origin)
                return Probe(point=point, request=request, result=cached,
                             cached=True, attempts=0)
            return self._evaluate(point, request, key, store, round_index)

    def _evaluate(
        self,
        point: EvalPoint,
        request: EvalRequest,
        key: str,
        store: ResultStore,
        round_index: int,
    ) -> Probe:
        backend = get_backend(request.backend)
        last_error: str | None = None
        attempt = 0
        while True:
            faults.set_point_context(key, attempt)
            try:
                faults.fire("opt")
                start = time.perf_counter()
                result = backend.evaluate(request)
                elapsed = time.perf_counter() - start
            except Exception as exc:
                etype = type(exc).__name__
                last_error = f"{etype}: {exc}"
                counter("opt.probe_errors", origin=self.origin, etype=etype)
                if (attempt + 1 >= self.policy.max_attempts
                        or not self.policy.is_retryable(etype)):
                    self.failed += 1
                    counter("opt.probes.failed", origin=self.origin)
                    return Probe(point=point, request=request, result=None,
                                 cached=False, attempts=attempt + 1,
                                 error=last_error)
                backoff = self.policy.backoff_for(key, attempt)
                if self.sleep and backoff > 0:
                    time.sleep(backoff)
                attempt += 1
                continue
            finally:
                faults.clear_point_context()
            record = make_record(
                request, result, elapsed_s=elapsed,
                fingerprint=backend.fingerprint(),
                attempts=attempt + 1 if attempt else None,
                last_error=last_error if attempt else None,
                extra={"origin": self.origin, "round": round_index},
            )
            store.put(key, record)
            self.evaluated += 1
            counter("opt.probes.evaluated", origin=self.origin)
            return Probe(point=point, request=request, result=result,
                         cached=False, attempts=attempt + 1)

    def counts(self) -> dict[str, int]:
        """Probe accounting for reports and BENCH artifacts."""
        return {
            "probes": len(self.trajectory),
            "evaluated": self.evaluated,
            "saved": self.saved,
            "failed": self.failed,
        }
