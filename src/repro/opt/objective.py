"""The failure-tolerant, cache-sharing objective behind every probe.

An :class:`Objective` turns the evaluation machinery into a
deterministic callback for guided drivers: lookup in the store it was
given first (guided and exhaustive runs share its keyspace), then, on
a miss, the evaluation engine (:func:`repro.dse.engine.settle_all`) --
the one campaigns and the service use -- which computes under the
retry policy, enforces its timeout with a watchdog worker, and commits
a record stamped with search provenance (``origin`` and round index
in ``extra``) so mixed guided+exhaustive stores stay auditable.
:meth:`Objective.probe` answers grid points, which are
:class:`~repro.eval.request.EvalRequest` objects, so a probe stores
the same ``point`` dict as a campaign or an ``evaluate()`` call;
:meth:`Objective.answer` is the same path for any keyed subject (the
co-search's strategy snapshots).

Probes are chaos-testable: each attempt binds the fault-injection point
context and fires the ``opt`` site, so an ``--inject
'crash:…:site=opt'`` plan exercises the retry loop exactly like real
infrastructure weather.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.engine import ComputeFn, settle_all
from repro.dse.records import Keyed
from repro.dse.retry import RetryPolicy
from repro.dse.store import ResultStore
from repro.eval.registry import get_backend
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult
from repro.obs import counter, trace


@dataclass(frozen=True)
class Probe:
    """One objective evaluation: what was asked and what came back."""

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
    """Deterministic, failure-tolerant ``probe(request) -> Probe`` callback.

    ``origin`` names the driver (``"opt:sh"``, ``"opt:cosearch"``, ...)
    and is stamped into every record this objective writes to
    ``store``.  The ``trajectory`` lists every probed request key in
    call order -- cache hits included -- so two runs of a seeded driver
    can be checked for bit-identical probe sequences.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        origin: str,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.store = store
        self.origin = origin
        self.policy = policy or RetryPolicy()
        self.trajectory: list[str] = []
        self.evaluated = 0
        self.saved = 0
        self.failed = 0
        #: Evaluated probes whose records could not be written.
        self.persist_failures = 0

    def probe(self, request: EvalRequest, *, round_index: int = 0) -> Probe:
        """Answer one grid point: store hit, or evaluate-with-retries.

        Never raises on evaluation failure -- a probe that exhausts its
        retry budget (or hits a poison error, or its timeout) returns
        with ``result=None`` and the driver ranks it last.  This is
        what lets a guided run keep converging while infrastructure
        misbehaves under it.
        """
        request.validate()
        result, attempts, error = self.answer(
            request, get_backend(request.backend).evaluate,
            round_index=round_index, backend=request.backend,
            workload=request.workload)
        return Probe(request=request, result=result, cached=attempts == 0,
                     attempts=attempts, error=error)

    def answer(self, subject: Keyed, compute: ComputeFn,
               *, round_index: int, backend: str, workload: str,
               ) -> tuple[EvalResult | None, int, str | None]:
        """``subject``'s result from the store, else ``compute(subject)``
        through the evaluation engine, recorded in the store.

        Returns ``(result, attempts, error)``; a store hit took 0
        attempts, and a failure has ``result=None`` and its last error.
        """
        key = subject.key()
        self.trajectory.append(key)
        with trace("opt.probe", origin=self.origin, round=round_index,
                   backend=backend, workload=workload):
            cached = self.store.result(key)
            if cached is not None:
                self.saved += 1
                counter("opt.probes.saved", origin=self.origin)
                return cached, 0, None
            (done,) = settle_all(
                [subject], compute, site="opt", store=self.store,
                policy=self.policy,
                extra={"origin": self.origin, "round": round_index},
            ).values()
            for failure in done.failures:
                counter("opt.probe_errors", origin=self.origin,
                        etype=failure.etype)
            if done.result is None:
                self.failed += 1
                counter("opt.probes.failed", origin=self.origin)
                return None, done.attempts, done.last_error
            if not done.persisted:
                # An unwritable store costs persistence, not the answer.
                self.persist_failures += 1
                counter("opt.probes.persist_failures", origin=self.origin)
            self.evaluated += 1
            counter("opt.probes.evaluated", origin=self.origin)
            return done.result, done.attempts, None

    def counts(self) -> dict[str, int]:
        """Probe accounting for reports and BENCH artifacts."""
        return {
            "probes": len(self.trajectory),
            "evaluated": self.evaluated,
            "saved": self.saved,
            "failed": self.failed,
        }
