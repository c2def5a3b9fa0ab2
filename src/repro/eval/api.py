"""``evaluate(request) -> EvalResult``: the single evaluation entry point.

Every evaluation round-trips a persistent, fingerprint-namespaced
result store (memo -> store -> backend compute), so repeated calls --
including across processes -- are incremental.  A per-process memo on
top keeps object identity and avoids repeated deserialization.

The store layout is the :class:`repro.dse.store.ResultStore` JSONL
machinery; every backend's records share one namespace, the digest of
the whole source tree (:mod:`repro.eval.fingerprints`), and the
request key tells backends apart.  Any source edit invalidates every
cached result at once.

**Concurrency.** This module is written for one sequential caller per
process.  The memo and the store handle are mutated without locks,
and -- the sharper edge -- concurrent :func:`evaluate` calls for the
same not-yet-cached request each run the full backend computation and
each append a store record (last write wins; correct but wasteful,
and profiling-heavy backends make it *very* wasteful).  Python threads
and asyncio tasks both hit this: the memo check and the memo fill are
separated by the entire evaluation, so every concurrent caller misses.
Do not bolt a lock on here; route concurrent callers through
:class:`repro.serve.EvalService`, whose single-flight layer coalesces
identical in-flight requests onto one evaluation and owns all store
writes.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.eval.registry import EvalBackend, get_backend
from repro.obs import counter, trace

if TYPE_CHECKING:  # runtime import would cycle through repro.dse
    from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult

#: Per-process memo: (backend name, request key) -> result.
_MEMO: dict[tuple[str, str], EvalResult] = {}
#: The process-wide default store once opened; ``None`` marks an
#: unusable store (e.g. a read-only filesystem -- evaluation then skips
#: persistence).
_STORE: "ResultStore | None" = None
_STORE_OPENED = False


def eval_store(backend: EvalBackend | str,
               root: "str | Path | None" = None) -> "ResultStore":
    """The store under ``root`` that holds ``backend``'s results: the
    one namespace every backend shares.  Raises ``ValueError`` for an
    unknown backend name."""
    from repro.dse.store import ResultStore

    if isinstance(backend, str):
        get_backend(backend)
    return ResultStore(root)


def default_store() -> "ResultStore | None":
    """The process-wide store, or ``None`` if broken."""
    global _STORE, _STORE_OPENED
    if not _STORE_OPENED:
        from repro.dse.store import ResultStore

        _STORE, _STORE_OPENED = ResultStore(), True
    return _STORE


def reset_cache() -> None:
    """Drop the per-process memo and store handle (used by tests)."""
    global _STORE, _STORE_OPENED
    _MEMO.clear()
    _STORE, _STORE_OPENED = None, False


def memoize(request: EvalRequest, result: EvalResult) -> EvalResult:
    """Install ``result`` as the process-wide answer for ``request``.

    The one place that knows the memo's key layout; used by
    :func:`evaluate` and by bulk producers (campaign prewarm) handing
    their results to later single-request calls.  Single-caller only,
    like the rest of this module -- the serving path keeps its own
    coalescing layer and never touches this memo.
    """
    _MEMO[(request.backend, request.key())] = result
    return result


def evaluate(request: EvalRequest,
             store: "ResultStore | None" = None,
             *,
             force: bool = False) -> EvalResult:
    """Answer ``request`` through memo -> store -> backend compute.

    ``store`` overrides the default store for this call, for both the
    read and the write (its records are still keyed by
    ``request.key()``); explicit-store calls bypass the per-process
    memo so the given store is really consulted.  ``force``
    bypasses memo and store reads; the fresh result is still persisted.

    Not safe for concurrent callers (threads or asyncio tasks): the
    memo is checked and filled without locks on either side of the
    whole computation, so identical concurrent requests all miss and
    all recompute.  Concurrent use goes through
    :class:`repro.serve.EvalService`, which coalesces in-flight
    duplicates (see the module docstring).
    """
    from repro.dse.records import make_record

    global _STORE
    request.validate()
    backend = get_backend(request.backend)
    key = request.key()
    explicit = store is not None
    if not explicit:
        if not force and (request.backend, key) in _MEMO:
            counter("eval.cache", result="memo", backend=request.backend)
            return _MEMO[(request.backend, key)]
        store = default_store()

    result = None
    if store is not None and not force:
        with trace("eval.store_lookup", backend=request.backend):
            result = store.result(key)
    if result is None:
        counter("eval.cache", result="miss", backend=request.backend)
        with trace("eval.evaluate", backend=request.backend,
                   workload=request.workload):
            result = backend.evaluate(request)
        if store is not None:
            record = make_record(request, result)
            try:
                with trace("eval.persist", backend=request.backend):
                    store.put(key, record)
            except OSError:
                if not explicit:  # degrade: stop retrying the store
                    _STORE = None
    else:
        counter("eval.cache", result="store", backend=request.backend)
    if not explicit:
        memoize(request, result)
    return result
