"""JSON (de)serialization of evaluation results.

The result store persists canonical :class:`repro.eval.EvalResult`
objects (one schema for every backend -- analytical model and
simulator alike).  Every numeric field is a Python float/int, and
``json`` round-trips floats exactly (shortest-repr), so a deserialized
result is bit-identical to the freshly computed one -- the property
the harness-equivalence tests pin.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Protocol

from repro.eval.fingerprints import code_fingerprint
from repro.eval.result import EvalResult


class Keyed(Protocol):
    """What a record needs from what it answers: an
    :class:`~repro.eval.request.EvalRequest` or a co-search probe."""

    def key(self) -> str: ...

    def to_dict(self) -> dict[str, Any]: ...


def result_to_dict(result: EvalResult) -> dict[str, Any]:
    return result.to_dict()


def result_from_dict(data: Mapping[str, Any]) -> EvalResult:
    return EvalResult.from_dict(data)


def make_record(
    point: Keyed,
    result: EvalResult | Mapping[str, Any],
    elapsed_s: float | None = None,
    attempts: int | None = None,
    last_error: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one store record for ``point``'s result, computed under
    :func:`~repro.eval.fingerprints.code_fingerprint`.

    ``attempts``/``last_error`` record a bumpy evaluation history (the
    executor's retry path sets them when a point needed more than one
    attempt); omitted, the keys stay out of the record so pre-existing
    stores remain byte-compatible.  ``extra`` carries producer
    provenance (the guided optimizer sets ``origin``/``round`` so mixed
    guided+exhaustive stores stay auditable); like the retry keys it is
    omitted entirely when not given.
    """
    payload = (result.to_dict() if isinstance(result, EvalResult)
               else dict(result))
    record: dict[str, Any] = {
        "key": point.key(),
        "point": point.to_dict(),
        "fingerprint": code_fingerprint(),
        "created_at": time.time(),
        "elapsed_s": elapsed_s,
        "result": payload,
    }
    if attempts is not None:
        record["attempts"] = attempts
        record["last_error"] = last_error
    if extra is not None:
        record["extra"] = dict(extra)
    return record
