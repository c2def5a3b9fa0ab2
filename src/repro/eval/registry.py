"""The backend protocol and registry of ``repro.eval``.

A backend is anything that can answer an :class:`EvalRequest` with a
canonical :class:`EvalResult`: the analytical model, a structural
simulator datapath, or (later) an RTL trace reader or remote service.
A backend names itself, declares the arch fields it reads, and
evaluates; every backend's results share the one store namespace of
:mod:`repro.eval.fingerprints`, told apart by the request key, which
hashes the backend's name.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.eval.request import EvalRequest
from repro.eval.result import EvalResult


@runtime_checkable
class EvalBackend(Protocol):
    """What a registered evaluation backend must provide."""

    #: Registry name (``"model"``, ``"sim-vectorized"``, ...).
    name: str

    def arch_reads(self, accelerator: str,
                   variant: str | None) -> frozenset[str]:
        """The arch override names (:data:`repro.arch.OVERRIDE_FIELDS`)
        this backend's evaluation of one configuration can read; a
        request's key keeps only those.  A superset is safe, a subset
        serves wrong results.  May raise ``ValueError`` for a
        configuration the backend does not know."""
        ...

    def evaluate(self, request: EvalRequest) -> EvalResult:
        """Compute (never cache) the result for ``request``."""
        ...


_REGISTRY: dict[str, EvalBackend] = {}
_BUILTINS_LOADED = False


def register_backend(backend: EvalBackend) -> EvalBackend:
    """Add ``backend`` to the registry (last registration wins)."""
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    _ensure_builtin_backends()
    return tuple(_REGISTRY)


def get_backend(name: str) -> EvalBackend:
    _ensure_builtin_backends()
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; one of {tuple(_REGISTRY)}")
    return _REGISTRY[name]


def _ensure_builtin_backends() -> None:
    """Lazily register the built-in backends (import-cycle-free)."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.eval.backends  # noqa: F401  (registers on import)
