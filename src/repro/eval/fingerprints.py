"""Source fingerprints namespacing the persistent result store.

Persisted results are only valid for the code that produced them, so
every store namespace derives from one digest of every ``*.py`` file
under the installed ``repro`` package, computed once per process.  The
model namespace is the bare digest; the simulator, co-search and
sim-validation namespaces prefix it with ``simnet-``, ``opt-`` and
``sim-``.  Any edit under ``src/repro`` rotates every namespace (one
cold start), and :mod:`repro.dse.gc` treats the old ones as stale.

Nothing narrower is worth its cost: a hand-kept package list misses the
next new import, and both backends' ``evaluate`` methods live in
:mod:`repro.eval.backends`, whose import cone is over half the tree and
takes far longer to build than hashing every file.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path


def tree_digest(root: str | Path) -> str:
    """Uncached digest of every ``*.py`` file under ``root``: each
    file's path relative to ``root``, then its bytes."""
    base = Path(root)
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@lru_cache(maxsize=1)
def _installed_digest() -> str:
    import repro

    return tree_digest(Path(repro.__file__).parent)  # type: ignore[arg-type]


def code_fingerprint() -> str:
    """The model namespace: the whole-tree digest."""
    return _installed_digest()


def sim_backend_fingerprint() -> str:
    """The namespace of simulator-backed evaluations."""
    return "simnet-" + _installed_digest()


def opt_fingerprint() -> str:
    """The namespace of co-search probe records (:mod:`repro.opt`)."""
    return "opt-" + _installed_digest()


def live_fingerprints() -> frozenset[str]:
    """The registered evaluation backends' namespaces.

    Every other namespace under a store root was written by an earlier
    revision of the code; :func:`repro.dse.gc.live_namespaces` adds the
    sim-validation and co-search namespaces to this set.
    """
    from repro.eval.registry import backend_names, get_backend

    return frozenset(
        get_backend(name).fingerprint() for name in backend_names())
