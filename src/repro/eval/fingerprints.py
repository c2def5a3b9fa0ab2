"""The source fingerprint naming the persistent result store's namespace.

Persisted results are only valid for the code that produced them, so
the store namespace is one digest of every ``*.py`` file under the
installed ``repro`` package and of numpy's version, computed once per
process.  numpy counts because every cached number derives from a
``Generator`` draw, and numpy promises no stable stream across
releases (NEP 19).  Every backend's records and every co-search probe
live under this one namespace: their keys already hash the backend
(or the probe kind), so nothing else needs separating.  Any edit under
``src/repro``, or another numpy, rotates the namespace (one cold
start), and :mod:`repro.dse.gc` treats the old ones as stale.

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
    """Uncached digest of numpy's version and every ``*.py`` file
    under ``root``: each file's path relative to ``root``, then its
    bytes."""
    import numpy

    base = Path(root)
    digest = hashlib.sha256(f"numpy {numpy.__version__}\0".encode())
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """The store namespace: the installed tree's :func:`tree_digest`."""
    import repro

    return tree_digest(Path(repro.__file__).parent)  # type: ignore[arg-type]
