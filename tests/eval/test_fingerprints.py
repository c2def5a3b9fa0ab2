"""Every store namespace digests the whole ``repro`` tree and numpy's
version.

A module left out of a fingerprint can change a result without
rotating the namespace that serves it, so any source edit must rotate
all three namespaces: model, ``simnet-`` and ``opt-``.  So must another
numpy: every cached number is a ``Generator`` draw, and numpy promises
no stable stream across releases (NEP 19).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.fingerprints import (
    code_fingerprint,
    opt_fingerprint,
    sim_backend_fingerprint,
    tree_digest,
)

INSTALLED = Path(repro.__file__).parent

#: Modules that feed every result, yet which narrower fingerprints
#: (hand-kept package lists, import cones) have missed.
FEEDERS = ("eval/backends.py", "eval/result.py", "quant/quantizer.py",
           "utils/rng.py", "utils/bits.py", "core/bitcolumn.py")

PRINT_NAMESPACES = """
from repro.eval.fingerprints import (
    code_fingerprint, opt_fingerprint, sim_backend_fingerprint)
print(code_fingerprint(), sim_backend_fingerprint(), opt_fingerprint())
"""


def namespaces() -> tuple[str, ...]:
    return (code_fingerprint(), sim_backend_fingerprint(),
            opt_fingerprint())


def namespaces_of(root: Path, prelude: str = "") -> tuple[str, ...]:
    """The three namespaces as a fresh process importing ``root``
    computes them, after running ``prelude``."""
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    out = subprocess.run(
        [sys.executable, "-c", prelude + PRINT_NAMESPACES], env=env,
        capture_output=True, text=True, check=True, timeout=300).stdout
    return tuple(out.split())


def append_line(path: Path) -> str:
    """Append a comment line to ``path``; returns the original text."""
    original = path.read_text(encoding="utf-8")
    path.write_text(original + "\n# cache-buster\n", encoding="utf-8")
    return original


@pytest.fixture
def tree_copy(tmp_path):
    """A scratch copy of the installed tree, safe to edit."""
    root = tmp_path / "repro"
    shutil.copytree(INSTALLED, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_namespaces_prefix_one_digest():
    digest = tree_digest(INSTALLED)
    assert len(digest) == 12
    assert namespaces() == (digest, "simnet-" + digest, "opt-" + digest)


def test_another_numpy_rotates_every_namespace():
    same = namespaces_of(INSTALLED)
    other = namespaces_of(
        INSTALLED, "import numpy\nnumpy.__version__ = '0.0.0+other'\n")
    assert same == namespaces()
    assert len(other) == 3
    unchanged = [ns for ns, old in zip(other, same) if ns == old]
    assert not unchanged, f"another numpy left {unchanged} in place"


def test_every_module_edit_rotates_the_digest(tree_copy):
    base = tree_digest(tree_copy)
    modules = sorted(tree_copy.rglob("*.py"))
    assert len(modules) == len(list(INSTALLED.rglob("*.py")))
    for path in modules:
        original = append_line(path)
        assert tree_digest(tree_copy) != base, path
        path.write_text(original, encoding="utf-8")
        assert tree_digest(tree_copy) == base, path


def test_new_module_rotates_the_digest(tree_copy):
    base = tree_digest(tree_copy)
    (tree_copy / "utils" / "extra.py").write_text("", encoding="utf-8")
    assert tree_digest(tree_copy) != base


@pytest.mark.parametrize("module", FEEDERS)
def test_feeder_edit_rotates_every_namespace(tree_copy, module):
    before = namespaces()
    append_line(tree_copy / module)
    after = namespaces_of(tree_copy)
    assert len(after) == 3
    unchanged = [ns for ns, old in zip(after, before) if ns == old]
    assert not unchanged, f"{module} edit left {unchanged} in place"
