"""The store namespace digests the whole ``repro`` tree and numpy's
version.

A module left out of the fingerprint can change a result without
rotating the namespace that serves it, so any source edit must rotate
the one namespace every backend and the co-search share.  So must
another numpy: every cached number is a ``Generator`` draw, and numpy
promises no stable stream across releases (NEP 19).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.fingerprints import code_fingerprint, tree_digest

INSTALLED = Path(repro.__file__).parent

#: Modules that feed every result, yet which narrower fingerprints
#: (hand-kept package lists, import cones) have missed.
FEEDERS = ("eval/backends.py", "eval/result.py", "quant/quantizer.py",
           "utils/rng.py", "utils/bits.py", "core/bitcolumn.py")

PRINT_NAMESPACE = """
from repro.eval.fingerprints import code_fingerprint
print(code_fingerprint())
"""


def namespace_of(root: Path, prelude: str = "") -> str:
    """The namespace as a fresh process importing ``root`` computes it,
    after running ``prelude``."""
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    out = subprocess.run(
        [sys.executable, "-c", prelude + PRINT_NAMESPACE], env=env,
        capture_output=True, text=True, check=True, timeout=300).stdout
    return out.strip()


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


def test_the_namespace_is_the_digest():
    digest = tree_digest(INSTALLED)
    assert len(digest) == 12
    assert code_fingerprint() == digest


def test_another_numpy_rotates_every_namespace():
    same = namespace_of(INSTALLED)
    other = namespace_of(
        INSTALLED, "import numpy\nnumpy.__version__ = '0.0.0+other'\n")
    assert same == code_fingerprint()
    assert len(other) == 12
    assert other != same, "another numpy left the namespace in place"


def test_every_module_edit_rotates_the_digest(tree_copy):
    base = tree_digest(tree_copy)
    modules = sorted(tree_copy.rglob("*.py"))
    assert len(modules) == len(list(INSTALLED.rglob("*.py")))
    for path in modules:
        original = append_line(path)
        assert tree_digest(tree_copy) != base, path
        path.write_text(original, encoding="utf-8")
        assert tree_digest(tree_copy) == base, path


def test_the_digest_reads_every_file_of_the_package():
    # The digest hashes *.py files only, so a data file in the package
    # could change a result without rotating any namespace.
    files = [path.relative_to(INSTALLED).as_posix()
             for path in INSTALLED.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert files
    assert [name for name in files if not name.endswith(".py")] == []


def test_new_module_rotates_the_digest(tree_copy):
    base = tree_digest(tree_copy)
    (tree_copy / "utils" / "extra.py").write_text("", encoding="utf-8")
    assert tree_digest(tree_copy) != base


@pytest.mark.parametrize("module", FEEDERS)
def test_feeder_edit_rotates_every_namespace(tree_copy, module):
    before = code_fingerprint()
    append_line(tree_copy / module)
    after = namespace_of(tree_copy)
    assert len(after) == 12
    assert after != before, f"{module} edit left the namespace in place"
