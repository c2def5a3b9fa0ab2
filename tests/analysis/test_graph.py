"""The AST import graph: resolution, cones, cycles, and the real tree."""

from __future__ import annotations

import pytest

from repro.analysis.graph import build_graph, repo_graph


class TestSyntheticGraph:
    def test_module_names_cover_packages_and_modules(self, make_tree):
        root = make_tree({
            "a.py": "import pkg.b\n",
            "b.py": "VALUE = 1\n",
            "sub/c.py": "from pkg import a\n",
        })
        graph = build_graph(root, package="pkg")
        assert set(graph.module_names()) == {
            "pkg", "pkg.a", "pkg.b", "pkg.sub", "pkg.sub.c"}

    def test_top_level_and_deferred_edges(self, make_tree):
        root = make_tree({
            "a.py": ("import pkg.b\n"
                     "def lazy():\n"
                     "    import pkg.c\n"),
            "b.py": "",
            "c.py": "",
        })
        graph = build_graph(root, package="pkg")
        info = graph.modules["pkg.a"]
        assert info.imports(include_deferred=True) == {"pkg.b", "pkg.c"}
        assert info.imports(include_deferred=False) == {"pkg.b"}
        by_target = {edge.target: edge for edge in info.edges}
        assert not by_target["pkg.b"].deferred
        assert by_target["pkg.c"].deferred

    def test_type_checking_guard_is_deferred(self, make_tree):
        root = make_tree({
            "a.py": ("from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n"
                     "    import pkg.b\n"),
            "b.py": ("import typing\n"
                     "if typing.TYPE_CHECKING:\n"
                     "    import pkg.a\n"),
        })
        graph = build_graph(root, package="pkg")
        assert all(edge.deferred for edge in graph.modules["pkg.a"].edges)
        assert all(edge.deferred for edge in graph.modules["pkg.b"].edges)
        # Annotation-only back-references must not read as runtime cycles.
        assert graph.cycles() == []

    def test_relative_imports_resolve(self, make_tree):
        root = make_tree({
            "sub/a.py": ("from . import b\n"
                         "from ..other import c\n"),
            "sub/b.py": "",
            "other/c.py": "",
        })
        graph = build_graph(root, package="pkg")
        assert graph.modules["pkg.sub.a"].imports() == {
            "pkg.sub.b", "pkg.other.c"}

    def test_external_imports_dropped(self, make_tree):
        root = make_tree({
            "a.py": ("import os\n"
                     "import numpy as np\n"
                     "from collections import deque\n"),
        })
        graph = build_graph(root, package="pkg")
        assert graph.modules["pkg.a"].imports() == frozenset()

    def test_symbol_import_falls_back_to_module(self, make_tree):
        root = make_tree({
            "a.py": "from pkg.b import helper\n",
            "b.py": "def helper():\n    return 1\n",
        })
        graph = build_graph(root, package="pkg")
        assert graph.modules["pkg.a"].imports() == {"pkg.b"}

    def test_dependency_cone_transitive(self, make_tree):
        root = make_tree({
            "a.py": "import pkg.b\n",
            "b.py": ("def lazy():\n"
                     "    import pkg.c\n"),
            "c.py": "import pkg.d\n",
            "d.py": "",
            "unrelated.py": "import pkg.d\n",
        })
        graph = build_graph(root, package="pkg")
        cone = graph.dependency_cone("pkg.a")
        assert cone == {"pkg.a", "pkg.b", "pkg.c", "pkg.d"}
        shallow = graph.dependency_cone("pkg.a", include_deferred=False)
        assert shallow == {"pkg.a", "pkg.b"}

    def test_package_entry_seeds_subtree(self, make_tree):
        root = make_tree({
            "sub/a.py": "import pkg.other.c\n",
            "sub/b.py": "",
            "other/c.py": "",
            "other/d.py": "",
        })
        graph = build_graph(root, package="pkg")
        cone = graph.dependency_cone("pkg.sub")
        assert "pkg.sub.a" in cone and "pkg.sub.b" in cone
        assert "pkg.other.c" in cone
        assert "pkg.other.d" not in cone

    def test_unknown_entry_raises(self, make_tree):
        root = make_tree({"a.py": ""})
        graph = build_graph(root, package="pkg")
        with pytest.raises(KeyError, match="nonexistent"):
            graph.dependency_cone("pkg.nonexistent")

    def test_cycles_found_on_top_level_edges(self, make_tree):
        root = make_tree({
            "a.py": "import pkg.b\n",
            "b.py": "import pkg.a\n",
            "c.py": "",
        })
        graph = build_graph(root, package="pkg")
        assert graph.cycles() == [("pkg.a", "pkg.b")]

    def test_deferred_edge_breaks_cycle(self, make_tree):
        root = make_tree({
            "a.py": "import pkg.b\n",
            "b.py": ("def lazy():\n"
                     "    import pkg.a\n"),
        })
        graph = build_graph(root, package="pkg")
        assert graph.cycles() == []

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_graph(tmp_path / "nope")


class TestRealTree:
    def test_sim_cone_excludes_search_layers(self):
        """Nothing under ``repro.sim`` can reach the campaign, search,
        serving or evaluation layers, even through deferred imports."""
        cone = repo_graph().dependency_cone("repro.sim")
        assert not any(
            name == layer or name.startswith(layer + ".")
            for name in cone
            for layer in ("repro.dse", "repro.serve", "repro.opt",
                          "repro.eval"))

    def test_sim_backend_cone_excludes_dse(self):
        cone = repo_graph().dependency_cone(
            "repro.sim", "repro.workloads", "repro.sparsity", "repro.arch",
            "repro.eval.lowering")
        assert "repro.sim.npu" in cone
        assert not any(name.startswith(("repro.dse", "repro.serve",
                                        "repro.opt"))
                       for name in cone)

    def test_real_tree_has_no_module_scope_cycles(self):
        assert repo_graph().cycles() == []
