"""``python -m repro.analysis``, driven in-process through main()."""

from __future__ import annotations

import json

from repro.analysis.__main__ import main


class TestCheck:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "0 violations" in out

    def test_json_format(self, capsys):
        assert main(["check", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["violations"] == []
        assert set(data["rules"]) >= {"layering", "cycles", "determinism"}

    def test_single_rule_selection(self, capsys):
        assert main(["check", "--rule", "layering"]) == 0
        capsys.readouterr()
        assert main(["check", "--rule", "layering",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rules"] == ["layering"]

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["check", "--rule", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_violations_rendered_and_exit_one(self, make_tree, capsys):
        root = make_tree({
            "sim/bad.py": "import repro.dse.store\n",
            "dse/store.py": "",
        })
        assert main(["check", "--root", str(root)]) == 1
        captured = capsys.readouterr()
        assert "[layering]" in captured.out
        assert "FAIL:" in captured.err

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["check", "--root", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestVersions:
    def test_pinned_tree_exits_zero(self, capsys):
        assert main(["versions"]) == 0
        out = capsys.readouterr().out
        assert "REQUEST_VERSION" in out
        assert "schemas match their pins" in out

    def test_json_format(self, capsys):
        assert main(["versions", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert len(data["schemas"]) == 5
