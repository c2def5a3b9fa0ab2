"""The ``python -m repro.dse`` CLI, the run_all argparse migration, and
the store-backed grid prewarm."""

import json

import pytest

from repro.accelerators import SOTA_ACCELERATORS
from repro.dse.__main__ import main as dse_main
from repro.dse.spec import CampaignSpec
from repro.eval.api import reset_cache
from repro.eval.grids import BREAKDOWN_VARIANTS, evaluation, prewarm_grids
from repro.experiments.run_all import parse_args


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Route the default store (env-derived) into a tmp dir."""
    monkeypatch.setenv("REPRO_DSE_STORE", str(tmp_path))
    reset_cache()
    yield tmp_path
    reset_cache()


SMOKE = ["--name", "smoke", "--accelerators", "Stripes",
         "--networks", "cnn_lstm"]


class TestCli:
    def test_run_then_resume(self, isolated_store, capsys):
        assert dse_main(["run", *SMOKE, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cached=0 evaluated=1" in out
        assert "Stripes" in out

        assert dse_main(["run", *SMOKE, "--quiet"]) == 0
        assert "cached=1 evaluated=0" in capsys.readouterr().out

    def test_explicit_store_flag(self, tmp_path, capsys):
        store_dir = tmp_path / "explicit"
        assert dse_main(
            ["run", *SMOKE, "--quiet", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        assert any(store_dir.rglob("results.jsonl"))

    def test_points_reports_cache_status(self, isolated_store, capsys):
        dse_main(["run", *SMOKE, "--quiet"])
        capsys.readouterr()
        assert dse_main(["points", *SMOKE]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "cached" in lines[0] and "Stripes/cnn_lstm" in lines[0]

    def test_summary_marks_missing(self, isolated_store, capsys):
        assert dse_main(["summary", *SMOKE]) == 0
        assert "missing" in capsys.readouterr().out

    def test_pareto(self, isolated_store, capsys):
        dse_main(["run", *SMOKE, "--quiet"])
        capsys.readouterr()
        assert dse_main(
            ["pareto", *SMOKE, "--x", "cycles", "--y", "tops_per_w"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out and "Stripes" in out

    def test_init_writes_loadable_spec(self, tmp_path, capsys):
        out_file = tmp_path / "campaign.json"
        assert dse_main(["init", "--out", str(out_file),
                         "--name", "full"]) == 0
        spec = CampaignSpec.from_json(out_file)
        assert spec.name == "full"
        # 6 accelerators x 4 networks + 3 non-canonical variants x 4.
        assert len(spec.points()) == 36

    def test_spec_file_roundtrip(self, isolated_store, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        out_file.write_text(json.dumps({
            "name": "fromfile", "accelerators": ["Stripes"],
            "networks": ["cnn_lstm"], "variants": []}))
        assert dse_main(["run", "--spec", str(out_file), "--quiet"]) == 0
        assert "fromfile" in capsys.readouterr().out

    def test_invalid_grid_is_an_error(self, isolated_store, capsys):
        code = dse_main(["run", "--name", "bad",
                         "--accelerators", "TPU",
                         "--networks", "cnn_lstm", "--quiet"])
        assert code == 2
        assert "unknown accelerator" in capsys.readouterr().err

    def test_guided_search_is_not_a_subcommand(self, capsys):
        # Guided search has one front door: python -m repro.opt.
        with pytest.raises(SystemExit) as exc:
            dse_main(["opt", "sh", "--smoke"])
        assert exc.value.code == 2
        assert "invalid choice: 'opt'" in capsys.readouterr().err


class TestRunAllArgs:
    def test_defaults(self):
        args = parse_args([])
        assert args.fast is False and args.jobs == 1

    def test_fast_and_jobs(self):
        args = parse_args(["--fast", "--jobs", "4"])
        assert args.fast is True and args.jobs == 4

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["--warp-speed"])


class TestPrewarmGrids:
    def test_prewarm_populates_memo(self, isolated_store):
        run = prewarm_grids(networks=("cnn_lstm",), jobs=1)
        assert run is not None
        # The fully-enabled variant shares the SotA BitWave point.
        assert run.total == len(SOTA_ACCELERATORS) \
            + len(BREAKDOWN_VARIANTS) - 1
        # Harness calls after prewarm are pure memo hits: no further
        # evaluation, the prewarmed result object itself.
        key = [p for p in run.points
               if p.label == "BitWave/cnn_lstm"][0].key()
        assert evaluation("cnn_lstm", "BitWave") is run.results[key]


class TestJsonFormat:
    """--format json on points/summary/pareto for scripting."""

    def test_points_json(self, isolated_store, capsys):
        assert dse_main(["points", *SMOKE, "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["accelerator"] == "Stripes"
        assert entry["network"] == "cnn_lstm"
        assert entry["backend"] == "model"
        assert entry["cached"] is False
        assert entry["key"] and entry["label"] == "Stripes/cnn_lstm"

    def test_summary_json(self, isolated_store, capsys):
        dse_main(["run", *SMOKE, "--quiet"])
        capsys.readouterr()
        assert dse_main(["summary", *SMOKE, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["stored"] is True
        assert rows[0]["cycles"] > 0
        assert rows[0]["tops_per_w"] > 0

    def test_summary_json_missing_is_null(self, isolated_store, capsys):
        assert dse_main(["summary", *SMOKE, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["stored"] is False
        assert rows[0]["cycles"] is None

    def test_pareto_json(self, isolated_store, capsys):
        dse_main(["run", *SMOKE, "--quiet"])
        capsys.readouterr()
        assert dse_main(["pareto", *SMOKE, "--format", "json",
                         "--x", "cycles", "--y", "energy"]) == 0
        front = json.loads(capsys.readouterr().out)
        assert front and front[0]["config"] == "Stripes"
        assert front[0]["cycles"] > 0


class TestBackendAxisCli:
    def test_run_with_sim_backend(self, isolated_store, capsys):
        args = ["run", "--name", "simsmoke", "--accelerators", "BitWave",
                "--networks", "cnn_lstm@frames=4+bins=64+hidden=64",
                "--backends", "model,sim-vectorized", "--quiet"]
        assert dse_main(args) == 0
        out = capsys.readouterr().out
        assert "cached=0 evaluated=2" in out
        assert "BitWave@sim-vectorized" in out

        # Resume: both namespaces serve from cache.
        assert dse_main(args) == 0
        assert "cached=2 evaluated=0" in capsys.readouterr().out

    def test_unknown_backend_is_an_error(self, isolated_store, capsys):
        code = dse_main(["run", "--name", "bad", "--accelerators",
                         "BitWave", "--networks", "cnn_lstm",
                         "--backends", "rtl", "--quiet"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_token_sweep_points(self, isolated_store, capsys):
        assert dse_main(["points", "--name", "tokens",
                         "--accelerators", "BitWave",
                         "--networks",
                         "bert_base@tokens=4,bert_base@tokens=64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        # tokens=4 is bert_base's default: the point, its label and its
        # key all spell the canonical workload.
        assert lines[0].endswith("BitWave/bert_base")
        assert "bert_base@tokens=64" in lines[1]
