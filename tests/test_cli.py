"""End-to-end command-line behaviour on small synthetic configurations."""

import json

import numpy as np
import pytest

import relrbf.graph
from relrbf import from_features
from relrbf.cli import EXIT_CONFIG, EXIT_OK, ExperimentConfig, main
from relrbf.engine import TrainConfig
from relrbf.errors import ConfigError
from relrbf.vector_oracle import duality_check


def blob_config(tmp_path, **overrides):
    cfg = {
        "dataset": {
            "kind": "synthetic-blobs",
            "blobs": {"n": 40, "classes": 2, "sep": 8.0, "dim": 2, "seed": 3},
        },
        "train": {"c_init": 2, "c_max": 4, "seed": 1, "max_epochs": 40},
        "monte_carlo": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_missing_dataset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {}}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {"kind": "nope"}}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_unknown_train_option(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"dataset": {"kind": "synthetic-blobs"}, "train": {"bogus": 1}})
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {"kind": "nope"}}))
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestIngestCommand:
    def test_writes_adjacency(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "adjacency.csv").exists()
        assert (out / "labels.csv").exists()
        stdout = capsys.readouterr().out
        assert "n=40" in stdout and "embeddable=True" in stdout

    def test_cubic_triangle_check_off_the_path(self, tmp_path, monkeypatch):
        def forbidden(R):
            raise AssertionError("sqrt_triangle_ok is O(n^3) and must stay off the default path")

        monkeypatch.setattr(relrbf.graph, "sqrt_triangle_ok", forbidden)
        cfg = blob_config(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        R = from_features(np.random.default_rng(31).standard_normal((24, 3)))
        assert duality_check(R=R, config=TrainConfig(c_init=2, seed=3), epochs=2).passed


class TestTrainCommand:
    def test_report_and_checkpoints(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 2
        assert report["runs"][0]["seed"] == 1 and report["runs"][1]["seed"] == 2
        agg = report["aggregate"]
        assert set(agg["accuracy_mean"]) == {"train", "test", "val"}
        assert len(agg["deviation"]["bin_edges"]) == 22  # 21 bins
        ck = json.loads((out / "checkpoints" / "run_0.json").read_text())
        assert set(ck) == {
            "n", "c", "g", "w0", "W", "sigma", "prototypes", "d_state", "seed", "epoch",
        }
        assert ck["n"] == 40
        assert len(ck["prototypes"]) == ck["c"]
        # confusion rows sum to per-class counts; trace/total equals accuracy
        for split_name in ("train", "test", "val"):
            for run in report["runs"]:
                conf = np.array(run["confusion"][split_name])
                total = conf.sum()
                assert run["accuracy"][split_name] == pytest.approx(
                    np.trace(conf) / total
                )

    def test_byte_identical_reports(self, tmp_path):
        cfg = blob_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train", "--config", str(cfg), "--out", str(out1)])
        main(["train", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_runs(self, tmp_path):
        cfg = blob_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["train", "--config", str(cfg), "--out", str(out1)])
        main(["train", "--config", str(cfg), "--seed", "77", "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r2["runs"][0]["seed"] == 77
        assert r1["runs"][0]["sse_trace"]["train"] != r2["runs"][0]["sse_trace"]["train"]

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg_seq = blob_config(tmp_path)
        out1 = tmp_path / "seq"
        main(["train", "--config", str(cfg_seq), "--out", str(out1)])
        cfg_par = blob_config(tmp_path, workers=2)
        out2 = tmp_path / "par"
        main(["train", "--config", str(cfg_par), "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["runs"] == r2["runs"]

    def test_transform_option_runs(self, tmp_path):
        cfg = blob_config(tmp_path, transform="cmds")
        assert main(["train", "--config", str(cfg)]) == EXIT_OK


class TestEvalCommand:
    def test_checkpoint_round_trip(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        code = main([
            "eval",
            "--config", str(cfg),
            "--checkpoint", str(out / "checkpoints" / "run_0.json"),
            "--out", str(tmp_path / "evalout"),
        ])
        assert code == EXIT_OK
        evaluated = json.loads((tmp_path / "evalout" / "eval.json").read_text())
        for split_name in ("train", "test", "val"):
            assert evaluated["accuracy"][split_name] == pytest.approx(
                report["runs"][0]["accuracy"][split_name]
            )


class TestDualityCommand:
    def test_pass_on_realizable(self, tmp_path, capsys):
        cfg = blob_config(tmp_path, duality={"epochs": 10, "tol": 1e-8})
        out = tmp_path / "out"
        assert main(["duality", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        saved = json.loads((out / "duality.json").read_text())
        assert saved["passed"] is True

    def test_no_oracle_on_nonrealizable(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["dataset"]["power"] = 1.5
        # adjacency-only ingestion path: write the powered graph to CSV first
        from relrbf.cli import load_dataset, ExperimentConfig as EC
        from relrbf import write_adjacency

        data = load_dataset(EC.from_dict(raw))
        apath = tmp_path / "nonmetric.csv"
        write_adjacency(data.R, apath)
        raw["dataset"] = {"kind": "adjacency-csv", "path": str(apath)}
        cfg.write_text(json.dumps(raw))
        assert main(["duality", "--config", str(cfg)]) == EXIT_OK
        assert "no oracle" in capsys.readouterr().out


class TestTransformDiagnoseCommands:
    def test_transform_outputs(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "t"
        assert main(
            ["transform", "--config", str(cfg), "--method", "cmds", "--out", str(out)]
        ) == EXIT_OK
        assert (out / "cmds_embedding.csv").exists()
        assert (out / "cmds_adjacency.csv").exists()
        assert (out / "cmds_eigenvalues.csv").exists()

    def test_pmds_label(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        assert main(["transform", "--config", str(cfg), "--method", "pmds"]) == EXIT_OK
        assert "pmds-as-described" in capsys.readouterr().out

    def test_diagnose_outputs(self, tmp_path):
        cfg = blob_config(tmp_path)
        out = tmp_path / "d"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("vat_perm.csv", "vat_matrix.csv", "vat.pgm", "ivat.pgm", "ivat_matrix.csv"):
            assert (out / name).exists()
        perm = np.loadtxt(out / "vat_perm.csv", delimiter=",", dtype=int)
        assert sorted(perm.tolist()) == list(range(40))


class TestPairedModeComparison:
    def test_report_includes_paired_delta(self, tmp_path, capsys):
        cfg = blob_config(tmp_path, compare_prototype_modes=True)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        cmp = report["paired_mode_comparison"]
        assert cmp["base_mode"] == "free" and cmp["other_mode"] == "medoid"
        for split_name in ("train", "test", "val"):
            deltas = cmp["accuracy_delta"][split_name]["per_seed_delta"]
            assert len(deltas) == 2
        assert "paired free vs medoid" in capsys.readouterr().out


def test_duality_powered_dataset_uses_matrix_path(tmp_path, capsys):
    cfg = blob_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["dataset"]["power"] = 1.5
    cfg.write_text(json.dumps(raw))
    assert main(["duality", "--config", str(cfg)]) == EXIT_OK
    assert "no oracle" in capsys.readouterr().out
