"""End-to-end command-line behaviour on small synthetic configurations."""

import functools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import relrbf.cli
import relrbf.graph
import relrbf.transforms
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

    @pytest.mark.parametrize(
        "train_override", [{"eta_range": [-2.0, -0.5]}, {"sigma_min": 0.0}]
    )
    def test_nonpositive_rates_exit_code(self, tmp_path, capsys, train_override):
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["train"].update(train_override)
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
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

    def test_entries_that_overflow_when_symmetrized(self, tmp_path, capsys):
        apath = tmp_path / "huge.csv"
        apath.write_text("0,1e308\n1e308,0\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": {"kind": "adjacency-csv", "path": str(apath)}}))
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        # rejected where the graph is built, not later by a check that meets inf
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err

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
        for path in (out / "checkpoints").iterdir():
            rows = np.array(json.loads(path.read_text())["prototypes"])
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
        # confusion rows sum to per-class counts; trace/total equals accuracy
        for split_name in ("train", "test", "val"):
            for run in report["runs"]:
                conf = np.array(run["confusion"][split_name])
                total = conf.sum()
                assert run["accuracy"][split_name] == pytest.approx(
                    np.trace(conf) / total
                )

    def test_medoid_checkpoints_hold_basis_vectors(self, tmp_path):
        train = {"c_init": 2, "c_max": 4, "seed": 1, "max_epochs": 40, "patience_grow": 2}
        cfg = blob_config(tmp_path, train={**train, "prototype_mode": "medoid"}, monte_carlo=3)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for path in (out / "checkpoints").iterdir():
            rows = np.array(json.loads(path.read_text())["prototypes"])
            assert np.all(np.count_nonzero(rows, axis=1) == 1)
            assert np.all(rows.max(axis=1) == 1.0)

    def test_overflowed_bandwidth_step_does_not_crash(self, tmp_path):
        # on this non-realizable graph, seeds 1 and 4 reach bandwidth steps
        # that overflow to sigma = inf, which NetworkParams would reject; seed
        # 1 also keeps a sigma of 4e273, whose square overflows to the
        # intended kernel of 1 without a RuntimeWarning
        cfg = blob_config(
            tmp_path,
            dataset={
                "kind": "synthetic-blobs",
                "power": 1.5,
                "blobs": {"n": 300, "dim": 5, "classes": 3, "sep": 2.0, "seed": 5},
            },
            train={"c_init": 3, "c_max": 8, "max_epochs": 120, "patience_grow": 2, "seed": 1},
            monte_carlo=1,
        )
        for seed in ("1", "4"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["train", "--config", str(cfg), "--seed", seed]) == EXIT_OK

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

    def assert_pool_matches_sequential(self, tmp_path):
        cfg_seq = blob_config(tmp_path)
        out1 = tmp_path / "seq"
        main(["train", "--config", str(cfg_seq), "--out", str(out1)])
        cfg_par = blob_config(tmp_path, workers=2)
        out2 = tmp_path / "par"
        main(["train", "--config", str(cfg_par), "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["runs"] == r2["runs"]
        names = [f"checkpoints/run_{i}.json" for i in range(2)]
        names += [f"confusion_{s}.csv" for s in ("train", "test", "val")]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_worker_pool_matches_sequential(self, tmp_path):
        self.assert_pool_matches_sequential(tmp_path)

    def test_spawned_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        # spawned workers inherit no module state: the graph must reach them
        # through the pool itself
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(relrbf.cli, "ProcessPoolExecutor", spawn)
        self.assert_pool_matches_sequential(tmp_path)

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path):
        # seven seeds form lock-step groups of five and two whatever the
        # worker count.  At n=300 a stacked V @ R row differs from a separate
        # product in the last bits (OpenBLAS on x86-64), so groups that
        # depended on `workers` would change the bytes.
        blobs = {"n": 300, "classes": 2, "sep": 3.0, "dim": 5, "seed": 3}
        outs = []
        for workers in (1, 2):
            cfg = blob_config(
                tmp_path,
                workers=workers,
                monte_carlo=7,
                dataset={"kind": "synthetic-blobs", "blobs": blobs},
            )
            outs.append(tmp_path / f"w{workers}")
            assert main(["train", "--config", str(cfg), "--out", str(outs[-1])]) == EXIT_OK
        r1, r2 = (json.loads((out / "report.json").read_text()) for out in outs)
        assert r1.pop("config")["workers"] == 1 and r2.pop("config")["workers"] == 2
        assert json.dumps(r1) == json.dumps(r2)
        names = [f"checkpoints/run_{i}.json" for i in range(7)]
        names += [f"confusion_{s}.csv" for s in ("train", "test", "val")]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_pool_payloads_carry_no_graph(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                payloads = list(iterables[0])
                sizes.extend(len(pickle.dumps(p)) for p in payloads)
                return super().map(fn, payloads, **kwargs)

        monkeypatch.setattr(relrbf.cli, "ProcessPoolExecutor", RecordingPool)
        cfg = blob_config(tmp_path, workers=2, monte_carlo=3)
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        # one payload per lock-step group: the three seeds form one group
        assert len(sizes) == 1 and max(sizes) < 1024
        assert relrbf.cli._batch_graph is None

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

    def train_checkpoint(self, tmp_path, **overrides):
        out = tmp_path / "trained"
        cfg = blob_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return out / "checkpoints" / "run_0.json"

    def assert_eval_rejects(self, tmp_path, capsys, checkpoint):
        cfg = blob_config(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(checkpoint)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_class_count_mismatch(self, tmp_path, capsys):
        ck = self.train_checkpoint(
            tmp_path,
            dataset={
                "kind": "synthetic-blobs",
                "blobs": {"n": 40, "classes": 3, "sep": 8.0, "dim": 2, "seed": 3},
            },
        )
        err = self.assert_eval_rejects(tmp_path, capsys, ck)
        assert "g=3" in err

    @pytest.mark.parametrize("key", ["w0", "d_state", "n"])
    def test_missing_key(self, tmp_path, capsys, key):
        ck = self.train_checkpoint(tmp_path)
        raw = json.loads(ck.read_text())
        del raw[key]
        ck.write_text(json.dumps(raw))
        err = self.assert_eval_rejects(tmp_path, capsys, ck)
        assert key in err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda ck: ck.update(W=[row + [0.0] for row in ck["W"]]),
            lambda ck: ck.update(d_state=[row[:-1] for row in ck["d_state"]]),
            lambda ck: ck.update(sigma=ck["sigma"][:-1]),
            lambda ck: ck.update(w0="abc"),
        ],
        ids=["W-columns", "d_state-width", "sigma-length", "w0-type"],
    )
    def test_arrays_that_do_not_fit(self, tmp_path, capsys, tamper):
        ck = self.train_checkpoint(tmp_path)
        raw = json.loads(ck.read_text())
        tamper(raw)
        ck.write_text(json.dumps(raw))
        self.assert_eval_rejects(tmp_path, capsys, ck)

    def test_non_object_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("[1, 2]")
        self.assert_eval_rejects(tmp_path, capsys, ck)


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

    def test_medoid_mode_is_a_config_error(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["train"]["prototype_mode"] = "medoid"
        cfg.write_text(json.dumps(raw))
        assert main(["duality", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "free prototypes" in err


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


def out_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOutputBytes:
    COMMANDS = (
        ["ingest"],
        ["train"],
        ["duality"],
        ["transform", "--method", "cmds"],
        ["transform", "--method", "pmds"],
        ["diagnose"],
    )

    def run_all(self, cfg, root):
        for command in self.COMMANDS:
            out = root / "_".join(command)
            argv = [command[0], "--config", str(cfg), *command[1:], "--out", str(out)]
            assert main(argv) == EXIT_OK
        return out_files(root)

    def test_csv_writers_match_savetxt(self, tmp_path, monkeypatch, capsys):
        # every n x n CSV the commands write is np.savetxt's "%.17g" text
        cfg = blob_config(tmp_path, compare_prototype_modes=True)
        fast = self.run_all(cfg, tmp_path / "fast")

        def savetxt(path, a):
            np.savetxt(path, a, delimiter=",", fmt="%.17g")

        for module in (relrbf.cli, relrbf.graph, relrbf.transforms):
            monkeypatch.setattr(module, "write_csv", savetxt)
        assert self.run_all(cfg, tmp_path / "savetxt") == fast
        assert sum(name.suffix == ".csv" for name in fast) >= 14

    def test_commands_run_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with every scipy import made
        # to fail, each command still exits 0 and no scipy module is loaded
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from relrbf.cli import main\n"
            "cfg, root, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
            "for command in commands:\n"
            "    out = root + '/' + '_'.join(command)\n"
            "    rc = main([command[0], '--config', cfg, *command[1:], '--out', out])\n"
            "    if rc != 0:\n"
            "        sys.exit(f'{command} exited {rc}')\n"
            "loaded = [m for m, v in sys.modules.items() if m.startswith('scipy') and v]\n"
            "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n"
        )
        src = str(Path(relrbf.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        cfg = blob_config(tmp_path)
        argv = [sys.executable, "-c", script, str(cfg), str(tmp_path), json.dumps(self.COMMANDS)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_subgraphs_match_validated_copies(self, tmp_path, monkeypatch, capsys):
        # the unchecked principal submatrix and power give the outputs the
        # validating constructor gives, in free and medoid mode
        raw = json.loads(blob_config(tmp_path, compare_prototype_modes=True).read_text())
        raw["dataset"]["power"] = 1.5
        cfg = tmp_path / "powered.json"
        cfg.write_text(json.dumps(raw))
        fast = self.run_all(cfg, tmp_path / "fast")
        monkeypatch.setattr(
            relrbf.graph.AdjacencyMatrix,
            "submatrix",
            lambda R, idx: relrbf.graph.AdjacencyMatrix(R.values[np.ix_(idx, idx)]),
        )
        monkeypatch.setattr(
            relrbf.graph.AdjacencyMatrix,
            "power",
            lambda R, p: relrbf.graph.AdjacencyMatrix(R.values**p),
        )
        assert self.run_all(cfg, tmp_path / "validated") == fast


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


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # perfbench/tracer.py patches relrbf entry points by name: a renamed or
    # deleted hook fails here, not only in the traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracer import Tracer

    before = relrbf.cli.train
    with Tracer().installed():
        assert relrbf.cli.train is not before
    assert relrbf.cli.train is before
