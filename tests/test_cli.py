"""End-to-end command-line behaviour on small synthetic configurations."""

import functools
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import relrbf.cli
import relrbf.engine
import relrbf.graph
import relrbf.transforms
import relrbf.vector_oracle
from relrbf import from_features, validate, write_adjacency
from relrbf.cli import (
    BLOB_KEYS,
    DATASET_KEYS,
    EXIT_CONFIG,
    EXIT_DUALITY,
    EXIT_OK,
    KIND_KEYS,
    SEEDED_COMMANDS,
    ExperimentConfig,
    load_dataset,
    main,
)
from relrbf.datasets import KINDS, ingest, synthetic_blobs
from relrbf.engine import TrainConfig
from relrbf.errors import ConfigError
from relrbf.transforms import (
    ivat,
    minimax_distances,
    vat,
    write_pgm,
    write_reordered,
    write_vat_csv,
)
from relrbf.vector_oracle import duality_check

from conftest import BAD_NPY, save_bad_npy, traced_peak


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

    @pytest.mark.parametrize(
        "raw", [{"dataset": {"kind": "nope"}}, None], ids=["unknown-kind", "missing-file"]
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        if raw is not None:
            path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "train_override",
        [
            {"eta_range": [-2.0, -0.5]},
            {"sigma_min": 0.0},
            {"sigma_init_range": [-1.0, 0.5]},
            {"sigma_init_range": [0.0, 0.5]},
        ],
    )
    def test_nonpositive_rates_exit_code(self, tmp_path, capsys, train_override):
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["train"].update(train_override)
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        (field,) = train_override
        err = capsys.readouterr().err
        assert err.startswith(f"error: train.{field} must be a finite number > 0, got ")

    @pytest.mark.parametrize(
        "override",
        [
            {"monte_carlo": "many"},
            {"workers": 1.7},
            {"workers": "2"},
            {"workers": True},
            {"histogram_bins": "21"},
            {"histogram_bins": 2.5},
            {"duality": 5},
            {"duality": {"epochs": 0}},
            {"duality": {"epochs": -5}},
            {"duality": {"epochs": "20"}},
            {"duality": {"tol": 0}},
            {"duality": {"tol": -1e-8}},
            {"duality": {"tol": float("nan")}},
            {"duality": {"tol": float("inf")}},
            {"duality": {"tol": "1e-8"}},
            {"train": {"eta_range": 5}},
            {"train": {"prototype_mode": "fixed"}},
            {"train": {"patience_grow": 0}},
            {"train": {"patience_stop": 0}},
            {"train": {"exit_window": 0}},
            {"train": {"max_epochs": 2.5}},
            {"train": {"max_epochs": -3}},
            {"train": {"c_init": 2.5}},
            {"train": {"c_init": True}},
            {"train": {"c_max": 3.0}},
            {"train": {"seed": -1}},
            {"train": {"seed": True}},
            {"train": {"exit_tol": float("inf")}},
            {"train": {"mse_reject_ratio": float("inf")}},
            {"train": {"weight_init_range": [float("-inf"), 1.0]}},
            # a boolean is not a number at the train level either
            {"train": {"sigma_min": True}},
            {"train": {"exit_tol": True}},
            {"train": {"mse_reject_ratio": True}},
            {"train": {"eta_range": [True, 2.0]}},
            {"train": {"sigma_init_range": [True, 2.0]}},
            {"train": {"weight_init_range": [False, True]}},
            {"dataset": {"kind": "synthetic-blobs", "power": "high"}},
            {"dataset": {"kind": "synthetic-blobs", "power": 0}},
            {"dataset": {"kind": "synthetic-blobs", "power": -1.5}},
            {"dataset": {"kind": "synthetic-blobs", "power": True}},
            {"dataset": {"kind": "synthetic-blobs", "power": float("inf")}},
            {"dataset": {"kind": "synthetic-blobs", "standardize": "no"}},
            {"dataset": {"kind": "synthetic-blobs", "standardize": 1}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": [1]}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"n": "x"}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"n": 2.5}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"classes": 0}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"dim": True}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"seed": -1}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"seed": "0"}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"sep": "far"}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"sep": float("inf")}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"noise": float("nan")}}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"n": 1}}},
            {"dataset": {"kind": "wdbc", "path": 0}},
            {"dataset": {"kind": "adjacency-csv", "path": ["0,1", "1,0"]}},
            {"dataset": {"kind": "adjacency-csv", "path": "graph.csv", "labels_path": 7}},
            {"compare_prototype_modes": "false"},
            {"compare_prototype_modes": 0},
            {"train": {"stratify_split": "false"}},
            {"train": {"stratify_split": 0}},
            # one misspelled key per level
            {"monte_carol": 10},
            {"dataset": {"kind": "synthetic-blobs", "blob": {"n": 12}}},
            {"dataset": {"kind": "synthetic-blobs", "standardise": False}},
            {"dataset": {"kind": "synthetic-blobs", "blobs": {"n": 12, "sed": 3}}},
            {"duality": {"epoch": 5}},
            {"train": {"max_epoch": 5}},
        ],
        ids=repr,
    )
    def test_bad_numbers_exit_code(self, tmp_path, capsys, override):
        cfg = blob_config(tmp_path, **override)
        assert main(["duality", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"monte_carol": 10}, "'monte_carol'"),
            ({"dataset": {"kind": "synthetic-blobs", "blob": {}}}, "'dataset.blob'"),
            ({"dataset": {"kind": "synthetic-blobs", "blobs": {"sed": 3}}}, "'dataset.blobs.sed'"),
            ({"duality": {"epoch": 5}}, "'duality.epoch'"),
            ({"train": {"max_epoch": 5}}, "'train.max_epoch'"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, override, key):
        cfg = blob_config(tmp_path, **override)
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: unknown config key(s) [{key}]\n"

    @pytest.mark.parametrize(
        "key, value",
        [("sigma_min", True), ("lr_decay", False), ("eta_range", [True, 2.0]),
         ("c_max", True), ("stratify_split", 0), ("prototype_mode", "fixed")],
    )
    def test_bad_train_value_is_named(self, tmp_path, capsys, key, value):
        cfg = blob_config(tmp_path, train={key: value})
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: train.{key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "train, message",
        [({"c_init": 5, "c_max": 3}, "need c_init <= c_max, got 5, 3"),
         ({"lr_decay": 1.5}, "need 0 < lr_decay < 1 < lr_growth")],
        ids=["c_init-above-c_max", "lr_decay-above-1"],
    )
    def test_train_fields_that_disagree_exit_2(self, tmp_path, capsys, train, message):
        cfg = blob_config(tmp_path, train=train)
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid train config: {message}\n"

    @pytest.mark.parametrize("kind", ["wdbc", "adjacency-csv"])
    def test_file_kind_without_a_path_exits_2(self, tmp_path, capsys, kind):
        # ingest holds the one rule that a file kind needs a path
        cfg = blob_config(tmp_path, dataset={"kind": kind})
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {kind} requires a path\n"

    def test_dataset_keys_are_ingest_parameters(self):
        # the config checks the keys; ingest and synthetic_blobs hold their defaults
        assert set(DATASET_KEYS) == set(inspect.signature(ingest).parameters)
        assert set(BLOB_KEYS) == set(inspect.signature(synthetic_blobs).parameters)
        assert set(KIND_KEYS) == set(KINDS)
        assert {"kind", "power"}.union(*KIND_KEYS.values()) == set(DATASET_KEYS)

    @pytest.mark.parametrize(
        "dataset, key",
        [
            ({"kind": "synthetic-blobs", "path": "nowhere.data"}, "path"),
            ({"kind": "synthetic-blobs", "labels_path": "nowhere.csv"}, "labels_path"),
            ({"kind": "wdbc", "path": "nowhere.data", "blobs": {"n": 20}}, "blobs"),
            ({"kind": "voting", "path": "nowhere.data", "labels_path": "nowhere.csv"}, "labels_path"),
            ({"kind": "heart-cleveland", "path": "nowhere.data", "blobs": {}}, "blobs"),
            ({"kind": "adjacency-csv", "path": "nowhere.csv", "standardize": False}, "standardize"),
            ({"kind": "adjacency-csv", "path": "nowhere.csv", "blobs": {"n": 20}}, "blobs"),
        ],
    )
    def test_key_of_another_kind_is_named(self, tmp_path, capsys, dataset, key):
        # each of these keys is valid for some kind, so only the kind can
        # reject it; the config is rejected before any file is opened
        cfg = blob_config(tmp_path, dataset=dataset)
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config key(s) ['dataset.{key}'] do not apply to "
            f"dataset.kind={dataset['kind']!r}\n"
        )

    @pytest.mark.parametrize("command", SEEDED_COMMANDS)
    def test_negative_seed_option(self, tmp_path, capsys, command):
        cfg = blob_config(tmp_path)
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("command", ["ingest", "eval", "transform", "diagnose"])
    def test_seed_only_where_it_is_read(self, tmp_path, capsys, command):
        # only train and duality read train.seed
        cfg = blob_config(tmp_path)
        argv = [command, "--config", str(cfg), "--seed", "99"]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "ck.json")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err

    def test_from_dict_leaves_its_argument_unchanged(self, tmp_path):
        raw = json.loads(blob_config(tmp_path).read_text())
        raw["train"]["eta_range"] = [0.1, 1.5]
        before = json.loads(json.dumps(raw))
        config = ExperimentConfig.from_dict(raw)
        assert config.train.eta_range == (0.1, 1.5)
        assert raw == before and isinstance(raw["train"]["eta_range"], list)


class TestIngestCommand:
    def test_writes_adjacency(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["adjacency.npy", "labels.csv"]
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

    def test_files_and_stdout_match_sequential_writes(self, tmp_path, monkeypatch, capsys):
        # ingest starts no thread: it validates the graph with the features
        # that realize it, then writes, and the bytes are those of the calls
        # made in turn
        calls = []

        def recording(name, fn):
            def wrapper(*args):
                calls.append((name, threading.active_count()))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(relrbf.cli, "validate", recording("validate", validate))
        monkeypatch.setattr(
            relrbf.cli, "write_adjacency", recording("write_adjacency", write_adjacency)
        )
        threads = threading.active_count()
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert calls == [("validate", threads), ("write_adjacency", threads)]
        stdout = capsys.readouterr().out

        data = load_dataset(ExperimentConfig.from_file(cfg))
        report = validate(data.R)
        assert report == relrbf.graph.RealizabilityReport(True, 0.0)
        ref = tmp_path / "ref"
        ref.mkdir()
        write_adjacency(data.R, ref / "adjacency.npy")
        np.savetxt(ref / "labels.csv", data.Y.argmax(axis=1), fmt="%d")
        assert stdout == (
            f"ingested kind=synthetic-blobs n=40 classes={data.class_names}"
            f" counts={np.bincount(data.Y.argmax(axis=1)).tolist()}"
            " embeddable=True min_eigenvalue=0.000000e+00\n"
            f"wrote {out}/adjacency.npy\n"
        )
        for name in ("adjacency.npy", "labels.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_failed_write_raises_and_leaves_no_thread(self, tmp_path, monkeypatch, capsys):
        def full_disk(R, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(relrbf.cli, "write_adjacency", full_disk)
        threads = threading.active_count()
        cfg = blob_config(tmp_path)
        with pytest.raises(OSError, match="no space left"):
            main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert "wrote" not in capsys.readouterr().out
        assert threading.active_count() == threads

    @pytest.mark.parametrize("name", BAD_NPY)
    def test_bad_npy_graph_exits_2_naming_the_path(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.npy"
        save_bad_npy(name, path)
        cfg = blob_config(tmp_path, dataset={"kind": "adjacency-csv", "path": str(path)})
        assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and str(path) in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["diagnose"], ["transform", "--method", "cmds"]], ids=["diagnose", "transform"]
    )
    def test_empty_npy_graph_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "0x0.npy"
        save_bad_npy("0x0", path)
        cfg = blob_config(tmp_path, dataset={"kind": "adjacency-csv", "path": str(path)})
        assert main([*command, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and str(path) in captured.err

    def test_empty_csv_graph_writes_one_error_line(self, tmp_path):
        # in a subprocess, so that a warning printed before the error shows
        path = tmp_path / "graph.csv"
        path.write_text("")
        cfg = blob_config(tmp_path, dataset={"kind": "adjacency-csv", "path": str(path)})
        argv = [sys.executable, "-m", "relrbf.cli", "ingest", "--config", str(cfg)]
        proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_CONFIG and proc.stdout == ""
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_npy_graph_with_labels_trains_and_evaluates(self, tmp_path, capsys):
        # the graph and labels ingest writes train the runs the blob config
        # trains, and its checkpoints evaluate on the read-back graph
        cfg = blob_config(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "ingest")]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "blobs")]) == EXIT_OK
        dataset = {
            "kind": "adjacency-csv",
            "path": str(tmp_path / "ingest" / "adjacency.npy"),
            "labels_path": str(tmp_path / "ingest" / "labels.csv"),
        }
        read = blob_config(tmp_path, dataset=dataset)
        assert main(["train", "--config", str(read), "--out", str(tmp_path / "read")]) == EXIT_OK
        blobs, back = (json.loads((tmp_path / d / "report.json").read_text()) for d in ("blobs", "read"))
        assert back["runs"] == blobs["runs"]
        checkpoint = tmp_path / "blobs" / "checkpoints" / "run_1.json"
        eval_out = tmp_path / "eval"
        argv = ["eval", "--config", str(read), "--checkpoint", str(checkpoint), "--out", str(eval_out)]
        assert main(argv) == EXIT_OK
        assert json.loads((eval_out / "eval.json").read_text())["accuracy"] == blobs["runs"][1]["accuracy"]

    @pytest.mark.parametrize(
        "command, message",
        [("train", "training requires labels"), ("eval", "evaluation requires labels")],
    )
    def test_graph_without_labels_neither_trains_nor_evaluates(
        self, tmp_path, capsys, command, message
    ):
        X, _ = synthetic_blobs(12, seed=0)
        write_adjacency(from_features(X), tmp_path / "graph.npy")
        dataset = {"kind": "adjacency-csv", "path": str(tmp_path / "graph.npy")}
        cfg = blob_config(tmp_path, dataset=dataset)
        argv = [command, "--config", str(cfg)]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "never-read.json")]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} (dataset provides none)\n"

    @pytest.mark.parametrize("last", ["-1", "0 1", None], ids=["negative", "two-columns", "empty"])
    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_labels_file_needs_one_column_of_classes(self, tmp_path, capsys, command, last):
        X, y = synthetic_blobs(12, seed=0)
        write_adjacency(from_features(X), tmp_path / "graph.npy")
        text = "" if last is None else "\n".join(map(str, y[:-1])) + f"\n{last}\n"
        (tmp_path / "labels.csv").write_text(text)
        dataset = {
            "kind": "adjacency-csv",
            "path": str(tmp_path / "graph.npy"),
            "labels_path": str(tmp_path / "labels.csv"),
        }
        cfg = blob_config(tmp_path, dataset=dataset)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and "labels.csv" in captured.err

    def test_one_observation_fails_before_standardizing(self, tmp_path, capsys):
        dataset = {"kind": "synthetic-blobs", "blobs": {"n": 1}}
        cfg = blob_config(tmp_path, dataset=dataset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
        assert "need at least two observations" in capsys.readouterr().err


def src_env(**extra):
    """The environment of a subprocess that imports this checkout's relrbf."""
    src = str(Path(relrbf.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestBlasThreads:
    @pytest.mark.parametrize(
        "command, workers",
        [(["train"], 1), (["train"], 2), (["transform", "--method", "cmds"], 1)],
        ids=["train", "train-pool", "transform"],
    )
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, command, workers):
        # at n=400 the products' and spectra's last bits depend on the BLAS
        # thread count unless the CLI pins it to one thread, in the parent
        # and in each pool worker
        if relrbf.cli._blas_thread_setter() is None:
            pytest.skip("this numpy bundles no scipy-openblas library")
        dataset = {"kind": "synthetic-blobs", "blobs": {"n": 400, "dim": 30, "sep": 3.0, "seed": 11}}
        train = {"c_init": 10, "c_max": 20, "max_epochs": 20, "seed": 11}
        monte_carlo = 1 if workers == 1 else 6
        cfg = blob_config(
            tmp_path, dataset=dataset, train=train, monte_carlo=monte_carlo, workers=workers
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = [sys.executable, "-m", "relrbf.cli", command[0], "--config", str(cfg),
                    *command[1:], "--out", str(out)]
            env = src_env(OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outputs.append(out_files(out))
        assert len(outputs[0]) >= 3 and outputs[0] == outputs[1]

    def test_missing_openblas_is_noted_on_stderr(self, tmp_path, monkeypatch, capsys):
        # with no bundled OpenBLAS beside numpy, a command still runs, and
        # says once on stderr that it could not pin the thread count
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        relrbf.cli._blas_thread_setter.cache_clear()
        try:
            cfg = blob_config(tmp_path)
            out = tmp_path / "out"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
        finally:
            monkeypatch.undo()
            relrbf.cli._blas_thread_setter.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("note: cannot find numpy's bundled OpenBLAS") and err.count("\n") == 1
        assert "OpenBLAS" not in (out / "report.json").read_text()


# the keys of a run's entry in report.json
RUN_KEYS = (
    "seed", "epochs", "best_epoch", "stop_reason", "n_prototypes", "negative_distance_events",
    "accuracy", "confusion", "deviation", "sse_trace", "lr_scale_trace",
)


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
            "w0", "W", "sigma", "prototypes", "split", "graph_sha256", "seed", "epoch",
        }
        assert sorted(sum(ck["split"].values(), [])) == list(range(40))
        assert np.shape(ck["prototypes"]) == (len(ck["sigma"]), len(ck["split"]["train"]))
        R = load_dataset(ExperimentConfig.from_file(cfg)).R
        assert ck["graph_sha256"] == hashlib.sha256(R.values.tobytes()).hexdigest()
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

    def test_checkpoints_are_canonical_json(self, tmp_path):
        # pool workers write the checkpoints; each file is the text
        # write_json gives its object
        cfg = blob_config(tmp_path, workers=2, monte_carlo=3)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        paths = sorted((out / "checkpoints").iterdir())
        assert [p.name for p in paths] == [f"run_{i}.json" for i in range(3)]
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_pool_workers_write_the_checkpoints(self, tmp_path):
        # seven runs form two groups, and each worker writes its group's
        # files under the batch's run indices; the records that come back
        # carry no checkpoint text
        data = load_dataset(ExperimentConfig.from_file(blob_config(tmp_path)))
        cfg = TrainConfig(c_init=2, c_max=3, max_epochs=10)
        ck_dir = tmp_path / "checkpoints"
        ck_dir.mkdir()
        runs = relrbf.cli.run_batch(data.R, data.Y, cfg, 4, 7, 2, checkpoints=ck_dir)
        assert [r["seed"] for r in runs] == list(range(4, 11))
        assert all(set(r) == set(RUN_KEYS) for r in runs)
        assert sorted(p.name for p in ck_dir.iterdir()) == [f"run_{i}.json" for i in range(7)]
        for i, run in enumerate(runs):
            ck = json.loads((ck_dir / f"run_{i}.json").read_text())
            assert ck["seed"] == run["seed"] and ck["epoch"] == run["best_epoch"]

    def test_only_written_checkpoints_are_encoded(self, tmp_path, monkeypatch, capsys):
        encoded = []
        json_text = relrbf.cli.json_text

        def counting(obj):
            encoded.append(obj)
            return json_text(obj)

        monkeypatch.setattr(relrbf.cli, "json_text", counting)
        cfg = blob_config(tmp_path, compare_prototype_modes=True, monte_carlo=3)
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert encoded == []
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        # one text per run of the reported batch, none for the discarded
        # batch of the other prototype mode, and report.json
        assert [obj["seed"] for obj in encoded if "graph_sha256" in obj] == [1, 2, 3]
        assert len(encoded) == 4 and "paired_mode_comparison" in encoded[-1]

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

    def test_overflowed_responses_are_written_as_null(self, tmp_path, capsys):
        # at seed 11 the best network's kernel overflows at 3 test nodes, and
        # most of the run's test SSEs are infinite: the report stays strict
        # JSON, and the deviation summary covers the finite deviations
        cfg = blob_config(
            tmp_path,
            dataset={
                "kind": "synthetic-blobs",
                "power": 1.3,
                "blobs": {"n": 300, "classes": 3, "dim": 5, "sep": 2.0, "seed": 4},
            },
            train={
                "c_init": 3, "c_max": 8, "max_epochs": 150, "patience_grow": 2,
                "stratify_split": True,
            },
            monte_carlo=1,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["train", "--config", str(cfg), "--seed", "11", "--out", str(out)]
            assert main(argv) == EXIT_OK

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        json.loads((out / "checkpoints" / "run_0.json").read_text(), parse_constant=reject)
        run = report["runs"][0]
        deviations = [v for k in ("train", "test", "val") for v in run["deviation"][k]]
        assert deviations.count(None) == 3 and len(deviations) == 900
        assert None in run["deviation"]["test"] and None in run["sse_trace"]["test"]
        finite = [v for v in deviations if v is not None]
        assert report["aggregate"]["deviation"]["mean"] == pytest.approx(np.mean(finite))
        histogram = report["aggregate"]["deviation"]["histogram"]
        assert sum(histogram["test"]) == len(run["deviation"]["test"]) - 3
        assert "(3 of 900 responses not finite)" in capsys.readouterr().out

        # eval scores the overflowing checkpoint as training did, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["eval", "--config", str(cfg), "--out", str(out / "eval")]
            argv += ["--checkpoint", str(out / "checkpoints" / "run_0.json")]
            assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        evaluated = json.loads((out / "eval" / "eval.json").read_text())
        assert evaluated["accuracy"] == run["accuracy"]

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

    def test_pool_no_larger_than_its_groups(self, tmp_path, monkeypatch):
        # the three seeds form one lock-step group, so one worker is enough
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(relrbf.cli, "ProcessPoolExecutor", RecordingPool)
        cfg = blob_config(tmp_path, workers=8, monte_carlo=3)
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert sizes == [1]

    def test_transform_option_runs(self, tmp_path):
        cfg = blob_config(tmp_path, transform="cmds")
        assert main(["train", "--config", str(cfg)]) == EXIT_OK


class TestEvalCommand:
    @pytest.mark.parametrize(
        ("train", "run", "overrides"),
        [
            ({}, 0, {}),
            ({"stratify_split": True}, 2, {}),
            ({}, 1, {"transform": "cmds"}),
            ({}, 1, {"transform": "cmds", "dataset": {
                "kind": "synthetic-blobs", "power": 1.5, "blobs": {"n": 40, "seed": 3}}}),
            ({}, 1, {"transform": "pmds", "dataset": {
                "kind": "synthetic-blobs", "power": 1.5, "blobs": {"n": 40, "seed": 3}}}),
        ],
        ids=["plain", "stratified", "cmds", "cmds-powered", "pmds-powered"],
    )
    def test_checkpoint_round_trip(self, tmp_path, train, run, overrides):
        # eval scores the checkpoint's split with the distances of its
        # prototypes, recomputed from the graph, so it reproduces the run's
        # numbers exactly; with a transform, train and eval build one graph
        # (a powered graph is not embeddable, so both transforms rebuild it)
        train = {"c_init": 2, "c_max": 4, "seed": 1, "max_epochs": 40, **train}
        cfg = blob_config(tmp_path, train=train, monte_carlo=3, **overrides)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        expected = json.loads((out / "report.json").read_text())["runs"][run]
        code = main([
            "eval",
            "--config", str(cfg),
            "--checkpoint", str(out / "checkpoints" / f"run_{run}.json"),
            "--out", str(tmp_path / "evalout"),
        ])
        assert code == EXIT_OK
        evaluated = json.loads((tmp_path / "evalout" / "eval.json").read_text())
        assert evaluated["accuracy"] == expected["accuracy"]
        assert evaluated["confusion"] == expected["confusion"]

    @pytest.mark.parametrize("transform", ["cmds", "pmds"])
    def test_transform_checkpoint_evaluates_on_the_read_back_graph(self, tmp_path, transform):
        # the adjacency.npy that ingest writes has no features, but like the
        # feature graph it is embeddable, so the transform leaves both as
        # they are: eval meets the trained graph, and the checkpoint is that
        # of transform "none"
        checkpoints = {}
        for name in (transform, "none"):
            cfg = blob_config(tmp_path, transform=name)
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            checkpoints[name] = out / "checkpoints" / "run_1.json"
        assert checkpoints[transform].read_bytes() == checkpoints["none"].read_bytes()
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "ingest")]) == EXIT_OK
        dataset = {
            "kind": "adjacency-csv",
            "path": str(tmp_path / "ingest" / "adjacency.npy"),
            "labels_path": str(tmp_path / "ingest" / "labels.csv"),
        }
        read = blob_config(tmp_path, dataset=dataset, transform=transform)
        argv = ["eval", "--config", str(read), "--checkpoint", str(checkpoints[transform]),
                "--out", str(tmp_path / "eval")]
        assert main(argv) == EXIT_OK
        evaluated = json.loads((tmp_path / "eval" / "eval.json").read_text())
        expected = json.loads((tmp_path / transform / "report.json").read_text())["runs"][1]
        assert evaluated["accuracy"] == expected["accuracy"]

    def train_checkpoint(self, tmp_path, **overrides):
        out = tmp_path / "trained"
        cfg = blob_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        return out / "checkpoints" / "run_0.json"

    def assert_eval_rejects(self, tmp_path, capsys, checkpoint, **overrides):
        cfg = blob_config(tmp_path, **overrides)
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(checkpoint)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        return captured.err

    def test_class_count_mismatch(self, tmp_path, capsys):
        # the checkpoint's graph read back with a third class: the digest and
        # the split pass, and the array shapes reject it
        ck = self.train_checkpoint(tmp_path)
        ingested = tmp_path / "ingest"
        assert main(["ingest", "--config", str(tmp_path / "config.json"), "--out", str(ingested)]) == EXIT_OK
        labels = np.loadtxt(ingested / "labels.csv", dtype=int)
        labels[-1] = 2
        np.savetxt(ingested / "labels.csv", labels, fmt="%d")
        dataset = {
            "kind": "adjacency-csv",
            "path": str(ingested / "adjacency.npy"),
            "labels_path": str(ingested / "labels.csv"),
        }
        err = self.assert_eval_rejects(tmp_path, capsys, ck, dataset=dataset)
        assert "shapes (g=2)" in err and "dataset's g=3" in err

    def test_graph_from_another_seed(self, tmp_path, capsys):
        # same n and g: only the graph's digest tells the graphs apart
        ck = self.train_checkpoint(tmp_path)
        blobs = {"n": 40, "classes": 2, "sep": 8.0, "dim": 2, "seed": 4}
        dataset = {"kind": "synthetic-blobs", "blobs": blobs}
        err = self.assert_eval_rejects(tmp_path, capsys, ck, dataset=dataset)
        assert "graph_sha256" in err

    def test_seed_and_epoch_only_record_the_run(self, tmp_path, capsys):
        # eval replays no draws: without the seed it scores the same split;
        # and it reads none of the n, c and g that older checkpoints carry
        ck = self.train_checkpoint(tmp_path)
        raw = json.loads(ck.read_text())
        n = sum(map(len, raw["split"].values()))
        variants = [
            raw,
            {k: v for k, v in raw.items() if k not in ("seed", "epoch")},
            {**raw, "n": n, "c": len(raw["sigma"]), "g": len(raw["w0"])},
        ]
        argv = ["eval", "--config", str(tmp_path / "config.json"), "--checkpoint", str(ck)]
        capsys.readouterr()
        outputs = []
        for i, variant in enumerate(variants):
            ck.write_text(json.dumps(variant))
            assert main([*argv, "--out", str(tmp_path / f"eval{i}")]) == EXIT_OK
            outputs.append((capsys.readouterr().out, (tmp_path / f"eval{i}" / "eval.json").read_text()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("key", ["w0", "sigma", "prototypes", "split", "graph_sha256"])
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
            lambda ck: ck.update(prototypes=[row[:-1] for row in ck["prototypes"]]),
            lambda ck: ck.update(sigma=ck["sigma"][:-1]),
            lambda ck: ck.update(w0="abc"),
            lambda ck: ck["split"]["test"].append(ck["split"]["train"][0]),
            lambda ck: ck["split"]["val"].__setitem__(-1, sum(map(len, ck["split"].values()))),
            # True == 1, so only the entry's type is wrong
            lambda ck: ck["split"].update(
                {k: [True if i == 1 else i for i in v] for k, v in ck["split"].items()}
            ),
            lambda ck: ck.update(split=[]),
            # json.loads reads the NaN and Infinity literals json.dumps writes
            lambda ck: ck["prototypes"][0].__setitem__(0, float("nan")),
            lambda ck: ck["prototypes"][-1].__setitem__(-1, float("inf")),
            lambda ck: ck["sigma"].__setitem__(0, -1.0),
            lambda ck: ck["sigma"].__setitem__(-1, float("nan")),
            lambda ck: ck["w0"].__setitem__(0, float("inf")),
        ],
        ids=["W-columns", "prototypes-width", "sigma-length", "w0-type", "split-overlap",
             "split-out-of-range", "split-boolean", "split-type", "prototypes-nan",
             "prototypes-infinity", "sigma-negative", "sigma-nan", "w0-infinity"],
    )
    def test_arrays_that_do_not_fit(self, tmp_path, capsys, tamper):
        ck = self.train_checkpoint(tmp_path)
        raw = json.loads(ck.read_text())
        tamper(raw)
        ck.write_text(json.dumps(raw))
        self.assert_eval_rejects(tmp_path, capsys, ck)

    @pytest.mark.parametrize("text", ["[1, 2]", None], ids=["array", "missing-file"])
    def test_non_object_checkpoint(self, tmp_path, capsys, text):
        ck = tmp_path / "ck.json"
        if text is not None:
            ck.write_text(text)
        self.assert_eval_rejects(tmp_path, capsys, ck)


class TestDualityCommand:
    def test_pass_on_realizable(self, tmp_path, capsys):
        cfg = blob_config(tmp_path, duality={"epochs": 10, "tol": 1e-8})
        out = tmp_path / "out"
        assert main(["duality", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        saved = json.loads((out / "duality.json").read_text())
        assert saved["passed"] is True

    def test_pass_on_nonrealizable(self, tmp_path, capsys, graph_negatives):
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["dataset"]["power"] = 1.5
        # adjacency-only ingestion path: write the powered graph to a file first
        from relrbf.cli import load_dataset, ExperimentConfig as EC
        from relrbf import write_adjacency

        data = load_dataset(EC.from_dict(raw))
        apath = tmp_path / "nonmetric.npy"
        write_adjacency(data.R, apath)
        raw["dataset"] = {"kind": "adjacency-csv", "path": str(apath)}
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["duality", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        # the signed twin trained through the graph's negative distances
        assert sum(graph_negatives) > 0
        saved = json.loads((out / "duality.json").read_text())
        assert saved["passed"] is True and "no_oracle" not in saved
        assert saved["max_scaled_deviation"] <= saved["tol"]

    def test_failed_check_exits_3(self, tmp_path, capsys):
        # no two trainers agree to 1e-300 on a powered graph's signed twin
        cfg = blob_config(
            tmp_path,
            dataset={"kind": "synthetic-blobs", "power": 1.5, "blobs": {"n": 40, "seed": 3}},
            duality={"epochs": 5, "tol": 1e-300},
        )
        out = tmp_path / "out"
        assert main(["duality", "--config", str(cfg), "--out", str(out)]) == EXIT_DUALITY
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("duality: FAIL over 5 epochs")
        saved = json.loads((out / "duality.json").read_text())
        assert saved["passed"] is False and saved["message"].startswith("max scaled deviation")

    def test_trains_on_the_ingested_graph(self, tmp_path, capsys, monkeypatch):
        # the features' distances are computed once, by ingest: the graph
        # trainer gets that graph, not one rebuilt from the features
        calls = []
        real = relrbf.graph._sqeuclidean

        def spy(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(relrbf.graph, "_sqeuclidean", spy)
        cfg = blob_config(tmp_path, duality={"epochs": 10})
        assert main(["duality", "--config", str(cfg)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert calls == [(40, 2)]

    def test_medoid_mode_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the vector twin refuses medoid mode before either trainer starts
        runs = []
        monkeypatch.setattr(relrbf.vector_oracle, "start_run", lambda *a, **k: runs.append(a))
        cfg = blob_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["train"]["prototype_mode"] = "medoid"
        cfg.write_text(json.dumps(raw))
        assert main(["duality", "--config", str(cfg)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and runs == []
        assert err.startswith("error:") and "free prototypes" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode, code, spectra", [("free", EXIT_OK, 1), ("medoid", EXIT_CONFIG, 0)]
    )
    def test_medoid_refusal_computes_no_spectrum(self, tmp_path, monkeypatch, mode, code, spectra):
        # a powered graph has no features, so the twin realizes it by a full
        # eigendecomposition; a medoid config is refused before that
        calls = []
        real = relrbf.vector_oracle.pseudo_euclidean

        def spy(R):
            calls.append(R.n)
            return real(R)

        monkeypatch.setattr(relrbf.vector_oracle, "pseudo_euclidean", spy)
        cfg = blob_config(
            tmp_path,
            dataset={"kind": "synthetic-blobs", "power": 1.5, "blobs": {"n": 40, "seed": 3}},
            train={"c_init": 2, "c_max": 4, "seed": 1, "prototype_mode": mode},
        )
        assert main(["duality", "--config", str(cfg)]) == code
        assert len(calls) == spectra


class TestTransformDiagnoseCommands:
    def test_transform_outputs(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        out = tmp_path / "t"
        assert main(
            ["transform", "--config", str(cfg), "--method", "cmds", "--out", str(out)]
        ) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "cmds_adjacency.npy", "cmds_eigenvalues.csv", "cmds_embedding.npy",
        ]
        assert capsys.readouterr().out.endswith(f"wrote {out}/cmds_embedding.npy\n")

    def test_adjacency_built_only_for_out(self, tmp_path, monkeypatch):
        # the embedding's graph is what cmds_adjacency.npy holds, nothing more
        calls = []
        real = relrbf.cli.from_features
        monkeypatch.setattr(relrbf.cli, "from_features", lambda X: calls.append(X) or real(X))
        cfg = blob_config(tmp_path)
        assert main(["transform", "--config", str(cfg), "--method", "cmds"]) == EXIT_OK
        assert calls == []
        out = tmp_path / "t"
        assert main(["transform", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1 and (out / "cmds_adjacency.npy").exists()

    def test_pmds_label(self, tmp_path, capsys):
        cfg = blob_config(tmp_path)
        assert main(["transform", "--config", str(cfg), "--method", "pmds"]) == EXIT_OK
        assert "pmds-as-described" in capsys.readouterr().out

    def test_diagnose_outputs(self, tmp_path):
        cfg = blob_config(tmp_path)
        out = tmp_path / "d"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "ivat.pgm", "ivat_matrix.npy", "ivat_perm.csv", "vat.pgm", "vat_matrix.npy", "vat_perm.csv",
        ]
        perm = np.loadtxt(out / "vat_perm.csv", delimiter=",", dtype=int)
        assert sorted(perm.tolist()) == list(range(40))

    def test_files_and_stdout_match_sequential_writes(self, tmp_path, monkeypatch, capsys):
        # diagnose starts no thread: VAT is written, then iVAT's minimax graph
        # is built and written, and the bytes are those of the vat and ivat
        # orders written in turn
        calls = []

        def recording(fn, label):
            def wrapper(*args):
                calls.append((label(args), threading.active_count()))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(relrbf.cli, "write_reordered",
                            recording(write_reordered, lambda args: args[-1]))
        monkeypatch.setattr(relrbf.transforms, "minimax_distances",
                            recording(minimax_distances, lambda args: "minimax_distances"))
        threads = threading.active_count()
        cfg = blob_config(tmp_path)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert calls == [(name, threads) for name in ("vat", "minimax_distances", "ivat")]
        stdout = capsys.readouterr().out

        R = load_dataset(ExperimentConfig.from_file(cfg)).R
        ref = tmp_path / "ref"
        ref.mkdir()
        vorder = vat(R)
        write_vat_csv(vorder, ref / "vat_perm.csv", ref / "vat_matrix.npy")
        write_pgm(vorder.reordered, ref / "vat.pgm")
        iorder, _ = ivat(R)
        write_vat_csv(iorder, ref / "ivat_perm.csv", ref / "ivat_matrix.npy")
        write_pgm(iorder.reordered, ref / "ivat.pgm")
        assert stdout == (
            f"vat: reordered 40 objects; first index {vorder.perm[0]}\n"
            f"wrote {out}/vat.pgm and {out}/ivat.pgm\n"
        )
        assert out_files(out) == out_files(ref)
        assert len(out_files(out)) == 6

    def test_failed_write_raises_and_leaves_no_thread(self, tmp_path, monkeypatch, capsys):
        threads = threading.active_count()
        seen = []

        def full_disk(R, perm, out, name):
            seen.append(threading.active_count())
            if name == "vat":
                raise OSError("no space left on device")
            write_reordered(R, perm, out, name)

        def refuse(R):
            raise AssertionError("iVAT was built after VAT's write failed")

        monkeypatch.setattr(relrbf.cli, "write_reordered", full_disk)
        monkeypatch.setattr(relrbf.transforms, "minimax_distances", refuse)
        cfg = blob_config(tmp_path)
        with pytest.raises(OSError, match="no space left"):
            main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert "vat:" not in stdout and "wrote" not in stdout
        # the failed write was VAT's, so iVAT was never built or written
        assert seen == [threads]
        assert not (tmp_path / "out" / "ivat_matrix.npy").exists()
        assert threading.active_count() == threads


@pytest.fixture
def entry_builds(monkeypatch, tmp_path):
    """The pid of each computation of a feature graph's entries, as lines of
    a file, so that a pool worker's computations count too."""
    log = tmp_path / "builds.txt"
    log.touch()
    real = relrbf.graph._sqeuclidean

    def logging(x):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(x)

    monkeypatch.setattr(relrbf.graph, "_sqeuclidean", logging)
    return lambda: log.read_text().split()


class TestFeatureGraphEntries:
    """A feature graph computes its n x n entries only for a command that
    reads them, once."""

    @pytest.mark.parametrize("method", ["cmds", "pmds"])
    def test_transform_reads_them_only_to_write_the_embedding_graph(
        self, tmp_path, entry_builds, method
    ):
        cfg = blob_config(tmp_path)
        assert main(["transform", "--config", str(cfg), "--method", method]) == EXIT_OK
        assert entry_builds() == []
        out = tmp_path / "t"
        assert main(
            ["transform", "--config", str(cfg), "--method", method, "--out", str(out)]
        ) == EXIT_OK
        assert len(entry_builds()) == 1 and (out / f"{method}_adjacency.npy").exists()

    @pytest.mark.parametrize(
        "command, out, builds",
        [("ingest", False, 0), ("ingest", True, 1), ("duality", False, 1), ("train", False, 1),
         ("diagnose", False, 1)],
    )
    def test_commands_build_them_once(self, tmp_path, entry_builds, command, out, builds):
        argv = [command, "--config", str(blob_config(tmp_path))]
        assert main(argv + ["--out", str(tmp_path / "out")] * out) == EXIT_OK
        assert entry_builds() == [str(os.getpid())] * builds

    def test_pool_workers_never_build_them(self, tmp_path, entry_builds):
        # six seeds form two lock-step groups, one per worker
        cfg = blob_config(tmp_path, workers=2, monte_carlo=6)
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert entry_builds() == [str(os.getpid())]

    def test_diagnose_walks_two_spanning_trees(self, tmp_path, monkeypatch, capsys):
        # VAT's walk of the graph gives iVAT's minimax graph, whose own walk
        # gives iVAT's order
        walks = []
        real = relrbf.graph._prim
        monkeypatch.setattr(relrbf.graph, "_prim", lambda a: walks.append(a.shape) or real(a))
        cfg = blob_config(tmp_path)
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]) == EXIT_OK
        assert walks == [(40, 40)] * 2
        # without --out, the graph's walk alone gives stdout's first index
        walks.clear()

        def refuse(*args):
            raise AssertionError("diagnose without --out built an order")

        for owner, name in ((relrbf.transforms, "minimax_distances"), (relrbf.cli, "vat"),
                            (relrbf.cli, "ivat")):
            monkeypatch.setattr(owner, name, refuse)
        capsys.readouterr()
        assert main(["diagnose", "--config", str(cfg)]) == EXIT_OK
        assert walks == [(40, 40)]
        first = np.loadtxt(tmp_path / "d" / "vat_perm.csv", delimiter=",", dtype=int)[0]
        assert capsys.readouterr().out == f"vat: reordered 40 objects; first index {first}\n"

    def test_diagnose_holds_three_matrices(self, tmp_path):
        # the graph, the minimax graph and iVAT's reordered matrix: VAT's
        # matrix is freed once written and the PGM levels go a block at a time
        n = 600
        main(["diagnose", "--config", str(blob_config(tmp_path))])  # imports stay out of the peak
        cfg = blob_config(tmp_path, dataset={
            "kind": "synthetic-blobs", "blobs": {"n": n, "classes": 2, "sep": 8.0, "seed": 3}})
        argv = ["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]
        assert traced_peak(lambda: main(argv)) <= 3.3 * n * n * 8

    def test_diagnose_holds_two_matrices(self, tmp_path):
        # the graph and the minimax graph: the orders' files go a block of
        # rows at a time, and neither Prim walk copies its graph
        n = 600
        main(["diagnose", "--config", str(blob_config(tmp_path))])  # imports stay out of the peak
        cfg = blob_config(tmp_path, dataset={
            "kind": "synthetic-blobs", "blobs": {"n": n, "classes": 2, "sep": 8.0, "seed": 3}})
        argv = ["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]
        assert traced_peak(lambda: main(argv)) <= 2.3 * n * n * 8


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

    def test_npy_hold_computed_arrays_and_csv_is_savetxt_text(self, tmp_path, monkeypatch, capsys):
        # each .npy a command writes loads to the bits of the array it
        # computed; each .csv is np.savetxt's "%.17g" text of its values
        computed = {}

        def recording(fn, array):
            def wrapper(obj, *paths):
                computed[Path(paths[-1])] = np.array(array(obj))
                return fn(obj, *paths)

            return wrapper

        def reordered(R, perm, out, name):
            computed[out / f"{name}_matrix.npy"] = R.values[np.ix_(perm, perm)]
            return write_reordered(R, perm, out, name)

        for name, array in (
            ("write_adjacency", lambda R: R.values),
            ("write_embedding_csv", lambda e: e.X),
        ):
            monkeypatch.setattr(relrbf.cli, name, recording(getattr(relrbf.cli, name), array))
        monkeypatch.setattr(relrbf.cli, "write_reordered", reordered)
        cfg = blob_config(tmp_path, compare_prototype_modes=True)
        root = tmp_path / "out"
        files = self.run_all(cfg, root)
        npy = {name for name in files if name.suffix == ".npy"}
        assert {root / name for name in npy} == set(computed) and len(npy) == 7
        for name in npy:
            back = np.load(root / name, allow_pickle=False)
            want = computed[root / name]
            assert back.dtype == want.dtype and back.shape == want.shape, name
            assert back.tobytes() == want.tobytes(), name
        csv = [name for name in files if name.suffix == ".csv"]
        assert len(csv) == 8
        for name in csv:
            text = io.BytesIO()
            values = np.loadtxt(root / name, delimiter=",", ndmin=2)
            np.savetxt(text, values, delimiter=",", fmt="%.17g")
            assert files[name] == text.getvalue(), name

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
        cfg = blob_config(tmp_path)
        argv = [sys.executable, "-c", script, str(cfg), str(tmp_path), json.dumps(self.COMMANDS)]
        proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=300)
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
        # `power` and the in-place power of `from_features` both raise through `_raised`
        monkeypatch.setattr(
            relrbf.graph, "_raised", lambda a, p: relrbf.graph.AdjacencyMatrix(a**p)
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


def test_duality_powered_dataset_passes(tmp_path, capsys, graph_negatives):
    # a powered graph has no features: its twin is the signed realization
    cfg = blob_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["dataset"]["power"] = 1.5
    cfg.write_text(json.dumps(raw))
    assert main(["duality", "--config", str(cfg)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert sum(graph_negatives) > 0


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # perfbench/tracer.py patches relrbf entry points by name: a renamed or
    # deleted hook fails here, not only in the traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    owners = {
        "cli": relrbf.cli,
        "engine": relrbf.engine,
        "RelationalModel": relrbf.engine.RelationalModel,
        "training": relrbf.training,
        "transforms": relrbf.transforms,
    }
    before = {name: dict(vars(owner)) for name, owner in owners.items()}

    def changed():
        return {
            f"{name}.{attr}"
            for name, owner in owners.items()
            for attr, value in vars(owner).items()
            if value is not before[name].get(attr)
        }

    with Tracer().installed():
        patched = changed()
    hooks = {
        "RelationalModel.distances", "RelationalModel.shift", "RelationalModel.grow",
        "training.relational_kmeans", "training.relational_model_from_partition",
        "training.run_training", "cli.train", "cli.run_batch", "cli._single_run",
    }
    assert hooks <= patched
    assert changed() == set()
