"""Command-line front end: ingestion, training runs, duality verification,
embeddings, and reordering diagnostics.

Subcommands::

    relrbf ingest    --config cfg.json [--out DIR]
    relrbf train     --config cfg.json [--seed N] [--out DIR]
    relrbf eval      --config cfg.json --checkpoint ck.json [--out DIR]
    relrbf duality   --config cfg.json [--seed N] [--out DIR]
    relrbf transform --config cfg.json --method cmds|pmds [--out DIR]
    relrbf diagnose  --config cfg.json [--out DIR]

Exit codes: 0 success, 2 configuration/input validation failure, 3 duality
verification failure.  Reports are deterministic byte-for-byte for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import KINDS, IngestResult, ingest
from .engine import TrainConfig
from .errors import ConfigError, RelRbfError
from .graph import AdjacencyMatrix, from_features, validate, write_adjacency
from .initialization import split as make_split
from .network import NetworkParams
from .prototypes import DistanceState
from .textio import write_csv
# `train` is not called here, but perfbench/tracer.py wraps `cli.train`
from .training import evaluate_network, train, train_group  # noqa: F401
from .transforms import (
    cmds,
    ivat,
    pmds,
    vat,
    write_eigenvalues_csv,
    write_embedding_csv,
    write_pgm,
    write_vat_csv,
)
from .vector_oracle import duality_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DUALITY = 3

TRANSFORMS = ("none", "cmds", "pmds")
PROTOTYPE_MODES = ("free", "medoid")

TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


@dataclass
class ExperimentConfig:
    """Validated experiment description (parsed from a JSON file)."""

    dataset: dict
    train: TrainConfig
    monte_carlo: int = 1
    transform: str = "none"
    histogram_bins: int = 21
    workers: int = 1
    duality_epochs: int = 20
    duality_tol: float = 1e-8
    compare_prototype_modes: bool = False

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or "kind" not in dataset:
            raise ConfigError("config needs a 'dataset' object with a 'kind'")
        if dataset["kind"] not in KINDS:
            raise ConfigError(f"dataset.kind must be one of {KINDS}")
        if dataset["kind"] not in ("synthetic-blobs",) and dataset["kind"] != "adjacency-csv":
            if "path" not in dataset:
                raise ConfigError(f"dataset.kind={dataset['kind']!r} requires dataset.path")
        if dataset["kind"] == "adjacency-csv" and "path" not in dataset:
            raise ConfigError("adjacency-csv requires dataset.path")

        train_raw = raw.get("train", {})
        if not isinstance(train_raw, dict):
            raise ConfigError("'train' must be an object")
        unknown = set(train_raw) - TRAIN_FIELDS
        if unknown:
            raise ConfigError(f"unknown train option(s): {sorted(unknown)}")
        for tuple_key in ("eta_range", "weight_init_range", "sigma_init_range"):
            if tuple_key in train_raw:
                train_raw[tuple_key] = tuple(train_raw[tuple_key])
        try:
            train_cfg = TrainConfig(**train_raw)
        except (TypeError, ValueError, RelRbfError) as exc:
            raise ConfigError(f"invalid train config: {exc}") from exc
        if train_cfg.prototype_mode not in PROTOTYPE_MODES:
            raise ConfigError(f"prototype_mode must be one of {PROTOTYPE_MODES}")

        transform = raw.get("transform", "none")
        if transform not in TRANSFORMS:
            raise ConfigError(f"transform must be one of {TRANSFORMS}")
        monte_carlo = int(raw.get("monte_carlo", 1))
        if monte_carlo < 1:
            raise ConfigError("monte_carlo must be >= 1")
        histogram_bins = int(raw.get("histogram_bins", 21))
        if histogram_bins < 1:
            raise ConfigError("histogram_bins must be >= 1")
        workers = int(raw.get("workers", 1))
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        duality = raw.get("duality", {})
        return cls(
            dataset=dataset,
            train=train_cfg,
            monte_carlo=monte_carlo,
            transform=transform,
            histogram_bins=histogram_bins,
            workers=workers,
            duality_epochs=int(duality.get("epochs", 20)),
            duality_tol=float(duality.get("tol", 1e-8)),
            compare_prototype_modes=bool(raw.get("compare_prototype_modes", False)),
        )

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["train"] = dataclasses.asdict(self.train)
        return d


def load_dataset(config: ExperimentConfig) -> IngestResult:
    ds = config.dataset
    return ingest(
        ds["kind"],
        path=ds.get("path"),
        standardize=bool(ds.get("standardize", True)),
        power=float(ds.get("power", 1.0)),
        labels_path=ds.get("labels_path"),
        blob_options=ds.get("blobs"),
    )


def apply_transform(R: AdjacencyMatrix, method: str) -> AdjacencyMatrix:
    """Embed and rebuild the graph with plain squared Euclidean distances."""
    if method == "none":
        return R
    embedding = cmds(R) if method == "cmds" else pmds(R)
    return from_features(embedding.X)


# Monte Carlo runs train in lock-step groups of this many consecutive seeds,
# sharing one stacked V @ R product per round.
GROUP_SIZE = 5

# (R, Y) of the batch being run: set in the parent by `run_batch` and in each
# pool worker by its initializer, so a run's payload carries no n x n array.
_batch_graph = None


def _hold_graph(graph) -> None:
    global _batch_graph
    _batch_graph = graph


def _single_run(payload):
    """One lock-step group of seeded training runs on the held graph;
    module-level so worker pools can pickle it.  Returns {"runs": [...]}."""
    cfg_dict, seeds, checkpoints = payload
    R, Y = _batch_graph
    results = train_group(R, Y, [TrainConfig(**{**cfg_dict, "seed": s}) for s in seeds])
    return {"runs": [_run_record(r, Y, s, checkpoints) for r, s in zip(results, seeds)]}


def _run_record(result, Y, seed: int, checkpoint: bool) -> dict:
    """A run's report entry; with `checkpoint`, also its checkpoint file's
    text, encoded here so that each pool worker encodes its own runs."""
    ev = evaluate_network(result.params, result.d_state, Y, result.split)
    record = {
        "seed": seed,
        "epochs": result.metrics.epochs,
        "best_epoch": result.metrics.best_epoch,
        "stop_reason": result.metrics.stop_reason,
        "n_prototypes": int(result.params.c),
        "negative_distance_events": int(sum(result.metrics.negative_distances)),
        "accuracy": {k: ev[k]["accuracy"] for k in ("train", "test", "val")},
        "confusion": {k: ev[k]["confusion"].tolist() for k in ("train", "test", "val")},
        "deviation": {k: ev[k]["deviation"].ravel().tolist() for k in ("train", "test", "val")},
        "sse_trace": {
            "train": result.metrics.sse_train,
            "val": result.metrics.sse_val,
            "test": result.metrics.sse_test,
        },
        "lr_scale_trace": result.metrics.lr_scale,
    }
    if checkpoint:
        record["checkpoint"] = json_text(checkpoint_dict(result, seed))
    return record


def checkpoint_dict(result, seed: int) -> dict:
    return {
        "n": int(result.d_state.n),
        "c": int(result.params.c),
        "g": int(result.params.g),
        "w0": result.params.w0.tolist(),
        "W": result.params.W.tolist(),
        "sigma": result.params.sigma.tolist(),
        "prototypes": result.prototypes.tolist(),
        "d_state": result.d_state.d.tolist(),
        "seed": int(seed),
        "epoch": int(result.metrics.best_epoch),
    }


def aggregate_runs(runs: list, bins: int) -> dict:
    """Deterministic ordered fold over the per-run results."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    agg: dict = {"accuracy_mean": {}, "accuracy_std": {}, "confusion_mean": {}}
    all_devs = []
    histograms = {}
    for split_name in ("train", "test", "val"):
        accs = np.array([r["accuracy"][split_name] for r in runs])
        agg["accuracy_mean"][split_name] = float(accs.mean())
        agg["accuracy_std"][split_name] = float(accs.std())
        conf = np.mean([np.array(r["confusion"][split_name]) for r in runs], axis=0)
        agg["confusion_mean"][split_name] = conf.tolist()
        devs = np.concatenate([np.asarray(r["deviation"][split_name]) for r in runs])
        all_devs.append(devs)
        counts, _ = np.histogram(np.clip(devs, -1.0, 1.0), bins=edges)
        histograms[split_name] = counts.tolist()
    pooled = np.concatenate(all_devs)
    agg["deviation"] = {
        "mean": float(pooled.mean()),
        "std": float(pooled.std()),
        "bin_edges": edges.tolist(),
        "histogram": histograms,
    }
    return agg


def json_text(obj: dict) -> str:
    """The text of every JSON file the CLI writes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj: dict, path: Path) -> None:
    path.write_text(json_text(obj))


def _write_ingested(data: IngestResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_adjacency(data.R, out / "adjacency.csv")
    if data.labels is not None:
        np.savetxt(out / "labels.csv", data.labels, fmt="%d")


def cmd_ingest(config: ExperimentConfig, out: Path | None) -> int:
    data = load_dataset(config)
    # the files are written on a helper thread while the spectrum is found
    # here: eigvalsh releases the GIL, so the two overlap
    with ThreadPoolExecutor(max_workers=1) as helper:
        written = helper.submit(_write_ingested, data, out) if out is not None else None
        report = validate(data.R)
        if written is not None:
            written.result()
    print(f"ingested kind={data.kind} n={data.R.n}", end="")
    if data.labels is not None:
        counts = np.bincount(data.labels).tolist()
        print(f" classes={data.class_names} counts={counts}", end="")
    print(
        f" embeddable={report.euclidean_embeddable}"
        f" min_eigenvalue={report.min_eigenvalue:.6e}"
    )
    if out is not None:
        print(f"wrote {out}/adjacency.csv")
    return EXIT_OK


def run_batch(
    R: AdjacencyMatrix,
    Y,
    cfg_dict: dict,
    base_seed: int,
    count: int,
    workers: int,
    *,
    checkpoints: bool,
):
    """Train `count` seeded runs on one graph, in lock-step groups of
    `GROUP_SIZE` consecutive seeds.  The groups depend on the seeds alone, so
    the results do not depend on `workers`.  Pool workers receive (R, Y)
    once, through the pool initializer: inherited under `fork`, pickled once
    per worker under `spawn`/`forkserver`.  With `checkpoints`, each run's
    record carries its checkpoint file's text under "checkpoint"."""
    seeds = [base_seed + i for i in range(count)]
    payloads = [
        (cfg_dict, seeds[i : i + GROUP_SIZE], checkpoints) for i in range(0, count, GROUP_SIZE)
    ]
    _hold_graph((R, Y))
    try:
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_hold_graph, initargs=((R, Y),)
            ) as pool:
                groups = list(pool.map(_single_run, payloads))
        else:
            groups = [_single_run(p) for p in payloads]
    finally:
        _hold_graph(None)
    return [run for group in groups for run in group["runs"]]


def cmd_train(config: ExperimentConfig, out: Path | None) -> int:
    data = load_dataset(config)
    if data.Y is None:
        raise ConfigError("training requires labels (dataset provides none)")
    R = apply_transform(data.R, config.transform)
    cfg_dict = dataclasses.asdict(config.train)
    seeds_and_workers = (config.train.seed, config.monte_carlo, config.workers)
    runs = run_batch(R, data.Y, cfg_dict, *seeds_and_workers, checkpoints=out is not None)
    checkpoints = [r.pop("checkpoint") for r in runs] if out is not None else []
    report = {
        "config": config.as_dict(),
        "n": int(R.n),
        "g": int(data.Y.shape[1]),
        "class_names": list(data.class_names),
        "transform": config.transform,
        "runs": runs,
        "aggregate": aggregate_runs(runs, config.histogram_bins),
    }

    if config.compare_prototype_modes:
        # rerun the same seeds with the other prototype constraint and report
        # the per-seed paired accuracy differences (this mode minus other)
        other_mode = "medoid" if config.train.prototype_mode == "free" else "free"
        other_cfg = {**cfg_dict, "prototype_mode": other_mode}
        other_runs = [
            {k: r[k] for k in ("seed", "accuracy", "confusion")}
            for r in run_batch(R, data.Y, other_cfg, *seeds_and_workers, checkpoints=False)
        ]
        paired = {}
        for split_name in ("train", "test", "val"):
            deltas = [
                a["accuracy"][split_name] - b["accuracy"][split_name]
                for a, b in zip(runs, other_runs)
            ]
            paired[split_name] = {
                "per_seed_delta": deltas,
                "mean_delta": float(np.mean(deltas)),
            }
        report["paired_mode_comparison"] = {
            "base_mode": config.train.prototype_mode,
            "other_mode": other_mode,
            "other_accuracy_mean": {
                k: float(np.mean([r["accuracy"][k] for r in other_runs]))
                for k in ("train", "test", "val")
            },
            "accuracy_delta": paired,
        }
        print(
            f"paired {config.train.prototype_mode} vs {other_mode}: test delta "
            f"{paired['test']['mean_delta']:+.4f}"
        )
    acc = report["aggregate"]["accuracy_mean"]
    std = report["aggregate"]["accuracy_std"]
    for split_name in ("train", "test", "val"):
        print(
            f"{split_name:5s} accuracy {acc[split_name]:.4f} +/- {std[split_name]:.4f}"
        )
    dev = report["aggregate"]["deviation"]
    print(f"response deviation {dev['mean']:+.4f} +/- {dev['std']:.4f}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / "report.json")
        ck_dir = out / "checkpoints"
        ck_dir.mkdir(exist_ok=True)
        for i, text in enumerate(checkpoints):
            (ck_dir / f"run_{i}.json").write_text(text)
        for split_name in ("train", "test", "val"):
            write_csv(
                out / f"confusion_{split_name}.csv",
                report["aggregate"]["confusion_mean"][split_name],
            )
        print(f"wrote {out}/report.json")
    return EXIT_OK


CHECKPOINT_KEYS = ("n", "g", "w0", "W", "sigma", "d_state", "seed", "epoch")


def load_checkpoint(path: Path, n: int, g: int):
    """Read a checkpoint and check that it fits a dataset of `n` nodes and `g`
    classes; returns (checkpoint dict, NetworkParams, DistanceState)."""
    try:
        ck = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(ck, dict):
        raise ConfigError(f"checkpoint {path} is not a JSON object")
    missing = [k for k in CHECKPOINT_KEYS if k not in ck]
    if missing:
        raise ConfigError(f"checkpoint {path} lacks key(s) {missing}")
    if ck["n"] != n:
        raise ConfigError(f"checkpoint n={ck['n']} does not match dataset n={n}")
    if ck["g"] != g:
        raise ConfigError(f"checkpoint g={ck['g']} does not match the dataset's {g} classes")
    try:
        params = NetworkParams(w0=ck["w0"], W=ck["W"], sigma=ck["sigma"])
        d_state = DistanceState(np.asarray(ck["d_state"], dtype=float), epoch=ck["epoch"])
    except (TypeError, ValueError, RelRbfError) as exc:
        raise ConfigError(f"invalid checkpoint {path}: {exc}") from exc
    if params.g != g or d_state.d.shape != (params.c, n):
        raise ConfigError(
            f"checkpoint {path}: w0/W/sigma/d_state shapes do not fit g={g}, n={n}"
        )
    return ck, params, d_state


def cmd_eval(config: ExperimentConfig, checkpoint_path: Path, out: Path | None) -> int:
    data = load_dataset(config)
    if data.Y is None:
        raise ConfigError("evaluation requires labels (dataset provides none)")
    R = apply_transform(data.R, config.transform)
    ck, params, d_state = load_checkpoint(checkpoint_path, R.n, data.Y.shape[1])
    # replay the run's split draw (it is the first draw from the run's seed)
    rng = np.random.default_rng(ck["seed"])
    labels = np.argmax(data.Y, axis=1) if config.train.stratify_split else None
    si = make_split(R.n, rng=rng, labels=labels, stratify=config.train.stratify_split)
    ev = evaluate_network(params, d_state, data.Y, si)
    result = {
        "checkpoint": str(checkpoint_path),
        "accuracy": {k: ev[k]["accuracy"] for k in ("train", "test", "val")},
        "confusion": {k: ev[k]["confusion"].tolist() for k in ("train", "test", "val")},
    }
    for split_name in ("train", "test", "val"):
        print(f"{split_name:5s} accuracy {result['accuracy'][split_name]:.4f}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(result, out / "eval.json")
    return EXIT_OK


def cmd_duality(config: ExperimentConfig, out: Path | None) -> int:
    data = load_dataset(config)
    kwargs = dict(
        Y=data.Y,
        config=config.train,
        epochs=config.duality_epochs,
        tol=config.duality_tol,
    )
    powered = float(config.dataset.get("power", 1.0)) != 1.0
    if data.X is not None and not powered:
        std = bool(config.dataset.get("standardize", True))
        X = data.X
        if std:
            mean, sd = X.mean(axis=0), X.std(axis=0)
            keep = sd > 1e-12 * (np.abs(mean) + 1.0)
            X = (X[:, keep] - mean[keep]) / sd[keep]
        report = duality_check(X=X, **kwargs)
    else:
        # entrywise powers change the graph away from the feature realization,
        # so the check must start from the matrix itself
        report = duality_check(R=data.R, **kwargs)
    if report.no_oracle:
        print(f"duality: no oracle available ({report.message})")
    else:
        print(
            f"duality: {'PASS' if report.passed else 'FAIL'} over {report.epochs} epochs, "
            f"max deviation {report.max_deviation:.3e} (tol {report.tol:.0e})"
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(report.as_dict(), out / "duality.json")
    if report.passed is False:
        return EXIT_DUALITY
    return EXIT_OK


def cmd_transform(config: ExperimentConfig, method: str, out: Path | None) -> int:
    if method not in ("cmds", "pmds"):
        raise ConfigError("transform method must be cmds or pmds")
    data = load_dataset(config)
    embedding = cmds(data.R) if method == "cmds" else pmds(data.R)
    transformed = from_features(embedding.X) if embedding.d_prime else None
    label = method if method == "cmds" else "pmds-as-described"
    print(
        f"{label}: embedded n={data.R.n} into d'={embedding.d_prime} dimensions; "
        f"top eigenvalue {embedding.eigenvalues[0]:.6e}"
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_embedding_csv(embedding, out / f"{method}_embedding.csv")
        write_eigenvalues_csv(embedding, out / f"{method}_eigenvalues.csv")
        if transformed is not None:
            write_adjacency(transformed, out / f"{method}_adjacency.csv")
        print(f"wrote {out}/{method}_embedding.csv")
    return EXIT_OK


def cmd_diagnose(config: ExperimentConfig, out: Path | None) -> int:
    data = load_dataset(config)
    order = vat(data.R)
    iorder, transformed = ivat(data.R)
    print(f"vat: reordered {data.R.n} objects; first index {order.perm[0]}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_vat_csv(order, out / "vat_perm.csv", out / "vat_matrix.csv")
        write_pgm(order.reordered, out / "vat.pgm")
        write_vat_csv(iorder, out / "ivat_perm.csv", out / "ivat_matrix.csv")
        write_pgm(iorder.reordered, out / "ivat.pgm")
        print(f"wrote {out}/vat.pgm and {out}/ivat.pgm")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relrbf",
        description="Graph-based RBF networks over adjacency matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "train", "eval", "duality", "transform", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override train seed")
        p.add_argument("--out", default=None, help="output directory")
        if name == "eval":
            p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
        if name == "transform":
            p.add_argument("--method", choices=("cmds", "pmds"), default="cmds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config = replace(config, train=replace(config.train, seed=args.seed))
        out = Path(args.out) if args.out else None
        if args.command == "ingest":
            return cmd_ingest(config, out)
        if args.command == "train":
            return cmd_train(config, out)
        if args.command == "eval":
            return cmd_eval(config, Path(args.checkpoint), out)
        if args.command == "duality":
            return cmd_duality(config, out)
        if args.command == "transform":
            return cmd_transform(config, args.method, out)
        if args.command == "diagnose":
            return cmd_diagnose(config, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except RelRbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
