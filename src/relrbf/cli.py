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
import ctypes
import dataclasses
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import transforms
from .datasets import KINDS, LOADERS, IngestResult, ingest
from .engine import TRAIN_CHECKS, TrainConfig, flag, integer, number, one_of
from .errors import ConfigError, RelRbfError
from .graph import AdjacencyMatrix, from_features, validate, write_adjacency
from .initialization import SPLITS, SplitIndices
from .network import NetworkParams, finite_or_null, forward
from .prototypes import FREE, MEDOID, prototype_distances
# not called here, but perfbench/tracer.py wraps them: train, vat, ivat, write_pgm, write_vat_csv
from .training import evaluate_network, train, train_group  # noqa: F401
from .transforms import (  # noqa: F401
    cmds,
    ivat,
    pmds,
    vat,
    write_eigenvalues_csv,
    write_embedding_csv,
    write_pgm,
    write_reordered,
    write_vat_csv,
)
from .vector_oracle import DUALITY_EPOCHS, DUALITY_TOL, duality_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DUALITY = 3

TRANSFORMS = ("none", "cmds", "pmds")
# the commands that read train.seed, and so take --seed
SEEDED_COMMANDS = ("train", "duality")


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _object(checks: dict, value, name: str = "") -> dict:
    """The JSON object `value` with each key's value passed through its check
    in `checks`, the one unknown-key rule of every level of a config.  A
    check takes a value and its dotted key, returns the value the config
    keeps and raises ConfigError naming the key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config root'} must be a JSON object")
    prefix = f"{name}." if name else ""
    unknown = [prefix + key for key in value if key not in checks]
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}")
    return {key: checks[key](v, prefix + key) for key, v in value.items()}


def _train(value, name: str) -> TrainConfig:
    """The TrainConfig of the `train` object: each field passes its rule in
    `TRAIN_CHECKS` here, where its error names the key, and TrainConfig
    checks the fields against each other."""
    fields = _object(TRAIN_CHECKS, value, name)
    try:
        return TrainConfig(**fields)
    except (ValueError, RelRbfError) as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc


# The keys each level of a config may hold, with their checks.  The dataset
# keys are the parameters of `ingest` and the `blobs` keys those of
# `synthetic_blobs`, which state their defaults; an absent key of another
# level takes its ExperimentConfig default.
BLOB_KEYS = {"n": integer, "classes": integer, "dim": integer, "sep": number, "noise": number,
             "seed": partial(integer, least=0)}
DATASET_KEYS = {
    "kind": partial(one_of, KINDS), "path": _text, "standardize": flag,
    "power": partial(number, positive=True), "labels_path": _text,
    "blobs": partial(_object, BLOB_KEYS),
}
# the dataset keys besides `kind` and `power` that each kind reads
KIND_KEYS = {
    **dict.fromkeys(LOADERS, ("path", "standardize")),
    "adjacency-csv": ("path", "labels_path"),
    "synthetic-blobs": ("standardize", "blobs"),
}
DUALITY_KEYS = {"epochs": integer, "tol": lambda v, name: float(number(v, name, positive=True))}
CONFIG_KEYS = {
    "dataset": partial(_object, DATASET_KEYS), "train": _train,
    "monte_carlo": integer, "histogram_bins": integer, "workers": integer,
    "transform": partial(one_of, TRANSFORMS), "compare_prototype_modes": flag,
    "duality": partial(_object, DUALITY_KEYS),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description (parsed from a JSON file)."""

    dataset: dict
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    monte_carlo: int = 1
    transform: str = "none"
    histogram_bins: int = 21
    workers: int = 1
    duality_epochs: int = DUALITY_EPOCHS
    duality_tol: float = DUALITY_TOL
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
        """The one reader of a config: every level rejects an unknown key,
        and only the keys present are checked."""
        fields = _object(CONFIG_KEYS, raw)
        dataset = fields.get("dataset", {})
        if "kind" not in dataset:
            raise ConfigError("config needs a 'dataset' object with a 'kind'")
        kind = dataset["kind"]
        stray = [f"dataset.{k}" for k in dataset if k not in ("kind", "power", *KIND_KEYS[kind])]
        if stray:
            raise ConfigError(f"config key(s) {stray} do not apply to dataset.kind={kind!r}")
        duality = fields.pop("duality", {})
        return cls(**fields, **{f"duality_{k}": v for k, v in duality.items()})


def load_dataset(config: ExperimentConfig) -> IngestResult:
    return ingest(**config.dataset)


def apply_transform(R: AdjacencyMatrix, method: str) -> AdjacencyMatrix:
    """The graph `method` makes of `R`: `R` itself for "none" and for a graph
    `validate` calls embeddable; otherwise "cmds" rebuilds it from its
    embedding, and "pmds" is the graph of pmds(R).X in closed form,
    R - 2 l (11' - I) for the smallest eigenvalue l < 0 of -J R J / 2.  So a
    graph and its read-back copy, which has no features, give one graph."""
    if method == "none":
        return R
    report = validate(R)
    if report.euclidean_embeddable:
        return R
    if method == "cmds":
        return from_features(cmds(R).X)
    a = np.add(R.values, -2.0 * report.min_eigenvalue)
    np.fill_diagonal(a, 0.0)
    return AdjacencyMatrix._derived(a)


# Monte Carlo runs train in lock-step groups of this many consecutive seeds,
# sharing one stacked V @ R product per round.
GROUP_SIZE = 5

# (R, Y, ck_dir, digest) of the batch being run: set in the parent by
# `run_batch` and in each pool worker by its initializer, which also gives the
# worker one BLAS thread, so a run's payload carries no n x n array.  `ck_dir`
# is the directory the runs' checkpoints go to and `digest` R's `graph_digest`,
# both None when no checkpoints are wanted.
_batch_graph = None


def _hold_graph(graph) -> None:
    global _batch_graph
    _batch_graph = graph
    _one_blas_thread()


@cache
def _blas_thread_setter():
    """numpy's bundled OpenBLAS's thread-count setter, or None (with a note
    on stderr, once) when this numpy has no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return setter
    print(
        "note: cannot find numpy's bundled OpenBLAS to set one BLAS thread; "
        "results may depend on the BLAS thread count",
        file=sys.stderr,
    )
    return None


def _one_blas_thread() -> None:
    """Run BLAS on one thread in this process.  The reports' bytes depend on
    the BLAS thread count, and the pool gives `train` its parallelism."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def _single_run(payload):
    """One lock-step group of seeded training runs on the held graph, the
    batch's runs `first`, `first` + 1, ...; module-level so worker pools can
    pickle it.  Writes each run's checkpoint file `run_<index>.json` when the
    batch has a checkpoint directory.  Returns {"runs": [...]}."""
    config, first, seeds = payload
    R, Y, ck_dir, digest = _batch_graph
    results = train_group(R, Y, [replace(config, seed=s) for s in seeds])
    if ck_dir is not None:
        for i, (result, seed) in enumerate(zip(results, seeds), first):
            write_json(checkpoint_dict(result, seed, digest), ck_dir / f"run_{i}.json")
    return {"runs": [_run_record(r, Y, s) for r, s in zip(results, seeds)]}


def _run_record(result, Y, seed: int) -> dict:
    """A run's report entry."""
    ev = evaluate_network(result.output, Y, result.split)
    return {
        "seed": seed,
        "epochs": result.metrics.epochs,
        "best_epoch": result.metrics.best_epoch,
        "stop_reason": result.metrics.stop_reason,
        "n_prototypes": int(result.params.c),
        "negative_distance_events": int(sum(result.metrics.negative_distances)),
        "accuracy": {k: ev[k]["accuracy"] for k in SPLITS},
        "confusion": {k: ev[k]["confusion"].tolist() for k in SPLITS},
        "deviation": {k: finite_or_null(ev[k]["deviation"].ravel()) for k in SPLITS},
        "sse_trace": {k: finite_or_null(getattr(result.metrics, f"sse_{k}")) for k in SPLITS},
        "lr_scale_trace": result.metrics.lr_scale,
    }


def graph_digest(R: AdjacencyMatrix) -> str:
    """SHA-256 of the graph's entries: the fingerprint a checkpoint keeps of
    the graph it was trained on."""
    return hashlib.sha256(np.ascontiguousarray(R.values)).hexdigest()


def checkpoint_dict(result, seed: int, digest: str) -> dict:
    """A run's model: its network, its prototype weights over its training
    nodes (the weights of every other node are 0), its split and the
    `graph_digest` of its graph."""
    si = result.split
    return {
        "w0": result.params.w0.tolist(),
        "W": result.params.W.tolist(),
        "sigma": result.params.sigma.tolist(),
        "prototypes": result.prototypes[:, si.train].tolist(),
        "split": {k: getattr(si, k).tolist() for k in SPLITS},
        "graph_sha256": digest,
        "seed": int(seed),
        "epoch": int(result.metrics.best_epoch),
    }


def aggregate_runs(runs: list, bins: int) -> dict:
    """Deterministic ordered fold over the per-run results; the deviation
    summary covers the finite deviations (the others are null)."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    agg: dict = {"accuracy_mean": {}, "accuracy_std": {}, "confusion_mean": {}}
    all_devs = []
    histograms = {}
    for split_name in SPLITS:
        accs = np.array([r["accuracy"][split_name] for r in runs])
        agg["accuracy_mean"][split_name] = float(accs.mean())
        agg["accuracy_std"][split_name] = float(accs.std())
        conf = np.mean([np.array(r["confusion"][split_name]) for r in runs], axis=0)
        agg["confusion_mean"][split_name] = conf.tolist()
        devs = np.concatenate([np.asarray(r["deviation"][split_name], dtype=float) for r in runs])
        devs = devs[np.isfinite(devs)]
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
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(obj: dict, path: Path) -> None:
    path.write_text(json_text(obj))


def cmd_ingest(config: ExperimentConfig, data: IngestResult, out: Path | None) -> int:
    labels = None if data.Y is None else data.Y.argmax(axis=1)
    report = validate(data.R)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_adjacency(data.R, out / "adjacency.npy")
        if labels is not None:
            np.savetxt(out / "labels.csv", labels, fmt="%d")
    print(f"ingested kind={config.dataset['kind']} n={data.R.n}", end="")
    if labels is not None:
        counts = np.bincount(labels).tolist()
        print(f" classes={data.class_names} counts={counts}", end="")
    print(
        f" embeddable={report.euclidean_embeddable}"
        f" min_eigenvalue={report.min_eigenvalue:.6e}"
    )
    if out is not None:
        print(f"wrote {out}/adjacency.npy")
    return EXIT_OK


def run_batch(
    R: AdjacencyMatrix,
    Y,
    config: TrainConfig,
    base_seed: int,
    count: int,
    workers: int,
    *,
    checkpoints: Path | None,
):
    """Train `count` seeded runs on one graph, in lock-step groups of
    `GROUP_SIZE` consecutive seeds, and return their report entries.  The
    groups depend on the seeds alone, so the results do not depend on
    `workers`.  Pool workers receive (R, Y) once, through the pool
    initializer: inherited under `fork`, pickled once per worker under
    `spawn`/`forkserver`.  Given a `checkpoints` directory, the process that
    trains run i writes its checkpoint to `checkpoints/run_<i>.json`, and
    the graph is hashed once for all of them."""
    seeds = [base_seed + i for i in range(count)]
    payloads = [(config, i, seeds[i : i + GROUP_SIZE]) for i in range(0, count, GROUP_SIZE)]
    digest = graph_digest(R) if checkpoints is not None else None
    graph = (R, Y, checkpoints, digest)
    _hold_graph(graph)
    try:
        if workers > 1:
            R.values  # a feature graph's entries: computed here once, not in each worker
            with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads)),
                initializer=_hold_graph,
                initargs=(graph,),
            ) as pool:
                groups = list(pool.map(_single_run, payloads))
        else:
            groups = [_single_run(p) for p in payloads]
    finally:
        _hold_graph(None)
    return [run for group in groups for run in group["runs"]]


def cmd_train(config: ExperimentConfig, data: IngestResult, out: Path | None) -> int:
    if data.Y is None:
        raise ConfigError("training requires labels (dataset provides none)")
    R = apply_transform(data.R, config.transform)
    seeds_and_workers = (config.train.seed, config.monte_carlo, config.workers)
    ck_dir = None
    if out is not None:
        ck_dir = out / "checkpoints"
        ck_dir.mkdir(parents=True, exist_ok=True)
    runs = run_batch(R, data.Y, config.train, *seeds_and_workers, checkpoints=ck_dir)
    report = {
        "config": dataclasses.asdict(config),
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
        other_mode = MEDOID if config.train.prototype_mode == FREE else FREE
        other_cfg = replace(config.train, prototype_mode=other_mode)
        other_acc = [
            r["accuracy"]
            for r in run_batch(R, data.Y, other_cfg, *seeds_and_workers, checkpoints=None)
        ]
        paired = {}
        for split_name in SPLITS:
            deltas = [a["accuracy"][split_name] - b[split_name] for a, b in zip(runs, other_acc)]
            paired[split_name] = {
                "per_seed_delta": deltas,
                "mean_delta": float(np.mean(deltas)),
            }
        report["paired_mode_comparison"] = {
            "base_mode": config.train.prototype_mode,
            "other_mode": other_mode,
            "other_accuracy_mean": {k: float(np.mean([a[k] for a in other_acc])) for k in SPLITS},
            "accuracy_delta": paired,
        }
        print(
            f"paired {config.train.prototype_mode} vs {other_mode}: test delta "
            f"{paired['test']['mean_delta']:+.4f}"
        )
    acc = report["aggregate"]["accuracy_mean"]
    std = report["aggregate"]["accuracy_std"]
    for split_name in SPLITS:
        print(
            f"{split_name:5s} accuracy {acc[split_name]:.4f} +/- {std[split_name]:.4f}"
        )
    dev = report["aggregate"]["deviation"]
    responses = [v for r in runs for k in SPLITS for v in r["deviation"][k]]
    non_finite = responses.count(None)
    print(
        f"response deviation {dev['mean']:+.4f} +/- {dev['std']:.4f}"
        + (f" ({non_finite} of {len(responses)} responses not finite)" if non_finite else "")
    )
    if out is not None:
        write_json(report, out / "report.json")
        for split_name in SPLITS:
            np.savetxt(
                out / f"confusion_{split_name}.csv",
                report["aggregate"]["confusion_mean"][split_name],
                delimiter=",",
                fmt="%.17g",
            )
        print(f"wrote {out}/report.json")
    return EXIT_OK


# the keys `relrbf eval` reads; "seed" and "epoch" only record the run
CHECKPOINT_KEYS = ("w0", "W", "sigma", "prototypes", "split", "graph_sha256")


def load_checkpoint(path: Path, R: AdjacencyMatrix, g: int):
    """Read a checkpoint and check that it was trained on the graph `R` with
    `g` classes; returns (NetworkParams, (c, n) prototype weights,
    SplitIndices)."""
    try:
        ck = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(ck, dict):
        raise ConfigError(f"checkpoint {path} is not a JSON object")
    missing = [k for k in CHECKPOINT_KEYS if k not in ck]
    if missing:
        raise ConfigError(f"checkpoint {path} lacks key(s) {missing}")
    n = R.n
    if ck["graph_sha256"] != graph_digest(R):
        raise ConfigError(f"checkpoint {path} was trained on another graph (graph_sha256)")
    split = ck["split"]
    lists = [split.get(k) for k in SPLITS] if isinstance(split, dict) else [None]
    if not all(isinstance(a, list) and all(type(i) is int for i in a) for a in lists):
        raise ConfigError(f"checkpoint {path}: split must map train, test and val to integer lists")
    if sorted(i for a in lists for i in a) != list(range(n)):
        raise ConfigError(f"checkpoint {path}: split does not partition the {n} nodes")
    si = SplitIndices(*lists)
    try:
        params = NetworkParams(w0=ck["w0"], W=ck["W"], sigma=ck["sigma"])
        weights = np.asarray(ck["prototypes"], dtype=float)
    except (TypeError, ValueError, RelRbfError) as exc:
        raise ConfigError(f"invalid checkpoint {path}: {exc}") from exc
    if params.g != g or weights.shape != (params.c, si.train.size):
        raise ConfigError(
            f"checkpoint {path}: w0/W/sigma/prototypes shapes (g={params.g}) do not fit "
            f"the dataset's g={g} and {si.train.size} training nodes"
        )
    if not np.all(np.isfinite(weights)):
        raise ConfigError(f"checkpoint {path}: prototypes must be finite")
    V = np.zeros((params.c, n))
    V[:, si.train] = weights
    return params, V, si


def cmd_eval(
    config: ExperimentConfig, data: IngestResult, checkpoint_path: Path, out: Path | None
) -> int:
    if data.Y is None:
        raise ConfigError("evaluation requires labels (dataset provides none)")
    R = apply_transform(data.R, config.transform)
    params, V, si = load_checkpoint(checkpoint_path, R, data.Y.shape[1])
    # as in training, a kernel that overflows at some nodes is scored, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        output = forward(prototype_distances(R, V), params)
    ev = evaluate_network(output, data.Y, si)
    result = {
        "checkpoint": str(checkpoint_path),
        "accuracy": {k: ev[k]["accuracy"] for k in SPLITS},
        "confusion": {k: ev[k]["confusion"].tolist() for k in SPLITS},
    }
    for split_name in SPLITS:
        print(f"{split_name:5s} accuracy {result['accuracy'][split_name]:.4f}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(result, out / "eval.json")
    return EXIT_OK


def cmd_duality(config: ExperimentConfig, data: IngestResult, out: Path | None) -> int:
    report = duality_check(data.R, data.Y, config.train, config.duality_epochs, config.duality_tol)
    print(
        f"duality: {'PASS' if report.passed else 'FAIL'} over {report.epochs} epochs, "
        f"max deviation {report.max_deviation:.3e}, scaled "
        f"{report.max_scaled_deviation:.3e} (tol {report.tol:.0e})"
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(report.as_dict(), out / "duality.json")
    if not report.passed:
        return EXIT_DUALITY
    return EXIT_OK


def cmd_transform(
    config: ExperimentConfig, data: IngestResult, method: str, out: Path | None
) -> int:
    embedding = (cmds if method == "cmds" else pmds)(data.R)
    label = method if method == "cmds" else "pmds-as-described"
    print(
        f"{label}: embedded n={data.R.n} into d'={embedding.X.shape[1]} dimensions; "
        f"top eigenvalue {embedding.eigenvalues[0]:.6e}"
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_embedding_csv(embedding, out / f"{method}_embedding.npy")
        write_eigenvalues_csv(embedding, out / f"{method}_eigenvalues.csv")
        if embedding.X.shape[1]:
            write_adjacency(from_features(embedding.X), out / f"{method}_adjacency.npy")
        print(f"wrote {out}/{method}_embedding.npy")
    return EXIT_OK


def cmd_diagnose(config: ExperimentConfig, data: IngestResult, out: Path | None) -> int:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        # no reordered matrix is formed: two n x n arrays live, the graph and its minimax graph
        write_reordered(data.R, data.R.spanning_tree[0], out, "vat")
        minimax = transforms.minimax_distances(data.R)  # where perfbench/tracer.py wraps it
        write_reordered(minimax, minimax.spanning_tree[0], out, "ivat")
    # VAT's first index starts the graph's spanning tree, all that stdout needs
    print(f"vat: reordered {data.R.n} objects; first index {data.R.spanning_tree[0, 0]}")
    if out is not None:
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
        if name in SEEDED_COMMANDS:
            p.add_argument("--seed", type=int, default=None, help="override train seed")
        p.add_argument("--out", default=None, help="output directory")
        if name == "eval":
            p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
        if name == "transform":
            p.add_argument("--method", choices=("cmds", "pmds"), default="cmds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _one_blas_thread()
    try:
        config = ExperimentConfig.from_file(args.config)
        if getattr(args, "seed", None) is not None:
            config = replace(config, train=replace(config.train, seed=args.seed))
        out = Path(args.out) if args.out else None
        data = load_dataset(config)
        if args.command == "ingest":
            return cmd_ingest(config, data, out)
        if args.command == "train":
            return cmd_train(config, data, out)
        if args.command == "eval":
            return cmd_eval(config, data, Path(args.checkpoint), out)
        if args.command == "duality":
            return cmd_duality(config, data, out)
        if args.command == "transform":
            return cmd_transform(config, data, args.method, out)
        return cmd_diagnose(config, data, out)  # the parser admits no other command
    except RelRbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
