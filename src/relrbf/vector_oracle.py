"""Reference vector-space RBF network used to verify the graph/vector duality.

This trainer runs the identical protocol as the graph trainer but holds its
prototypes as explicit coordinate vectors.  On any dissimilarity matrix that
is realizable by a point configuration, the two trainers consume the same
random stream and must produce the same trajectory; ``duality_check`` runs
them one after the other and reports the worst per-epoch deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    EngineResult,
    TrainConfig,
    TrainMetrics,
    VectorModel,
    run_training,
)
from .errors import ConfigError, DimensionMismatchError
from .graph import AdjacencyMatrix, from_features, validate
from .initialization import (
    InvalidClusterCountError,
    Partition,
    SplitIndices,
    _as_rng,
    indicator_weights,
    kmeans_partition_sequence,
)
from .prototypes import DistanceState
from .network import NetworkParams
from .transforms import cmds

DUALITY_TOL = 1e-8
TRACE_FIELDS = ("w0", "W", "sigma", "d", "hidden", "output")


@dataclass(frozen=True)
class VectorPrototype:
    """Explicit RBF center in feature space."""

    v: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float)).copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def vector_distance(x, v) -> float:
    """Squared Euclidean distance between an observation and a prototype."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = v.v if isinstance(v, VectorPrototype) else np.atleast_1d(np.asarray(v, dtype=float))
    if x.shape != v.shape:
        raise DimensionMismatchError(f"shapes {x.shape} vs {v.shape}")
    diff = x - v
    return float(diff @ diff)


def vector_kmeans(
    X,
    c: int,
    seed=None,
    rng=None,
    init_assignment=None,
    max_iter: int = 500,
    return_history: bool = False,
):
    """Lloyd's k-means sharing the assignment/repair loop of the relational
    variant, so partition sequences are directly comparable."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if not 1 <= c <= n:
        raise InvalidClusterCountError(f"c={c} outside [1, {n}]")
    if init_assignment is None:
        init_assignment = _as_rng(seed, rng).integers(0, c, size=n)

    def compute(assignment):
        centroids = indicator_weights(assignment, c) @ X
        diff = X[None, :, :] - centroids[:, None, :]
        return np.einsum("cnd,cnd->cn", diff, diff)

    history, _ = kmeans_partition_sequence(compute, init_assignment, c, max_iter)
    final = history[-1]
    centroids = indicator_weights(final, c) @ X
    partition = Partition(final, c)
    if return_history:
        return partition, centroids, history
    return partition, centroids


@dataclass
class VectorTrainResult:
    """Best-validation parameters of the vector-space reference trainer."""

    params: NetworkParams
    prototypes: np.ndarray
    d_state: DistanceState
    metrics: TrainMetrics
    split: SplitIndices
    config: TrainConfig
    trace: list | None = None


def vector_train(
    X,
    Y,
    config: TrainConfig,
    split_indices: SplitIndices | None = None,
    record_trace: bool = False,
) -> VectorTrainResult:
    """Train the vector-space twin with the protocol of the graph trainer."""
    if config.prototype_mode != "free":
        raise ValueError("the vector reference trainer only supports free prototypes")
    X = np.atleast_2d(np.asarray(X, dtype=float))

    def build(init_assignment, si: SplitIndices):
        partition, centroids = vector_kmeans(
            X[si.train], config.c_init, init_assignment=init_assignment
        )
        return VectorModel(X, centroids)

    res: EngineResult = run_training(
        build, Y, config, split_indices=split_indices, record_trace=record_trace
    )
    return VectorTrainResult(
        params=res.params,
        prototypes=res.model.get_state(),
        d_state=res.d_state,
        metrics=res.metrics,
        split=res.split,
        config=res.config,
        trace=res.trace,
    )


@dataclass
class DualityReport:
    """Outcome of an epoch-by-epoch graph-vs-vector training comparison.

    ``passed`` is None when no vector realization exists (nothing to compare
    against); otherwise it records whether every per-epoch deviation across
    distances, activations, outputs, weights, and bandwidths stayed within
    tolerance.
    """

    passed: bool | None
    no_oracle: bool
    epochs: int
    tol: float
    per_epoch_max_dev: list
    field_max_dev: dict
    message: str = ""

    @property
    def max_deviation(self) -> float:
        return max(self.per_epoch_max_dev) if self.per_epoch_max_dev else 0.0

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "no_oracle": self.no_oracle,
            "epochs": self.epochs,
            "tol": self.tol,
            "max_deviation": float(self.max_deviation),
            "per_epoch_max_dev": [float(v) for v in self.per_epoch_max_dev],
            "field_max_dev": {k: float(v) for k, v in self.field_max_dev.items()},
            "message": self.message,
        }


def duality_check(
    X=None,
    R: AdjacencyMatrix | None = None,
    Y=None,
    config: TrainConfig | None = None,
    epochs: int = 20,
    tol: float = DUALITY_TOL,
    n_classes: int = 2,
) -> DualityReport:
    """Train the graph network, then its vector twin, and compare them
    epoch by epoch.

    Provide either feature vectors ``X`` (the graph side trains on their
    squared-distance matrix) or an adjacency matrix ``R`` (the vector side
    trains on its double-centered embedding).  A non-realizable ``R`` has no
    vector twin, so the report flags ``no_oracle`` instead of failing.  A
    medoid-mode ``config`` raises ``ConfigError`` before any training: the
    vector twin only has free prototypes.
    When no targets ``Y`` are given, balanced one-hot labels are drawn from a
    stream derived from the config seed (the comparison is indifferent to the
    labeling).
    """
    from .training import train as graph_train

    if (X is None) == (R is None):
        raise ValueError("provide exactly one of X or R")
    if config is None:
        config = TrainConfig(c_init=2)
    if config.prototype_mode != "free":
        raise ConfigError(
            f"the duality check needs free prototypes, got {config.prototype_mode!r}: "
            "the vector twin has no medoid mode"
        )

    if R is not None:
        report = validate(R)
        if not report.euclidean_embeddable:
            return DualityReport(
                passed=None,
                no_oracle=True,
                epochs=0,
                tol=tol,
                per_epoch_max_dev=[],
                field_max_dev={},
                message=(
                    "no vector realization exists "
                    f"(min eigenvalue {report.min_eigenvalue:.3e}); no oracle available"
                ),
            )
        X = cmds(R).X
    else:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        R = from_features(X)

    n = X.shape[0]
    if Y is None:
        label_rng = np.random.default_rng([config.seed, 0xD0A1])
        labels = label_rng.permutation(np.arange(n) % n_classes)
        Y = np.eye(n_classes)[labels]
    Y = np.atleast_2d(np.asarray(Y, dtype=float))

    config = replace(config, max_epochs=epochs)
    graph_res = graph_train(R, Y, config, record_trace=True)
    vector_res = vector_train(X, Y, config, record_trace=True)

    if len(graph_res.trace) != len(vector_res.trace):
        return DualityReport(
            passed=False,
            no_oracle=False,
            epochs=max(len(graph_res.trace), len(vector_res.trace)),
            tol=tol,
            per_epoch_max_dev=[],
            field_max_dev={},
            message=(
                f"trainers diverged in control flow: {len(graph_res.trace)} vs "
                f"{len(vector_res.trace)} epochs"
            ),
        )

    per_epoch = []
    field_max = {f: 0.0 for f in TRACE_FIELDS}
    for g_rec, v_rec in zip(graph_res.trace, vector_res.trace):
        worst = 0.0
        for f in TRACE_FIELDS:
            if g_rec[f].shape != v_rec[f].shape:
                return DualityReport(
                    passed=False,
                    no_oracle=False,
                    epochs=len(graph_res.trace),
                    tol=tol,
                    per_epoch_max_dev=per_epoch,
                    field_max_dev=field_max,
                    message=f"shape mismatch in {f}: {g_rec[f].shape} vs {v_rec[f].shape}",
                )
            dev = float(np.max(np.abs(g_rec[f] - v_rec[f]))) if g_rec[f].size else 0.0
            field_max[f] = max(field_max[f], dev)
            worst = max(worst, dev)
        per_epoch.append(worst)

    passed = all(dev <= tol for dev in per_epoch)
    return DualityReport(
        passed=passed,
        no_oracle=False,
        epochs=len(per_epoch),
        tol=tol,
        per_epoch_max_dev=per_epoch,
        field_max_dev=field_max,
        message="" if passed else f"max deviation {max(per_epoch):.3e} exceeds {tol:.0e}",
    )
