"""Reference vector-space RBF network used to verify the graph/vector duality.

This trainer runs the identical protocol as the graph trainer but holds its
prototypes as explicit coordinate vectors; it returns the same
``TrainResult``, whose ``prototypes`` are the (c, d) best-epoch positions.
Every symmetric hollow dissimilarity matrix is realized by a point
configuration in a Euclidean or, with a signature of +1 and -1 per
coordinate, a pseudo-Euclidean space; on it the two trainers consume the same
random stream and must produce the same trajectory.  ``duality_check`` runs
them one after the other and reports the worst per-epoch deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import TRACE_FIELDS, TrainConfig, TrainResult, VectorModel, run_training
from .errors import ConfigError
from .graph import AdjacencyMatrix
from .initialization import SplitIndices, indicator_weights, kmeans_partition
from .network import finite_or_null
from .prototypes import FREE
from .transforms import pseudo_euclidean

DUALITY_EPOCHS = 20
DUALITY_TOL = 1e-8


def vector_kmeans(X, c: int, init_assignment, signature=None):
    """Lloyd's k-means sharing the assignment/repair loop of the relational
    variant, so partition sequences are directly comparable.  Distances are
    ``VectorModel``'s, signed when a ``signature`` is given.

    Returns (assignment, (c, d) centroids).
    """
    model = VectorModel(X, signature)

    def compute(assignment):
        return model.distances(indicator_weights(assignment, c) @ model.X)

    assignment, _ = kmeans_partition(compute, init_assignment, c)
    return assignment, indicator_weights(assignment, c) @ model.X


def vector_train(R: AdjacencyMatrix, Y, config: TrainConfig, record_trace=False) -> TrainResult:
    """Train the vector-space twin of the graph ``R`` with the protocol of the
    graph trainer, on its ``features`` or, when it has none, on its
    ``pseudo_euclidean`` realization.  It has free prototypes only: a
    medoid-mode ``config`` raises ``ConfigError`` first."""
    if config.prototype_mode != FREE:
        raise ConfigError(
            f"the duality check needs free prototypes, got {config.prototype_mode!r}: "
            "the vector twin has no medoid mode"
        )
    X, signature = (R.features, None) if R.features is not None else pseudo_euclidean(R)
    model = VectorModel(X, signature)

    def build(init_assignment, si: SplitIndices):
        _, centroids = vector_kmeans(model.X[si.train], config.c_init, init_assignment, signature)
        return model, centroids

    return replace(run_training(build, Y, config, record_trace=record_trace), signature=signature)


@dataclass
class DualityReport:
    """Outcome of an epoch-by-epoch graph-vs-vector training comparison.

    ``per_epoch_max_dev`` and ``field_max_dev`` hold absolute deviations
    across distances, activations, outputs, weights, and bandwidths (0 where
    both records hold one value, inf too); ``max_scaled_deviation`` divides
    each by max(1, that field's largest finite magnitude in the graph
    trainer's epoch record).  A Euclidean twin passes when every absolute
    deviation is within ``tol``, an indefinite one when every scaled
    deviation is: its negative distances can make the kernel huge.
    """

    passed: bool
    epochs: int
    tol: float
    per_epoch_max_dev: list
    field_max_dev: dict
    max_scaled_deviation: float = 0.0
    message: str = ""

    @property
    def max_deviation(self) -> float:
        # np.max, unlike max, keeps a NaN
        return float(np.max(self.per_epoch_max_dev)) if self.per_epoch_max_dev else 0.0

    def as_dict(self) -> dict:
        """The report as strict JSON: a non-finite deviation is null."""
        return {
            "passed": self.passed,
            "epochs": self.epochs,
            "tol": self.tol,
            "max_deviation": finite_or_null([self.max_deviation])[0],
            "max_scaled_deviation": finite_or_null([self.max_scaled_deviation])[0],
            "per_epoch_max_dev": finite_or_null(self.per_epoch_max_dev),
            "field_max_dev": {k: finite_or_null([v])[0] for k, v in self.field_max_dev.items()},
            "message": self.message,
        }


def duality_check(
    R: AdjacencyMatrix,
    Y=None,
    config: TrainConfig | None = None,
    epochs: int = DUALITY_EPOCHS,
    tol: float = DUALITY_TOL,
) -> DualityReport:
    """Train the vector twin of ``R``, then the graph network on ``R``, and
    compare them epoch by epoch.

    The twin trains on the ``features`` of ``R`` when it has them.  Without
    them it trains on the pseudo-Euclidean realization of ``R``, which every
    graph has and which is Euclidean for a realizable one.  A
    medoid-mode ``config`` raises ``ConfigError`` before any training or
    spectrum: the twin, which trains first, only has free prototypes.
    When no targets ``Y`` are given, balanced one-hot labels of two classes
    are drawn from a stream derived from the config seed (the comparison is
    indifferent to the labeling).
    """
    from .training import train as graph_train

    if config is None:
        config = TrainConfig()

    if Y is None:
        label_rng = np.random.default_rng([config.seed, 0xD0A1])
        labels = label_rng.permutation(np.arange(R.n) % 2)
        Y = np.eye(2)[labels]

    config = replace(config, max_epochs=epochs)
    twin = vector_train(R, Y, config, record_trace=True)
    g_trace = graph_train(R, Y, config, record_trace=True).metrics.trace
    v_trace = twin.metrics.trace
    euclidean = twin.signature is None or bool(np.all(twin.signature > 0))

    def layout(trace):
        return [tuple(rec[f].shape for f in TRACE_FIELDS) for rec in trace]

    # a different epoch count or prototype count
    if layout(g_trace) != layout(v_trace):
        return DualityReport(
            passed=False,
            epochs=max(len(g_trace), len(v_trace)),
            tol=tol,
            per_epoch_max_dev=[],
            field_max_dev={},
            message=f"trainers diverged in control flow: {len(g_trace)} vs {len(v_trace)} epochs",
        )

    per_epoch = []
    field_max = dict.fromkeys(TRACE_FIELDS, 0.0)
    scaled_max = 0.0
    for g_rec, v_rec in zip(g_trace, v_trace):
        devs = []
        for f in TRACE_FIELDS:
            g, v = g_rec[f], v_rec[f]
            # equal entries deviate by 0, an inf both kernels overflow to too;
            # np.max and np.maximum keep a NaN, which then fails the check
            with np.errstate(invalid="ignore"):
                devs.append(float(np.max(np.where(g == v, 0.0, np.abs(g - v)), initial=0.0)))
            field_max[f] = float(np.maximum(field_max[f], devs[-1]))
            scaled = devs[-1] / np.max(np.abs(g), initial=1.0, where=np.isfinite(g))
            scaled_max = float(np.maximum(scaled_max, scaled))
        per_epoch.append(float(np.max(devs)))

    # negative distances can make an indefinite twin's kernel huge, so it is
    # held to the scaled bound; a Euclidean twin keeps the absolute one
    label, value = (
        ("max deviation", float(np.max(per_epoch, initial=0.0))) if euclidean
        else ("max scaled deviation", scaled_max)
    )
    passed = bool(value <= tol)
    return DualityReport(
        passed=passed,
        epochs=len(per_epoch),
        tol=tol,
        per_epoch_max_dev=per_epoch,
        field_max_dev=field_max,
        max_scaled_deviation=scaled_max,
        message="" if passed else f"{label} {value:.3e} exceeds {tol:.0e}",
    )
