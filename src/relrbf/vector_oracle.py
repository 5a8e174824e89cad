"""Reference vector-space RBF network used to verify the graph/vector duality.

This trainer runs the identical protocol as the graph trainer but holds its
prototypes as explicit coordinate vectors; it returns the same
``TrainResult``, whose ``prototypes`` are the (c, d) best-epoch positions.
Every symmetric hollow dissimilarity matrix is realized by a point
configuration in a Euclidean or, with a signature of +1 and -1 per
coordinate, a pseudo-Euclidean space; on it the two trainers consume the same
random stream and must produce the same trajectory.  ``duality_check`` trains
the two together, one epoch of each per round, and folds each epoch's
deviation into the worst one as the epoch ends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .engine import (
    TrainConfig, TrainResult, VectorModel, epoch, run_lockstep, run_training, start_run
)
from .errors import ConfigError
from .graph import AdjacencyMatrix
from .initialization import SplitIndices, indicator_weights, kmeans_partition
from .prototypes import FREE
from .training import relational_model_from_partition
from .transforms import pseudo_euclidean

DUALITY_EPOCHS = 20
DUALITY_TOL = 1e-8
# the arrays of a run's state compared after each epoch, in ``compared`` order
DUALITY_FIELDS = ("w0", "W", "sigma", "d", "hidden", "output")


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


def vector_twin(R: AdjacencyMatrix, config: TrainConfig):
    """The ``build_model`` and ``signature`` (None: Euclidean) of the vector
    twin of ``R``: its ``features`` or, without them, its ``pseudo_euclidean``
    realization.  A medoid-mode ``config`` raises ``ConfigError`` before any
    spectrum: the twin has free prototypes only."""
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

    return build, signature


def vector_train(R: AdjacencyMatrix, Y, config: TrainConfig) -> TrainResult:
    """Train the ``vector_twin`` of ``R`` by the graph trainer's protocol."""
    return run_training(vector_twin(R, config)[0], Y, config)


@dataclass
class DualityReport:
    """Outcome of an epoch-by-epoch graph-vs-vector training comparison.

    ``per_epoch_max_dev`` and ``field_max_dev`` hold absolute deviations
    across distances, activations, outputs, weights, and bandwidths (0 where
    both states hold one value, inf too); ``max_scaled_deviation`` divides
    each by max(1, that field's largest finite magnitude in the graph
    trainer's state after the epoch).  A Euclidean twin passes when every absolute
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
        """The report's fields and its ``max_deviation``, as ``duality.json`` holds them."""
        return {**asdict(self), "max_deviation": self.max_deviation}


def duality_check(
    R: AdjacencyMatrix,
    Y=None,
    config: TrainConfig | None = None,
    epochs: int = DUALITY_EPOCHS,
    tol: float = DUALITY_TOL,
) -> DualityReport:
    """Train the graph network on ``R`` and its ``vector_twin`` together and
    compare their states after each epoch; a medoid-mode ``config`` is
    refused before any training.  The check fails at the first epoch after
    which the two runs hold arrays of different shapes or stop reasons.
    When no targets ``Y`` are given, balanced one-hot labels of two classes
    are drawn from a stream derived from the config seed (the comparison is
    indifferent to the labeling).
    """
    config = config or TrainConfig()
    if Y is None:
        label_rng = np.random.default_rng([config.seed, 0xD0A1])
        Y = np.eye(2)[label_rng.permutation(np.arange(R.n) % 2)]
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    config = replace(config, max_epochs=epochs)
    twin_build, signature = vector_twin(R, config)
    graph_build = partial(relational_model_from_partition, R, config)
    (graph, g), (twin, v) = run_lockstep(
        [start_run(graph_build, Y, config), start_run(twin_build, Y, config)]
    )
    euclidean = signature is None or bool(np.all(signature > 0))

    def compared(s):  # in the order of DUALITY_FIELDS
        return s.w0, s.W, s.sigma, s.D, s.current.H, s.current.Yhat

    per_epoch = []
    field_max = dict.fromkeys(DUALITY_FIELDS, 0.0)
    scaled_max, diverged = 0.0, ""
    while g.metrics.epochs < epochs and not g.metrics.stop_reason:
        run_lockstep([epoch(g, graph, Y, config), epoch(v, twin, Y, config)])
        g_arrays, v_arrays = compared(g), compared(v)
        # a different prototype count or stop reason
        reshaped = any(a.shape != b.shape for a, b in zip(g_arrays, v_arrays))
        if reshaped or g.metrics.stop_reason != v.metrics.stop_reason:
            diverged = f"trainers diverged in control flow at epoch {len(per_epoch)}"
            break
        devs = []
        for f, gv, vv in zip(DUALITY_FIELDS, g_arrays, v_arrays):
            # equal entries deviate by 0, an inf both kernels overflow to too;
            # np.max and np.maximum keep a NaN, which then fails the check
            with np.errstate(invalid="ignore"):
                devs.append(float(np.max(np.where(gv == vv, 0.0, np.abs(gv - vv)), initial=0.0)))
            field_max[f] = float(np.maximum(field_max[f], devs[-1]))
            scaled = devs[-1] / np.max(np.abs(gv), initial=1.0, where=np.isfinite(gv))
            scaled_max = float(np.maximum(scaled_max, scaled))
        per_epoch.append(float(np.max(devs)))

    # negative distances can make an indefinite twin's kernel huge, so it is
    # held to the scaled bound; a Euclidean twin keeps the absolute one
    label, value = (
        ("max deviation", float(np.max(per_epoch, initial=0.0))) if euclidean
        else ("max scaled deviation", scaled_max)
    )
    passed = not diverged and bool(value <= tol)
    return DualityReport(
        passed=passed,
        epochs=len(per_epoch),
        tol=tol,
        per_epoch_max_dev=per_epoch,
        field_max_dev=field_max,
        max_scaled_deviation=scaled_max,
        message=diverged or ("" if passed else f"{label} {value:.3e} exceeds {tol:.0e}"),
    )
