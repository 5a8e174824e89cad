"""Graph-based RBF training front end.

``train`` initializes node-weight prototypes by relational k-means over the
training subgraph (``relational_model_from_partition``) and runs the shared
protocol of ``relrbf.engine``, which holds the update rules; ``train_group``
does the same for several configs in lock-step.  Both return the engine's
``TrainResult``, whose ``prototypes`` are the (c, n) best-epoch node weights
and whose ``output`` is that epoch's (n, g) response.  ``evaluate_network``
scores a response on each split.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .engine import (
    RelationalModel, TrainConfig, TrainResult, run_lockstep, run_training, training_run
)
from .graph import AdjacencyMatrix
from .initialization import SPLITS, SplitIndices, medoid_prototypes, relational_kmeans
from .network import predict_labels
from .prototypes import MEDOID

__all__ = ["TrainConfig", "TrainResult", "train", "train_group", "evaluate_network"]


def relational_model_from_partition(
    R: AdjacencyMatrix, config: TrainConfig, init_assignment, si: SplitIndices
) -> tuple[RelationalModel, np.ndarray]:
    """The backend over ``R`` and its start prototypes as (c, n) weights.

    Relational k-means on the training subgraph, from ``init_assignment``,
    gives indicator rows, the free start prototypes; medoid mode snaps each
    cluster to its medoid instead.  This is ``training_run``'s ``build_model``.
    """
    R_train = R.submatrix(si.train)
    assignment, V_train = relational_kmeans(R_train, config.c_init, init_assignment)
    if config.prototype_mode == MEDOID:
        V_train = medoid_prototypes(R_train, assignment, config.c_init)
    V = np.zeros((config.c_init, R.n))
    V[:, si.train] = V_train
    return RelationalModel(R), V


def train(R: AdjacencyMatrix, Y, config: TrainConfig) -> TrainResult:
    """Train a graph-based RBF network on an adjacency matrix.

    Prototypes are initialized by relational k-means over the training
    subgraph (medoid mode snaps each cluster to its medoid), then the network
    runs the full protocol: output-weight steps, simulated prototype shifts,
    bandwidth steps, bold-driver rate adaptation, validation-based early
    stopping with prototype growth.  Returns the parameters that achieved the
    best validation error.
    """
    build = partial(relational_model_from_partition, R, config)
    return run_training(build, Y, config)


def train_group(R: AdjacencyMatrix, Y, configs: list[TrainConfig]) -> list[TrainResult]:
    """Train one network per config on the same graph, in lock-step.

    Each run is the run ``train`` would make with its config (same random
    draws, growth and stopping); the runs only share one stacked ``V @ R``
    product per round.  Row blocks of a stacked product can differ from a
    separate product in the last bits, depending on n and the BLAS.
    """
    runs = [training_run(partial(relational_model_from_partition, R, cfg), Y, cfg)
            for cfg in configs]
    return run_lockstep(runs)


def evaluate_network(output: np.ndarray, Y, split: SplitIndices):
    """Accuracies, confusion matrices, and response deviations per split, from
    the network's (n, g) ``output``."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    predicted = predict_labels(output)
    actual = np.argmax(Y, axis=1)
    g = Y.shape[1]
    out = {}
    for name in SPLITS:
        idx = getattr(split, name)
        conf = np.zeros((g, g), dtype=int)
        for a, p in zip(actual[idx], predicted[idx]):
            conf[a, p] += 1
        out[name] = {
            "accuracy": float(np.trace(conf) / max(1, idx.size)),
            "confusion": conf,
            "deviation": output[idx] - Y[idx],
        }
    return out
