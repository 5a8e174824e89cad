"""Graph-based RBF training front end.

``train`` initializes node-weight prototypes by relational k-means over the
training subgraph and runs the shared protocol of ``relrbf.engine``, which
holds the update rules; ``evaluate_network`` scores a trained network on each
split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    EngineResult,
    TrainConfig,
    TrainMetrics,
    relational_model_from_partition,
    run_training,
)
from .graph import AdjacencyMatrix
from .initialization import SplitIndices, relational_kmeans
from .network import NetworkParams, forward
from .prototypes import DistanceState, RelationalPrototype

__all__ = ["TrainConfig", "TrainResult", "train", "evaluate_network"]


@dataclass
class TrainResult:
    """Best-validation network, prototypes, distances, and metric traces."""

    params: NetworkParams
    prototypes: list[RelationalPrototype]
    d_state: DistanceState
    metrics: TrainMetrics
    split: SplitIndices
    config: TrainConfig
    trace: list | None = None


def train(
    R: AdjacencyMatrix,
    Y,
    config: TrainConfig,
    split_indices: SplitIndices | None = None,
    record_trace: bool = False,
) -> TrainResult:
    """Train a graph-based RBF network on an adjacency matrix.

    Prototypes are initialized by relational k-means over the training
    subgraph (medoid mode snaps each cluster to its medoid), then the network
    runs the full protocol: output-weight steps, simulated prototype shifts,
    bandwidth steps, bold-driver rate adaptation, validation-based early
    stopping with prototype growth.  Returns the parameters that achieved the
    best validation error.
    """

    def build(init_assignment, si: SplitIndices):
        partition, _ = relational_kmeans(
            R.submatrix(si.train), config.c_init, init_assignment=init_assignment
        )
        return relational_model_from_partition(
            R, partition.assignment, si.train, config.c_init, mode=config.prototype_mode
        )

    res: EngineResult = run_training(
        build, Y, config, split_indices=split_indices, record_trace=record_trace
    )
    return TrainResult(
        params=res.params,
        prototypes=res.model.prototypes(),
        d_state=res.d_state,
        metrics=res.metrics,
        split=res.split,
        config=res.config,
        trace=res.trace,
    )


def evaluate_network(params: NetworkParams, d_state: DistanceState, Y, split: SplitIndices):
    """Accuracies, confusion matrices, and response deviations per split."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    resp = forward(d_state, params)
    predicted = np.argmax(resp.output, axis=1)
    actual = np.argmax(Y, axis=1)
    g = Y.shape[1]
    out = {}
    for name, idx in (("train", split.train), ("test", split.test), ("val", split.val)):
        conf = np.zeros((g, g), dtype=int)
        for a, p in zip(actual[idx], predicted[idx]):
            conf[a, p] += 1
        out[name] = {
            "accuracy": float(np.trace(conf) / max(1, idx.size)),
            "confusion": conf,
            "deviation": resp.output[idx] - Y[idx],
        }
    return out
