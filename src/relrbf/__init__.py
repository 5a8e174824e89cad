"""RBF networks that train and classify directly on graph adjacency matrices."""

from .engine import TrainConfig, TrainMetrics, TrainResult
from .graph import (
    AdjacencyMatrix,
    RealizabilityReport,
    from_features,
    read_adjacency,
    validate,
    write_adjacency,
)
from .initialization import SplitIndices, init_params, relational_kmeans, split
from .network import NetworkParams, forward, gaussian_kernel, predict_labels
from .prototypes import nearest_medoid, prototype_distances
from .training import evaluate_network, train
from .transforms import Embedding, VatOrder, cmds, ivat, minimax_distances, pmds, vat
from .vector_oracle import DualityReport, duality_check, vector_kmeans, vector_train

__version__ = "0.1.0"
