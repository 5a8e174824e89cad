"""RBF networks that train and classify directly on graph adjacency matrices."""

from .engine import TrainConfig, TrainMetrics
from .graph import (
    AdjacencyMatrix,
    FeatureMatrix,
    RealizabilityReport,
    from_features,
    read_adjacency,
    read_features,
    sqrt_triangle_ok,
    validate,
    write_adjacency,
)
from .initialization import (
    Partition,
    SplitIndices,
    init_params,
    relational_kmeans,
    split,
)
from .network import (
    DistanceState,
    NetworkParams,
    NetworkResponse,
    forward,
    gaussian_kernel,
    predict_labels,
    sse,
)
from .prototypes import (
    RelationalPrototype,
    make_prototype,
    nearest_medoid,
    prototype_distances,
    relational_distance,
)
from .training import TrainResult, evaluate_network, train
from .transforms import Embedding, VatOrder, cmds, ivat, minimax_distances, pmds, vat
from .vector_oracle import (
    DualityReport,
    duality_check,
    vector_distance,
    vector_kmeans,
    vector_train,
)

__version__ = "0.1.0"
