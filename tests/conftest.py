import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relrbf import AdjacencyMatrix, from_features
from relrbf.errors import AsymmetryError, NegativeEntryError, NonSquareError, ParseError


@pytest.fixture
def three_points():
    """Unit right triangle: the worked example used throughout the suite."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def three_point_R(three_points):
    # squared distances: r01 = 1, r02 = 1, r12 = 2; the graph alone, without
    # its features, so spectra take their full route
    return AdjacencyMatrix(from_features(three_points).values)


@pytest.fixture
def nonrealizable_R():
    """4-object matrix whose double-centered form is indefinite."""
    R = AdjacencyMatrix(
        [[0, 1, 1, 9], [1, 0, 1, 1], [1, 1, 0, 1], [9, 1, 1, 0]]
    )
    return R


@pytest.fixture
def graph_negatives(monkeypatch):
    """The negative entries of each graph distance product during the test:
    ``run_lockstep`` answers every graph run, trained alone, in a group or
    beside its vector twin, with ``relrbf.engine.prototype_distances``."""
    import relrbf.engine

    counts = []
    real = relrbf.engine.prototype_distances

    def counting(R, V):
        D = real(R, V)
        counts.append(int(np.count_nonzero(D < 0)))
        return D

    monkeypatch.setattr(relrbf.engine, "prototype_distances", counting)
    return counts


# arrays that `read_adjacency` must reject as .npy graphs, each with the
# error it raises
BAD_NPY = {
    "object": (np.array([[0.0, 1.0], [1.0, "x"]], dtype=object), ParseError),
    "1-d": (np.zeros(3), ParseError),
    "non-square": (np.zeros((2, 3)), ParseError),
    "complex": (np.zeros((2, 2), dtype=complex), ParseError),
    "nan": (np.array([[0.0, np.nan], [np.nan, 0.0]]), ParseError),
    "negative": (np.array([[0.0, -1.0], [-1.0, 0.0]]), NegativeEntryError),
    "asymmetric": (np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]), AsymmetryError),
    "boolean": (np.array([[False, True], [True, False]]), ParseError),
    "inf": (np.array([[0.0, np.inf], [np.inf, 0.0]]), ParseError),
    "0-d": (np.array(0.0), ParseError),
    "0x0": (np.zeros((0, 0)), NonSquareError),
}


def save_bad_npy(name, path):
    """Write the array `BAD_NPY[name]` to `path` (pickled if it is an
    object array)."""
    with open(path, "wb") as fh:
        np.save(fh, BAD_NPY[name][0], allow_pickle=True)


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while `fn` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def brute_force_distance(X, weights):
    """Independent oracle: squared distance from each row of X to the
    weighted average sum_i weights[i] X[i] (weights already normalized)."""
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    latent = w @ X
    return np.array([float((x - latent) @ (x - latent)) for x in X])


def kmeans_history(module, kmeans, *args):
    """The assignment sequence of the call ``kmeans(*args)``: every
    assignment the shared loop ``kmeans_partition``, as ``module`` calls it,
    hands its distance callback, the repaired initial one first."""
    loop = module.kmeans_partition
    history = []

    def recording(compute_distances, *loop_args):
        def compute(assignment):
            history.append(assignment.copy())
            return compute_distances(assignment)

        return loop(compute, *loop_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "kmeans_partition", recording)
        kmeans(*args)
    return history


@pytest.fixture(scope="session")
def wdbc_file(tmp_path_factory):
    """The diagnostic breast-mass dataset written in its canonical file
    layout (id, B/M code, 30 features per line).  scikit-learn ships the
    genuine data, so this reproduces the original file's content."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    bunch = sklearn_datasets.load_breast_cancer()
    path = tmp_path_factory.mktemp("uci") / "wdbc.data"
    with open(path, "w") as fh:
        for i, (row, target) in enumerate(zip(bunch.data, bunch.target)):
            code = "M" if target == 0 else "B"  # sklearn: 0 = malignant
            values = ",".join(repr(float(v)) for v in row)
            fh.write(f"{842302 + i},{code},{values}\n")
    return path


def find_dataset_file(*names):
    """Locate a user-supplied dataset file under $RELRBF_DATA_DIR or ./data."""
    roots = []
    if os.environ.get("RELRBF_DATA_DIR"):
        roots.append(Path(os.environ["RELRBF_DATA_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for name in names:
            candidate = root / name
            if candidate.exists():
                return candidate
    return None
