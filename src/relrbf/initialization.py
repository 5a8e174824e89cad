"""Prototype initialization (relational k-means), parameter draws, data splits.

Nothing here makes a generator: ``split`` and ``init_params`` draw from the
one that ``relrbf.engine`` passes in, in the run's fixed order, and k-means
starts from the assignment the engine drew.  A partition is an (n,) int
array with every cluster index occupied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidClusterCountError, TooFewSamplesError
from .graph import AdjacencyMatrix
from .prototypes import nearest_medoid, prototype_distances


# the names of the three splits, in the order reports list them
SPLITS = ("train", "test", "val")


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test/validation index sets covering all observations."""

    train: np.ndarray
    test: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        for name in SPLITS:
            a = np.asarray(getattr(self, name), dtype=int).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)


# the most assignment rounds k-means makes before it stops unconverged
MAX_ITER = 500


def _ensure_nonempty(assignment: np.ndarray, c: int) -> np.ndarray:
    """Index-based repair for a fresh random partition (no distances yet)."""
    assignment = assignment.copy()
    for j in range(c):
        if not np.any(assignment == j):
            counts = np.bincount(assignment, minlength=c)
            donor = int(np.argmax(counts))
            # take the largest-index member of the largest cluster
            member = int(np.flatnonzero(assignment == donor)[-1])
            assignment[member] = j
    return assignment


def _repair_empty(assignment: np.ndarray, D: np.ndarray, c: int) -> np.ndarray:
    """Fill empty clusters by stealing the observation farthest from its prototype.

    Only observations whose cluster keeps >= 2 members are eligible, so the
    repair never empties another cluster.  Ties break to the smallest index.
    """
    assignment = assignment.copy()
    n = assignment.shape[0]
    idx = np.arange(n)
    for j in range(c):
        if np.any(assignment == j):
            continue
        counts = np.bincount(assignment, minlength=c)
        own = D[assignment, idx]
        eligible = counts[assignment] >= 2
        candidates = np.where(eligible, own, -np.inf)
        assignment[int(np.argmax(candidates))] = j
    return assignment


def kmeans_partition(compute_distances, init_assignment, c):
    """Generic alternating assignment loop shared by the relational and
    vector k-means variants.

    ``compute_distances(assignment) -> (c, n)`` supplies prototype-to-object
    distances for prototypes derived from the current assignment; it sees
    every assignment the loop makes, starting from the repaired initial one.
    A cluster count ``c`` outside [1, n], for the n objects of the start
    assignment, raises ``InvalidClusterCountError``.  Returns the final
    assignment and its distance matrix.
    """
    assignment = np.asarray(init_assignment, dtype=int)
    n = assignment.shape[0]
    if not 1 <= c <= n:
        raise InvalidClusterCountError(f"c={c} outside [1, {n}]")
    assignment = _ensure_nonempty(assignment, c)
    D = compute_distances(assignment)
    for _ in range(MAX_ITER):
        new_assignment = np.argmin(D, axis=0)
        new_assignment = _repair_empty(new_assignment, D, c)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        D = compute_distances(assignment)
    return assignment, D


def indicator_weights(assignment: np.ndarray, c: int) -> np.ndarray:
    """(c, n) rows of normalized cluster indicators (class-average prototypes)."""
    n = assignment.shape[0]
    V = np.zeros((c, n))
    for j in range(c):
        members = np.flatnonzero(assignment == j)
        V[j, members] = 1.0 / members.size
    return V


def relational_kmeans(R: AdjacencyMatrix, c: int, init_assignment):
    """Cluster graph objects with indicator prototypes and node distances,
    starting from ``init_assignment`` (n ints in [0, c)).

    Each prototype is the normalized indicator of its cluster, so its
    distance to object i is exactly the squared distance from i to the
    cluster average in any latent realization.  Iterates until the partition
    stops changing.

    Returns (assignment, (c, n) indicator rows).
    """

    def compute(assignment):
        return prototype_distances(R, indicator_weights(assignment, c))

    assignment, _ = kmeans_partition(compute, init_assignment, c)
    return assignment, indicator_weights(assignment, c)


def medoid_prototypes(R: AdjacencyMatrix, assignment: np.ndarray, c: int) -> np.ndarray:
    """Snap each cluster to its medoid: (c, n) rows, row j the unit basis
    vector at the member of cluster j least dissimilar to the rest of it."""
    V = np.zeros((c, R.n))
    for j in range(c):
        V[j, nearest_medoid(R, np.flatnonzero(assignment == j))] = 1.0
    return V


def init_params(c: int, g: int, config, rng: np.random.Generator):
    """Draw output weights and bandwidths uniformly from the configured ranges.

    Returns (w0, W, sigma), drawn in that fixed order so that two trainers
    sharing a generator consume the stream identically.
    """
    lo_w, hi_w = config.weight_init_range
    lo_s, hi_s = config.sigma_init_range
    w0 = rng.uniform(lo_w, hi_w, size=g)
    W = rng.uniform(lo_w, hi_w, size=(c, g))
    sigma = rng.uniform(lo_s, hi_s, size=c)
    return w0, W, sigma


def split(n: int, rng: np.random.Generator, labels=None) -> SplitIndices:
    """Randomly bin 70% of the data for training; split the rest evenly into
    test and validation (odd remainder: the extra observation goes to test).

    Given class ``labels``, the 70/15/15 proportions are applied within each
    class; without them the whole set is one class.
    """
    if n < 10:
        raise TooFewSamplesError(f"need n >= 10 to split, got {n}")
    labels = np.zeros(n, int) if labels is None else np.asarray(labels, dtype=int)
    parts = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        parts.append(_cut(members[rng.permutation(members.size)]))
    train, test, val = (np.sort(np.concatenate(p)) for p in zip(*parts))
    return SplitIndices(train, test, val)


def _cut(perm: np.ndarray):
    n = perm.size
    n_train = int(np.floor(0.7 * n + 0.5))
    rem = n - n_train
    n_test = rem - rem // 2
    return perm[:n_train], perm[n_train : n_train + n_test], perm[n_train + n_test :]
