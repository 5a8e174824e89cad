"""Weighted-average prototypes over graph nodes and their node distances.

A prototype is a normalized weight vector over the n graph objects.  It
stands for the latent point sum_i w_i x_i even when no coordinates x_i are
known: the squared distance from that point to observation i is computable
from the adjacency matrix alone as

    d_i = (R w)_i - w^T R w / 2.

Medoid-mode prototypes are the special case w = e_m (an actual graph node),
for which d reduces to column m of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, UnnormalizedPrototypeError
from .graph import AdjacencyMatrix

NORMALIZATION_TOL = 1e-12

FREE = "free"
MEDOID = "medoid"


@dataclass(frozen=True)
class RelationalPrototype:
    """Normalized weight vector over graph objects; immutable value."""

    weights: np.ndarray
    mode: str = FREE

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1:
            raise DimensionMismatchError(f"weights must be 1-d, got shape {w.shape}")
        total = w.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise UnnormalizedPrototypeError(f"weights sum to {total!r}, not 1")
        if self.mode not in (FREE, MEDOID):
            raise ValueError(f"unknown prototype mode {self.mode!r}")
        if self.mode == MEDOID and not _is_basis_vector(w):
            raise ValueError("medoid-mode weights must be a unit basis vector")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _is_basis_vector(w: np.ndarray) -> bool:
    nz = np.flatnonzero(w)
    return nz.size == 1 and abs(w[nz[0]] - 1.0) <= NORMALIZATION_TOL


def prototype_distances(R: AdjacencyMatrix, weight_rows: np.ndarray) -> np.ndarray:
    """Distances from several prototypes at once.

    ``weight_rows`` is a (c, n) array whose rows each sum to 1.  Returns the
    (c, n) matrix d[j, i] = (R w_j)_i - w_j^T R w_j / 2.
    """
    V = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    if V.shape[1] != R.n:
        raise DimensionMismatchError(
            f"prototype length {V.shape[1]} != matrix size {R.n}"
        )
    return _distances(R.values, V)


def _distances(r_values: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Unchecked core of prototype_distances (shared with the trainer)."""
    VR = V @ r_values
    self_term = np.einsum("ij,ij->i", VR, V)
    return VR - 0.5 * self_term[:, None]


def nearest_medoid(R: AdjacencyMatrix, member_set) -> int:
    """Member least dissimilar, in total, to the other members.

    Ties break toward the smallest index.
    """
    members = np.asarray(sorted(set(int(i) for i in member_set)), dtype=int)
    if members.size == 0:
        raise EmptySetError("member set is empty")
    sub = R.values[np.ix_(members, members)]
    return int(members[np.argmin(sub.sum(axis=1))])


@dataclass(frozen=True)
class DistanceState:
    """Current prototype-to-observation distance matrix, one row per prototype."""

    d: np.ndarray
    epoch: int = 0

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.d, dtype=float)).copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def c(self) -> int:
        return self.d.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[1]

