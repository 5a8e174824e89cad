"""Weighted-average prototypes over graph nodes and their node distances.

A prototype is a normalized weight vector over the n graph objects, and a
set of c prototypes is one (c, n) array V whose rows each sum to 1.  Row j
stands for the latent point sum_i V[j, i] x_i even when no coordinates x_i
are known: the squared distance from that point to observation i is
computable from the adjacency matrix alone as

    d_i = (R v)_i - v^T R v / 2.

Medoid-mode prototypes are the special case v = e_m (an actual graph node),
for which d reduces to column m of R.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError
from .graph import AdjacencyMatrix

FREE = "free"
MEDOID = "medoid"


def prototype_distances(R: AdjacencyMatrix, V: np.ndarray) -> np.ndarray:
    """Node distances of a prototype set: the (c, n) matrix
    d[j, i] = (R v_j)_i - v_j^T R v_j / 2 for the (c, n) weight rows ``V``.

    Nothing is checked here; the trainer calls it once per round."""
    VR = V @ R.values
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
