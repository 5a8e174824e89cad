"""Spectral embeddings of dissimilarity matrices and matrix-reordering
diagnostics.

The double-centered matrix -J R J / 2 of a squared-distance matrix is the
Gram matrix of a centered realization.  The classical embedding keeps only
its positive spectrum (an affine projection onto the PSD cone); the proximal
variant instead shifts the whole spectrum up by the magnitude of its most
negative eigenvalue, which uniformly inflates off-diagonal dissimilarities
by twice that amount.  The reordering diagnostics expose cluster structure
as dark diagonal blocks; the improved variant first replaces every entry
with the minimax path distance through the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AdjacencyMatrix, double_centered

EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class Embedding:
    """Coordinates recovered from a dissimilarity matrix.

    ``eigenvalues`` holds the full descending spectrum used for the
    embedding (post-shift for the proximal variant); ``X`` has one column per
    retained positive eigenvalue.
    """

    X: np.ndarray
    eigenvalues: np.ndarray
    d_prime: int

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.X, dtype=float)).copy()
        ev = np.asarray(self.eigenvalues, dtype=float).copy()
        x.setflags(write=False)
        ev.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "eigenvalues", ev)


def _descending_eig(B: np.ndarray):
    eigvals, eigvecs = np.linalg.eigh(B)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def _fix_signs(X: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude entry of each column positive.
    for k in range(X.shape[1]):
        col = X[:, k]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            X[:, k] = -col
    return X


def _embed(eigvals: np.ndarray, eigvecs: np.ndarray) -> tuple[np.ndarray, int]:
    floor = EIGENVALUE_FLOOR * max(1.0, float(np.max(np.abs(eigvals))) if eigvals.size else 0.0)
    keep = eigvals > floor
    X = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    return _fix_signs(X), int(keep.sum())


def cmds(R: AdjacencyMatrix) -> Embedding:
    """Classical scaling: embed over the positive spectrum, zeroing the rest.

    For a realizable matrix the pairwise squared distances of the embedding
    reproduce the input; otherwise the negative spectrum is discarded and the
    entries change.
    """
    eigvals, eigvecs = _descending_eig(double_centered(R.values))
    X, d_prime = _embed(eigvals, eigvecs)
    return Embedding(X=X, eigenvalues=eigvals, d_prime=d_prime)


def pmds(R: AdjacencyMatrix) -> Embedding:
    """Proximal scaling: shift the spectrum up by |smallest eigenvalue|.

    With a PSD double-centered matrix the shift is zero and the result equals
    the classical embedding; otherwise every off-diagonal dissimilarity of
    the embedded configuration is inflated by 2 |min eigenvalue|.
    """
    eigvals, eigvecs = _descending_eig(double_centered(R.values))
    min_eig = float(eigvals.min()) if eigvals.size else 0.0
    shifted = eigvals + abs(min_eig) if min_eig < 0 else eigvals
    X, d_prime = _embed(shifted, eigvecs)
    return Embedding(X=X, eigenvalues=shifted, d_prime=d_prime)


@dataclass(frozen=True)
class VatOrder:
    """Permutation placing similar objects adjacently, plus the reordered matrix."""

    perm: np.ndarray
    reordered: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int).copy()
        reordered = np.asarray(self.reordered, dtype=float).copy()
        perm.setflags(write=False)
        reordered.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "reordered", reordered)


def _prim(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's minimum spanning tree, grown in the order :func:`vat` describes.

    Returns the visiting order and, for each object, the earlier object it
    joined through (the first to reach its final distance; the start object
    joins through itself).
    """
    n = a.shape[0]
    start = int(np.unravel_index(np.argmax(a), a.shape)[0])
    perm = np.empty(n, dtype=int)
    perm[0] = start
    attach = np.full(n, start)
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    # Distance to the visited set for unvisited objects, inf for visited ones.
    dmin = np.where(unvisited, a[start], np.inf)
    closer = np.empty(n, dtype=bool)
    for k in range(1, n):
        j = int(np.argmin(dmin))
        perm[k] = j
        unvisited[j] = False
        dmin[j] = np.inf
        np.less(a[j], dmin, out=closer)
        closer &= unvisited
        np.copyto(dmin, a[j], where=closer)
        np.copyto(attach, j, where=closer)
    return perm, attach


def vat(R: AdjacencyMatrix) -> VatOrder:
    """Minimax (Prim-style) reordering of a dissimilarity matrix.

    Starts from an endpoint of the largest edge, then repeatedly appends the
    unvisited object closest to the visited set.  Ties break toward the
    smallest object index.
    """
    perm, _ = _prim(R.values)
    return VatOrder(perm=perm, reordered=R.values[np.ix_(perm, perm)])


def minimax_distances(R: AdjacencyMatrix) -> AdjacencyMatrix:
    """Replace each entry with the smallest possible largest edge over all
    connecting paths (never exceeds the direct edge).

    That bottleneck is the largest edge on the minimum-spanning-tree path
    (Havens & Bezdek, IEEE TKDE 2012), so one Prim pass gives all of it in
    O(n^2): the row of the k-th object to join, against the objects before
    it, is its attach point's row raised to at least the attach edge.  The
    rows are built in visiting order and permuted back once.
    """
    a = R.values
    n = R.n
    perm, attach = _prim(a)
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    parent = pos[attach[perm]]
    edge = a[attach[perm], perm]
    mp = np.zeros_like(a)
    for k in range(1, n):
        # mp[parent[k], parent[k]] is 0, so the entry for the attach point is the edge.
        np.maximum(mp[parent[k], :k], edge[k], out=mp[k, :k])
        mp[:k, k] = mp[k, :k]
    m = mp[np.ix_(pos, pos)]
    del mp  # free before AdjacencyMatrix takes its own copies
    return AdjacencyMatrix(m)


def ivat(R: AdjacencyMatrix) -> tuple[VatOrder, AdjacencyMatrix]:
    """Reordering of the minimax path distances (sharper block structure)."""
    transformed = minimax_distances(R)
    return vat(transformed), transformed


def write_embedding_csv(embedding: Embedding, path) -> None:
    np.savetxt(path, embedding.X, delimiter=",", fmt="%.17g")


def write_eigenvalues_csv(embedding: Embedding, path) -> None:
    np.savetxt(path, embedding.eigenvalues, delimiter=",", fmt="%.17g")


def write_vat_csv(order: VatOrder, perm_path, matrix_path) -> None:
    np.savetxt(perm_path, order.perm[None, :], delimiter=",", fmt="%d")
    np.savetxt(matrix_path, order.reordered, delimiter=",", fmt="%.17g")


def write_pgm(matrix: np.ndarray, path) -> None:
    """Grayscale PGM of a dissimilarity matrix (dark = similar)."""
    m = np.asarray(matrix, dtype=float)
    top = m.max()
    with open(path, "w") as fh:
        fh.write(f"P2\n{m.shape[1]} {m.shape[0]}\n255\n")
        for row in m:
            pixels = np.rint(255 * row / top).astype(int) if top > 0 else np.zeros(row.size, dtype=int)
            fh.write(" ".join(map(str, pixels.tolist())) + "\n")
