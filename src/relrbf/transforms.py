"""Spectral embeddings of dissimilarity matrices and matrix-reordering
diagnostics.

The double-centered matrix -J R J / 2 of a squared-distance matrix is the
Gram matrix of a centered realization.  The classical embedding keeps only
its positive spectrum (an affine projection onto the PSD cone); the proximal
variant instead shifts the whole spectrum up by the magnitude of its most
negative eigenvalue, which uniformly inflates off-diagonal dissimilarities
by twice that amount; the pseudo-Euclidean one keeps both signs of the
spectrum and reproduces any graph.  The reordering diagnostics expose
cluster structure as dark diagonal blocks; the improved variant first
replaces every entry with the minimax path distance through the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _BLOCK, AdjacencyMatrix, double_centered, save_npy

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

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.X, dtype=float)).copy()
        ev = np.asarray(self.eigenvalues, dtype=float).copy()
        x.setflags(write=False)
        ev.setflags(write=False)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "eigenvalues", ev)


def _spectrum(R: AdjacencyMatrix):
    """The eigenpairs of -J R J / 2, eigenvalues descending.  For a graph with
    ``features`` that is Xc Xc^T for the centered Xc = U S W^T (Gower 1966):
    the eigenvalues are S^2 then exact zeros, with only the min(n, d) columns
    of U, and no n x n matrix formed."""
    if R.features is None:
        eigvals, eigvecs = np.linalg.eigh(double_centered(R.values))
        order = np.argsort(eigvals)[::-1]
        return eigvals[order], eigvecs[:, order]
    U, s, _ = np.linalg.svd(R.features - R.features.mean(axis=0), full_matrices=False)
    return np.concatenate([s * s, np.zeros(R.n - s.size)]), U


def _fix_signs(X: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude entry of each column positive.
    for k in range(X.shape[1]):
        col = X[:, k]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            X[:, k] = -col
    return X


def _embed(eigvals: np.ndarray, eigvecs: np.ndarray, signed: bool = False):
    """Columns sqrt(|eigenvalue|) u for the eigenpairs above the floor (in
    magnitude when ``signed``), and their indices; ``eigvecs`` may omit the rest."""
    floor = EIGENVALUE_FLOOR * max(1.0, float(np.max(np.abs(eigvals))))
    magnitude = np.abs(eigvals) if signed else eigvals
    keep = np.flatnonzero(magnitude > floor)
    X = eigvecs[:, keep] * np.sqrt(magnitude[keep])
    return _fix_signs(X), keep


def cmds(R: AdjacencyMatrix) -> Embedding:
    """Classical scaling: embed over the positive spectrum, zeroing the rest.

    For a realizable matrix the pairwise squared distances of the embedding
    reproduce the input; otherwise the negative spectrum is discarded and the
    entries change.  A graph's ``features`` give the spectrum by their SVD.
    """
    eigvals, eigvecs = _spectrum(R)
    X, _ = _embed(eigvals, eigvecs)
    return Embedding(X=X, eigenvalues=eigvals)


def pseudo_euclidean(R: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The signed realization (X, s) that every graph has.

    With -J R J / 2 = U L U', X = U |L|^(1/2) and s = sign(L), over the
    eigenvalues whose magnitude is above the floor; then
    R_ij = sum_k s_k (x_ik - x_jk)^2.  A realizable graph has every s_k = +1
    and the classical embedding as X.
    """
    eigvals, eigvecs = _spectrum(R)
    X, keep = _embed(eigvals, eigvecs, signed=True)
    return X, np.sign(eigvals[keep])


def pmds(R: AdjacencyMatrix) -> Embedding:
    """Proximal scaling: shift the spectrum up by |smallest eigenvalue|.

    With a PSD double-centered matrix the shift is zero and the result equals
    the classical embedding; otherwise every off-diagonal dissimilarity of
    the embedded configuration is inflated by 2 |min eigenvalue|.
    """
    eigvals, eigvecs = _spectrum(R)
    min_eig = float(eigvals.min())
    shifted = eigvals + abs(min_eig) if min_eig < 0 else eigvals
    X, _ = _embed(shifted, eigvecs)
    return Embedding(X=X, eigenvalues=shifted)


@dataclass(frozen=True)
class VatOrder:
    """Permutation placing similar objects adjacently, plus the reordered
    matrix.  Both arrays are marked read-only in place, not copied: ``vat``
    builds the matrix fresh and takes the permutation from the graph's
    read-only spanning tree."""

    perm: np.ndarray
    reordered: np.ndarray

    def __post_init__(self):
        self.perm.setflags(write=False)
        self.reordered.setflags(write=False)


def vat(R: AdjacencyMatrix) -> VatOrder:
    """Minimax (Prim-style) reordering of a dissimilarity matrix: the
    visiting order of ``R.spanning_tree``.

    Starts from an endpoint of the largest edge, then repeatedly appends the
    unvisited object closest to the visited set.  Ties break toward the
    smallest object index.
    """
    perm = R.spanning_tree[0]
    return VatOrder(perm=perm, reordered=R.values[np.ix_(perm, perm)])


def minimax_distances(R: AdjacencyMatrix) -> AdjacencyMatrix:
    """Replace each entry with the smallest possible largest edge over all
    connecting paths (never exceeds the direct edge).

    That bottleneck is the largest edge on the minimum-spanning-tree path
    (Havens & Bezdek, IEEE TKDE 2012), so the walk of ``R.spanning_tree``
    gives all of it in O(n^2): the row of the k-th object to join, against
    the objects before it, is its attach point's row raised to at least the
    attach edge.  Each object's row is built in place, its columns in
    visiting order, so it reads 0 for objects visited between the two, which
    Prim's order keeps within the attach edge.  The built half is mirrored
    (``mp += mp.T`` would copy the transpose whole) and the columns are put
    in node order, a block of rows at a time: the result is the one n x n
    array the call allocates.
    """
    perm, attach = R.spanning_tree
    n = R.n
    up = attach[perm]
    edge = R.values[up, perm]
    mp = np.zeros((n, n))
    for k in range(1, n):
        # mp[up[k], pos[up[k]]] is not built yet, so the attach point's entry is the edge.
        np.maximum(mp[up[k], :k], edge[k], out=mp[perm[k], :k])
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    for i in range(0, n, _BLOCK):
        mp[perm[i : i + _BLOCK], i:] += mp[perm[i:], i : i + _BLOCK].T
    for i in range(0, n, _BLOCK):
        mp[i : i + _BLOCK] = mp[i : i + _BLOCK, pos]
    # symmetric, zero on the diagonal and non-negative by construction
    return AdjacencyMatrix._derived(mp)


def ivat(R: AdjacencyMatrix) -> tuple[VatOrder, AdjacencyMatrix]:
    """Reordering of the minimax path distances (sharper block structure)."""
    transformed = minimax_distances(R)
    return vat(transformed), transformed


def write_embedding_csv(embedding: Embedding, path) -> None:
    """The embedding's coordinates, as ``.npy``."""
    save_npy(embedding.X, path)


def write_eigenvalues_csv(embedding: Embedding, path) -> None:
    np.savetxt(path, embedding.eigenvalues, delimiter=",", fmt="%.17g")


def write_vat_csv(order: VatOrder, perm_path, matrix_path) -> None:
    """The permutation as one CSV row, the reordered matrix as ``.npy``."""
    np.savetxt(perm_path, order.perm[None, :], delimiter=",", fmt="%d")
    save_npy(order.reordered, matrix_path)


def _pgm_levels(rows: np.ndarray, top: float) -> np.ndarray:
    """The PGM bytes of a block of rows: ``rint(255 * m / top)``, all 0 when top is 0."""
    levels = np.multiply(rows, 255.0)
    np.rint(np.divide(levels, top or 1.0, out=levels), out=levels)  # a zero block over 1 when top is 0
    return levels.astype(np.uint8, order="C")


def write_pgm(matrix: np.ndarray, path) -> None:
    """Binary (P5) grayscale PGM of a non-negative dissimilarity matrix
    (dark = similar): one byte per pixel, ``rint(255 * m / max(m))``, all 0
    when the maximum is 0, scaled and written a block of rows at a time."""
    m = np.asarray(matrix, dtype=float)
    if m.size and m.min() < 0:
        raise ValueError("write_pgm needs a non-negative matrix")
    top = m.max()
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        for i in range(0, m.shape[0], _BLOCK):
            fh.write(_pgm_levels(m[i : i + _BLOCK], top))


def write_reordered(R: AdjacencyMatrix, perm: np.ndarray, out, name: str) -> None:
    """``R`` in the order ``perm`` as the ``<name>_perm.csv``, ``_matrix.npy`` and ``.pgm``
    that :func:`write_vat_csv` and :func:`write_pgm` write, a block of rows at a time."""
    np.savetxt(out / f"{name}_perm.csv", perm[None, :], delimiter=",", fmt="%d")
    a, n, top = R.values, R.n, R.values.max()  # the reordered matrix's maximum
    with open(out / f"{name}_matrix.npy", "wb") as npy, open(out / f"{name}.pgm", "wb") as pgm:
        header = {"descr": a.dtype.str, "fortran_order": False, "shape": (n, n)}
        np.lib.format.write_array_header_1_0(npy, header)
        pgm.write(f"P5\n{n} {n}\n255\n".encode())
        for i in range(0, n, _BLOCK):
            rows = a[np.ix_(perm[i : i + _BLOCK], perm)]
            npy.write(rows)
            pgm.write(_pgm_levels(rows, top))
