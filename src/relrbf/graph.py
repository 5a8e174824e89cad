"""Adjacency-matrix representation of weighted graphs and realizability checks.

An adjacency matrix here is a symmetric, non-negative, zero-diagonal matrix
of pairwise dissimilarities.  Entries are treated as *squared* distances
between (possibly latent) feature vectors: a matrix is realizable by a point
configuration exactly when its double-centered form is positive
semi-definite, which is the condition gating every vector/graph equivalence
guarantee in this package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetryError,
    NegativeEntryError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    RelRbfError,
    TooFewSamplesError,
)

# Absolute asymmetry tolerated on input before raising (serialization slop).
SYMMETRY_TOL = 1e-12
# Relative PSD slack used by the embeddability test.
PSD_TOL = 1e-8
# Lanczos steps `validate` takes before it falls back to the full spectrum.
# On non-realizable blob graphs (n from 300 to 4000, powers from 1.02 to 3)
# the smallest Ritz value converged within 45 steps.
_LANCZOS_STEPS = 80
# Relative Ritz residual at which `validate` reports the smallest Ritz value.
_RITZ_RTOL = 1e-9
# Rows of an n x n matrix that `_sqeuclidean` computes, and that the
# transforms' minimax graph, PGM writer and reordered-matrix writer handle, at
# a time: the buffers stay small next to the matrix, and 16 to 32 rows ran
# `_sqeuclidean` at one speed for n from 569 to 2000.
_BLOCK = 20


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric, non-negative, zero-diagonal matrix of pairwise dissimilarities.

    Instances are immutable, and their read-only entries never change: the
    constructor keeps a checked, symmetrized copy, a derived graph wraps the
    array it computes, and a feature graph (:func:`from_features` at power
    1) computes them on the first read of ``values`` from its read-only copy
    of ``features``, the realization, which is None for every other graph.
    Graphs compare and hash by identity.
    """

    values: np.ndarray
    features: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise NonSquareError(f"expected a non-empty square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("adjacency matrix contains non-finite entries")
        # one n x n buffer: first |a - a^T|, then (a + a^T) / 2
        buf = np.subtract(a, a.T)
        asym = np.abs(buf, out=buf).max()
        if asym > SYMMETRY_TOL:
            raise AsymmetryError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        with np.errstate(over="ignore"):
            a = np.add(a, a.T, out=buf)
        # finite entries above about 8.99e307 overflow in the sum
        if not (np.isfinite(a.max()) and np.isfinite(a.min())):
            raise NonFiniteError("adjacency matrix entries overflow when symmetrized")
        a /= 2.0
        diag = np.abs(np.diagonal(a))
        if diag.max() > SYMMETRY_TOL:
            raise NonzeroDiagonalError(f"max |diagonal| = {diag.max():.3e}")
        np.fill_diagonal(a, 0.0)
        if a.min() < 0.0:
            raise NegativeEntryError(f"negative dissimilarity {a.min():.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    def __setstate__(self, state):
        # unpickling yields writable arrays: a pickled graph comes back read-only
        for a in state.values():
            if a is not None:
                a.setflags(write=False)
        self.__dict__.update(state)

    def __getattr__(self, name):
        # reached only for an attribute not set: a feature graph's entries
        # before their first read
        if name != "values" or self.__dict__.get("features") is None:
            raise AttributeError(name)
        a = _sqeuclidean(self.features)
        a.setflags(write=False)
        self.__dict__["values"] = a
        return a

    @property
    def n(self) -> int:
        return (self.values if self.features is None else self.features).shape[0]

    @cached_property
    def spanning_tree(self) -> np.ndarray:
        """The graph's :func:`_prim` tree, walked on first read, then kept."""
        return _prim(self.values)

    @classmethod
    def _derived(cls, a: np.ndarray | None, features: np.ndarray | None = None) -> AdjacencyMatrix:
        """Wrap `a` as it is, without the checks and the symmetrizing copy:
        only for arrays that have every property the constructor checks, by
        derivation from a valid matrix or by construction.  `from_features`
        alone passes the `features` realizing the graph, and passes `a` None
        when the entries are to be computed from them on first read."""
        R = object.__new__(cls)
        for x in (a, features):
            if x is not None:
                x.setflags(write=False)
        if a is not None:
            object.__setattr__(R, "values", a)
        object.__setattr__(R, "features", features)
        return R

    def submatrix(self, idx) -> AdjacencyMatrix:
        """The graph on the nodes `idx`: its principal submatrix, one copy."""
        return AdjacencyMatrix._derived(self.values[np.ix_(idx, idx)])

    def power(self, p: float) -> AdjacencyMatrix:
        """Entrywise power, p > 0 (p > 1 is generally not realizable by any
        vector configuration), in a new matrix."""
        return _raised(self.values.copy(), p)


def _prim(a: np.ndarray) -> np.ndarray:
    """Prim's minimum spanning tree on the entries `a`, in VAT's order: a
    read-only (2, n) array of the visiting order and of each node's attach
    point (the first visited node to reach its final distance; the start
    node attaches to itself).  The walk starts from an endpoint of the
    largest edge and visits the unvisited node closest to the visited set
    next, ties toward the smallest index."""
    n = a.shape[0]
    start = int(np.argmax(a.max(axis=1)))  # np.argmax(a) would copy a read-only `a`
    tree = np.empty((2, n), dtype=int)
    perm, attach = tree
    perm[0] = start
    attach[:] = start
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    # Distance to the visited set for unvisited nodes, inf for visited ones.
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
    tree.setflags(write=False)
    return tree


def _raised(a: np.ndarray, p: float) -> AdjacencyMatrix:
    """The graph of the entries of `a` raised to `p` > 0, in place.

    `a **= p` takes the fast paths of `a ** p`, so its bits are those of
    `a ** p`.  Symmetry, the zero diagonal and non-negative entries carry
    over; only overflow needs a check.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    a **= p
    if not np.isfinite(a.max()):
        raise NonFiniteError("adjacency matrix contains non-finite entries")
    return AdjacencyMatrix._derived(a)


@dataclass(frozen=True)
class RealizabilityReport:
    """Spectral diagnostics for an adjacency matrix.

    ``euclidean_embeddable`` is the operative realizability test: the
    double-centered matrix -J R J / 2 must be PSD up to tolerance.  The
    structural properties (symmetry, sign, zero diagonal) are the
    :class:`AdjacencyMatrix` constructor's to check, so they are not reported
    here.
    """

    euclidean_embeddable: bool
    min_eigenvalue: float


def double_centered(values: np.ndarray) -> np.ndarray:
    """Return -J A J / 2 with J = I - (1/n) 11^T (the latent Gram matrix),
    in a new array.

    The steps run in the order of ``-0.5 * (a - row_mean - col_mean + mean)``,
    so the result is bitwise that expression's.
    """
    a = np.asarray(values, dtype=float)
    out = np.subtract(a, a.mean(axis=1, keepdims=True))
    out -= a.mean(axis=0, keepdims=True)
    out += a.mean()
    out *= -0.5
    return out


def validate(R: AdjacencyMatrix) -> RealizabilityReport:
    """Check that a graph has a vector realization.

    The graph is embeddable when the smallest eigenvalue of B = -J R J / 2
    is at least ``-PSD_TOL * max(|eigenvalues|)``.  Three routes decide it:

    - A graph with ``features`` has B = Xc Xc^T for its centered features:
      B is PSD and B 1 = 0, so the graph is embeddable with smallest
      eigenvalue 0, and no spectrum is computed.
    - Above ``4 * _LANCZOS_STEPS`` nodes, Lanczos can certify that the graph
      is not embeddable (:func:`_certified_min_eigenvalue`).
    - Otherwise, the full spectrum of B, from one n x n buffer.
    """
    if R.features is not None:
        return RealizabilityReport(euclidean_embeddable=True, min_eigenvalue=0.0)
    if R.n > 4 * _LANCZOS_STEPS:
        min_eig = _certified_min_eigenvalue(R.values)
        if min_eig is not None:
            return RealizabilityReport(euclidean_embeddable=False, min_eigenvalue=min_eig)
    eigvals = np.linalg.eigvalsh(double_centered(R.values))
    min_eig = float(eigvals.min())
    return RealizabilityReport(
        euclidean_embeddable=bool(min_eig >= -PSD_TOL * float(np.max(np.abs(eigvals)))),
        min_eigenvalue=min_eig,
    )


def _certified_min_eigenvalue(a: np.ndarray) -> float | None:
    """A Rayleigh quotient of B = -J a J / 2 that proves B fails the PSD
    test, or None when ``_LANCZOS_STEPS`` Lanczos steps find none.

    B is never formed: on vectors v orthogonal to 1, B v is
    -(a v - mean(a v)) / 2.  Every Rayleigh quotient of B is at least its
    smallest eigenvalue, and max |eigenvalue| <= ||B||_2 <= ||a||_F / 2, so a
    quotient below ``-PSD_TOL * ||a||_F / 2`` certifies that the graph is
    not embeddable.  The quotient is that of the lowest Ritz vector of
    Q^T B Q over the fully reorthogonalized Krylov basis Q (not of the
    recurrence's tridiagonal matrix, which a rank-deficient graph's
    breakdown corrupts).  It is returned once its residual is at most
    ``_RITZ_RTOL`` times its size: an eigenvalue then lies that close to it,
    and on every graph tried that was the smallest one, to the printed
    digits.  A quotient above the bound whose residual is that
    small next to ``||a||_F / 2`` has converged, so the search stops there.
    The start vector is a fixed draw, so the result repeats bit for bit.
    """
    n = a.shape[0]
    radius = 0.5 * float(np.linalg.norm(a))
    bound = -PSD_TOL * radius
    Q = np.empty((_LANCZOS_STEPS, n))
    BQ = np.empty((_LANCZOS_STEPS, n))
    q = np.random.default_rng(0).standard_normal(n)
    for k in range(_LANCZOS_STEPS):
        q -= q.mean()
        norm = np.linalg.norm(q)
        if norm == 0.0:  # the Krylov space is exhausted
            return None
        Q[k] = q / norm
        w = BQ[k]
        np.matmul(a, Q[k], out=w)
        w -= w.mean()
        w *= -0.5
        basis, images = Q[: k + 1], BQ[: k + 1]
        _, S = np.linalg.eigh(basis @ images.T)
        y, By = S[:, 0] @ basis, S[:, 0] @ images
        rho = float(y @ By / (y @ y))
        residual = np.linalg.norm(By - rho * y)
        if rho < bound:
            if residual <= _RITZ_RTOL * -rho:
                return rho
        elif residual <= _RITZ_RTOL * radius:  # converged above the bound
            return None
        # full reorthogonalization, twice
        q = w - (basis @ w) @ basis
        q -= (basis @ q) @ basis
    return None


def from_features(X, power: float = 1.0) -> AdjacencyMatrix:
    """Build the squared-Euclidean dissimilarity matrix of a point set.

    Parameters
    ----------
    X : array_like, shape (n, d) or (n,)
        One observation per row; a 1-d array is one feature.
    power : float
        Entrywise power > 0, applied in place: bitwise
        ``from_features(X).power(power)`` in one n x n buffer.

    Returns
    -------
    AdjacencyMatrix
        r[p, q] = ||x_p - x_q||^(2 * power).  At power 1 its ``features``
        are a read-only copy of the 2-d ``X``, and entries that cannot
        overflow are computed from them on the first read of ``values``.
    """
    x = np.array(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise NonSquareError(f"expected a 2-d feature array, got ndim={x.ndim}")
    if x.shape[0] < 2:
        raise TooFewSamplesError(f"need at least two observations, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("feature matrix contains non-finite entries")
    with np.errstate(over="ignore"):
        # No entry exceeds the squared feature ranges summed in feature order:
        # rounding is monotone, and `_sqeuclidean` sums the same way.
        if power == 1.0 and np.isfinite(2.0 * sum(np.ptp(x, axis=0) ** 2, 0.0)):
            return AdjacencyMatrix._derived(None, x)
        r = _sqeuclidean(x)
        # the entries the constructor's symmetrizing sum would overflow on
        if not np.isfinite(2.0 * r.max()):
            raise NonFiniteError("adjacency matrix contains non-finite entries")
    return AdjacencyMatrix._derived(r, x) if power == 1.0 else _raised(r, power)


def _sqeuclidean(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `x`, bitwise equal to
    scipy's ``cdist(x, x, "sqeuclidean")``.

    Each entry sums the squared coordinate differences in feature order,
    starting from +0.0, as cdist does (``(x[q] - x[p])**2`` is bitwise
    ``(x[p] - x[q])**2``).  Only the upper block triangle is computed, a
    block of rows at a time in two block-sized buffers, and each block row is
    mirrored into the block column below it, so the result is exactly
    symmetric with a +0.0 diagonal.
    """
    n = x.shape[0]
    cols = np.array(x.T, order="C")
    r = np.empty((n, n))
    buf = np.empty(2 * _BLOCK * n)
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        acc, sq = buf[: 2 * (j - i) * (n - i)].reshape(2, j - i, n - i)
        acc[...] = 0.0
        for col in cols:
            sq[...] = col[i:]
            sq -= col[i:j, None]
            sq *= sq
            acc += sq
        r[i:j, i:] = acc
        r[j:, i:j] = acc[:, j - i :].T
    return r


def save_npy(a: np.ndarray, path) -> None:
    """Write `a` as a ``.npy`` file, bit-exact, at `path` itself (given a
    name, ``np.save`` would append ``.npy`` to one without that suffix)."""
    with open(path, "wb") as fh:
        np.save(fh, a)


def write_adjacency(R: AdjacencyMatrix, path) -> None:
    """Write an adjacency matrix as a ``.npy`` file."""
    save_npy(R.values, path)


def read_adjacency(path) -> AdjacencyMatrix:
    """Read an adjacency matrix: a ``.npy`` file when `path` ends in
    ``.npy`` (no pickled objects), else a headerless CSV.

    The file must hold a square table of real numbers.  Asymmetry up to
    1e-12 is silently averaged away; anything larger is an error.  Negative
    entries and nonzero diagonals are rejected, by the
    :class:`AdjacencyMatrix` constructor's checks, with the path in the
    message.
    """
    try:
        if str(path).endswith(".npy"):
            with open(path, "rb") as fh:
                a = np.load(fh, allow_pickle=False)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt's empty-file warning
                a = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError, EOFError, UserWarning) as exc:
        raise ParseError(f"cannot parse adjacency file {path}: {exc}") from exc
    if not isinstance(a, np.ndarray) or a.dtype.kind not in "iuf":
        raise ParseError(f"{path}: expected an array of real numbers")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: expected square table, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{path}: non-finite entries")
    try:
        return AdjacencyMatrix(a)
    except RelRbfError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
