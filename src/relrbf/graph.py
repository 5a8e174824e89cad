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
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    NegativeEntryError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    RelRbfError,
)
from .textio import write_csv

# Absolute asymmetry tolerated on input before raising (serialization slop).
SYMMETRY_TOL = 1e-12
# Relative PSD slack used by the embeddability test.
DEFAULT_PSD_TOL = 1e-8
# Rows of the distance matrix that `_sqeuclidean` computes at a time: its two
# buffers stay small next to the n x n result, and 16 to 32 rows ran at one
# speed for n from 569 to 2000.
_BLOCK = 20


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric, non-negative, zero-diagonal matrix of pairwise dissimilarities.

    Instances are immutable: the entry array is copied on construction and
    marked read-only, so a matrix can be shared freely across consumers.
    """

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("adjacency matrix contains non-finite entries")
        # one n x n buffer: first |a - a^T|, then (a + a^T) / 2
        buf = np.subtract(a, a.T)
        asym = np.abs(buf, out=buf).max() if a.size else 0.0
        if asym > SYMMETRY_TOL:
            raise AsymmetryError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        with np.errstate(over="ignore"):
            a = np.add(a, a.T, out=buf)
        # finite entries above about 8.99e307 overflow in the sum
        if a.size and not (np.isfinite(a.max()) and np.isfinite(a.min())):
            raise NonFiniteError("adjacency matrix entries overflow when symmetrized")
        a /= 2.0
        diag = np.abs(np.diagonal(a))
        if diag.size and diag.max() > SYMMETRY_TOL:
            raise NonzeroDiagonalError(f"max |diagonal| = {diag.max():.3e}")
        np.fill_diagonal(a, 0.0)
        if a.size and a.min() < 0.0:
            raise NegativeEntryError(f"negative dissimilarity {a.min():.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    def __setstate__(self, state):
        # unpickling (e.g. into a spawned pool worker) yields a writable array
        state["values"].setflags(write=False)
        self.__dict__.update(state)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def _derived(cls, a: np.ndarray) -> AdjacencyMatrix:
        """Wrap `a` as it is, without the checks and the symmetrizing copy:
        only for arrays that have every property the constructor checks, by
        derivation from a valid matrix or by construction (`from_features`)."""
        R = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(R, "values", a)
        return R

    def submatrix(self, idx) -> AdjacencyMatrix:
        """The graph on the nodes `idx`: its principal submatrix, one copy."""
        return AdjacencyMatrix._derived(self.values[np.ix_(idx, idx)])

    def power(self, p: float) -> AdjacencyMatrix:
        """Entrywise power, p > 0 (p > 1 is generally not realizable by any
        vector configuration).  Symmetry, the zero diagonal and non-negative
        entries carry over; only overflow needs a check."""
        if p <= 0:
            raise ValueError("power must be positive")
        a = self.values**p
        if a.size and not np.isfinite(a.max()):
            raise NonFiniteError("adjacency matrix contains non-finite entries")
        return AdjacencyMatrix._derived(a)


@dataclass(frozen=True)
class FeatureMatrix:
    """Plain n x d matrix of vector observations (rows are observations)."""

    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.values, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise NonSquareError(f"expected a 2-d feature array, got ndim={x.ndim}")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("feature matrix contains non-finite entries")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "values", x)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RealizabilityReport:
    """Structural and spectral diagnostics for an adjacency matrix.

    ``euclidean_embeddable`` is the operative realizability test: the
    double-centered matrix -J R J / 2 must be PSD up to tolerance.  The
    square-root triangle inequality is neither necessary nor sufficient for
    embeddability of squared distances, so it is not reported here;
    :func:`sqrt_triangle_ok` checks it separately in O(n^3).
    """

    is_symmetric: bool
    is_nonnegative: bool
    is_antireflexive: bool
    euclidean_embeddable: bool
    min_eigenvalue: float

    @property
    def all_structural(self) -> bool:
        return self.is_symmetric and self.is_nonnegative and self.is_antireflexive


def _double_center(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write -J a J / 2 into ``out``, which may be ``a`` itself.

    The means are taken before ``out`` is written, and the steps run in the
    order of ``-0.5 * (a - row_mean - col_mean + mean)``, so the result is
    bitwise that expression's.
    """
    row_mean = a.mean(axis=1, keepdims=True)
    col_mean = a.mean(axis=0, keepdims=True)
    mean = a.mean()
    np.subtract(a, row_mean, out=out)
    out -= col_mean
    out += mean
    out *= -0.5
    return out


def double_centered(values: np.ndarray) -> np.ndarray:
    """Return -J A J / 2 with J = I - (1/n) 11^T (the latent Gram matrix)."""
    a = np.asarray(values, dtype=float)
    return _double_center(a, np.empty_like(a))


def validate(R, tol_psd: float = DEFAULT_PSD_TOL) -> RealizabilityReport:
    """Check structural invariants and embeddability of a dissimilarity matrix.

    Parameters
    ----------
    R : AdjacencyMatrix or array_like
        Square matrix of pairwise dissimilarities (squared-distance scale).
    tol_psd : float
        Relative slack for the PSD test: the matrix is embeddable when the
        smallest eigenvalue of its double-centered form is at least
        ``-tol_psd * max(|eigenvalues|)``.

    Returns
    -------
    RealizabilityReport
    """
    a = R.values if isinstance(R, AdjacencyMatrix) else np.asarray(R, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")

    # one n x n buffer: |a|, then |a - a^T|, then -J ((a + a^T) / 2) J / 2
    buf = np.abs(a)
    scale = float(buf.max()) if a.size else 0.0
    tol = SYMMETRY_TOL * max(1.0, scale)
    np.subtract(a, a.T, out=buf)
    is_symmetric = bool(np.abs(buf, out=buf).max() <= tol) if a.size else True
    is_nonnegative = bool(a.min() >= -tol) if a.size else True
    is_antireflexive = bool(np.max(np.abs(np.diagonal(a))) <= tol) if a.size else True

    np.add(a, a.T, out=buf)
    buf /= 2.0
    eigvals = np.linalg.eigvalsh(_double_center(buf, buf))
    min_eig = float(eigvals.min())
    thresh = tol_psd * float(np.max(np.abs(eigvals)))
    euclidean_embeddable = bool(
        is_symmetric and is_nonnegative and is_antireflexive and min_eig >= -thresh
    )
    return RealizabilityReport(
        is_symmetric=is_symmetric,
        is_nonnegative=is_nonnegative,
        is_antireflexive=is_antireflexive,
        euclidean_embeddable=euclidean_embeddable,
        min_eigenvalue=min_eig,
    )


def sqrt_triangle_ok(R) -> bool:
    """Triangle inequality on sqrt(entries) over all triples, small float slack.

    O(n^3) in time, so no command runs it; it neither implies nor is implied
    by embeddability (see :class:`RealizabilityReport`).
    """
    a = R.values if isinstance(R, AdjacencyMatrix) else np.asarray(R, dtype=float)
    s = np.sqrt(np.clip((a + a.T) / 2.0, 0.0, None))
    n = s.shape[0]
    slack = 1e-12 * max(1.0, float(s.max())) if n else 0.0
    for j in range(n):
        if np.any(s > s[:, j : j + 1] + s[j : j + 1, :] + slack):
            return False
    return True


def from_features(X, standardize: bool = False) -> AdjacencyMatrix:
    """Build the squared-Euclidean dissimilarity matrix of a point set.

    Parameters
    ----------
    X : FeatureMatrix or array_like, shape (n, d)
    standardize : bool
        Z-score every column (population std) before computing distances.
        Constant columns are dropped with a warning.

    Returns
    -------
    AdjacencyMatrix
        r[p, q] = ||x_p - x_q||^2 after optional standardization.
    """
    x = X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("feature matrix contains non-finite entries")
    if standardize:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        keep = std > 1e-12 * (np.abs(mean) + 1.0)
        if not np.all(keep):
            dropped = np.flatnonzero(~keep)
            warnings.warn(
                f"dropping {dropped.size} zero-variance feature column(s): "
                f"{dropped.tolist()}",
                UserWarning,
                stacklevel=2,
            )
        x = (x[:, keep] - mean[keep]) / std[keep]
    with np.errstate(over="ignore"):
        r = _sqeuclidean(x)
        # the entries the constructor's symmetrizing sum would overflow on
        if not np.isfinite(2.0 * r.max()):
            raise NonFiniteError("adjacency matrix contains non-finite entries")
    return AdjacencyMatrix._derived(r)


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


def write_adjacency(R: AdjacencyMatrix, path) -> None:
    """Write an adjacency matrix as headerless CSV at full float precision."""
    write_csv(path, R.values)


def read_adjacency(path) -> AdjacencyMatrix:
    """Read a headerless CSV adjacency matrix.

    Asymmetry up to 1e-12 is silently averaged away; anything larger is an
    error.  Negative entries and nonzero diagonals are rejected, by the
    :class:`AdjacencyMatrix` constructor's checks, with the path in the
    message.
    """
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ParseError(f"cannot parse adjacency CSV {path}: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: expected square table, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{path}: non-finite entries")
    try:
        return AdjacencyMatrix(a)
    except RelRbfError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_features(path) -> FeatureMatrix:
    """Read a feature CSV: one observation per row, optional '#' header."""
    try:
        x = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (ValueError, OSError) as exc:
        raise ParseError(f"cannot parse feature CSV {path}: {exc}") from exc
    return FeatureMatrix(x)
