"""Dataset ingestion: UCI-format loaders, synthetic generators, graph building.

Every vector dataset is turned into a graph by the standardized squared
Euclidean distance between all observation pairs; an optional entrywise power
(> 1) produces matrices with no exact vector realization, for exercising the
non-realizable code paths.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MalformedFileError, NonFiniteError, TooFewSamplesError, UnknownKindError
from .graph import AdjacencyMatrix, from_features, read_adjacency

@dataclass
class IngestResult:
    """Graph, one-hot targets and class names of one ingested dataset; the
    graph of a vector kind at power 1 carries its (standardized) features."""

    R: AdjacencyMatrix
    Y: np.ndarray | None
    class_names: list


def one_hot(labels, g: int | None = None) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if g is None:
        g = int(labels.max()) + 1
    return np.eye(g)[labels]


def _rows(path, fields: int, parse) -> list:
    """``parse(row)`` of each non-blank row of the CSV file at ``path``, each
    row checked to hold ``fields`` fields.  A ValueError or KeyError that
    ``parse`` raises becomes a MalformedFileError naming ``path:line``."""
    parsed = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            if len(row) != fields:
                raise MalformedFileError(f"{path}:{ln}: expected {fields} fields, got {len(row)}")
            try:
                parsed.append(parse(row))
            except (ValueError, KeyError) as exc:
                # a KeyError's text is the missing key alone
                why = f"unknown code {exc}" if isinstance(exc, KeyError) else exc
                raise MalformedFileError(f"{path}:{ln}: {why}") from exc
    if not parsed:
        raise MalformedFileError(f"{path}: no data rows")
    return parsed


def load_wdbc(path):
    """Diagnostic breast-mass dataset: ``id,diagnosis,30 real features``.

    Diagnosis codes: B (benign, class 0) and M (malignant, class 1).
    """

    def parse(row):
        code = row[1].strip().upper()
        if code not in ("B", "M"):
            raise ValueError(f"bad diagnosis {row[1]!r}")
        return [float(v) for v in row[2:]], int(code == "M")

    features, labels = zip(*_rows(path, 32, parse))
    return np.array(features), np.array(labels), ["benign", "malignant"]


VOTE_CODES = {"y": 1.0, "n": -1.0, "?": 0.0}


def load_voting(path):
    """Congressional voting records: ``party,vote1,...,vote16``.

    Votes are trinary: yea (+1), nay (-1), position unknown (0).  Party codes
    democrat (class 0) and republican (class 1).
    """

    def parse(row):
        party = row[0].strip().lower()
        if party not in ("democrat", "republican"):
            raise ValueError(f"bad party {row[0]!r}")
        return [VOTE_CODES[v.strip().lower()] for v in row[1:]], int(party == "republican")

    features, labels = zip(*_rows(path, 17, parse))
    return np.array(features), np.array(labels), ["democrat", "republican"]


def load_heart_cleveland(path):
    """Cleveland heart-disease records: 13 features plus a 0-4 severity code.

    Missing values ('?' or empty) are imputed by the column median; the
    target is binarized to absence (0) vs presence (severity >= 1, class 1).
    """

    def parse(row):
        features = [np.nan if v.strip() in ("?", "") else float(v) for v in row[:13]]
        return features, int(float(row[13]) != 0)

    features, labels = zip(*_rows(path, 14, parse))
    X = np.array(features)
    for j in range(X.shape[1]):
        col = X[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise MalformedFileError(f"{path}: column {j + 1} has no value in any row")
        if missing.any():
            col[missing] = np.median(col[~missing])
    return X, np.array(labels), ["absent", "present"]


def synthetic_blobs(
    n: int = 60,
    classes: int = 2,
    sep: float = 10.0,
    dim: int = 2,
    noise: float = 1.0,
    seed: int = 0,
):
    """Balanced isotropic Gaussian clusters with means on a circle of radius
    ``sep`` in the first two dimensions."""
    rng = np.random.default_rng(seed)
    counts = [n // classes + (1 if k < n % classes else 0) for k in range(classes)]
    X_parts, labels = [], []
    for k, count in enumerate(counts):
        angle = 2.0 * np.pi * k / classes
        mean = np.zeros(dim)
        mean[0] = sep * np.cos(angle)
        if dim > 1:
            mean[1] = sep * np.sin(angle)
        X_parts.append(mean + noise * rng.standard_normal((count, dim)))
        labels.extend([k] * count)
    return np.vstack(X_parts), np.array(labels)


def read_labels_csv(path) -> np.ndarray:
    """Class labels: one column of integers >= 0, one line per node."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on an empty file
            labels = np.loadtxt(path, dtype=int, ndmin=2)
    except (ValueError, OSError, UserWarning) as exc:
        raise MalformedFileError(f"cannot parse labels file {path}: {exc}") from exc
    if labels.shape[1] != 1 or np.any(labels < 0):
        raise MalformedFileError(f"labels file {path} must hold one column of integers >= 0")
    return labels[:, 0]


def standardize(X) -> np.ndarray:
    """Z-score every column of a feature array (population std).

    Needs at least two rows.  Constant columns are dropped with a warning.
    """
    x = np.asarray(X, dtype=float)
    if x.shape[0] < 2:
        raise TooFewSamplesError(f"need at least two observations, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("feature matrix contains non-finite entries")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    keep = std > 1e-12 * (np.abs(mean) + 1.0)
    if not np.all(keep):
        dropped = np.flatnonzero(~keep)
        warnings.warn(
            f"dropping {dropped.size} zero-variance feature column(s): {dropped.tolist()}",
            UserWarning,
            stacklevel=2,
        )
    return (x[:, keep] - mean[keep]) / std[keep]


# ingest's `standardize` flag hides the function of that name
_zscore = standardize

LOADERS = {"wdbc": load_wdbc, "voting": load_voting, "heart-cleveland": load_heart_cleveland}
KINDS = (*LOADERS, "adjacency-csv", "synthetic-blobs")


def ingest(
    kind: str,
    path=None,
    standardize: bool = True,
    power: float = 1.0,
    labels_path=None,
    blobs: dict | None = None,
) -> IngestResult:
    """Build (adjacency matrix, one-hot targets) for a named dataset kind.

    The parameters are the keys of a config's ``dataset`` object, and their
    defaults are the defaults of an absent key.  File-backed kinds require
    ``path``.  ``adjacency-csv`` reads the graph directly (labels optional,
    via ``labels_path``); all vector kinds build the graph with the squared
    Euclidean distance of their features, z-scored when ``standardize`` is
    set.  ``synthetic-blobs`` passes ``blobs`` to :func:`synthetic_blobs` as
    keyword arguments.
    """
    if kind not in KINDS:
        raise UnknownKindError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    if path is None and kind != "synthetic-blobs":
        raise MalformedFileError(f"{kind} requires a path")

    class_names: list = []
    labels = None
    if kind == "adjacency-csv":
        R = read_adjacency(path)
        if labels_path is not None:
            labels = read_labels_csv(labels_path)
            if labels.size != R.n:
                raise MalformedFileError(
                    f"labels count {labels.size} != matrix size {R.n}"
                )
            class_names = [str(c) for c in range(int(labels.max()) + 1)]
        if power != 1.0:
            R = R.power(power)
    else:
        if kind == "synthetic-blobs":
            X, labels = synthetic_blobs(**(blobs or {}))
            class_names = [f"class{k}" for k in range(int(labels.max()) + 1)]
        else:
            X, labels, class_names = LOADERS[kind](path)
        if standardize:
            X = _zscore(X)
        R = from_features(X, power)
    Y = one_hot(labels, len(class_names) or None) if labels is not None else None
    return IngestResult(R=R, Y=Y, class_names=class_names)
