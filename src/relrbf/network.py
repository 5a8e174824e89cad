"""Two-layer RBF network forward pass: Gaussian hidden layer, linear output."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonpositiveSigmaError


@dataclass(frozen=True)
class NetworkParams:
    """Output-layer weights and per-prototype Gaussian bandwidths.

    w0: (g,) biases, W: (c, g) hidden-to-output weights, sigma: (c,) bandwidths.
    """

    w0: np.ndarray
    W: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        w0 = np.atleast_1d(np.asarray(self.w0, dtype=float)).copy()
        W = np.atleast_2d(np.asarray(self.W, dtype=float)).copy()
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float)).copy()
        if W.shape != (sigma.shape[0], w0.shape[0]):
            raise DimensionMismatchError(
                f"W shape {W.shape} incompatible with g={w0.shape[0]}, c={sigma.shape[0]}"
            )
        if not (np.isfinite(w0).all() and np.isfinite(W).all() and np.isfinite(sigma).all()):
            raise ValueError("network parameters must be finite")
        if (sigma <= 0).any():
            raise NonpositiveSigmaError(f"bandwidths must be positive, got min {sigma.min()}")
        for a in (w0, W, sigma):
            a.setflags(write=False)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "sigma", sigma)

    @property
    def c(self) -> int:
        return self.sigma.shape[0]

    @property
    def g(self) -> int:
        return self.w0.shape[0]


def gaussian_kernel(d, sigma, *, checked=True):
    """exp(-d / (2 sigma^2)); elementwise over broadcastable inputs.  Raises
    NonpositiveSigmaError for a sigma <= 0, unless not ``checked``: the
    trainer, whose bandwidths stay positive and which ignores overflow itself."""
    sigma = np.asarray(sigma, dtype=float)
    if checked and (sigma <= 0).any():
        raise NonpositiveSigmaError("sigma must be strictly positive")
    # a huge finite sigma overflows to an infinite width: the intended kernel of 1
    with np.errstate(over="ignore") if checked else nullcontext():
        neg_width = -(2.0 * sigma**2)
    h = np.divide(d, neg_width, dtype=float)  # -d / w bit for bit (a NaN keeps d's sign)
    return np.exp(h, out=h) if h.ndim else np.exp(h)


def forward(D: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Propagate the (c, n) prototype distances ``D`` through the network to
    the (n, g) outputs.

    output[i, k] = w0[k] + sum_j W[j, k] * exp(-D[j, i] / (2 sigma_j^2)).
    """
    if D.shape[0] != params.c:
        raise DimensionMismatchError(
            f"distances have {D.shape[0]} prototype rows, params expect {params.c}"
        )
    return response(gaussian_kernel(D, params.sigma[:, None]), params.W, params.w0)


def response(H: np.ndarray, W: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """The linear output layer: the (n, g) responses H' W + w0 to the (c, n)
    hidden activations ``H``."""
    return H.T @ W + w0


def predict_labels(output: np.ndarray) -> np.ndarray:
    """Class decisions: argmax over outputs, ties to the smallest class index."""
    return np.argmax(np.atleast_2d(output), axis=1)

