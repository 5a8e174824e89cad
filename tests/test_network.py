"""Forward pass: Gaussian hidden layer, linear output, squared-error score."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relrbf import (
    NetworkParams,
    forward,
    from_features,
    gaussian_kernel,
    predict_labels,
    prototype_distances,
)
from relrbf.errors import DimensionMismatchError, NonpositiveSigmaError
from relrbf.cli import json_text


class TestGaussianKernel:
    def test_zero_distance(self):
        assert gaussian_kernel(0.0, 1.0) == 1.0

    def test_known_values(self):
        assert gaussian_kernel(2.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert gaussian_kernel(1.25, 0.5) == pytest.approx(math.exp(-2.5))

    def test_nonpositive_sigma(self):
        with pytest.raises(NonpositiveSigmaError):
            gaussian_kernel(1.0, 0.0)

    def test_range_and_monotonicity(self):
        d = np.linspace(0, 50, 200)
        h = gaussian_kernel(d, 1.3)
        assert np.all(h > 0) and np.all(h <= 1)
        assert np.all(np.diff(h) < 0)

    @staticmethod
    def reference(d, sigma):
        return np.exp(-np.asarray(d, dtype=float) / (2.0 * np.asarray(sigma, dtype=float) ** 2))

    def test_bits_on_edge_inputs(self):
        # kernel 1 where 2 sigma^2 overflows, above 1 and inf at negative d,
        # 1 at d = 0 (of either sign), subnormal and 0 far out
        d = np.array([0.0, -0.0, 1.0, -1.0, -1500.0, -1e300, 1480.0, 1490.0, 1e300, 2000.0])
        sigma = np.array([1.0, 0.5, 1e-3, 1e160, 1e300])[:, None]
        with np.errstate(over="ignore"):
            want = self.reference(d, sigma)
            got = gaussian_kernel(d, sigma)
            unchecked = gaussian_kernel(d, sigma, checked=False)
        assert got.tobytes() == want.tobytes() == unchecked.tobytes()
        assert got.shape == (5, 10)
        assert np.all(got[3:] == 1.0) and got[0, 3] > 1.0 and np.isinf(got[0, 4])
        assert np.all(got[:, :2] == 1.0)
        assert 0.0 < got[0, 6] < np.finfo(float).tiny and got[0, 9] == 0.0
        assert np.isnan(gaussian_kernel(np.array([np.nan, -np.nan]), 1.0)).all()

    @pytest.mark.parametrize("d, sigma", [
        (2.0, 1.0), (np.array(2.0), np.array(0.5)), (3, 2), (np.array(1.5), 1.0),
        ([0.0, 1.0, 4.0], 1.0), (np.array([1.0, 2.0]), np.array([[0.5], [2.0]])),
    ], ids=["scalars", "0-d", "ints", "0-d-scalar", "list", "broadcast"])
    @pytest.mark.parametrize("checked", [True, False])
    def test_scalars_and_arrays(self, d, sigma, checked):
        got = gaussian_kernel(d, sigma, checked=checked)
        want = self.reference(d, sigma)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("sigma", [0.0, -0.0, -1.0, np.array(0.0), np.array([[1.0], [0.0]])])
    def test_nonpositive_sigma_of_any_shape(self, sigma):
        with pytest.raises(NonpositiveSigmaError):
            gaussian_kernel(np.ones((2, 3)), sigma)


class TestForward:
    def test_single_prototype_identity(self):
        params = NetworkParams(w0=[0.0], W=[[1.0]], sigma=[1.0])
        resp = forward(np.zeros((1, 4)), params)
        np.testing.assert_allclose(resp, 1.0)

    def test_bias_only(self):
        params = NetworkParams(w0=[0.7, -0.2], W=np.zeros((3, 2)), sigma=[1, 1, 1])
        resp = forward(np.random.default_rng(0).uniform(0, 4, (3, 5)), params)
        np.testing.assert_allclose(resp, np.tile([0.7, -0.2], (5, 1)))

    def test_known_value(self):
        params = NetworkParams(w0=[0.5], W=[[2.0]], sigma=[1.0])
        resp = forward(np.array([[2.0]]), params)
        assert resp[0, 0] == pytest.approx(0.5 + 2.0 * math.exp(-1.0))

    def test_dimension_mismatch(self):
        params = NetworkParams(w0=[0.0], W=[[1.0]], sigma=[1.0])
        with pytest.raises(DimensionMismatchError):
            forward(np.zeros((2, 4)), params)

    def test_linear_in_output_weights(self):
        rng = np.random.default_rng(1)
        D = rng.uniform(0, 5, (3, 6))
        sigma = rng.uniform(0.5, 2.0, 3)
        pa = NetworkParams(w0=rng.normal(size=2), W=rng.normal(size=(3, 2)), sigma=sigma)
        pb = NetworkParams(w0=rng.normal(size=2), W=rng.normal(size=(3, 2)), sigma=sigma)
        lam = 0.37
        mixed = NetworkParams(
            w0=lam * pa.w0 + (1 - lam) * pb.w0,
            W=lam * pa.W + (1 - lam) * pb.W,
            sigma=sigma,
        )
        np.testing.assert_allclose(
            forward(D, mixed),
            lam * forward(D, pa) + (1 - lam) * forward(D, pb),
            atol=1e-12,
        )

    def test_matches_vector_side_forward(self):
        # same parameters, distances from the graph identity vs direct
        # squared norms: responses must coincide
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 3))
        U = rng.uniform(0.1, 1.0, (4, 12))
        V = U / U.sum(axis=1, keepdims=True)
        R = from_features(X)
        D_rel = prototype_distances(R, V)
        P = V @ X
        D_vec = ((X[None, :, :] - P[:, None, :]) ** 2).sum(-1)
        params = NetworkParams(
            w0=rng.normal(size=2), W=rng.normal(size=(4, 2)), sigma=rng.uniform(0.5, 2, 4)
        )
        out_rel = forward(D_rel, params)
        out_vec = forward(D_vec, params)
        rel_err = np.abs(out_rel - out_vec) / np.maximum(1.0, np.abs(out_vec))
        assert rel_err.max() <= 1e-10


def test_predict_labels_tie_breaks_to_smallest():
    out = np.array([[0.5, 0.5, 0.1], [0.1, 0.9, 0.9]])
    np.testing.assert_array_equal(predict_labels(out), [0, 1])


class TestFiniteOrNull:
    # json_text writes every JSON file of the CLI, each non-finite number as null
    def test_non_finite_values_become_null(self):
        values = np.array([1.5, np.nan, -np.inf, np.inf, -0.0, 5e-324]).tolist()
        out = json.loads(json_text({"values": values}))["values"]
        assert out[:2] == [1.5, None] and out[2:4] == [None, None]
        assert math.copysign(1.0, out[4]) == -1.0 and out[5] == 5e-324
        assert all(type(v) is float for v in out if v is not None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_finite_values_survive_json_bitwise(self, values):
        # report.json and duality.json hold these lists as written
        back = json.loads(json_text({"values": np.array(values, dtype=float).tolist()}))["values"]
        assert np.array(back, dtype=float).tobytes() == np.array(values, dtype=float).tobytes()
