"""Weighted-average prototypes and the node-distance identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relrbf import from_features, nearest_medoid, prototype_distances
from relrbf.errors import EmptySetError
from relrbf.initialization import indicator_weights, medoid_prototypes

from conftest import brute_force_distance


class TestRelationalDistance:
    def test_half_half_prototype(self, three_points, three_point_R):
        v = np.array([0.5, 0.5, 0.0])
        d = prototype_distances(three_point_R, v[None, :])[0]
        expected = brute_force_distance(three_points, v)
        np.testing.assert_allclose(expected, [0.25, 0.25, 1.25], atol=1e-15)
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_unit_basis_reduces_to_column(self, three_point_R):
        d = prototype_distances(three_point_R, np.array([[0.0, 1.0, 0.0]]))[0]
        np.testing.assert_allclose(d, three_point_R.values[:, 1], atol=1e-15)
        assert d[1] == 0.0

    def test_centroid_prototype(self, three_points, three_point_R):
        v = np.full(3, 1.0 / 3.0)
        d = prototype_distances(three_point_R, v[None, :])[0]
        expected = brute_force_distance(three_points, v)
        np.testing.assert_allclose(expected, [2.0 / 9.0, 5.0 / 9.0, 5.0 / 9.0], atol=1e-15)
        np.testing.assert_allclose(d, expected, atol=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_identity_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        X = rng.standard_normal((n, d))
        u = rng.uniform(0.05, 1.0, n)
        v = u / u.sum()
        rel = prototype_distances(from_features(X), v[None, :])[0]
        brute = brute_force_distance(X, v)
        scale = np.maximum(1.0, np.einsum("ij,ij->i", X, X))
        assert np.max(np.abs(rel - brute) / scale) <= 1e-10

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 3))
        shift = rng.standard_normal(3) * 5
        u = rng.uniform(0.1, 1.0, 10)
        v = u / u.sum()
        d1 = prototype_distances(from_features(X), v[None, :])[0]
        d2 = prototype_distances(from_features(X + shift), v[None, :])[0]
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_matrix_form_matches_single(self, three_point_R):
        V = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        D = prototype_distances(three_point_R, V)
        for j in range(2):
            np.testing.assert_array_equal(D[j], prototype_distances(three_point_R, V[j : j + 1])[0])

    def test_weight_gradient_of_distance(self):
        # d_i(w) = (Rw)_i - w^T R w / 2 has dd_i/dw_m = R[i, m] - (Rw)_m;
        # central differences on the raw quadratic must agree
        rng = np.random.default_rng(21)
        X = rng.standard_normal((12, 3))
        R = from_features(X)
        u = rng.uniform(0.1, 1.0, 12)
        w = u / u.sum()
        delta = 1e-6
        Rw = R.values @ w
        for m in range(12):
            wp, wm = w.copy(), w.copy()
            wp[m] += delta
            wm[m] -= delta
            num = (
                prototype_distances(R, wp[None, :])[0]
                - prototype_distances(R, wm[None, :])[0]
            ) / (2 * delta)
            analytic = R.values[:, m] - Rw[m]
            assert np.max(np.abs(num - analytic) / np.maximum(1.0, np.abs(analytic))) <= 1e-6


def occupied_assignment(rng, n, c):
    """A random assignment of n objects to c clusters, none of them empty."""
    return rng.permutation(np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)]))


class TestPrototypeRows:
    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_indicator_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        c = int(rng.integers(1, n + 1))
        assignment = occupied_assignment(rng, n, c)
        V = indicator_weights(assignment, c)
        assert V.shape == (c, n)
        assert np.max(np.abs(V.sum(axis=1) - 1.0)) <= 1e-12
        for j in range(c):
            np.testing.assert_array_equal(np.flatnonzero(V[j]), np.flatnonzero(assignment == j))

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_medoid_rows_are_basis_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        R = from_features(rng.standard_normal((n, 2)))
        c = int(rng.integers(1, n + 1))
        assignment = occupied_assignment(rng, n, c)
        V = medoid_prototypes(R, assignment, c)
        expected = np.zeros((c, n))
        for j in range(c):
            expected[j, nearest_medoid(R, np.flatnonzero(assignment == j))] = 1.0
        np.testing.assert_array_equal(V, expected)


class TestNearestMedoid:
    def test_three_point_whole_set(self, three_point_R):
        # row sums 2, 3, 3: the right-angle corner wins
        assert nearest_medoid(three_point_R, {0, 1, 2}) == 0

    def test_singleton(self, three_point_R):
        assert nearest_medoid(three_point_R, {1}) == 1

    def test_tie_breaks_to_smaller_index(self, three_point_R):
        assert nearest_medoid(three_point_R, {1, 2}) == 1

    def test_empty_set(self, three_point_R):
        with pytest.raises(EmptySetError):
            nearest_medoid(three_point_R, set())
