"""Adjacency-matrix construction, validation, and file round trips."""

import io
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relrbf import (
    AdjacencyMatrix,
    from_features,
    minimax_distances,
    read_adjacency,
    validate,
    write_adjacency,
)
from relrbf.errors import (
    AsymmetryError,
    NegativeEntryError,
    NonFiniteError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    TooFewSamplesError,
)
import relrbf.graph
from relrbf.graph import (
    _BLOCK,
    _LANCZOS_STEPS,
    PSD_TOL,
    RealizabilityReport,
    double_centered,
    save_npy,
)

from conftest import BAD_NPY, save_bad_npy, traced_peak


def double_centered_old(a):
    """The pre-buffer expression for -J A J / 2, kept as the bitwise oracle."""
    row_mean = a.mean(axis=1, keepdims=True)
    col_mean = a.mean(axis=0, keepdims=True)
    return -0.5 * (a - row_mean - col_mean + a.mean())


@st.composite
def near_symmetric(draw, max_n=12):
    """Non-negative zero-diagonal matrices with entrywise asymmetry below 1e-12."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    a = rng.random((n, n)) * scale
    a = (a + a.T) / 2.0
    a += np.triu(rng.uniform(0.0, 8e-13, (n, n)), 1)
    np.fill_diagonal(a, 0.0)
    return a


def sequential_sqeuclidean(x):
    """Pure-Python oracle: every entry summed feature by feature from +0.0."""
    rows = np.asarray(x, dtype=float).tolist()
    r = np.empty((len(rows), len(rows)))
    for p, a in enumerate(rows):
        for q, b in enumerate(rows):
            s = 0.0
            for u, v in zip(a, b):
                d = u - v
                s += d * d
            r[p, q] = s
    return r


@st.composite
def scaled_features(draw):
    """Feature matrices around the kernel's block edges, one scale per
    feature from 1e-150 to 1e150, with some rows duplicated."""
    n = draw(st.sampled_from([2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    d = draw(st.sampled_from([0, 1, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.integers(-150, 150), min_size=d, max_size=d))
    x = rng.standard_normal((n, d)) * 10.0 ** np.array(exponents, dtype=float)
    copies = draw(st.integers(0, n // 2))
    x[rng.integers(0, n, copies)] = x[rng.integers(0, n, copies)]
    return x


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestAdjacencyMatrix:
    # a graph has at least one node
    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)], ids=["2x3", "0x0"])
    def test_rejects_non_square(self, shape):
        with pytest.raises(NonSquareError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            AdjacencyMatrix(np.zeros(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            AdjacencyMatrix([[0, np.nan], [np.nan, 0]])

    def test_rejects_entries_that_overflow_when_symmetrized(self):
        with pytest.raises(NonFiniteError):
            AdjacencyMatrix([[0, 1e308], [1e308, 0]])

    def test_rejects_asymmetry(self):
        with pytest.raises(AsymmetryError):
            AdjacencyMatrix([[0, 1], [2, 0]])

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
        R = AdjacencyMatrix(a)
        assert R.values[0, 1] == R.values[1, 0]

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            AdjacencyMatrix([[0, -1], [-1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError):
            AdjacencyMatrix([[1.0, 0], [0, 0]])

    def test_values_read_only(self, three_point_R):
        with pytest.raises(ValueError):
            three_point_R.values[0, 1] = 5.0

    def test_rejects_asymmetry_just_above_tolerance(self):
        a = np.array([[0.0, 1.0], [1.0 + 2e-12, 0.0]])
        with pytest.raises(AsymmetryError):
            AdjacencyMatrix(a)

    @settings(max_examples=200, deadline=None)
    @given(near_symmetric())
    def test_values_bitwise_match_old_symmetrization(self, a):
        before = a.copy()
        expected = (a + a.T) / 2.0
        np.fill_diagonal(expected, 0.0)
        assert bits(AdjacencyMatrix(a).values) == bits(expected)
        assert bits(a) == bits(before)

    def test_unpickled_values_stay_read_only(self, three_point_R):
        R = pickle.loads(pickle.dumps(three_point_R))
        assert bits(R.values) == bits(three_point_R.values)
        with pytest.raises(ValueError):
            R.values[0, 1] = 5.0

    def test_equality_and_hash_are_identity(self):
        # two graphs with one set of entries are two graphs, and comparing
        # them never compares arrays
        R, other = AdjacencyMatrix([[0, 1], [1, 0]]), AdjacencyMatrix([[0, 1], [1, 0]])
        assert R == R and R != other
        assert hash(R) != hash(other) and {R: 1}[R] == 1
        assert R in [other, R] and R not in [other]

    def test_constructor_holds_one_buffer(self):
        n = 400
        a = from_features(np.random.default_rng(0).standard_normal((n, 5))).values.copy()
        assert traced_peak(lambda: AdjacencyMatrix(a)) <= 1.2 * n * n * 8


class TestValidate:
    def test_three_point_realizable(self, three_points, three_point_R):
        report = validate(three_point_R)
        assert report.euclidean_embeddable
        # independent oracle: eigenvalues of the centered Gram built from the
        # known coordinates must match the report's spectrum bound
        Xc = three_points - three_points.mean(axis=0)
        gram_eigs = np.linalg.eigvalsh(Xc @ Xc.T)
        assert report.min_eigenvalue >= -1e-12
        assert np.isclose(
            np.linalg.eigvalsh(double_centered(three_point_R.values)).max(),
            gram_eigs.max(),
        )

    def test_zero_matrix_all_flags(self):
        R = AdjacencyMatrix(np.zeros((3, 3)))
        report = validate(R)
        assert report.min_eigenvalue == 0.0
        assert report.euclidean_embeddable

    def test_triangle_violation(self):
        # sqrt entries 3, 1, 1: 3 > 1 + 1
        R = AdjacencyMatrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        report = validate(R)
        # triple enumeration oracle
        s = np.sqrt(R.values)
        violated = any(
            s[i, k] > s[i, j] + s[j, k] + 1e-12
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        assert violated
        # eigen oracle: double-centered form must be indefinite
        assert np.linalg.eigvalsh(double_centered(R.values)).min() < -1e-8
        assert not report.euclidean_embeddable

    def test_pure(self, three_point_R):
        assert validate(three_point_R) == validate(three_point_R)

    @settings(max_examples=200, deadline=None)
    @given(
        near_symmetric(),
        st.sampled_from(["constructed", "submatrix", "power", "minimax", "features"]),
    )
    def test_spectrum_bitwise_matches_old_path(self, a, derivation):
        # the old path symmetrized its input first; every AdjacencyMatrix,
        # built or derived, is exactly symmetric, so that step changed no bit
        R = AdjacencyMatrix(a)
        if derivation == "submatrix":
            R = R.submatrix(np.arange(R.n)[::-2])
        elif derivation == "power":
            R = R.power(1.5)
        elif derivation == "minimax":
            R = minimax_distances(R)
        elif derivation == "features":
            # without its features, which would answer with no spectrum
            R = AdjacencyMatrix(from_features(np.vstack([a, a[:1] + 1.0])).values)
        a = R.values
        before = a.copy()
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            seen.append(m.copy())
            return eigvalsh(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", spy)
            report = validate(R)
        old_input = double_centered_old((a + a.T) / 2)
        assert len(seen) == 1 and bits(seen[0]) == bits(old_input)
        assert report.min_eigenvalue == float(eigvalsh(old_input).min())
        assert bits(a) == bits(before)

    @settings(max_examples=100, deadline=None)
    @given(near_symmetric())
    def test_double_centered_bitwise_and_pure(self, a):
        before = a.copy()
        assert bits(double_centered(a)) == bits(double_centered_old(a))
        assert bits(double_centered(a.T)) == bits(double_centered_old(a.T))
        assert bits(a) == bits(before)

    def test_holds_one_buffer(self):
        n = 400
        X = np.random.default_rng(1).standard_normal((n, 5))
        R = AdjacencyMatrix(from_features(X).values)
        assert traced_peak(lambda: validate(R)) <= 1.2 * n * n * 8


def eigvalsh_verdict(R):
    """The full-spectrum test, written out: (embeddable, min eigenvalue)."""
    eigvals = np.linalg.eigvalsh(double_centered(R.values))
    return bool(eigvals.min() >= -PSD_TOL * np.abs(eigvals).max()), float(eigvals.min())


def refuse(*args):
    raise AssertionError("no spectrum should be computed")


class TestRealizabilityRoutes:
    """The three routes of `validate`: features, a Lanczos certificate above
    the cut-off, and the full spectrum otherwise."""

    CUT = 4 * _LANCZOS_STEPS

    def test_features_need_no_spectrum(self, monkeypatch):
        X = np.random.default_rng(0).standard_normal((self.CUT + 5, 3))
        R = from_features(X)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(relrbf.graph, "_certified_min_eigenvalue", refuse)
        assert validate(R) == RealizabilityReport(True, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(CUT + 1, CUT + 60),
        dim=st.integers(1, 40),
        power=st.sampled_from([0.5, 1.0, 1.01, 1.5, 2.0, 3.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_matches_full_spectrum(self, n, dim, power, scale, seed):
        # powers <= 1 of a feature graph are realizable (Schoenberg), and at
        # power 1 every graph here has rank <= 40 < n: read without its
        # features, the Krylov space runs out, which must never certify it
        X = np.random.default_rng(seed).standard_normal((n, dim)) * scale
        R = AdjacencyMatrix(from_features(X, power).values)
        report = validate(R)
        embeddable, min_eig = eigvalsh_verdict(R)
        assert report.euclidean_embeddable == embeddable
        assert embeddable or power > 1.0
        assert f"{report.min_eigenvalue:.6e}" == f"{min_eig:.6e}"
        assert validate(R) == report

    @pytest.mark.parametrize("dim, power", [(5, 1.5), (30, 1.02), (2, 3.0)])
    def test_certificate_needs_no_full_spectrum(self, monkeypatch, dim, power):
        # at powers 1.02 and 3 the first Rayleigh quotients are positive
        X = np.random.default_rng(4).standard_normal((600, dim))
        R = from_features(X, power)
        embeddable, min_eig = eigvalsh_verdict(R)
        assert not embeddable
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        report = validate(R)
        assert not report.euclidean_embeddable
        assert f"{report.min_eigenvalue:.6e}" == f"{min_eig:.6e}"
        # a Rayleigh quotient bounds the smallest eigenvalue from above
        assert report.min_eigenvalue >= min_eig - 1e-9 * abs(min_eig)

    def test_converged_positive_eigenvalue_is_no_certificate(self):
        # -JRJ/2 has the eigenvalues 0 (on 1), 1 and 100 to 200: the lowest
        # Ritz value converges to 1, which ends the search without a
        # certificate, and the full spectrum finds the graph embeddable
        n = self.CUT + 10
        rng = np.random.default_rng(9)
        ones_and_noise = np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))])
        basis = np.linalg.qr(ones_and_noise)[0][:, 1:]
        X = basis * np.sqrt(np.concatenate([[1.0], np.linspace(100.0, 200.0, n - 2)]))
        R = AdjacencyMatrix(from_features(X).values)
        assert relrbf.graph._certified_min_eigenvalue(R.values) is None
        assert validate(R) == RealizabilityReport(*eigvalsh_verdict(R))
        assert validate(R).euclidean_embeddable

    def test_certificate_forms_no_n_by_n_matrix(self):
        n = 1000
        R = from_features(np.random.default_rng(5).standard_normal((n, 5)), 1.5)
        assert traced_peak(lambda: validate(R)) <= 0.25 * n * n * 8
        assert not validate(R).euclidean_embeddable

    def test_small_graphs_take_the_full_spectrum(self, monkeypatch):
        R = from_features(np.random.default_rng(6).standard_normal((self.CUT, 5)), 1.5)
        monkeypatch.setattr(relrbf.graph, "_certified_min_eigenvalue", refuse)
        assert validate(R) == RealizabilityReport(*eigvalsh_verdict(R))


class TestDerivedGraphs:
    """`submatrix` and `power` skip the constructor's checks and copies; the
    constructor applied to the same arrays is the bitwise oracle."""

    @staticmethod
    def graph(seed, n=60, scale=1.0):
        rng = np.random.default_rng(seed)
        R = from_features(rng.standard_normal((n, 4)) * scale)
        return R, rng

    @pytest.mark.parametrize("seed", range(5))
    def test_submatrix_bitwise_matches_constructor(self, seed):
        R, rng = self.graph(seed)
        for size in (1, 2, 17, 60):
            idx = rng.permutation(R.n)[:size]
            sub = R.submatrix(idx)
            assert bits(sub.values) == bits(AdjacencyMatrix(R.values[np.ix_(idx, idx)]).values)
            assert not sub.values.flags.writeable
        assert R.submatrix(np.array([], dtype=int)).n == 0

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
    def test_power_bitwise_matches_constructor(self, p):
        for seed, scale in ((0, 1.0), (1, 1e-3), (2, 1e3)):
            R, _ = self.graph(seed, scale=scale)
            powered = R.power(p)
            assert bits(powered.values) == bits(AdjacencyMatrix(R.values**p).values)
            assert not powered.values.flags.writeable

    def test_power_rejects_nonpositive(self):
        R, _ = self.graph(0, n=5)
        for p in (0.0, -1.5):
            with pytest.raises(ValueError):
                R.power(p)

    def test_power_overflow_is_non_finite(self):
        R = AdjacencyMatrix([[0.0, 1e200], [1e200, 0.0]])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            R.power(2.0)

    def test_power_holds_one_buffer(self):
        n = 400
        R, _ = self.graph(3, n=n)
        R.values  # a feature graph computes its entries on first read
        assert traced_peak(lambda: R.power(1.5)) <= 1.2 * n * n * 8

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_features_power_in_place(self, p):
        # from_features raises its own fresh buffer to the power: bitwise
        # the powered copy, in one n x n buffer
        n = 400
        X = np.random.default_rng(7).standard_normal((n, 5))
        powered = from_features(X, p)
        assert bits(powered.values) == bits(from_features(X).power(p).values)
        assert bits(powered.values) == bits(AdjacencyMatrix(from_features(X).values ** p).values)
        assert not powered.values.flags.writeable
        assert traced_peak(lambda: from_features(X, p)) <= 1.2 * n * n * 8

    def test_features_power_checks(self):
        X = np.array([[0.0], [1e100]])
        with pytest.raises(ValueError):
            from_features(X, 0.0)
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            from_features(X, 2.0)


class TestFromFeatures:
    def test_three_point_values(self, three_points):
        R = from_features(three_points)
        assert R.values[0, 1] == pytest.approx(1.0)
        assert R.values[0, 2] == pytest.approx(1.0)
        assert R.values[1, 2] == pytest.approx(2.0)

    def test_identical_rows_zero_matrix(self):
        X = np.ones((4, 3))
        assert np.all(from_features(X).values == 0)

    def test_single_feature(self):
        R = from_features(np.array([[0.0], [2.0]]))
        assert R.values[0, 1] == pytest.approx(4.0)

    def test_rejects_three_dimensional_array(self):
        with pytest.raises(NonSquareError, match="ndim=3"):
            from_features(np.zeros((3, 2, 2)))

    def test_needs_two_rows(self):
        with pytest.raises(TooFewSamplesError):
            from_features(np.array([[1.0, 2.0]]))

    @settings(max_examples=60, deadline=None)
    @given(scaled_features())
    def test_bitwise_sequential_sum(self, x):
        # the oracle is exactly symmetric with +0.0 wherever two rows are
        # equal, the diagonal included; bits() compares signs too
        R = from_features(x)
        assert bits(R.values) == bits(sequential_sqeuclidean(x))
        same = np.all(x[:, None, :] == x[None, :, :], axis=2)
        assert np.all(R.values[same] == 0.0) and not np.any(np.signbit(R.values[same]))
        assert not R.values.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=7),
            elements=st.floats(-1e150, 1e150, allow_nan=False),
        )
    )
    def test_bitwise_sequential_sum_on_drawn_floats(self, x):
        # zeros of both signs, subnormals and repeated values
        assert bits(from_features(x).values) == bits(sequential_sqeuclidean(x))

    @pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 300])
    @pytest.mark.parametrize("d", [0, 1, 30])
    def test_bitwise_equal_to_cdist(self, n, d):
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(n * 31 + d)
        x = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, d)
        assert bits(from_features(x).values) == bits(distance.cdist(x, x, "sqeuclidean"))

    def test_overflow_boundary_matches_constructor(self):
        # consecutive floats around the largest squared distance whose
        # doubling is finite, on one and on two features, plus one whose
        # square overflows: from_features raises exactly where the validating
        # constructor rejects cdist's matrix, and warns nowhere
        distance = pytest.importorskip("scipy.spatial.distance")
        edge = float(np.sqrt(np.finfo(float).max / 2.0))
        values = [edge]
        for _ in range(4):
            values = [np.nextafter(values[0], 0.0), *values, np.nextafter(values[-1], np.inf)]
        for width in (1, 2):
            outcomes = []
            for v in [*values, 1e200]:
                x = np.array([[0.0] * width, [v / np.sqrt(width)] * width])
                try:
                    AdjacencyMatrix(distance.cdist(x, x, "sqeuclidean"))
                    rejected = False
                except NonFiniteError:
                    rejected = True
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if rejected:
                        with pytest.raises(NonFiniteError, match="non-finite entries"):
                            from_features(x)
                    else:
                        assert np.isfinite(2.0 * from_features(x).values.max())
                outcomes.append(rejected)
            # accepted up to the boundary, rejected beyond it, and the
            # boundary lies inside the nine consecutive floats
            assert not outcomes[0] and outcomes[len(values) - 1]
            assert outcomes == sorted(outcomes)

    def test_holds_one_matrix(self):
        n = 400
        X = np.random.default_rng(2).standard_normal((n, 5))
        assert traced_peak(lambda: from_features(X)) <= 1.2 * n * n * 8

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_always_realizable(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(1, 6))))
        values = from_features(X).values
        report = validate(AdjacencyMatrix(values))
        assert report.euclidean_embeddable
        eigs = np.linalg.eigvalsh(double_centered(values))
        assert report.min_eigenvalue >= -1e-10 * max(1.0, np.abs(eigs).max())

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 3))
        perm = rng.permutation(8)
        R = from_features(X).values
        R_perm = from_features(X[perm]).values
        np.testing.assert_allclose(R_perm, R[np.ix_(perm, perm)], atol=1e-12)


def savetxt(R, path):
    np.savetxt(path, R.values, delimiter=",", fmt="%.17g")


def npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def npz_bytes(a):
    buf = io.BytesIO()
    np.savez(buf, a=a)
    return buf.getvalue()


class TestFeatures:
    """A graph built from features at power 1 carries them; no other does."""

    @pytest.mark.parametrize("shape", [(12, 3), (12,)], ids=["2-d", "1-d"])
    def test_a_read_only_copy_of_the_input(self, shape):
        X = np.random.default_rng(3).standard_normal(shape)
        R = from_features(X)
        assert R.features.shape == (12, X.size // 12)
        assert not np.shares_memory(R.features, X)
        assert np.array_equal(R.features.ravel(), X.ravel())
        with pytest.raises(ValueError):
            R.features[0, 0] = 1.0
        X[0] = X[0]  # the caller's array stays writable

    @pytest.mark.parametrize("read", ["before", "after"])
    def test_entries_fixed_at_construction(self, read):
        # whether the entries are computed before or after the caller writes
        # to its array, they and the features are those of the array passed
        X = np.random.default_rng(4).standard_normal((30, 3))
        expected = bits(from_features(X.copy()).values)
        features = bits(X)
        R = from_features(X)
        if read == "before":
            R.values
        X *= 2.0
        assert bits(R.values) == expected and bits(R.features) == features
        assert validate(R).euclidean_embeddable

    def test_entries_computed_on_first_read(self, monkeypatch):
        builds = []
        real = relrbf.graph._sqeuclidean
        monkeypatch.setattr(relrbf.graph, "_sqeuclidean", lambda x: builds.append(x) or real(x))
        X = np.random.default_rng(5).standard_normal((20, 3))
        R = from_features(X)
        assert R.n == 20 and validate(R).euclidean_embeddable and builds == []
        lazy = pickle.loads(pickle.dumps(R))
        first = R.values
        assert R.values is first and len(builds) == 1 and not first.flags.writeable
        # the unpickled graph computes its own entries, the same bits
        assert bits(lazy.values) == bits(first) and len(builds) == 2
        assert bits(pickle.loads(pickle.dumps(R)).values) == bits(first) and len(builds) == 2
        for power in (1.5, 2.0):
            from_features(X, power)
        assert len(builds) == 4

    @pytest.mark.parametrize("scale, eager", [(1e100, False), (8e153, True)])
    def test_entries_that_might_overflow_are_computed_at_once(self, monkeypatch, scale, eager):
        # two feature ranges whose squares sum past half the largest float:
        # the entries are computed and checked in the constructor.  No two
        # points here differ by both ranges, so the largest entry is one
        # squared range, and the graph is accepted.
        builds = []
        real = relrbf.graph._sqeuclidean
        monkeypatch.setattr(relrbf.graph, "_sqeuclidean", lambda x: builds.append(x) or real(x))
        half = scale / 2.0
        X = np.array([[0.0, half], [scale, half], [half, 0.0], [half, scale]])
        R = from_features(X)
        assert len(builds) == eager
        assert R.values.max() == scale * scale and len(builds) == 1

    def test_unpickled_features_stay_read_only(self):
        R = from_features(np.random.default_rng(3).standard_normal((12, 3)))
        back = pickle.loads(pickle.dumps(R))
        assert bits(back.features) == bits(R.features)
        with pytest.raises(ValueError):
            back.features[0, 0] = 1.0
        assert pickle.loads(pickle.dumps(back.power(2.0))).features is None

    def test_no_other_graph_has_features(self, tmp_path):
        R = from_features(np.random.default_rng(3).standard_normal((12, 3)))
        write_adjacency(R, tmp_path / "R.npy")
        others = {
            "power": R.power(1.0),
            "built with a power": from_features(R.features, 1.5),
            "submatrix": R.submatrix(np.arange(12)),
            "read": read_adjacency(tmp_path / "R.npy"),
            "constructor": AdjacencyMatrix(R.values),
            "minimax": minimax_distances(R),
        }
        assert {name: G.features for name, G in others.items()} == dict.fromkeys(others)


class TestFileRoundTrip:
    def test_write_read_exact(self, tmp_path):
        # .npy holds the graph's bits; reading it back rebuilds the graph
        # the checkpoints' graph_sha256 was taken of
        from relrbf.cli import graph_digest

        rng = np.random.default_rng(3)
        R = from_features(rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-5, 5, 4))
        path = tmp_path / "adj.npy"
        write_adjacency(R, path)
        assert [p.name for p in tmp_path.iterdir()] == ["adj.npy"]
        back = read_adjacency(path)
        assert bits(back.values) == bits(R.values)
        assert graph_digest(back) == graph_digest(R)

    def test_csv_read_exact(self, tmp_path):
        R = from_features(np.random.default_rng(3).standard_normal((7, 4)))
        path = tmp_path / "adj.csv"
        savetxt(R, path)
        assert bits(read_adjacency(path).values) == bits(R.values)

    def test_three_point_csv(self, tmp_path, three_point_R):
        path = tmp_path / "r3.csv"
        savetxt(three_point_R, path)
        assert read_adjacency(path).n == 3

    def test_asymmetric_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2,0\n")
        with pytest.raises(AsymmetryError):
            read_adjacency(path)

    def test_negative_csv_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,-1\n-1,0\n")
        with pytest.raises(NegativeEntryError):
            read_adjacency(path)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("0,1\n2,0\n", AsymmetryError),
            ("0,-1\n-1,0\n", NegativeEntryError),
            ("1,1\n1,0\n", NonzeroDiagonalError),
        ],
    )
    def test_errors_name_the_path(self, tmp_path, text, error):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error) as excinfo:
            read_adjacency(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", BAD_NPY)
    def test_bad_npy_errors_name_the_path(self, tmp_path, name):
        path = tmp_path / f"{name}.npy"
        save_bad_npy(name, path)
        with pytest.raises(BAD_NPY[name][1]) as excinfo:
            read_adjacency(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "contents",
        [
            lambda a: b"",
            lambda a: npy_bytes(a)[:200],
            lambda a: npz_bytes(a),
        ],
        ids=["empty", "truncated", "npz"],
    )
    def test_unreadable_npy_is_parse_error_naming_the_path(self, tmp_path, contents):
        path = tmp_path / "adj.npy"
        path.write_bytes(contents(from_features(np.eye(6)).values))
        with pytest.raises(ParseError) as excinfo:
            read_adjacency(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "layout", [lambda a: a.astype(">f8"), np.asfortranarray], ids=["big-endian", "fortran"]
    )
    def test_npy_byte_order_and_layout_read_to_the_same_graph(self, tmp_path, layout):
        from relrbf.cli import graph_digest

        R = from_features(np.random.default_rng(5).standard_normal((6, 3)))
        path = tmp_path / "adj.npy"
        path.write_bytes(npy_bytes(layout(R.values)))
        back = read_adjacency(path)
        assert bits(back.values) == bits(R.values)
        assert graph_digest(back) == graph_digest(R)

    @pytest.mark.parametrize("name", ["adj", "adj.csv", "adj.npy"])
    def test_save_npy_writes_at_the_given_path(self, tmp_path, name):
        # np.save given a name appends .npy to one without that suffix
        a = np.random.default_rng(2).standard_normal((3, 4))
        save_npy(a, tmp_path / name)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert bits(np.load(tmp_path / name, allow_pickle=False)) == bits(a)

    def test_integer_npy_reads_as_float(self, tmp_path):
        path = tmp_path / "int.npy"
        np.save(path, np.array([[0, 2], [2, 0]]))
        assert read_adjacency(path).values.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    @pytest.mark.parametrize("suffix", [".csv", ".npy"])
    def test_checks_without_extra_copies(self, tmp_path, suffix):
        # the read table and the constructor's symmetrizing buffer: the
        # structural checks run once, in the constructor
        n = 400
        path = tmp_path / f"adj{suffix}"
        R = from_features(np.random.default_rng(0).standard_normal((n, 5)))
        (savetxt if suffix == ".csv" else write_adjacency)(R, path)
        assert traced_peak(lambda: read_adjacency(path)) <= 2.2 * n * n * 8

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("0,1\nnot,numbers\n")
        with pytest.raises(ParseError):
            read_adjacency(path)

    def test_non_square_csv(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(ParseError):
            read_adjacency(path)

