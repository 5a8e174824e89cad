"""Adjacency-matrix construction, validation, and file round trips."""

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relrbf import (
    AdjacencyMatrix,
    from_features,
    read_adjacency,
    sqrt_triangle_ok,
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
)
from relrbf.graph import _BLOCK, double_centered


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


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while `fn` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestAdjacencyMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            AdjacencyMatrix(np.zeros((2, 3)))

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

    def test_constructor_holds_one_buffer(self):
        n = 400
        a = from_features(np.random.default_rng(0).standard_normal((n, 5))).values.copy()
        assert traced_peak(lambda: AdjacencyMatrix(a)) <= 1.2 * n * n * 8


class TestValidate:
    def test_three_point_realizable(self, three_points, three_point_R):
        report = validate(three_point_R)
        assert report.all_structural
        assert sqrt_triangle_ok(three_point_R)
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
        assert report.all_structural
        assert sqrt_triangle_ok(R)
        assert report.euclidean_embeddable

    def test_triangle_violation(self):
        # sqrt entries 3, 1, 1: 3 > 1 + 1
        R = AdjacencyMatrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        report = validate(R)
        assert not sqrt_triangle_ok(R)
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

    def test_raw_array_input(self):
        report = validate(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert not report.is_symmetric

    def test_pure(self, three_point_R):
        assert validate(three_point_R) == validate(three_point_R)

    @settings(max_examples=200, deadline=None)
    @given(
        near_symmetric(),
        st.sampled_from(["as_is", "asymmetric", "negative", "diagonal"]),
    )
    def test_spectrum_bitwise_matches_old_path(self, a, defect):
        if defect == "asymmetric":
            a[0, -1] += 0.5
        elif defect == "negative":
            a[-1, 0] = a[0, -1] = -0.25
        elif defect == "diagonal":
            a[0, 0] = 1e-3
        before = a.copy()
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            seen.append(m.copy())
            return eigvalsh(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", spy)
            report = validate(a)
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
        R = from_features(np.random.default_rng(1).standard_normal((n, 5)))
        assert traced_peak(lambda: validate(R)) <= 1.2 * n * n * 8


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
        assert traced_peak(lambda: R.power(1.5)) <= 1.2 * n * n * 8


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

    def test_standardize_drops_constant_column(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(UserWarning, match="zero-variance"):
            R = from_features(X, standardize=True)
        # remaining column standardized: distances of (-1.22.., 0, 1.22..)
        z = (X[:, 0] - X[:, 0].mean()) / X[:, 0].std()
        expected = (z[:, None] - z[None, :]) ** 2
        np.testing.assert_allclose(R.values, expected, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
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
        report = validate(from_features(X))
        assert report.all_structural and report.euclidean_embeddable
        eigs = np.linalg.eigvalsh(double_centered(from_features(X).values))
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


class TestFileRoundTrip:
    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 4))
        R = from_features(X)
        path = tmp_path / "adj.csv"
        write_adjacency(R, path)
        back = read_adjacency(path)
        assert np.array_equal(back.values, R.values)

    def test_three_point_csv(self, tmp_path, three_point_R):
        path = tmp_path / "r3.csv"
        write_adjacency(three_point_R, path)
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

    def test_checks_without_extra_copies(self, tmp_path):
        # the parsed table and the constructor's symmetrizing buffer: the
        # structural checks run once, in the constructor
        n = 400
        path = tmp_path / "adj.csv"
        write_adjacency(from_features(np.random.default_rng(0).standard_normal((n, 5))), path)
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


class TestReadFeatures:
    def test_reads_with_comment_header(self, tmp_path):
        from relrbf.graph import read_features

        path = tmp_path / "features.csv"
        path.write_text("# x,y\n0,0\n1,0\n0,1\n")
        fm = read_features(path)
        assert fm.n == 3 and fm.d == 2
        np.testing.assert_array_equal(fm.values, [[0, 0], [1, 0], [0, 1]])

    def test_malformed_features(self, tmp_path):
        from relrbf.graph import read_features

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            read_features(path)
