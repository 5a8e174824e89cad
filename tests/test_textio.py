"""The vectorised %.17g formatter against Python's own formatting and against
whole-file np.savetxt bytes."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relrbf import textio
from relrbf.textio import write_csv


def csv_bytes(a) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.csv"
        write_csv(path, a)
        return path.read_bytes()


def per_value(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).ravel().tolist()).encode()


def savetxt_bytes(tmp_path, a) -> bytes:
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, a, delimiter=",", fmt="%.17g")
    return path.read_bytes()


def assert_lines_equal(got: bytes, want: bytes):
    if got != want:
        pairs = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        raise AssertionError(f"{len(pairs)} lines differ, first: {pairs[:5]}")


def neighbourhood(x: float, ulps: int) -> np.ndarray:
    """x and the `ulps` doubles on each side of it."""
    out = [np.float64(x)]
    for toward in (-np.inf, np.inf):
        y = np.float64(x)
        for _ in range(ulps):
            y = np.nextafter(y, toward)
            out.append(y)
    return np.array(out)


class TestPerValueOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60))
    def test_hypothesis_floats(self, values):
        a = np.array(values, dtype=float)
        assert_lines_equal(csv_bytes(a), per_value(a))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e-300, max_value=1e-300), min_size=1, max_size=30),
           st.lists(st.floats(min_value=1e250, max_value=1.7e308), min_size=1, max_size=30))
    def test_hypothesis_extreme_exponents(self, tiny, huge):
        a = np.array(tiny + huge + [-v for v in huge], dtype=float)
        assert_lines_equal(csv_bytes(a), per_value(a))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        a = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
        assert_lines_equal(csv_bytes(a), per_value(a))

    def test_scaled_normals_with_signed_zeros(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(200_000) * 10.0 ** rng.integers(-30, 30, 200_000)
        a[::97] = 0.0
        a[::89] = -0.0
        assert_lines_equal(csv_bytes(a), per_value(a))

    def test_powers_of_ten_and_neighbours(self):
        exact = [float(f"1e{k}") for k in range(-310, 309)]
        computed = [10.0**k for k in range(-308, 309)]
        p = np.array(exact + computed)
        a = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])
        assert_lines_equal(csv_bytes(a), per_value(a))

    @pytest.mark.parametrize("center", [1e-5, 1e-4, 1e16, 1e17, 2.0**53])
    def test_layout_boundaries(self, center):
        a = np.concatenate([neighbourhood(center, 500), neighbourhood(center, 3) * (1 + 2**-52)])
        assert_lines_equal(csv_bytes(a), per_value(a))
        assert_lines_equal(csv_bytes(-a), per_value(-a))

    def test_ties_follow_python(self):
        # exact ties at the 18th significant digit (value * 4 is an integer)
        a = np.array([2251799813685247.75, 2251799813685246.25, 1125899906842623.75, 0.5, 2.5])
        assert_lines_equal(csv_bytes(a), per_value(a))

    def test_forced_fallback_path(self, monkeypatch, tmp_path):
        # a guard this wide sends about 60% of the values to "%.17g" % x,
        # interleaved with vector-formatted ones, across several blocks
        monkeypatch.setattr(textio, "_HALF_GUARD", 0.3)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 1000)) * 1e3
        assert_lines_equal(csv_bytes(a[:, 0]), per_value(a[:, 0]))
        assert csv_bytes(a) == savetxt_bytes(tmp_path, a)


class TestSavetxtBytes:
    @pytest.mark.parametrize(
        "shape", [(3, 0), (0, 3), (0,), (7,), (1, 1), (1, 5), (5, 1), (40, 1000), (2, 20_000)]
    )
    def test_shapes_match_savetxt(self, tmp_path, shape):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(shape) * 50
        assert csv_bytes(a) == savetxt_bytes(tmp_path, a)

    def test_empty_shapes(self):
        assert csv_bytes(np.zeros((3, 0))) == b"\n\n\n"
        assert csv_bytes(np.zeros((0, 3))) == b""

    def test_one_value_per_line_for_1d(self):
        assert csv_bytes([1.5, -0.0, 1e-7]) == b"1.5\n-0\n9.9999999999999995e-08\n"

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", np.zeros((2, 2, 2)))

    def test_reads_back_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        a = np.abs(rng.standard_normal((30, 30))) ** 3
        path = tmp_path / "r.csv"
        write_csv(path, a)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), a)
