"""Spectral embeddings and cluster-tendency reorderings."""

import numpy as np
import pytest

from relrbf import AdjacencyMatrix, cmds, from_features, ivat, minimax_distances, pmds, vat
from relrbf.graph import double_centered
from relrbf.transforms import write_embedding_csv, write_pgm, write_vat_csv


def floyd_warshall_minimax(R):
    """Oracle: minimax path distances by Floyd-Warshall over every pivot."""
    m = R.values.copy()
    for k in range(R.n):
        np.minimum(m, np.maximum.outer(m[:, k], m[k, :]), out=m)
    np.fill_diagonal(m, 0.0)
    return m


def random_graphs(count=400, max_n=40, seed=11):
    """Random complete graphs, n in 1..max_n; odd draws take integer weights
    in 0..3, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, max_n + 1))
        w = rng.integers(0, 4, (n, n)).astype(float) if i % 2 else rng.random((n, n))
        w = np.triu(w, 1)
        yield AdjacencyMatrix(w + w.T)


def block_matrix(low=1.0, high=9.0):
    a = np.full((6, 6), high)
    a[:3, :3] = low
    a[3:, 3:] = low
    np.fill_diagonal(a, 0.0)
    return AdjacencyMatrix(a)


class TestCmds:
    def test_round_trip_realizable(self, three_point_R):
        emb = cmds(three_point_R)
        back = from_features(emb.X)
        assert np.max(np.abs(back.values - three_point_R.values)) <= 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        R = from_features(rng.standard_normal((15, 4)))
        back = from_features(cmds(R).X)
        assert np.max(np.abs(back.values - R.values)) <= 1e-8 * R.values.max()

    def test_zero_matrix_zero_dims(self):
        emb = cmds(AdjacencyMatrix(np.zeros((4, 4))))
        assert emb.d_prime == 0
        assert emb.X.shape == (4, 0)

    def test_nonrealizable_matrix_is_altered(self, nonrealizable_R):
        # eigen oracle: indefinite double-centered form means lossy projection
        eigs = np.linalg.eigvalsh(double_centered(nonrealizable_R.values))
        assert eigs.min() < -1e-6
        back = from_features(cmds(nonrealizable_R).X)
        assert np.max(np.abs(back.values - nonrealizable_R.values)) > 1e-6

    def test_eigenvalues_descending(self, three_point_R):
        emb = cmds(three_point_R)
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)

    def test_deterministic_orientation(self, three_point_R):
        a = cmds(three_point_R)
        b = cmds(three_point_R)
        np.testing.assert_array_equal(a.X, b.X)
        for k in range(a.X.shape[1]):
            col = a.X[:, k]
            assert col[np.argmax(np.abs(col))] > 0


class TestPmds:
    def test_equals_cmds_when_realizable(self, three_point_R):
        np.testing.assert_allclose(
            pmds(three_point_R).X.shape, cmds(three_point_R).X.shape
        )
        np.testing.assert_allclose(
            from_features(pmds(three_point_R).X).values,
            from_features(cmds(three_point_R).X).values,
            atol=1e-10,
        )

    def test_zero_matrix(self):
        emb = pmds(AdjacencyMatrix(np.zeros((4, 4))))
        assert emb.d_prime == 0

    def test_spectrum_nonnegative_and_uniform_inflation(self, nonrealizable_R):
        eigs = np.linalg.eigvalsh(double_centered(nonrealizable_R.values))
        lam_min = eigs.min()
        assert lam_min < 0
        emb = pmds(nonrealizable_R)
        assert np.all(emb.eigenvalues >= -1e-10)
        back = from_features(emb.X)
        off = ~np.eye(4, dtype=bool)
        # every off-diagonal dissimilarity inflated by exactly 2 |lambda_min|
        np.testing.assert_allclose(
            back.values[off] - nonrealizable_R.values[off],
            2.0 * abs(lam_min),
            atol=1e-9,
        )
        # strictly larger than the classical projection's entries
        cm = from_features(cmds(nonrealizable_R).X)
        assert back.values[off].mean() > cm.values[off].mean()


class TestVat:
    def test_two_blocks_contiguous(self):
        order = vat(block_matrix())
        assert sorted(order.perm.tolist()) == list(range(6))
        first = sorted(order.perm[:3].tolist())
        assert first in ([0, 1, 2], [3, 4, 5])
        # reordered matrix keeps symmetry and the zero diagonal
        assert np.allclose(order.reordered, order.reordered.T)
        assert np.all(np.diagonal(order.reordered) == 0)

    def test_single_object(self):
        order = vat(AdjacencyMatrix(np.zeros((1, 1))))
        np.testing.assert_array_equal(order.perm, [0])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(5)
        R = from_features(rng.standard_normal((12, 3)))
        order = vat(R)
        np.testing.assert_allclose(
            order.reordered, R.values[np.ix_(order.perm, order.perm)]
        )


class TestIvat:
    def test_entries_never_exceed_original(self):
        rng = np.random.default_rng(8)
        R = from_features(rng.standard_normal((14, 3)))
        _, transformed = ivat(R)
        assert np.all(transformed.values <= R.values + 1e-12)

    def test_ultrametric_unchanged(self):
        R = block_matrix(low=1.0, high=4.0)
        np.testing.assert_array_equal(minimax_distances(R).values, R.values)

    def test_chain_collapses_to_bottleneck(self):
        # path graph 0-1-2 with a long direct edge: the 0..2 entry drops to
        # the largest edge on the two-hop path
        R = AdjacencyMatrix([[0, 1, 5], [1, 0, 2], [5, 2, 0]])
        m = minimax_distances(R)
        assert m.values[0, 2] == 2.0

    @pytest.mark.parametrize(
        "graphs",
        [
            lambda: random_graphs(),
            lambda: [block_matrix(), block_matrix(low=1.0, high=4.0)],
            lambda: [AdjacencyMatrix([[0, 1, 5], [1, 0, 2], [5, 2, 0]])],
        ],
        ids=["random", "block", "chain"],
    )
    def test_matches_floyd_warshall_bitwise(self, graphs):
        for R in graphs():
            expected = floyd_warshall_minimax(R)
            assert np.array_equal(minimax_distances(R).values, expected)
            order, _ = ivat(R)
            np.testing.assert_array_equal(order.perm, vat(AdjacencyMatrix(expected)).perm)

    def test_sharper_blocks(self):
        R = block_matrix()
        order, transformed = ivat(R)
        assert sorted(order.perm.tolist()) == list(range(6))
        vals = transformed.values
        within = vals[:3, :3][~np.eye(3, dtype=bool)]
        across = vals[:3, 3:]
        assert within.max() < across.min()


class TestWriters:
    def test_embedding_csv(self, tmp_path, three_point_R):
        emb = cmds(three_point_R)
        path = tmp_path / "emb.csv"
        write_embedding_csv(emb, path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(back, emb.X)

    def test_vat_csv(self, tmp_path):
        order = vat(block_matrix())
        write_vat_csv(order, tmp_path / "perm.csv", tmp_path / "mat.csv")
        perm = np.loadtxt(tmp_path / "perm.csv", delimiter=",", dtype=int)
        np.testing.assert_array_equal(perm, order.perm)

    def test_pgm_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(block_matrix().values, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "6 6"
        assert lines[2] == "255"
        pixels = np.array([[int(v) for v in ln.split()] for ln in lines[3:]])
        assert pixels.min() == 0 and pixels.max() == 255

    @pytest.mark.parametrize(
        "matrix",
        [np.random.default_rng(4).random((7, 5)) * 3.0, np.zeros((4, 4))],
        ids=["random", "zero"],
    )
    def test_pgm_bytes_match_per_pixel_writer(self, tmp_path, matrix):
        def per_pixel_pgm(m, path):
            top = m.max()
            pixels = np.zeros_like(m, dtype=int) if top <= 0 else np.rint(255 * m / top).astype(int)
            with open(path, "w") as fh:
                fh.write(f"P2\n{m.shape[1]} {m.shape[0]}\n255\n")
                for row in pixels:
                    fh.write(" ".join(str(int(v)) for v in row) + "\n")

        write_pgm(matrix, tmp_path / "new.pgm")
        per_pixel_pgm(matrix, tmp_path / "old.pgm")
        assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "old.pgm").read_bytes()
