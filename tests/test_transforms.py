"""Spectral embeddings and cluster-tendency reorderings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relrbf.graph
from relrbf import AdjacencyMatrix, cmds, from_features, ivat, minimax_distances, pmds, vat
from relrbf.cli import apply_transform, main
from relrbf.datasets import synthetic_blobs
from relrbf.graph import _BLOCK, double_centered
from relrbf.transforms import (
    Embedding,
    VatOrder,
    pseudo_euclidean,
    write_eigenvalues_csv,
    write_embedding_csv,
    write_pgm,
    write_reordered,
    write_vat_csv,
)

from conftest import traced_peak


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


def forbidden_constructor(self):
    raise AssertionError("AdjacencyMatrix re-validated a derived matrix")


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


def feature_cases():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((30, 3))
    return {
        "d<n": rng.standard_normal((60, 4)),
        "d>=n": rng.standard_normal((12, 20)),
        "d=n": rng.standard_normal((15, 15)),
        "1-d": rng.standard_normal(25),
        "duplicated-column": np.column_stack([z, z[:, 1]]),
        "constant": np.full((10, 3), 2.5),
    }


class TestFeatureRoute:
    """Given the features of a graph, the spectrum is their thin SVD's."""

    @pytest.mark.parametrize("name", list(feature_cases()))
    def test_matches_the_full_spectrum(self, name):
        X = feature_cases()[name]
        R = from_features(X)
        full, thin = cmds(AdjacencyMatrix(R.values)), cmds(R)
        top = np.max(np.abs(full.eigenvalues))
        assert np.max(np.abs(thin.eigenvalues - full.eigenvalues)) <= 1e-12 * top
        assert thin.X.shape == full.X.shape
        rebuilt = np.abs(from_features(thin.X).values - from_features(full.X).values)
        assert np.max(rebuilt) <= 1e-12 * R.values.max()
        # the tail past min(n, d) is written as exact zeros, not roundoff
        d = 1 if X.ndim == 1 else X.shape[1]
        assert np.all(thin.eigenvalues[min(R.n, d):] == 0.0)

    def test_dimensions(self):
        cases = feature_cases()
        dims = {name: cmds(from_features(X)).X.shape[1] for name, X in cases.items()}
        assert dims == {
            "d<n": 4, "d>=n": 11, "d=n": 14, "1-d": 1, "duplicated-column": 3, "constant": 0,
        }

    @pytest.mark.parametrize("name", list(feature_cases()))
    def test_pmds_equals_cmds(self, name):
        X = feature_cases()[name]
        R = from_features(X)
        a, b = pmds(R), cmds(R)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_transform_of_a_feature_graph_takes_no_full_spectrum(
        self, tmp_path, monkeypatch
    ):
        # the read-back adjacency.npy of the same graph has no features, so
        # its transform still takes the n x n eigendecomposition
        n = 50
        blobs = {"n": n, "classes": 2, "sep": 4.0, "dim": 3, "seed": 2}
        config = tmp_path / "blobs.json"
        config.write_text(json.dumps({"dataset": {"kind": "synthetic-blobs", "blobs": blobs}}))
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "ingest")]) == 0
        read = tmp_path / "read.json"
        path = str(tmp_path / "ingest" / "adjacency.npy")
        read.write_text(json.dumps({"dataset": {"kind": "adjacency-csv", "path": path}}))
        shapes = []
        real = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        outputs = {}
        for name, cfg in (("features", config), ("read", read)):
            shapes.clear()
            out = tmp_path / name
            argv = ["transform", "--config", str(cfg), "--method", "cmds", "--out", str(out)]
            assert main(argv) == 0
            outputs[name] = np.load(out / "cmds_adjacency.npy")
            assert ((n, n) in shapes) is (name == "read")
        gap = np.max(np.abs(outputs["features"] - outputs["read"]))
        assert gap <= 1e-12 * outputs["read"].max()


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
        assert emb.X.shape == (4, 0)

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


    @pytest.mark.parametrize("n", [200, 400], ids=["full-spectrum", "lanczos"])
    def test_closed_form_shift_matches_round_trip(self, n, monkeypatch):
        # above 320 nodes validate certifies the smallest eigenvalue by Lanczos
        X0, _ = synthetic_blobs(n, classes=3, sep=3.0, dim=5, seed=6)
        R = from_features(X0, 1.5)
        expected = from_features(pmds(R).X).values
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        shifted = apply_transform(R, "pmds")
        assert bool(calls) is (n < 320)
        assert np.max(np.abs(shifted.values - expected)) <= 1e-12 * expected.max()
        off = ~np.eye(n, dtype=bool)
        assert np.all(shifted.values[off] > R.values[off])
        assert not np.diagonal(shifted.values).any()

    def test_closed_form_of_a_psd_graph_is_the_graph(self, three_points, three_point_R):
        # with its features or without them, and for cmds too
        for R in (from_features(three_points), three_point_R):
            for method in ("cmds", "pmds"):
                assert apply_transform(R, method) is R


class TestPseudoEuclidean:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 60),
        st.floats(0.5, 3.0),
        st.floats(0.5, 10.0),
        st.integers(0, 10_000),
    )
    def test_signed_distances_reproduce_powered_blobs(self, n, power, sep, seed):
        X0, _ = synthetic_blobs(n, classes=3, sep=sep, dim=4, seed=seed)
        R = from_features(X0, power)
        X, s = pseudo_euclidean(R)
        assert X.shape == (n, s.size) and set(s) <= {-1.0, 1.0}
        diff = X[:, None, :] - X[None, :, :]
        back = np.einsum("ijk,k->ij", diff**2, s)
        np.testing.assert_allclose(back, R.values, rtol=0, atol=1e-9 * R.values.max())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 10_000))
    def test_feature_graph_is_euclidean(self, n, seed):
        # at power 1 the realization is the classical one, every sign +1,
        # also by the full spectrum of the graph read without its features
        X0, _ = synthetic_blobs(n, classes=3, sep=4.0, dim=4, seed=seed)
        for R in (from_features(X0), AdjacencyMatrix(from_features(X0).values)):
            X, s = pseudo_euclidean(R)
            assert np.all(s == 1.0)
            np.testing.assert_array_equal(X, cmds(R).X)

    def test_nonrealizable_keeps_negative_spectrum(self, nonrealizable_R):
        X, s = pseudo_euclidean(nonrealizable_R)
        assert np.any(s < 0)
        diff = X[:, None, :] - X[None, :, :]
        back = np.einsum("ijk,k->ij", diff**2, s)
        np.testing.assert_allclose(back, nonrealizable_R.values, atol=1e-12)


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

    def test_holds_one_matrix(self):
        # the reordered matrix is the one n x n array a call allocates
        n = 1000
        R = from_features(np.random.default_rng(4).standard_normal((n, 3)))
        R.values  # a feature graph computes its entries on first read
        assert traced_peak(lambda: vat(R)) <= 1.2 * n * n * 8

    def test_walk_copies_no_matrix(self):
        # np.argmax copies a read-only array whole; the start row needs no copy
        n = 600
        R = from_features(np.random.default_rng(4).standard_normal((n, 3)))
        assert not R.values.flags.writeable
        assert traced_peak(lambda: relrbf.graph._prim(R.values)) <= 0.05 * n * n * 8

    def test_starts_at_first_row_holding_the_maximum(self):
        # the largest edge, 5, lies in rows 2, 3, 4, 5 and 6
        a = np.ones((7, 7))
        for i, j in ((4, 5), (2, 5), (3, 6)):
            a[i, j] = a[j, i] = 5.0
        np.fill_diagonal(a, 0.0)
        R = AdjacencyMatrix(a)
        assert relrbf.graph._prim(R.values)[0, 0] == 2
        assert vat(R).perm[0] == 2

    def test_walks_each_graph_once(self, monkeypatch):
        # vat and minimax_distances share the graph's one Prim walk; ivat
        # walks the minimax graph too
        walks = []
        real = relrbf.graph._prim
        monkeypatch.setattr(relrbf.graph, "_prim", lambda a: walks.append(a) or real(a))
        R = from_features(np.random.default_rng(6).standard_normal((30, 3)))
        order = vat(R)
        assert len(walks) == 1 and walks[0] is R.values
        assert np.array_equal(minimax_distances(R).values, floyd_warshall_minimax(R))
        iorder, transformed = ivat(R)
        assert len(walks) == 2 and walks[1] is transformed.values
        assert np.array_equal(vat(R).perm, order.perm)
        assert np.array_equal(vat(transformed).perm, iorder.perm)
        assert len(walks) == 2 and not R.spanning_tree.flags.writeable


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

    def test_result_is_the_validated_matrix(self, monkeypatch):
        # built without the constructor's checks, and bitwise what they give
        graphs = [*random_graphs(count=40), from_features(np.random.default_rng(9).random((400, 3)))]
        for R in graphs:
            with monkeypatch.context() as patched:
                patched.setattr(AdjacencyMatrix, "__post_init__", forbidden_constructor)
                m = minimax_distances(R)
            assert not m.values.flags.writeable
            assert m.values.tobytes() == AdjacencyMatrix(m.values.copy()).values.tobytes()

    def test_holds_one_matrix(self):
        # the minimax graph is the one n x n array a call allocates
        n = 600
        R = from_features(np.random.default_rng(4).standard_normal((n, 3)))
        R.spanning_tree  # the graph's entries and its walk are read first
        assert traced_peak(lambda: minimax_distances(R)) <= 1.2 * n * n * 8

    def test_sharper_blocks(self):
        R = block_matrix()
        order, transformed = ivat(R)
        assert sorted(order.perm.tolist()) == list(range(6))
        vals = transformed.values
        within = vals[:3, :3][~np.eye(3, dtype=bool)]
        across = vals[:3, 3:]
        assert within.max() < across.min()


class TestWriters:
    def test_embedding_npy(self, tmp_path, three_point_R):
        emb = cmds(three_point_R)
        path = tmp_path / "emb.npy"
        write_embedding_csv(emb, path)
        back = np.load(path, allow_pickle=False)
        assert back.dtype == emb.X.dtype and back.tobytes() == emb.X.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_eigenvalues_csv_reads_back_exactly(self, tmp_path_factory, values):
        # %.17g text: one value per line, parsed back to the same bits
        ev = np.array(values, dtype=float)
        path = tmp_path_factory.mktemp("ev") / "eigenvalues.csv"
        write_eigenvalues_csv(Embedding(X=np.zeros((len(ev), 1)), eigenvalues=ev), path)
        text = path.read_text()
        assert text.count("\n") == len(ev)
        assert np.loadtxt(path, ndmin=1).tobytes() == ev.tobytes()

    def test_vat_files(self, tmp_path):
        order = vat(block_matrix())
        write_vat_csv(order, tmp_path / "perm.csv", tmp_path / "mat.npy")
        perm = np.loadtxt(tmp_path / "perm.csv", delimiter=",", dtype=int)
        np.testing.assert_array_equal(perm, order.perm)
        assert np.load(tmp_path / "mat.npy").tobytes() == order.reordered.tobytes()

    @pytest.mark.parametrize(
        "n, graph",
        [
            (1, lambda x: AdjacencyMatrix(np.zeros((1, 1)))),
            (_BLOCK, from_features),
            (_BLOCK + 1, from_features),
            (7, lambda x: AdjacencyMatrix(np.zeros((7, 7)))),
            (2 * _BLOCK + 3, lambda x: minimax_distances(from_features(x))),
        ],
        ids=["1x1", "block", "block+1", "zero", "minimax"],
    )
    def test_reordered_files_match_materialized_writes(self, tmp_path, n, graph):
        # the row blocks give the bytes of the reordered matrix written whole,
        # by np.save (in write_vat_csv) and write_pgm
        rng = np.random.default_rng(n)
        R = graph(rng.standard_normal((n, 3)))
        perm = rng.permutation(n)
        out, ref = tmp_path / "out", tmp_path / "ref"
        out.mkdir()
        ref.mkdir()
        write_reordered(R, perm, out, "x")
        m = R.values[np.ix_(perm, perm)]
        write_vat_csv(VatOrder(perm, m), ref / "x_perm.csv", ref / "x_matrix.npy")
        write_pgm(m, ref / "x.pgm")
        for name in ("x_perm.csv", "x_matrix.npy", "x.pgm"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        back = np.load(out / "x_matrix.npy", allow_pickle=False)
        assert back.dtype == m.dtype and back.tobytes() == m.tobytes()

    @pytest.mark.parametrize(
        "matrix",
        [
            block_matrix().values,
            np.random.default_rng(4).random((7, 5)) * 3.0,
            np.zeros((4, 4)),
            np.random.default_rng(5).random((300, 300)),
            np.random.default_rng(6).random((301, 300)),
            np.array([[2.5]]),
            np.random.default_rng(7).random((1, 40)),
            np.random.default_rng(8).random((40, 1)),
            # taller than the row block, with the maximum in the last block
            np.vstack([np.random.default_rng(9).random((2 * _BLOCK, 30)), np.full((3, 30), 4.0)]),
            np.asfortranarray(np.random.default_rng(10).random((30, 25))),
        ],
        ids=["blocks", "random", "zero", "every-level", "tall", "1x1", "1xn", "nx1", "max-last",
             "fortran"],
    )
    def test_pgm_header_and_levels(self, tmp_path, matrix):
        # binary P5: the header, then one byte per pixel, row by row
        rows, cols = matrix.shape
        top = matrix.max()
        levels = [
            [round(255 * v / top) if top > 0 else 0 for v in row] for row in matrix.tolist()
        ]
        write_pgm(matrix, tmp_path / "img.pgm")
        header = f"P5\n{cols} {rows}\n255\n".encode()
        assert (tmp_path / "img.pgm").read_bytes() == header + bytes(sum(levels, []))

    def test_pgm_holds_row_blocks(self, tmp_path):
        # the levels are scaled a block of rows at a time, not as a whole copy
        n = 600
        m = np.random.default_rng(10).random((n, n))
        assert traced_peak(lambda: write_pgm(m, tmp_path / "img.pgm")) <= 0.3 * n * n * 8

    def test_pgm_of_no_rows(self, tmp_path):
        # the header alone: a matrix with no entries has no maximum to scale by
        write_pgm(np.zeros((0, 3)), tmp_path / "empty.pgm")
        assert (tmp_path / "empty.pgm").read_bytes() == b"P5\n3 0\n255\n"

    def test_pgm_rejects_negative_entries(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.array([[0.0, -1.0], [2.0, 0.0]]), tmp_path / "neg.pgm")
