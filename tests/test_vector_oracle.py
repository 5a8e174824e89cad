"""Vector-space reference trainer and the lock-step equivalence check."""

import json

import numpy as np
import pytest

from relrbf import NetworkParams, TrainResult, from_features
from relrbf.datasets import ingest, one_hot, synthetic_blobs
from relrbf.engine import TrainConfig, VectorModel
from relrbf.errors import ConfigError
from relrbf.initialization import init_params, split
from relrbf.training import train
from relrbf.vector_oracle import duality_check, vector_kmeans, vector_train

from conftest import kmeans_history, traced_peak


def powered_blobs(n, power, sep, seed):
    """A three-class blob graph raised to ``power``; above 1 it is not
    realizable."""
    blobs = dict(n=n, classes=3, dim=5, sep=sep, seed=seed)
    return ingest("synthetic-blobs", power=power, blobs=blobs)


def squared_distance(x, v) -> float:
    """Squared distance from observation x to prototype v, by ``VectorModel``."""
    return float(VectorModel(np.array([x])).distances(np.array([v]))[0, 0])


class TestVectorDistance:
    def test_coincident(self):
        assert squared_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert squared_distance([0.0, 1.0], [0.5, 0.0]) == pytest.approx(1.25)

    def test_centroid_case(self):
        assert squared_distance([1.0, 0.0], [1 / 3, 1 / 3]) == pytest.approx(5.0 / 9.0)

    def test_one_dimensional_features_are_one_feature(self):
        # as in `from_features`: n observations of one feature
        x = np.random.default_rng(4).standard_normal(30)
        P = np.array([[0.5], [-1.0]])
        np.testing.assert_array_equal(
            VectorModel(x).distances(P), VectorModel(x[:, None]).distances(P)
        )
        assert duality_check(from_features(x), X=x, epochs=5).passed

    def test_signed_distance(self):
        # the second coordinate counts negatively: 1 - 4
        model = VectorModel(np.array([[1.0, 2.0]]), signature=np.array([1.0, -1.0]))
        assert model.distances(np.zeros((1, 2)))[0, 0] == pytest.approx(-3.0)

    def test_no_prototype_by_observation_temporary(self):
        # the (c, n, d) difference array would take 25.5 MB here
        rng = np.random.default_rng(5)
        c, n, d = 20, 400, 399
        X, P = rng.standard_normal((n, d)), rng.standard_normal((c, d))
        peak = traced_peak(lambda: VectorModel(X).distances(P))
        assert peak < 16 * c * n * 8


class TestVectorKmeans:
    def test_matches_relational_sequence(self):
        from relrbf import initialization, vector_oracle
        from relrbf.initialization import relational_kmeans

        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3)) + rng.integers(0, 2, (25, 1)) * 4.0
        init = rng.integers(0, 3, 25)
        h_rel = kmeans_history(initialization, relational_kmeans, from_features(X), 3, init)
        h_vec = kmeans_history(vector_oracle, vector_kmeans, X, 3, init)
        assert len(h_rel) == len(h_vec)
        for a, b in zip(h_rel, h_vec):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", ["relational", "vector"])
    def test_history_ends_at_the_returned_assignment(self, backend):
        # the recording helper sees every assignment the loop makes: it
        # starts at the repaired start and ends at the one returned
        from relrbf import initialization, vector_oracle
        from relrbf.initialization import relational_kmeans

        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3)) + rng.integers(0, 2, (25, 1)) * 4.0
        init = np.zeros(25, dtype=int)  # clusters 1 and 2 start empty
        module, kmeans, graph = {
            "relational": (initialization, relational_kmeans, from_features(X)),
            "vector": (vector_oracle, vector_kmeans, X),
        }[backend]
        history = kmeans_history(module, kmeans, graph, 3, init)
        assignment, _ = kmeans(graph, 3, init)
        assert len(history) >= 2
        np.testing.assert_array_equal(history[0], [0] * 23 + [2, 1])
        np.testing.assert_array_equal(history[-1], assignment)

    @pytest.mark.parametrize("c", [0, 26])
    @pytest.mark.parametrize("backend", ["relational", "vector"])
    def test_cluster_count_outside_one_to_n(self, backend, c):
        from relrbf.errors import InvalidClusterCountError
        from relrbf.initialization import relational_kmeans

        X = np.random.default_rng(3).standard_normal((25, 3))
        kmeans, graph = {
            "relational": (relational_kmeans, from_features(X)),
            "vector": (vector_kmeans, X),
        }[backend]
        with pytest.raises(InvalidClusterCountError, match=rf"c={c} outside \[1, 25\]"):
            kmeans(graph, c, np.zeros(25, dtype=int))

    def test_centroids_are_cluster_means(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
        assignment, centroids = vector_kmeans(X, 2, [0, 0, 1, 1])
        for j in range(2):
            members = np.flatnonzero(assignment == j)
            np.testing.assert_allclose(centroids[j], X[members].mean(axis=0))


class TestVectorTrain:
    def test_zero_epoch_run_returns_init_draw(self):
        X, y = synthetic_blobs(20, classes=2, sep=4.0, seed=0)
        Y = one_hot(y, 2)
        cfg = TrainConfig(c_init=2, seed=9, max_epochs=0)
        res = vector_train(X, Y, cfg)
        # replay the engine's draw order: split, partition, then parameters
        rng = np.random.default_rng(9)
        si = split(20, rng)
        rng.integers(0, 2, size=si.train.size)
        expected = NetworkParams(*init_params(2, 2, cfg, rng))
        np.testing.assert_array_equal(res.split.train, si.train)
        np.testing.assert_array_equal(res.params.w0, expected.w0)
        np.testing.assert_array_equal(res.params.W, expected.W)
        np.testing.assert_array_equal(res.params.sigma, expected.sigma)

    def test_rejects_medoid_mode(self):
        X, y = synthetic_blobs(20, classes=2, sep=4.0, seed=0)
        with pytest.raises(ConfigError, match="free prototypes"):
            vector_train(X, one_hot(y, 2), TrainConfig(c_init=2, prototype_mode="medoid"))

    def test_same_sse_trajectory_as_graph_trainer(self, three_points):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        Y = one_hot(rng.integers(0, 2, 30), 2)
        cfg = TrainConfig(c_init=2, c_max=4, seed=5, max_epochs=25)
        g = train(from_features(X), Y, cfg)
        v = vector_train(X, Y, cfg)
        # one result type: node weights from the graph, positions from the vectors
        assert type(g) is type(v) is TrainResult
        assert g.prototypes.shape == (g.params.c, 30)
        assert v.prototypes.shape == (v.params.c, 4)
        assert g.metrics.epochs == v.metrics.epochs
        np.testing.assert_allclose(g.metrics.sse_train, v.metrics.sse_train, atol=1e-8)
        np.testing.assert_allclose(g.metrics.sse_val, v.metrics.sse_val, atol=1e-8)

    def test_constant_targets_same_solution_as_graph(self):
        X, y = synthetic_blobs(20, classes=2, sep=4.0, seed=4)
        Y = np.tile([1.0, 0.0], (20, 1))
        cfg = TrainConfig(c_init=2, seed=2, max_epochs=120)
        g = train(from_features(X), Y, cfg)
        v = vector_train(X, Y, cfg)
        np.testing.assert_allclose(g.params.w0, v.params.w0, atol=1e-8)
        np.testing.assert_allclose(g.params.W, v.params.W, atol=1e-8)
        np.testing.assert_allclose(g.params.sigma, v.params.sigma, atol=1e-8)


class TestDualityCheck:
    def test_random_instance_passes(self):
        X = np.random.default_rng(17).standard_normal((40, 5))
        report = duality_check(from_features(X), X=X, config=TrainConfig(c_init=3, c_max=5, seed=7), epochs=20)
        assert report.passed
        assert report.epochs == 20
        assert report.max_deviation <= 1e-8

    def test_nan_deviation_fails(self, monkeypatch):
        # a NaN in one trainer's trace is a deviation no tolerance covers
        from relrbf import vector_oracle

        def poisoned(*args, **kwargs):
            result = real(*args, **kwargs)
            for rec in result.metrics.trace:
                rec["output"] = rec["output"].copy()
                rec["output"][0, 0] = np.nan
            return result

        real = vector_oracle.vector_train
        monkeypatch.setattr(vector_oracle, "vector_train", poisoned)
        X = np.random.default_rng(17).standard_normal((40, 5))
        report = duality_check(from_features(X), X=X, config=TrainConfig(c_init=3, c_max=5, seed=7), epochs=20)
        assert report.passed is False and np.isnan(report.max_deviation)
        # written as strict JSON, the non-finite deviations are null
        written = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert written["max_deviation"] is None and written["field_max_dev"]["output"] is None
        assert written["per_epoch_max_dev"] == [None] * 20

    def test_inf_against_a_finite_entry_fails(self, monkeypatch):
        # an inf in one trainer's trace where the other's is finite deviates
        # by inf, relative to the field too
        from relrbf import vector_oracle

        def overflowed(*args, **kwargs):
            result = real(*args, **kwargs)
            rec = result.metrics.trace[-1]
            rec["hidden"] = rec["hidden"].copy()
            rec["hidden"][0, 0] = np.inf
            return result

        real = vector_oracle.vector_train
        monkeypatch.setattr(vector_oracle, "vector_train", overflowed)
        X = np.random.default_rng(17).standard_normal((40, 5))
        report = duality_check(from_features(X), X=X, config=TrainConfig(c_init=3, c_max=5, seed=7), epochs=20)
        assert report.passed is False
        assert report.max_deviation == report.field_max_dev["hidden"] == np.inf
        assert report.max_scaled_deviation == np.inf
        assert report.per_epoch_max_dev[-1] == np.inf and max(report.per_epoch_max_dev[:-1]) <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_kernel_overflow_in_both_trainers_passes(self):
        # this indefinite graph's kernel overflows to inf at one node in both
        # trainers' records at epochs 13-19: the same inf deviates by 0
        data = powered_blobs(300, 1.3, 2.0, 4)
        cfg = TrainConfig(c_init=3, c_max=8, patience_grow=2, stratify_split=True, seed=11)
        report = duality_check(R=data.R, Y=data.Y, config=cfg)
        assert report.passed and report.epochs == 20
        assert 0.0 < report.max_scaled_deviation <= report.max_deviation <= 1e-8

    def test_duplicated_points_benign(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((15, 3))
        X = np.vstack([X, X[:5]])
        report = duality_check(from_features(X), X=X, config=TrainConfig(c_init=2, seed=1), epochs=15)
        assert report.passed

    def test_nonrealizable_matrix_passes_on_signed_twin(self, graph_negatives):
        data = powered_blobs(120, 1.5, 2.0, 0)
        report = duality_check(R=data.R, Y=data.Y, config=TrainConfig(c_init=3, c_max=8))
        assert report.passed and report.epochs == 20
        assert report.max_scaled_deviation <= 1e-8
        # the graph trainer met negative distances, and the twin followed it
        assert graph_negatives[0] > 0

    def test_indefinite_twin_held_to_scaled_bound(self, graph_negatives):
        # negative distances make the kernel huge here: its absolute deviation
        # is past the tolerance, its deviation relative to the fields is not
        data = powered_blobs(400, 2.0, 2.0, 0)
        report = duality_check(R=data.R, Y=data.Y, config=TrainConfig(c_init=3, c_max=8))
        assert report.passed
        assert report.max_deviation > report.tol >= report.max_scaled_deviation
        assert graph_negatives[0] > 0

    def test_realizable_matrix_one_spectrum(self, monkeypatch):
        # no realizability test before the twin: one n x n eigh builds it
        shapes = []
        real_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        R = from_features(np.random.default_rng(31).standard_normal((24, 3)))
        assert duality_check(R=R, config=TrainConfig(c_init=2, seed=3), epochs=10).passed
        assert shapes == [(24, 24)]

    def test_realizable_matrix_direct(self, three_points):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((24, 3))
        R = from_features(X)
        report = duality_check(R=R, config=TrainConfig(c_init=2, seed=3), epochs=10)
        assert report.passed

    def test_takes_the_graph_and_optional_features(self):
        # the graph is required; its features, when given, are the twin's
        X = np.random.default_rng(31).standard_normal((24, 3))
        cfg = TrainConfig(c_init=2, seed=3)
        with pytest.raises(TypeError):
            duality_check(X=X, config=cfg, epochs=10)
        assert duality_check(from_features(X), X=X, config=cfg, epochs=10).passed
        assert duality_check(from_features(X), config=cfg, epochs=10).passed
