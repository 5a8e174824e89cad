"""Relational k-means, parameter draws, and dataset splitting."""

import itertools

import numpy as np
import pytest

from relrbf import AdjacencyMatrix, NetworkParams, from_features, init_params, initialization
from relrbf import relational_kmeans, split
from relrbf.engine import TrainConfig
from relrbf.errors import InvalidClusterCountError, TooFewSamplesError
from relrbf.prototypes import prototype_distances

from conftest import kmeans_history


def start(seed, c, n):
    """A k-means start: n random cluster labels in [0, c), drawn from ``seed``."""
    return np.random.default_rng(seed).integers(0, c, size=n)


def two_block_matrix():
    a = np.full((6, 6), 25.0)
    a[:3, :3] = 1.0
    a[3:, 3:] = 1.0
    np.fill_diagonal(a, 0.0)
    return AdjacencyMatrix(a)


class TestRelationalKmeans:
    def test_two_blocks_recovered(self):
        R = two_block_matrix()
        assignment, prototypes = relational_kmeans(R, 2, start(4, 2, 6))
        groups = {tuple(sorted(np.flatnonzero(assignment == j))) for j in range(2)}
        assert groups == {(0, 1, 2), (3, 4, 5)}
        # exhaustive oracle: of all 2-part splits, the block split minimizes
        # the total within-cluster prototype distance
        def objective(assignment):
            total = 0.0
            for j in range(2):
                members = np.flatnonzero(np.asarray(assignment) == j)
                if members.size == 0:
                    return np.inf
                w = np.zeros(6)
                w[members] = 1.0 / members.size
                total += prototype_distances(R, w[None, :])[0][members].sum()
            return total

        best = min(
            (objective(a), a) for a in itertools.product([0, 1], repeat=6)
        )[1]
        assert objective(assignment) == pytest.approx(objective(best))

    def test_c_equals_n(self, three_point_R):
        assignment, prototypes = relational_kmeans(three_point_R, 3, start(0, 3, 3))
        assert sorted(assignment.tolist()) == [0, 1, 2]
        D = prototype_distances(three_point_R, prototypes)
        for j in range(3):
            member = np.flatnonzero(assignment == j)[0]
            assert D[j, member] == pytest.approx(0.0, abs=1e-12)

    def test_c_one_uniform_prototype(self, three_point_R):
        _, prototypes = relational_kmeans(three_point_R, 1, start(0, 1, 3))
        np.testing.assert_allclose(prototypes, np.full((1, 3), 1 / 3))

    def test_invalid_cluster_count(self, three_point_R):
        with pytest.raises(InvalidClusterCountError):
            relational_kmeans(three_point_R, 4, start(0, 4, 3))

    def test_every_cluster_occupied(self):
        rng = np.random.default_rng(0)
        R = from_features(rng.standard_normal((20, 2)))
        assignment, _ = relational_kmeans(R, 5, start(9, 5, 20))
        assert set(assignment) == set(range(5))

    def test_objective_non_increasing_on_realizable(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 3))
        R = from_features(X)
        history = kmeans_history(initialization, relational_kmeans, R, 4, start(2, 4, 30))

        def objective(assignment):
            total = 0.0
            for j in range(4):
                members = np.flatnonzero(assignment == j)
                w = np.zeros(30)
                w[members] = 1.0 / members.size
                total += prototype_distances(R, w[None, :])[0][members].sum()
            return total

        values = [objective(a) for a in history]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestInitParams:
    def test_reproducible(self):
        cfg = TrainConfig(c_init=3)
        a = NetworkParams(*init_params(3, 2, cfg, np.random.default_rng(5)))
        b = NetworkParams(*init_params(3, 2, cfg, np.random.default_rng(5)))
        assert np.array_equal(a.w0, b.w0) and np.array_equal(a.W, b.W)
        assert np.array_equal(a.sigma, b.sigma)

    def test_distinct_seeds_differ(self):
        cfg = TrainConfig(c_init=3)
        a = NetworkParams(*init_params(3, 2, cfg, np.random.default_rng(5)))
        b = NetworkParams(*init_params(3, 2, cfg, np.random.default_rng(6)))
        assert not np.array_equal(a.W, b.W)

    def test_draws_within_ranges(self):
        cfg = TrainConfig(c_init=3)
        rng = np.random.default_rng(0)
        lows_w, highs_w = [], []
        for _ in range(100):
            p = NetworkParams(*init_params(10, 5, cfg, rng))
            all_w = np.concatenate([p.w0, p.W.ravel()])
            lows_w.append(all_w.min())
            highs_w.append(all_w.max())
            assert np.all(all_w >= -1.75) and np.all(all_w <= 1.75)
            assert np.all(p.sigma >= 0.25) and np.all(p.sigma <= 3.75)
        # 10^4 weight draws should span most of the configured range
        assert min(lows_w) < -1.7 and max(highs_w) > 1.7


class TestSplit:
    def test_100_gives_70_15_15(self):
        s = split(100, np.random.default_rng(1))
        assert (s.train.size, s.test.size, s.val.size) == (70, 15, 15)

    def test_10_gives_7_2_1(self):
        s = split(10, np.random.default_rng(1))
        assert (s.train.size, s.test.size, s.val.size) == (7, 2, 1)

    def test_deterministic(self):
        a, b = split(40, np.random.default_rng(3)), split(40, np.random.default_rng(3))
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
        assert np.array_equal(a.val, b.val)

    def test_disjoint_cover(self):
        s = split(53, np.random.default_rng(8))
        merged = np.concatenate([s.train, s.test, s.val])
        assert sorted(merged.tolist()) == list(range(53))

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            split(9, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [10, 11, 53, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plain_split_is_one_class_split(self, n, seed):
        # both are bitwise the 70/15/15 cut of one permutation of range(n)
        plain = split(n, np.random.default_rng(seed))
        one_class = split(n, np.random.default_rng(seed), np.zeros(n, int))
        perm = np.random.default_rng(seed).permutation(n)
        ends = np.cumsum([plain.train.size, plain.test.size])
        for name, part in zip(("train", "test", "val"), np.split(perm, ends)):
            assert getattr(plain, name).tobytes() == getattr(one_class, name).tobytes()
            assert getattr(plain, name).tobytes() == np.sort(part).tobytes()

    def test_stratified_proportions(self):
        labels = np.array([0] * 40 + [1] * 60)
        s = split(100, np.random.default_rng(2), labels)
        train_labels = labels[s.train]
        assert (train_labels == 0).sum() == 28  # 70% of 40
        assert (train_labels == 1).sum() == 42  # 70% of 60
        merged = np.concatenate([s.train, s.test, s.val])
        assert sorted(merged.tolist()) == list(range(100))
