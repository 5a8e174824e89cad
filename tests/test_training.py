"""The engine's update rules (verified against finite differences and a
coordinate-space oracle), the guard that they are the rules training runs,
and the full training loop."""

import copy
import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from relrbf import NetworkParams, TrainResult, forward, from_features, gaussian_kernel
from relrbf import prototype_distances
from relrbf import engine
from relrbf.datasets import one_hot, synthetic_blobs
from relrbf.engine import (
    RelationalModel,
    TrainConfig,
    adapt_learning_rate,
    bandwidth_step,
    draw_rates,
    grow_step,
    output_errors,
    output_step,
    run_lockstep,
    shift_coefficients,
)
from relrbf.errors import ConfigError, DegenerateShiftError, InvalidClusterCountError
from relrbf.training import evaluate_network, relational_model_from_partition, train, train_group
from relrbf.vector_oracle import vector_train

from conftest import brute_force_distance


def random_instance(seed, n=None, d=None, c=None, g=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(5, 25))
    d = d or int(rng.integers(1, 6))
    c = c or int(rng.integers(1, 4))
    g = g or int(rng.integers(1, 3))
    X = rng.standard_normal((n, d))
    P = rng.standard_normal((c, d))
    Y = rng.standard_normal((n, g))
    params = NetworkParams(
        w0=rng.uniform(-1, 1, g),
        W=rng.uniform(-1, 1, (c, g)),
        sigma=rng.uniform(0.5, 2.5, c),
    )
    D = ((X[None, :, :] - P[:, None, :]) ** 2).sum(-1)
    return rng, X, P, Y, params, D


def sse_of(Y, D, params):
    resp = forward(D, params)
    return float(np.sum((np.asarray(Y) - resp) ** 2))


def kernel_and_errors(Y, D, params):
    """The engine's hidden responses and residuals at a parameter point."""
    H = gaussian_kernel(D, params.sigma[:, None])
    return H, output_errors(np.atleast_2d(Y), H, params.W, params.w0)


def all_train(n):
    """Training rows and mask that make every node a training node."""
    return np.arange(n), np.ones(n, dtype=bool)


def shifted_model(R, weights, eps, eta):
    """A RelationalModel and one prototype's weight rows after a single
    shift step."""
    model = RelationalModel(R)
    V = model.shift(np.asarray(weights, dtype=float)[None, :], np.atleast_2d(eps), np.array([eta]))
    return model, V


def distance_offset_terms(R, v, eps, eta):
    """Closed-form distance offset for one prototype shift.

    Expands ||x_i - v'||^2 - ||x_i - v||^2 for v' = v + eta sum_y eps_y (x_y - v)
    purely in adjacency sums, without ever forming the shifted weight vector:

        eta (R eps)_i - eta s (R v)_i + (eta s - eta^2 s^2 / 2) v^T R v
        - eta (1 - eta s) v^T R eps - eta^2 eps^T R eps / 2,   s = sum(eps).

    An independent oracle for the weight-recombination path.
    """
    a = R.values
    Rv = a @ v
    Re = a @ eps
    s = float(eps.sum())
    vRv = float(v @ Rv)
    vRe = float(v @ Re)
    eRe = float(eps @ Re)
    return (
        eta * Re
        - eta * s * Rv
        + (eta * s - 0.5 * eta**2 * s**2) * vRv
        - eta * (1.0 - eta * s) * vRe
        - 0.5 * eta**2 * eRe
    )


class TestOutputErrors:
    def test_perfect_fit_zero(self):
        H = np.ones((1, 3))
        assert np.all(output_errors(np.ones((3, 1)), H, np.zeros((1, 1)), np.ones(1)) == 0)

    def test_scalar_case(self):
        eps = output_errors(np.array([[1.0]]), np.ones((1, 1)), np.zeros((1, 1)), np.array([0.6]))
        assert eps[0, 0] == pytest.approx(0.4)

    def test_two_outputs(self):
        eps = output_errors(
            np.array([[1.0, 0.0]]), np.ones((1, 1)), np.zeros((1, 2)), np.array([0.8, 0.3])
        )
        np.testing.assert_allclose(eps, [[0.2, -0.3]])


class TestUpdateWeights:
    """``output_step``: the engine's output-layer rule."""

    def test_zero_errors_no_change(self):
        _, _, _, Y, params, D = random_instance(0)
        H, eps = kernel_and_errors(Y, D, params)
        tr, _ = all_train(D.shape[1])
        w0, W = output_step(params.w0, params.W, H, np.zeros_like(eps), 0.3, 0.3, tr)
        assert np.array_equal(w0, params.w0) and np.array_equal(W, params.W)

    def test_formula_substitution(self):
        # d = 0 gives h = 1
        w0, W = output_step(
            np.zeros(1), np.zeros((1, 1)), np.ones((1, 1)), np.array([[0.5]]), 0.1, 0.1, np.arange(1)
        )
        assert w0[0] == pytest.approx(0.05)
        assert W[0, 0] == pytest.approx(0.05)

    def test_small_step_decreases_sse(self):
        for seed in range(10):
            _, _, _, Y, params, D = random_instance(seed)
            H, eps = kernel_and_errors(Y, D, params)
            tr, _ = all_train(D.shape[1])
            w0, W = output_step(params.w0, params.W, H, eps, 1e-4, 1e-4, tr)
            assert sse_of(Y, D, NetworkParams(w0, W, params.sigma)) < sse_of(Y, D, params)

    def test_sums_training_rows_only(self):
        _, _, _, Y, params, D = random_instance(6, n=12)
        H, eps = kernel_and_errors(Y, D, params)
        tr = np.arange(0, 12, 2)
        noisy = eps.copy()
        noisy[1::2] += 100.0
        a = output_step(params.w0, params.W, H, eps, 0.2, 0.2, tr)
        b = output_step(params.w0, params.W, H, noisy, 0.2, 0.2, tr)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_matches_finite_differences(self):
        # update direction equals -1/2 dSSE/dW entrywise
        h = 1e-6
        worst = 0.0
        for seed in range(20):
            _, _, _, Y, params, D = random_instance(seed)
            H, eps = kernel_and_errors(Y, D, params)
            tr, _ = all_train(D.shape[1])
            _, W_step = output_step(params.w0, params.W, H, eps, 1.0, 1.0, tr)
            dW_analytic = W_step - params.W
            for j in range(params.c):
                for k in range(params.g):
                    Wp, Wm = params.W.copy(), params.W.copy()
                    Wp[j, k] += h
                    Wm[j, k] -= h
                    num = (
                        sse_of(Y, D, NetworkParams(params.w0, Wp, params.sigma))
                        - sse_of(Y, D, NetworkParams(params.w0, Wm, params.sigma))
                    ) / (2 * h)
                    ana = -2.0 * dW_analytic[j, k]
                    worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestHiddenErrors:
    """``shift_coefficients``: the engine's backpropagated shift rule."""

    def test_zero_output_errors(self):
        _, _, _, Y, params, D = random_instance(2)
        H, eps = kernel_and_errors(Y, D, params)
        _, mask = all_train(D.shape[1])
        eps_h = shift_coefficients(params.W, H, np.zeros_like(eps), params.sigma, mask)
        assert np.all(eps_h == 0)

    def test_known_value(self):
        eps_h = shift_coefficients(
            np.array([[2.0]]), np.ones((1, 1)), np.array([[0.5]]), np.ones(1), np.ones(1, dtype=bool)
        )
        assert eps_h[0, 0] == pytest.approx(1.0)

    def test_zeroed_off_training_set(self):
        _, _, _, Y, params, D = random_instance(7, n=10)
        H, eps = kernel_and_errors(Y, D, params)
        mask = np.arange(10) % 3 == 0
        eps_h = shift_coefficients(params.W, H, eps, params.sigma, mask)
        full = shift_coefficients(params.W, H, eps, params.sigma, np.ones(10, dtype=bool))
        assert np.all(eps_h[:, ~mask] == 0)
        np.testing.assert_array_equal(eps_h[:, mask], full[:, mask])

    def test_matches_prototype_gradient(self):
        # dSSE/dv_j = -2 sum_i eps_h[j, i] (x_i - v_j), checked centrally
        h = 1e-6
        worst = 0.0
        for seed in range(20):
            rng, X, P, Y, params, D = random_instance(seed)
            H, eps = kernel_and_errors(Y, D, params)
            _, mask = all_train(D.shape[1])
            eps_h = shift_coefficients(params.W, H, eps, params.sigma, mask)
            for j in range(params.c):
                for dim in range(X.shape[1]):
                    Pp, Pm = P.copy(), P.copy()
                    Pp[j, dim] += h
                    Pm[j, dim] -= h
                    def at(Pl):
                        Dl = ((X[None, :, :] - Pl[:, None, :]) ** 2).sum(-1)
                        return sse_of(Y, Dl, params)
                    num = (at(Pp) - at(Pm)) / (2 * h)
                    ana = -2.0 * float(eps_h[j] @ (X[:, dim] - P[j, dim]))
                    worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestOffsetDistances:
    """``RelationalModel.shift`` followed by ``distances()``."""

    def test_zero_errors_no_change(self, three_point_R):
        w = np.array([0.5, 0.5, 0.0])
        before = RelationalModel(three_point_R).distances(w[None, :])
        model, V = shifted_model(three_point_R, w, np.zeros(3), 0.4)
        np.testing.assert_array_equal(model.distances(V), before)
        np.testing.assert_array_equal(V[0], w)

    def test_explicit_shift_example(self, three_points, three_point_R):
        # prototype at the first node, pulled a quarter of the way to the
        # second: latent point (0.25, 0)
        model, V = shifted_model(three_point_R, [1.0, 0.0, 0.0], np.array([0.0, 1.0, 0.0]), 0.25)
        d = model.distances(V)[0]
        np.testing.assert_allclose(V[0], [0.75, 0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(d, [0.0625, 0.5625, 1.0625], atol=1e-12)
        np.testing.assert_allclose(d, brute_force_distance(three_points, V[0]), atol=1e-12)

    def test_first_order_in_eta(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((15, 3))
        R = from_features(X)
        u = rng.uniform(0.1, 1.0, 15)
        w = u / u.sum()
        d0 = brute_force_distance(X, w)
        eps_h = rng.standard_normal(15)
        deltas = []
        for eta in (1e-3, 1e-4, 1e-5):
            model, V = shifted_model(R, w, eps_h, eta)
            d = model.distances(V)[0]
            deltas.append(np.linalg.norm(d - d0))
        # shrinking eta tenfold shrinks the offset tenfold (first order)
        assert deltas[0] / deltas[1] == pytest.approx(10.0, rel=1e-2)
        assert deltas[1] / deltas[2] == pytest.approx(10.0, rel=1e-2)

    def test_agrees_with_vector_space_oracle(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 7))
            X = rng.standard_normal((n, d))
            R = from_features(X)
            u = rng.uniform(0.05, 1.0, n)
            w = u / u.sum()
            eps = rng.standard_normal(n) * 0.5
            eta = float(rng.uniform(0.01, 1.5))
            model, V = shifted_model(R, w, eps, eta)
            new_d = model.distances(V)[0]
            latent = w @ X
            shifted = latent + eta * (eps @ (X - latent))
            oracle = ((X - shifted) ** 2).sum(axis=1)
            rel = np.abs(new_d - oracle) / np.maximum(1.0, np.abs(oracle))
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-9

    def test_closed_form_offset_matches(self, three_point_R, three_points):
        # evaluating the offset purely as adjacency sums reproduces the
        # weight-recombination path
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.uniform(0.05, 1.0, 3)
            w = u / u.sum()
            eps = rng.standard_normal(3)
            eta = float(rng.uniform(0.01, 1.0))
            d0 = brute_force_distance(three_points, w)
            model, V = shifted_model(three_point_R, w, eps, eta)
            new_d = model.distances(V)[0]
            poly = d0 + distance_offset_terms(three_point_R, w, eps, eta)
            np.testing.assert_allclose(new_d, poly, rtol=1e-9, atol=1e-12)

    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(5)
        R = from_features(np.random.default_rng(0).standard_normal((8, 2)))
        model, V = RelationalModel(R), np.full((1, 8), 1 / 8)
        for _ in range(200):
            V = model.shift(V, rng.standard_normal((1, 8)), np.array([0.3]))
        assert abs(V[0].sum() - 1.0) <= 1e-12


class TestUpdateBandwidths:
    """``bandwidth_step``: the engine's bandwidth rule."""

    SIGMA_MIN = TrainConfig().sigma_min

    def step(self, params, D, eps, eta, H=None):
        H = gaussian_kernel(D, params.sigma[:, None]) if H is None else H
        tr, _ = all_train(D.shape[1])
        return bandwidth_step(params.sigma, params.W, H, D, eps, eta, tr, self.SIGMA_MIN)

    def test_zero_errors_no_change(self):
        _, _, _, Y, params, D = random_instance(4)
        _, eps = kernel_and_errors(Y, D, params)
        assert np.array_equal(self.step(params, D, np.zeros_like(eps), 0.2), params.sigma)

    def test_zero_distances_no_change(self):
        params = NetworkParams(w0=[0.0], W=[[1.0]], sigma=[1.5])
        D = np.zeros((1, 6))
        assert np.array_equal(self.step(params, D, np.full((6, 1), 0.7), 0.2), params.sigma)

    def test_clamped_below(self):
        params = NetworkParams(w0=[0.0], W=[[5.0]], sigma=[1.0])
        D = np.full((1, 4), 1.0)
        # strongly negative errors drive sigma far below zero: clamp engages
        assert self.step(params, D, np.full((4, 1), -10.0), 1.0)[0] == pytest.approx(1e-3)

    def test_matches_finite_differences(self):
        h = 1e-6
        eta = 1e-3  # small enough that the lower clamp never engages
        worst = 0.0
        for seed in range(20):
            _, _, _, Y, params, D = random_instance(seed)
            H, eps = kernel_and_errors(Y, D, params)
            delta = (self.step(params, D, eps, eta, H) - params.sigma) / eta
            for j in range(params.c):
                sp, sm = params.sigma.copy(), params.sigma.copy()
                sp[j] += h
                sm[j] -= h
                num = (
                    sse_of(Y, D, NetworkParams(params.w0, params.W, sp))
                    - sse_of(Y, D, NetworkParams(params.w0, params.W, sm))
                ) / (2 * h)
                ana = -2.0 * delta[j]
                worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestAdaptLearningRate:
    CONFIG = TrainConfig()

    def test_reject_and_decay(self):
        scale, cause = adapt_learning_rate(1.0, 1.1, 1.0, self.CONFIG)
        assert cause == engine.MSE_RISE and scale == pytest.approx(0.7)

    def test_accept_and_grow(self):
        scale, cause = adapt_learning_rate(1.0, 0.9, 1.0, self.CONFIG)
        assert cause == engine.ACCEPTED and scale == pytest.approx(1.05)

    def test_between_thresholds_unchanged(self):
        scale, cause = adapt_learning_rate(1.0, 1.02, 1.0, self.CONFIG)
        assert cause == engine.ACCEPTED and scale == 1.0

    def test_non_finite_rejected(self):
        for mse in (float("nan"), float("inf")):
            scale, cause = adapt_learning_rate(1.0, mse, 1.0, self.CONFIG)
            assert cause == engine.NONFINITE_MSE and scale == pytest.approx(0.7)


class TestMaybeGrowPrototype:
    """``grow_step``: the engine's growth trigger, site and draws."""

    def _grow(self, run, c_max=3):
        config = TrainConfig(c_init=1, c_max=c_max, patience_grow=5)
        rates = draw_rates(1, 1, config.eta_range, np.random.default_rng(1))
        err = np.array([[0.1], [0.9], [0.3]])
        grown = grow_step(
            run, err, np.arange(3), np.array([[0.1]]), np.array([1.0]), rates, config,
            np.random.default_rng(0),
        )
        return grown, rates, config

    def test_below_patience_no_growth(self):
        # fires on positive multiples of patience_grow only
        for run in (0, 4, 6, 9):
            assert self._grow(run)[0] is None
        assert self._grow(10)[0] is not None

    def test_grows_at_worst_observation(self, three_point_R):
        (m, W, sigma), rates, config = self._grow(5)
        assert m == 1
        assert W.shape == (2, 1) and sigma.shape == (2,)
        assert 0.25 <= sigma[1] <= 3.75
        # five draws in fixed order: weights, bandwidth, then the three rates
        ref = np.random.default_rng(0)
        assert W[1, 0] == ref.uniform(*config.weight_init_range, size=1)[0]
        assert sigma[1] == ref.uniform(*config.sigma_init_range)
        assert rates.W[1, 0] == ref.uniform(*config.eta_range, size=1)[0]
        assert rates.sigma[1] == ref.uniform(*config.eta_range)
        assert rates.proto[1] == ref.uniform(*config.eta_range)
        # the grown prototype's distance row is column m of the matrix
        model = RelationalModel(three_point_R)
        V = model.grow(np.full((1, 3), 1 / 3), m)
        np.testing.assert_array_equal(V[1], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(model.distances(V)[1], three_point_R.values[:, 1])

    def test_at_capacity_no_op(self):
        assert self._grow(5, c_max=1)[0] is None


class TestTrainConfig:
    def test_requires_positive_eta(self):
        for eta_range in ((0.0, 1.0), (-2.0, -0.5)):
            with pytest.raises(ConfigError, match="^eta_range must be a finite number > 0"):
                TrainConfig(eta_range=eta_range)

    def test_requires_positive_sigma_min(self):
        for sigma_min in (0.0, -1e-3):
            with pytest.raises(ConfigError, match="^sigma_min must be a finite number > 0"):
                TrainConfig(sigma_min=sigma_min)

    def test_boolean_is_not_a_number(self):
        for boolean in (True, np.True_):
            with pytest.raises(ConfigError, match="sigma_min must be a finite number"):
                TrainConfig(sigma_min=boolean)
        with pytest.raises(ConfigError, match="eta_range"):
            TrainConfig(eta_range=(True, 2.0))
        with pytest.raises(ConfigError, match="c_init"):
            TrainConfig(c_init=True)

    def test_values_are_kept(self):
        # numpy integers pass, and a pair becomes a tuple of its own values
        config = TrainConfig(c_init=np.int64(2), seed=np.int64(3), eta_range=[0.1, 1])
        assert type(config.seed) is np.int64 and config.c_max is config.c_init
        assert config.eta_range == (0.1, 1) and type(config.eta_range[1]) is int

    def test_every_field_has_a_check(self):
        # the CLI's `train` level accepts exactly the keys of this table
        assert list(engine.TRAIN_CHECKS) == [f.name for f in dataclasses.fields(TrainConfig)]


class Sentinel(Exception):
    pass


def _raise_sentinel(*args, **kwargs):
    raise Sentinel


class TestTrainingPath:
    """The rules tested above are the ones both trainers run: replacing any
    of them must reach ``train`` and ``vector_train``."""

    CONFIG = TrainConfig(c_init=2, c_max=3, seed=0, max_epochs=5)

    @pytest.fixture
    def data(self):
        X, y = synthetic_blobs(30, classes=2, sep=3.0, seed=12)
        return from_features(X), one_hot(y, 2)

    @pytest.mark.parametrize(
        "name",
        [
            "gaussian_kernel",
            "output_errors",
            "output_step",
            "shift_coefficients",
            "bandwidth_step",
            "grow_step",
            "adapt_learning_rate",
            "epoch",
        ],
    )
    def test_engine_step_runs_in_both_trainers(self, monkeypatch, data, name):
        R, Y = data
        monkeypatch.setattr(engine, name, _raise_sentinel)
        with pytest.raises(Sentinel):
            train(R, Y, self.CONFIG)
        with pytest.raises(Sentinel):
            vector_train(R, Y, self.CONFIG)

    @pytest.mark.parametrize(
        "owner, name",
        # relational distances come from one stacked product in the driver
        [(RelationalModel, "shift"), (engine, "prototype_distances")],
        ids=["shift", "distances"],
    )
    def test_relational_model_runs_in_graph_trainer(self, monkeypatch, data, owner, name):
        R, Y = data
        monkeypatch.setattr(owner, name, _raise_sentinel)
        with pytest.raises(Sentinel):
            train(R, Y, self.CONFIG)

    @pytest.mark.parametrize("trainer", ["graph", "vector"])
    def test_k_means_bounds_the_cluster_count(self, data, trainer):
        # 21 of the 30 nodes train; k-means is the one check of c_init
        R, Y = data
        config = TrainConfig(c_init=22, c_max=22, seed=0, max_epochs=5)
        with pytest.raises(InvalidClusterCountError, match=r"^c=22 outside \[1, 21\]$"):
            if trainer == "graph":
                train(R, Y, config)
            else:
                vector_train(R, Y, config)

    @pytest.mark.parametrize("mode", ["free", "medoid"])
    def test_only_free_prototypes_shift(self, monkeypatch, data, mode):
        # the config alone keeps medoids still: no shift is even computed
        R, Y = data
        calls = []
        real = RelationalModel.shift

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(RelationalModel, "shift", spy)
        train(R, Y, dataclasses.replace(self.CONFIG, prototype_mode=mode))
        assert len(calls) == 0 if mode == "medoid" else len(calls) >= 1


class TestTrain:
    @pytest.mark.parametrize("mode", ["free", "medoid"])
    def test_training_subgraph_is_one_copy(self, mode):
        # the training subgraph of a validated graph is taken as one
        # principal-submatrix copy (0.49 n^2 doubles), not re-validated into a
        # second buffer
        n = 400
        X, y = synthetic_blobs(n, classes=2, dim=5, seed=0)
        R = from_features(X).power(1.5)
        Y = one_hot(y, 2)
        config = TrainConfig(c_init=5, c_max=8, max_epochs=20, prototype_mode=mode)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(R, Y, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * n * n * 8

    def test_separable_blobs_perfect_training(self):
        X, y = synthetic_blobs(60, classes=2, sep=10.0, seed=1)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=2, c_max=6, seed=0, max_epochs=200))
        ev = evaluate_network(res.output, Y, res.split)
        assert ev["train"]["accuracy"] == 1.0
        assert res.metrics.epochs <= 200

    def test_constant_targets_converge_to_constant_response(self):
        X, y = synthetic_blobs(20, classes=2, sep=5.0, seed=2)
        R = from_features(X)
        Y = np.tile([1.0, 0.0], (20, 1))
        res = train(R, Y, TrainConfig(c_init=2, seed=3, max_epochs=800))
        best = res.metrics.best_epoch
        assert res.metrics.sse_train[best] < 0.1
        ev = evaluate_network(res.output, Y, res.split)
        assert ev["train"]["accuracy"] == 1.0
        # response approaches the constant target everywhere
        resp = res.output
        assert np.max(np.abs(resp - Y)) < 0.25
        assert np.mean(np.abs(resp - Y)) < 0.05

    def test_identical_seed_identical_metrics(self):
        X, y = synthetic_blobs(30, classes=2, sep=4.0, seed=5)
        R = from_features(X)
        Y = one_hot(y, 2)
        cfg = TrainConfig(c_init=2, c_max=4, seed=11, max_epochs=60)
        assert train(R, Y, cfg).metrics == train(R, Y, cfg).metrics

    def test_accepted_mse_never_worse_than_threshold(self):
        X, y = synthetic_blobs(40, classes=2, sep=2.0, seed=6)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=3, c_max=5, seed=2, max_epochs=150))
        mse = [sse / res.split.train.size for sse in res.metrics.sse_train]
        accepted = res.metrics.accepted
        grew = res.metrics.grew
        assert accepted == [cause == engine.ACCEPTED for cause in res.metrics.causes]
        prev = None
        for m, acc, grown in zip(mse, accepted, grew):
            if acc and prev is not None:
                assert m <= 1.05 * prev + 1e-12
            if acc:
                prev = m
            if grown:
                # growth re-baselines the acceptance comparison
                prev = None
        assert any(accepted)

    def test_negative_distances_recorded_on_nonrealizable_graph(self):
        X, y = synthetic_blobs(40, classes=2, sep=2.0, seed=8)
        R = from_features(X).power(1.5)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=3, c_max=5, seed=1, max_epochs=150))
        assert res.metrics.epochs > 0  # completes without blowing up
        assert all(v >= 0 for v in res.metrics.negative_distances)

    def test_overflowed_bandwidth_step_rejected(self):
        # negative distances can push a bandwidth step to sigma = inf, where
        # the kernel is 1 and the training MSE stays finite; seeds 1 and 4 of
        # this config (the CLI's overflow test) reach it
        from relrbf.datasets import ingest

        blobs = {"n": 300, "dim": 5, "classes": 3, "sep": 2.0, "seed": 5}
        data = ingest("synthetic-blobs", power=1.5, blobs=blobs)
        R, Y = data.R, data.Y
        overflowed = set()
        for seed in range(1, 7):
            cfg = TrainConfig(c_init=3, c_max=8, max_epochs=120, patience_grow=2, seed=seed)
            model, state = start(R, Y, cfg)
            while state.metrics.epochs < cfg.max_epochs and not state.metrics.stop_reason:
                step(state, model, Y, cfg)
                assert np.all(np.isfinite(state.sigma))
            if engine.NONFINITE_SIGMA in state.metrics.causes:
                overflowed.add(seed)
        assert {1, 4} <= overflowed

    def test_growth_respects_capacity(self):
        X, y = synthetic_blobs(40, classes=2, sep=1.0, noise=2.0, seed=9)
        R = from_features(X)
        Y = one_hot(y, 2)
        cfg = TrainConfig(c_init=2, c_max=4, seed=4, max_epochs=300)
        res = train(R, Y, cfg)
        assert cfg.c_init + sum(res.metrics.grew) <= cfg.c_max

    def test_prototypes_weigh_training_nodes_only(self):
        # a checkpoint keeps the weights over the training nodes alone: the
        # weights of every other node stay exactly 0 through shifts and growth
        X, y = synthetic_blobs(60, classes=2, sep=1.0, dim=5, seed=4)
        R, Y = from_features(X), one_hot(y, 2)
        counts = []
        for seed in range(2):
            cfg = TrainConfig(c_init=2, c_max=5, patience_grow=2, seed=seed, max_epochs=100)
            res = train(R, Y, cfg)
            off = np.setdiff1d(np.arange(60), res.split.train)
            assert np.all(res.prototypes[:, off] == 0.0)
            counts.append(res.params.c)
        assert max(counts) > 2  # a kept prototype was grown

    @pytest.mark.parametrize(
        "mode, max_epochs", [("free", 100), ("medoid", 100), ("free", 0)]
    )
    def test_output_is_the_returned_networks_response(self, mode, max_epochs):
        # the returned responses are bitwise those that `relrbf eval`
        # recomputes from the returned network and prototypes; with no epoch
        # they are the initial network's
        X, y = synthetic_blobs(60, classes=2, sep=1.0, dim=5, seed=4)
        R, Y = from_features(X).power(1.5), one_hot(y, 2)
        cfg = TrainConfig(
            c_init=2, c_max=5, patience_grow=2, seed=0, max_epochs=max_epochs,
            prototype_mode=mode,
        )
        res = train(R, Y, cfg)
        assert max_epochs == 0 or (any(res.metrics.grew) and res.metrics.best_epoch > 0)
        expected = forward(prototype_distances(R, res.prototypes), res.params)
        assert np.array_equal(res.output, expected)

    def test_best_validation_params_returned(self):
        X, y = synthetic_blobs(40, classes=2, sep=3.0, seed=10)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=2, c_max=4, seed=5, max_epochs=120))
        m = res.metrics
        assert m.best_val_sse == pytest.approx(min(m.sse_val))
        assert m.sse_val[m.best_epoch] == pytest.approx(m.best_val_sse)


def start(R, Y, config):
    """A graph run's model and its state before the first epoch, made by the
    engine's ``start_run``."""
    build = partial(relational_model_from_partition, R, config)
    [(model, state)] = run_lockstep([engine.start_run(build, Y, config)])
    return model, state


def step(state, model, Y, config):
    """One ``engine.epoch`` on ``state``, in place, driven by ``run_lockstep``."""
    assert run_lockstep([engine.epoch(state, model, Y, config)]) == [None]


def assert_same_bits(a, b, path="state"):
    """Two run states hold the same values, bit for bit, field by field."""
    if isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state, path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):  # the Evaluation and the best epoch too
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_bits(x, y, f"{path}[{i}]")
    elif isinstance(a, (np.ndarray, float)):
        x, y = np.asarray(a), np.asarray(b)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), path
    else:
        assert type(a) is type(b) and a == b, path


class TestEpoch:
    """``engine.epoch`` is one epoch on a ``RunState``; ``training_run``
    runs ``start_run`` and then one epoch after another."""

    def test_copied_state_repeats_the_epoch(self):
        # a deep copy of a mid-run state, generator included, is a run of its
        # own: the same epoch takes it to the run's next state, bit for bit
        X, y = synthetic_blobs(60, classes=2, sep=1.0, dim=5, seed=4)
        R, Y = from_features(X).power(1.5), one_hot(y, 2)
        cfg = TrainConfig(c_init=2, c_max=5, patience_grow=2, seed=0, max_epochs=100)
        m = train(R, Y, cfg).metrics
        picks = {
            m.grew.index(True),
            m.causes.index(engine.ACCEPTED),
            m.causes.index(engine.MSE_RISE),
        }
        model, state = start(R, Y, cfg)
        for t in range(max(picks) + 1):
            before = copy.deepcopy(state) if t in picks else None
            step(state, model, Y, cfg)
            if before is not None:
                step(before, model, Y, cfg)
                assert_same_bits(before, state)
        # the start and the epochs stepped alone are the trained run
        assert state.metrics.causes == m.causes[: max(picks) + 1]
        assert state.metrics.sse_val == m.sse_val[: max(picks) + 1]

    def test_degenerate_shift_halves_the_rate_scale(self, monkeypatch):
        def degenerate(self, V, eps_h, etas):
            raise DegenerateShiftError("shifted weights sum to zero")

        monkeypatch.setattr(RelationalModel, "shift", degenerate)
        X, y = synthetic_blobs(30, classes=2, sep=3.0, seed=12)
        R, Y = from_features(X), one_hot(y, 2)
        cfg = TrainConfig(c_init=2, seed=0, max_epochs=4)
        res = train(R, Y, cfg)
        assert res.metrics.causes == [engine.DEGENERATE_SHIFT] * 4
        assert res.metrics.grew == [False] * 4
        assert res.metrics.lr_scale == [0.5, 0.25, 0.125, 0.0625]
        assert res.metrics.accepted == [False] * 4
        # such an epoch asks for no distances; the driver runs it all the same
        model, state = start(R, Y, cfg)
        step(state, model, Y, cfg)
        before = copy.deepcopy(state)
        step(state, model, Y, cfg)
        step(before, model, Y, cfg)
        assert_same_bits(before, state)

    @pytest.mark.parametrize(
        "reason, blobs, cfg, epochs",
        [
            ("validation_patience", dict(n=60, sep=1.0, dim=5, seed=4),
             dict(c_init=2, c_max=5, patience_grow=2, patience_stop=3, seed=0), 49),
            ("objective_plateau", dict(n=40, sep=3.0, seed=10),
             dict(c_init=2, c_max=4, exit_tol=1e3, exit_window=3, seed=5), 13),
        ],
    )
    def test_last_epoch_alone_sets_the_stop(self, reason, blobs, cfg, epochs):
        # the stop rules live in the epoch: driven alone from the state
        # before a run's last epoch, it stops the run for the run's reason
        X, y = synthetic_blobs(classes=2, **blobs)
        R, Y = from_features(X), one_hot(y, 2)
        config = TrainConfig(max_epochs=100, **cfg)
        res = train(R, Y, config)
        assert res.metrics.stop_reason == reason and res.metrics.epochs == epochs
        model, state = start(R, Y, config)
        while not state.metrics.stop_reason:
            assert state.metrics.epochs < epochs
            before = copy.deepcopy(state)
            step(state, model, Y, config)
        assert state.metrics.epochs == epochs and before.metrics.stop_reason == ""
        step(before, model, Y, config)
        assert before.metrics.stop_reason == reason
        assert_same_bits(before, state)

    def test_plateau_stops_where_the_accepted_window_says(self):
        # a tolerance below the SSEs themselves, and a last window whose two
        # ends differ: the run stops at the first epoch whose last `k`
        # accepted steps moved the training SSE by less than `exit_tol`
        X, y = synthetic_blobs(40, classes=2, sep=3.0, seed=10)
        R, Y = from_features(X), one_hot(y, 2)
        tol, k = 1e-2, 3
        config = TrainConfig(c_init=2, c_max=4, exit_tol=tol, exit_window=k, seed=5, max_epochs=100)
        model, state = start(R, Y, config)
        plateau = False
        while not plateau:
            assert state.metrics.epochs < 65
            step(state, model, Y, config)
            sse = state.accepted_sse
            plateau = len(sse) > k and abs(sse[-1] - sse[-1 - k]) < tol
            assert state.metrics.stop_reason == ("objective_plateau" if plateau else "")
        assert state.metrics.epochs == 65
        assert 0.0 < abs(sse[-1] - sse[-1 - k]) < tol < min(sse)
        assert train(R, Y, config).metrics.epochs == 65


class TestLockstep:
    """A run trained in a lock-step group is the run ``train`` makes alone;
    only the stacked ``V @ R`` product may change its last bits."""

    def test_group_runs_match_single_runs(self):
        # growth-heavy: the runs grow at different epochs and the last one
        # stops on validation patience while the others go on
        X, y = synthetic_blobs(300, classes=2, sep=1.0, dim=5, seed=4)
        R, Y = from_features(X), one_hot(y, 2)
        configs = [
            TrainConfig(
                c_init=2, c_max=5, patience_grow=2, patience_stop=5, seed=s, max_epochs=100
            )
            for s in range(5)
        ]
        grouped = train_group(R, Y, configs)
        alone = [train(R, Y, cfg) for cfg in configs]

        reasons = [res.metrics.stop_reason for res in alone]
        assert "validation_patience" in reasons and "max_epochs" in reasons
        assert len({res.metrics.epochs for res in alone}) > 1
        assert sum(any(res.metrics.grew) for res in alone) >= 3
        for g, a in zip(grouped, alone):
            assert g.metrics.epochs == a.metrics.epochs
            assert g.metrics.stop_reason == a.metrics.stop_reason
            assert g.params.c == a.params.c
            assert g.metrics.grew == a.metrics.grew
            for name in ("sse_train", "sse_val", "sse_test"):
                np.testing.assert_allclose(
                    getattr(g.metrics, name), getattr(a.metrics, name), rtol=1e-12, atol=0
                )
            ev_g = evaluate_network(g.output, Y, g.split)
            ev_a = evaluate_network(a.output, Y, a.split)
            for split_name in ("train", "test", "val"):
                assert ev_g[split_name]["accuracy"] == ev_a[split_name]["accuracy"]

    def test_group_of_one_is_train(self):
        X, y = synthetic_blobs(60, classes=2, sep=2.0, seed=6)
        R, Y = from_features(X), one_hot(y, 2)
        cfg = TrainConfig(c_init=3, c_max=5, patience_grow=2, seed=2, max_epochs=60)
        (g,), a = train_group(R, Y, [cfg]), train(R, Y, cfg)
        assert type(g) is type(a) is TrainResult
        assert np.array_equal(g.prototypes, a.prototypes)
        assert g.metrics == a.metrics
        assert np.array_equal(g.output, a.output)
        assert np.array_equal(g.params.W, a.params.W)
