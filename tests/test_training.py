"""The engine's update rules (verified against finite differences and a
coordinate-space oracle), the guard that they are the rules training runs,
and the full training loop."""

import tracemalloc

import numpy as np
import pytest

from relrbf import NetworkParams, forward, from_features, gaussian_kernel
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
    shift_coefficients,
)
from relrbf.errors import NonpositiveEtaError, NonpositiveSigmaError
from relrbf.prototypes import DistanceState
from relrbf.training import evaluate_network, train, train_group
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
    return rng, X, P, Y, params, DistanceState(D)


def sse_of(Y, ds, params):
    resp = forward(ds, params)
    return float(np.sum((np.asarray(Y) - resp.output) ** 2))


def kernel_and_errors(Y, ds, params):
    """The engine's hidden responses and residuals at a parameter point."""
    H = gaussian_kernel(ds.d, params.sigma[:, None])
    return H, output_errors(np.atleast_2d(Y), H, params.W, params.w0)


def all_train(n):
    """Training rows and mask that make every node a training node."""
    return np.arange(n), np.ones(n, dtype=bool)


def shifted_model(R, weights, eps, eta):
    """One-prototype RelationalModel after a single shift step."""
    model = RelationalModel(R, np.asarray(weights, dtype=float)[None, :])
    model.shift(np.atleast_2d(eps), np.array([eta]))
    return model


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
        _, _, _, Y, params, ds = random_instance(0)
        H, eps = kernel_and_errors(Y, ds, params)
        tr, _ = all_train(ds.n)
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
            _, _, _, Y, params, ds = random_instance(seed)
            H, eps = kernel_and_errors(Y, ds, params)
            tr, _ = all_train(ds.n)
            w0, W = output_step(params.w0, params.W, H, eps, 1e-4, 1e-4, tr)
            assert sse_of(Y, ds, NetworkParams(w0, W, params.sigma)) < sse_of(Y, ds, params)

    def test_sums_training_rows_only(self):
        _, _, _, Y, params, ds = random_instance(6, n=12)
        H, eps = kernel_and_errors(Y, ds, params)
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
            _, _, _, Y, params, ds = random_instance(seed)
            H, eps = kernel_and_errors(Y, ds, params)
            tr, _ = all_train(ds.n)
            _, W_step = output_step(params.w0, params.W, H, eps, 1.0, 1.0, tr)
            dW_analytic = W_step - params.W
            for j in range(params.c):
                for k in range(params.g):
                    Wp, Wm = params.W.copy(), params.W.copy()
                    Wp[j, k] += h
                    Wm[j, k] -= h
                    num = (
                        sse_of(Y, ds, NetworkParams(params.w0, Wp, params.sigma))
                        - sse_of(Y, ds, NetworkParams(params.w0, Wm, params.sigma))
                    ) / (2 * h)
                    ana = -2.0 * dW_analytic[j, k]
                    worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestHiddenErrors:
    """``shift_coefficients``: the engine's backpropagated shift rule."""

    def test_zero_output_errors(self):
        _, _, _, Y, params, ds = random_instance(2)
        H, eps = kernel_and_errors(Y, ds, params)
        _, mask = all_train(ds.n)
        eps_h = shift_coefficients(params.W, H, np.zeros_like(eps), params.sigma, mask)
        assert np.all(eps_h == 0)

    def test_known_value(self):
        eps_h = shift_coefficients(
            np.array([[2.0]]), np.ones((1, 1)), np.array([[0.5]]), np.ones(1), np.ones(1, dtype=bool)
        )
        assert eps_h[0, 0] == pytest.approx(1.0)

    def test_zeroed_off_training_set(self):
        _, _, _, Y, params, ds = random_instance(7, n=10)
        H, eps = kernel_and_errors(Y, ds, params)
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
            rng, X, P, Y, params, ds = random_instance(seed)
            H, eps = kernel_and_errors(Y, ds, params)
            _, mask = all_train(ds.n)
            eps_h = shift_coefficients(params.W, H, eps, params.sigma, mask)
            for j in range(params.c):
                for dim in range(X.shape[1]):
                    Pp, Pm = P.copy(), P.copy()
                    Pp[j, dim] += h
                    Pm[j, dim] -= h
                    def at(Pl):
                        Dl = ((X[None, :, :] - Pl[:, None, :]) ** 2).sum(-1)
                        return sse_of(Y, DistanceState(Dl), params)
                    num = (at(Pp) - at(Pm)) / (2 * h)
                    ana = -2.0 * float(eps_h[j] @ (X[:, dim] - P[j, dim]))
                    worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestOffsetDistances:
    """``RelationalModel.shift`` followed by ``distances()``."""

    def test_zero_errors_no_change(self, three_point_R):
        w = np.array([0.5, 0.5, 0.0])
        before = RelationalModel(three_point_R, w[None, :]).distances()
        model = shifted_model(three_point_R, w, np.zeros(3), 0.4)
        np.testing.assert_array_equal(model.distances(), before)
        np.testing.assert_array_equal(model.V[0], w)

    def test_explicit_shift_example(self, three_points, three_point_R):
        # prototype at the first node, pulled a quarter of the way to the
        # second: latent point (0.25, 0)
        model = shifted_model(three_point_R, [1.0, 0.0, 0.0], np.array([0.0, 1.0, 0.0]), 0.25)
        d = model.distances()[0]
        np.testing.assert_allclose(model.V[0], [0.75, 0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(d, [0.0625, 0.5625, 1.0625], atol=1e-12)
        np.testing.assert_allclose(d, brute_force_distance(three_points, model.V[0]), atol=1e-12)

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
            d = shifted_model(R, w, eps_h, eta).distances()[0]
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
            new_d = shifted_model(R, w, eps, eta).distances()[0]
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
            new_d = shifted_model(three_point_R, w, eps, eta).distances()[0]
            poly = d0 + distance_offset_terms(three_point_R, w, eps, eta)
            np.testing.assert_allclose(new_d, poly, rtol=1e-9, atol=1e-12)

    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(5)
        R = from_features(np.random.default_rng(0).standard_normal((8, 2)))
        model = RelationalModel(R, np.full((1, 8), 1 / 8))
        for _ in range(200):
            model.shift(rng.standard_normal((1, 8)), np.array([0.3]))
        assert abs(model.V[0].sum() - 1.0) <= 1e-12


class TestUpdateBandwidths:
    """``bandwidth_step``: the engine's bandwidth rule."""

    SIGMA_MIN = TrainConfig().sigma_min

    def step(self, params, ds, eps, eta, H=None):
        H = gaussian_kernel(ds.d, params.sigma[:, None]) if H is None else H
        tr, _ = all_train(ds.n)
        return bandwidth_step(params.sigma, params.W, H, ds.d, eps, eta, tr, self.SIGMA_MIN)

    def test_zero_errors_no_change(self):
        _, _, _, Y, params, ds = random_instance(4)
        _, eps = kernel_and_errors(Y, ds, params)
        assert np.array_equal(self.step(params, ds, np.zeros_like(eps), 0.2), params.sigma)

    def test_zero_distances_no_change(self):
        params = NetworkParams(w0=[0.0], W=[[1.0]], sigma=[1.5])
        ds = DistanceState(np.zeros((1, 6)))
        assert np.array_equal(self.step(params, ds, np.full((6, 1), 0.7), 0.2), params.sigma)

    def test_clamped_below(self):
        params = NetworkParams(w0=[0.0], W=[[5.0]], sigma=[1.0])
        ds = DistanceState(np.full((1, 4), 1.0))
        # strongly negative errors drive sigma far below zero: clamp engages
        assert self.step(params, ds, np.full((4, 1), -10.0), 1.0)[0] == pytest.approx(1e-3)

    def test_matches_finite_differences(self):
        h = 1e-6
        eta = 1e-3  # small enough that the lower clamp never engages
        worst = 0.0
        for seed in range(20):
            _, _, _, Y, params, ds = random_instance(seed)
            H, eps = kernel_and_errors(Y, ds, params)
            delta = (self.step(params, ds, eps, eta, H) - params.sigma) / eta
            for j in range(params.c):
                sp, sm = params.sigma.copy(), params.sigma.copy()
                sp[j] += h
                sm[j] -= h
                num = (
                    sse_of(Y, ds, NetworkParams(params.w0, params.W, sp))
                    - sse_of(Y, ds, NetworkParams(params.w0, params.W, sm))
                ) / (2 * h)
                ana = -2.0 * delta[j]
                worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
        assert worst <= 1e-5


class TestAdaptLearningRate:
    CONFIG = TrainConfig()

    def test_reject_and_decay(self):
        scale, accept = adapt_learning_rate(1.0, 1.1, 1.0, self.CONFIG)
        assert not accept and scale == pytest.approx(0.7)

    def test_accept_and_grow(self):
        scale, accept = adapt_learning_rate(1.0, 0.9, 1.0, self.CONFIG)
        assert accept and scale == pytest.approx(1.05)

    def test_between_thresholds_unchanged(self):
        scale, accept = adapt_learning_rate(1.0, 1.02, 1.0, self.CONFIG)
        assert accept and scale == 1.0

    def test_non_finite_rejected(self):
        scale, accept = adapt_learning_rate(1.0, float("nan"), 1.0, self.CONFIG)
        assert not accept and scale == pytest.approx(0.7)


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
        model = RelationalModel(three_point_R, np.full((1, 3), 1 / 3))
        model.grow(m)
        np.testing.assert_array_equal(model.V[1], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(model.distances()[1], three_point_R.values[:, 1])

    def test_at_capacity_no_op(self):
        assert self._grow(5, c_max=1)[0] is None


class TestTrainConfig:
    def test_requires_positive_eta(self):
        with pytest.raises(NonpositiveEtaError):
            TrainConfig(eta_range=(0.0, 1.0))
        with pytest.raises(NonpositiveEtaError):
            TrainConfig(eta_range=(-2.0, -0.5))

    def test_requires_positive_sigma_min(self):
        for sigma_min in (0.0, -1e-3):
            with pytest.raises(NonpositiveSigmaError):
                TrainConfig(sigma_min=sigma_min)


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
        return X, one_hot(y, 2)

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
        ],
    )
    def test_engine_step_runs_in_both_trainers(self, monkeypatch, data, name):
        X, Y = data
        monkeypatch.setattr(engine, name, _raise_sentinel)
        with pytest.raises(Sentinel):
            train(from_features(X), Y, self.CONFIG)
        with pytest.raises(Sentinel):
            vector_train(X, Y, self.CONFIG)

    @pytest.mark.parametrize(
        "owner, name",
        # relational distances come from one stacked product in the driver
        [(RelationalModel, "shift"), (engine, "_distances")],
        ids=["shift", "distances"],
    )
    def test_relational_model_runs_in_graph_trainer(self, monkeypatch, data, owner, name):
        X, Y = data
        monkeypatch.setattr(owner, name, _raise_sentinel)
        with pytest.raises(Sentinel):
            train(from_features(X), Y, self.CONFIG)


class TestTrain:
    @pytest.mark.parametrize("mode", ["free", "medoid"])
    def test_training_subgraph_is_one_copy(self, mode):
        # the training subgraph of a validated graph is taken as one
        # principal-submatrix copy (0.49 n^2 doubles), not re-validated into a
        # second buffer
        from relrbf.datasets import apply_power

        n = 400
        X, y = synthetic_blobs(n, classes=2, dim=5, seed=0)
        R = apply_power(from_features(X), 1.5)
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
        ev = evaluate_network(res.params, res.d_state, Y, res.split)
        assert ev["train"]["accuracy"] == 1.0
        assert res.metrics.epochs <= 200

    def test_constant_targets_converge_to_constant_response(self):
        X, y = synthetic_blobs(20, classes=2, sep=5.0, seed=2)
        R = from_features(X)
        Y = np.tile([1.0, 0.0], (20, 1))
        res = train(R, Y, TrainConfig(c_init=2, seed=3, max_epochs=800))
        best = res.metrics.best_epoch
        assert res.metrics.sse_train[best] < 0.1
        ev = evaluate_network(res.params, res.d_state, Y, res.split)
        assert ev["train"]["accuracy"] == 1.0
        # response approaches the constant target everywhere
        resp = forward(res.d_state, res.params)
        assert np.max(np.abs(resp.output - Y)) < 0.25
        assert np.mean(np.abs(resp.output - Y)) < 0.05

    def test_identical_seed_identical_metrics(self):
        X, y = synthetic_blobs(30, classes=2, sep=4.0, seed=5)
        R = from_features(X)
        Y = one_hot(y, 2)
        cfg = TrainConfig(c_init=2, c_max=4, seed=11, max_epochs=60)
        a = train(R, Y, cfg).metrics.as_dict()
        b = train(R, Y, cfg).metrics.as_dict()
        assert a == b

    def test_accepted_mse_never_worse_than_threshold(self):
        X, y = synthetic_blobs(40, classes=2, sep=2.0, seed=6)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=3, c_max=5, seed=2, max_epochs=150))
        mse = res.metrics.mse_train
        accepted = res.metrics.accepted
        grew = res.metrics.grew
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
        from relrbf.datasets import apply_power

        X, y = synthetic_blobs(40, classes=2, sep=2.0, seed=8)
        R = apply_power(from_features(X), 1.5)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=3, c_max=5, seed=1, max_epochs=150))
        assert res.metrics.epochs > 0  # completes without blowing up
        assert all(v >= 0 for v in res.metrics.negative_distances)

    def test_growth_respects_capacity(self):
        X, y = synthetic_blobs(40, classes=2, sep=1.0, noise=2.0, seed=9)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=2, c_max=4, seed=4, max_epochs=300))
        assert max(res.metrics.n_prototypes) <= 4

    def test_best_validation_params_returned(self):
        X, y = synthetic_blobs(40, classes=2, sep=3.0, seed=10)
        R = from_features(X)
        Y = one_hot(y, 2)
        res = train(R, Y, TrainConfig(c_init=2, c_max=4, seed=5, max_epochs=120))
        m = res.metrics
        assert m.best_val_sse == pytest.approx(min(m.sse_val))
        assert m.sse_val[m.best_epoch] == pytest.approx(m.best_val_sse)


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
            ev_g = evaluate_network(g.params, g.d_state, Y, g.split)
            ev_a = evaluate_network(a.params, a.d_state, Y, a.split)
            for split_name in ("train", "test", "val"):
                assert ev_g[split_name]["accuracy"] == ev_a[split_name]["accuracy"]

    def test_group_of_one_is_train(self):
        X, y = synthetic_blobs(60, classes=2, sep=2.0, seed=6)
        R, Y = from_features(X), one_hot(y, 2)
        cfg = TrainConfig(c_init=3, c_max=5, patience_grow=2, seed=2, max_epochs=60)
        (g,), a = train_group(R, Y, [cfg]), train(R, Y, cfg)
        assert g.metrics.as_dict() == a.metrics.as_dict()
        assert np.array_equal(g.d_state.d, a.d_state.d)
        assert np.array_equal(g.params.W, a.params.W)
