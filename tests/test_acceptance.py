"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin (run with ``pytest -s`` to see the
lines as they complete).

The two file-backed datasets beyond the breast-mass one cannot be fetched in
a sandboxed environment; their criteria run whenever the official files are
placed under $RELRBF_DATA_DIR or ./data and skip otherwise.
"""

import time

import numpy as np
import pytest

from relrbf import (
    AdjacencyMatrix, cmds, from_features, initialization, pmds, prototype_distances, validate,
)
from relrbf import vector_oracle
from relrbf.datasets import ingest, one_hot, synthetic_blobs
from relrbf.engine import (
    RelationalModel,
    TrainConfig,
    bandwidth_step,
    output_errors,
    output_step,
    shift_coefficients,
)
from relrbf.initialization import relational_kmeans
from relrbf.network import NetworkParams, forward, gaussian_kernel
from relrbf.training import evaluate_network, train
from relrbf.vector_oracle import duality_check, vector_kmeans

from conftest import brute_force_distance, find_dataset_file, kmeans_history


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"{marker} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_distance_identity():
    """1000 random instances: node distances equal brute-force squared
    distances to the weighted average, within 1e-10 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 9))
        X = rng.standard_normal((n, d))
        u = rng.uniform(0.05, 1.0, n)
        v = u / u.sum()
        rel = prototype_distances(from_features(X), v[None, :])[0]
        brute = brute_force_distance(X, v)
        scale = np.maximum(1.0, np.einsum("ij,ij->i", X, X))
        worst = max(worst, float(np.max(np.abs(rel - brute) / scale)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"max relative error {worst:.3e} (tol 1e-10) in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_trajectory_duality():
    """20 realizable instances, 20 epochs each: graph and vector trainers
    agree on every parameter and response within 1e-8 absolute."""
    t0 = time.perf_counter()
    master = np.random.default_rng(202)
    worst = 0.0
    failures = []
    for i in range(20):
        n = int(master.integers(25, 61))
        d = int(master.integers(2, 9))
        X = master.standard_normal((n, d))
        cfg = TrainConfig(
            c_init=int(master.integers(2, 5)),
            c_max=6,
            seed=int(master.integers(0, 2**31)),
        )
        rep = duality_check(from_features(X), config=cfg, epochs=20)
        worst = max(worst, rep.max_deviation)
        if not rep.passed:
            failures.append((i, rep.max_deviation, rep.message))
    elapsed = time.perf_counter() - t0
    report(
        2,
        not failures and elapsed < 30.0,
        f"20/20 instances within 1e-8 (worst {worst:.3e}) in {elapsed:.1f}s (< 30s)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_03_shift_equivalence():
    """500 single prototype-shift steps: the trainer's node-weight
    recombination (``RelationalModel.shift`` then ``distances``) agrees with
    the explicit latent-shift oracle within 1e-9 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 8))
        X = rng.standard_normal((n, d))
        R = from_features(X)
        u = rng.uniform(0.05, 1.0, n)
        w = u / u.sum()
        eps = rng.standard_normal(n) * 0.5
        eta = float(rng.uniform(0.01, 1.5))
        model = RelationalModel(R)
        new_d = model.distances(model.shift(w[None, :], eps[None, :], np.array([eta])))[0]
        latent = w @ X
        shifted = latent + eta * (eps @ (X - latent))
        oracle = ((X - shifted) ** 2).sum(axis=1)
        rel = np.abs(new_d - oracle) / np.maximum(1.0, np.abs(oracle))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst <= 1e-9 and elapsed < 5.0,
        f"max relative error {worst:.3e} (tol 1e-9) in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_gradient_checks():
    """100 random parameter points: the trainer's weight, shift and bandwidth
    steps (every node a training node) match central finite differences of
    the squared error within 1e-5 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 20))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        g = int(rng.integers(1, 3))
        X = rng.standard_normal((n, d))
        P = rng.standard_normal((c, d))
        Y = rng.standard_normal((n, g))
        params = NetworkParams(
            w0=rng.uniform(-1, 1, g),
            W=rng.uniform(-1, 1, (c, g)),
            sigma=rng.uniform(0.5, 2.5, c),
        )
        D = ((X[None, :, :] - P[:, None, :]) ** 2).sum(-1)

        def sse_at(w0_, W_, sigma_):
            resp = forward(D, NetworkParams(w0_, W_, sigma_))
            return float(np.sum((Y - resp) ** 2))

        def sse_at_prototypes(P_):
            D_ = ((X[None, :, :] - P_[:, None, :]) ** 2).sum(-1)
            resp = forward(D_, params)
            return float(np.sum((Y - resp) ** 2))

        H = gaussian_kernel(D, params.sigma[:, None])
        eps = output_errors(Y, H, params.W, params.w0)
        eta = 1e-3
        tr, train_mask = np.arange(n), np.ones(n, dtype=bool)
        w0_step, W_step = output_step(params.w0, params.W, H, eps, eta, eta, tr)
        sigma_step = bandwidth_step(
            params.sigma, params.W, H, D, eps, eta, tr, TrainConfig().sigma_min
        )
        eps_h = shift_coefficients(params.W, H, eps, params.sigma, train_mask)
        dW = (W_step - params.W) / eta
        dw0 = (w0_step - params.w0) / eta
        dsig = (sigma_step - params.sigma) / eta
        for j in range(c):
            for k in range(g):
                Wp, Wm = params.W.copy(), params.W.copy()
                Wp[j, k] += h
                Wm[j, k] -= h
                num = (sse_at(params.w0, Wp, params.sigma) - sse_at(params.w0, Wm, params.sigma)) / (2 * h)
                worst = max(worst, abs(num + 2 * dW[j, k]) / max(1.0, abs(2 * dW[j, k])))
        for k in range(g):
            wp, wm = params.w0.copy(), params.w0.copy()
            wp[k] += h
            wm[k] -= h
            num = (sse_at(wp, params.W, params.sigma) - sse_at(wm, params.W, params.sigma)) / (2 * h)
            worst = max(worst, abs(num + 2 * dw0[k]) / max(1.0, abs(2 * dw0[k])))
        for j in range(c):
            sp, sm = params.sigma.copy(), params.sigma.copy()
            sp[j] += h
            sm[j] -= h
            num = (sse_at(params.w0, params.W, sp) - sse_at(params.w0, params.W, sm)) / (2 * h)
            worst = max(worst, abs(num + 2 * dsig[j]) / max(1.0, abs(2 * dsig[j])))
        # dSSE/dv_j = -2 sum_i eps_h[j, i] (x_i - v_j)
        for j in range(c):
            for dim in range(d):
                Pp, Pm = P.copy(), P.copy()
                Pp[j, dim] += h
                Pm[j, dim] -= h
                num = (sse_at_prototypes(Pp) - sse_at_prototypes(Pm)) / (2 * h)
                ana = -2.0 * float(eps_h[j] @ (X[:, dim] - P[j, dim]))
                worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst <= 1e-5 and elapsed < 10.0,
        f"max relative error {worst:.3e} (tol 1e-5) in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_05_kmeans_equivalence():
    """50 realizable instances with shared initial partitions: relational and
    vector k-means produce identical partition sequences."""
    t0 = time.perf_counter()
    mismatches = 0
    for s in range(50):
        rng = np.random.default_rng(5000 + s)
        n = int(rng.integers(15, 60))
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 6))
        X = rng.standard_normal((n, d)) + rng.integers(0, 3, (n, 1)) * 2.0
        init = rng.integers(0, c, n)
        h_rel = kmeans_history(initialization, relational_kmeans, from_features(X), c, init)
        h_vec = kmeans_history(vector_oracle, vector_kmeans, X, c, init)
        same = len(h_rel) == len(h_vec) and all(
            np.array_equal(a, b) for a, b in zip(h_rel, h_vec)
        )
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    report(
        5,
        mismatches == 0 and elapsed < 10.0,
        f"{50 - mismatches}/50 identical partition sequences in {elapsed:.1f}s (< 10s)",
    )


MC_RUNS = 10


def run_monte_carlo(R, Y, c_init, c_max, base_seed=0, max_epochs=800):
    accs = {"train": [], "test": [], "val": []}
    deviations = []
    for i in range(MC_RUNS):
        cfg = TrainConfig(c_init=c_init, c_max=c_max, seed=base_seed + i, max_epochs=max_epochs)
        res = train(R, Y, cfg)
        ev = evaluate_network(res.output, Y, res.split)
        for k in accs:
            accs[k].append(ev[k]["accuracy"])
            deviations.append(ev[k]["deviation"].ravel())
    return {k: np.array(v) for k, v in accs.items()}, np.concatenate(deviations)


@pytest.fixture(scope="module")
def wdbc_runs(wdbc_file):
    data = ingest("wdbc", wdbc_file)
    t0 = time.perf_counter()
    accs, devs = run_monte_carlo(data.R, data.Y, c_init=10, c_max=45)
    return accs, devs, time.perf_counter() - t0


def test_criterion_06a_wdbc_accuracy(wdbc_runs):
    accs, _, elapsed = wdbc_runs
    tr, te = accs["train"].mean(), accs["test"].mean()
    report(
        "6a",
        tr >= 0.95 and te >= 0.93 and elapsed < 900,
        f"breast-mass graph over {MC_RUNS} runs: train {tr:.4f} (>= 0.95), "
        f"test {te:.4f} (>= 0.93) in {elapsed:.0f}s",
    )


def test_criterion_06b_voting_accuracy():
    path = find_dataset_file("house-votes-84.data", "voting.data")
    if path is None:
        pytest.skip(
            "criterion 6b needs house-votes-84.data; the sandbox has no way to "
            "fetch it (package-mirror network only). Place the official file "
            "under $RELRBF_DATA_DIR or ./data to run."
        )
    data = ingest("voting", path)
    t0 = time.perf_counter()
    accs, _ = run_monte_carlo(data.R, data.Y, c_init=10, c_max=35)
    elapsed = time.perf_counter() - t0
    tr = accs["train"].mean()
    report("6b", tr >= 0.92, f"voting graph train accuracy {tr:.4f} (>= 0.92) in {elapsed:.0f}s")


def test_criterion_06c_heart_accuracy():
    path = find_dataset_file("processed.cleveland.data", "heart-cleveland.data")
    if path is None:
        pytest.skip(
            "criterion 6c needs processed.cleveland.data; the sandbox has no "
            "way to fetch it (package-mirror network only). Place the official "
            "file under $RELRBF_DATA_DIR or ./data to run."
        )
    data = ingest("heart-cleveland", path)
    t0 = time.perf_counter()
    accs, _ = run_monte_carlo(data.R, data.Y, c_init=10, c_max=30)
    elapsed = time.perf_counter() - t0
    tr = accs["train"].mean()
    report("6c", tr >= 0.80, f"heart graph train accuracy {tr:.4f} (>= 0.80) in {elapsed:.0f}s")


def test_criterion_07_wdbc_response_deviation(wdbc_runs):
    _, devs, _ = wdbc_runs
    mean, std = float(devs.mean()), float(devs.std())
    report(
        7,
        -0.05 <= mean <= 0.05 and std <= 0.3,
        f"breast-mass response deviation {mean:+.4f} (within +/-0.05), "
        f"std {std:.4f} (<= 0.3)",
    )


def test_criterion_08_medoid_mode_degradation():
    """Free prototypes must do at least as well as medoid-constrained ones on
    a 3-class blob graph, averaged over 10 paired seeds."""
    X, y = synthetic_blobs(90, classes=3, sep=3.0, noise=1.0, seed=11)
    R = from_features(X)
    Y = one_hot(y, 3)
    free_acc, medoid_acc = [], []
    for seed in range(10):
        for mode, accs in (("free", free_acc), ("medoid", medoid_acc)):
            cfg = TrainConfig(
                c_init=6, c_max=12, seed=seed, max_epochs=400, prototype_mode=mode
            )
            res = train(R, Y, cfg)
            ev = evaluate_network(res.output, Y, res.split)
            accs.append(ev["test"]["accuracy"])
    free_mean, medoid_mean = np.mean(free_acc), np.mean(medoid_acc)
    report(
        8,
        free_mean >= medoid_mean,
        f"free test accuracy {free_mean:.4f} >= medoid {medoid_mean:.4f} "
        f"over 10 paired seeds",
    )


def test_criterion_09_cmds_round_trip(nonrealizable_R):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    # the graph alone: cMDS by its full spectrum, not by the features' SVD
    R = AdjacencyMatrix(from_features(rng.standard_normal((20, 5))).values)
    back = from_features(cmds(R).X)
    rel_err = np.max(np.abs(back.values - R.values)) / R.values.max()
    altered = float(np.max(np.abs(from_features(cmds(nonrealizable_R).X).values - nonrealizable_R.values)))
    assert not validate(nonrealizable_R).euclidean_embeddable
    elapsed = time.perf_counter() - t0
    report(
        9,
        rel_err <= 1e-8 and altered > 0 and elapsed < 1.0,
        f"realizable round-trip {rel_err:.3e} (<= 1e-8); non-realizable max "
        f"entry change {altered:.3f} (> 0) in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_10_transform_degradation():
    """On a non-realizable synthetic graph, training on either spectral
    projection does no better than training on the graph itself (the same
    10 seeds); stands in for the unavailable proprietary-graph comparisons.

    What it shows is weaker than the paper's claim.  pmds inflates every
    entry by 2|lambda_min| (median off-diagonal entry 755 against 56), and
    with the protocol's fixed sigma range every pmds unit is dead: all 30
    units of the 10 runs vary by less than 1e-6 over the training nodes, so
    that half passes at chance (0.293 with 3 classes).  Most of the cmds
    margin (0.886 against 0.943) is the distance scale: with the cmds graph
    rescaled to the graph's median entry, it trails by 0.013 +- 0.022 over
    40 paired seeds, within noise."""
    X, y = synthetic_blobs(90, classes=3, sep=2.5, noise=1.0, seed=21)
    Y = one_hot(y, 3)
    R = from_features(X).power(1.5)
    assert not validate(R).euclidean_embeddable
    variants = {
        "untransformed": R,
        "cmds": from_features(cmds(R).X),
        "pmds": from_features(pmds(R).X),
    }
    means = {}
    for name, R_used in variants.items():
        accs = []
        for seed in range(10):
            cfg = TrainConfig(c_init=3, c_max=9, seed=seed, max_epochs=300)
            res = train(R_used, Y, cfg)
            ev = evaluate_network(res.output, Y, res.split)
            accs.append(ev["test"]["accuracy"])
        means[name] = float(np.mean(accs))
    ok = (
        means["cmds"] <= means["untransformed"]
        and means["pmds"] <= means["untransformed"]
    )
    report(
        10,
        ok,
        f"test accuracy untransformed {means['untransformed']:.4f} vs "
        f"cmds {means['cmds']:.4f} and pmds {means['pmds']:.4f} (both <=)",
    )
