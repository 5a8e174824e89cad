"""Shared gradient-descent trainer for graph-based and vector-based networks.

Both trainer front ends run this exact loop; they differ only in the
prototype backend, which answers two questions: what are the current
prototype-to-observation distances, and how do the prototypes move under a
backpropagated shift.  Because every random draw (split, initial partition,
parameter and learning-rate draws, growth draws) happens here in a fixed
order from one generator, two backends given the same seed consume identical
randomness and their trajectories can be compared epoch by epoch.

One epoch is ``epoch`` on the run's ``RunState``.  Its update rules are
small array functions (``output_step``, ``shift_coefficients``,
``bandwidth_step``, ``grow_step``) whose signs make an infinitesimal step
decrease the sum of squared errors, verified by finite differences in tests.

``training_run`` (the run's start, ``start_run``, then one ``epoch`` after
another) is the generator that ``run_lockstep`` drives, answering a group of
runs with one stacked ``V @ R`` product per round (the Monte Carlo runs of
``relrbf train`` go through it in groups of consecutive seeds, and a process
pool maps the groups); ``run_training`` drives one run.  Every entry point,
and both trainer front ends, return the same ``TrainResult``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateShiftError, InvalidClusterCountError
from .graph import AdjacencyMatrix
from .initialization import SplitIndices, init_params, split as make_split
from .network import NetworkParams, gaussian_kernel, response
from .prototypes import FREE, MEDOID, prototype_distances


def integer(value, name: str, least: int = 1):
    """An integer >= `least` (a numpy integer too, but not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def number(value, name: str, positive: bool = False):
    """A finite number, > 0 if `positive`; a boolean is not a number."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
        ok = ok and (value > 0 or not positive)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        bound = " > 0" if positive else ""
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def one_of(choices: tuple, value, name: str):
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}")
    return value


def increasing_pair(value, name: str, positive: bool = False) -> tuple:
    """Two finite numbers lo < hi, both > 0 if `positive`, as a tuple."""
    pair = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else ()
    if len(pair) != 2 or not number(pair[0], name, positive) < number(pair[1], name, positive):
        raise ConfigError(f"{name} must be an increasing pair of numbers, got {value!r}")
    return pair


# The value rule of each TrainConfig field: it takes a value and its name,
# returns the value (a pair as a tuple) and raises ConfigError naming the
# field.  The CLI checks a config's `train` object with the same table.
TRAIN_CHECKS = {
    "c_init": integer, "c_max": lambda v, name: v if v is None else integer(v, name),
    "seed": partial(integer, least=0), "eta_range": partial(increasing_pair, positive=True),
    "weight_init_range": increasing_pair,
    "sigma_init_range": partial(increasing_pair, positive=True),
    "lr_decay": number, "lr_growth": number, "mse_reject_ratio": number,
    "patience_stop": integer, "patience_grow": integer, "max_epochs": partial(integer, least=0),
    "exit_tol": number, "exit_window": integer, "sigma_min": partial(number, positive=True),
    "prototype_mode": partial(one_of, (FREE, MEDOID)), "stratify_split": flag,
}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the experimental protocol."""

    c_init: int = 2
    c_max: int | None = None
    seed: int = 0
    eta_range: tuple = (0.05, 2.0)
    weight_init_range: tuple = (-1.75, 1.75)
    sigma_init_range: tuple = (0.25, 3.75)
    lr_decay: float = 0.70
    lr_growth: float = 1.05
    mse_reject_ratio: float = 1.05
    patience_stop: int = 30
    patience_grow: int = 5
    max_epochs: int = 400
    exit_tol: float = 1e-10
    exit_window: int = 10
    sigma_min: float = 1e-3
    prototype_mode: str = FREE
    stratify_split: bool = False

    def __post_init__(self):
        # every number is finite: report.json echoes the config as strict
        # JSON, and no draw takes an infinite range
        for name, check in TRAIN_CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.c_max is None:
            object.__setattr__(self, "c_max", self.c_init)
        if self.c_init > self.c_max:
            raise InvalidClusterCountError(
                f"need c_init <= c_max, got {self.c_init}, {self.c_max}"
            )
        if not (0.0 < self.lr_decay < 1.0 < self.lr_growth):
            raise ValueError("need 0 < lr_decay < 1 < lr_growth")


@dataclass
class LearningRates:
    """Per-parameter base rates (fixed at init) times one adaptive scale."""

    w0: np.ndarray
    W: np.ndarray
    sigma: np.ndarray
    proto: np.ndarray
    scale: float = 1.0


# why an epoch's step was rejected, or ACCEPTED
ACCEPTED, MSE_RISE, NONFINITE_MSE = "accepted", "mse_rise", "nonfinite_mse"
DEGENERATE_SHIFT, NONFINITE_SIGMA = "degenerate_shift", "nonfinite_sigma"


def adapt_learning_rate(
    scale: float, mse_new: float, mse_old: float, config: TrainConfig
) -> tuple[float, str]:
    """Bold-driver schedule: reject a step whose training MSE is not finite
    (an overflowed step) or above ``config.mse_reject_ratio`` times the old
    one, decaying the rate scale; else accept it, growing the scale when the
    error strictly improved.  Returns the new scale and ACCEPTED or the cause."""
    if not math.isfinite(mse_new):
        return scale * config.lr_decay, NONFINITE_MSE
    if mse_new > config.mse_reject_ratio * mse_old:
        return scale * config.lr_decay, MSE_RISE
    if mse_new < mse_old:
        return scale * config.lr_growth, ACCEPTED
    return scale, ACCEPTED


def draw_rates(c: int, g: int, eta_range, rng) -> LearningRates:
    lo, hi = eta_range
    return LearningRates(
        w0=rng.uniform(lo, hi, size=g),
        W=rng.uniform(lo, hi, size=(c, g)),
        sigma=rng.uniform(lo, hi, size=c),
        proto=rng.uniform(lo, hi, size=c),
    )


def output_errors(Y: np.ndarray, H: np.ndarray, W: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Residuals eps_o = Y - (H' W + w0): desired minus produced, (n, g)."""
    return Y - response(H, W, w0)


def output_step(w0, W, H, eps_o, eta_w0, eta_W, tr):
    """One full-batch step on the output layer over the training rows ``tr``.

    w0[k] += eta_w0[k] sum_i eps_o[i, k];  W[j, k] += eta_W[j, k] sum_i h[j, i] eps_o[i, k].
    Returns the new (w0, W).
    """
    eps_tr = eps_o[tr]
    return w0 + eta_w0 * eps_tr.sum(axis=0), W + eta_W * (H[:, tr] @ eps_tr)


def shift_coefficients(W, H, eps_o, sigma, train_mask):
    """Backpropagated shift coefficients, one row per prototype.

    eps_h[j, i] = (sum_k eps_o[i, k] W[j, k]) h[j, i] / sigma_j^2, zeroed off
    the training set.  Moving prototype j by eta sum_i eps_h[j, i] (x_i - v_j)
    is a descent step on the squared error.
    """
    eps_h = W @ eps_o.T
    eps_h *= H
    eps_h /= sigma[:, None] ** 2
    eps_h[:, ~train_mask] = 0.0
    return eps_h


def bandwidth_step(sigma, W, H, D, eps_o, eta, tr, sigma_min):
    """One full-batch step on the Gaussian bandwidths over the training rows.

    sigma_j += eta_j sum_i (sum_k eps_o[i, k] W[j, k]) h[j, i] d[j, i] / sigma_j^3,
    clamped below by ``sigma_min``.
    """
    terms = W @ eps_o.T
    terms *= H
    terms *= D
    terms /= sigma[:, None] ** 3
    return np.maximum(sigma + eta * terms[:, tr].sum(axis=1), sigma_min)


def grow_step(val_run, err, tr, W, sigma, rates, config, rng):
    """Prototype growth, or None when it does not fire.

    Fires when the validation error has risen for a positive multiple of
    ``patience_grow`` consecutive epochs and c < c_max.  The new prototype
    sits at the training observation m with the largest output deviation in
    ``err``.  Five draws follow in fixed order: its output weights, its
    bandwidth, then its output-weight, bandwidth and shift rates (appended
    to ``rates`` in place).  Returns (m, W, sigma) with the new row appended.
    """
    if not (val_run > 0 and val_run % config.patience_grow == 0 and W.shape[0] < config.c_max):
        return None
    dev = np.abs(err[tr]).max(axis=1)
    m = int(tr[np.argmax(dev)])
    g = W.shape[1]
    W_row = rng.uniform(*config.weight_init_range, size=g)
    sigma_add = rng.uniform(*config.sigma_init_range)
    rates.W = np.vstack([rates.W, rng.uniform(*config.eta_range, size=g)])
    rates.sigma = np.append(rates.sigma, rng.uniform(*config.eta_range))
    rates.proto = np.append(rates.proto, rng.uniform(*config.eta_range))
    return m, np.vstack([W, W_row]), np.append(sigma, sigma_add)


class RelationalModel:
    """Prototype backend over an adjacency matrix: (c, n) weight rows that
    sum to 1.

    Prototype repositioning is simulated: instead of moving a latent point,
    ``shift`` recombines the node weights so that the recomputed node
    distances are exactly the distances to the shifted latent point.  The
    backend holds no prototypes: each method takes the weight rows and
    returns new ones.
    """

    def __init__(self, R: AdjacencyMatrix):
        self.R = R

    def distances(self, V: np.ndarray) -> np.ndarray:
        return prototype_distances(self.R, V)

    def shift(self, V: np.ndarray, eps_h: np.ndarray, etas: np.ndarray) -> np.ndarray:
        new_V = (1.0 - etas * eps_h.sum(axis=1))[:, None] * V
        new_V += etas[:, None] * eps_h
        # Sums equal 1 up to roundoff; renormalize so drift cannot accumulate.
        sums = new_V.sum(axis=1)
        if (np.abs(sums) < 1e-12).any():
            raise DegenerateShiftError("shifted weights sum to zero")
        return np.divide(new_V, sums[:, None], out=new_V)

    def grow(self, V: np.ndarray, m: int) -> np.ndarray:
        row = np.zeros((1, V.shape[1]))
        row[0, m] = 1.0
        return np.vstack([V, row])


class VectorModel:
    """Prototype backend over explicit feature vectors: (c, d) positions.

    Distances are sum_k s_k (x_k - p_k)^2 over the ``signature`` s of +1 and
    -1 entries (None: all +1, Euclidean); a signed space realizes any graph.
    The affine ``shift`` and ``grow`` do not depend on s."""

    def __init__(self, X: np.ndarray, signature: np.ndarray | None = None):
        x = np.asarray(X, dtype=float)
        self.X = x[:, None] if x.ndim == 1 else x  # one feature, as in `from_features`
        d = self.X.shape[1]
        self.signature = np.ones(d) if signature is None else np.asarray(signature, dtype=float)
        self.norms = np.einsum("nd,d,nd->n", self.X, self.signature, self.X)

    def distances(self, P: np.ndarray) -> np.ndarray:
        # |x|_s^2 - 2 x S p' + |p|_s^2 by matmul: no (c, n, d) temporary
        SP = P * self.signature
        return self.norms - 2.0 * (SP @ self.X.T) + np.einsum("cd,cd->c", SP, P)[:, None]

    def shift(self, P: np.ndarray, eps_h: np.ndarray, etas: np.ndarray) -> np.ndarray:
        s = eps_h.sum(axis=1)
        return P + etas[:, None] * (eps_h @ self.X - s[:, None] * P)

    def grow(self, P: np.ndarray, m: int) -> np.ndarray:
        return np.vstack([P, self.X[m][None, :]])


@dataclass
class TrainMetrics:
    """A run's one record of each epoch (SSEs, rate scale, negative distances,
    ``ACCEPTED`` or the rejection cause, growth), its best epoch and stop."""

    sse_train: list = field(default_factory=list)
    sse_val: list = field(default_factory=list)
    sse_test: list = field(default_factory=list)
    lr_scale: list = field(default_factory=list)
    negative_distances: list = field(default_factory=list)
    causes: list = field(default_factory=list)
    grew: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_sse: float = np.inf
    stop_reason: str = ""

    @property
    def epochs(self) -> int:
        return len(self.sse_train)

    @property
    def accepted(self) -> list:
        return [cause == ACCEPTED for cause in self.causes]


@dataclass
class TrainResult:
    """Best-validation network, prototypes, responses, and the run's metrics.

    ``prototypes`` are the best epoch's: (c, n) node weights from the graph
    trainer, (c, d) positions from the vector trainer.  ``output`` is the
    (n, g) network response the engine computed for that epoch.  Both are the
    final state's when no epoch became best.
    """

    params: NetworkParams
    prototypes: np.ndarray
    output: np.ndarray
    metrics: TrainMetrics
    split: SplitIndices


class Evaluation(NamedTuple):
    """A network's kernel, response, residuals Y - Yhat and SSE per split."""

    H: np.ndarray
    Yhat: np.ndarray
    err: np.ndarray
    sse_train: float
    sse_val: float
    sse_test: float


def evaluate(Y, si: SplitIndices, D, w0, W, sigma) -> Evaluation:
    # Oversized steps overflow the kernel; the resulting non-finite MSE is
    # rejected by the acceptance rule rather than raising here.
    with np.errstate(over="ignore", invalid="ignore"):
        H = gaussian_kernel(D, sigma[:, None], checked=False)
        Yhat = response(H, W, w0)
        err = Y - Yhat
        sq = (err**2).sum(axis=1)
    return Evaluation(H, Yhat, err, *(float(sq[idx].sum()) for idx in (si.train, si.val, si.test)))


@dataclass
class RunState:
    """What a run carries from one epoch to the next.  ``train_mask`` marks
    the split's training rows, ``current`` evaluates the network (the
    acceptance baseline), ``val_run`` counts consecutive validation rises,
    ``best`` is the best epoch's (w0, W, sigma, P, output)."""

    w0: np.ndarray
    W: np.ndarray
    sigma: np.ndarray
    P: np.ndarray
    D: np.ndarray
    rates: LearningRates
    rng: np.random.Generator
    split: SplitIndices
    train_mask: np.ndarray
    current: Evaluation
    metrics: TrainMetrics
    accepted_sse: list = field(default_factory=list)
    val_run: int = 0
    best: tuple | None = None


def epoch(state: RunState, model, Y, config: TrainConfig):
    """One epoch of the protocol on ``state``, in place: a sub-generator that
    yields ``(model, P)`` for distances.  An output-weight step, a simulated
    prototype shift, a bandwidth step at the shifted distances, the
    bold-driver test on the training MSE, which alone adopts the step's
    arrays; then the epoch's record in ``state.metrics``, the early-stopping
    count, the best epoch, growth, and the stop rules on that record."""
    s, rates, tr = state, state.rates, state.split.train
    with np.errstate(over="ignore", invalid="ignore"):
        H = s.current.H
        w0_new, W_new = output_step(
            s.w0, s.W, H, s.current.err, rates.scale * rates.w0, rates.scale * rates.W, tr
        )
        eps_o = output_errors(Y, H, W_new, w0_new)
        eps_h = shift_coefficients(W_new, H, eps_o, s.sigma, s.train_mask)

    try:
        P_new, D_new = s.P, s.D  # medoid prototypes stay still
        if config.prototype_mode == FREE:
            P_new = model.shift(s.P, eps_h, rates.scale * rates.proto)
            D_new = yield model, P_new
    except DegenerateShiftError:
        rates.scale *= 0.5
        cause = DEGENERATE_SHIFT
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            H2 = gaussian_kernel(D_new, s.sigma[:, None], checked=False)
            sigma_new = bandwidth_step(
                s.sigma, W_new, H2, D_new, output_errors(Y, H2, W_new, w0_new),
                rates.scale * rates.sigma, tr, config.sigma_min,
            )
        new = evaluate(Y, s.split, D_new, w0_new, W_new, sigma_new)
        # Negative distances can overflow sigma to inf, where the kernel is 1
        # and the MSE stays finite; such a step has diverged too.
        finite = np.isfinite(sigma_new).all()
        mse_new = new.sse_train / tr.size if finite else np.inf
        mse_old = s.current.sse_train / tr.size
        rates.scale, cause = adapt_learning_rate(rates.scale, mse_new, mse_old, config)
        cause = cause if finite else NONFINITE_SIGMA
        if cause == ACCEPTED:
            s.w0, s.W, s.sigma, s.P, s.D, s.current = w0_new, W_new, sigma_new, P_new, D_new, new
            s.accepted_sse.append(new.sse_train)

    m, now, t = s.metrics, s.current, s.metrics.epochs
    m.sse_train.append(now.sse_train)
    m.sse_val.append(now.sse_val)
    m.sse_test.append(now.sse_test)
    m.lr_scale.append(rates.scale)
    m.negative_distances.append(int(np.count_nonzero(s.D < 0)))
    m.causes.append(cause)

    if t > 0 and now.sse_val > m.sse_val[t - 1]:
        s.val_run += 1
    elif t > 0:
        s.val_run = 0
    if now.sse_val < m.best_val_sse:
        m.best_val_sse, m.best_epoch = now.sse_val, t
        s.best = (s.w0, s.W, s.sigma, s.P, now.Yhat)

    grown = grow_step(s.val_run, now.err, tr, s.W, s.sigma, rates, config, s.rng)
    if grown is not None:
        site, s.W, s.sigma = grown
        s.P = model.grow(s.P, site)
        s.D = yield model, s.P
        # Growth changes the network between epochs; re-baseline the
        # acceptance test and the current evaluation on the grown state.
        s.current = evaluate(Y, s.split, s.D, s.w0, s.W, s.sigma)
    m.grew.append(grown is not None)
    # The plateau test reads accepted steps only: a run of rejections repeats
    # the recorded objective verbatim and must not look like convergence.
    sse, k = s.accepted_sse, config.exit_window
    if s.val_run >= config.patience_stop:
        m.stop_reason = "validation_patience"
    elif len(sse) > k and abs(sse[-1] - sse[-1 - k]) < config.exit_tol:
        m.stop_reason = "objective_plateau"


def start_run(build_model, Y, config: TrainConfig):
    """The run's start on the (n, g) targets ``Y``, as a generator driven by
    ``run_lockstep``: it yields ``(model, P)`` once, for the start distances,
    and returns ``(model, RunState)``, the state before the first ``epoch``.
    The run's one generator is seeded by ``config.seed``; its first draw is
    the split (stratified by class when ``config.stratify_split``), its
    second the k-means start, from which ``build_model(init_assignment, si)``
    (si: the run's ``SplitIndices``) derives the prototype backend and its
    start prototypes.  The initial network is the first acceptance baseline,
    so an exploding first step is rejected like any other.
    """
    n, g = Y.shape
    rng = np.random.default_rng(config.seed)
    si = make_split(n, rng, np.argmax(Y, axis=1) if config.stratify_split else None)
    init_assignment = rng.integers(0, config.c_init, size=si.train.size)
    model, P = build_model(init_assignment, si)
    w0, W, sigma = init_params(P.shape[0], g, config, rng)
    rates = draw_rates(P.shape[0], g, config.eta_range, rng)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[si.train] = True
    D = yield model, P
    current = evaluate(Y, si, D, w0, W, sigma)
    return model, RunState(w0, W, sigma, P, D, rates, rng, si, train_mask, current, TrainMetrics())


def training_run(build_model, Y, config: TrainConfig):
    """The full training protocol over an arbitrary prototype backend, as a
    generator driven by ``run_lockstep``: ``start_run``, then ``epoch``
    until ``max_epochs`` or until an epoch sets the metrics' stop reason.

    Wherever it needs distances (at the start, for a shifted candidate,
    after growth) it yields ``(model, P)`` and expects the (c, n) distances
    of the prototypes ``P`` to be sent back; it returns its ``TrainResult``.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    model, s = yield from start_run(build_model, Y, config)
    while s.metrics.epochs < config.max_epochs and not s.metrics.stop_reason:
        yield from epoch(s, model, Y, config)
    s.metrics.stop_reason = s.metrics.stop_reason or "max_epochs"
    w0, W, sigma, P, output = s.best or (s.w0, s.W, s.sigma, s.P, s.current.Yhat)
    return TrainResult(
        params=NetworkParams(w0=w0, W=W, sigma=sigma),
        prototypes=P,
        output=output,
        metrics=s.metrics,
        split=s.split,
    )


def run_lockstep(runs: list) -> list:
    """Advance generators that yield ``(model, P)`` for distances, such as
    ``training_run``s, together, and return their return values.

    In each round every waiting relational run on the same graph gets its
    rows of one stacked ``prototype_distances(R, [P_1; P_2; ...])``; a vector
    model computes its own.  Runs keep their own random streams, growth and
    stopping: a run that has finished simply stops asking.
    """
    results = [None] * len(runs)
    answers = dict.fromkeys(range(len(runs)))  # None starts a generator
    while answers:
        waiting, stacks = {}, {}
        for i in sorted(answers):
            try:
                waiting[i] = runs[i].send(answers[i])
            except StopIteration as done:
                results[i] = done.value
        answers = {}
        for i, (model, P) in waiting.items():
            if isinstance(model, RelationalModel):
                stacks.setdefault(id(model.R), []).append(i)
            else:
                answers[i] = model.distances(P)
        for members in stacks.values():
            R = waiting[members[0]][0].R
            D = prototype_distances(R, np.concatenate([waiting[i][1] for i in members]))
            start = 0
            for i in members:
                end = start + waiting[i][1].shape[0]
                answers[i], start = D[start:end], end
    return results


def run_training(build_model, Y, config: TrainConfig) -> TrainResult:
    """Run the full training protocol (``training_run``) for one run."""
    return run_lockstep([training_run(build_model, Y, config)])[0]
