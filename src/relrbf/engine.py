"""Shared gradient-descent trainer for graph-based and vector-based networks.

Both trainer front ends run this exact loop; they differ only in the
prototype backend, which answers two questions: what are the current
prototype-to-observation distances, and how do the prototypes move under a
backpropagated shift.  Because every random draw (split, initial partition,
parameter and learning-rate draws, growth draws) happens here in a fixed
order from one generator, two backends given the same seed consume identical
randomness and their trajectories can be compared epoch by epoch.

Epoch order: output-weight update, simulated prototype shift (distance
update), bandwidth update, then bookkeeping (acceptance test on the training
MSE, early-stopping and growth checks, plateau exit).  Each update rule is a
small array function below (``output_step``, ``shift_coefficients``,
``bandwidth_step``, ``grow_step``) that ``training_run`` calls; the update
signs are fixed so that an infinitesimal step decreases the sum of squared
errors, verified by finite differences in the test suite.

``training_run`` is a generator: it yields its model whenever it needs the
distances and receives them back.  ``run_lockstep`` advances a group of runs
in rounds, answering every waiting relational run on one graph with its rows
of a single stacked product ``V @ R`` (the Monte Carlo runs of ``relrbf
train`` go through it in groups of consecutive seeds, and a process pool
maps the groups); ``run_training`` is that driver over one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateShiftError,
    InvalidClusterCountError,
    NonpositiveEtaError,
    NonpositiveSigmaError,
)
from .graph import AdjacencyMatrix
from .initialization import (
    SplitIndices,
    indicator_weights,
    init_params,
    medoid_prototypes,
    Partition,
    split as make_split,
)
from .network import NetworkParams, gaussian_kernel
from .prototypes import (
    FREE,
    MEDOID,
    DistanceState,
    RelationalPrototype,
    _distances,
)


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
        if self.c_max is None:
            object.__setattr__(self, "c_max", self.c_init)
        if self.c_init < 1 or self.c_init > self.c_max:
            raise InvalidClusterCountError(
                f"need 1 <= c_init <= c_max, got {self.c_init}, {self.c_max}"
            )
        if not (0.0 < self.lr_decay < 1.0 < self.lr_growth):
            raise ValueError("need 0 < lr_decay < 1 < lr_growth")
        if self.prototype_mode not in (FREE, MEDOID):
            raise ValueError(f"unknown prototype_mode {self.prototype_mode!r}")
        for name in ("eta_range", "weight_init_range", "sigma_init_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be an increasing pair")
        if self.eta_range[0] <= 0:
            raise NonpositiveEtaError(f"eta_range must be positive, got {self.eta_range}")
        if self.sigma_min <= 0:
            raise NonpositiveSigmaError(f"sigma_min must be positive, got {self.sigma_min}")


@dataclass
class LearningRates:
    """Per-parameter base rates (fixed at init) times one adaptive scale."""

    w0: np.ndarray
    W: np.ndarray
    sigma: np.ndarray
    proto: np.ndarray
    scale: float = 1.0


def adapt_learning_rate(
    scale: float, mse_new: float, mse_old: float | None, config: TrainConfig
) -> tuple[float, bool]:
    """Bold-driver schedule: reject steps that worsen the training MSE by
    more than ``config.mse_reject_ratio`` (decaying the rate scale), otherwise
    accept and grow the scale whenever the error strictly improved.  A
    non-finite candidate MSE (overflowed step) is always rejected.  Returns
    the new scale and whether the step is accepted."""
    diverged = not np.isfinite(mse_new)
    if mse_old is not None and (diverged or mse_new > config.mse_reject_ratio * mse_old):
        return scale * config.lr_decay, False
    if diverged:
        raise FloatingPointError("training diverged with no acceptance baseline")
    if mse_old is not None and mse_new < mse_old:
        return scale * config.lr_growth, True
    return scale, True


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
    return Y - (H.T @ W + w0)


def output_step(w0, W, H, eps_o, eta_w0, eta_W, tr):
    """One full-batch step on the output layer over the training rows ``tr``.

    w0[k] += eta_w0[k] sum_i eps_o[i, k];  W[j, k] += eta_W[j, k] sum_i h[j, i] eps_o[i, k].
    Returns the new (w0, W).
    """
    return w0 + eta_w0 * eps_o[tr].sum(axis=0), W + eta_W * (H[:, tr] @ eps_o[tr])


def shift_coefficients(W, H, eps_o, sigma, train_mask):
    """Backpropagated shift coefficients, one row per prototype.

    eps_h[j, i] = (sum_k eps_o[i, k] W[j, k]) h[j, i] / sigma_j^2, zeroed off
    the training set.  Moving prototype j by eta sum_i eps_h[j, i] (x_i - v_j)
    is a descent step on the squared error.
    """
    eps_h = (W @ eps_o.T) * H / sigma[:, None] ** 2
    eps_h[:, ~train_mask] = 0.0
    return eps_h


def bandwidth_step(sigma, W, H, D, eps_o, eta, tr, sigma_min):
    """One full-batch step on the Gaussian bandwidths over the training rows.

    sigma_j += eta_j sum_i (sum_k eps_o[i, k] W[j, k]) h[j, i] d[j, i] / sigma_j^3,
    clamped below by ``sigma_min``.
    """
    terms = (W @ eps_o.T) * H * D / sigma[:, None] ** 3
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
    """Prototype backend over an adjacency matrix: weight rows that sum to 1.

    Prototype repositioning is simulated: instead of moving a latent point,
    ``shift`` recombines the node weights so that the recomputed node
    distances are exactly the distances to the shifted latent point.

    ``get_state`` and ``set_state`` share ``V`` by reference, so ``shift``
    and ``grow`` must rebind ``V``, never mutate it in place.
    """

    def __init__(self, R: AdjacencyMatrix, weight_rows: np.ndarray, mode: str = FREE):
        self.R = R
        self.V = np.atleast_2d(np.asarray(weight_rows, dtype=float)).copy()
        self.mode = mode
        self.movable = mode == FREE

    @property
    def c(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def distances(self) -> np.ndarray:
        return _distances(self.R.values, self.V)

    def shift(self, eps_h: np.ndarray, etas: np.ndarray) -> None:
        s = eps_h.sum(axis=1)
        new_V = (1.0 - etas * s)[:, None] * self.V + etas[:, None] * eps_h
        # Sums equal 1 up to roundoff; renormalize so drift cannot accumulate.
        sums = new_V.sum(axis=1)
        if np.any(np.abs(sums) < 1e-12):
            raise DegenerateShiftError("shifted weights sum to zero")
        self.V = new_V / sums[:, None]

    def grow(self, m: int) -> None:
        row = np.zeros((1, self.n))
        row[0, m] = 1.0
        self.V = np.vstack([self.V, row])

    def get_state(self) -> np.ndarray:
        return self.V

    def set_state(self, state: np.ndarray) -> None:
        self.V = state

    def prototypes(self) -> list[RelationalPrototype]:
        return [RelationalPrototype(w, mode=self.mode) for w in self.V]


class VectorModel:
    """Prototype backend over explicit feature vectors.

    ``get_state`` and ``set_state`` share ``P`` by reference, so ``shift``
    and ``grow`` must rebind ``P``, never mutate it in place.
    """

    movable = True

    def __init__(self, X: np.ndarray, positions: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.P = np.atleast_2d(np.asarray(positions, dtype=float)).copy()

    @property
    def c(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def distances(self) -> np.ndarray:
        diff = self.X[None, :, :] - self.P[:, None, :]
        return np.einsum("cnd,cnd->cn", diff, diff)

    def shift(self, eps_h: np.ndarray, etas: np.ndarray) -> None:
        s = eps_h.sum(axis=1)
        self.P = self.P + etas[:, None] * (eps_h @ self.X - s[:, None] * self.P)

    def grow(self, m: int) -> None:
        self.P = np.vstack([self.P, self.X[m][None, :]])

    def get_state(self) -> np.ndarray:
        return self.P

    def set_state(self, state: np.ndarray) -> None:
        self.P = state


def relational_model_from_partition(
    R: AdjacencyMatrix,
    assignment: np.ndarray,
    train_idx: np.ndarray,
    c: int,
    mode: str = FREE,
) -> RelationalModel:
    """Embed prototypes fit on the training subgraph into full-length weights."""
    n = R.n
    V_sub = indicator_weights(assignment, c)
    if mode == MEDOID:
        sub = R.submatrix(train_idx)
        protos = medoid_prototypes(sub, Partition(assignment, c))
        V_sub = np.stack([p.weights for p in protos])
    V = np.zeros((c, n))
    V[:, train_idx] = V_sub
    return RelationalModel(R, V, mode=mode)


@dataclass
class TrainMetrics:
    """Per-epoch traces plus stopping summary."""

    sse_train: list = field(default_factory=list)
    sse_val: list = field(default_factory=list)
    sse_test: list = field(default_factory=list)
    mse_train: list = field(default_factory=list)
    lr_scale: list = field(default_factory=list)
    n_prototypes: list = field(default_factory=list)
    negative_distances: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    grew: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_sse: float = np.inf
    stop_reason: str = ""

    @property
    def epochs(self) -> int:
        return len(self.sse_train)

    def as_dict(self) -> dict:
        return {
            "sse_train": list(map(float, self.sse_train)),
            "sse_val": list(map(float, self.sse_val)),
            "sse_test": list(map(float, self.sse_test)),
            "mse_train": list(map(float, self.mse_train)),
            "lr_scale": list(map(float, self.lr_scale)),
            "n_prototypes": list(map(int, self.n_prototypes)),
            "negative_distances": list(map(int, self.negative_distances)),
            "accepted": list(map(bool, self.accepted)),
            "grew": list(map(bool, self.grew)),
            "best_epoch": int(self.best_epoch),
            "best_val_sse": float(self.best_val_sse),
            "stop_reason": self.stop_reason,
        }


@dataclass
class EngineResult:
    """Best-validation parameters and model state, with full metric traces."""

    params: NetworkParams
    model: object
    d_state: DistanceState
    metrics: TrainMetrics
    split: SplitIndices
    trace: list | None
    config: TrainConfig


def training_run(
    build_model,
    Y,
    config: TrainConfig,
    split_indices: SplitIndices | None = None,
    record_trace: bool = False,
):
    """The full training protocol over an arbitrary prototype backend, as a
    generator driven by ``run_lockstep``.

    Wherever the protocol needs the model's distances (at the start, after a
    shift, after growth) it yields the model and expects the (c, n) distance
    matrix to be sent back; it returns its ``EngineResult``.

    ``build_model(init_assignment, split_indices)`` must return a prototype
    model whose initial prototypes derive from the given training-set
    partition.  When ``split_indices`` is supplied the internal split draw is
    skipped (used for paired-seed comparisons).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, g = Y.shape
    rng = np.random.default_rng(config.seed)

    if split_indices is None:
        labels = np.argmax(Y, axis=1) if config.stratify_split else None
        split_indices = make_split(
            n, rng=rng, labels=labels, stratify=config.stratify_split
        )
    tr, va, te = split_indices.train, split_indices.val, split_indices.test
    if config.c_init > tr.size:
        raise InvalidClusterCountError(
            f"c_init={config.c_init} exceeds training-set size {tr.size}"
        )

    init_assignment = rng.integers(0, config.c_init, size=tr.size)
    model = build_model(init_assignment, split_indices)
    c = model.c

    params0 = init_params(c, g, config, rng=rng)
    w0, W, sigma = params0.w0.copy(), params0.W.copy(), params0.sigma.copy()
    rates = draw_rates(c, g, config.eta_range, rng)

    train_mask = np.zeros(n, dtype=bool)
    train_mask[tr] = True

    D = yield model
    metrics = TrainMetrics()
    trace = [] if record_trace else None

    val_run = 0
    best = None  # (w0, W, sigma, model_state, D)
    stop_reason = "max_epochs"

    def evaluate(D_, w0_, W_, sigma_):
        # Oversized steps overflow the kernel; the resulting non-finite MSE
        # is rejected by the acceptance rule rather than raising here.
        with np.errstate(over="ignore", invalid="ignore"):
            H = gaussian_kernel(D_, sigma_[:, None])
            Yhat = H.T @ W_ + w0_
            err = Y - Yhat
            sq = np.sum(err**2, axis=1)
        return {
            "H": H,
            "Yhat": Yhat,
            "err": err,
            "sse_train": float(sq[tr].sum()),
            "sse_val": float(sq[va].sum()) if va.size else 0.0,
            "sse_test": float(sq[te].sum()) if te.size else 0.0,
        }

    # The initial network is the first acceptance baseline, so an exploding
    # first step gets rejected like any other.
    last = evaluate(D, w0, W, sigma)
    mse_prev: float | None = last["sse_train"] / tr.size
    accepted_sse: list[float] = []

    for t in range(config.max_epochs):
        # These arrays are only ever rebound, so the snapshot, ``best`` and
        # the trace hold references, not copies.
        snap = (w0, W, sigma, model.get_state(), D)

        with np.errstate(over="ignore", invalid="ignore"):
            # ``last`` always evaluates the current state (after an accept, a
            # reject or a growth), so its kernel and residuals open the epoch.
            H = last["H"]
            w0_new, W_new = output_step(
                w0, W, H, last["err"], rates.scale * rates.w0, rates.scale * rates.W, tr
            )
            eps_h = shift_coefficients(
                W_new, H, output_errors(Y, H, W_new, w0_new), sigma, train_mask
            )

        rejected_by_shift = False
        if model.movable:
            try:
                model.shift(eps_h, rates.scale * rates.proto)
                D = yield model
            except DegenerateShiftError:
                rejected_by_shift = True

        if rejected_by_shift:
            w0, W, sigma, state, D = snap
            model.set_state(state)
            rates.scale *= 0.5
            accepted = False
            ev = last
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                # Bandwidth update at the shifted distances.
                H2 = gaussian_kernel(D, sigma[:, None])
                sigma_new = bandwidth_step(
                    sigma,
                    W_new,
                    H2,
                    D,
                    output_errors(Y, H2, W_new, w0_new),
                    rates.scale * rates.sigma,
                    tr,
                    config.sigma_min,
                )

            ev_new = evaluate(D, w0_new, W_new, sigma_new)
            mse_new = ev_new["sse_train"] / tr.size
            rates.scale, accepted = adapt_learning_rate(rates.scale, mse_new, mse_prev, config)
            if accepted:
                w0, W, sigma = w0_new, W_new, sigma_new
                mse_prev = mse_new
                ev = ev_new
                accepted_sse.append(ev_new["sse_train"])
            else:
                w0, W, sigma, state, D = snap
                model.set_state(state)
                ev = last

        last = ev
        metrics.sse_train.append(ev["sse_train"])
        metrics.sse_val.append(ev["sse_val"])
        metrics.sse_test.append(ev["sse_test"])
        metrics.mse_train.append(ev["sse_train"] / tr.size)
        metrics.lr_scale.append(rates.scale)
        metrics.n_prototypes.append(W.shape[0])
        metrics.negative_distances.append(int(np.count_nonzero(D < 0)))
        metrics.accepted.append(accepted)

        if record_trace:
            trace.append(
                {
                    "w0": w0,
                    "W": W,
                    "sigma": sigma,
                    "d": D,
                    "hidden": ev["H"],
                    "output": ev["Yhat"],
                }
            )

        # Early-stopping bookkeeping on the retained validation error.
        val_sse = ev["sse_val"]
        if t > 0 and val_sse > metrics.sse_val[t - 1]:
            val_run += 1
        elif t > 0:
            val_run = 0
        if val_sse < metrics.best_val_sse:
            metrics.best_val_sse = val_sse
            metrics.best_epoch = t
            best = (w0, W, sigma, model.get_state(), D)

        grown = grow_step(val_run, ev["err"], tr, W, sigma, rates, config, rng)
        if grown is not None:
            m, W, sigma = grown
            model.grow(m)
            D = yield model
            # Growth changes the network between epochs; re-baseline the
            # acceptance test and the cached evaluation on the grown state so
            # a following rejection restores and records consistent values.
            last = evaluate(D, w0, W, sigma)
            mse_prev = last["sse_train"] / tr.size
        metrics.grew.append(grown is not None)

        if val_run >= config.patience_stop:
            stop_reason = "validation_patience"
            break
        # Plateau test over accepted steps only: a run of rejections repeats
        # the recorded objective verbatim and must not look like convergence.
        if (
            len(accepted_sse) > config.exit_window
            and abs(accepted_sse[-1] - accepted_sse[-1 - config.exit_window])
            < config.exit_tol
        ):
            stop_reason = "objective_plateau"
            break

    metrics.stop_reason = stop_reason

    if best is not None:
        w0, W, sigma, model_state, D = best
        model.set_state(model_state)
        best_epoch = metrics.best_epoch
    else:
        best_epoch = metrics.epochs - 1

    params = NetworkParams(w0=w0, W=W, sigma=sigma)
    d_state = DistanceState(D, epoch=best_epoch)
    return EngineResult(
        params=params,
        model=model,
        d_state=d_state,
        metrics=metrics,
        split=split_indices,
        trace=trace,
        config=config,
    )


def run_lockstep(runs: list) -> list[EngineResult]:
    """Advance ``training_run`` generators together and return their results.

    In each round every waiting relational run on the same graph gets its
    rows of one stacked product ``_distances(R, [V_1; V_2; ...])``; a vector
    model computes its own.  Runs keep their own random streams, growth and
    stopping: a run that has finished simply stops asking.
    """
    results = [None] * len(runs)
    waiting = {i: next(run) for i, run in enumerate(runs)}
    while waiting:
        answers, stacks = {}, {}
        for i, model in waiting.items():
            if isinstance(model, RelationalModel):
                stacks.setdefault(id(model.R), []).append(i)
            else:
                answers[i] = model.distances()
        for members in stacks.values():
            models = [waiting[i] for i in members]
            D = _distances(models[0].R.values, np.concatenate([m.V for m in models]))
            ends = np.cumsum([m.c for m in models])
            answers.update(zip(members, np.split(D, ends[:-1])))
        sent, waiting = waiting, {}
        for i in sent:
            try:
                waiting[i] = runs[i].send(answers[i])
            except StopIteration as done:
                results[i] = done.value
    return results


def run_training(
    build_model,
    Y,
    config: TrainConfig,
    split_indices: SplitIndices | None = None,
    record_trace: bool = False,
) -> EngineResult:
    """Run the full training protocol (``training_run``) for one run."""
    return run_lockstep([training_run(build_model, Y, config, split_indices, record_trace)])[0]
