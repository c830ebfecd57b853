"""Mini-batch Adam for the kernelized regression objective.

The trainer minimizes, over the coefficient vector alpha,

    H(alpha) = 1/2 * alpha^T K alpha + C * sum_i L(xi_i),
    xi_i = y_i - (K alpha)_i,

where K is the training Gram matrix and L any loss from
:mod:`helssvr.losses`.  Each iteration draws a fresh uniform mini-batch
without replacement; the quadratic term's gradient K alpha is computed
exactly every step, while the loss-sum gradient is restricted to the
batch rows.  One call can train several cells (C, loss and Adam settings)
that share a Gram matrix, each bit-identical to a run of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix
from .losses import LossSpec, loss_derivative, loss_value, stack_losses
from .seeding import make_rng, sample_without_replacement


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters and initial state scalars.

    Defaults: beta1=0.9, beta2=0.999, delta=1e-8, batch_size=32,
    max_iter=1000, and 0.01 for the initial coefficient and both moment
    vectors.  ``gamma`` is the learning rate; 0.01 is the largest value of
    the usual search set {1e-4, 1e-3, 1e-2}.
    """

    gamma: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    delta: float = 1e-8
    batch_size: int = 32
    max_iter: int = 1000
    alpha0: float = 0.01
    m0: float = 0.01
    v0: float = 0.01
    seed: int = 0
    collect_trace: bool = False
    early_stop: bool = False
    early_stop_tol: float = 1e-10
    early_stop_patience: int = 20

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("adam gamma must be > 0")
        if not 0 <= self.beta1 < 1:
            raise ValueError("adam beta1 must lie in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("adam beta2 must lie in [0, 1)")
        if not self.delta > 0:
            raise ValueError("adam delta must be > 0")
        if self.batch_size < 1:
            raise ValueError("adam batch_size must be >= 1")
        if self.max_iter < 1:
            raise ValueError("adam max_iter must be >= 1")


@dataclass
class AdamState:
    """Coefficients plus both moment vectors and the step counter.

    The vectors are 1-D for one cell, or the rows of (m, n) arrays while
    :func:`train_adam` trains m cells together.
    """

    alpha: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    trace: list[float] | None = None


def objective_value(alpha, gram: GramMatrix, y, C: float, loss: LossSpec) -> float:
    """H(alpha) = 1/2 alpha^T K alpha + C * sum of losses at the residuals."""
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    K = gram.values
    Kalpha = K @ alpha
    xi = y - Kalpha
    return float(0.5 * alpha @ Kalpha + C * np.sum(loss_value(loss, xi)))


def objective_gradient(alpha, gram: GramMatrix, y, C: float, loss: LossSpec, batch) -> np.ndarray:
    """Gradient of H restricted to a mini-batch of loss terms.

    Returns K alpha + C * sum over the batch of the loss-term gradients,
    each of which is -dL/dxi_i times row i of K.  With the full index set
    as the batch this is the exact gradient of H.
    """
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    K = gram.values
    batch = np.asarray(batch, dtype=int)
    if batch.size and (batch.min() < 0 or batch.max() >= gram.n):
        raise ValueError("batch index out of range")
    Kalpha = K @ alpha
    xi = y[batch] - Kalpha[batch]
    d = loss_derivative(loss, xi)
    return Kalpha - C * (K[batch].T @ d)


def adam_step(state: AdamState, grad, cfg: AdamConfig, gamma=None) -> AdamState:
    """One Adam update; returns the new state with ``t`` incremented.

    Bias correction uses the post-increment step counter, and the
    stabilizer delta sits inside the square root:
    alpha <- alpha - gamma * m_hat / sqrt(v_hat + delta).
    ``gamma`` overrides ``cfg.gamma``; an array shaped like the state gives
    each row of a stacked state its own learning rate.
    """
    grad = np.asarray(grad, dtype=float)
    gamma = cfg.gamma if gamma is None else gamma
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (grad * grad)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    alpha = state.alpha - gamma * m_hat / np.sqrt(v_hat + cfg.delta)
    return AdamState(alpha=alpha, m=m, v=v, t=t, trace=state.trace)


@dataclass
class AdamStack:
    """Final states of the cells one stacked :func:`train_adam` call trained."""

    states: list[AdamState]

    @property
    def t(self) -> int:
        """Adam steps summed over the cells; each is two GEMVs on the Gram."""
        return sum(state.t for state in self.states)


def train_adam(gram: GramMatrix, y, C, loss, cfg: AdamConfig, gamma=None, seed=None):
    """Run ``cfg.max_iter`` Adam iterations and return the final state.

    A fresh mini-batch of size min(batch_size, N) is drawn uniformly
    without replacement at every iteration.  The batches are drawn N
    steps at a time, in one sampler call per cell, and are the batches
    one draw per step would give.  Residuals use the full coefficient
    vector against the batch's Gram rows.  The run is bit-reproducible for
    a fixed config (including the seed).

    When ``collect_trace`` is set, ``state.trace[t]`` holds H(alpha_t) for
    t = 0..T.  Optional early stopping ends the run once successive
    objective values differ by less than ``early_stop_tol`` for
    ``early_stop_patience`` consecutive iterations.

    To train m cells on the same Gram matrix at once, pass ``C`` and
    ``loss`` as sequences of m values, and optionally ``gamma`` and
    ``seed`` as sequences that replace ``cfg``'s learning rate and seed
    per cell; ``cfg`` gives every other setting.  The call then returns an
    :class:`AdamStack`.  The cells' coefficient, moment and residual
    vectors are stacked as the rows of (m, n) arrays, so the elementwise
    work of a step runs once for all of them.  Each cell keeps its own
    mini-batch draws, trace and early stop.  Every matrix-vector product
    is still one GEMV per row, so each cell's numbers are bit-for-bit those
    of a one-cell run, whatever cells share its stack.
    """
    if isinstance(loss, LossSpec):
        return train_adam(gram, y, [C], [loss], cfg).states[0]
    y = np.asarray(y, dtype=float)
    n = gram.n
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if y.shape != (n,):
        raise ValueError(f"target vector has shape {y.shape}, expected ({n},)")
    C, loss = list(C), list(loss)
    rows = len(C)
    gamma = [cfg.gamma] * rows if gamma is None else list(gamma)
    seed = [cfg.seed] * rows if seed is None else list(seed)
    if not rows == len(loss) == len(gamma) == len(seed) > 0:
        raise ValueError("C, loss, gamma and seed must give the same non-zero number of cells")

    K = gram.values
    s = min(cfg.batch_size, n)

    def blocks(cells):
        # every per-cell value repeated across its row, as wide as the
        # arrays it meets: same-shape elementwise operations are numpy's
        # fastest, and give each row the bits a one-cell run gets
        return (
            stack_losses([loss[c] for c in cells], s),
            np.repeat(np.array([[C[c]] for c in cells], dtype=float), n, axis=1),
            np.repeat(np.array([[gamma[c]] for c in cells], dtype=float), n, axis=1),
        )

    state = AdamState(
        alpha=np.full((rows, n), float(cfg.alpha0)),
        m=np.full((rows, n), float(cfg.m0)),
        v=np.full((rows, n), float(cfg.v0)),
        t=0,
    )
    live = list(range(rows))  # the cell of each stack row
    stack, C_blk, gamma_blk = blocks(live)
    Y = np.tile(y, (rows, 1))
    Kalpha, Kd = np.empty((rows, n)), np.empty((rows, n))
    block, row_of = np.empty((rows, 0, s), dtype=np.intp), np.arange(rows)[:, None]
    rngs = [make_rng(c) for c in seed]
    traces = [[] for _ in range(rows)] if cfg.collect_trace else [None] * rows
    track = cfg.collect_trace or cfg.early_stop
    prev_h = [None] * rows
    flat_run = [0] * rows
    out = [None] * rows

    def finish(r, c):
        out[c] = AdamState(
            alpha=state.alpha[r].copy(), m=state.m[r].copy(), v=state.v[r].copy(), t=state.t, trace=traces[c]
        )

    for step in range(cfg.max_iter):
        for alpha_r, out_r in zip(state.alpha, Kalpha):
            np.matmul(K, alpha_r, out=out_r)
        if track:
            keep = []
            for r, c in enumerate(live):
                h = float(0.5 * state.alpha[r] @ Kalpha[r] + C[c] * np.sum(loss_value(loss[c], y - Kalpha[r])))
                if cfg.collect_trace:
                    traces[c].append(h)
                if cfg.early_stop and prev_h[c] is not None:
                    flat_run[c] = flat_run[c] + 1 if abs(h - prev_h[c]) < cfg.early_stop_tol else 0
                    if flat_run[c] >= cfg.early_stop_patience:
                        finish(r, c)
                        continue
                prev_h[c] = h
                keep.append(r)
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[r] for r in keep]
                state = AdamState(alpha=state.alpha[keep], m=state.m[keep], v=state.v[keep], t=state.t)
                Y, Kalpha, Kd, block = Y[keep], Kalpha[keep], Kd[keep], block[keep]
                stack, C_blk, gamma_blk = blocks(live)
                row_of = row_of[: len(live)]
        if s == n:
            # full batch: no draw, no row gather (K is symmetric)
            d = loss_derivative(stack, Y - Kalpha)
            for d_r, out_r in zip(d, Kd):
                np.matmul(K, d_r, out=out_r)
        else:
            if step % n == 0:
                # the next n steps' batches (fewer near the end) in one
                # draw per row: n * n scratch indices, no more than the Gram
                draws = min(n, cfg.max_iter - step)
                block = np.stack([sample_without_replacement(rngs[c], n, s, draws=draws) for c in live])
                # canonical index order keeps the float summation order
                # independent of the draw
                block.sort(axis=2)
            batch = block[:, step % n]
            d = loss_derivative(stack, y[batch] - Kalpha[row_of, batch])
            for batch_r, d_r, out_r in zip(batch, d, Kd):
                np.matmul(K[batch_r].T, d_r, out=out_r)
        state = adam_step(state, Kalpha - C_blk * Kd, cfg, gamma=gamma_blk)
    else:
        for r, c in enumerate(live):
            finish(r, c)
            if cfg.collect_trace:
                traces[c].append(objective_value(out[c].alpha, gram, y, C[c], loss[c]))
    return AdamStack(out)
