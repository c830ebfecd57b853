"""Mini-batch Adam for the kernelized regression objective.

The trainer minimizes, over the coefficient vector alpha,

    H(alpha) = 1/2 * alpha^T K alpha + C * sum_i L(xi_i),
    xi_i = y_i - (K alpha)_i,

where K is the training Gram matrix and L any loss from
:mod:`helssvr.losses`.  Each iteration draws a fresh uniform mini-batch
without replacement; the quadratic term's gradient K alpha is computed
exactly every step, while the loss-sum gradient is restricted to the
batch rows.  One call can train several cells (C, loss and Adam settings),
on one training set or on several of equal size.  A cell alone in its
training set computes exactly what a run of its own does; cells that share
a set share its Gram products, which agree with a run of their own to
rounding (see :func:`train_adam`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix
from .losses import LossSpec, loss_derivative, loss_value, stack_losses
from .seeding import make_rng, sample_without_replacement

#: what :func:`train_adam` returns: the last iterate, or an exponential
#: moving average of the iterates
AVERAGES = ("none", "ema")

#: weight of the previous average in ``average="ema"``: avg_t = w avg_{t-1}
#: + (1 - w) alpha_t, from avg_0 = alpha_0 (Kingma & Ba 2015, section 7.2)
EMA_WEIGHT = 0.99


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters and initial state scalars.

    Defaults: beta1=0.9, beta2=0.999, delta=1e-8, batch_size=32,
    max_iter=1000, and 0.01 for the initial coefficient and both moment
    vectors.  ``gamma`` is the learning rate; 0.01 is the largest value of
    the usual search set {1e-4, 1e-3, 1e-2}.  ``average`` is one of
    :data:`AVERAGES`: ``"ema"`` returns the averaged iterate instead of the
    last one.
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
    average: str = "none"

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
        if self.average not in AVERAGES:
            raise ValueError(f"adam average must be one of {AVERAGES}, got {self.average!r}")


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


def adam_step(state: AdamState, grad, cfg: AdamConfig, gamma=None, out=None) -> AdamState:
    """One Adam update; returns the new state with ``t`` incremented.

    Bias correction uses the post-increment step counter, and the
    stabilizer delta sits inside the square root:
    alpha <- alpha - gamma * m_hat / sqrt(v_hat + delta).
    ``gamma`` overrides ``cfg.gamma``; an array shaped like the state gives
    each row of a stacked state its own learning rate.

    ``out`` is an optional pair of work arrays shaped like the state.  With
    it the update is made in place, allocating nothing: ``state``'s arrays
    are overwritten and ``state`` itself is returned.  Without it the input
    state is left as it was.  Both run the same operations in the same
    order, so their results agree bit for bit.
    """
    grad = np.asarray(grad, dtype=float)
    gamma = cfg.gamma if gamma is None else gamma
    if out is None:
        state = AdamState(
            alpha=np.array(state.alpha, dtype=float),
            m=np.array(state.m, dtype=float),
            v=np.array(state.v, dtype=float),
            t=state.t,
            trace=state.trace,
        )
        out = (np.empty_like(state.alpha), np.empty_like(state.alpha))
    a, b = out
    state.t += 1
    # m <- beta1 * m + (1 - beta1) * grad
    np.multiply(grad, 1.0 - cfg.beta1, out=a)
    state.m *= cfg.beta1
    state.m += a
    # v <- beta2 * v + (1 - beta2) * grad^2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - cfg.beta2
    state.v *= cfg.beta2
    state.v += a
    # alpha <- alpha - gamma * m_hat / sqrt(v_hat + delta)
    np.divide(state.m, 1.0 - cfg.beta1**state.t, out=a)
    a *= gamma
    np.divide(state.v, 1.0 - cfg.beta2**state.t, out=b)
    b += cfg.delta
    np.sqrt(b, out=b)
    a /= b
    state.alpha -= a
    return state


def gram_products(K, A, out, spans=None) -> None:
    """Store K[k] @ A[r] in ``out[r]`` for every row r of every set k.

    ``K`` is an (f, n, n) stack of symmetric matrices; ``A`` and ``out``
    are C-contiguous (m, n) arrays whose rows are grouped by set.
    ``spans`` lists each set's (k, slice of rows), sets without rows left
    out; None means one row per set, in set order.

    A set of one row runs as the GEMV K_k @ a, bit for bit the product a
    one-cell run computes.  A set of several rows runs as one GEMM,
    A_k @ K_k: that equals K_k applied to each row exactly in real
    arithmetic, because K_k is symmetric, but the GEMM sums in another
    order than the GEMV, so the two differ in the last bits.  The result
    depends only on the set sizes, not on what else is in ``A``.
    """
    if spans is None:
        np.matmul(K, A[:, :, None], out=out[:, :, None])
        return
    for k, rows in spans:
        if rows.stop - rows.start == 1:
            np.matmul(K[k], A[rows.start], out=out[rows.start])
        else:
            np.matmul(A[rows], K[k], out=out[rows])


@dataclass
class AdamStack:
    """Final states of the cells one stacked :func:`train_adam` call trained."""

    states: list[AdamState]

    @property
    def t(self) -> int:
        """Adam steps summed over the cells; each makes two products with the Gram."""
        return sum(state.t for state in self.states)


def train_adam(gram: GramMatrix, y, C, loss, cfg: AdamConfig, gamma=None, seed=None, fold=None):
    """Run ``cfg.max_iter`` Adam iterations and return the final state.

    A fresh mini-batch of size min(batch_size, N) is drawn uniformly
    without replacement at every iteration.  The batches are drawn N
    steps at a time, in one sampler call per cell, and are the batches
    one draw per step would give.  Residuals use the full coefficient
    vector against the batch's Gram rows.  The run is bit-reproducible for
    a fixed config (including the seed).

    When ``collect_trace`` is set, ``state.trace[t]`` holds H(alpha_t) for
    t = 0..T, except that the last entry is H of the returned coefficients
    (:func:`objective_value`).  Optional early stopping ends the run once
    successive objective values of the iterates differ by less than
    ``early_stop_tol`` for ``early_stop_patience`` consecutive iterations.
    With ``cfg.average == "ema"`` the state's ``alpha`` is the average
    avg_t = w avg_{t-1} + (1 - w) alpha_t (w = :data:`EMA_WEIGHT`,
    avg_0 = alpha_0) at the step the run ended, not the last iterate; the
    moments are the last iterate's.

    To train m cells at once, pass ``C`` and ``loss`` as sequences of m
    values, and optionally ``gamma`` and ``seed`` as sequences that replace
    ``cfg``'s learning rate and seed per cell; ``cfg`` gives every other
    setting.  The call then returns an :class:`AdamStack`.  The cells may
    belong to different training sets of N rows each: ``gram`` then holds
    an (f, N, N) stack of their Gram matrices, ``y`` the (f, N) targets and
    ``fold`` each cell's set (all 0 by default).

    The cells' coefficient, moment and residual vectors are stacked as the
    rows of (m, N) arrays, grouped by set, so the elementwise work of a
    step runs once for all of them.  Each cell keeps its own targets,
    mini-batch draws, trace and early stop.  K alpha (and, at full batch,
    K d) runs through :func:`gram_products`: one GEMM per set, or a GEMV
    for a set of one row; a mini-batch's K_B^T d is one GEMV per row on
    its gathered batch rows.  So:

    * a cell alone in its set is bit-identical to a one-cell run;
    * a run is bit-identical to itself for the same cells in the same
      stack layout (cells per set, in the same order);
    * a cell whose set holds several rows differs from a one-cell run by
      the rounding of the GEMM, which Adam then carries forward.
    """
    if isinstance(loss, LossSpec):
        return train_adam(gram, y, [C], [loss], cfg).states[0]
    n = gram.n
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    y = np.asarray(y, dtype=float)
    if y.shape != gram.values.shape[:-1]:
        raise ValueError(f"target vector has shape {y.shape}, expected {gram.values.shape[:-1]}")
    K, Ys = gram.values.reshape(-1, n, n), y.reshape(-1, n)
    f = K.shape[0]
    C, loss = list(C), list(loss)
    rows = len(C)
    gamma = [cfg.gamma] * rows if gamma is None else list(gamma)
    seed = [cfg.seed] * rows if seed is None else list(seed)
    fold = [0] * rows if fold is None else [int(k) for k in fold]
    if not rows == len(loss) == len(gamma) == len(seed) == len(fold) > 0:
        raise ValueError("C, loss, gamma, seed and fold must give the same non-zero number of cells")
    if not all(0 <= k < f for k in fold):
        raise ValueError(f"fold indices must lie in [0, {f})")

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

    def layout(cells):
        # each row's set, and the row span of each set for gram_products:
        # None when every set holds one row, so that one broadcast matmul
        # makes all the GEMVs.  The per-set spans alone would serve that
        # case too, with the same bits; but when every product was a GEMV
        # per row, the broadcast won 9 of 10 pairs of 35 s cli_bench runs
        # against per-set matmuls (fits_per_ref median 0.2113 against
        # 0.1997, 2-core VM).  Sets of several rows take one GEMM per span.
        fold_of = np.array([fold[c] for c in cells])
        counts = np.bincount(fold_of, minlength=f)
        if counts.min() == counts.max() == 1:
            return fold_of, None
        ends = np.cumsum(counts)
        return fold_of, [(k, slice(e - c, e)) for k, (c, e) in enumerate(zip(counts, ends)) if c]

    live = sorted(range(rows), key=fold.__getitem__)  # the cell of each stack row
    fold_of, spans = layout(live)
    stack, C_blk, gamma_blk = blocks(live)
    state = AdamState(
        alpha=np.full((rows, n), float(cfg.alpha0)),
        m=np.full((rows, n), float(cfg.m0)),
        v=np.full((rows, n), float(cfg.v0)),
        t=0,
    )
    avg = np.full((rows, n), float(cfg.alpha0)) if cfg.average == "ema" else None
    work = (np.empty((rows, n)), np.empty((rows, n)))  # adam_step's in-place buffers
    Y = Ys[fold_of]
    Kalpha, Kd = np.empty((rows, n)), np.empty((rows, n))
    block, row_of = np.empty((rows, 0, s), dtype=np.intp), np.arange(rows)[:, None]
    rngs = [make_rng(c) for c in seed]
    traces = [[] for _ in range(rows)] if cfg.collect_trace else [None] * rows
    track = cfg.collect_trace or cfg.early_stop
    prev_h = [None] * rows
    flat_run = [0] * rows
    out = [None] * rows

    def finish(r, c):
        alpha = (state.alpha if avg is None else avg)[r].copy()
        out[c] = AdamState(alpha=alpha, m=state.m[r].copy(), v=state.v[r].copy(), t=state.t, trace=traces[c])
        if cfg.collect_trace:
            # a row that stops early has traced this step's iterate; the
            # entry becomes that of the returned coefficients
            if len(traces[c]) > state.t:
                traces[c].pop()
            k = fold[c]
            traces[c].append(objective_value(alpha, GramMatrix(K[k]), Ys[k], C[c], loss[c]))

    for step in range(cfg.max_iter):
        gram_products(K, state.alpha, Kalpha, spans)
        if track:
            keep = []
            for r, c in enumerate(live):
                h = float(0.5 * state.alpha[r] @ Kalpha[r] + C[c] * np.sum(loss_value(loss[c], Y[r] - Kalpha[r])))
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
                fold_of, spans = layout(live)
                state = AdamState(alpha=state.alpha[keep], m=state.m[keep], v=state.v[keep], t=state.t)
                avg = None if avg is None else avg[keep]
                Y, Kalpha, block = Y[keep], Kalpha[keep], block[keep]
                Kd, work, row_of = Kd[: len(keep)], tuple(w[: len(keep)] for w in work), row_of[: len(keep)]
                stack, C_blk, gamma_blk = blocks(live)
        if s == n:
            # full batch: no draw, no row gather (K is symmetric)
            gram_products(K, loss_derivative(stack, Y - Kalpha), Kd, spans)
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
            d = loss_derivative(stack, Y[row_of, batch] - Kalpha[row_of, batch])
            np.matmul(K[fold_of[:, None], batch].transpose(0, 2, 1), d[:, :, None], out=Kd[:, :, None])
        # the gradient K alpha - C * K d, in place in Kd
        Kd *= C_blk
        np.subtract(Kalpha, Kd, out=Kd)
        state = adam_step(state, Kd, cfg, gamma=gamma_blk, out=work)
        if avg is not None:
            # avg += (1 - w) * (alpha - avg), in adam_step's work buffer
            a = np.subtract(state.alpha, avg, out=work[0])
            a *= 1.0 - EMA_WEIGHT
            avg += a
    else:
        for r, c in enumerate(live):
            finish(r, c)
    return AdamStack(out)
