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

import copy
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix
from .losses import LossSpec, loss_derivative, loss_value, stack_losses
from .seeding import make_rng, sample_without_replacement

#: weight of the previous average in the coefficients :func:`train_adam`
#: returns: avg_t = w avg_{t-1} + (1 - w) alpha_t from avg_0 = 0, divided
#: by 1 - w^t (Kingma & Ba 2015, section 7.2)
EMA_WEIGHT = 0.99


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters and initial state scalars.

    Defaults: beta1=0.9, beta2=0.999, delta=1e-8, batch_size=32,
    max_iter=1000, and 0.01 for the initial coefficient and both moment
    vectors.  ``gamma`` is the learning rate; 0.01 is the largest value of
    the usual search set {1e-4, 1e-3, 1e-2}.  The initial scalars must be
    finite, and v0 >= 0.  The coefficients :func:`train_adam` returns are
    the bias-corrected moving average of its iterates (:data:`EMA_WEIGHT`).
    ``seed`` is an integer >= 0.
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
        check_rate_and_seed(self.gamma, self.seed)
        if not 0 <= self.beta1 < 1:
            raise ValueError("adam beta1 must lie in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("adam beta2 must lie in [0, 1)")
        if not 0 < self.delta < np.inf:
            raise ValueError("adam delta must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("adam batch_size must be >= 1")
        if self.max_iter < 1:
            raise ValueError("adam max_iter must be >= 1")
        if not 0 < self.early_stop_tol < np.inf:
            raise ValueError("adam early_stop_tol must be finite and > 0")
        if self.early_stop_patience < 1:
            raise ValueError("adam early_stop_patience must be >= 1")
        if not np.isfinite([self.alpha0, self.m0]).all():
            raise ValueError("adam alpha0 and m0 must be finite")
        if not 0 <= self.v0 < np.inf:
            raise ValueError("adam v0 must be finite and >= 0")


def check_rate_and_seed(gamma, seed, where=""):
    """Raise :class:`AdamConfig`'s ValueError, ending in ``where``, unless
    ``gamma`` is finite and > 0 and ``seed`` an integer >= 0."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"adam gamma must be finite and > 0{where}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"adam seed must be an integer >= 0{where}")


@dataclass
class AdamState:
    """Coefficients plus both moment vectors and the step counter.

    The vectors are 1-D for one cell, or the rows of (m, n) arrays while
    :func:`train_adam` trains m cells together.  A state :func:`train_adam`
    returns also holds what its ``resume`` argument needs to continue the
    cell: the raw iterate (``alpha`` is the averaged one), the average
    before its bias correction, the cell's generator, its early-stop
    counters and whether the early-stopping rule ended it.  :func:`adam_step`
    leaves these unset.
    """

    alpha: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    trace: list[float] | None = None
    iterate: np.ndarray | None = None
    avg: np.ndarray | None = None
    rng: np.random.Generator | None = None
    prev_h: float | None = None
    flat_run: int = 0
    stopped: bool = False


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
    """Final states of the cells one stacked :func:`train_adam` call trained.

    ``t`` is the number of Adam steps this call ran, summed over the cells;
    each step makes two products with the Gram.  A resumed cell adds the
    steps past its state's ``t`` only, and a cell that arrived stopped
    adds none.
    """

    states: list[AdamState]
    t: int


def train_adam(gram: GramMatrix, y, C, loss, cfg: AdamConfig, gamma=None, seed=None, fold=None, resume=None):
    """Run Adam iterations up to step ``cfg.max_iter`` and return the final
    state, whose coefficients are the moving average of the iterates.

    A fresh mini-batch of size min(batch_size, N) is drawn uniformly
    without replacement at every iteration.  The batches are drawn up to
    the next multiple of N steps at a time, in one sampler call per cell,
    and are the batches one draw per step would give.  Residuals use the
    full coefficient vector against the batch's Gram rows.  The run is
    bit-reproducible for a fixed config (including the seed).

    When ``collect_trace`` is set, ``state.trace[t]`` holds H(alpha_t) for
    t = 0..T, except that the last entry is H of the returned coefficients
    (:func:`objective_value`).  Optional early stopping ends the run once
    successive objective values of the iterates differ by less than
    ``early_stop_tol`` for ``early_stop_patience`` consecutive iterations.
    The state's ``alpha`` is the bias-corrected average avg_t / (1 - w^t),
    avg_t = w avg_{t-1} + (1 - w) alpha_t (w = :data:`EMA_WEIGHT`,
    avg_0 = 0), at the step the run ended, not the last iterate, which
    oscillates at a constant step size.  The correction makes it a weighted
    mean of alpha_1..alpha_t, so a short or early-stopped run keeps no
    weight on alpha_0.  The moments are the last iterate's.

    ``resume`` continues earlier runs: a state this function returned,
    given with the cell's settings and set of that run, trains on from its
    step t to ``cfg.max_iter``, with its own generator, early-stop counters
    and trace; ``cfg.seed`` and ``seed`` then play no part.  A state the
    early-stopping rule ended is returned as it is.  The cells resumed in
    one call must share t.  The states passed in are left as they were.
    A run to step k resumed to step T is bit-identical to a run to T in the
    same stack layout (below): a resumed cell draws the rest of its block
    of batches, and a block of draws is bit for bit the successive draws
    (:func:`~helssvr.seeding.sample_without_replacement`).

    To train m cells at once, pass ``C`` and ``loss`` as sequences of m
    values, and optionally ``gamma``, ``seed`` and ``resume`` as sequences
    that replace ``cfg``'s learning rate and seed, and the fresh start, per
    cell (a None in ``resume`` starts that cell fresh); ``cfg`` gives every
    other setting.  A cell's learning rate and seed are checked as
    :class:`AdamConfig` checks its own, and an error names the cell.  The
    call then returns an :class:`AdamStack`.  The cells may belong to
    different training sets of N rows each: ``gram`` then
    holds an (f, N, N) stack of their Gram matrices, ``y`` the (f, N)
    targets and ``fold`` each cell's set (all 0 by default).  A non-finite
    residual raises a ValueError that names the step and each affected cell
    (its position in ``C``) and set; the whole stack stops.

    The cells' coefficient, moment and residual vectors are stacked as the
    rows of (m, N) arrays, grouped by set, so the elementwise work of a
    step runs once for all of them, in buffers allocated once per call.
    Each cell keeps its own targets, mini-batch draws, trace and early
    stop.  K alpha (and, at full batch, K d) runs through
    :func:`gram_products`: one GEMM per set, or a GEMV for a set of one
    row; a mini-batch's K_B^T d is one GEMV per row on its gathered batch
    rows.  So:

    * a cell alone in its set is bit-identical to a one-cell run;
    * a run is bit-identical to itself for the same cells in the same
      stack layout (cells per set, in the same order);
    * a cell whose set holds several rows differs from a one-cell run by
      the rounding of the GEMM, which Adam then carries forward.
    """
    if isinstance(loss, LossSpec):
        return train_adam(gram, y, [C], [loss], cfg, resume=None if resume is None else [resume]).states[0]
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
    resume = [None] * rows if resume is None else list(resume)
    if not rows == len(loss) == len(gamma) == len(seed) == len(fold) == len(resume) > 0:
        raise ValueError("C, loss, gamma, seed, fold and resume must give the same non-zero number of cells")
    if not all(0 <= k < f for k in fold):
        raise ValueError(f"fold indices must lie in [0, {f})")
    for c in range(rows):
        check_rate_and_seed(gamma[c], seed[c], f": cell {c}")

    def fresh(c):
        alpha0 = np.full(n, float(cfg.alpha0))
        return AdamState(
            alpha=alpha0, m=np.full(n, float(cfg.m0)), v=np.full(n, float(cfg.v0)),
            trace=[] if cfg.collect_trace else None, iterate=alpha0, avg=np.zeros(n), rng=make_rng(seed[c]),
        )

    begin = [fresh(c) if start is None else start for c, start in enumerate(resume)]
    out = [start if start.stopped else None for start in begin]
    live = sorted((c for c in range(rows) if out[c] is None), key=fold.__getitem__)  # the cell of each stack row
    if not live:
        return AdamStack(out, 0)
    t0 = begin[live[0]].t
    if any(begin[c].t != t0 for c in live) or t0 > cfg.max_iter:
        raise ValueError(f"resumed cells must share one step count, at most max_iter ({cfg.max_iter})")
    if cfg.collect_trace and any(begin[c].trace is None for c in live):
        raise ValueError("cannot trace a cell resumed from a run without a trace")

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

    m = len(live)
    fold_of, spans = layout(live)
    stack, C_blk, gamma_blk = blocks(live)
    # np.stack copies, so the states passed in stay as they were
    state = AdamState(
        alpha=np.stack([begin[c].iterate for c in live]),
        m=np.stack([begin[c].m for c in live]),
        v=np.stack([begin[c].v for c in live]),
        t=t0,
    )
    avg = np.stack([begin[c].avg for c in live])
    work = (np.empty((m, n)), np.empty((m, n)))  # adam_step's in-place buffers
    Y = Ys[fold_of]
    Kalpha, Kd = np.empty((m, n)), np.empty((m, n))
    R, D = np.empty((m, s)), np.empty((m, s))  # the residual and its derivative
    block, row_of = np.empty((m, 0, s), dtype=np.intp), np.arange(m)[:, None]
    rngs = [start.rng if given is None else copy.deepcopy(start.rng) for start, given in zip(begin, resume)]
    # a trace ends in H of the averaged coefficients, which a resumed
    # cell's next step replaces
    traces = [start.trace[: start.t] if cfg.collect_trace and out[c] is None else None for c, start in enumerate(begin)]
    track = cfg.collect_trace or cfg.early_stop
    prev_h = [start.prev_h for start in begin]
    flat_run = [start.flat_run for start in begin]

    def finish(r, c, stopped=False):
        alpha = avg[r] / (1.0 - EMA_WEIGHT**state.t)
        out[c] = AdamState(
            alpha=alpha, m=state.m[r].copy(), v=state.v[r].copy(), t=state.t, trace=traces[c],
            iterate=state.alpha[r].copy(), avg=avg[r].copy(), rng=rngs[c],
            prev_h=prev_h[c], flat_run=flat_run[c], stopped=stopped,
        )
        if cfg.collect_trace:
            # a row that stops early has traced this step's iterate; the
            # entry becomes that of the returned coefficients
            if len(traces[c]) > state.t:
                traces[c].pop()
            k = fold[c]
            traces[c].append(objective_value(alpha, GramMatrix(K[k]), Ys[k], C[c], loss[c]))

    def non_finite(step, resid):
        # the error for stack rows with a non-finite residual, naming each
        # row's cell and set; the whole stack aborts
        bad = sorted(live[r] for r in np.flatnonzero(~np.isfinite(resid).all(axis=1)))
        cells = ", ".join(f"cell {c} (fold {fold[c]})" for c in bad)
        return ValueError(f"residual must be finite: step {step}, {cells}")

    def derivative(step):
        # dL/dr of the residual block R, into D
        try:
            return loss_derivative(stack, R, out=D)
        except ValueError as exc:
            raise non_finite(step, R) from exc

    for step in range(t0, cfg.max_iter):
        gram_products(K, state.alpha, Kalpha, spans)
        if track:
            keep = []
            for r, c in enumerate(live):
                try:
                    h = float(0.5 * state.alpha[r] @ Kalpha[r] + C[c] * np.sum(loss_value(loss[c], Y[r] - Kalpha[r])))
                except ValueError as exc:
                    raise non_finite(step, Y - Kalpha) from exc
                if cfg.collect_trace:
                    traces[c].append(h)
                if cfg.early_stop and prev_h[c] is not None:
                    flat_run[c] = flat_run[c] + 1 if abs(h - prev_h[c]) < cfg.early_stop_tol else 0
                    if flat_run[c] >= cfg.early_stop_patience:
                        finish(r, c, stopped=True)
                        continue
                prev_h[c] = h
                keep.append(r)
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[r] for r in keep]
                fold_of, spans = layout(live)
                state = AdamState(alpha=state.alpha[keep], m=state.m[keep], v=state.v[keep], t=state.t)
                avg = avg[keep]
                Y, Kalpha, block = Y[keep], Kalpha[keep], block[keep]
                Kd, work, row_of = Kd[: len(keep)], tuple(w[: len(keep)] for w in work), row_of[: len(keep)]
                R, D = R[: len(keep)], D[: len(keep)]
                stack, C_blk, gamma_blk = blocks(live)
        if s == n:
            # full batch: no draw, no row gather (K is symmetric)
            np.subtract(Y, Kalpha, out=R)
            gram_products(K, derivative(step), Kd, spans)
        else:
            if step % n == 0 or step == t0:
                # the batches up to the next multiple of n steps (or the
                # run's end) in one draw per row: at most n * n scratch
                # indices, no more than the Gram.  A resumed run draws the
                # rest of the block it stopped in
                drawn_at, draws = step, min(n - step % n, cfg.max_iter - step)
                block = np.stack([sample_without_replacement(rngs[c], n, s, draws=draws) for c in live])
                # canonical index order keeps the float summation order
                # independent of the draw
                block.sort(axis=2)
            batch = block[:, step - drawn_at]
            np.subtract(Y[row_of, batch], Kalpha[row_of, batch], out=R)
            d = derivative(step)
            np.matmul(K[fold_of[:, None], batch].transpose(0, 2, 1), d[:, :, None], out=Kd[:, :, None])
        # the gradient K alpha - C * K d, in place in Kd
        Kd *= C_blk
        np.subtract(Kalpha, Kd, out=Kd)
        state = adam_step(state, Kd, cfg, gamma=gamma_blk, out=work)
        # avg += (1 - w) * (alpha - avg), in adam_step's work buffer
        a = np.subtract(state.alpha, avg, out=work[0])
        a *= 1.0 - EMA_WEIGHT
        avg += a
    else:
        for r, c in enumerate(live):
            finish(r, c)
    return AdamStack(out, sum(end.t - start.t for end, start in zip(out, begin)))
