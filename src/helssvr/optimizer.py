"""Mini-batch Adam for the kernelized regression objective.

The trainer minimizes, over the coefficient vector alpha,

    H(alpha) = 1/2 * alpha^T K alpha + C * sum_i L(xi_i),
    xi_i = y_i - (K alpha)_i,

where K is the training Gram matrix, in any of the forms of
:mod:`helssvr.kernels`, and L any loss from :mod:`helssvr.losses`.  Each
iteration draws a fresh uniform mini-batch of each training set without
replacement; the quadratic term's gradient K alpha is computed exactly every
step, while the loss-sum gradient is restricted to the batch rows.  One call
can train several cells (C, loss and learning rate), of one loss kind or
several, on one training set or on several of equal size.  The cells of a
set share its mini-batches, drawn from the set's seed.  A cell alone among
its kind's cells in its training set computes exactly what a run of its own
with that seed does; cells of one kind that share a set share its Gram
products, which agree with a run of their own to rounding (see
:func:`train_adam`).
"""

from __future__ import annotations

import numbers
import pickle
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .losses import LossSpec, loss_derivative, loss_value, stack_losses
from .seeding import copy_rng, make_rng, sample_without_replacement

#: weight of the previous average in the coefficients :func:`train_adam`
#: returns: avg_t = w avg_{t-1} + (1 - w) alpha_t from avg_0 = 0, divided
#: by 1 - w^t (Kingma & Ba 2015, section 7.2)
EMA_WEIGHT = 0.99


#: Adam's fixed settings, the values Kingma & Ba 2015 suggest: the decay
#: rates of the first and second moment, and the stabilizer added to the
#: second moment
BETA1, BETA2, DELTA = 0.9, 0.999, 1e-8

#: the value at which a fresh cell's coefficients and both moment vectors
#: start
START = 0.01


@dataclass(frozen=True)
class AdamConfig:
    """The Adam settings a run may vary; the others are :data:`BETA1`,
    :data:`BETA2`, :data:`DELTA` and :data:`START`.

    ``gamma`` is the learning rate; 0.01 is the largest value of the usual
    search set {1e-4, 1e-3, 1e-2}.  ``batch_size`` and ``max_iter``
    (defaults 32 and 1000) are integers >= 1, ``seed`` one >= 0.
    """

    gamma: float = 0.01
    batch_size: int = 32
    max_iter: int = 1000
    seed: int = 0
    collect_trace: bool = False

    def __post_init__(self):
        check_cell(self.gamma)
        check_seed(self.seed)
        for name in ("batch_size", "max_iter"):
            if not isinstance(getattr(self, name), numbers.Integral) or getattr(self, name) < 1:
                raise ValueError(f"adam {name} must be an integer >= 1")


def check_cell(gamma, C=None, where=""):
    """Raise ValueError, ending in ``where``, unless ``gamma`` is finite and
    > 0 and ``C``, where given, finite and > 0."""
    if C is not None and not 0 < C < np.inf:
        raise ValueError(f"C must be finite and > 0{where}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"adam gamma must be finite and > 0{where}")


def check_seed(seed, where=""):
    """Raise ValueError, ending in ``where``, unless ``seed`` is an integer
    >= 0."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"adam seed must be an integer >= 0{where}")


@dataclass
class AdamState:
    """Coefficients plus both moment vectors and the step counter.

    The vectors are 1-D for one cell, or the rows of (m, n) arrays while
    :func:`train_adam` trains m cells together.  A state :func:`train_adam`
    returns also holds what its ``resume`` argument needs to continue the
    cell: the raw iterate (``alpha`` is the averaged one), the average
    before its bias correction and a copy of its training set's generator.
    :func:`adam_step` leaves these unset.  ``diverged`` is the step at which
    :func:`train_adam` found the cell's residual or returned coefficients
    non-finite, None for a cell that trained.
    """

    alpha: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    trace: list[float] | None = None
    iterate: np.ndarray | None = None
    avg: np.ndarray | None = None
    rng: np.random.Generator | None = None
    diverged: int | None = None


def _objective(alpha, Kalpha, resid, C, loss, check=True) -> float:
    """H from K alpha and the residual y - K alpha, in float64."""
    return float(0.5 * alpha @ Kalpha + C * np.sum(loss_value(loss, resid, check=check)))


def objective_value(alpha, gram, y, C: float, loss: LossSpec) -> float:
    """H(alpha) = 1/2 alpha^T K alpha + C * sum of losses at the residuals.

    ``gram`` is one training set's Gram, in any form of
    :mod:`helssvr.kernels`, which makes K alpha as :func:`train_adam` makes
    it for one row; everything else is float64.  Raises ValueError for a
    Gram of several sets or of another size than ``alpha``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if gram.target_shape not in ((len(alpha),), (1, len(alpha))):
        raise ValueError(f"objective_value takes one set's Gram of {len(alpha)} rows, got one for targets {gram.target_shape}")
    Kalpha = np.empty((1, len(alpha)))
    gram.products(alpha[None], Kalpha, [(0, slice(0, 1))])
    return _objective(alpha, Kalpha[0], np.asarray(y, dtype=float) - Kalpha[0], C, loss)


def adam_step(state: AdamState, grad, gamma, out=None) -> AdamState:
    """One Adam update at learning rate ``gamma``; returns the new state
    with ``t`` incremented.

    Bias correction uses the post-increment step counter, and the
    stabilizer :data:`DELTA` sits inside the square root:
    alpha <- alpha - gamma * m_hat / sqrt(v_hat + delta).  ``gamma`` may
    be an array shaped like the state, which gives each row of a stacked
    state its own learning rate.

    ``out`` is an optional pair of work arrays shaped like the state.  With
    it the update is made in place, allocating nothing: ``state``'s arrays
    are overwritten and ``state`` itself is returned.  Without it the input
    state is left as it was.  Both run the same operations in the same
    order, so their results agree bit for bit.
    """
    grad = np.asarray(grad, dtype=float)
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
    np.multiply(grad, 1.0 - BETA1, out=a)
    state.m *= BETA1
    state.m += a
    # v <- beta2 * v + (1 - beta2) * grad^2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - BETA2
    state.v *= BETA2
    state.v += a
    # alpha <- alpha - gamma * m_hat / sqrt(v_hat + delta)
    np.divide(state.m, 1.0 - BETA1**state.t, out=a)
    a *= gamma
    np.divide(state.v, 1.0 - BETA2**state.t, out=b)
    b += DELTA
    np.sqrt(b, out=b)
    a /= b
    state.alpha -= a
    return state


@dataclass
class AdamStack:
    """Final states of the cells one stacked :func:`train_adam` call trained.

    ``t`` is the number of Adam steps this call ran, summed over the cells;
    each step makes two products with the Gram.  A resumed cell adds the
    steps past its state's ``t`` only.
    """

    states: list[AdamState]
    t: int


def train_adam(gram, y, C, loss, cfg: AdamConfig, gamma=None, seed=None, fold=None, resume=None):
    """Run Adam iterations up to step ``cfg.max_iter`` and return the final
    state, whose coefficients are the moving average of the iterates.  A
    fresh cell's coefficients and moments start at :data:`START`.

    Each training set draws a fresh mini-batch of size min(batch_size, N)
    uniformly without replacement at every iteration, from its own
    generator, and every cell on the set trains on it, so the cells of a set
    are compared on common random numbers.  The batches are drawn up to the
    next multiple of N steps at a time, in one sampler call per set, and are
    the batches one draw per step would give.  Residuals use the full
    coefficient vector against the batch's Gram rows.  The run is
    bit-reproducible for a fixed config (including the seeds).

    When ``collect_trace`` is set, ``state.trace[t]`` holds H(alpha_t) for
    t = 0..T, except that the last entry is H of the returned coefficients
    (:func:`objective_value`).  The state's ``alpha`` is the bias-corrected
    average avg_t / (1 - w^t), avg_t = w avg_{t-1} + (1 - w) alpha_t
    (w = :data:`EMA_WEIGHT`, avg_0 = 0), not the last iterate, which
    oscillates at a constant step size.  The correction makes it a weighted
    mean of alpha_1..alpha_t, so a short run keeps no weight on alpha_0.
    The moments are the last iterate's.

    ``resume`` continues earlier runs: a state this function returned,
    given with the cell's settings and set of that run, trains on from its
    step t to ``cfg.max_iter`` with its own trace.  Its set draws on from
    the generator its states hold, so ``cfg.seed`` and ``seed`` then play no
    part: the cells of one set resumed in one call must hold generators in
    one state, else ValueError naming the set.  The cells resumed in one
    call must share t.  The states passed in are left as they were.  A run
    to step k resumed to step T is bit-identical to a run to T in the same
    stack layout (below): a resumed set draws the rest of its block of
    batches, and a block of draws is bit for bit the successive draws
    (:func:`~helssvr.seeding.sample_without_replacement`).

    To train m cells at once, pass ``C`` and ``loss`` as sequences of m
    values, and optionally ``gamma`` and ``resume`` as sequences that
    replace ``cfg``'s learning rate, and the fresh start, per cell (a None
    in ``resume`` starts that cell fresh); ``cfg`` gives every other
    setting.  Each cell's C and learning rate are checked
    (:func:`check_cell`), and an error names the cell.  The call then
    returns an :class:`AdamStack`.  ``gram`` is a Gram in any form of
    :mod:`helssvr.kernels`, of one training set of N rows with ``y`` of
    shape (N,), or of f sets of N rows each with ``y`` the (f, N) targets,
    ``fold`` each cell's set (all 0 by default) and ``seed`` each set's
    Adam seed (all ``cfg.seed`` by default; :func:`check_seed`, an error
    naming the set).

    A cell diverges at the first step whose residual holds a non-finite
    value, or at ``cfg.max_iter`` when its returned coefficients do: its
    state records that step in ``diverged``, and its ``alpha`` is NaN.  The
    residual block is checked once per step, before the loss derivative,
    and with ``collect_trace`` once more before the objectives.  A diverged
    row stays in its blocks but is inert: its iterate, moments, average, C
    and learning rate are zeroed, so it takes zero steps, and since each
    product row reads only its own input row, every other row keeps its
    bits.  Its trace stops at the step before it diverged.  A resumed
    diverged state stays diverged at its step.

    The cells may be of several loss kinds.  Their coefficient, moment and
    residual vectors are stacked as the rows of (m, N) arrays, grouped by
    kind (in order of first appearance) and within a kind by set, each in
    cell order, so the elementwise work of a step runs once for all of
    them, the loss derivative once per kind, in buffers allocated once per
    call.  Each cell keeps its own targets and trace, and its row from its
    start step to ``cfg.max_iter``.  The Gram makes K alpha (and, at full
    batch, K d), and a mini-batch's K_B^T d on each set's batch rows,
    gathered once per step, per block of one kind and set, one block of
    all sets when the kind holds the same number of rows in each (see
    :mod:`helssvr.kernels`).  So, in every form:

    * a cell alone among its kind's rows in its set is bit-identical to a
      one-cell run with its set's seed;
    * a run is bit-identical to itself for the same cells in the same
      stack layout (cells per kind and set, in the same order), whatever
      rows of other kinds share the stack: a stack of several kinds gives
      each kind's rows the bits of a stack of that kind alone;
    * a cell whose kind holds several rows in its set differs from a
      one-cell run by the rounding of the GEMM, which Adam then carries
      forward.

    The coefficients, moments, average, residuals, derivatives and
    objectives are float64 whatever the Gram's form.
    """
    if isinstance(loss, LossSpec):
        return train_adam(gram, y, [C], [loss], cfg, resume=None if resume is None else [resume]).states[0]
    n = gram.n
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    y = np.asarray(y, dtype=float)
    if y.shape != gram.target_shape:
        raise ValueError(f"target vector has shape {y.shape}, expected {gram.target_shape}")
    Ys = y.reshape(-1, n)
    f = len(Ys)
    C, loss = list(C), list(loss)
    m = len(C)
    gamma = [cfg.gamma] * m if gamma is None else list(gamma)
    seed = [cfg.seed] * f if seed is None else list(seed)
    fold = [0] * m if fold is None else [int(k) for k in fold]
    resume = [None] * m if resume is None else list(resume)
    if not m == len(loss) == len(gamma) == len(fold) == len(resume) > 0:
        raise ValueError("C, loss, gamma, fold and resume must give the same non-zero number of cells")
    if len(seed) != f:
        raise ValueError(f"seed must give one value per training set: got {len(seed)} for {f} sets")
    if not all(0 <= k < f for k in fold):
        raise ValueError(f"fold indices must lie in [0, {f})")
    for c in range(m):
        check_cell(gamma[c], C[c], f": cell {c}")
    for k in sorted(set(fold)):
        check_seed(seed[k], f": set {k}")

    def fresh():
        alpha0 = np.full(n, START)
        return AdamState(
            alpha=alpha0, m=np.full(n, START), v=np.full(n, START),
            trace=[] if cfg.collect_trace else None, iterate=alpha0, avg=np.zeros(n),
        )

    begin = [fresh() if start is None else start for start in resume]
    t0 = begin[0].t
    if any(start.t != t0 for start in begin) or t0 > cfg.max_iter:
        raise ValueError(f"resumed cells must share one step count, at most max_iter ({cfg.max_iter})")
    if cfg.collect_trace and any(start.trace is None for start in begin):
        raise ValueError("cannot trace a cell resumed from a run without a trace")
    # each set's generator, drawn from by all of its cells: a fresh set's
    # from its seed, a resumed set's a copy of the one its cells hold
    rngs, held = {}, {}
    for c, start in enumerate(resume):
        k = fold[c]
        if start is not None:
            state = pickle.dumps(start.rng.bit_generator.state)
            if held.setdefault(k, state) != state:
                raise ValueError(f"resumed cells of set {k} hold generators in different states")
        if k not in rngs:
            rngs[k] = make_rng(seed[k]) if start is None else copy_rng(start.rng)

    s = min(cfg.batch_size, n)
    # the cell of each stack row, by kind (in order of first appearance)
    # and then by set
    kinds = {kind: i for i, kind in enumerate(dict.fromkeys(spec.kind for spec in loss))}
    order = sorted(range(m), key=lambda c: (kinds[loss[c].kind], fold[c]))
    # each kind's (set, rows) blocks of Gram products, one block of set
    # None when the kind holds the same number of rows in each set, so that
    # one broadcast makes all of its GEMVs or GEMMs (against a matmul per
    # set, it won 9 of 10 pairs of cli_bench runs), and each kind's loss
    # stack and rows
    spans, stacks, lo = [], [], 0
    for _, group in groupby(order, key=lambda c: loss[c].kind):
        group = list(group)
        rows = slice(lo, lo + len(group))
        stacks.append((stack_losses([loss[c] for c in group], s), rows))
        counts = np.bincount([fold[c] for c in group], minlength=f)
        if counts.min() == counts.max():
            spans.append((None, rows))
        else:
            ends = lo + np.cumsum(counts)
            spans.extend((k, slice(int(e - c), int(e))) for k, (c, e) in enumerate(zip(counts, ends)) if c)
        lo = rows.stop
    fold_of = np.array([fold[c] for c in order])
    # every per-cell value repeated across its row, as wide as the arrays it
    # meets: same-shape elementwise operations are numpy's fastest, and give
    # each row the bits a one-cell run gets
    C_blk = np.repeat(np.array([[C[c]] for c in order], dtype=float), n, axis=1)
    gamma_blk = np.repeat(np.array([[gamma[c]] for c in order], dtype=float), n, axis=1)
    # the step at which each stack row diverged, None while it trains
    diverged = [begin[c].diverged for c in order]
    inert = [r for r, step in enumerate(diverged) if step is not None]
    C_blk[inert] = gamma_blk[inert] = 0.0

    # np.stack copies, so the states passed in stay as they were
    state = AdamState(
        alpha=np.stack([begin[c].iterate for c in order]),
        m=np.stack([begin[c].m for c in order]),
        v=np.stack([begin[c].v for c in order]),
        t=t0,
    )
    avg = np.stack([begin[c].avg for c in order])
    work = (np.empty((m, n)), np.empty((m, n)))  # adam_step's in-place buffers
    Y = Ys[fold_of]
    Kalpha, Kd = np.empty((m, n)), np.empty((m, n))
    R, D = np.empty((m, s)), np.empty((m, s))  # the residual and its derivative
    row_of = np.arange(m)[:, None]
    # a trace ends in H of the averaged coefficients, which a resumed
    # cell's next step replaces
    traces = [start.trace[: start.t] if cfg.collect_trace else None for start in begin]

    def check_finite(step, block):
        # a row of the residual (or, after the last step, of the returned
        # coefficients) that holds a non-finite value diverges here: zero
        # what it carries into later steps, and its K alpha and residual of
        # this step, which the trace and the gradient read
        if not np.isfinite(block).all():
            rows = np.flatnonzero(~np.isfinite(block).all(axis=1))
            for a in (state.alpha, state.m, state.v, avg, C_blk, gamma_blk, Kalpha, R):
                a[rows] = 0.0
            for r in rows:
                diverged[r] = step

    def derivative(step):
        # dL/dr of the residual block R, into D, one call per kind; the
        # loss stacks skip the check made here once for the block
        check_finite(step, R)
        for stack, rows in stacks:
            loss_derivative(stack, R[rows], out=D[rows])
        return D

    for step in range(t0, cfg.max_iter):
        gram.products(state.alpha, Kalpha, spans)
        if cfg.collect_trace:
            resid = Y - Kalpha
            check_finite(step, resid)
            for r, c in enumerate(order):
                if diverged[r] is None:
                    traces[c].append(_objective(state.alpha[r], Kalpha[r], resid[r], C[c], loss[c], check=False))
        if s == n:
            # full batch: no draw, no row gather (K is symmetric)
            np.subtract(Y, Kalpha, out=R)
            gram.products(derivative(step), Kd, spans)
        else:
            if step % n == 0 or step == t0:
                # the batches up to the next multiple of n steps (or the
                # run's end) in one draw per set: at most n * n scratch
                # indices per set, no more than its Gram.  A resumed run
                # draws the rest of the block it stopped in; a set without
                # rows keeps batches of row 0, which no row uses
                drawn_at, draws = step, min(n - step % n, cfg.max_iter - step)
                block = np.zeros((f, draws, s), np.intp)
                for k, rng in rngs.items():
                    block[k] = sample_without_replacement(rng, n, s, draws=draws)
                # canonical index order keeps the float summation order
                # independent of the draw
                block.sort(axis=2)
            batch = block[:, step - drawn_at]
            rows_batch = batch[fold_of]
            np.subtract(Y[row_of, rows_batch], Kalpha[row_of, rows_batch], out=R)
            gram.batch_products(batch, derivative(step), Kd, spans)
        # the gradient K alpha - C * K d, in place in Kd
        Kd *= C_blk
        np.subtract(Kalpha, Kd, out=Kd)
        state = adam_step(state, Kd, gamma_blk, out=work)
        # avg += (1 - w) * (alpha - avg), in adam_step's work buffer
        a = np.subtract(state.alpha, avg, out=work[0])
        a *= 1.0 - EMA_WEIGHT
        avg += a
    alphas = avg / (1.0 - EMA_WEIGHT**state.t)
    check_finite(state.t, alphas)
    out = [None] * m
    for r, c in enumerate(order):
        if diverged[r] is not None:
            alphas[r] = np.nan
        elif cfg.collect_trace:
            traces[c].append(objective_value(alphas[r], gram.one_set(fold[c]), Ys[fold[c]], C[c], loss[c]))
        out[c] = AdamState(
            alpha=alphas[r], m=state.m[r].copy(), v=state.v[r].copy(), t=state.t, trace=traces[c],
            iterate=state.alpha[r].copy(), avg=avg[r].copy(), rng=copy_rng(rngs[fold[c]]), diverged=diverged[r],
        )
    return AdamStack(out, m * (state.t - t0))
