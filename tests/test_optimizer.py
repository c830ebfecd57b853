import re
from dataclasses import fields, replace

import numpy as np
import pytest

from helssvr.kernels import FACTOR_TOL, GramFactors, GramMatrix, KernelSpec, gram_factor, gram_matrix
from helssvr.losses import LossSpec, loss_derivative, loss_value
from helssvr.optimizer import (
    BETA1,
    BETA2,
    EMA_WEIGHT,
    START,
    AdamConfig,
    AdamState,
    adam_step,
    objective_value,
    train_adam,
)
from helssvr.seeding import make_rng, sample_without_replacement

# The stated tolerances between stack layouts (README, "Stacked training in
# the grid search").  One Gram product: a length-n dot product summed in
# any order is within gamma_n * (|K| |a|) of the exact one componentwise,
# gamma_n = n u / (1 - n u) with u = eps / 2 (Higham 2002, section 3.1), so
# a GEMM row and the GEMV differ by at most 2 gamma_n * (|K| |a|) on any
# BLAS.  OpenBLAS 0.3.31 measured at most 4.5 eps, far inside it, for n
# from 80 to 2000 and up to 32 rows.  A short run (up to 200 Adam steps)
# carries that forward: every vector stays within SHORT_RUN_RTOL of the
# one-cell run's largest entry, and every objective within SHORT_RUN_RTOL
# relative.  That bound is empirical: OpenBLAS 0.3.31 measured at most
# 1.3e-12 and 3.5e-12 on 20 random instances.
SHORT_RUN_RTOL = 1e-10


def product_bound(K, a):
    """2 gamma_n * (|K| |a|): how far two summation orders of K @ a may
    differ componentwise."""
    u = np.finfo(float).eps / 2
    gamma = K.shape[-1] * u / (1 - K.shape[-1] * u)
    return 2 * gamma * (np.abs(K) @ np.abs(a))


def zero_state(n):
    return AdamState(alpha=np.zeros(n), m=np.zeros(n), v=np.zeros(n), t=0)


def hand_adam_trace(gs, gamma=0.01, beta1=0.9, beta2=0.999, delta=1e-8):
    """Literal float64 transcription of the moment/bias/update equations."""
    m = v = alpha = 0.0
    out = []
    for t, g in enumerate(gs, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        alpha = alpha - gamma * m_hat / (v_hat + delta) ** 0.5
        out.append((m, v, m_hat, v_hat, alpha))
    return out


class TestAdamStep:
    def test_zero_gradient_keeps_alpha(self):
        state = zero_state(3)
        new = adam_step(state, np.zeros(3), 0.01)
        assert np.array_equal(new.alpha, state.alpha)
        assert new.t == 1

    def test_single_step_against_hand_trace(self):
        (m1, v1, mh1, vh1, a1), _ = hand_adam_trace([1.0, 1.0])
        new = adam_step(zero_state(1), np.array([1.0]), 0.01)
        assert new.m[0] == m1
        assert new.v[0] == v1
        assert new.alpha[0] == pytest.approx(a1, rel=1e-15)

    def test_two_steps_constant_gradient(self):
        trace = hand_adam_trace([1.0, 1.0])
        state = zero_state(1)
        for (m, v, _, _, alpha) in trace:
            state = adam_step(state, np.array([1.0]), 0.01)
            assert state.m[0] == pytest.approx(m, rel=1e-15)
            assert state.v[0] == pytest.approx(v, rel=1e-15)
            assert state.alpha[0] == pytest.approx(alpha, rel=1e-12)

    def test_bias_correction_at_t1(self):
        # with zero moments, the corrected moments equal g and g^2 exactly
        g = np.array([0.37, -2.1])
        state = adam_step(zero_state(2), g, 0.01)
        m_hat = state.m / (1 - BETA1)
        v_hat = state.v / (1 - BETA2)
        assert m_hat == pytest.approx(g, rel=1e-12)
        assert v_hat == pytest.approx(g * g, rel=1e-12)

    def test_update_magnitude_bound(self):
        rng = np.random.default_rng(0)
        gamma = 0.01
        state = zero_state(4)
        prev = state.alpha.copy()
        for t in range(50):
            g = rng.normal(size=4)
            state = adam_step(state, g, gamma)
            if t >= 5:
                assert np.all(np.abs(state.alpha - prev) <= gamma * 2.0)
            prev = state.alpha.copy()

    def test_second_moment_nonnegative(self):
        rng = np.random.default_rng(1)
        state = zero_state(4)
        for _ in range(30):
            state = adam_step(state, rng.normal(size=4), 0.01)
            assert np.all(state.v >= 0.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=0.0),
            dict(batch_size=0),
            dict(max_iter=0),
            dict(gamma=float("inf")),
            dict(gamma=float("nan")),
            dict(gamma=-0.01),
            dict(gamma=float("-inf")),
            dict(batch_size=-1),
            dict(max_iter=-1),
            dict(seed=-1),
            dict(seed=1.5),
        ],
    )
    def test_bad_configs(self, kw):
        with pytest.raises(ValueError):
            AdamConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(batch_size=2.5), dict(max_iter=5.5), dict(batch_size=32.0), dict(max_iter=100.0),
        dict(batch_size=float("nan")), dict(max_iter=float("inf")), dict(batch_size="32"),
    ])
    def test_counts_must_be_integers(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=f"^adam {name} must be an integer >= 1$"):
            AdamConfig(**kw)

    def test_defaults(self):
        from helssvr.optimizer import DELTA

        cfg = AdamConfig()
        assert (cfg.gamma, cfg.batch_size, cfg.max_iter, cfg.seed, cfg.collect_trace) == (0.01, 32, 1000, 0, False)
        assert (BETA1, BETA2, DELTA, START) == (0.9, 0.999, 1e-8, 0.01)

    @pytest.mark.parametrize("name, value", [
        ("early_stop", True), ("early_stop_tol", 1e-2), ("early_stop_patience", 3),
        ("beta1", 0.8), ("beta2", 0.99), ("delta", 1e-6), ("alpha0", 0.0), ("m0", 0.0), ("v0", 0.0),
    ])
    def test_removed_fields(self, name, value):
        # every row trains to max_iter, so no field stops it early; Adam's
        # decay rates, stabilizer and start are module constants
        with pytest.raises(TypeError):
            AdamConfig(**{name: value})
        assert [f.name for f in fields(AdamConfig)] == ["gamma", "batch_size", "max_iter", "seed", "collect_trace"]


def small_instance(seed, n=6, loss_kind="hawkeye"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = rng.uniform(-1, 1, size=n)
    gram = gram_matrix(KernelSpec("rbf", sigma=float(rng.uniform(0.5, 2.0))), X)
    if loss_kind == "hawkeye":
        loss = LossSpec("hawkeye", epsilon=0.1, a=float(rng.uniform(0.5, 2.0)), lam=1.0)
    else:
        loss = LossSpec(loss_kind)
    C = float(rng.uniform(0.5, 5.0))
    alpha = rng.normal(scale=0.5, size=n)
    return gram, y, C, loss, alpha


def fd_gradient(alpha, gram, y, C, loss, h=1e-6):
    g = np.zeros_like(alpha)
    for j in range(alpha.size):
        up = alpha.copy()
        dn = alpha.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (objective_value(up, gram, y, C, loss) - objective_value(dn, gram, y, C, loss)) / (2 * h)
    return g


def objective_gradient(alpha, gram, y, C, loss, batch):
    """Gradient of H restricted to a mini-batch of loss terms, the oracle
    the trainer's gradients are checked against.

    Returns K alpha + C * sum over the batch of the loss-term gradients,
    each of which is -dL/dxi_i times row i of K.  With the full index set
    as the batch this is the exact gradient of H.
    """
    K = gram.values
    batch = np.asarray(batch, dtype=int)
    if batch.size and (batch.min() < 0 or batch.max() >= gram.n):
        raise ValueError("batch index out of range")
    Kalpha = K @ alpha
    d = loss_derivative(loss, y[batch] - Kalpha[batch])
    return Kalpha - C * (K[batch].T @ d)


class TestObjectiveGradient:
    """The gradient oracle against the objective and finite differences."""

    def test_zero_alpha_zero_targets(self):
        gram = gram_matrix(KernelSpec("rbf", sigma=1.0), np.eye(3))
        loss = LossSpec("hawkeye", epsilon=0.1, a=1.0, lam=1.0)
        g = objective_gradient(np.zeros(3), gram, np.zeros(3), 2.0, loss, np.arange(3))
        assert np.array_equal(g, np.zeros(3))

    def test_residuals_inside_band_leave_only_quadratic_term(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        gram = gram_matrix(KernelSpec("rbf", sigma=1.5), X)
        alpha = rng.normal(scale=0.01, size=5)
        Kalpha = gram.values @ alpha
        y = Kalpha + rng.uniform(-0.05, 0.05, 5)  # residuals within the band
        loss = LossSpec("hawkeye", epsilon=0.1, a=1.0, lam=1.0)
        g = objective_gradient(alpha, gram, y, 10.0, loss, np.arange(5))
        assert np.array_equal(g, Kalpha)

    def test_out_of_range_batch(self):
        gram = GramMatrix(np.eye(3))
        with pytest.raises(ValueError):
            objective_gradient(np.zeros(3), gram, np.zeros(3), 1.0, LossSpec("least_squares"), [3])

    @pytest.mark.parametrize("loss_kind", ["hawkeye", "least_squares"])
    def test_full_batch_matches_finite_differences(self, loss_kind):
        for seed in range(50):
            n = 4 + seed % 7
            gram, y, C, loss, alpha = small_instance(seed, n=n, loss_kind=loss_kind)
            g = objective_gradient(alpha, gram, y, C, loss, np.arange(n))
            fd = fd_gradient(alpha, gram, y, C, loss)
            assert np.all(np.abs(g - fd) <= np.maximum(1e-5, 1e-4 * np.abs(fd)))

    def test_objective_value_brute_force(self):
        rng = np.random.default_rng(9)
        n = 7
        gram, y, C, loss, alpha = small_instance(9, n=n)
        K = gram.values
        quad = 0.0
        for i in range(n):
            for k in range(n):
                quad += 0.5 * alpha[i] * alpha[k] * K[i, k]
        risk = 0.0
        from helssvr.losses import loss_value

        for i in range(n):
            xi = y[i] - sum(alpha[k] * K[i, k] for k in range(n))
            risk += loss_value(loss, xi)
        expected = quad + C * risk
        assert objective_value(alpha, gram, y, C, loss) == pytest.approx(expected, rel=1e-12)

    def test_objective_value_takes_one_set(self):
        # a stack of several sets, of a dense Gram or of factors, would
        # give set 0's objective; it raises, as does a Gram of another size
        gram, Ys, grams = fold_stack()
        factors = GramFactors(gram_factor(KernelSpec("rbf", sigma=1.0), X) for X in np.ones((2, 20, 1)))
        for stack in (gram, factors):
            with pytest.raises(ValueError, match=r"one set's Gram of 20 rows, got one for targets \((3|2), 20\)"):
                objective_value(np.zeros(20), stack, Ys[0], 1.0, LossSpec("least_squares"))
        with pytest.raises(ValueError, match=r"one set's Gram of 19 rows, got one for targets \(20,\)"):
            objective_value(np.zeros(19), grams[0], Ys[0][:19], 1.0, LossSpec("least_squares"))
        assert objective_value(np.zeros(20), factors.one_set(1), Ys[0], 1.0, LossSpec("least_squares")) > 0


class TestTrainAdam:
    def test_determinism(self):
        gram, y, C, loss, _ = small_instance(12, n=10)
        cfg = AdamConfig(max_iter=200, seed=77)
        a1 = train_adam(gram, y, C, loss, cfg).alpha
        a2 = train_adam(gram, y, C, loss, cfg).alpha
        assert np.array_equal(a1, a2)

    def test_different_seeds_differ(self):
        gram, y, C, loss, _ = small_instance(12, n=10)
        a1 = train_adam(gram, y, C, loss, AdamConfig(max_iter=200, batch_size=3, seed=1)).alpha
        a2 = train_adam(gram, y, C, loss, AdamConfig(max_iter=200, batch_size=3, seed=2)).alpha
        assert not np.array_equal(a1, a2)

    def test_objective_decreases_on_least_squares(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(5, 1))
        y = 2.0 * X[:, 0] + 0.1
        gram = gram_matrix(KernelSpec("rbf", sigma=1.0), X)
        loss = LossSpec("least_squares")
        cfg = AdamConfig(max_iter=2000, seed=0)
        state = train_adam(gram, y, 10.0, loss, cfg)
        h0 = objective_value(np.full(5, START), gram, y, 10.0, loss)
        hT = objective_value(state.alpha, gram, y, 10.0, loss)
        assert hT <= h0

    @pytest.mark.parametrize("start", [START, 0.0, 0.25])
    def test_fresh_cell_starts_at_the_start_constant(self, monkeypatch, start):
        # the trace's first entry is H of the coefficients a fresh cell
        # starts from, which are read from START when the call is made
        import helssvr.optimizer

        monkeypatch.setattr(helssvr.optimizer, "START", start)
        gram, y, C, loss, _ = small_instance(13, n=7)
        state = train_adam(gram, y, C, loss, AdamConfig(max_iter=3, seed=0, collect_trace=True))
        assert state.trace[0] == objective_value(np.full(7, start), gram, y, C, loss)

    def test_full_batch_degenerates_to_deterministic_descent(self):
        # batch >= N means the sampled index set is all of [0, N) each step
        gram, y, C, loss, _ = small_instance(21, n=6)
        cfg_a = AdamConfig(max_iter=100, batch_size=6, seed=5)
        cfg_b = AdamConfig(max_iter=100, batch_size=600, seed=999)
        a = train_adam(gram, y, C, loss, cfg_a).alpha
        b = train_adam(gram, y, C, loss, cfg_b).alpha
        assert np.allclose(a, b, rtol=0, atol=0)

    def test_trace_collection(self):
        gram, y, C, loss, _ = small_instance(30, n=8)
        cfg = AdamConfig(max_iter=50, seed=3, collect_trace=True)
        state = train_adam(gram, y, C, loss, cfg)
        assert len(state.trace) == 51
        assert state.trace[-1] == objective_value(state.alpha, gram, y, C, loss)

    def test_empty_dataset_rejected(self):
        gram = GramMatrix(np.eye(2))
        with pytest.raises(ValueError):
            train_adam(gram, np.zeros(3), 1.0, LossSpec("least_squares"), AdamConfig())
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train_adam(GramMatrix(np.empty((0, 0))), np.zeros(0), 1.0, LossSpec("least_squares"), AdamConfig())

    def test_iteration_counter(self):
        gram, y, C, loss, _ = small_instance(33, n=4)
        state = train_adam(gram, y, C, loss, AdamConfig(max_iter=17, seed=0))
        assert state.t == 17

    def test_noise_free_sine_fits_tightly(self):
        # 30 clean samples of a sine, defaults otherwise: the trained model
        # should track the curve to a couple of percent in-sample
        from helssvr.data import SyntheticSpec, generate_synthetic
        from helssvr.model import fit, predict

        ds, _ = generate_synthetic(SyntheticSpec(1, "none", n_samples=30, seed=6))
        model, _ = fit(
            ds.X,
            ds.y,
            KernelSpec("rbf", sigma=0.5),
            LossSpec("hawkeye", epsilon=0.01, a=1.0, lam=1.0),
            C=100.0,
            adam=AdamConfig(seed=0),
            scaling="zscore",
        )
        resid = ds.y - predict(model, ds.X)
        assert float(np.sqrt(np.mean(resid**2))) < 0.05


def layout_reference(K, Ys, Cs, losses, cfg, gammas, seeds, fold):
    """The stacked trainer written out one row at a time: the oracle for a
    fixed stack layout.

    Each step's Gram products run with the matmul shapes the trainer uses:
    over the rows of each loss kind in each set, a GEMV K_k @ a when
    the block holds one row and one GEMM A_k @ K_k when it holds several,
    and for a mini-batch the same on the set's batch rows of K_k.  Each set
    draws one batch per step from its seed's generator, which all of its
    rows train on; everything else runs per row as in a one-cell run.
    ``K`` is the (f, n, n) Gram stack, ``Ys`` the (f, n) targets and
    ``seeds`` the seed of each set.  A float32 ``K`` multiplies the vectors
    rounded to float32, and each product is widened to float64.
    """
    n = K.shape[-1]
    s = min(cfg.batch_size, n)
    states = [AdamState(alpha=np.full(n, START), m=np.full(n, START), v=np.full(n, START)) for _ in Cs]
    avgs = [np.zeros(n) for _ in Cs]
    rngs = {k: make_rng(seeds[k]) for k in sorted(set(fold))}
    traces = [[] for _ in Cs]
    cells = sorted(range(len(Cs)), key=fold.__getitem__)

    def products(vectors, batches=None):
        # K_k, or its rows of the set's batch, against each block's vectors
        out = {}
        for kind, k in sorted({(losses[c].kind, fold[c]) for c in cells}):
            rows = [c for c in cells if (losses[c].kind, fold[c]) == (kind, k)]
            Kk = K[k] if batches is None else K[k][batches[k]]
            if len(rows) == 1:
                v = vectors[rows[0]].astype(K.dtype)
                out[rows[0]] = (Kk @ v if batches is None else Kk.T @ v).astype(float)
            else:
                out.update(zip(rows, (np.stack([vectors[c] for c in rows]).astype(K.dtype) @ Kk).astype(float)))
        return out

    for step in range(cfg.max_iter):
        Kalpha = products({c: states[c].alpha for c in cells})
        for c in cells:
            traces[c].append(
                float(0.5 * states[c].alpha @ Kalpha[c] + Cs[c] * np.sum(loss_value(losses[c], Ys[fold[c]] - Kalpha[c])))
            )
        if s == n:
            Kd = products({c: loss_derivative(losses[c], Ys[fold[c]] - Kalpha[c]) for c in cells})
        else:
            batches = {k: np.sort(sample_without_replacement(rng, n, s)) for k, rng in rngs.items()}
            rows = {c: batches[fold[c]] for c in cells}
            Kd = products({c: loss_derivative(losses[c], Ys[fold[c]][rows[c]] - Kalpha[c][rows[c]]) for c in cells}, batches)
        for c in cells:
            states[c] = adam_step(states[c], Kalpha[c] - Cs[c] * Kd[c], gammas[c])
            avgs[c] = avgs[c] + (1.0 - EMA_WEIGHT) * (states[c].alpha - avgs[c])
    for c, trace in enumerate(traces):
        k = fold[c]
        alpha = avgs[c] / (1.0 - EMA_WEIGHT ** states[c].t)
        trace[states[c].t :] = [objective_value(alpha, GramMatrix(K[k]), Ys[k], Cs[c], losses[c])]
        states[c] = AdamState(alpha=alpha, m=states[c].m, v=states[c].v, t=states[c].t, trace=trace)
    return states


def assert_matches_reference(stack, want):
    for got, ref in zip(stack.states, want):
        for name in ("alpha", "m", "v"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        assert got.t == ref.t
        if got.trace is not None:
            assert [h.hex() for h in got.trace] == [h.hex() for h in ref.trace]


def assert_close_runs(got, alone):
    """A stacked row against a one-cell run, within the short-run tolerance:
    every vector within SHORT_RUN_RTOL of the one-cell run's largest entry,
    every trace value within SHORT_RUN_RTOL relative, and the same step
    count."""
    for name in ("alpha", "m", "v"):
        want = getattr(alone, name)
        assert np.max(np.abs(getattr(got, name) - want)) <= SHORT_RUN_RTOL * np.max(np.abs(want))
    assert got.t == alone.t
    if alone.trace is not None:
        assert len(got.trace) == len(alone.trace)
        assert np.allclose(got.trace, alone.trace, rtol=SHORT_RUN_RTOL, atol=0)


#: (gamma, seed, AdamConfig's message) for each kind of bad learning rate
#: or seed a cell can carry
BAD_RATE_OR_SEED = [
    pytest.param(-0.01, 0, "adam gamma must be finite and > 0", id="gamma=-0.01"),
    pytest.param(0.0, 0, "adam gamma must be finite and > 0", id="gamma=0"),
    pytest.param(float("nan"), 0, "adam gamma must be finite and > 0", id="gamma=nan"),
    pytest.param(float("inf"), 0, "adam gamma must be finite and > 0", id="gamma=inf"),
    pytest.param(0.01, -1, "adam seed must be an integer >= 0", id="seed=-1"),
    pytest.param(0.01, 1.5, "adam seed must be an integer >= 0", id="seed=1.5"),
]


class TestStackedTraining:
    """Cells that share one training set's Gram products: within the
    short-run tolerance of one-cell runs, and bit for bit the layout
    oracle."""

    def instance(self, n=23):
        rng = np.random.default_rng(40)
        X = rng.uniform(-1, 1, size=(n, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n)
        return gram_matrix(KernelSpec("rbf", sigma=0.7), X), y

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_rows_match_one_cell_runs(self, batch_size):
        gram, y = self.instance()
        Cs = [0.1, 1.0, 100.0, 100.0]
        losses = [
            LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0),
            LossSpec("hawkeye", epsilon=0.1, a=3.0, lam=0.5),
            LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0),
            LossSpec("hawkeye", epsilon=0.05, a=2.0, lam=1.5),
        ]
        gammas = [1e-3, 1e-3, 1e-2, 1e-3]
        cfg = AdamConfig(max_iter=200, batch_size=batch_size, collect_trace=True)
        # every row trains on the set's batches, those of a one-cell run with
        # the set's seed
        stack = train_adam(gram, y, Cs, losses, cfg, gamma=gammas, seed=[4])
        for C, loss, gamma, got in zip(Cs, losses, gammas, stack.states):
            alone = train_adam(gram, y, C, loss, replace(cfg, gamma=gamma, seed=4))
            assert_close_runs(got, alone)
            assert got.t == 200
        assert stack.t == 4 * 200

    def test_block_draws_match_one_draw_per_step(self):
        # n=20, batch 8: batches come 20 steps at a time, and 75 steps end
        # inside a block
        gram, y = self.instance(n=20)
        Cs = [1.0, 1.0, 100.0]
        loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)
        gammas = [1e-2, 1e-3, 1e-2]
        cfg = AdamConfig(max_iter=75, batch_size=8)
        stack = train_adam(gram, y, Cs, [loss] * 3, cfg, gamma=gammas, seed=[4])
        assert [got.t for got in stack.states] == [75] * 3
        want = layout_reference(gram.values[None], y[None], Cs, [loss] * 3, cfg, gammas, [4], [0, 0, 0])
        assert_matches_reference(stack, want)

    def test_cell_counts_must_agree(self):
        gram, y = self.instance()
        loss = LossSpec("least_squares")
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, y, [1.0, 2.0], [loss], AdamConfig())
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, y, [1.0], [loss], AdamConfig(), gamma=[0.01, 0.02])
        with pytest.raises(ValueError, match="seed must give one value per training set: got 2 for 1 sets"):
            train_adam(gram, y, [1.0, 2.0], [loss] * 2, AdamConfig(), seed=[0, 1])

    @pytest.mark.parametrize("gamma, seed, message", BAD_RATE_OR_SEED)
    def test_every_rate_and_seed_checked(self, gamma, seed, message):
        # a per-cell rate or per-set seed bypasses AdamConfig, so train_adam
        # checks it the same way, naming the cell or the set: a negative
        # rate would train uphill, a zero one return the start
        gram, Ys, _ = fold_stack(folds=2)
        loss = LossSpec("least_squares")
        with pytest.raises(ValueError, match=re.escape(message)):
            AdamConfig(gamma=gamma, seed=seed)
        where = "cell 1" if seed == 0 else "set 1"
        with pytest.raises(ValueError, match=re.escape(f"{message}: {where}")):
            train_adam(gram, Ys, [1.0, 1.0], [loss, loss], AdamConfig(max_iter=5), gamma=[0.01, gamma], seed=[0, seed],
                       fold=[0, 1])

    @pytest.mark.parametrize("C", [-1.0, 0.0, float("nan"), float("inf"), float("-inf")])
    def test_every_C_checked(self, C):
        # a C <= 0 would train without error, a non-finite one fail later
        # as a non-finite residual
        gram, y = self.instance()
        loss = LossSpec("least_squares")
        with pytest.raises(ValueError, match="^C must be finite and > 0: cell 1$"):
            train_adam(gram, y, [1.0, C], [loss, loss], AdamConfig(max_iter=5))
        with pytest.raises(ValueError, match="^C must be finite and > 0: cell 0$"):
            train_adam(gram, y, C, loss, AdamConfig(max_iter=5))


class TestAdamStepInPlace:
    def test_out_buffers_match_new_state(self):
        rng = np.random.default_rng(50)
        gamma = np.repeat([[1e-2], [1e-3]], 7, axis=1)
        fresh = AdamState(alpha=rng.normal(size=(2, 7)), m=rng.normal(size=(2, 7)), v=rng.uniform(size=(2, 7)))
        inplace = AdamState(alpha=fresh.alpha.copy(), m=fresh.m.copy(), v=fresh.v.copy())
        work = (np.empty((2, 7)), np.empty((2, 7)))
        for _ in range(5):
            grad = rng.normal(size=(2, 7))
            before = fresh.alpha.copy()
            fresh = adam_step(fresh, grad, gamma)
            assert not np.array_equal(before, fresh.alpha)
            returned = adam_step(inplace, grad, gamma, out=work)
            assert returned is inplace
            for name in ("alpha", "m", "v"):
                assert getattr(inplace, name).tobytes() == getattr(fresh, name).tobytes()
            assert inplace.t == fresh.t

    def test_without_out_the_input_is_kept(self):
        state = zero_state(3)
        state.alpha[:] = 1.0
        new = adam_step(state, np.ones(3), 0.01)
        assert state.t == 0 and np.all(state.alpha == 1.0) and np.all(state.m == 0.0)
        assert new.t == 1 and not np.shares_memory(new.alpha, state.alpha)


class TestAveragedIterate:
    """The trainer returns the EMA of the iterates, bit for bit the layout
    oracle's, which averages per-row :func:`adam_step` iterates."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)

    def test_config(self):
        # no field selects the last iterate
        with pytest.raises(TypeError):
            AdamConfig(average="ema")

    def test_state_keeps_no_early_stop_record(self):
        assert not {"prev_h", "flat_run", "stopped"} & {f.name for f in fields(AdamState)}

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_rows_match_hand_rolled_ema_of_one_cell_iterates(self, batch_size):
        # one row per fold, so each row's products are the GEMVs of a
        # one-cell run
        gram, Ys, grams = fold_stack()
        fold, Cs, gammas, seeds = [0, 1, 2], [1.0, 100.0, 10.0], [1e-2, 1e-2, 1e-3], [4, 5, 6]
        cfg = AdamConfig(max_iter=40, batch_size=batch_size, collect_trace=True)
        stack = train_adam(gram, Ys, Cs, [self.loss] * 3, cfg, gamma=gammas, seed=seeds, fold=fold)
        assert [got.t for got in stack.states] == [40] * 3
        want = layout_reference(gram.values, Ys, Cs, [self.loss] * 3, cfg, gammas, seeds, fold)
        assert_matches_reference(stack, want)
        for k, C, gamma, seed, got in zip(fold, Cs, gammas, seeds, stack.states):
            alone = train_adam(grams[k], Ys[k], C, self.loss, replace(cfg, gamma=gamma, seed=seed))
            assert got.alpha.tobytes() == alone.alpha.tobytes() and got.trace == alone.trace
            # the last trace entry is H of the returned coefficients
            assert got.trace[-1] == objective_value(got.alpha, grams[k], Ys[k], C, self.loss)


def fold_stack(sizes_n=20, folds=3, seed=60, dtype=np.float64):
    """(f, n, n) Grams in one aligned buffer of ``dtype``, the (f, n)
    targets, and the one-set Gram of each fold."""
    from helssvr.kernels import GramMatrix, gram_buffer

    rng = np.random.default_rng(seed)
    values = gram_buffer(folds, sizes_n, dtype)
    Ys = np.empty((folds, sizes_n))
    for k in range(folds):
        X = rng.uniform(-1, 1, size=(sizes_n, 2))
        gram_matrix(KernelSpec("rbf", sigma=0.7), X, out=values[k])
        Ys[k] = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=sizes_n)
    return GramMatrix(values), Ys, [GramMatrix(values[k]) for k in range(folds)]


class TestCrossFoldStack:
    """Rows of one stack train on different folds' Grams and targets, bit
    for bit as the layout oracle does."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)

    def check_rows(self, stack, Ys, grams, Cs, fold, gammas, seeds, cfg):
        K = np.stack([g.values for g in grams])
        want = layout_reference(K, Ys, Cs, [self.loss] * len(Cs), cfg, gammas, seeds, fold)
        assert_matches_reference(stack, want)
        for C, k, got in zip(Cs, fold, stack.states):
            assert got.trace[-1] == objective_value(got.alpha, grams[k], Ys[k], C, self.loss)

    @pytest.mark.parametrize("one_gamma", [False, True])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_two_rows_per_fold_out_of_fold_order(self, batch_size, one_gamma, dtype=np.float64):
        # the rows of each fold are listed apart, at learning rates that
        # differ or one shared by all
        gram, Ys, grams = fold_stack(dtype=dtype)
        fold, Cs, seeds = [2, 0, 1, 0, 2, 1], [1.0, 1.0, 100.0, 100.0, 10.0, 1.0], [4, 5, 6]
        gammas = [1e-2] * 6 if one_gamma else [1e-2, 1e-3, 1e-2, 1e-2, 1e-3, 1e-3]
        cfg = AdamConfig(max_iter=80, batch_size=batch_size, collect_trace=True)
        stack = train_adam(gram, Ys, Cs, [self.loss] * 6, cfg, gamma=gammas, seed=seeds, fold=fold)
        assert [state.t for state in stack.states] == [80] * 6 and stack.t == 6 * 80
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_unequal_rows_per_fold(self, batch_size, dtype=np.float64):
        # fold 1 holds no row at all, fold 0 three and fold 2 one
        gram, Ys, grams = fold_stack(dtype=dtype)
        fold, Cs, gammas, seeds = [0, 2, 0, 0], [1.0, 10.0, 100.0, 1.0], [1e-2] * 4, [1, 2, 3]
        cfg = AdamConfig(max_iter=45, batch_size=batch_size, collect_trace=True)
        stack = train_adam(gram, Ys, Cs, [self.loss] * 4, cfg, gamma=gammas, seed=seeds, fold=fold)
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_float32_grams(self, batch_size):
        # the two tests above on float32 Grams: every product is the
        # oracle's float32 one, GEMVs, GEMMs and mini-batch gathers alike
        self.test_two_rows_per_fold_out_of_fold_order(batch_size, False, np.float32)
        self.test_unequal_rows_per_fold(batch_size, np.float32)

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_non_finite_residual_names_step_cell_and_set(self, batch_size, trace, mixed):
        # cell 1, the second listed but the last stack row (fold 2), has a
        # learning rate that overflows its coefficients: its own state, and
        # only its, records the step it diverged at, whether the objective
        # trace or the derivative meets the residual first, and the stack
        # runs on, every other row bit for bit as when cell 1 trains at
        # 1e-2; mixed, cell 1 is a least-squares row behind hawkeye's in a
        # stack of both kinds
        gram, Ys, _ = fold_stack()
        cfg = AdamConfig(max_iter=50, batch_size=batch_size, collect_trace=trace)
        losses, fold = [self.loss] * 3, [0, 2, 1]
        if mixed:
            losses, fold = [self.loss, LossSpec("least_squares")] * 2, [0, 2, 1, 0]
        gamma, Cs = [1e-2] * len(losses), [1.0] * len(losses)
        healthy = train_adam(gram, Ys, Cs, losses, cfg, gamma=gamma, fold=fold)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = train_adam(gram, Ys, Cs, losses, cfg, gamma=[1e-2, 1e300, *gamma[2:]], fold=fold)
        bad = stack.states[1]
        assert 1 <= bad.diverged < 50 and bad.t == 50 and stack.t == 50 * len(losses)
        assert np.isnan(bad.alpha).all()
        assert not any(getattr(bad, name).any() for name in ("iterate", "avg", "m", "v"))
        # the trace holds H of the iterates before the step it diverged at
        assert (len(bad.trace) == bad.diverged) if trace else bad.trace is None
        others = [c for c in range(len(losses)) if c != 1]
        TestResume.assert_same_states([stack.states[c] for c in others], [healthy.states[c] for c in others])
        assert all(stack.states[c].diverged is None for c in others)

    def test_trainer_checks_the_residual_block_not_its_loss_calls(self, monkeypatch):
        # the trainer checks each step's residual block once itself, so an
        # untraced run never reaches the losses' own check; a traced run
        # checks only each row's final objective, of the averaged
        # coefficients; the public loss functions keep it
        from helssvr import losses

        calls, check = [], losses._check_residual

        def spy(r):
            calls.append(1)
            return check(r)

        monkeypatch.setattr(losses, "_check_residual", spy)
        gram, Ys, _ = fold_stack()
        mixed = [self.loss, LossSpec("least_squares")] * 2
        for batch_size in (6, 1000):
            train_adam(gram, Ys, [1.0] * 4, mixed, AdamConfig(max_iter=20, batch_size=batch_size), fold=[0, 2, 1, 0])
            assert calls == []
            cfg = AdamConfig(max_iter=20, batch_size=batch_size, collect_trace=True)
            train_adam(gram, Ys, [1.0] * 4, mixed, cfg, fold=[0, 2, 1, 0])
            assert len(calls) == 4
            calls.clear()
        for spec in mixed[:2]:
            for public in (loss_value, loss_derivative):
                with pytest.raises(ValueError, match=r"^residual must be finite$"):
                    public(spec, np.array([0.5, np.nan]))
        assert len(calls) == 4

    def test_fold_checked(self):
        gram, Ys, _ = fold_stack()
        with pytest.raises(ValueError, match=r"fold indices must lie in \[0, 3\)"):
            train_adam(gram, Ys, [1.0], [self.loss], AdamConfig(max_iter=5), fold=[3])
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, Ys, [1.0, 1.0], [self.loss] * 2, AdamConfig(max_iter=5), fold=[0])
        with pytest.raises(ValueError, match=r"expected \(3, 20\)"):
            train_adam(gram, Ys[0], [1.0], [self.loss], AdamConfig(max_iter=5))


class TestMixedKindStack:
    """Cells of several loss kinds in one stack: each kind's rows bit for
    bit a stack of that kind alone with the same rows per set, and the
    layout oracle."""

    # (loss, fold) of each cell, listed with the kinds interleaved and out
    # of fold order: hawkeye two rows per fold (a GEMM per fold), least
    # squares one per fold (one broadcast GEMV), huber two rows in fold 0
    # and one in fold 2 (a GEMM and a GEMV)
    he = (LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0), LossSpec("hawkeye", epsilon=0.1, a=3.0, lam=0.5))
    ls, hu = LossSpec("least_squares"), LossSpec("huber", theta=0.3)
    cells = [
        (he[0], 2), (ls, 0), (hu, 0), (he[1], 0), (ls, 2), (he[0], 1),
        (hu, 2), (he[1], 2), (ls, 1), (he[0], 0), (hu, 0), (he[1], 1),
    ]
    Cs = [1.0, 10.0, 100.0, 100.0, 1.0, 10.0, 1.0, 100.0, 100.0, 1.0, 10.0, 10.0]
    gammas = [1e-2, 1e-3, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-2, 1e-2, 1e-3, 1e-2, 1e-2]
    seeds = [4, 5, 6]  # of each set

    def train(self, cfg, rows, dtype=np.float64, resume=None):
        gram, Ys, _ = fold_stack(dtype=dtype)
        return train_adam(
            gram, Ys, [self.Cs[c] for c in rows], [self.cells[c][0] for c in rows], cfg,
            gamma=[self.gammas[c] for c in rows], seed=self.seeds,
            fold=[self.cells[c][1] for c in rows], resume=None if resume is None else [resume[c] for c in rows],
        )

    def by_kind(self):
        kinds = {}
        for c, (loss, _) in enumerate(self.cells):
            kinds.setdefault(loss.kind, []).append(c)
        return kinds.values()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_rows_match_one_kind_stacks_and_the_oracle(self, batch_size, dtype):
        cfg = AdamConfig(max_iter=80, batch_size=batch_size, collect_trace=True)
        every = range(len(self.cells))
        mixed = self.train(cfg, every, dtype)
        assert [state.t for state in mixed.states] == [80] * len(every)
        assert mixed.t == 80 * len(every)
        for rows in self.by_kind():
            alone = self.train(cfg, rows, dtype)
            TestResume.assert_same_states([mixed.states[c] for c in rows], alone.states)
        gram, Ys, _ = fold_stack(dtype=dtype)
        want = layout_reference(
            gram.values, Ys, self.Cs, [loss for loss, _ in self.cells], cfg, self.gammas, self.seeds,
            [k for _, k in self.cells],
        )
        assert_matches_reference(mixed, want)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_resumed_to_a_rung_matches_one_kind_stacks(self, batch_size):
        # hawkeye resumes from a rung at step 13 while the other kinds start
        # fresh, as a search's halving and non-halving recipes do; the
        # resumed call differs from the whole run only in its start steps,
        # so it runs the hawkeye rows on their own
        cfg = AdamConfig(batch_size=batch_size, collect_trace=True)
        he, *rest = self.by_kind()
        part = self.train(replace(cfg, max_iter=13), he).states
        resumed = self.train(replace(cfg, max_iter=57), he, resume=dict(zip(he, part)))
        whole = self.train(replace(cfg, max_iter=57), range(len(self.cells)))
        TestResume.assert_same_states(resumed.states, [whole.states[c] for c in he])
        with pytest.raises(ValueError, match="share one step count"):
            fresh = {c: None for c in rest[0]}
            self.train(replace(cfg, max_iter=57), [*he, *rest[0]], resume={**dict(zip(he, part)), **fresh})


class TestBatchedProductsAreRowGemvs:
    """The Gram products the trainer relies on, against one GEMV per row.

    A set's only row is a GEMV, bit for bit the product of a one-cell run;
    a set of several rows is a GEMM whose rows stay within the stated
    bound of the GEMVs; and a mini-batch's product does the same on the
    set's gathered batch rows.  A numpy or BLAS build that does otherwise
    fails here first.
    """

    def operands(self, n, folds=3, rows_per_fold=2):
        from helssvr.kernels import gram_buffer

        rng = np.random.default_rng(n)
        K = gram_buffer(folds, n)
        for k in range(folds):
            gram_matrix(KernelSpec("rbf", sigma=0.5), rng.uniform(-1, 1, size=(n, 2)), out=K[k])
        A = rng.normal(size=(folds * rows_per_fold, n))
        fold_of = np.repeat(np.arange(folds), rows_per_fold)
        return K, A, fold_of

    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_one_row_sets_equal_row_gemvs(self, n):
        K, A, fold_of = self.operands(n, rows_per_fold=1)
        got = np.empty_like(A)
        GramMatrix(K).products(A, got, [(None, slice(0, len(A)))])
        for r, k in enumerate(fold_of):
            assert got[r].tobytes() == np.matmul(K[k], A[r]).tobytes()
        # a lone row beside a set of several rows
        K, A, _ = self.operands(n, rows_per_fold=2)
        got = np.empty_like(A[:4])
        GramMatrix(K).products(A[:4], got, [(0, slice(0, 3)), (2, slice(3, 4))])
        assert got[3].tobytes() == np.matmul(K[2], A[3]).tobytes()

    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_gemm_rows_match_row_gemvs_within_bound(self, n):
        K, A, _ = self.operands(n, rows_per_fold=4)
        for spans in (
            [(k, slice(4 * k, 4 * k + 4)) for k in range(3)],
            [(0, slice(0, 3)), (1, slice(3, 5)), (2, slice(5, 12))],  # sets of unequal size
        ):
            got = np.empty_like(A)
            GramMatrix(K).products(A, got, spans)
            for k, rows in spans:
                # a set's GEMM rows do not depend on the other sets' rows
                assert got[rows].tobytes() == np.matmul(A[rows], K[k]).tobytes()
                for r in range(rows.start, rows.stop):
                    assert np.all(np.abs(got[r] - np.matmul(K[k], A[r])) <= product_bound(K[k], A[r]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_one_row_per_set_block_equals_per_set_gemvs(self, n, dtype):
        # a block of set None holds one row per set and makes its GEMVs in
        # one broadcast, bit for bit the GEMV of each set alone, beside a
        # block of one set
        K, A, _ = self.operands(n, rows_per_fold=2)
        K, A = K.astype(dtype), A.astype(dtype)
        got = np.empty_like(A)
        GramMatrix(K).products(A, got, [(None, slice(0, 3)), (1, slice(3, 6))])
        for k in range(3):
            assert got[k].tobytes() == np.matmul(K[k], A[k]).tobytes()
        assert got[3:6].tobytes() == np.matmul(A[3:6], K[1]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_equal_share_block_equals_per_set_gemms(self, n, dtype):
        # a block of set None with two rows of each set makes each set's
        # GEMM in one broadcast, bit for bit, for full and gathered rows
        K, A, _ = self.operands(n, rows_per_fold=2)
        K, batch = K.astype(dtype), self.batches(n)
        D = np.random.default_rng(n + 3).normal(size=(6, 32))
        got, got_batch = np.empty_like(A), np.empty_like(A)
        GramMatrix(K).products(A, got, [(None, slice(0, 6))])
        GramMatrix(K).batch_products(batch, D, got_batch, [(None, slice(0, 6))])
        for k in range(3):
            rows = slice(2 * k, 2 * k + 2)
            assert got[rows].tobytes() == np.matmul(A[rows], K[k], dtype=dtype).astype(float).tobytes()
            assert got_batch[rows].tobytes() == np.matmul(D[rows], K[k][batch[k]], dtype=dtype).astype(float).tobytes()

    @staticmethod
    def batches(n, folds=3):
        rng = np.random.default_rng(n + 1)
        return np.sort(np.stack([rng.choice(n, 32, replace=False) for _ in range(folds)]), axis=1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_gathered_batch_lone_rows_equal_row_gemvs(self, n, dtype):
        # a block of one row per set, and a set's only row beside a set of
        # two: each the GEMV of its set's batch rows, bit for bit
        K, _, _ = self.operands(n)
        K, batch = K.astype(dtype), self.batches(n)
        d = np.random.default_rng(n + 2).normal(size=(6, 32))
        got = np.empty((6, n))
        GramMatrix(K).batch_products(batch, d, got, [(None, slice(0, 3)), (0, slice(3, 5)), (2, slice(5, 6))])
        for r, k in [(0, 0), (1, 1), (2, 2), (5, 2)]:
            assert got[r].tobytes() == np.matmul(K[k][batch[k]].T, d[r], dtype=dtype).astype(float).tobytes()

    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_gathered_batch_gemm_rows_match_row_gemvs_within_bound(self, n):
        # a set of several rows is one GEMM on its batch rows, which does
        # not depend on the other sets' rows
        K, _, _ = self.operands(n)
        batch = self.batches(n)
        d = np.random.default_rng(n + 2).normal(size=(7, 32))
        got = np.empty((7, n))
        spans = [(0, slice(0, 3)), (1, slice(3, 4)), (2, slice(4, 7))]
        GramMatrix(K).batch_products(batch, d, got, spans)
        for k, rows in spans:
            KB = K[k][batch[k]]
            assert got[rows].tobytes() == np.matmul(d[rows], KB).tobytes()
            for r in range(rows.start, rows.stop):
                assert np.all(np.abs(got[r] - np.matmul(KB.T, d[r])) <= product_bound(KB.T, d[r]))


class TestFactorTraining:
    """Training on a Gram factor K ~= Lt.T @ Lt: float64 products L (L^T a),
    with the dense trainer's three stacking promises, and within the
    factor's error of the dense float64 Gram."""

    he = (LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0), LossSpec("hawkeye", epsilon=0.1, a=3.0, lam=0.5))

    @staticmethod
    def instance(n=60):
        # one set's factor, its dense Gram and its targets, of shape (1, n)
        # as a stack of one factor takes them
        rng = np.random.default_rng(70)
        X = rng.uniform(-1, 1, size=(n, 1))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n)
        spec = KernelSpec("rbf", sigma=1.0)
        return GramFactors([gram_factor(spec, X)]), gram_matrix(spec, X), y[None]

    def test_products_are_gemv_pairs_and_gemms(self):
        factor, _, _ = self.instance()
        Lt = factor[0].Lt
        assert 0 < Lt.shape[0] < 15
        A = np.random.default_rng(71).normal(size=(4, 60))
        got = np.empty_like(A)
        factor.products(A, got, [(0, slice(0, 3)), (None, slice(3, 4))])
        assert got[:3].tobytes() == np.matmul(np.matmul(A[:3], Lt.T), Lt).tobytes()
        assert got[3].tobytes() == np.matmul(np.matmul(Lt, A[3]), Lt).tobytes()
        for r in range(3):
            assert np.allclose(got[r], np.matmul(np.matmul(Lt, A[r]), Lt), rtol=1e-13, atol=1e-13)

    def test_batch_products_gather_each_sets_rows_once(self):
        # a block of several rows is one GEMM pair on the set's batch rows
        # of L, a lone row a GEMV pair, bit for bit a one-row block's
        factor, _, _ = self.instance()
        Lt = factor[0].Lt
        batch = np.sort(np.random.default_rng(72).choice(60, 8, replace=False))[None]
        D = np.random.default_rng(73).normal(size=(4, 8))
        got = np.empty((4, 60))
        factor.batch_products(batch, D, got, [(0, slice(0, 3)), (None, slice(3, 4))])
        LB = Lt.T[batch[0]]
        assert got[:3].tobytes() == np.matmul(np.matmul(D[:3], LB), Lt).tobytes()
        assert got[3].tobytes() == np.matmul(np.matmul(D[3], LB), Lt).tobytes()
        lone = np.empty((1, 60))
        factor.batch_products(batch, D[3:], lone, [(0, slice(0, 1))])
        assert lone[0].tobytes() == got[3].tobytes()

    def test_equal_share_block_is_each_sets_block(self):
        # a block of set None on factors of unequal rank: each set's share
        # of rows on its own factor, a GEMM pair for two rows, bit for bit
        X = np.random.default_rng(74).uniform(-1, 1, size=(2, 60, 1))
        factors = GramFactors(gram_factor(KernelSpec("rbf", sigma=s), x) for s, x in zip((1.0, 2.0), X))
        assert factors[0].Lt.shape[0] != factors[1].Lt.shape[0]
        A = np.random.default_rng(75).normal(size=(4, 60))
        batch = np.sort(np.random.default_rng(76).choice(60, (2, 8), replace=False), axis=1)
        got, got_batch = np.empty_like(A), np.empty_like(A)
        factors.products(A, got, [(None, slice(0, 4))])
        factors.batch_products(batch, A[:, :8], got_batch, [(None, slice(0, 4))])
        for k in range(2):
            rows, Lt = slice(2 * k, 2 * k + 2), factors[k].Lt
            assert got[rows].tobytes() == np.matmul(np.matmul(A[rows], Lt.T), Lt).tobytes()
            assert got_batch[rows].tobytes() == np.matmul(np.matmul(A[rows, :8], Lt.T[batch[k]]), Lt).tobytes()

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_stacked_rows_keep_the_dense_promises(self, batch_size):
        # three hawkeye rows share their GEMMs; the least-squares row is
        # alone of its kind, so it keeps the GEMV pairs of a one-cell run
        factor, _, y = self.instance()
        losses = [self.he[0], LossSpec("least_squares"), self.he[1], self.he[0]]
        Cs, gammas = [1.0, 10.0, 100.0, 10.0], [1e-2, 1e-2, 1e-3, 1e-2]
        cfg = AdamConfig(max_iter=150, batch_size=batch_size, collect_trace=True)
        stack = train_adam(factor, y, Cs, losses, cfg, gamma=gammas, seed=[4])
        again = train_adam(factor, y, Cs, losses, cfg, gamma=gammas, seed=[4])
        TestResume.assert_same_states(stack.states, again.states)
        for c, got in enumerate(stack.states):
            alone = train_adam(factor, y, Cs[c], losses[c], replace(cfg, gamma=gammas[c], seed=4))
            if losses[c].kind == "least_squares":
                TestResume.assert_same_states([got], [alone])
            else:
                assert_close_runs(got, alone)
            assert got.trace[-1] == objective_value(got.alpha, factor, y[0], Cs[c], losses[c])
            assert got.t == 150

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_within_the_factor_error_of_the_dense_gram(self, batch_size):
        # the factor is within its tolerance of K; over 150 steps the runs
        # stay within 1e-9 of the dense run's largest coefficient
        factor, gram, y = self.instance()
        assert np.abs(factor[0].Lt.T @ factor[0].Lt - gram.values).max() <= FACTOR_TOL * 60
        cfg = AdamConfig(max_iter=150, batch_size=batch_size, seed=3, collect_trace=True)
        got, want = train_adam(factor, y, 10.0, self.he[0], cfg), train_adam(gram, y[0], 10.0, self.he[0], cfg)
        assert not np.array_equal(got.alpha, want.alpha)
        assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-9 * np.max(np.abs(want.alpha))
        assert np.allclose(got.trace, want.trace, rtol=1e-9, atol=0)

    def test_factors_of_one_size_checked(self):
        (factor,), _, _ = self.instance()
        (small,), _, _ = self.instance(n=50)
        with pytest.raises(ValueError, match=r"Gram factors of \[50, 60\] rows: sets must be of one size"):
            GramFactors([factor, small])

    def test_targets_and_folds_checked(self):
        factor, _, y = self.instance()
        with pytest.raises(ValueError, match=r"expected \(1, 60\)"):
            train_adam(factor, y[0], [1.0], [self.he[0]], AdamConfig(max_iter=5))
        with pytest.raises(ValueError, match=r"fold indices must lie in \[0, 1\)"):
            train_adam(factor, y, [1.0], [self.he[0]], AdamConfig(max_iter=5), fold=[1])


class TestResume:
    """A run to step k resumed to step T is bit for bit one run to T in the
    same stack layout, whether or not the resume falls inside a block of
    mini-batch draws."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)
    # two rows per fold, listed out of fold order
    fold, Cs = [2, 0, 1, 0, 2, 1], [1.0, 1.0, 100.0, 100.0, 10.0, 1.0]
    gammas, seeds = [1e-2, 1e-3, 1e-2, 1e-2, 1e-3, 1e-3], [4, 5, 6]

    def train(self, cfg, steps, resume=None):
        gram, Ys, _ = fold_stack()
        return train_adam(
            gram, Ys, self.Cs, [self.loss] * 6, replace(cfg, max_iter=steps),
            gamma=self.gammas, seed=self.seeds, fold=self.fold, resume=resume,
        )

    @staticmethod
    def assert_same_states(got, want):
        for a, b in zip(got, want):
            for name in ("alpha", "m", "v", "iterate", "avg"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (a.t, a.trace) == (b.t, b.trace)

    @pytest.mark.parametrize("option", ["no_trace", "collect_trace"])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_resumed_run_is_one_run(self, batch_size, option):
        # 20 training rows: at batch 6 the batches come 20 steps at a time,
        # so the resume at step 13 falls inside the first block, and the
        # one at step 56 inside the third
        trace = option == "collect_trace"
        cfg = AdamConfig(batch_size=batch_size, collect_trace=trace)
        whole = self.train(cfg, 57)
        for k in (13, 56):
            resumed = self.train(cfg, 57, resume=self.train(cfg, k).states)
            self.assert_same_states(resumed.states, whole.states)
            assert [state.t for state in resumed.states] == [57] * 6
            assert [None if state.trace is None else len(state.trace) for state in resumed.states] == [58 if trace else None] * 6

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_resume_leaves_its_states_unchanged(self, batch_size):
        cfg = AdamConfig(batch_size=batch_size, collect_trace=True)
        start = self.train(cfg, 13).states
        copies = [(s.iterate.copy(), s.avg.copy(), s.m.copy(), list(s.trace), repr(s.rng.bit_generator.state)) for s in start]
        first = self.train(cfg, 30, resume=start)
        self.assert_same_states(self.train(cfg, 30, resume=start).states, first.states)
        for s, (iterate, avg, m, trace, rng) in zip(start, copies):
            assert s.iterate.tobytes() == iterate.tobytes() and s.avg.tobytes() == avg.tobytes()
            assert s.m.tobytes() == m.tobytes() and s.trace == trace and repr(s.rng.bit_generator.state) == rng

    def test_one_cell_resumes(self):
        gram, Ys, grams = fold_stack()
        cfg = AdamConfig(max_iter=40, batch_size=6, seed=3)
        whole = train_adam(grams[0], Ys[0], 10.0, self.loss, cfg)
        part = train_adam(grams[0], Ys[0], 10.0, self.loss, replace(cfg, max_iter=25))
        self.assert_same_states([train_adam(grams[0], Ys[0], 10.0, self.loss, cfg, resume=part)], [whole])

    def test_stack_counts_the_steps_this_call_ran(self):
        # a resumed row adds its steps past step 13 only
        cfg = AdamConfig(batch_size=6)
        part = self.train(cfg, 13)
        assert part.t == 6 * 13
        resumed = self.train(cfg, 57, resume=part.states)
        assert resumed.t == 6 * (57 - 13)
        # every row arrives at max_iter: no step runs
        assert self.train(cfg, 57, resume=resumed.states).t == 0

    def test_resumed_cells_must_share_a_step_count(self):
        gram, Ys, _ = fold_stack()
        cfg = AdamConfig(max_iter=10)
        a = train_adam(gram, Ys, [1.0], [self.loss], replace(cfg, max_iter=3)).states[0]
        b = train_adam(gram, Ys, [1.0], [self.loss], replace(cfg, max_iter=4)).states[0]
        with pytest.raises(ValueError, match="share one step count"):
            train_adam(gram, Ys, [1.0, 1.0], [self.loss] * 2, cfg, resume=[a, b])
        with pytest.raises(ValueError, match="share one step count"):
            train_adam(gram, Ys, [1.0], [self.loss], replace(cfg, max_iter=3), resume=[b])
        with pytest.raises(ValueError, match="without a trace"):
            train_adam(gram, Ys, [1.0], [self.loss], replace(cfg, collect_trace=True), resume=[a])

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_resumed_cells_of_a_set_must_share_its_generator(self, batch_size):
        # two runs with different seeds leave different generators (at full
        # batch the untouched generators of those seeds): resumed on one set
        # they would draw two batch sequences, which no run of that set
        # draws; on two sets each set draws on from its own
        gram, Ys, _ = fold_stack()
        cfg = AdamConfig(max_iter=10, batch_size=batch_size)
        a, b = (train_adam(gram, Ys, [1.0], [self.loss], replace(cfg, max_iter=3), seed=[seed, 0, 0]).states[0]
                for seed in (1, 2))
        with pytest.raises(ValueError, match="^resumed cells of set 2 hold generators in different states$"):
            train_adam(gram, Ys, [1.0] * 3, [self.loss] * 3, cfg, fold=[0, 2, 2], resume=[a, a, b])
        stack = train_adam(gram, Ys, [1.0] * 2, [self.loss] * 2, cfg, fold=[0, 2], resume=[a, b])
        # each state gets a copy of its set's generator, none the one passed in
        assert repr(stack.states[0].rng.bit_generator.state) != repr(stack.states[1].rng.bit_generator.state)
        assert all(state.rng is not start.rng for state, start in zip(stack.states, (a, b)))


class TestDivergedRow:
    """A row that diverges stops alone, also beside healthy rows of its own
    kind and set: every other row keeps the bits of a run in which it
    trains, in every Gram form and block, and a resumed diverged state
    stays diverged at its step."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)
    Cs = [1.0, 10.0, 100.0, 1.0, 10.0, 1.0]

    @staticmethod
    def gram(form):
        # three sets of 60 rows: dense float64 Grams or their factors
        rng = np.random.default_rng(81)
        X = rng.uniform(-1, 1, size=(3, 60, 1))
        Ys = np.sin(3 * X[..., 0]) + 0.1 * rng.normal(size=(3, 60))
        spec = KernelSpec("rbf", sigma=1.0)
        if form == "factor":
            return GramFactors(gram_factor(spec, x) for x in X), Ys
        return GramMatrix(np.stack([gram_matrix(spec, x).values for x in X])), Ys

    # cell 1 diverges in set 2 beside cell 3: two rows of each set (one
    # broadcast block of GEMMs), or two of set 2 beside one each of sets 0
    # and 1 (a GEMM and two GEMVs)
    @pytest.mark.parametrize("fold", [[0, 2, 1, 2, 0, 1], [0, 2, 1, 2]], ids=["broadcast", "per-set"])
    @pytest.mark.parametrize("form", ["dense", "factor"])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_other_rows_keep_their_bits(self, batch_size, form, fold):
        gram, Ys = self.gram(form)
        m, cfg = len(fold), AdamConfig(max_iter=40, batch_size=batch_size, collect_trace=True)

        def run(gamma_1, steps=40, resume=None):
            gamma = [1e-2, gamma_1] + [1e-3] * (m - 2)
            return train_adam(gram, Ys, self.Cs[:m], [self.loss] * m, replace(cfg, max_iter=steps), gamma=gamma,
                              seed=[4, 5, 6], fold=fold, resume=resume)

        healthy = run(1e-2)
        with np.errstate(over="ignore", invalid="ignore"):
            whole, part = run(1e300), run(1e300, steps=15)
            resumed = run(1e300, resume=part.states)
        bad = part.states[1].diverged
        assert 1 <= bad < 15
        others = [c for c in range(m) if c != 1]
        for stack in (whole, resumed):
            assert [state.diverged for state in stack.states] == [None, bad] + [None] * (m - 2)
            assert np.isnan(stack.states[1].alpha).all() and len(stack.states[1].trace) == bad
            assert not any(getattr(stack.states[1], name).any() for name in ("iterate", "avg", "m", "v"))
            TestResume.assert_same_states([stack.states[c] for c in others], [healthy.states[c] for c in others])
        # its trace may end in an overflowed objective, so compared as text
        assert repr(resumed.states[1].trace) == repr(whole.states[1].trace)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_non_finite_coefficients_diverge_at_max_iter(self, batch_size):
        # two steps at 1e300: the last residual is finite, the returned
        # coefficients are not
        gram, Ys = self.gram("dense")
        cfg = AdamConfig(max_iter=2, batch_size=batch_size, collect_trace=True)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = train_adam(gram, Ys, [1.0] * 2, [self.loss] * 2, cfg, gamma=[1e-2, 1e300], fold=[0, 0])
        good, bad = stack.states
        assert (good.diverged, bad.diverged) == (None, 2)
        assert np.isfinite(good.alpha).all() and len(good.trace) == 3
        assert np.isnan(bad.alpha).all() and len(bad.trace) == 2
        assert not any(getattr(bad, name).any() for name in ("iterate", "avg", "m", "v"))
