import re
from dataclasses import replace

import numpy as np
import pytest

from helssvr.kernels import GramMatrix, KernelSpec, gram_matrix
from helssvr.losses import LossSpec, loss_derivative, loss_value
from helssvr.optimizer import (
    EMA_WEIGHT,
    AdamConfig,
    AdamState,
    adam_step,
    gram_products,
    objective_gradient,
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


def zero_cfg(**kw):
    base = dict(gamma=0.01, beta1=0.9, beta2=0.999, delta=1e-8, alpha0=0.0, m0=0.0, v0=0.0)
    base.update(kw)
    return AdamConfig(**base)


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
        new = adam_step(state, np.zeros(3), zero_cfg())
        assert np.array_equal(new.alpha, state.alpha)
        assert new.t == 1

    def test_single_step_against_hand_trace(self):
        (m1, v1, mh1, vh1, a1), _ = hand_adam_trace([1.0, 1.0])
        new = adam_step(zero_state(1), np.array([1.0]), zero_cfg())
        assert new.m[0] == m1
        assert new.v[0] == v1
        assert new.alpha[0] == pytest.approx(a1, rel=1e-15)

    def test_two_steps_constant_gradient(self):
        trace = hand_adam_trace([1.0, 1.0])
        cfg = zero_cfg()
        state = zero_state(1)
        for (m, v, _, _, alpha) in trace:
            state = adam_step(state, np.array([1.0]), cfg)
            assert state.m[0] == pytest.approx(m, rel=1e-15)
            assert state.v[0] == pytest.approx(v, rel=1e-15)
            assert state.alpha[0] == pytest.approx(alpha, rel=1e-12)

    def test_bias_correction_at_t1(self):
        # with zero moments, the corrected moments equal g and g^2 exactly
        g = np.array([0.37, -2.1])
        cfg = zero_cfg()
        state = adam_step(zero_state(2), g, cfg)
        m_hat = state.m / (1 - cfg.beta1)
        v_hat = state.v / (1 - cfg.beta2)
        assert m_hat == pytest.approx(g, rel=1e-12)
        assert v_hat == pytest.approx(g * g, rel=1e-12)

    def test_update_magnitude_bound(self):
        rng = np.random.default_rng(0)
        cfg = zero_cfg()
        state = zero_state(4)
        prev = state.alpha.copy()
        for t in range(50):
            g = rng.normal(size=4)
            state = adam_step(state, g, cfg)
            if t >= 5:
                assert np.all(np.abs(state.alpha - prev) <= cfg.gamma * 2.0)
            prev = state.alpha.copy()

    def test_second_moment_nonnegative(self):
        rng = np.random.default_rng(1)
        state = zero_state(4)
        for _ in range(30):
            state = adam_step(state, rng.normal(size=4), zero_cfg())
            assert np.all(state.v >= 0.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=0.0),
            dict(beta1=1.0),
            dict(beta1=-0.1),
            dict(beta2=1.0),
            dict(delta=0.0),
            dict(batch_size=0),
            dict(max_iter=0),
            dict(early_stop_tol=0.0),
            dict(early_stop_tol=-1e-3),
            dict(early_stop_tol=float("inf")),
            dict(early_stop_tol=float("nan")),
            dict(early_stop_patience=0),
            dict(gamma=float("inf")),
            dict(gamma=float("nan")),
            dict(delta=float("inf")),
            dict(delta=float("nan")),
            dict(alpha0=float("nan")),
            dict(alpha0=float("-inf")),
            dict(m0=float("inf")),
            dict(m0=float("nan")),
            dict(v0=-1.0),
            dict(v0=float("inf")),
            dict(v0=float("nan")),
        ],
    )
    def test_bad_configs(self, kw):
        with pytest.raises(ValueError):
            AdamConfig(**kw)

    def test_defaults(self):
        cfg = AdamConfig()
        assert (cfg.beta1, cfg.beta2, cfg.delta) == (0.9, 0.999, 1e-8)
        assert (cfg.batch_size, cfg.max_iter) == (32, 1000)
        assert (cfg.alpha0, cfg.m0, cfg.v0) == (0.01, 0.01, 0.01)


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


class TestObjectiveGradient:
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
        gram = gram_matrix(KernelSpec("linear"), np.eye(3))
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
        h0 = objective_value(np.full(5, cfg.alpha0), gram, y, 10.0, loss)
        hT = objective_value(state.alpha, gram, y, 10.0, loss)
        assert hT <= h0

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

    def test_early_stop(self):
        gram, y, C, loss, _ = small_instance(31, n=5)
        cfg = AdamConfig(
            max_iter=5000,
            seed=3,
            gamma=1e-9,  # tiny steps flatten the objective immediately
            early_stop=True,
            early_stop_tol=1e-6,
            early_stop_patience=20,
        )
        state = train_adam(gram, y, C, loss, cfg)
        assert state.t < 5000

    def test_empty_dataset_rejected(self):
        gram = gram_matrix(KernelSpec("linear"), np.eye(2))
        with pytest.raises(ValueError):
            train_adam(gram, np.zeros(3), 1.0, LossSpec("least_squares"), AdamConfig())

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
    over the live rows of each set, in set order, a GEMV K_k @ a when the
    set holds one row and one GEMM A_k @ K_k when it holds several, and a
    GEMV on a row's gathered batch rows for a mini-batch.  Everything else
    runs per row as in a one-cell run, with one sampler draw per step.
    ``K`` is the (f, n, n) Gram stack and ``Ys`` the (f, n) targets.
    """
    n = K.shape[-1]
    s = min(cfg.batch_size, n)
    states = [AdamState(alpha=np.full(n, cfg.alpha0), m=np.full(n, cfg.m0), v=np.full(n, cfg.v0)) for _ in Cs]
    avgs = [np.zeros(n) for _ in Cs]
    rngs = [make_rng(seed) for seed in seeds]
    traces = [[] for _ in Cs]
    prev_h, flat_run = [None] * len(Cs), [0] * len(Cs)
    live = sorted(range(len(Cs)), key=fold.__getitem__)

    def products(vectors):
        out = {}
        for k in sorted({fold[c] for c in live}):
            rows = [c for c in live if fold[c] == k]
            if len(rows) == 1:
                out[rows[0]] = K[k] @ vectors[rows[0]]
            else:
                out.update(zip(rows, np.stack([vectors[c] for c in rows]) @ K[k]))
        return out

    for step in range(cfg.max_iter):
        Kalpha = products({c: states[c].alpha for c in live})
        for c in list(live):
            h = float(0.5 * states[c].alpha @ Kalpha[c] + Cs[c] * np.sum(loss_value(losses[c], Ys[fold[c]] - Kalpha[c])))
            traces[c].append(h)
            if cfg.early_stop and prev_h[c] is not None:
                flat_run[c] = flat_run[c] + 1 if abs(h - prev_h[c]) < cfg.early_stop_tol else 0
                if flat_run[c] >= cfg.early_stop_patience:
                    live.remove(c)
                    continue
            prev_h[c] = h
        if not live:
            break
        if s == n:
            Kd = products({c: loss_derivative(losses[c], Ys[fold[c]] - Kalpha[c]) for c in live})
        else:
            Kd = {}
            for c in live:
                batch = np.sort(sample_without_replacement(rngs[c], n, s))
                d = loss_derivative(losses[c], Ys[fold[c]][batch] - Kalpha[c][batch])
                Kd[c] = K[fold[c]][batch].T @ d
        for c in live:
            states[c] = adam_step(states[c], Kalpha[c] - Cs[c] * Kd[c], replace(cfg, gamma=gammas[c]))
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
        seeds = [4, 5, 6, 4]
        # a loose tolerance stops some cells early, at different steps
        cfg = AdamConfig(
            max_iter=200, batch_size=batch_size, collect_trace=True,
            early_stop=True, early_stop_tol=1e-2, early_stop_patience=4,
        )
        stack = train_adam(gram, y, Cs, losses, cfg, gamma=gammas, seed=seeds)
        steps = []
        for C, loss, gamma, seed, got in zip(Cs, losses, gammas, seeds, stack.states):
            alone = train_adam(gram, y, C, loss, replace(cfg, gamma=gamma, seed=seed))
            assert_close_runs(got, alone)
            steps.append(got.t)
        assert len(set(steps)) > 1 and max(steps) == cfg.max_iter
        assert stack.t == sum(steps)

    def test_block_draws_match_one_draw_per_step(self):
        # n=20, batch 8: batches come 20 steps at a time; 75 steps end
        # inside a block, and early stops drop rows inside blocks
        gram, y = self.instance(n=20)
        Cs = [1.0, 1.0, 100.0]
        loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)
        gammas, seeds = [1e-2, 1e-3, 1e-2], [4, 5, 6]
        cfg = AdamConfig(max_iter=75, batch_size=8, early_stop=True, early_stop_tol=1e-2, early_stop_patience=3)
        stack = train_adam(gram, y, Cs, [loss] * 3, cfg, gamma=gammas, seed=seeds)
        steps = [got.t for got in stack.states]
        assert max(steps) == 75
        assert any(t < 75 and t % 20 for t in steps[:-1])
        want = layout_reference(gram.values[None], y[None], Cs, [loss] * 3, cfg, gammas, seeds, [0, 0, 0])
        assert_matches_reference(stack, want)

    def test_cell_counts_must_agree(self):
        gram, y = self.instance()
        loss = LossSpec("least_squares")
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, y, [1.0, 2.0], [loss], AdamConfig())
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, y, [1.0], [loss], AdamConfig(), gamma=[0.01, 0.02])

    def test_one_loss_kind_per_stack(self):
        gram, y = self.instance()
        losses = [LossSpec("least_squares"), LossSpec("huber", theta=1.0)]
        with pytest.raises(ValueError, match="one kind"):
            train_adam(gram, y, [1.0, 1.0], losses, AdamConfig(max_iter=5))

    @pytest.mark.parametrize("gamma, seed, message", BAD_RATE_OR_SEED)
    def test_every_rate_and_seed_checked(self, gamma, seed, message):
        # a per-cell value bypasses AdamConfig, so train_adam checks it the
        # same way: a negative rate would train uphill, a zero one return
        # the start
        gram, y = self.instance()
        loss = LossSpec("least_squares")
        with pytest.raises(ValueError, match=re.escape(message)):
            AdamConfig(gamma=gamma, seed=seed)
        with pytest.raises(ValueError, match=re.escape(f"{message}: cell 1")):
            train_adam(gram, y, [1.0, 1.0], [loss, loss], AdamConfig(max_iter=5), gamma=[0.01, gamma], seed=[0, seed])


class TestAdamStepInPlace:
    def test_out_buffers_match_new_state(self):
        rng = np.random.default_rng(50)
        cfg = AdamConfig()
        gamma = np.repeat([[1e-2], [1e-3]], 7, axis=1)
        fresh = AdamState(alpha=rng.normal(size=(2, 7)), m=rng.normal(size=(2, 7)), v=rng.uniform(size=(2, 7)))
        inplace = AdamState(alpha=fresh.alpha.copy(), m=fresh.m.copy(), v=fresh.v.copy())
        work = (np.empty((2, 7)), np.empty((2, 7)))
        for _ in range(5):
            grad = rng.normal(size=(2, 7))
            before = fresh.alpha.copy()
            fresh = adam_step(fresh, grad, cfg, gamma=gamma)
            assert not np.array_equal(before, fresh.alpha)
            returned = adam_step(inplace, grad, cfg, gamma=gamma, out=work)
            assert returned is inplace
            for name in ("alpha", "m", "v"):
                assert getattr(inplace, name).tobytes() == getattr(fresh, name).tobytes()
            assert inplace.t == fresh.t

    def test_without_out_the_input_is_kept(self):
        state = zero_state(3)
        state.alpha[:] = 1.0
        new = adam_step(state, np.ones(3), zero_cfg())
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

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_rows_match_hand_rolled_ema_of_one_cell_iterates(self, batch_size):
        # one row per fold, so each row's products are the GEMVs of a
        # one-cell run; the loose tolerance stops rows early, at different
        # steps
        gram, Ys, grams = fold_stack()
        fold, Cs, gammas, seeds = [0, 1, 2], [1.0, 100.0, 10.0], [1e-2, 1e-2, 1e-3], [4, 5, 6]
        cfg = AdamConfig(
            max_iter=40, batch_size=batch_size, collect_trace=True,
            early_stop=True, early_stop_tol=1e-2, early_stop_patience=3,
        )
        stack = train_adam(gram, Ys, Cs, [self.loss] * 3, cfg, gamma=gammas, seed=seeds, fold=fold)
        steps = [got.t for got in stack.states]
        assert min(steps) < 40 and max(steps) == 40
        want = layout_reference(gram.values, Ys, Cs, [self.loss] * 3, cfg, gammas, seeds, fold)
        assert_matches_reference(stack, want)
        for k, C, gamma, seed, got in zip(fold, Cs, gammas, seeds, stack.states):
            alone = train_adam(grams[k], Ys[k], C, self.loss, replace(cfg, gamma=gamma, seed=seed))
            assert got.alpha.tobytes() == alone.alpha.tobytes() and got.trace == alone.trace
            # the last trace entry is H of the returned coefficients
            assert got.trace[-1] == objective_value(got.alpha, grams[k], Ys[k], C, self.loss)


def fold_stack(sizes_n=20, folds=3, seed=60):
    """(f, n, n) Grams in one aligned buffer, the (f, n) targets, and the
    one-set Gram of each fold."""
    from helssvr.kernels import GramMatrix, gram_buffer

    rng = np.random.default_rng(seed)
    values = gram_buffer(folds, sizes_n)
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

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_rows_stopping_early_in_different_folds(self, batch_size):
        gram, Ys, grams = fold_stack()
        # two rows per fold, listed out of fold order; a loose tolerance
        # stops rows early at different steps, which leaves the folds
        # holding unequal numbers of rows mid-run
        fold = [2, 0, 1, 0, 2, 1]
        Cs = [1.0, 1.0, 100.0, 100.0, 10.0, 1.0]
        gammas = [1e-2, 1e-3, 1e-2, 1e-2, 1e-3, 1e-3]
        seeds = [4, 5, 6, 7, 8, 9]
        cfg = AdamConfig(
            max_iter=80, batch_size=batch_size, collect_trace=True,
            early_stop=True, early_stop_tol=1e-2, early_stop_patience=3,
        )
        stack = train_adam(gram, Ys, Cs, [self.loss] * 6, cfg, gamma=gammas, seed=seeds, fold=fold)
        steps = [state.t for state in stack.states]
        assert len(set(steps)) > 2 and max(steps) == 80 and min(steps) < 80
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)
        assert stack.t == sum(steps)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_averaged_rows_stopping_early(self, batch_size):
        # as above, with one learning rate: rows leave the stack, and the
        # folds' row counts change, with their averages; the oracle builds
        # each row's average from its iterates, so the traced iterates,
        # moments and steps are checked bit for bit as well
        gram, Ys, grams = fold_stack()
        fold, Cs, gammas, seeds = [2, 0, 1, 0, 2, 1], [1.0, 1.0, 100.0, 100.0, 10.0, 1.0], [1e-2] * 6, [4, 5, 6, 7, 8, 9]
        cfg = AdamConfig(
            max_iter=80, batch_size=batch_size, collect_trace=True,
            early_stop=True, early_stop_tol=1e-2, early_stop_patience=3,
        )
        stack = train_adam(gram, Ys, Cs, [self.loss] * 6, cfg, gamma=gammas, seed=seeds, fold=fold)
        assert len({state.t for state in stack.states}) > 2
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)

    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_unequal_rows_per_fold(self, batch_size):
        # fold 1 holds no row at all, fold 0 three and fold 2 one
        gram, Ys, grams = fold_stack()
        fold, Cs, gammas, seeds = [0, 2, 0, 0], [1.0, 10.0, 100.0, 1.0], [1e-2] * 4, [1, 2, 3, 4]
        cfg = AdamConfig(max_iter=45, batch_size=batch_size, collect_trace=True)
        stack = train_adam(gram, Ys, Cs, [self.loss] * 4, cfg, gamma=gammas, seed=seeds, fold=fold)
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_non_finite_residual_names_step_cell_and_set(self, batch_size, trace):
        # cell 1, the second listed but the last stack row (fold 2), has a
        # learning rate that overflows its coefficients: the stack aborts
        # as a whole, naming that cell and its set, whether the objective
        # trace or the derivative meets the residual first
        gram, Ys, _ = fold_stack()
        cfg = AdamConfig(max_iter=50, batch_size=batch_size, collect_trace=trace)
        with pytest.raises(ValueError) as info:
            with np.errstate(over="ignore", invalid="ignore"):
                train_adam(gram, Ys, [1.0] * 3, [self.loss] * 3, cfg, gamma=[1e-2, 1e300, 1e-2], fold=[0, 2, 1])
        assert re.fullmatch(r"residual must be finite: step [1-9]\d*, cell 1 \(fold 2\)", str(info.value))
        assert str(info.value.__cause__) == "residual must be finite"

    def test_fold_checked(self):
        gram, Ys, _ = fold_stack()
        with pytest.raises(ValueError, match=r"fold indices must lie in \[0, 3\)"):
            train_adam(gram, Ys, [1.0], [self.loss], AdamConfig(max_iter=5), fold=[3])
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, Ys, [1.0, 1.0], [self.loss] * 2, AdamConfig(max_iter=5), fold=[0])
        with pytest.raises(ValueError, match=r"expected \(3, 20\)"):
            train_adam(gram, Ys[0], [1.0], [self.loss], AdamConfig(max_iter=5))


class TestBatchedProductsAreRowGemvs:
    """The Gram products the trainer relies on, against one GEMV per row.

    A set's only row is a GEMV, bit for bit the product of a one-cell run;
    a set of several rows is a GEMM whose rows stay within the stated
    bound of the GEMVs; and a mini-batch's gathered product is one GEMV
    per row.  A numpy or BLAS build that does otherwise fails here first.
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
        gram_products(K, A, got)
        for r, k in enumerate(fold_of):
            assert got[r].tobytes() == np.matmul(K[k], A[r]).tobytes()
        # a lone row beside a set of several rows
        K, A, _ = self.operands(n, rows_per_fold=2)
        got = np.empty_like(A[:4])
        gram_products(K, A[:4], got, spans=[(0, slice(0, 3)), (2, slice(3, 4))])
        assert got[3].tobytes() == np.matmul(K[2], A[3]).tobytes()

    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_gemm_rows_match_row_gemvs_within_bound(self, n):
        K, A, _ = self.operands(n, rows_per_fold=4)
        for spans in (
            [(k, slice(4 * k, 4 * k + 4)) for k in range(3)],
            [(0, slice(0, 3)), (1, slice(3, 5)), (2, slice(5, 12))],  # sets of unequal size
        ):
            got = np.empty_like(A)
            gram_products(K, A, got, spans=spans)
            for k, rows in spans:
                # a set's GEMM rows do not depend on the other sets' rows
                assert got[rows].tobytes() == np.matmul(A[rows], K[k]).tobytes()
                for r in range(rows.start, rows.stop):
                    assert np.all(np.abs(got[r] - np.matmul(K[k], A[r])) <= product_bound(K[k], A[r]))

    @pytest.mark.parametrize("n", [80, 160, 333])
    def test_gathered_batch_matmul_equals_row_gemvs(self, n):
        K, A, fold_of = self.operands(n)
        rng = np.random.default_rng(n + 1)
        batch = np.sort(np.stack([rng.choice(n, 32, replace=False) for _ in fold_of]), axis=1)
        d = rng.normal(size=(len(fold_of), 32))
        got = np.empty_like(A)
        np.matmul(K[fold_of[:, None], batch].transpose(0, 2, 1), d[:, :, None], out=got[:, :, None])
        for r, k in enumerate(fold_of):
            assert got[r].tobytes() == np.matmul(K[k][batch[r]].T, d[r]).tobytes()


class TestResume:
    """A run to step k resumed to step T is bit for bit one run to T in the
    same stack layout, whether rows stop early before the resume, after
    it or not at all, and whether the resume falls inside a block of
    mini-batch draws."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)
    # two rows per fold, listed out of fold order
    fold, Cs = [2, 0, 1, 0, 2, 1], [1.0, 1.0, 100.0, 100.0, 10.0, 1.0]
    gammas, seeds = [1e-2, 1e-3, 1e-2, 1e-2, 1e-3, 1e-3], [4, 5, 6, 7, 8, 9]

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
            assert (a.t, a.trace, a.prev_h, a.flat_run, a.stopped) == (b.t, b.trace, b.prev_h, b.flat_run, b.stopped)

    @pytest.mark.parametrize("option", ["early_stop", "collect_trace"])
    @pytest.mark.parametrize("batch_size", [6, 1000])
    def test_resumed_run_is_one_run(self, batch_size, option):
        # 20 training rows: at batch 6 the batches come 20 steps at a time,
        # so the resume at step 13 falls inside the first block; with early
        # stopping, one row stops before step 13 and one after it
        cfg = AdamConfig(batch_size=batch_size, early_stop_tol=1e-2, early_stop_patience=3, **{option: True})
        whole = self.train(cfg, 57)
        steps = sorted(state.t for state in whole.states)
        # with early stopping, also resume one step before a later stop,
        # while that row's run of flat steps is under way
        for k in {13, min(t for t in steps if t > 13) - 1}:
            resumed = self.train(cfg, 57, resume=self.train(cfg, k).states)
            self.assert_same_states(resumed.states, whole.states)
        if option == "early_stop":
            assert steps[0] < 13 and any(13 < t < 57 for t in steps) and steps[-1] == 57
        else:
            assert steps == [57] * 6 and all(len(state.trace) == 58 for state in resumed.states)

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
        # a resumed row adds its steps past step 13 only, a row that
        # stopped early before the resume adds none
        cfg = AdamConfig(batch_size=6, early_stop=True, early_stop_tol=1e-2, early_stop_patience=3)
        part = self.train(cfg, 13)
        assert part.t == sum(state.t for state in part.states)
        resumed = self.train(cfg, 57, resume=part.states)
        assert any(state.stopped for state in part.states) and not all(state.stopped for state in part.states)
        assert resumed.t == sum(end.t - 13 for end, start in zip(resumed.states, part.states) if not start.stopped)
        assert resumed.t < sum(state.t for state in resumed.states)
        # every row arrives stopped or at max_iter: no step runs
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
