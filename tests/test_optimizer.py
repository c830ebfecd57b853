from dataclasses import replace

import numpy as np
import pytest

from helssvr.kernels import KernelSpec, gram_matrix
from helssvr.losses import LossSpec, loss_value
from helssvr.optimizer import (
    AdamConfig,
    AdamState,
    adam_step,
    objective_gradient,
    objective_value,
    train_adam,
)
from helssvr.seeding import make_rng, sample_without_replacement


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


def per_step_reference(gram, y, C, loss, cfg):
    """One cell with one sampler draw per step: the reference for block draws."""
    K, n = gram.values, gram.n
    rng = make_rng(cfg.seed)
    state = AdamState(alpha=np.full(n, cfg.alpha0), m=np.full(n, cfg.m0), v=np.full(n, cfg.v0))
    prev_h, flat_run = None, 0
    for _ in range(cfg.max_iter):
        Kalpha = K @ state.alpha
        h = float(0.5 * state.alpha @ Kalpha + C * np.sum(loss_value(loss, y - Kalpha)))
        if cfg.early_stop and prev_h is not None:
            flat_run = flat_run + 1 if abs(h - prev_h) < cfg.early_stop_tol else 0
            if flat_run >= cfg.early_stop_patience:
                break
        prev_h = h
        batch = np.sort(sample_without_replacement(rng, n, min(cfg.batch_size, n)))
        state = adam_step(state, objective_gradient(state.alpha, gram, y, C, loss, batch), cfg)
    return state


class TestStackedTraining:
    """Cells trained in one stack match one-cell runs bit for bit."""

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
            for name in ("alpha", "m", "v"):
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
            assert got.t == alone.t
            assert [h.hex() for h in got.trace] == [h.hex() for h in alone.trace]
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
        for C, gamma, seed, got in zip(Cs, gammas, seeds, stack.states):
            want = per_step_reference(gram, y, C, loss, replace(cfg, gamma=gamma, seed=seed))
            for name in ("alpha", "m", "v"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.t == want.t

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
    """Rows of one stack train on different folds' Grams and targets."""

    loss = LossSpec("hawkeye", epsilon=0.05, a=1.0, lam=1.0)

    def check_rows(self, stack, Ys, grams, Cs, fold, gammas, seeds, cfg):
        for C, k, gamma, seed, got in zip(Cs, fold, gammas, seeds, stack.states):
            alone = train_adam(grams[k], Ys[k], C, self.loss, replace(cfg, gamma=gamma, seed=seed))
            for name in ("alpha", "m", "v"):
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
            assert got.t == alone.t
            if cfg.collect_trace:
                assert [h.hex() for h in got.trace] == [h.hex() for h in alone.trace]
                want = objective_value(got.alpha, grams[k], Ys[k], C, self.loss)
                assert got.trace[-1] == want

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
    def test_unequal_rows_per_fold(self, batch_size):
        # fold 1 holds no row at all, fold 0 three and fold 2 one
        gram, Ys, grams = fold_stack()
        fold, Cs, gammas, seeds = [0, 2, 0, 0], [1.0, 10.0, 100.0, 1.0], [1e-2] * 4, [1, 2, 3, 4]
        cfg = AdamConfig(max_iter=45, batch_size=batch_size, collect_trace=True)
        stack = train_adam(gram, Ys, Cs, [self.loss] * 4, cfg, gamma=gammas, seed=seeds, fold=fold)
        self.check_rows(stack, Ys, grams, Cs, fold, gammas, seeds, cfg)

    def test_fold_checked(self):
        gram, Ys, _ = fold_stack()
        with pytest.raises(ValueError, match=r"fold indices must lie in \[0, 3\)"):
            train_adam(gram, Ys, [1.0], [self.loss], AdamConfig(max_iter=5), fold=[3])
        with pytest.raises(ValueError, match="number of cells"):
            train_adam(gram, Ys, [1.0, 1.0], [self.loss] * 2, AdamConfig(max_iter=5), fold=[0])
        with pytest.raises(ValueError, match=r"expected \(3, 20\)"):
            train_adam(gram, Ys[0], [1.0], [self.loss], AdamConfig(max_iter=5))


class TestBatchedProductsAreRowGemvs:
    """The trainer's batched matmuls must equal one GEMV per row bit for bit.

    Cells trained in one stack are bit-identical to one-cell runs only
    because numpy runs each of these products as a GEMV per row.  A numpy or
    BLAS build that does otherwise fails here first.
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
    def test_broadcast_matmul_equals_row_gemvs(self, n):
        K, A, fold_of = self.operands(n)
        f = K.shape[0]
        got = np.empty_like(A)
        np.matmul(K[:, None], A.reshape(f, -1, n, 1), out=got.reshape(f, -1, n, 1))
        per_fold = np.empty_like(A)
        for k in range(f):
            rows = fold_of == k
            per_fold[rows] = np.matmul(K[k], A[rows, :, None])[:, :, 0]
        for r, k in enumerate(fold_of):
            want = np.matmul(K[k], A[r])
            assert got[r].tobytes() == want.tobytes()
            assert per_fold[r].tobytes() == want.tobytes()

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
