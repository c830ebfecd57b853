from dataclasses import replace

import numpy as np
import pytest

from helssvr.data import SyntheticSpec, generate_synthetic
from helssvr.kernels import KernelSpec, gram_matrix, kernel_row
from helssvr.losses import LossSpec, loss_value
from helssvr.model import (
    TrainedModel,
    fit,
    fit_cells,
    load_model,
    model_from_json,
    model_to_json,
    objective_value,
    predict,
    save_model,
)
from helssvr.optimizer import AdamConfig
from test_kernels import per_point_row
from test_optimizer import BAD_RATE_OR_SEED, objective_gradient


# Stated tolerance of a short run (up to 200 Adam steps) between stack
# layouts (README, "Stacked training in the grid search"): coefficients
# within SHORT_RUN_RTOL of the standalone fit's largest one, objectives
# within SHORT_RUN_RTOL relative.
SHORT_RUN_RTOL = 1e-10


def assert_matches_fit(model, report, alone, alone_report, exact):
    """A cell of :func:`fit_cells` against a standalone :func:`fit`: bit for
    bit when ``exact``, else within the short-run tolerance."""
    if exact:
        assert model.alpha.tobytes() == alone.alpha.tobytes()
        assert report.final_objective == alone_report.final_objective
    else:
        assert np.max(np.abs(model.alpha - alone.alpha)) <= SHORT_RUN_RTOL * np.max(np.abs(alone.alpha))
        assert report.final_objective == pytest.approx(alone_report.final_objective, rel=SHORT_RUN_RTOL, abs=0)
    assert report.state.t == alone_report.state.t


def rbf(sigma=1.0):
    return KernelSpec("rbf", sigma=sigma)


def hawkeye(eps=0.1, a=1.0, lam=1.0):
    return LossSpec("hawkeye", epsilon=eps, a=a, lam=lam)


class TestFit:
    def test_single_point_moves_toward_target(self):
        X = np.array([[0.5]])
        y = np.array([2.0])
        model, report = fit(
            X, y, rbf(), LossSpec("least_squares"), C=100.0,
            adam=AdamConfig(max_iter=3000, seed=0), scaling="none",
        )
        before = abs(2.0 - 0.01)  # prediction at the start is START * K(x1,x1)
        after = abs(2.0 - predict(model, X)[0])
        assert after < before
        assert after < 1e-2

    def test_zero_targets_zero_init_stay_at_optimum(self, monkeypatch):
        import helssvr.optimizer

        monkeypatch.setattr(helssvr.optimizer, "START", 0.0)
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        y = np.zeros(5)
        cfg = AdamConfig(max_iter=50, seed=0)
        model, report = fit(X, y, rbf(), LossSpec("least_squares"), C=1.0, adam=cfg, scaling="none")
        assert np.array_equal(model.alpha, np.zeros(5))
        assert report.final_objective == 0.0

    def test_objective_never_worse_than_start(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(5, 25))
            X = rng.uniform(-1, 1, size=(n, 2))
            y = rng.uniform(-1, 1, size=n)
            loss = hawkeye(a=float(rng.uniform(0.5, 3.0)))
            model, report = fit(
                X, y, rbf(float(rng.uniform(0.5, 2.0))), loss,
                C=float(rng.uniform(1.0, 100.0)),
                adam=AdamConfig(max_iter=300, seed=trial, collect_trace=True),
            )
            # the trace starts at H of the initial coefficients
            assert report.final_objective <= report.state.trace[0]

    def test_hawkeye_risk_bounded_by_lambda(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(30, 1))
        y = rng.uniform(-5, 5, size=30)
        lam, C = 1.5, 10.0
        loss = hawkeye(lam=lam)
        model, _ = fit(X, y, rbf(), loss, C=C, adam=AdamConfig(max_iter=200, seed=0))
        # empirical risk at the trained coefficients, in scaled space
        gram = gram_matrix(model.kernel, model.X_train)
        from helssvr.data import scale_target

        ys = scale_target(model.scaling, y)
        xi = ys - gram.values @ model.alpha
        risk = C * float(np.sum(loss_value(loss, xi)))
        assert risk <= C * 30 * lam

    def test_shape_and_finite_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((3, 1)), np.zeros(4), rbf(), hawkeye(), C=1.0)
        with pytest.raises(ValueError):
            fit(np.zeros((0, 1)), np.zeros(0), rbf(), hawkeye(), C=1.0)
        with pytest.raises(ValueError):
            fit(np.array([[np.inf]]), np.zeros(1), rbf(), hawkeye(), C=1.0)
        with pytest.raises(ValueError, match="no features"):
            fit(np.empty((4, 0)), np.zeros(4), rbf(), hawkeye(), C=1.0)
        with pytest.raises(ValueError):
            fit(np.zeros((2, 1)), np.zeros(2), rbf(), hawkeye(), C=0.0)

    def test_least_squares_swap_gradient_checks(self):
        # the identical pipeline with the quadratic loss trains a kernel
        # ridge style fit whose full-batch gradient agrees with finite
        # differences (sanity anchor for the loss-swap contract)
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(6, 1))
        y = rng.uniform(-1, 1, size=6)
        gram = gram_matrix(rbf(0.7), X)
        loss = LossSpec("least_squares")
        alpha = rng.normal(size=6)
        g = objective_gradient(alpha, gram, y, 2.0, loss, np.arange(6))
        h = 1e-6
        for j in range(6):
            up, dn = alpha.copy(), alpha.copy()
            up[j] += h
            dn[j] -= h
            fd = (objective_value(up, gram, y, 2.0, loss) - objective_value(dn, gram, y, 2.0, loss)) / (2 * h)
            assert abs(g[j] - fd) <= max(1e-5, 1e-4 * abs(fd))


    def test_report_keeps_each_number_once(self):
        # the steps and the trace are read from the optimizer's state
        from dataclasses import fields

        from helssvr.model import FitReport

        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (20, 1))
        y = np.sin(3 * X[:, 0])
        _, full = fit(X, y, rbf(), hawkeye(), C=10.0, adam=AdamConfig(max_iter=30, seed=0))
        assert [f.name for f in fields(FitReport)] == ["final_objective", "wall_time_seconds", "gram_seconds", "state"]
        assert (full.state.t, full.state.trace) == (30, None)


class TestPredict:
    def test_single_training_point_formula(self):
        model = TrainedModel(
            alpha=np.array([2.0]),
            X_train=np.array([[0.3, 0.4]]),
            kernel=rbf(),
            loss=hawkeye(),
            C=1.0,
            scaling=__import__("helssvr.data", fromlist=["ScalingState"]).ScalingState(mode="none"),
        )
        assert predict(model, np.array([[0.3, 0.4]]))[0] == 2.0

    def test_zero_alpha_predicts_inverse_scaled_zero(self, monkeypatch):
        import helssvr.optimizer

        monkeypatch.setattr(helssvr.optimizer, "START", 0.0)
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.uniform(5.0, 6.0, 10)
        cfg = AdamConfig(max_iter=1, gamma=1e-30, seed=0)
        model, _ = fit(X, y, rbf(), hawkeye(eps=100.0), C=1e-30, adam=cfg, scaling="minmax")
        assert np.allclose(model.alpha, 0.0)
        pred = predict(model, X)
        assert np.allclose(pred, y.min())  # inverse of scaled 0 is the target minimum

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (8, 2))
        alpha = rng.normal(size=8)
        from helssvr.data import ScalingState

        m1 = TrainedModel(alpha, X, rbf(0.8), hawkeye(), 1.0, ScalingState(mode="none"))
        perm = rng.permutation(8)
        m2 = TrainedModel(alpha[perm], X[perm], rbf(0.8), hawkeye(), 1.0, ScalingState(mode="none"))
        Q = rng.uniform(-1, 1, (5, 2))
        assert np.allclose(predict(m1, Q), predict(m2, Q), rtol=1e-12)

    def test_predict_consistent_with_kernel_row(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (12, 3))
        y = rng.uniform(-1, 1, 12)
        model, _ = fit(X, y, rbf(0.9), hawkeye(), C=10.0, adam=AdamConfig(max_iter=100, seed=0))
        Q = rng.uniform(-1, 1, (6, 3))
        got = predict(model, Q)
        from helssvr.data import inverse_target, scale_features

        Qs = scale_features(model.scaling, Q)
        raw = np.array([kernel_row(model.kernel, q, model.X_train) @ model.alpha for q in Qs])
        assert np.array_equal(got, inverse_target(model.scaling, raw))

    def test_dimension_mismatch(self):
        from helssvr.data import ScalingState

        model = TrainedModel(np.ones(1), np.ones((1, 2)), rbf(), hawkeye(), 1.0, ScalingState(mode="none"))
        with pytest.raises(ValueError):
            predict(model, np.ones((3, 5)))

    def test_queries_of_more_than_two_dimensions_rejected(self):
        from helssvr.data import ScalingState

        model = TrainedModel(np.ones(1), np.ones((1, 1)), rbf(), hawkeye(), 1.0, ScalingState(mode="none"))
        with pytest.raises(ValueError, match="2-d sample matrix, got ndim=3"):
            predict(model, np.ones((2, 1, 1)))


class TestObjectiveValue:
    def test_zero_everything(self):
        gram = gram_matrix(rbf(), np.eye(3))
        assert objective_value(np.zeros(3), gram, np.zeros(3), 5.0, hawkeye()) == 0.0

    def test_zero_alpha_gives_pure_risk(self):
        gram = gram_matrix(rbf(), np.eye(3))
        y = np.array([0.5, -2.0, 3.0])
        loss = LossSpec("least_squares")
        expected = 4.0 * float(np.sum(y**2))
        assert objective_value(np.zeros(3), gram, y, 4.0, loss) == pytest.approx(expected, rel=1e-15)


class TestSerialization:
    def fitted_model(self, seed=0, scaling="minmax"):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (15, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=15)
        return fit(
            X, y, rbf(0.8), hawkeye(0.05, 2.0, 1.0), C=50.0,
            adam=AdamConfig(max_iter=150, seed=seed), scaling=scaling,
        )[0]

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.fitted_model()
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.X_train, model.X_train)
        assert loaded.kernel == model.kernel
        assert loaded.loss == model.loss
        assert loaded.C == model.C
        rng = np.random.default_rng(9)
        Q = rng.uniform(-1, 1, (7, 2))
        assert np.array_equal(predict(loaded, Q), predict(model, Q))

    def test_round_trip_none_scaling(self, tmp_path):
        model = self.fitted_model(scaling="none")
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        Q = np.random.default_rng(3).uniform(-1, 1, (4, 2))
        assert np.array_equal(predict(loaded, Q), predict(model, Q))

    def test_same_model_serializes_identically(self):
        m1 = self.fitted_model(seed=5)
        m2 = self.fitted_model(seed=5)
        assert model_to_json(m1) == model_to_json(m2)

    def test_format_tag_enforced(self):
        model = self.fitted_model()
        text = model_to_json(model).replace("helssvr-model-v1", "other-format")
        with pytest.raises(ValueError, match="format"):
            model_from_json(text)

    def test_format_tag_present(self):
        assert '"format":"helssvr-model-v1"' in model_to_json(self.fitted_model())

    def test_round_trip_with_baseline_loss_params(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (10, 2))
        y = rng.uniform(-1, 1, 10)
        loss = LossSpec("quadratic_nonconvex_insensitive", epsilon=0.1, t=0.8, theta=0.5)
        model, _ = fit(X, y, rbf(), loss, C=5.0, adam=AdamConfig(max_iter=50, seed=0))
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.loss == loss
        Q = rng.uniform(-1, 1, (3, 2))
        assert np.array_equal(predict(loaded, Q), predict(model, Q))


class TestRobustnessOrdering:
    def test_outliers_hurt_quadratic_loss_more(self):
        # corrupt a tenth of the training targets by +5 and compare test
        # error against the clean generating curve; hyperparameters are in
        # raw data units
        from helssvr.seeding import make_rng, sample_without_replacement

        spec = SyntheticSpec(2, "gaussian", n_samples=150, seed=8)
        ds, y_true = generate_synthetic(spec)
        X_tr, y_tr = ds.X[:50], ds.y[:50].copy()
        X_te, y_te_clean = ds.X[50:], y_true[50:]
        bad = sample_without_replacement(make_rng(3, 8), 50, 5)
        y_tr[bad] += 5.0

        cfg = AdamConfig(max_iter=1000, seed=1)
        he, _ = fit(X_tr, y_tr, rbf(1.0), hawkeye(0.1, 1.0, 1.0), C=100.0, adam=cfg, scaling="none")
        ls, _ = fit(X_tr, y_tr, rbf(1.0), LossSpec("least_squares"), C=100.0, adam=cfg, scaling="none")
        rmse_he = float(np.sqrt(np.mean((predict(he, X_te) - y_te_clean) ** 2)))
        rmse_ls = float(np.sqrt(np.mean((predict(ls, X_te) - y_te_clean) ** 2)))
        assert rmse_he < rmse_ls


def cell_adam(adam, gamma, seed):
    """The standalone fit's Adam settings of a :func:`fit_cells` cell."""
    return replace(adam or AdamConfig(), gamma=gamma, seed=seed)


class TestFitCells:
    def test_cells_match_standalone_fits(self, monkeypatch):
        # one call per loss kind, Adam settings and seed; the cells of a
        # call differ in gamma, and one row per stack exercises the
        # chunking as well
        import helssvr.model
        from helssvr.model import fit_cells

        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (21, 2))
        y = np.cos(2 * X[:, 0]) + 0.1 * rng.normal(size=21)
        calls = [
            (AdamConfig(max_iter=60, batch_size=5), 1,
             [(hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2), (hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3)]),
            (AdamConfig(max_iter=60), 3, [(LossSpec("least_squares"), 1.0, 1e-2)]),
            (AdamConfig(max_iter=40, batch_size=5), 4, [(hawkeye(0.05, 2.0, 0.5), 10.0, 1e-2)]),
            (None, None, [(hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2)]),
        ]
        # one row per stack is the layout of a standalone fit, bit for bit;
        # rows that share the set's Gram products stay within tolerance
        for rows in (1, 32):
            monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
            for adam, seed, cells in calls:
                seeds = None if seed is None else [seed]
                fitted = fit_cells([(X, y)], rbf(0.8), [(0, *cell) for cell in cells], adam, scaling="zscore", seeds=seeds)
                for (loss, C, gamma), (model, report) in zip(cells, fitted):
                    alone_adam = cell_adam(adam, gamma, seed or 0)
                    alone, alone_report = fit(X, y, rbf(0.8), loss, C=C, adam=alone_adam, scaling="zscore")
                    assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)
                    assert model.loss == loss

    def test_every_C_validated(self):
        from helssvr.model import fit_cells

        for bad in (-1.0, 0.0, np.inf, np.nan):
            cells = [(0, hawkeye(), 1.0, 0.01), (0, hawkeye(), bad, 0.01)]
            with pytest.raises(ValueError, match="^C must be finite and > 0: cell 1$"):
                fit_cells([(np.eye(3), np.ones(3))], rbf(), cells)

    @pytest.mark.parametrize("gamma, seed, message", BAD_RATE_OR_SEED)
    def test_every_rate_and_seed_validated_before_any_gram(self, monkeypatch, gamma, seed, message):
        import re

        import helssvr.model
        from helssvr.model import fit_cells

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(helssvr.model, "gram_matrix", no_gram)
        cells = [(0, hawkeye(), 1.0, 0.01), (1, hawkeye(), 1.0, gamma)]
        where = "cell 1" if seed == 0 else "set 1"
        with pytest.raises(ValueError, match=re.escape(f"{message}: {where}")):
            fit_cells([(np.eye(3), np.ones(3))] * 2, rbf(), cells, seeds=[0, seed])
        with pytest.raises(ValueError, match="fit_cells got 1 seeds for 2 training sets"):
            fit_cells([(np.eye(3), np.ones(3))] * 2, rbf(), cells[:1], seeds=[0])


class TestDivergedCell:
    @pytest.mark.parametrize("n", [60, 300], ids=["dense", "factor"])
    def test_diverged_cell_reports_nan_and_spares_the_others(self, n):
        # cell 1 trains at 1e300 and diverges at step 2 beside two cells of
        # its set; they keep the bits of a call where cell 1 trains at 0.02
        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=n, seed=1))
        loss, adam = LossSpec("least_squares"), AdamConfig(max_iter=20)
        cells = [(0, loss, 1.0, 0.01), (0, loss, 1.0, 0.02), (0, loss, 10.0, 0.01)]
        healthy = fit_cells([(ds.X, ds.y)], rbf(1.0), cells, adam)
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = fit_cells([(ds.X, ds.y)], rbf(1.0), [cells[0], (0, loss, 1.0, 1e300), cells[2]], adam)
        model, report = fitted[1]
        assert (len(model.X_train) < n) == (n == 300)  # the factor's pivot rows
        assert report.state.diverged == 2 and np.isnan(report.final_objective)
        assert model.alpha.shape == (len(model.X_train),) and np.isnan(model.alpha).all()
        for c in (0, 2):
            assert fitted[c][0].alpha.tobytes() == healthy[c][0].alpha.tobytes()
            assert fitted[c][1].final_objective == healthy[c][1].final_objective
        with pytest.raises(ValueError, match="^training diverged: non-finite residual or coefficients at step 2$"):
            with np.errstate(over="ignore", invalid="ignore"):
                fit(ds.X, ds.y, rbf(1.0), loss, 1.0, replace(adam, gamma=1e300))


class TestFoldStacks:
    """Which training sets share an optimizer stack, decided without training."""

    @staticmethod
    def dense(sizes, dtype=np.float64):
        # the form and bytes of a set of each size with a dense Gram of dtype
        dtype = np.dtype(dtype)
        return [(n, dtype) for n in sizes], [dtype.itemsize * n * n for n in sizes]

    def test_budget_stacks_small_folds_and_splits_large_ones(self):
        from helssvr.model import STACK_GRAM_BYTES, _fold_stacks

        assert 5 * 8 * 160**2 <= STACK_GRAM_BYTES < 2 * 8 * 320**2
        assert _fold_stacks(*self.dense([160] * 5)) == [[0, 1, 2, 3, 4]]
        assert _fold_stacks(*self.dense([320] * 5)) == [[0], [1], [2], [3], [4]]
        assert _fold_stacks(*self.dense([2000])) == [[0]]

    def test_float32_grams_stack_by_their_bytes(self):
        # two float32 Grams of 320 rows fit the budget, three do not, and
        # they never share a stack with float64 Grams of their size
        from helssvr.model import STACK_GRAM_BYTES, _fold_stacks

        assert 2 * 4 * 320**2 <= STACK_GRAM_BYTES < 3 * 4 * 320**2
        assert _fold_stacks(*self.dense([320] * 5, np.float32)) == [[0, 1], [2, 3], [4]]
        (f32,), (f32_bytes,) = self.dense([300], np.float32)
        (f64,), _ = self.dense([300])
        assert _fold_stacks([f64, f32, f64, f32], [f32_bytes] * 4) == [[0, 2], [1, 3]]

    def test_factor_bytes_count_against_the_budget(self):
        # factors of one size stack by their own bytes, in index order, and
        # never with dense Grams, even of their size and bytes
        from helssvr.model import STACK_GRAM_BYTES, _fold_stacks

        third = STACK_GRAM_BYTES // 3
        assert _fold_stacks([(300, None)] * 4, [third, third, 2 * third, 1000]) == [[0, 1], [2, 3]]
        (f64,), _ = self.dense([300])
        assert _fold_stacks([f64, (300, None), (300, None)], [1000] * 3) == [[0], [1, 2]]
        assert _fold_stacks([(300, None)] * 2, [STACK_GRAM_BYTES + 1] * 2) == [[0], [1]]

    def test_unequal_sizes_never_share(self):
        from helssvr.model import _fold_stacks

        assert _fold_stacks(*self.dense([20, 21, 21, 20])) == [[0, 3], [1, 2]]

    def test_stack_rows_caps_the_sets(self, monkeypatch):
        import helssvr.model
        from helssvr.model import _fold_stacks

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 2)
        assert _fold_stacks(*self.dense([160] * 5)) == [[0, 1], [2, 3], [4]]



class TestFitCellsAcrossSets:
    def sets(self):
        rng = np.random.default_rng(70)
        out = []
        for n in (21, 20, 21, 21):  # unequal sizes: 20 trains apart from 21
            X = rng.uniform(-1, 1, (n, 2))
            out.append((X, np.cos(2 * X[:, 0]) + 0.1 * rng.normal(size=n)))
        return out

    @pytest.mark.parametrize("rows", [1, 2, 32])
    def test_cells_match_standalone_fits(self, monkeypatch, rows):
        import helssvr.model
        from helssvr.model import fit_cells

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
        sets = self.sets()
        # one call per loss kind and Adam settings: (settings, the cells of
        # every set as (loss, C, gamma)), set j seeded 10 j + 1
        per_set = [
            (AdamConfig(max_iter=60, batch_size=5),
             [(hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2), (hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3)]),
            (AdamConfig(max_iter=60), [(LossSpec("least_squares"), 1.0, 1e-2)]),
            (AdamConfig(max_iter=40, batch_size=5), [(hawkeye(0.05, 2.0, 0.5), 10.0, 1e-2)]),
        ]
        seeds = [10 * j + 1 for j in range(len(sets))]
        calls = [(adam, [(j, *cell) for j in range(len(sets)) for cell in cells]) for adam, cells in per_set]
        calls.append((None, [(2, hawkeye(), 10.0, 0.01)]))  # set 2 holds one cell more
        steps = set()
        for adam, cells in calls:
            fitted = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", seeds=seeds)
            for (j, loss, C, gamma), (model, report) in zip(cells, fitted):
                alone_adam = cell_adam(adam, gamma, seeds[j])
                alone, alone_report = fit(*sets[j], rbf(0.8), loss, C=C, adam=alone_adam, scaling="zscore")
                assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)
                assert model.X_train.tobytes() == alone.X_train.tobytes()
                steps.add(report.state.t)
        assert steps == {60, 40, 1000}

    @pytest.mark.parametrize("rows", [1, 2, 32])
    def test_set_with_one_cell_more_matches_standalone_fits(self, monkeypatch, rows):
        # set 2 holds three cells, the others two: a stack still takes the
        # same number of cells from each set while they last
        import helssvr.model
        from helssvr.model import fit_cells

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
        sets = self.sets()
        adam = AdamConfig(max_iter=40, batch_size=5)
        cells = [(j, hawkeye(0.05, a, 1.0), 10.0, 1e-2) for j in range(4) for a in (1.0, 3.0)]
        cells.append((2, hawkeye(), 100.0, 1e-3))
        seeds = [10 * j for j in range(4)]
        fitted = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", seeds=seeds)
        for (j, loss, C, gamma), (model, report) in zip(cells, fitted):
            alone, alone_report = fit(*sets[j], rbf(0.8), loss, C=C, adam=cell_adam(adam, gamma, seeds[j]), scaling="zscore")
            assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_resumed_cells_match_one_call(self, batch_size):
        # each cell's FitReport.state resumes it, bit for bit, in the same
        # stack layout
        from helssvr.model import fit_cells

        sets = self.sets()
        adam = AdamConfig(max_iter=60, batch_size=batch_size)
        cells = [
            (j, hawkeye(0.05, a, 1.0), C, adam.gamma)
            for j in range(len(sets))
            for a, C in [(1.0, 10.0), (3.0, 100.0), (2.0, 1.0)]
        ]
        seeds = [10 * j for j in range(len(sets))]
        whole = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", seeds=seeds)
        part = fit_cells(sets, rbf(0.8), cells, replace(adam, max_iter=17), scaling="zscore", seeds=seeds)
        # the resumed sets draw on from their states' generators, whatever
        # the seeds say
        resumed = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", resume=[r.state for _, r in part])
        for (model, report), (want, want_report) in zip(resumed, whole):
            assert model.alpha.tobytes() == want.alpha.tobytes()
            assert report.final_objective == want_report.final_objective
            assert report.state.t == want_report.state.t
        assert {r.state.t for _, r in whole} == {60}
        with pytest.raises(ValueError, match="2 resume states for 12 cells"):
            fit_cells(sets, rbf(0.8), cells, adam, resume=[None, None])

    def test_models_of_one_set_share_inputs(self):
        from helssvr.model import fit_cells

        cells = [(j, hawkeye(), C, 0.01) for j in (0, 1) for C in (10.0, 20.0)]
        models = [m for m, _ in fit_cells(self.sets()[:2], rbf(0.5), cells, AdamConfig(max_iter=10))]
        assert models[0].X_train is models[1].X_train and models[0].scaling is models[1].scaling
        assert models[1].X_train is not models[2].X_train

    def test_set_index_checked(self):
        from helssvr.model import fit_cells

        with pytest.raises(ValueError, match=r"set indices must lie in \[0, 1\)"):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), [(1, hawkeye(), 1.0, 0.01)])

    def test_no_cells_rejected(self):
        from helssvr.model import fit_cells

        with pytest.raises(ValueError, match="fit_cells needs at least one cell"):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), [])


def assert_same_fits(got, want):
    """Cells of two :func:`fit_cells` calls, bit for bit."""
    for (model, report), (want_model, want_report) in zip(got, want, strict=True):
        assert model.alpha.tobytes() == want_model.alpha.tobytes()
        assert model.X_train.tobytes() == want_model.X_train.tobytes()
        assert (model.kernel, model.loss, model.C) == (want_model.kernel, want_model.loss, want_model.C)
        assert report.final_objective == want_report.final_objective
        assert report.state.t == want_report.state.t
        assert report.state.trace == want_report.state.trace


class TestFitCellsMixedKinds:
    """Cells of several loss kinds in one :func:`fit_cells` call, each set
    with its own kernel: each kind's cells bit for bit a call of that kind
    alone."""

    kernels = [rbf(0.8), rbf(0.5), rbf(0.3), rbf(1.2)]

    @staticmethod
    def cells(sets):
        # per set, kinds interleaved: two hawkeye cells, one least squares
        # and one huber, and a second huber in the middle set
        out = []
        for j in range(len(sets)):
            out += [
                (j, hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2),
                (j, LossSpec("least_squares"), 1.0, 1e-2),
                (j, hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3),
                (j, LossSpec("huber", theta=0.3), 10.0, 1e-2),
            ]
        return out + [(len(sets) // 2, LossSpec("huber", theta=0.5), 1.0, 1e-3)]

    @staticmethod
    def by_kind(cells):
        kinds = {}
        for i, (_, loss, *_) in enumerate(cells):
            kinds.setdefault(loss.kind, []).append(i)
        return kinds.values()

    def check(self, sets, kernels, cells, adam, resume=None):
        mixed = fit_cells(sets, kernels, cells, adam, scaling="zscore", resume=resume)
        for rows in self.by_kind(cells):
            alone = fit_cells(
                sets, kernels, [cells[i] for i in rows], adam, scaling="zscore",
                resume=None if resume is None else [resume[i] for i in rows],
            )
            assert_same_fits([mixed[i] for i in rows], alone)
        return mixed

    @pytest.mark.parametrize("batch_size", [5, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 32])
    def test_mixed_kinds_match_one_kind_calls(self, monkeypatch, rows, batch_size):
        import helssvr.model

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
        sets = TestFitCellsAcrossSets().sets()
        adam = AdamConfig(max_iter=60, batch_size=batch_size, collect_trace=True)
        mixed = self.check(sets, self.kernels, self.cells(sets), adam)
        assert all(len(report.state.trace) == 61 for _, report in mixed)

    @staticmethod
    def large_set():
        rng = np.random.default_rng(80)
        X = rng.uniform(-1, 1, (363, 2))
        return [(X, np.cos(2 * X[:, 0]) + 0.1 * rng.normal(size=363))]

    def test_float32_gram(self):
        # 363 rows: a stack of its own; at sigma 0.5 the factor's rank
        # reaches 363 / 4, and the set trains on a float32 Gram
        sets = self.large_set()
        for batch_size in (32, 1000):
            self.check(sets, rbf(0.5), self.cells(sets), AdamConfig(max_iter=15, batch_size=batch_size))

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_gram_factor(self, batch_size):
        # at sigma 3 the set trains on a rank-63 factor; a run resumed from
        # step 7 is bit for bit one 15-step call, the factor being built
        # again, bit for bit, by the resuming call
        sets = self.large_set()
        cells, adam = self.cells(sets), AdamConfig(max_iter=15, batch_size=batch_size)
        part = fit_cells(sets, rbf(3.0), cells, replace(adam, max_iter=7), scaling="zscore")
        whole = self.check(sets, rbf(3.0), cells, adam)
        assert_same_fits(self.check(sets, rbf(3.0), cells, adam, resume=[report.state for _, report in part]), whole)

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_resume_to_a_rung(self, monkeypatch, batch_size):
        # every kind trained to step 17 and resumed to 60, as a search's
        # recipes train to a rung and on, is bit for bit one 60-step call;
        # hawkeye resumed from 17 beside fresh cells of the other kinds
        # shares their stacks, and the trainer refuses it before any step
        import helssvr.optimizer

        sets = TestFitCellsAcrossSets().sets()
        cells = self.cells(sets)
        adam = AdamConfig(max_iter=60, batch_size=batch_size)
        part = fit_cells(sets, self.kernels, cells, replace(adam, max_iter=17), scaling="zscore")
        resumed = self.check(sets, self.kernels, cells, adam, resume=[report.state for _, report in part])
        assert_same_fits(resumed, fit_cells(sets, self.kernels, cells, adam, scaling="zscore"))
        steps = []
        real = helssvr.optimizer.adam_step
        monkeypatch.setattr(helssvr.optimizer, "adam_step", lambda *a, **kw: steps.append(1) or real(*a, **kw))
        mixed = [report.state if loss.kind == "hawkeye" else None for (_, loss, *_), (_, report) in zip(cells, part)]
        with pytest.raises(ValueError, match="resumed cells must share one step count"):
            fit_cells(sets, self.kernels, cells, adam, scaling="zscore", resume=mixed)
        assert steps == []

    def test_one_stack_per_group(self, monkeypatch):
        # every kind's cells of a set group share one train_adam call while
        # they fit in STACK_ROWS rows
        import helssvr.model

        calls = []
        real = helssvr.model.train_adam

        def spy(gram, y, C, loss, cfg, **kw):
            calls.append(sorted({spec.kind for spec in loss}))
            return real(gram, y, C, loss, cfg, **kw)

        monkeypatch.setattr(helssvr.model, "train_adam", spy)
        sets = TestFitCellsAcrossSets().sets()
        fit_cells(sets, self.kernels, self.cells(sets), AdamConfig(max_iter=5))
        assert calls == [["hawkeye", "huber", "least_squares"]] * 2

    def test_kernel_per_set_matches_fit_per_set(self):
        # one cell per set, each the only row of its kind and set: a fit
        # of its own, bit for bit
        sets = TestFitCellsAcrossSets().sets()
        adam = AdamConfig(max_iter=40, batch_size=5)
        cells = [
            (0, hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2), (1, LossSpec("least_squares"), 1.0, 1e-2),
            (2, hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3), (3, LossSpec("least_squares"), 10.0, 1e-3),
        ]
        fitted = fit_cells(sets, self.kernels, cells, adam, scaling="zscore", seeds=[1, 2, 3, 4])
        want = [
            fit(*sets[j], self.kernels[j], loss, C=C, adam=cell_adam(adam, gamma, j + 1), scaling="zscore")
            for j, loss, C, gamma in cells
        ]
        assert_same_fits(fitted, want)

    def test_kernel_count_checked(self):
        with pytest.raises(ValueError, match="fit_cells got 2 kernels for 4 training sets"):
            fit_cells(TestFitCellsAcrossSets().sets(), self.kernels[:2], [(0, hawkeye(), 1.0, 0.01)])

    @pytest.mark.parametrize("first", [[], [(0, LossSpec("least_squares"), 1.0, 1e-2)]])
    def test_one_chunk_of_a_kind_per_stack(self, monkeypatch, first):
        # at 3 rows a stack, hawkeye's 2 + 1 cells on two sets make a chunk
        # of one cell per set and one of set 0's second cell; the two
        # chunks never share a stack, whatever kind comes first, so each
        # hawkeye cell stays the only row of its kind and set: a fit of
        # its own, bit for bit
        import helssvr.model

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 3)
        rng = np.random.default_rng(81)
        sets = [(X, np.sin(3 * X[:, 0])) for X in rng.uniform(-1, 1, (2, 21, 2))]
        he = [(0, hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2), (1, hawkeye(), 1.0, 1e-2), (0, hawkeye(), 100.0, 1e-3)]
        adam = AdamConfig(max_iter=30, batch_size=8)
        fitted = fit_cells(sets, self.kernels[0], [*first, *he], adam, scaling="zscore", seeds=[1, 2])
        want = [
            fit(*sets[j], self.kernels[0], loss, C=C, adam=cell_adam(adam, gamma, j + 1), scaling="zscore")
            for j, loss, C, gamma in he
        ]
        assert_same_fits(fitted[len(first):], want)


class TestSetDraws:
    """A mini-batch fit_cells call draws each training set's batches once,
    from the set's seed, for every cell on the set, whatever stack or kind
    the cell trains in."""

    @staticmethod
    def sets():
        # the three sets of 21 rows, which share stacks
        return [(X, y) for X, y in TestFitCellsAcrossSets().sets() if len(y) == 21]

    @staticmethod
    def spy_sampler(monkeypatch):
        import helssvr.optimizer

        calls, real = [], helssvr.optimizer.sample_without_replacement

        def spy(rng, n, k, draws=None):
            calls.append(draws)
            return real(rng, n, k, draws=draws)

        monkeypatch.setattr(helssvr.optimizer, "sample_without_replacement", spy)
        return calls

    @pytest.mark.parametrize("rows", [2, 32])
    def test_one_sampler_call_per_set_and_block(self, monkeypatch, rows):
        # 3 sets of 21 rows, 13 cells; 50 steps at batch 5 draw blocks of
        # 21, 21 and 8 batches: 3 sampler calls per set and stack, not per
        # row, and every cell of a set returns the set's generator
        import helssvr.model

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
        calls = self.spy_sampler(monkeypatch)
        stacks, train = [], helssvr.model.train_adam

        def spy(gram, *args, **kw):
            stacks.append(kw["fold"])
            return train(gram, *args, **kw)

        monkeypatch.setattr(helssvr.model, "train_adam", spy)
        sets = self.sets()
        cells = TestFitCellsMixedKinds.cells(sets)
        fitted = fit_cells(sets, rbf(0.8), cells, AdamConfig(max_iter=50, batch_size=5), seeds=[4, 5, 6])
        assert calls == [draws for folds in stacks for draws in (21, 21, 8) for _ in set(folds)]
        assert (len(stacks) == 1) == (rows == 32) and len(calls) < 3 * len(cells)
        held = {j: {repr(report.state.rng.bit_generator.state) for (i, *_), (_, report) in zip(cells, fitted) if i == j}
                for j in range(3)}
        assert all(len(states) == 1 for states in held.values()) and len(set().union(*held.values())) == 3
        assert len({id(report.state.rng) for _, report in fitted}) == len(cells)

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_only_row_of_its_kind_is_its_own_fit(self, batch_size):
        # least squares holds one row per set, beside two hawkeye rows and
        # one or two huber rows on the same draws: each least-squares cell
        # is bit for bit a fit of its own with its set's seed
        sets = self.sets()
        cells = TestFitCellsMixedKinds.cells(sets)
        adam = AdamConfig(max_iter=50, batch_size=batch_size)
        fitted = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", seeds=[4, 5, 6])
        lone = [i for i, (_, loss, *_) in enumerate(cells) if loss.kind == "least_squares"]
        want = [
            fit(*sets[j], rbf(0.8), loss, C=C, adam=cell_adam(adam, gamma, 4 + j), scaling="zscore")
            for j, loss, C, gamma in (cells[i] for i in lone)
        ]
        assert_same_fits([fitted[i] for i in lone], want)

    def test_resumed_cells_of_a_set_must_hold_one_generator(self):
        # two cells of set 0 resumed from calls with different seeds would
        # draw two batch sequences on one set
        sets = self.sets()[:2]
        cells = [(0, hawkeye(), 10.0, 1e-2), (0, hawkeye(), 100.0, 1e-2), (1, hawkeye(), 10.0, 1e-2)]
        adam = AdamConfig(max_iter=30, batch_size=5)
        first, second = (
            fit_cells(sets, rbf(0.8), cells, replace(adam, max_iter=10), seeds=seeds) for seeds in ([1, 2], [3, 2])
        )
        mixed = [first[0][1].state, second[1][1].state, first[2][1].state]
        with pytest.raises(ValueError, match="^resumed cells of set 0 hold generators in different states$"):
            fit_cells(sets, rbf(0.8), cells, adam, resume=mixed)
        # set 1's cell resumes from either call: its seed was 2 in both
        resumed = fit_cells(sets, rbf(0.8), cells, adam, resume=[r.state for _, r in first[:2]] + [second[2][1].state])
        assert_same_fits(resumed, fit_cells(sets, rbf(0.8), cells, adam, seeds=[1, 2]))


class TestFactorStacks:
    """Sets of one size trained on their Gram factors share optimizer
    stacks, and each cell keeps the bits it gets on its set's factor alone."""

    @staticmethod
    def sets(n=300, count=3):
        rng = np.random.default_rng(90)
        out = []
        for _ in range(count):
            X = rng.uniform(-1, 1, (n, 1))
            out.append((X, np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n)))
        return out

    @staticmethod
    def spy_forms(monkeypatch):
        # the Gram form of each train_adam call: its factors' ranks, or the
        # dtype and count of its dense Grams
        import helssvr.model
        from helssvr.kernels import GramFactors

        forms, train = [], helssvr.model.train_adam

        def spy(gram, *args, **kwargs):
            if isinstance(gram, GramFactors):
                forms.append([factor.Lt.shape[0] for factor in gram])
            else:
                forms.append((gram.values.dtype, len(gram.values)))
            return train(gram, *args, **kwargs)

        monkeypatch.setattr(helssvr.model, "train_adam", spy)
        return forms

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_cells_keep_the_bits_of_their_set_alone(self, monkeypatch, batch_size):
        # three 300-row sets whose factors' ranks differ train in one stack:
        # each set's blocks of one row (least squares, one row per set),
        # of two rows (hawkeye) and, in the middle set, of two huber rows,
        # each on its set's factor, as a call of that set alone makes them
        forms = self.spy_forms(monkeypatch)
        sets, kernels = self.sets(), [rbf(3.0), rbf(1.0), rbf(0.5)]
        cells = TestFitCellsMixedKinds.cells(sets)
        adam = AdamConfig(max_iter=40, batch_size=batch_size, collect_trace=True)
        joint = fit_cells(sets, kernels, cells, adam, scaling="zscore")
        (ranks,) = forms
        assert len(ranks) == 3 and len(set(ranks)) == 3 and max(ranks) < 300 // 4
        for j, (X, y) in enumerate(sets):
            rows = [i for i, cell in enumerate(cells) if cell[0] == j]
            alone = fit_cells([(X, y)], [kernels[j]], [(0, *cells[i][1:]) for i in rows], adam, scaling="zscore")
            assert_same_fits([joint[i] for i in rows], alone)

    def test_a_set_whose_factor_gives_up_trains_alone(self, monkeypatch):
        # two wide kernels and a narrow one on three sets of one size: the
        # narrow set's factor gives up, so it trains alone on a float32
        # Gram, and the other two share a factor stack.  On a clock that
        # only the builds advance, each set's gram_seconds is its own
        # build, the failed factor's included, split among its cells
        import types

        import helssvr.model

        forms = self.spy_forms(monkeypatch)
        now, cost = [0.0], {3.0: 1.0, 0.005: 4.0, 1.0: 2.0}
        factor, matrix = helssvr.model.gram_factor, helssvr.model.gram_matrix

        def factor_spy(spec, X):
            now[0] += cost[spec.sigma]
            return factor(spec, X)

        def matrix_spy(spec, X, out=None):
            now[0] += 8.0
            return matrix(spec, X, out=out)

        monkeypatch.setattr(helssvr.model, "gram_factor", factor_spy)
        monkeypatch.setattr(helssvr.model, "gram_matrix", matrix_spy)
        monkeypatch.setattr(helssvr.model, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        sets, kernels = self.sets(), [rbf(3.0), rbf(0.005), rbf(1.0)]
        # one, two and four cells on sets 0, 1 and 2
        cells = [(j, hawkeye(), 10.0 * (c + 1), 0.01) for j, count in enumerate((1, 2, 4)) for c in range(count)]
        fitted = fit_cells(sets, kernels, cells, AdamConfig(max_iter=3), scaling="zscore")
        factor_stack, float32 = sorted(forms, key=lambda form: isinstance(form, tuple))
        assert len(factor_stack) == 2 and float32 == (np.float32, 1)
        seconds = {j: {report.gram_seconds for (i, *_), (_, report) in zip(cells, fitted) if i == j} for j in range(3)}
        assert seconds == {0: {1.0}, 1: {(4.0 + 8.0) / 2}, 2: {2.0 / 4}}


    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_float32_fallbacks_share_a_stack(self, monkeypatch, batch_size):
        # two 300-row sets under a narrow kernel: both factors give up, and
        # the two float32 Grams (0.72 MB) share one stack; each cell is the
        # only row of its kind in its set, so it keeps the bits of its own
        # fit, the float32 GEMVs of one set per call
        forms = self.spy_forms(monkeypatch)
        sets = self.sets(count=2)
        cells = [
            (0, hawkeye(), 10.0, 1e-2), (1, LossSpec("least_squares"), 1.0, 1e-2),
            (1, hawkeye(0.05, 3.0, 1.0), 100.0, 1e-3), (0, LossSpec("least_squares"), 10.0, 1e-3),
        ]
        adam = AdamConfig(max_iter=40, batch_size=batch_size, collect_trace=True)
        joint = fit_cells(sets, rbf(0.005), cells, adam, scaling="zscore", seeds=[1, 2])
        assert forms == [(np.float32, 2)]
        want = [
            fit(*sets[j], rbf(0.005), loss, C=C, adam=cell_adam(adam, gamma, j + 1), scaling="zscore")
            for j, loss, C, gamma in cells
        ]
        assert forms == [(np.float32, 2)] + [(np.float32, 1)] * 4
        assert_same_fits(joint, want)


class TestOneProductPath:
    """A report's final objective, its trace's last entry and
    objective_value on the set's Gram built anew are one number, bit for
    bit, in every Gram form: the trainer, the report and objective_value
    make K alpha by the same one-row product."""

    @pytest.mark.parametrize(
        "n, sigma, form",
        [(60, 0.5, (np.float64, 2)), (300, 0.005, (np.float32, 2)), (300, 1.0, "factors")],
    )
    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_final_objective_is_objective_value(self, monkeypatch, n, sigma, form, batch_size):
        from helssvr.data import scale_features, scale_target
        from helssvr.kernels import GramFactors, gram_buffer, gram_factor

        forms = TestFactorStacks.spy_forms(monkeypatch)
        sets = TestFactorStacks.sets(n, count=2)
        cells = [(j, hawkeye(0.05, 3.0, 1.0), 100.0, 1e-2) for j in (0, 1)]
        adam = AdamConfig(max_iter=30, batch_size=batch_size, collect_trace=True)
        fitted = fit_cells(sets, rbf(sigma), cells, adam, scaling="zscore", seeds=[0, 1])
        (got,) = forms  # one stack of the two sets
        if form == "factors":
            assert len(got) == 2
        else:
            assert got == form
        for (X, y), (model, report) in zip(sets, fitted):
            Xs, ys = scale_features(model.scaling, X), scale_target(model.scaling, y)
            if form == "factors":
                gram = GramFactors([gram_factor(rbf(sigma), Xs)])
            else:
                gram = gram_matrix(rbf(sigma), Xs, out=gram_buffer(1, n, form[0])[0])
            want = objective_value(report.state.alpha, gram, ys, 100.0, model.loss)
            assert report.final_objective == report.state.trace[-1] == want


class TestPredictCells:
    def test_matches_predict_of_each_model(self):
        from helssvr.model import fit_cells, predict_cells

        rng = np.random.default_rng(80)
        X = rng.uniform(-1, 1, (30, 2))
        y = np.sin(2 * X[:, 0])
        cells = [(0, hawkeye(0.05, a, 1.0), C, 0.01) for a in (1.0, 3.0) for C in (1.0, 100.0)]
        models = [m for m, _ in fit_cells([(X, y)], rbf(0.6), cells, AdamConfig(max_iter=40, seed=1), scaling="zscore")]
        X_new = rng.uniform(-1, 1, (17, 2))
        got = predict_cells(models, X_new)
        assert len(got) == 4
        for model, pred in zip(models, got):
            assert pred.tobytes() == predict(model, X_new).tobytes()

    @staticmethod
    def check_blocks_match_per_point_rows(monkeypatch, spec, mode):
        import helssvr.kernels
        from helssvr.data import inverse_target, scale_features, scale_fit
        from helssvr.model import predict_cells

        rng = np.random.default_rng(81)
        X = rng.uniform(-1, 1, (9, 3))
        X.flags.writeable = False
        scaling = scale_fit(rng.uniform(-2, 3, (9, 3)), rng.normal(size=9), mode)
        models = [TrainedModel(rng.normal(size=9), X, spec, hawkeye(), 1.0, scaling) for _ in range(2)]
        # 3 queries per block: 8 queries make blocks of 3, 3 and 2, each
        # scaled on its own; the expected rows scale all queries at once
        monkeypatch.setattr(helssvr.kernels, "BLOCK_BYTES", 3 * 8 * 9 * 2)
        for Q in (rng.uniform(-1, 1, (8, 3)), rng.uniform(-1, 1, (1, 3))):
            got = predict_cells(models, Q)
            for model, pred in zip(models, got):
                rows = [per_point_row(spec, q, X) for q in scale_features(scaling, Q)]
                want = inverse_target(scaling, np.array([row @ model.alpha for row in rows]))
                assert pred.tobytes() == want.tobytes()

    def test_blocks_match_per_point_rows(self, monkeypatch):
        self.check_blocks_match_per_point_rows(monkeypatch, rbf(0.6), "none")

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_scaled_blocks_match_per_point_rows(self, monkeypatch, mode):
        self.check_blocks_match_per_point_rows(monkeypatch, rbf(0.6), mode)

    def test_wide_data_allocates_about_one_block(self):
        import tracemalloc

        from helssvr.data import ScalingState
        from helssvr.kernels import BLOCK_BYTES

        rng = np.random.default_rng(82)
        n, d, queries = 500, 50, 2000
        X = rng.uniform(-1, 1, (n, d))
        X.flags.writeable = False
        model = TrainedModel(rng.normal(size=n), X, rbf(3.0), hawkeye(), 1.0, ScalingState(mode="none"))
        Q = rng.uniform(-1, 1, (queries, d))
        tracemalloc.start()
        try:
            pred = predict(model, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the raw and the unscaled predictions, the block's (b, n) rows and
        # scratch (within BLOCK_BYTES together) and numpy's buffers for
        # broadcast operands; no copy of the queries (Q.nbytes is larger
        # than the whole bound)
        assert Q.nbytes > 2 * pred.nbytes + 2 * BLOCK_BYTES
        assert peak <= 2 * pred.nbytes + 2 * BLOCK_BYTES

    def test_models_must_share_inputs(self):
        from helssvr.model import predict_cells

        X = np.linspace(0, 1, 8).reshape(-1, 1)
        a, _ = fit(X, X[:, 0], rbf(), hawkeye(), C=10.0, adam=AdamConfig(max_iter=5, seed=0))
        b, _ = fit(X, X[:, 0], rbf(), hawkeye(), C=10.0, adam=AdamConfig(max_iter=5, seed=1))
        with pytest.raises(ValueError, match="share X_train, scaling and kernel"):
            predict_cells([a, b], X)
        with pytest.raises(ValueError, match="at least one model"):
            predict_cells([], X)


class TestPredictRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature(self, bad):
        from helssvr.data import ScalingState

        model = TrainedModel(np.ones(2), np.zeros((2, 2)), rbf(), hawkeye(), 1.0, ScalingState(mode="none"))
        Q = np.zeros((3, 2))
        Q[2, 1] = bad
        with pytest.raises(ValueError, match=f"row 2, column 1 is {bad}$"):
            predict(model, Q)


class TestLoadValidation:
    def saved_doc(self):
        import json

        model, _ = fit(
            np.array([[0.0, 1.0], [1.0, 0.5], [0.5, 0.2]]), np.array([0.1, 0.4, 0.3]), rbf(), hawkeye(),
            C=10.0, adam=AdamConfig(max_iter=5, seed=0),
        )
        return json.loads(model_to_json(model))

    def load(self, tmp_path, doc):
        import json

        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        return load_model(p)

    def test_valid_document_loads(self, tmp_path):
        assert self.load(tmp_path, self.saved_doc()).alpha.shape == (3,)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["alpha"].__setitem__(1, float("nan")), "'alpha' contains non-finite"),
            (lambda d: d.__setitem__("alpha", [d["alpha"]]), "'alpha' must be 1-dimensional"),
            (lambda d: d["x_train"][0].__setitem__(0, float("inf")), "'x_train' contains non-finite"),
            (lambda d: d.__setitem__("x_train", d["x_train"][0]), "'x_train' must be 2-dimensional"),
            (lambda d: d["x_train"].pop(), "3 coefficients for 2 rows of 'x_train'"),
            (lambda d: d["scaling"]["feature_a"].pop(), "'scaling.feature_a' has 1 entries for 2"),
            (lambda d: d["scaling"]["feature_b"].__setitem__(0, float("nan")),
             "'scaling.feature_b' contains non-finite"),
        ],
        ids=["alpha-nan", "alpha-2d", "x_train-inf", "x_train-1d", "length-mismatch",
             "feature_a-length", "feature_b-nan"],
    )
    def test_bad_field_named(self, tmp_path, edit, message):
        doc = self.saved_doc()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            self.load(tmp_path, doc)


    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda d: [d], "model document must be a JSON object, got list"),
            (lambda d: {k: v for k, v in d.items() if k != "loss"}, "model field 'loss' is missing"),
            (lambda d: {**d, "loss": {**d["loss"], "bogus": 1.0}}, "model field 'loss' has unknown parameter 'bogus'"),
        ],
        ids=["list", "missing-loss", "unknown-loss-parameter"],
    )
    def test_malformed_document_named(self, tmp_path, make, message):
        with pytest.raises(ValueError, match=message):
            self.load(tmp_path, make(self.saved_doc()))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("kernel", "sigma", "abc"),
            ("scaling", "target_a", "x"),
            ("scaling", "target_b", None),
            ("loss", "epsilon", "abc"),
            (None, "C", "10.0"),
            (None, "C", True),
        ],
        ids=["sigma-text", "target_a-text", "target_b-null", "epsilon-text", "C-text", "C-bool"],
    )
    def test_non_numeric_scalar_named(self, tmp_path, section, key, value):
        doc = self.saved_doc()
        (doc if section is None else doc[section])[key] = value
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=rf"model field '{path}' must be a finite number"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["alpha"].__setitem__(1, "0.04"), "'alpha' must hold only numbers, got '0.04'"),
            (lambda d: d["alpha"].__setitem__(0, True), "'alpha' must hold only numbers, got True"),
            (lambda d: d["x_train"][1].__setitem__(0, False), "'x_train' must hold only numbers, got False"),
            (lambda d: d["x_train"][2].__setitem__(1, "1"), "'x_train' must hold only numbers, got '1'"),
            (lambda d: d["scaling"]["feature_a"].__setitem__(0, "0"),
             "'scaling.feature_a' must hold only numbers, got '0'"),
        ],
        ids=["alpha-text", "alpha-bool", "x_train-bool", "x_train-text", "feature_a-text"],
    )
    def test_non_numeric_array_entry_named(self, tmp_path, edit, message):
        doc = self.saved_doc()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            self.load(tmp_path, doc)

    def test_ragged_array_named(self, tmp_path):
        doc = self.saved_doc()
        doc["x_train"][0].pop()
        with pytest.raises(ValueError, match="model field 'x_train' is not a numeric array"):
            self.load(tmp_path, doc)

    def test_integer_entries_load(self, tmp_path):
        doc = self.saved_doc()
        doc["x_train"][0] = [0, 1]
        assert self.load(tmp_path, doc).X_train[0].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"mode": "bogus"}, r"'scaling.mode' must be one of \('none', 'minmax', 'zscore'\), got 'bogus'"),
            ({"feature_b": None}, "'scaling.feature_b' must be 1-dimensional"),
            ({"mode": "none"}, "'scaling.feature_a' must be null for scaling mode 'none'"),
        ],
        ids=["unknown-mode", "minmax-without-feature_b", "none-with-vectors"],
    )
    def test_scaling_mode_checked(self, tmp_path, edit, message):
        doc = self.saved_doc()
        assert doc["scaling"]["mode"] == "minmax"
        doc["scaling"].update(edit)
        with pytest.raises(ValueError, match=message):
            self.load(tmp_path, doc)


class TestExports:
    @pytest.mark.parametrize("module", ["helssvr", "helssvr.model"])
    def test_every_exported_name_resolves(self, module):
        import importlib

        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == []

    def test_test_oracles_are_not_exported(self):
        # the gradient oracle and the loss trait matrix serve only the
        # tests, which hold them
        import helssvr
        from helssvr import losses, optimizer

        assert {"objective_gradient", "characteristics", "LossCharacteristics"}.isdisjoint(helssvr.__all__)
        assert not hasattr(optimizer, "objective_gradient")
        assert not hasattr(losses, "characteristics") and not hasattr(losses, "LossCharacteristics")


class TestTrainedModelImmutable:
    def check_immutable(self, model):
        from dataclasses import FrozenInstanceError

        with pytest.raises(ValueError, match="read-only"):
            model.X_train[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            model.alpha[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            model.scaling.feature_a[0] = 5.0
        with pytest.raises(FrozenInstanceError):
            model.C = 5.0

    def test_fitted_models_cannot_change_each_other(self):
        from helssvr.model import fit_cells

        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (12, 1))
        y = np.sin(3 * X[:, 0])
        cells = [(0, hawkeye(), C, 0.01) for C in (10.0, 20.0)]
        (m1, _), (m2, _) = fit_cells([(X, y)], rbf(0.5), cells, AdamConfig(max_iter=30))
        assert m1.X_train is m2.X_train  # the scaled inputs are shared
        before = predict(m2, X)
        self.check_immutable(m1)
        assert np.array_equal(predict(m2, X), before)

    def test_loaded_model_is_immutable(self):
        X = np.linspace(0, 1, 6).reshape(-1, 1)
        model, _ = fit(X, X[:, 0] ** 2, rbf(), hawkeye(), C=10.0, adam=AdamConfig(max_iter=20, seed=0))
        self.check_immutable(model_from_json(model_to_json(model)))


class TestAveragedFit:
    def test_report_describes_returned_coefficients(self):
        from helssvr.data import scale_target
        from helssvr.optimizer import START, objective_value

        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (25, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=25)
        adam = AdamConfig(max_iter=120, seed=2, collect_trace=True)
        model, report = fit(X, y, rbf(0.5), hawkeye(), C=100.0, adam=adam)
        # the returned coefficients are the averaged iterate; the report's
        # final objective and the trace's last entry are H of them, and the
        # first entry is H of the initial coefficients
        gram = gram_matrix(rbf(0.5), model.X_train)
        ys = scale_target(model.scaling, y)
        h = objective_value(model.alpha, gram, ys, 100.0, hawkeye())
        assert report.state.t == 120 and len(report.state.trace) == 121
        assert report.final_objective == report.state.trace[-1] == h
        assert report.state.trace[0] == objective_value(np.full(25, START), gram, ys, 100.0, hawkeye())


class TestFloat32Gram:
    """A training set two of whose float64 Grams exceed STACK_GRAM_BYTES, so
    that its Gram would train in a stack of its own, trains on a factor of
    its Gram, or on a float32 Gram where the factor's rank reaches n/4,
    sharing stacks with the Grams of that form of other sets of its size;
    every smaller one keeps a float64 Gram."""

    @staticmethod
    def gram_forms(monkeypatch, n, sigma=0.5):
        # the Gram form of each train_adam call that trains two sets of n rows
        import helssvr.model
        from helssvr.kernels import GramFactors

        seen, train = [], helssvr.model.train_adam

        def spy(gram, *args, **kwargs):
            if isinstance(gram, GramFactors):
                seen.append([("factor", factor.Lt.shape) for factor in gram])
            else:
                seen.append((gram.values.dtype, len(gram.values)))
            return train(gram, *args, **kwargs)

        monkeypatch.setattr(helssvr.model, "train_adam", spy)
        X = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        sets = [(X, np.sin(3 * X[:, 0])), (X, np.cos(3 * X[:, 0]))]
        fit_cells(sets, rbf(sigma), [(j, hawkeye(), 1.0, 0.01) for j in (0, 1)], AdamConfig(max_iter=1))
        monkeypatch.setattr(helssvr.model, "train_adam", train)
        return seen

    def test_three_paths_at_the_257_row_gate(self, monkeypatch):
        from helssvr.model import STACK_GRAM_BYTES

        assert 2 * 8 * 256**2 <= STACK_GRAM_BYTES < 2 * 8 * 257**2
        # the two float64 Grams share a stack
        assert self.gram_forms(monkeypatch, 256) == [(np.float64, 2)]
        # a wide kernel on 1-D data: rank 13, far below 257 / 4, and the
        # two factors share a stack
        assert self.gram_forms(monkeypatch, 257) == [[("factor", (13, 257))] * 2]
        # a narrow one: the rank reaches 257 / 4, and the two sets share a
        # stack of float32 Grams, whose 4 n^2 bytes fit the budget
        assert 2 * 4 * 257**2 <= STACK_GRAM_BYTES
        assert self.gram_forms(monkeypatch, 257, sigma=0.005) == [(np.float32, 2)]

    def test_factor_gate_is_the_one_set_per_stack_rule(self, monkeypatch):
        # a set tries the factor exactly where _fold_stacks gives its
        # float64 Gram a stack of its own, so that no size trains alone on
        # a dense Gram without trying the factor first
        import helssvr.model
        from helssvr.model import _fold_stacks

        tried = []
        monkeypatch.setattr(helssvr.model, "gram_factor", lambda spec, X: tried.append(len(X)))
        sizes = range(200, 401)
        for n in sizes:
            X = np.linspace(0.0, 1.0, n).reshape(-1, 1)
            fit(X, X[:, 0], rbf(), hawkeye(), C=1.0, adam=AdamConfig(max_iter=1))
        float64 = np.dtype(np.float64)
        assert tried == [n for n in sizes if _fold_stacks([(n, float64)] * 2, [8 * n * n] * 2) == [[0], [1]]]
        assert tried[0] == 257

    def test_predictions_match_a_float64_reference(self):
        # the same 400-row fit trained on a float64 Gram (gram_matrix +
        # train_adam) and expanded over every training row.  Stated
        # tolerance: 1e-6 of the target range.  Over 300 mini-batch steps
        # with sigma 0.5 (functions 1 and 4, seeds 1-2, C from 1 to 1e4)
        # the factor-trained pivot model's largest difference measured was
        # 3.8e-13.  Wider kernels and longer full-batch runs move further:
        # they are worse conditioned, and Adam carries the factor's error
        # in K alpha forward as it carries any perturbation of the Gram.
        from helssvr.data import scale_features, scale_target
        from helssvr.optimizer import train_adam

        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=500, seed=2))
        X, y = ds.X[:400], ds.y[:400]
        loss, adam = hawkeye(0.05, 3.0, 1.0), AdamConfig(max_iter=300, batch_size=32, seed=3)
        model, _ = fit(X, y, rbf(0.5), loss, C=100.0, adam=adam, scaling="zscore")
        Xs = scale_features(model.scaling, X)
        want = train_adam(gram_matrix(rbf(0.5), Xs), scale_target(model.scaling, y), 100.0, loss, adam)
        got, ref = predict(model, ds.X[400:]), predict(replace(model, X_train=Xs, alpha=want.alpha), ds.X[400:])
        assert not np.array_equal(got, ref)
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.ptp(y)

    def test_report_allocates_less_than_its_gram(self):
        # the float32 Gram is never upcast: upcasting it would allocate
        # twice its bytes for each objective and each product
        import tracemalloc

        from helssvr.kernels import gram_buffer
        from helssvr.optimizer import train_adam

        n = 400
        X = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        y = np.sin(3 * X[:, 0])
        gram = gram_matrix(rbf(0.5), X, out=gram_buffer(1, n, np.float32)[0])
        traced = AdamConfig(max_iter=3, batch_size=n, collect_trace=True)
        runs = {
            "objective": lambda: objective_value(np.full(n, 0.01), gram, y, 100.0, hawkeye()),
            "full batch": lambda: train_adam(gram, y, 100.0, hawkeye(), traced),
            "mini-batch": lambda: train_adam(gram, y, 100.0, hawkeye(), replace(traced, batch_size=8)),
        }
        for name, run in runs.items():
            run()  # first calls set up numpy's and the library's lazy state
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < gram.values.nbytes, name


class TestPivotModel:
    """A factor-trained model is its kernel expansion over the factor's
    pivot rows, with beta = L_PP^-T (L^T alpha)."""

    @staticmethod
    def factor_fit(function, n, sigma, C, batch_size):
        from helssvr.data import scale_features

        ds, _ = generate_synthetic(SyntheticSpec(function, "gaussian", n_samples=n, seed=3101))
        adam = AdamConfig(max_iter=300, batch_size=batch_size, seed=0)
        model, report = fit(ds.X, ds.y, rbf(sigma), hawkeye(0.05, 3.0, 1.0), C=C, adam=adam, scaling="zscore")
        return ds, model, report, scale_features(model.scaling, ds.X)

    @pytest.mark.parametrize(
        "function, n, sigma, C, batch_size",
        [(4, 2000, 0.3, 100.0, 2000), (1, 400, 0.5, 1e4, 32), (2, 400, 2.0, 1e4, 400)],
    )
    def test_expansion_over_the_pivot_rows(self, function, n, sigma, C, batch_size):
        # at the training rows it gives the fitted values L (L^T alpha)
        # that training minimized, and elsewhere it stays close to the
        # expansion over every training row: inside the data's range, and
        # up to one range beyond it, where beta's error is carried further
        from helssvr.data import inverse_target
        from helssvr.kernels import gram_factor

        ds, model, report, Xs = self.factor_fit(function, n, sigma, C, batch_size)
        factor = gram_factor(rbf(sigma), Xs)
        rank = len(factor.pivots)
        assert 0 < rank < n and model.X_train.shape == (rank, 1)
        assert model.X_train.tobytes() == Xs[factor.pivots].tobytes()
        assert report.state.alpha.shape == (n,)
        span = np.ptp(ds.y)
        fitted = inverse_target(model.scaling, factor.Lt.T @ (factor.Lt @ report.state.alpha))
        assert np.abs(predict(model, ds.X) - fitted).max() <= 1e-12 * span
        full = replace(model, X_train=Xs, alpha=report.state.alpha)
        lo, hi = ds.X.min(), ds.X.max()
        inside = np.random.default_rng(1).uniform(lo, hi, (2000, 1))
        assert np.abs(predict(model, inside) - predict(full, inside)).max() <= 1e-10 * span
        beyond = np.linspace(2 * lo - hi, 2 * hi - lo, 2001).reshape(-1, 1)
        assert np.abs(predict(model, beyond) - predict(full, beyond)).max() <= 1e-6 * span


class TestGoldenModelFile:
    """A standalone fit's model file, pinned by its SHA-256.

    Re-recorded once, on purpose, when the trainer began to return the
    averaged iterate instead of the last one; the format did not change.
    A standalone fit is one row on one set, which keeps the GEMV rather
    than the stacked trainer's GEMMs, so no other change of the stack
    layout may move its file.
    """

    @pytest.mark.parametrize(
        "batch_size, digest",
        [
            (8, "71aff4c9fcc8a139cd2baaa281cfe81cdf9de14711212e6a445c14a9c195da12"),
            (1000, "dd4b673ee59254342a4b1d90856ab70490477b847d3168fa7854f66e8570401b"),
        ],
    )
    def test_standalone_fit_model_file(self, batch_size, digest):
        import hashlib

        ds, _ = generate_synthetic(SyntheticSpec(2, "gaussian", n_samples=30, seed=9))
        adam = AdamConfig(max_iter=300, batch_size=batch_size, seed=3)
        model, _ = fit(ds.X, ds.y, rbf(0.5), hawkeye(0.05, 3.0, 1.0), C=100.0, adam=adam, scaling="zscore")
        assert hashlib.sha256(model_to_json(model).encode()).hexdigest() == digest

    @staticmethod
    def large_fit_digest(batch_size, sigma):
        import hashlib

        ds, _ = generate_synthetic(SyntheticSpec(2, "gaussian", n_samples=400, seed=9))
        adam = AdamConfig(max_iter=300, batch_size=batch_size, seed=3)
        model, _ = fit(ds.X, ds.y, rbf(sigma), hawkeye(0.05, 3.0, 1.0), C=100.0, adam=adam, scaling="zscore")
        return hashlib.sha256(model_to_json(model).encode()).hexdigest()

    @pytest.mark.parametrize(
        "batch_size, digest",
        [
            (32, "b28fd1b4e3d7287c8b750d8d6f665fc730302db3be342e1b7039af6a748dee27"),
            (1000, "e06dc4fb966410ede5f4e5b680665d88fbc72c8eef65797b3bfb8c4e6f299182"),
        ],
    )
    def test_factor_fit_model_file(self, batch_size, digest):
        # 400 rows, above the gate, sigma 0.5: a rank-29 factor; pins its
        # GEMV pairs at mini-batch and full batch, and the file's expansion
        # over the 29 pivot rows.  Re-recorded on purpose when such fits
        # moved from a float32 Gram to the factor, and again when their
        # models moved to the pivot rows (the training bits did not move)
        assert self.large_fit_digest(batch_size, 0.5) == digest

    @pytest.mark.parametrize(
        "batch_size, digest",
        [
            (32, "6565aed726b9f7f3918a84ab5dd401f6763f7bb1dd4200dbb96276b1904d9306"),
            (1000, "8f62019b55d065e60166f9520be3778bf93df93cb83e0ea074ce229f40b8d1e0"),
        ],
    )
    def test_float32_fallback_fit_model_file(self, batch_size, digest):
        # sigma 0.05: the factor's rank reaches 400 / 4 (its full rank is
        # 230), and the set trains on a float32 Gram, sgemv where the
        # digests above pin dgemv; recorded before the factor existed, so
        # they show the fallback is that float32 path bit for bit; like
        # them, they hold for one BLAS build
        assert self.large_fit_digest(batch_size, 0.05) == digest
