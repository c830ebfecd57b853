from dataclasses import replace

import numpy as np
import pytest

from helssvr.data import SyntheticSpec, generate_synthetic
from helssvr.kernels import KernelSpec, gram_matrix, kernel_row
from helssvr.losses import LossSpec, loss_value
from helssvr.model import (
    TrainedModel,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    objective_value,
    predict,
    save_model,
)
from helssvr.optimizer import AdamConfig
from test_kernels import per_point_row
from test_optimizer import BAD_RATE_OR_SEED


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
    assert report.initial_objective == alone_report.initial_objective
    assert report.iterations == alone_report.iterations
    assert report.stop_reason == alone_report.stop_reason


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
        before = abs(2.0 - 0.01)  # prediction at alpha0 is alpha0 * K(x1,x1)
        after = abs(2.0 - predict(model, X)[0])
        assert after < before
        assert after < 1e-2

    def test_zero_targets_zero_init_stay_at_optimum(self):
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        y = np.zeros(5)
        cfg = AdamConfig(max_iter=50, alpha0=0.0, m0=0.0, v0=0.0, seed=0)
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
                adam=AdamConfig(max_iter=300, seed=trial),
            )
            assert report.final_objective <= report.initial_objective

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
        with pytest.raises(ValueError):
            fit(np.zeros((2, 1)), np.zeros(2), rbf(), hawkeye(), C=0.0)

    def test_least_squares_swap_gradient_checks(self):
        # the identical pipeline with the quadratic loss trains a kernel
        # ridge style fit whose full-batch gradient agrees with finite
        # differences (sanity anchor for the loss-swap contract)
        from helssvr.optimizer import objective_gradient

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


    def test_stop_reason_names_how_training_ended(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (20, 1))
        y = np.sin(3 * X[:, 0])
        _, full = fit(X, y, rbf(), hawkeye(), C=10.0, adam=AdamConfig(max_iter=30, seed=0))
        assert (full.stop_reason, full.iterations) == ("max_iter", 30)
        stop = AdamConfig(max_iter=500, seed=0, early_stop=True, early_stop_tol=1e-2, early_stop_patience=3)
        _, early = fit(X, y, rbf(), hawkeye(), C=10.0, adam=stop)
        assert early.stop_reason == "early_stop" and early.iterations < 500


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

    def test_zero_alpha_predicts_inverse_scaled_zero(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.uniform(5.0, 6.0, 10)
        cfg = AdamConfig(max_iter=1, alpha0=0.0, m0=0.0, v0=0.0, gamma=1e-30, seed=0)
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
        # one call per loss kind and Adam settings; the cells of a call
        # differ in gamma and seed, and one row per stack exercises the
        # chunking as well
        import helssvr.model
        from helssvr.model import fit_cells

        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (21, 2))
        y = np.cos(2 * X[:, 0]) + 0.1 * rng.normal(size=21)
        calls = [
            (AdamConfig(max_iter=60), [(hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2, 1), (hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3, 2)]),
            (AdamConfig(max_iter=60), [(LossSpec("least_squares"), 1.0, 1e-2, 3)]),
            (AdamConfig(max_iter=40, batch_size=5), [(hawkeye(0.05, 2.0, 0.5), 10.0, 1e-2, 4)]),
            (None, [(hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2, 0)]),
        ]
        # one row per stack is the layout of a standalone fit, bit for bit;
        # rows that share the set's Gram products stay within tolerance
        for rows in (1, 32):
            monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
            for adam, cells in calls:
                fitted = fit_cells([(X, y)], rbf(0.8), [(0, *cell) for cell in cells], adam, scaling="zscore")
                for (loss, C, gamma, seed), (model, report) in zip(cells, fitted):
                    alone_adam = cell_adam(adam, gamma, seed)
                    alone, alone_report = fit(X, y, rbf(0.8), loss, C=C, adam=alone_adam, scaling="zscore")
                    assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)
                    assert model.loss == loss

    def test_every_C_validated(self):
        from helssvr.model import fit_cells

        cells = [(0, hawkeye(), 1.0, 0.01, 0), (0, hawkeye(), 0.0, 0.01, 0)]
        with pytest.raises(ValueError, match="C must be > 0"):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), cells)

    def test_mixed_loss_kinds_raise_before_any_gram(self, monkeypatch):
        import helssvr.model
        from helssvr.model import fit_cells

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(helssvr.model, "gram_matrix", no_gram)
        cells = [(0, hawkeye(), 1.0, 0.01, 0), (0, LossSpec("least_squares"), 1.0, 0.01, 0)]
        with pytest.raises(ValueError, match=r"one loss kind per call, got \['hawkeye', 'least_squares'\]"):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), cells)

    @pytest.mark.parametrize("gamma, seed, message", BAD_RATE_OR_SEED)
    def test_every_rate_and_seed_validated_before_any_gram(self, monkeypatch, gamma, seed, message):
        import re

        import helssvr.model
        from helssvr.model import fit_cells

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(helssvr.model, "gram_matrix", no_gram)
        cells = [(0, hawkeye(), 1.0, 0.01, 0), (0, hawkeye(), 1.0, gamma, seed)]
        with pytest.raises(ValueError, match=re.escape(f"{message}: cell 1")):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), cells)


class TestFoldStacks:
    """Which training sets share an optimizer stack, decided without training."""

    def test_budget_stacks_small_folds_and_splits_large_ones(self):
        from helssvr.model import STACK_GRAM_BYTES, _fold_stacks

        assert 5 * 8 * 160**2 <= STACK_GRAM_BYTES < 2 * 8 * 320**2
        assert _fold_stacks([160] * 5) == [[0, 1, 2, 3, 4]]
        assert _fold_stacks([320] * 5) == [[0], [1], [2], [3], [4]]
        assert _fold_stacks([2000]) == [[0]]

    def test_unequal_sizes_never_share(self):
        from helssvr.model import _fold_stacks

        assert _fold_stacks([20, 21, 21, 20]) == [[0, 3], [1, 2]]

    def test_stack_rows_caps_the_sets(self, monkeypatch):
        import helssvr.model
        from helssvr.model import _fold_stacks

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 2)
        assert _fold_stacks([160] * 5) == [[0, 1], [2, 3], [4]]

    def test_gram_budget_caps_the_sets(self, monkeypatch):
        import helssvr.kernels
        from helssvr.kernels import gram_buffer_bytes
        from helssvr.model import _fold_stacks

        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", gram_buffer_bytes(2, 160))
        assert _fold_stacks([160] * 5) == [[0, 1], [2, 3], [4]]
        # a budget below one Gram still gives each set a stack, whose
        # buffer then raises
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", gram_buffer_bytes(1, 160) - 1)
        assert _fold_stacks([160] * 5) == [[0], [1], [2], [3], [4]]


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
        stop = dict(early_stop=True, early_stop_tol=3e-1, early_stop_patience=3)
        # one call per loss kind and Adam settings: (settings, the cells of
        # every set as (c, loss, C, gamma)), each cell seeded 10 j + c
        per_set = [
            (AdamConfig(max_iter=60, **stop), [(0, hawkeye(0.05, 1.0, 1.0), 10.0, 1e-2), (1, hawkeye(0.1, 3.0, 1.0), 100.0, 1e-3)]),
            (AdamConfig(max_iter=60), [(2, LossSpec("least_squares"), 1.0, 1e-2)]),
            (AdamConfig(max_iter=40, batch_size=5), [(3, hawkeye(0.05, 2.0, 0.5), 10.0, 1e-2)]),
        ]
        calls = [
            (adam, [(j, loss, C, gamma, 10 * j + c) for j in range(len(sets)) for c, loss, C, gamma in cells])
            for adam, cells in per_set
        ]
        calls.append((None, [(2, hawkeye(), 10.0, 0.01, 0)]))  # set 2 holds one cell more
        steps = set()
        for adam, cells in calls:
            fitted = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore")
            for (j, loss, C, gamma, seed), (model, report) in zip(cells, fitted):
                alone_adam = cell_adam(adam, gamma, seed)
                alone, alone_report = fit(*sets[j], rbf(0.8), loss, C=C, adam=alone_adam, scaling="zscore")
                assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)
                assert model.X_train.tobytes() == alone.X_train.tobytes()
                steps.add(report.iterations)
        assert len(steps) > 3  # early stops at several steps

    @pytest.mark.parametrize("rows", [1, 2, 32])
    def test_set_with_one_cell_more_matches_standalone_fits(self, monkeypatch, rows):
        # set 2 holds three cells, the others two: a stack still takes the
        # same number of cells from each set while they last
        import helssvr.model
        from helssvr.model import fit_cells

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", rows)
        sets = self.sets()
        adam = AdamConfig(max_iter=40, batch_size=5)
        cells = [(j, hawkeye(0.05, a, 1.0), 10.0, 1e-2, 10 * j + c) for j in range(4) for c, a in enumerate((1.0, 3.0))]
        cells.append((2, hawkeye(), 100.0, 1e-3, 99))
        for (j, loss, C, gamma, seed), (model, report) in zip(cells, fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore")):
            alone, alone_report = fit(*sets[j], rbf(0.8), loss, C=C, adam=cell_adam(adam, gamma, seed), scaling="zscore")
            assert_matches_fit(model, report, alone, alone_report, exact=rows == 1)

    @pytest.mark.parametrize("batch_size", [5, 1000])
    def test_resumed_cells_match_one_call(self, batch_size):
        # each cell's FitReport.state resumes it, bit for bit, in the same
        # stack layout; cells that stopped early before the resume keep
        # their results
        from helssvr.model import fit_cells

        sets = self.sets()
        adam = AdamConfig(max_iter=60, batch_size=batch_size, early_stop=True, early_stop_tol=3e-1, early_stop_patience=3)
        cells = [
            (j, hawkeye(0.05, a, 1.0), C, adam.gamma, 10 * j + c)
            for j in range(len(sets))
            for c, (a, C) in enumerate([(1.0, 10.0), (3.0, 100.0), (2.0, 1.0)])
        ]
        whole = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore")
        part = fit_cells(sets, rbf(0.8), cells, replace(adam, max_iter=17), scaling="zscore")
        resumed = fit_cells(sets, rbf(0.8), cells, adam, scaling="zscore", resume=[r.state for _, r in part])
        for (model, report), (want, want_report) in zip(resumed, whole):
            assert model.alpha.tobytes() == want.alpha.tobytes()
            assert report.final_objective == want_report.final_objective
            assert (report.iterations, report.stop_reason) == (want_report.iterations, want_report.stop_reason)
        steps = sorted(r.iterations for _, r in whole)
        assert steps[0] < 17 and any(17 < t < 60 for t in steps) and steps[-1] == 60
        with pytest.raises(ValueError, match="2 resume states for 12 cells"):
            fit_cells(sets, rbf(0.8), cells, adam, resume=[None, None])

    def test_models_of_one_set_share_inputs(self):
        from helssvr.model import fit_cells

        cells = [(j, hawkeye(), 10.0, 0.01, s) for j in (0, 1) for s in (1, 2)]
        models = [m for m, _ in fit_cells(self.sets()[:2], rbf(0.5), cells, AdamConfig(max_iter=10))]
        assert models[0].X_train is models[1].X_train and models[0].scaling is models[1].scaling
        assert models[1].X_train is not models[2].X_train

    def test_set_index_checked(self):
        from helssvr.model import fit_cells

        with pytest.raises(ValueError, match=r"set indices must lie in \[0, 1\)"):
            fit_cells([(np.eye(3), np.ones(3))], rbf(), [(1, hawkeye(), 1.0, 0.01, 0)])


class TestPredictCells:
    def test_matches_predict_of_each_model(self):
        from helssvr.model import fit_cells, predict_cells

        rng = np.random.default_rng(80)
        X = rng.uniform(-1, 1, (30, 2))
        y = np.sin(2 * X[:, 0])
        cells = [(0, hawkeye(0.05, a, 1.0), C, 0.01, 1) for a in (1.0, 3.0) for C in (1.0, 100.0)]
        models = [m for m, _ in fit_cells([(X, y)], rbf(0.6), cells, AdamConfig(max_iter=40), scaling="zscore")]
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
        monkeypatch.setattr(helssvr.kernels, "BLOCK_BYTES", 3 * 8 * 9 * 3)
        for Q in (rng.uniform(-1, 1, (8, 3)), rng.uniform(-1, 1, (1, 3))):
            got = predict_cells(models, Q)
            for model, pred in zip(models, got):
                rows = [per_point_row(spec, q, X) for q in scale_features(scaling, Q)]
                want = inverse_target(scaling, np.array([row @ model.alpha for row in rows]))
                assert pred.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [rbf(0.6), KernelSpec("linear")], ids=lambda s: s.kind)
    def test_blocks_match_per_point_rows(self, monkeypatch, spec):
        self.check_blocks_match_per_point_rows(monkeypatch, spec, "none")

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    @pytest.mark.parametrize("spec", [rbf(0.6), KernelSpec("linear")], ids=lambda s: s.kind)
    def test_scaled_blocks_match_per_point_rows(self, monkeypatch, spec, mode):
        self.check_blocks_match_per_point_rows(monkeypatch, spec, mode)

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
        # the raw and the unscaled predictions, and the block's (b, n, d)
        # differences and (b, n) rows; no copy of the queries (Q.nbytes is
        # larger than the whole bound)
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
        with pytest.raises(ValueError, match="row 2, column 1"):
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
        cells = [(0, hawkeye(), 10.0, 0.01, s) for s in (1, 2)]
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
        from helssvr.optimizer import objective_value

        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (25, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=25)
        adam = AdamConfig(max_iter=120, seed=2, collect_trace=True)
        model, report = fit(X, y, rbf(0.5), hawkeye(), C=100.0, adam=adam)
        # the returned coefficients are the averaged iterate; the report's
        # final objective and the trace's last entry are H of them, and the
        # first entry is H of the initial coefficients
        gram = gram_matrix(rbf(0.5), model.X_train)
        h = objective_value(model.alpha, gram, scale_target(model.scaling, y), 100.0, hawkeye())
        assert report.iterations == 120 and len(report.trace) == 121
        assert report.final_objective == report.trace[-1] == h
        assert report.initial_objective == report.trace[0]

    def test_early_stopped_fit_keeps_the_iterates_objective(self):
        # the run stops after 63 steps, inside the average's 100-step
        # window; the bias-corrected average is a mean of trained iterates,
        # so its objective ends near theirs (1.1% of the descent from the
        # initial objective here), where an average started at alpha0
        # would keep half its weight on the initial coefficients
        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=30, seed=0))
        adam = AdamConfig(
            max_iter=5000, seed=0, collect_trace=True,
            early_stop=True, early_stop_tol=1e-3, early_stop_patience=5,
        )
        _, report = fit(ds.X, ds.y, rbf(0.5), hawkeye(), C=1.0, adam=adam, scaling="zscore")
        assert report.iterations < 100
        # trace[-2] is the iterate before the last, within early_stop_tol
        # of the last one's objective
        h0, last = report.initial_objective, report.trace[-2]
        assert report.final_objective - last <= 0.05 * (h0 - last)


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
