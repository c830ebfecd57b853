import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helssvr.data import Dataset, SyntheticSpec, generate_synthetic
from helssvr.evaluation import (
    NEMENYI_Q_ALPHA_05,
    GridSpec,
    ModelRecipe,
    compute_metrics,
    friedman_chi2,
    grid_search_cv,
    iman_davenport_F,
    nemenyi_cd,
    rank_models,
    recipe_from_name,
)
from helssvr.losses import LOSS_KINDS, required_params
from helssvr.optimizer import AdamConfig

# Published four-model RMSE comparison over 18 regression datasets used as
# a frozen regression oracle for the ranking conventions (NaN: the first
# model ran out of memory on that dataset).
RMSE_TABLE = np.array(
    [
        [0.2604, 0.3564, 0.2547, 0.2418],
        [0.0332, 0.3907, 0.0379, 0.0379],
        [0.4892, 0.7157, 0.4870, 0.4870],
        [0.5783, 0.5798, 0.5709, 0.5644],
        [0.1014, 0.6715, 0.0978, 0.0812],
        [0.6790, 0.6224, 0.5708, 0.5348],
        [0.0426, 0.4943, 0.0493, 0.0424],
        [0.0506, 1.1625, 0.0567, 0.0370],
        [0.0329, 0.3924, 0.0382, 0.0382],
        [0.0308, 0.2741, 0.0329, 0.0251],
        [0.2286, 0.2967, 0.2268, 0.0864],
        [0.3653, 0.5070, 0.3637, 0.1881],
        [0.1487, 0.4088, 0.1183, 0.1183],
        [1.0056, 1.1753, 0.5702, 0.5998],
        [np.nan, 2.1630, 1.4336, 1.1251],
        [0.1524, 0.1587, 0.1195, 0.1365],
        [0.0349, 0.4306, 0.0449, 0.0385],
        [1.0588, 1.1328, 0.8054, 0.5421],
    ]
)

EXPECTED_RANKS = np.array(
    [
        [3, 4, 2, 1],
        [1, 4, 2, 2],
        [3, 4, 1, 1],
        [3, 4, 2, 1],
        [3, 4, 2, 1],
        [4, 3, 2, 1],
        [2, 4, 3, 1],
        [2, 4, 3, 1],
        [1, 4, 2, 2],
        [2, 4, 3, 1],
        [3, 4, 2, 1],
        [3, 4, 2, 1],
        [3, 4, 1, 1],
        [3, 4, 1, 2],
        [np.nan, 3, 2, 1],
        [3, 4, 1, 2],
        [1, 4, 3, 2],
        [3, 4, 2, 1],
    ]
)


class TestComputeMetrics:
    def test_perfect_fit(self):
        rep = compute_metrics([1.0, 2.0], [1.0, 2.0])
        assert rep.rmse == 0.0
        assert rep.mae == 0.0
        assert rep.error_pos == 0.0  # all residuals are (+)0, group = everything
        assert rep.error_neg is None
        assert (rep.n, rep.n_pos, rep.n_neg) == (2, 2, 0)

    def test_two_point_hand_case(self):
        rep = compute_metrics([0.0, 0.0], [1.0, -1.0])
        assert rep.rmse == 1.0
        assert rep.mae == 1.0
        assert rep.error_pos == 1.0
        assert rep.error_neg == 1.0
        assert (rep.n_pos, rep.n_neg) == (1, 1)

    def test_single_point_hand_case(self):
        rep = compute_metrics([3.0], [1.0])
        assert rep.rmse == 2.0
        assert rep.mae == 2.0
        assert rep.error_pos == 2.0
        assert rep.error_neg is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            compute_metrics([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        f = rng.normal(size=50)
        perm = rng.permutation(50)
        a = compute_metrics(y, f)
        b = compute_metrics(y[perm], f[perm])
        assert a.rmse == pytest.approx(b.rmse, rel=1e-15)
        assert a.mae == pytest.approx(b.mae, rel=1e-15)
        assert a.error_pos == pytest.approx(b.error_pos, rel=1e-15)
        assert a.error_neg == pytest.approx(b.error_neg, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=1, max_value=100))
    def test_mae_at_most_rmse(self, seed, n):
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=10.0, size=n)
        f = rng.normal(scale=10.0, size=n)
        rep = compute_metrics(y, f)
        assert rep.mae <= rep.rmse + 1e-12

    def test_mae_at_most_rmse_bulk(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            n = int(rng.integers(1, 12))
            y = rng.normal(size=n)
            f = rng.normal(size=n)
            rep = compute_metrics(y, f)
            assert rep.mae <= rep.rmse + 1e-12


class TestRankStatistics:
    def test_chi2_published_constants(self):
        chi2 = friedman_chi2([2.5294, 3.8888, 2.0, 1.2777], D=18, p=4)
        assert chi2 == pytest.approx(23.2540, abs=1e-3)

    def test_chi2_no_disagreement(self):
        p = 5
        ranks = [(p + 1) / 2.0] * p
        assert friedman_chi2(ranks, D=10, p=p) == pytest.approx(0.0, abs=1e-12)

    def test_chi2_hand_case(self):
        # p=2, D=1, ranks (1, 2): 12/(2*3) * (5 - 2*9/4) = 1
        assert friedman_chi2([1.0, 2.0], D=1, p=2) == pytest.approx(1.0, rel=1e-12)

    def test_iman_davenport_published(self):
        assert iman_davenport_F(23.2540, D=18, p=4) == pytest.approx(12.8575, abs=1e-3)

    def test_iman_davenport_zero(self):
        assert iman_davenport_F(0.0, D=10, p=4) == 0.0

    def test_iman_davenport_hand_case(self):
        assert iman_davenport_F(27.0, D=10, p=4) == pytest.approx(81.0, rel=1e-12)

    def test_iman_davenport_domain(self):
        with pytest.raises(ValueError):
            iman_davenport_F(30.0, D=10, p=4)

    def test_cd_published(self):
        assert nemenyi_cd(2.569, p=4, D=18) == pytest.approx(1.1055, abs=5e-4)

    def test_cd_scaling_in_datasets(self):
        assert nemenyi_cd(2.569, 4, 72) == pytest.approx(nemenyi_cd(2.569, 4, 18) / 2.0, rel=1e-12)

    def test_cd_hand_case(self):
        assert nemenyi_cd(1.0, p=2, D=1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: friedman_chi2([1.0], D=3), "need at least two models"),
        (lambda: friedman_chi2([1.0, 2.0], D=0), "need at least one dataset"),
        (lambda: nemenyi_cd(0.0, p=2, D=1), "q_alpha must be > 0"),
    ], ids=["one-model", "no-dataset", "zero-q"])
    def test_domain_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_q_table_entry(self):
        assert NEMENYI_Q_ALPHA_05[4] == 2.569

    def test_demsar_2006_worked_example(self):
        # Demsar 2006 (JMLR 7), section 3.2.2: four classifiers on 14 data sets
        ranks, D, p = [3.143, 2.000, 2.893, 1.964], 14, 4
        chi2 = friedman_chi2(ranks, D=D, p=p)
        assert round(chi2, 2) == 9.28
        assert round(iman_davenport_F(chi2, D=D, p=p), 2) == 3.69
        assert round(nemenyi_cd(NEMENYI_Q_ALPHA_05[p], p=p, D=D), 2) == 1.25


class TestRankModels:
    def test_reproduces_published_rank_rows(self):
        analysis = rank_models(RMSE_TABLE)
        got = analysis.rank_matrix
        assert got.shape == EXPECTED_RANKS.shape
        mask = ~np.isnan(EXPECTED_RANKS)
        assert np.array_equal(got[mask], EXPECTED_RANKS[mask])
        assert np.all(np.isnan(got[~mask]))

    def test_reproduces_published_averages(self):
        analysis = rank_models(RMSE_TABLE)
        assert analysis.avg_ranks[0] == pytest.approx(43.0 / 17.0, rel=1e-12)
        assert analysis.avg_ranks == pytest.approx([2.5294, 3.8888, 2.0, 1.2777], abs=1e-4)

    def test_reproduces_published_statistics(self):
        analysis = rank_models(RMSE_TABLE)
        assert analysis.chi2_F == pytest.approx(23.2540, abs=1e-3)
        assert analysis.F_F == pytest.approx(12.8575, abs=1e-3)
        assert analysis.CD == pytest.approx(1.1055, abs=5e-4)
        assert analysis.q_alpha == 2.569
        assert not analysis.complete

    def test_pairwise_verdicts(self):
        analysis = rank_models(RMSE_TABLE)
        # last column is the best model: significantly better than columns
        # 0 and 1, not distinguishable from column 2
        assert analysis.pairwise[3, 0]
        assert analysis.pairwise[3, 1]
        assert not analysis.pairwise[3, 2]

    def test_exact_mode_differs_from_truncated(self):
        exact = rank_models(RMSE_TABLE, rank_decimals=None)
        trunc = rank_models(RMSE_TABLE, rank_decimals=4)
        assert exact.chi2_F == pytest.approx(23.2642, abs=1e-3)
        assert trunc.chi2_F == pytest.approx(23.2540, abs=1e-3)

    def test_truncation_keeps_exact_four_decimal_averages(self):
        # model 0 ranks 3rd on 7 datasets and 2nd on 18: average 57/25 = 2.28,
        # which a floating-point floor of 2.28 * 10**4 would cut to 2.2799
        table = np.array([[3.0, 1.0, 2.0]] * 7 + [[2.0, 1.0, 3.0]] * 18)
        analysis = rank_models(table)
        assert analysis.avg_ranks[0] == 2.28
        assert list(analysis.stat_ranks) == [2.28, 1.0, 2.72]
        assert analysis.chi2_F == friedman_chi2([2.28, 1.0, 2.72], 25, 3)

    def test_truncation_cuts_longer_averages(self):
        # fractional ties: model 0 averages (1.5 + 1 + 1) / 3 = 1.1666...
        table = np.array([[0.1, 0.1, 0.3], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        analysis = rank_models(table, tie="fractional")
        assert list(analysis.stat_ranks) == [1.1666, 1.8333, 3.0]

    def test_single_dataset_distinct_values(self):
        analysis = rank_models(np.array([[0.1, 0.2, 0.3]]))
        assert np.array_equal(analysis.rank_matrix[0], [1, 2, 3])

    def test_identical_columns_share_rank(self):
        # under competition ties both columns rank 1 on every dataset, and
        # the statistic would be -15, which rank_models rejects
        table = np.array([[0.5, 0.5], [0.7, 0.7], [0.2, 0.2]])
        analysis = rank_models(table, tie="fractional")
        assert analysis.avg_ranks[0] == analysis.avg_ranks[1] == 1.5
        assert not analysis.pairwise[0, 1]
        assert analysis.chi2_F == analysis.F_F == 0.0
        with pytest.raises(ValueError, match="Friedman chi-square -15.0000 lies outside"):
            rank_models(table)

    def test_impossible_friedman_statistic_rejected(self):
        # competition ranks of tied models sum to less than p(p+1)/2: the
        # statistic came out at -18.20 and F at -1.34; fractional ranks
        # keep it in [0, D(p-1)]
        table = np.array([[1, 1, 1, 2], [1, 1, 2, 2], [3, 1, 1, 1]], dtype=float)
        with pytest.raises(ValueError, match=r"-18\.2010 lies outside \[0, D\(p-1\)\] = \[0, 9\]") as info:
            rank_models(table)
        assert "rank.tie=fractional" in str(info.value)
        analysis = rank_models(table, tie="fractional")
        assert 0 <= analysis.chi2_F <= 9 and analysis.F_F >= 0

    def test_perfect_agreement_is_the_top_of_the_range(self):
        # every dataset ranks the models alike: chi-square D(p-1), F infinite
        analysis = rank_models(np.tile([0.1, 0.2, 0.3, 0.4], (18, 1)))
        assert analysis.chi2_F == pytest.approx(18 * 3, rel=1e-12) and math.isinf(analysis.F_F)

    def test_competition_tie_convention(self):
        analysis = rank_models(np.array([[0.3, 0.1, 0.1, 0.4]]))
        assert np.array_equal(analysis.rank_matrix[0], [3, 1, 1, 4])

    def test_fractional_tie_convention(self):
        analysis = rank_models(np.array([[0.3, 0.1, 0.1, 0.4]]), tie="fractional")
        assert np.array_equal(analysis.rank_matrix[0], [3, 1.5, 1.5, 4])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        table = rng.uniform(0.1, 2.0, size=(6, 4))
        a = rank_models(table)
        b = rank_models(np.log(table) * 3.0 + 1.0)
        assert np.array_equal(a.rank_matrix, b.rank_matrix)

    def test_absent_entries_divide_by_present_count(self):
        table = np.array([[0.1, 0.2], [np.nan, 0.3], [0.4, 0.5]])
        with pytest.raises(ValueError):
            rank_models(table)  # row with a single present entry

    def test_all_absent_row_rejected(self):
        with pytest.raises(ValueError):
            rank_models(np.array([[np.nan, np.nan], [0.1, 0.2]]))

    def test_all_absent_column_rejected(self):
        with pytest.raises(ValueError, match="model column 0 has no present entries"):
            rank_models(np.array([[np.nan, 0.1, 0.2], [np.nan, 0.2, 0.1]]))

    def test_explicit_q_alpha(self):
        analysis = rank_models(np.array([[1.0, 2.0], [2.0, 1.0]]), q_alpha=3.0)
        assert analysis.q_alpha == 3.0

    def test_unknown_p_needs_explicit_q(self):
        table = np.tile(np.arange(11, dtype=float), (2, 1))
        with pytest.raises(ValueError, match="q_alpha"):
            rank_models(table)

    @pytest.mark.parametrize("table, tie, message", [
        ([0.1, 0.2], "competition", "rank table must be 2-d"),
        ([[0.1], [0.2]], "competition", "need at least two models to rank"),
        ([[0.1, 0.2]], "dense", "tie must be 'competition' or 'fractional', got 'dense'"),
    ], ids=["1-d", "one-model", "unknown-tie"])
    def test_bad_arguments_rejected(self, table, tie, message):
        with pytest.raises(ValueError, match=message):
            rank_models(np.array(table), tie=tie)

    @pytest.mark.parametrize("decimals", [-1, -4])
    def test_negative_decimals_rejected(self, decimals):
        with pytest.raises(ValueError, match="rank_decimals must be >= 0"):
            rank_models(RMSE_TABLE, rank_decimals=decimals)
        assert rank_models(RMSE_TABLE, rank_decimals=0).stat_ranks.tolist() == [
            float(int(r)) for r in rank_models(RMSE_TABLE, rank_decimals=None).avg_ranks
        ]


def toy_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = np.sin(2 * np.pi * x) + 0.05 * rng.normal(size=n)
    return Dataset(X=x.reshape(-1, 1), y=y, name="toy")


# Stated tolerance of a short run (up to 200 Adam steps) between stack
# layouts (README, "Stacked training in the grid search"): fold RMSEs and
# objectives agree to SHORT_RUN_RTOL relative.
SHORT_RUN_RTOL = 1e-10


def fast_adam(**kw):
    base = dict(max_iter=150)
    base.update(kw)
    return AdamConfig(**base)


class TestGridSearch:
    def test_no_finite_cell_raises(self):
        # a learning rate of 1e300 sends every fold's coefficients to
        # infinity in one step; the objective overflows on the way
        ds, _ = generate_synthetic(SyntheticSpec(function_id=1, noise="gaussian", n_samples=40, seed=1))
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.5,), gamma_values=(1e300,), k=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="no grid cell produced a finite fold RMSE"):
                grid_search_cv(ds, grid, recipe_from_name("hawkeye"), adam=fast_adam(max_iter=1))

    def test_last_step_overflow_ranks_its_cell_last(self):
        # two full-batch steps at 1e300: the last residual is finite but the
        # returned coefficients are not, so each fold diverges at step 2
        # and scores NaN, with no objective computed for it
        ds, _ = generate_synthetic(SyntheticSpec(function_id=1, noise="gaussian", n_samples=60, seed=1))
        grid = GridSpec(C_values=(1.0,), sigma_values=(1.0,), gamma_values=(0.01, 1e300), k=3)
        with np.errstate(over="ignore", invalid="ignore"):
            res = grid_search_cv(ds, grid, recipe_from_name("least_squares"),
                                 adam=fast_adam(max_iter=2, batch_size=1000))
        good, bad = res.cells
        assert res.best is good and good.params.gamma == 0.01 and good.diverged is None
        assert math.isfinite(good.stat) and all(map(math.isfinite, good.fold_rmse))
        assert bad.diverged == (0, 2) and math.isnan(bad.stat) and all(map(math.isnan, bad.fold_rmse))

    @pytest.mark.parametrize("selection", ["best_fold", "mean"])
    @pytest.mark.parametrize("nan_fold", [0, 2])
    def test_a_diverged_fold_ranks_its_cell_last(self, monkeypatch, selection, nan_fold):
        # the best cell's fold nan_fold diverges, as the trainer leaves such
        # a fit: step 9 and NaN coefficients; it scores NaN, so the
        # statistic is NaN whichever fold it is, and the other cell wins
        from dataclasses import replace

        import helssvr.evaluation

        ds = toy_dataset(n=45, seed=2)
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.5,), k=3)
        recipe = recipe_from_name("least_squares")
        best = grid_search_cv(ds, grid, recipe, adam=fast_adam(), selection=selection).best.params
        real = helssvr.evaluation.fit_cells

        def diverging(sets, kernel, cells, *args, **kw):
            fitted = real(sets, kernel, cells, *args, **kw)
            for c, ((j, _, C, _), (model, report)) in enumerate(zip(cells, fitted)):
                if j == nan_fold and C == best.C:
                    report.state.diverged = 9
                    fitted[c] = (replace(model, alpha=np.full_like(model.alpha, np.nan)), report)
            return fitted

        monkeypatch.setattr(helssvr.evaluation, "fit_cells", diverging)
        res = grid_search_cv(ds, grid, recipe, adam=fast_adam(), selection=selection)
        (bad,) = [cell for cell in res.cells if cell.params == best]
        assert bad.diverged == (nan_fold, 9) and math.isnan(bad.fold_rmse[nan_fold]) and math.isnan(bad.stat)
        assert res.best.params != best and math.isfinite(res.best.stat)

    def test_single_cell_returns_it(self):
        ds = toy_dataset()
        grid = GridSpec(C_values=(10.0,), sigma_values=(0.5,), k=3)
        recipe = recipe_from_name("least_squares")
        res = grid_search_cv(ds, grid, recipe, seed=0, adam=fast_adam())
        assert res.best_params.C == 10.0
        assert res.best_params.sigma == 0.5
        assert len(res.cells) == 1
        assert res.best.stat == min(res.best.fold_rmse)

    @pytest.mark.parametrize("axis", ["C_values", "sigma_values", "epsilon_values", "lambda_values", "a_values",
                                      "gamma_values"])
    def test_repeated_value_rejected(self, axis):
        # a repeated value would train a second cell with the same
        # parameters; the error names the axis and the first repeat
        with pytest.raises(ValueError, match=rf"^grid {axis} repeats the value 1\.0$"):
            GridSpec(**{"C_values": (3.0,), "sigma_values": (3.0,), axis: (1.0, 10.0, 1, 10.0)})

    def test_better_cell_wins(self):
        # one cell with an absurd kernel width, one with a sensible one:
        # the sensible cell must be selected
        ds = toy_dataset(n=45, seed=2)
        grid = GridSpec(C_values=(100.0,), sigma_values=(1e-6, 0.5), k=3)
        recipe = recipe_from_name("least_squares")
        res = grid_search_cv(ds, grid, recipe, seed=0, adam=fast_adam())
        assert res.best_params.sigma == 0.5

    def test_tie_breaks_to_first_in_ascending_order(self):
        ds = toy_dataset(n=30, seed=3)
        # identical models in every cell: C differs only nominally because
        # the loss band swallows all residuals, so fold RMSEs coincide
        grid = GridSpec(C_values=(1.0, 2.0), sigma_values=(0.5,), epsilon_values=(1e6,), k=3)
        recipe = ModelRecipe("insensitive")
        res = grid_search_cv(ds, grid, recipe, seed=0, adam=fast_adam())
        assert res.cells[0].fold_rmse == res.cells[1].fold_rmse
        assert res.best_params.C == 1.0

    def test_selection_modes(self):
        ds = toy_dataset(n=30, seed=5)
        grid = GridSpec(C_values=(10.0,), sigma_values=(0.5,), k=3)
        recipe = recipe_from_name("least_squares")
        best = grid_search_cv(ds, grid, recipe, seed=1, adam=fast_adam(), selection="best_fold")
        mean = grid_search_cv(ds, grid, recipe, seed=1, adam=fast_adam(), selection="mean")
        assert best.best.stat == min(best.best.fold_rmse)
        assert mean.best.stat == pytest.approx(np.mean(mean.best.fold_rmse), rel=1e-15)
        with pytest.raises(ValueError):
            grid_search_cv(ds, grid, recipe, selection="median")

    def test_recipe_name_validated(self):
        for make in (ModelRecipe, recipe_from_name):
            with pytest.raises(ValueError, match="unknown model recipe 'nope'"):
                make("nope")

    def test_hawkeye_recipe_consumes_loss_axes(self):
        grid = GridSpec(
            C_values=(1.0,),
            sigma_values=(0.5,),
            epsilon_values=(0.01, 0.05),
            lambda_values=(0.5, 1.0),
            a_values=(1.0, 2.0),
        )
        from helssvr.evaluation import _enumerate_cells

        he_cells = _enumerate_cells(grid, recipe_from_name("hawkeye"))
        ls_cells = _enumerate_cells(grid, recipe_from_name("least_squares"))
        assert len(he_cells) == 8
        assert len(ls_cells) == 1

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_recipe_axes_follow_required_params(self, kind):
        from helssvr.evaluation import _enumerate_cells

        grid = GridSpec(
            C_values=(1.0,),
            sigma_values=(0.5,),
            epsilon_values=(0.01, 0.05),
            lambda_values=(0.5, 1.0),
            a_values=(1.0, 2.0),
        )
        recipe = recipe_from_name(kind)
        # theta and t, which no grid axis covers, are 1.0, except theta = 2.0
        # for bounded least squares
        fixed = {
            p: 2.0 if (kind, p) == ("bounded_least_squares", "theta") else 1.0
            for p in required_params(kind)
            if p in ("theta", "t")
        }
        axes = [p for p in ("epsilon", "lam", "a") if p in required_params(kind) and p not in fixed]
        cells = _enumerate_cells(grid, recipe)
        assert len(cells) == 2 ** len(axes)
        for cell in cells:
            assert cell.sigma == 0.5
            for p in ("epsilon", "lam", "a"):
                assert (getattr(cell, p) is not None) == (p in axes)
            loss = recipe.build_loss(cell.epsilon, cell.lam, cell.a)
            assert loss.params() == {**fixed, **{p: getattr(cell, p) for p in axes}}

    @pytest.mark.parametrize("options, message", [
        (dict(epsilon_values=()), "grid epsilon_values must be non-empty"),
        (dict(k=1), "grid k must be an integer >= 2"),
        (dict(k=2.5), "grid k must be an integer >= 2, got 2.5"),
        (dict(k=3.0), "grid k must be an integer >= 2, got 3.0"),
        (dict(k="5"), "grid k must be an integer >= 2, got '5'"),
    ], ids=["empty-axis", "one-fold", "fractional-k", "whole-float-k", "string-k"])
    def test_bad_grid_rejected(self, options, message):
        with pytest.raises(ValueError, match=message):
            GridSpec(**{"C_values": (1.0,), "sigma_values": (0.5,), **options})

    def test_fold_infeasible(self):
        ds = toy_dataset(n=4)
        grid = GridSpec(C_values=(1.0,), sigma_values=(0.5,), k=5)
        with pytest.raises(ValueError):
            grid_search_cv(ds, grid, recipe_from_name("least_squares"), adam=fast_adam())


class TestStackedSearchMatchesStandaloneFits:
    """Each cell's fold results against a standalone fit of that fold, within
    the short-run tolerance: the stack shares a fold's Gram products among
    its rows."""

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_every_cell_matches_its_standalone_fit(self, monkeypatch, batch_size):
        import helssvr.model
        from dataclasses import replace

        from helssvr.model import fit, predict
        from helssvr.seeding import child_seed

        # two rows per stack: each sigma group of six cells spans three stacks
        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 2)
        ds = toy_dataset(n=60, seed=8)
        grid = GridSpec(C_values=(1.0, 10.0, 100.0), sigma_values=(0.3, 1.0), a_values=(1.0, 3.0), k=3)
        recipe = recipe_from_name("hawkeye")
        adam = fast_adam(batch_size=batch_size)
        res = grid_search_cv(ds, grid, recipe, seed=11, adam=adam, scaling="zscore")
        assert len(res.cells) == 12
        # halving cuts 6 cells at step 15 and 2 more at step 45; each cell,
        # cut or not, matches a standalone fit of the steps it trained
        steps = sorted(cell.iterations for cell in res.cells)
        assert steps == [15] * 6 + [45] * 2 + [150] * 4
        all_idx = np.arange(ds.n)
        for i, cell in enumerate(res.cells):
            p = cell.params
            for j, test_idx in enumerate(res.folds):
                train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
                model, report = fit(
                    ds.X[train_idx], ds.y[train_idx], recipe.build_kernel(p.sigma),
                    recipe.build_loss(p.epsilon, p.lam, p.a), C=p.C,
                    adam=replace(adam, gamma=p.gamma, seed=child_seed(11, j), max_iter=cell.iterations),
                    scaling="zscore",
                )
                rmse = compute_metrics(ds.y[test_idx], predict(model, ds.X[test_idx])).rmse
                assert cell.fold_rmse[j] == pytest.approx(rmse, rel=SHORT_RUN_RTOL, abs=0)


class TestSuccessiveHalving:
    """The search trains every cell to the rungs at max_iter // 10 and
    3 * max_iter // 10 steps (15 and 45 of 150 here), and resumes only the
    better half of the cells still training, never fewer than four."""

    grid = GridSpec(C_values=(1.0, 10.0, 100.0), sigma_values=(0.3, 1.0), a_values=(1.0, 3.0), k=3)

    def search(self, grid=None, **kw):
        adam = fast_adam(**{"batch_size": 32, **kw})
        return grid_search_cv(
            toy_dataset(n=60, seed=8), grid or self.grid, recipe_from_name("hawkeye"), seed=11, adam=adam, scaling="zscore"
        )

    @staticmethod
    def summary(res):
        return [
            (
                tuple(r.hex() for r in cell.fold_rmse),
                cell.stat.hex(),
                cell.iterations,
            )
            for cell in res.cells
        ]

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_bit_reproducible_from_the_seed(self, batch_size):
        first = self.summary(self.search(batch_size=batch_size))
        assert self.summary(self.search(batch_size=batch_size)) == first
        assert any(steps == 15 for _, _, steps in first)

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_cut_cells_are_finite_and_halved(self, batch_size):
        res = self.search(batch_size=batch_size)
        for cell in res.cells:
            assert math.isfinite(cell.stat) and all(math.isfinite(r) for r in cell.fold_rmse)
            assert len(cell.fold_rmse) == 3
        # 12 cells -> 6 at step 15 -> 4 (not 3) at step 45
        assert sorted(cell.iterations for cell in res.cells) == [15] * 6 + [45] * 2 + [150] * 4

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_best_cell_is_the_minimum_over_all_cells(self, batch_size):
        res = self.search(batch_size=batch_size)
        stats = [cell.stat for cell in res.cells]
        assert res.best is res.cells[stats.index(min(stats))]

    def test_first_rung_cuts_the_worse_half(self, monkeypatch):
        # the first rung trains all 12 cells in the layout of a 15-step
        # search without rungs, so it scores them bit for bit as that
        # search does; the six worst (ties to the earlier cell) are cut
        import helssvr.evaluation

        res = self.search()
        monkeypatch.setattr(helssvr.evaluation, "RUNG_TENTHS", ())
        short = self.search(max_iter=15)
        ranked = sorted(range(12), key=lambda i: (short.cells[i].stat, i))
        cut = [i for i, cell in enumerate(res.cells) if cell.iterations == 15]
        assert cut == sorted(ranked[6:])
        for i in cut:
            assert self.summary(res)[i][:2] == self.summary(short)[i][:2]

    def test_ties_go_to_the_earlier_cell(self, monkeypatch):
        # five cells that differ only in C: the insensitive loss's band
        # swallows every residual, so C multiplies a zero derivative; at full
        # batch their seeds draw nothing, and one row per stack trains each
        # by the same GEMVs, so all five tie at every step; the rung keeps
        # the first four
        import helssvr.model

        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 1)
        grid = GridSpec(C_values=(1.0, 2.0, 3.0, 4.0, 5.0), sigma_values=(1.0,), epsilon_values=(1e6,), k=3)
        res = grid_search_cv(
            toy_dataset(n=60, seed=8), grid, ModelRecipe("insensitive"), seed=11, adam=fast_adam(batch_size=1000),
            scaling="zscore",
        )
        assert [cell.iterations for cell in res.cells] == [150] * 4 + [15]
        assert len({cell.stat for cell in res.cells[:4]}) == 1

    def test_five_cells_keep_four(self):
        grid = GridSpec(C_values=(1.0, 3.0, 10.0, 30.0, 100.0), sigma_values=(1.0,), k=3)
        res = self.search(grid)
        assert sorted(cell.iterations for cell in res.cells) == [15, 150, 150, 150, 150]

    def test_four_cells_train_straight_on(self):
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), k=3)
        res = self.search(grid)
        assert {cell.iterations for cell in res.cells} == {150}


class TestJointSearch:
    """Several recipes searched together, bit for bit each recipe's own
    search.  On this grid hawkeye halves 16 cells to 8 and to 4 at steps
    15 and 45; insensitive halves 8 to 4 at step 15; least squares has 4
    cells and never halves.  Searched alone, insensitive skips the second
    rung and least squares both; searched together, every recipe trains
    to both.  The 61 rows give training sets of 40 and 41 rows, which
    train in separate stacks."""

    grid = GridSpec(
        C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), epsilon_values=(0.05, 0.1), a_values=(1.0, 3.0), k=3
    )
    recipes = [ModelRecipe(name) for name in ("hawkeye", "least_squares", "insensitive")]

    def search(self, recipes, **kw):
        from helssvr.evaluation import grid_search_recipes

        adam = fast_adam(**{"batch_size": 32, **kw})
        return grid_search_recipes(toy_dataset(n=61, seed=8), self.grid, recipes, seed=11, adam=adam, scaling="zscore")

    @staticmethod
    def summary(res):
        return [
            (
                cell.params,
                tuple(r.hex() for r in cell.fold_rmse),
                cell.stat.hex(),
                cell.iterations,
            )
            for cell in res.cells
        ]

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_each_recipe_matches_its_own_search(self, batch_size):
        joint = self.search(self.recipes, batch_size=batch_size)
        steps = set()
        for recipe, res in zip(self.recipes, joint, strict=True):
            (alone,) = self.search([recipe], batch_size=batch_size)
            assert self.summary(res) == self.summary(alone)
            assert res.cells.index(res.best) == alone.cells.index(alone.best)
            assert [f.tobytes() for f in res.folds] == [f.tobytes() for f in alone.folds]
            steps |= {cell.iterations for cell in res.cells}
        assert {15, 45, 150} <= steps

    def test_one_fit_and_predict_call_per_sigma_and_rung(self, monkeypatch):
        # all three recipes train to rung 15, to rung 45 and to the end,
        # though only hawkeye and insensitive halve; each rung one
        # fit_cells call per sigma its cells train at, and one
        # predict_cells call per fold of each
        import helssvr.evaluation

        calls = {"fit": [], "predict": 0}
        fit_cells, predict_cells = helssvr.evaluation.fit_cells, helssvr.evaluation.predict_cells

        def fit_spy(sets, kernel, cells, adam, **kw):
            calls["fit"].append((adam.max_iter, kernel.sigma, {loss.kind for _, loss, *_ in cells}))
            return fit_cells(sets, kernel, cells, adam, **kw)

        def predict_spy(models, X):
            calls["predict"] += 1
            return predict_cells(models, X)

        monkeypatch.setattr(helssvr.evaluation, "fit_cells", fit_spy)
        monkeypatch.setattr(helssvr.evaluation, "predict_cells", predict_spy)
        self.search(self.recipes)
        rungs = {}
        for steps, sigma, kinds in calls["fit"]:
            assert sigma not in rungs.setdefault(steps, {})
            rungs[steps][sigma] = kinds
        assert list(rungs) == [15, 45, 150]
        assert [set().union(*by_sigma.values()) for by_sigma in rungs.values()] == [
            {"hawkeye", "insensitive", "least_squares"}
        ] * 3
        assert calls["predict"] == 3 * len(calls["fit"])

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_recipe_at_the_floor_trains_to_the_rung(self, monkeypatch, batch_size):
        # hawkeye's 8 cells halve to 4 at step 15, so only that rung runs;
        # least squares' 4 cells train to it beside them and resume from it,
        # and every train_adam call's cells start from one step
        import helssvr.model
        from helssvr.evaluation import grid_search_recipes

        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), epsilon_values=(0.05, 0.1), k=3)
        recipes = [ModelRecipe("hawkeye"), ModelRecipe("least_squares")]
        adam = fast_adam(batch_size=batch_size)
        ds = toy_dataset(n=61, seed=8)
        calls = []
        real = helssvr.model.train_adam

        def spy(gram, y, C, loss, cfg, **kw):
            starts = {0 if s is None else s.t for s in kw["resume"]}
            calls.append(({spec.kind for spec in loss}, cfg.max_iter, starts))
            return real(gram, y, C, loss, cfg, **kw)

        monkeypatch.setattr(helssvr.model, "train_adam", spy)
        joint = grid_search_recipes(ds, grid, recipes, seed=11, adam=adam, scaling="zscore")
        assert all(len(starts) <= 1 for *_, starts in calls)
        assert {(max_iter, *starts) for kinds, max_iter, starts in calls if "least_squares" in kinds} >= {
            (15, 0), (150, 15)
        }
        for recipe, res in zip(recipes, joint, strict=True):
            (alone,) = grid_search_recipes(ds, grid, [recipe], seed=11, adam=adam, scaling="zscore")
            assert self.summary(res) == self.summary(alone)
            assert res.cells.index(res.best) == alone.cells.index(alone.best)

    @pytest.mark.parametrize("batch_size", [32, 1000])
    def test_recipe_at_the_floor_resumes_a_diverged_cell(self, batch_size):
        # at a learning rate of 1e300 a cell diverges at step 2 in fold 0;
        # hawkeye's 8 cells halve to 4 at step 15, cutting its diverged
        # ones, and least squares' 4 cells, at the floor, resume from step
        # 15 with theirs, which stay diverged at step 2, as in its own
        # search, which trains them straight on
        from helssvr.evaluation import grid_search_recipes

        grid = GridSpec(C_values=(100.0,), sigma_values=(0.3, 1.0), epsilon_values=(0.05, 0.1),
                        gamma_values=(0.01, 1e300), k=3)
        recipes = [ModelRecipe("hawkeye"), ModelRecipe("least_squares")]
        adam = fast_adam(batch_size=batch_size)
        ds = toy_dataset(n=61, seed=8)
        with np.errstate(over="ignore", invalid="ignore"):
            he, ls = grid_search_recipes(ds, grid, recipes, seed=11, adam=adam, scaling="zscore")
            (alone,) = grid_search_recipes(ds, grid, recipes[1:], seed=11, adam=adam, scaling="zscore")
        assert [(c.iterations, c.diverged) for c in he.cells] == [(150, None), (15, (0, 2))] * 4
        assert [(c.iterations, c.diverged) for c in ls.cells] == [(150, None), (150, (0, 2))] * 2
        assert repr(ls.cells) == repr(alone.cells)  # NaN fold RMSEs compare as text
        assert he.best.params.gamma == ls.best.params.gamma == 0.01

    def test_factor_folds_share_their_centers_across_stacks(self, monkeypatch):
        # 726 rows in 2 folds: training sets of 363 rows, each trained on
        # a factor of its Gram, and the two factors share every optimizer
        # stack; at the first rung the 35 cells a fold of the one sigma
        # (20 hawkeye, 5 least squares, 10 insensitive) take three stacks,
        # each chunk 16 cells of a kind a fold at most, and every model of
        # a fold keeps the one array of its pivot rows, which predict_cells
        # requires
        import helssvr.evaluation
        import helssvr.model
        from helssvr.evaluation import grid_search_recipes

        stacks, scored = [], []
        train, predict_cells = helssvr.model.train_adam, helssvr.evaluation.predict_cells

        def train_spy(gram, y, C, *args, **kw):
            stacks.append((type(gram).__name__, len(gram), len(C)))
            return train(gram, y, C, *args, **kw)

        def predict_spy(models, X):
            scored.append(models)
            return predict_cells(models, X)

        monkeypatch.setattr(helssvr.model, "train_adam", train_spy)
        monkeypatch.setattr(helssvr.evaluation, "predict_cells", predict_spy)
        grid = GridSpec(
            C_values=(1.0, 10.0, 100.0, 1e3, 1e4), sigma_values=(1.0,), epsilon_values=(0.05, 0.1), a_values=(1.0, 3.0),
            k=2,
        )
        adam = fast_adam(max_iter=20, batch_size=32)
        grid_search_recipes(toy_dataset(n=726, seed=8), grid, self.recipes, seed=11, adam=adam, scaling="zscore")
        assert stacks[:3] == [("GramFactors", 2, 32), ("GramFactors", 2, 18), ("GramFactors", 2, 20)]
        assert [len(models) for models in scored[:2]] == [35, 35]
        for models in scored:
            assert all(model.X_train is models[0].X_train for model in models)
            assert models[0].X_train.shape[0] < 363 and not models[0].X_train.flags.writeable

    def test_recipes_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct recipes, got \\['hawkeye', 'hawkeye'\\]"):
            self.search([ModelRecipe("hawkeye")] * 2)
        with pytest.raises(ValueError, match="distinct recipes, got \\[\\]"):
            self.search([])


# grid_search_cv(toy_dataset(n=31, seed=3), C 1 and 100, sigma 0.3 and 1, k=3,
# seed 7, zscore, 60 steps), recorded with each set's Gram products as one
# GEMM over its rows and the default STACK_ROWS: per cell, the fold RMSEs,
# the final objectives of the fit_cells reports the search scored (as
# float.hex), and each fold's iterations.  The
# folds hold 11, 10 and 10 rows, so the training sets are 20, 21 and 21
# rows.  This pins the results of one fixed stack layout bit for bit.
GOLDEN_SEARCH = {
    8: [
        (
            ('0x1.0a5739f8cda46p-1', '0x1.159e81628363ap-1', '0x1.55b94a2ef99f8p-1'),
            ('0x1.766871a1686a5p+1', '0x1.86dbe306a7f24p+1', '0x1.a35e2a63165e1p+1'),
            (60, 60, 60),
        ),
        (
            ('0x1.91eb03fdf2887p-2', '0x1.70bb223fb5307p-2', '0x1.18debf3e76acdp-1'),
            ('0x1.2358e75336796p+1', '0x1.0957fcb669c45p+1', '0x1.34aac1bab01aap+1'),
            (60, 60, 60),
        ),
        (
            ('0x1.114934aed98dbp-2', '0x1.8840ffbd1b90cp-2', '0x1.9a87418e06d4ep-2'),
            ('0x1.2159a32e7c096p+6', '0x1.1d1b214d924efp+6', '0x1.b4cc9306aecbep+6'),
            (60, 60, 60),
        ),
        (
            ('0x1.4bd4f9ef29d97p-3', '0x1.34af853ce5c64p-3', '0x1.420ec8721f41ep-2'),
            ('0x1.e740cb657169ap+5', '0x1.4c534576d507bp+4', '0x1.160e932079414p+6'),
            (60, 60, 60),
        ),
    ],
    1000: [
        (
            ('0x1.8777c74d21055p-2', '0x1.c74f71fda7cbfp-2', '0x1.07aa08028bc9ap-1'),
            ('0x1.1e40bdecebc8ep+1', '0x1.2411f74eed551p+1', '0x1.4933ddde4166ap+1'),
            (60, 60, 60),
        ),
        (
            ('0x1.f776d81e6a571p-3', '0x1.da4da6b298d2ap-3', '0x1.a0b1445027f10p-2'),
            ('0x1.c02c7e11c4958p+0', '0x1.824043c1ad016p+0', '0x1.dfddac453763bp+0'),
            (60, 60, 60),
        ),
        (
            ('0x1.cf7f115f13864p-3', '0x1.535c2ac5e8e86p-2', '0x1.68b3cd6989c3fp-2'),
            ('0x1.977ce6179d9c2p+5', '0x1.7fb95eef67563p+5', '0x1.55bf39b461b73p+6'),
            (60, 60, 60),
        ),
        (
            ('0x1.22bb056655625p-3', '0x1.1cf7d6bc4f8ecp-3', '0x1.284619d3ae52dp-2'),
            ('0x1.7787ed1b200aap+5', '0x1.0387bedc1ca80p+4', '0x1.dde0dcb0477f2p+5'),
            (60, 60, 60),
        ),
    ],
}


class TestGoldenSearch:
    @pytest.mark.parametrize("batch_size", [8, 1000])
    def test_search_matches_recorded_values(self, monkeypatch, batch_size):
        assert self.search(monkeypatch, batch_size) == GOLDEN_SEARCH[batch_size]

    @staticmethod
    def search(monkeypatch, batch_size):
        import helssvr.evaluation

        # the search keeps no fit report, so each (sigma, C, fold)'s final
        # objective is read from the fit_cells calls it makes
        objectives = {}
        real = helssvr.evaluation.fit_cells

        def spy(sets, kernel, cells, adam, **kw):
            fitted = real(sets, kernel, cells, adam, **kw)
            for (j, _, C, _), (_, report) in zip(cells, fitted):
                objectives[kernel.sigma, C, j] = report.final_objective
            return fitted

        monkeypatch.setattr(helssvr.evaluation, "fit_cells", spy)
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), k=3)
        adam = fast_adam(max_iter=60, batch_size=batch_size)
        res = grid_search_cv(toy_dataset(n=31, seed=3), grid, recipe_from_name("hawkeye"), seed=7, adam=adam, scaling="zscore")
        return [
            (
                tuple(r.hex() for r in cell.fold_rmse),
                tuple(objectives[cell.params.sigma, cell.params.C, j].hex() for j in range(3)),
                (cell.iterations,) * 3,
            )
            for cell in res.cells
        ]


# grid_search_cv(toy_dataset(n=31, seed=3), C 1 and 100, sigma 0.3 and 1, a 1
# and 3, k=3, seed 7, zscore, 60 steps), keyed by batch size: per cell, the
# fold RMSEs and statistic (as float.hex), each fold's iterations and stop
# reason (halved exactly when the cell trained fewer than 60 steps).  The 8
# cells reach the first rung at step 6, which keeps 4; those train straight
# on to 60, since 4 do not halve again.  Like GOLDEN_SEARCH this pins one
# fixed stack layout bit for bit.
GOLDEN_HALVING = {
    8: [
        (
            ('0x1.578ee43898938p-1', '0x1.49ee944526fb8p-1', '0x1.96bb1406a86a5p-1'),
            '0x1.49ee944526fb8p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.55c7110223857p-1', '0x1.4a49d07504f86p-1', '0x1.97927dc1f5141p-1'),
            '0x1.4a49d07504f86p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.91eb03fdf2887p-2', '0x1.70bb223fb5307p-2', '0x1.18debf3e76acdp-1'),
            '0x1.70bb223fb5307p-2',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.ea9a720459a75p-3', '0x1.bae434686b672p-3', '0x1.a9d3adc12941fp-2'),
            '0x1.bae434686b672p-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.427cb9f086b49p-1', '0x1.3ae7d57708550p-1', '0x1.837f916e10cbdp-1'),
            '0x1.3ae7d57708550p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.4190c0443665ep-1', '0x1.3b20eed69e336p-1', '0x1.8514dac65c9cep-1'),
            '0x1.3b20eed69e336p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.4bd4f9ef29d97p-3', '0x1.34af853ce5c64p-3', '0x1.420ec8721f41ep-2'),
            '0x1.34af853ce5c64p-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.4b5ebb6a532ddp-3', '0x1.365a92e838b29p-3', '0x1.2ea5ecdd3caa5p-2'),
            '0x1.365a92e838b29p-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
    ],
    1000: [
        (
            ('0x1.4f8bf6cb0562fp-1', '0x1.44122281e06d9p-1', '0x1.8f437752e506dp-1'),
            '0x1.44122281e06d9p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.4e26fbe3fd84cp-1', '0x1.439407e79ce72p-1', '0x1.8ef3cf409ed55p-1'),
            '0x1.439407e79ce72p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.f776d81e6a571p-3', '0x1.da4da6b298d2ap-3', '0x1.a0b1445027f10p-2'),
            '0x1.da4da6b298d2ap-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.24231c70a5737p-3', '0x1.4169814f8609ap-3', '0x1.282f3fd00cb7ep-2'),
            '0x1.24231c70a5737p-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.3d207775d2196p-1', '0x1.36102a683c65ap-1', '0x1.7e72e66742273p-1'),
            '0x1.36102a683c65ap-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.3cfac1e9510e3p-1', '0x1.3699c8c590f45p-1', '0x1.7ef4f3910f270p-1'),
            '0x1.3699c8c590f45p-1',
            (6, 6, 6),
            ('halved', 'halved', 'halved'),
        ),
        (
            ('0x1.22bb056655625p-3', '0x1.1cf7d6bc4f8ecp-3', '0x1.284619d3ae52dp-2'),
            '0x1.1cf7d6bc4f8ecp-3',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
        (
            ('0x1.f8ffe69c1b2acp-4', '0x1.1dc419725a438p-3', '0x1.087198215b431p-2'),
            '0x1.f8ffe69c1b2acp-4',
            (60, 60, 60),
            ('max_iter', 'max_iter', 'max_iter'),
        ),
    ],
}


class TestGoldenHalvingSearch:
    @pytest.mark.parametrize("batch_size", list(GOLDEN_HALVING))
    def test_search_matches_recorded_values(self, batch_size):
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), a_values=(1.0, 3.0), k=3)
        adam = fast_adam(max_iter=60, batch_size=batch_size)
        res = grid_search_cv(toy_dataset(n=31, seed=3), grid, recipe_from_name("hawkeye"), seed=7, adam=adam, scaling="zscore")
        got = [
            (
                tuple(r.hex() for r in cell.fold_rmse),
                cell.stat.hex(),
                (cell.iterations,) * 3,
                ("halved" if cell.iterations < 60 else "max_iter",) * 3,
            )
            for cell in res.cells
        ]
        assert got == GOLDEN_HALVING[batch_size]
        assert res.best is res.cells[{8: 6, 1000: 7}[batch_size]]


class TestAveragedSelectionIsLayoutStable:
    """The trainer returns the averaged iterate, so the selected cell does
    not depend on the stack layout.

    The benchmark's grid_cv search (5 folds of 320 training rows, full
    batch, 1000 steps) on three of the seed sweep's inputs: the ones whose
    selection moves between one row per stack (one GEMV per row) and the
    default stacks (one GEMM per fold) when the last iterate is returned,
    as the trainer did before it averaged.
    The grid keeps the sweep's sigma=1 cells only, the width all three
    select in every run of the sweep, and the cells between which their
    selection moved.

    The selected cell is a measured result of one build (OpenBLAS 0.3.31),
    not a bound: there the selected cell leads the runner-up by 1.2e-4,
    8.6e-5 and 2.6e-4 relative, while each cell's statistic moves by at
    most 7.8e-5, 4.7e-5 and 1.4e-5 between layouts; with the last iterate
    the largest moves were 3.5e-3 to 6.4e-3, more than the gap.  What
    averaging guarantees more robustly is that smaller movement, which
    ``STAT_RTOL`` checks with a wide margin on both sides.
    """

    #: largest relative change of a cell's statistic between layouts
    STAT_RTOL = 1e-3

    @pytest.mark.parametrize("seed", [105, 107, 205])
    def test_selected_cell_same_for_one_row_stacks_and_default(self, monkeypatch, seed):
        import helssvr.model
        from helssvr.data import SyntheticSpec, generate_synthetic

        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=500, seed=seed))
        train = Dataset(X=ds.X[:400], y=ds.y[:400], name=ds.name)
        grid = GridSpec(C_values=(1.0, 100.0, 10000.0), sigma_values=(1.0,), a_values=(1.0, 3.0), k=5)
        adam = AdamConfig(batch_size=400)

        def search():
            return grid_search_cv(train, grid, recipe_from_name("hawkeye"), adam=adam, scaling="zscore", selection="mean")

        stacked = search()
        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 1)
        one_row = search()
        for a, b in zip(stacked.cells, one_row.cells):
            assert abs(a.stat - b.stat) <= self.STAT_RTOL * b.stat
        assert stacked.best_params == one_row.best_params
