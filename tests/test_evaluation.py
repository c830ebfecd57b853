import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helssvr.data import Dataset
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
        analysis = rank_models(np.array([[0.5, 0.5], [0.7, 0.7], [0.2, 0.2]]))
        assert analysis.avg_ranks[0] == analysis.avg_ranks[1]
        assert not analysis.pairwise[0, 1]

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
    def test_single_cell_returns_it(self):
        ds = toy_dataset()
        grid = GridSpec(C_values=(10.0,), sigma_values=(0.5,), k=3)
        recipe = recipe_from_name("least_squares")
        res = grid_search_cv(ds, grid, recipe, seed=0, adam=fast_adam())
        assert res.best_params.C == 10.0
        assert res.best_params.sigma == 0.5
        assert len(res.cells) == 1
        assert res.best_rmse == min(res.best.fold_rmse)

    def test_duplicated_values_match_deduplicated(self):
        ds = toy_dataset()
        recipe = recipe_from_name("least_squares")
        g1 = GridSpec(C_values=(1.0, 10.0), sigma_values=(0.5,), k=3)
        g2 = GridSpec(C_values=(1.0, 10.0, 10.0, 1.0), sigma_values=(0.5,), k=3)
        r1 = grid_search_cv(ds, g1, recipe, seed=4, adam=fast_adam())
        r2 = grid_search_cv(ds, g2, recipe, seed=4, adam=fast_adam())
        # the duplicates change the stack layout, so the numbers agree
        # within the short-run tolerance
        assert r1.best_params == r2.best_params
        assert r1.best_rmse == pytest.approx(r2.best_rmse, rel=SHORT_RUN_RTOL, abs=0)

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
        recipe = ModelRecipe(name="insensitive", loss_kind="insensitive")
        res = grid_search_cv(ds, grid, recipe, seed=0, adam=fast_adam(alpha0=0.0, m0=0.0, v0=0.0))
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
        fixed = dict(recipe.fixed)
        axes = [p for p in ("epsilon", "lam", "a") if p in required_params(kind) and p not in fixed]
        cells = _enumerate_cells(grid, recipe)
        assert len(cells) == 2 ** len(axes)
        for cell in cells:
            assert cell.sigma == 0.5
            for p in ("epsilon", "lam", "a"):
                assert (getattr(cell, p) is not None) == (p in axes)
            loss = recipe.build_loss(cell.epsilon, cell.lam, cell.a)
            assert loss.params() == {**fixed, **{p: getattr(cell, p) for p in axes}}

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
        all_idx = np.arange(ds.n)
        for i, cell in enumerate(res.cells):
            p = cell.params
            for j, test_idx in enumerate(res.folds):
                train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
                model, report = fit(
                    ds.X[train_idx], ds.y[train_idx], recipe.build_kernel(p.sigma),
                    recipe.build_loss(p.epsilon, p.lam, p.a), C=p.C,
                    adam=replace(adam, gamma=p.gamma, seed=child_seed(11, i, j)), scaling="zscore",
                )
                rmse = compute_metrics(ds.y[test_idx], predict(model, ds.X[test_idx])).rmse
                got = cell.fold_reports[j]
                assert cell.fold_rmse[j] == pytest.approx(rmse, rel=SHORT_RUN_RTOL, abs=0)
                assert got.final_objective == pytest.approx(report.final_objective, rel=SHORT_RUN_RTOL, abs=0)
                assert got.initial_objective.hex() == report.initial_objective.hex()
                assert got.iterations == report.iterations


# grid_search_cv(toy_dataset(n=31, seed=3), C 1 and 100, sigma 0.3 and 1, k=3,
# seed 7, zscore, 60 steps, early stop at tol 2e-2 / patience 3), recorded
# with each set's Gram products as one GEMM over its rows and the default
# STACK_ROWS: per cell, the fold RMSEs, initial and final objectives (as
# float.hex) and iteration counts.  The folds hold 11, 10 and 10 rows, so
# the training sets are 20, 21 and 21 rows.  This pins the results of one
# fixed stack layout bit for bit.
GOLDEN_SEARCH = {
    8: [
        (
            ('0x1.d93565278de79p-2', '0x1.027fb385566bbp-1', '0x1.4430964f76c84p-1'),
            ('0x1.1141716d76fa7p+2', '0x1.2959c917d38d7p+2', '0x1.2211f474cbcc3p+2'),
            ('0x1.4b27af671325ep+1', '0x1.56e903b6c44eap+1', '0x1.838936f28a180p+1'),
            (41, 39, 39),
        ),
        (
            ('0x1.61b565b39568ep-2', '0x1.2f4cd267ffe0bp-2', '0x1.ed85b53cc8dc4p-2'),
            ('0x1.101e8bdfe51b8p+2', '0x1.295f7802a1655p+2', '0x1.223851d6511f1p+2'),
            ('0x1.0c0f8db9687c6p+1', '0x1.b9edb1786fc1ep+0', '0x1.0d60c19c0bf4ep+1'),
            (30, 30, 30),
        ),
        (
            ('0x1.e6090ffc8f93ep-4', '0x1.1fd295cb38ab9p-2', '0x1.75bb0b6ff0967p-3'),
            ('0x1.aaa645e660c6dp+8', '0x1.d04432d999248p+8', '0x1.c4e58ba152122p+8'),
            ('0x1.e9314a6a35858p+3', '0x1.0089267db61dbp+4', '0x1.b2918f1e74bbcp+4'),
            (60, 60, 60),
        ),
        (
            ('0x1.fa4b086a53c2ep-4', '0x1.1360073b4b4abp-3', '0x1.05060303332f8p-2'),
            ('0x1.a856171009a11p+8', '0x1.cfb0c2af860c5p+8', '0x1.c488aed756dfep+8'),
            ('0x1.b0e6f6b5b65c9p+4', '0x1.92b2bf2687f7bp+3', '0x1.90f89c5daabe3p+5'),
            (60, 60, 60),
        ),
    ],
    1000: [
        (
            ('0x1.59774c220d8dcp-2', '0x1.b5eba9f25b79ep-2', '0x1.fb29632652368p-2'),
            ('0x1.1141716d76fa7p+2', '0x1.2959c917d38d7p+2', '0x1.2211f474cbcc3p+2'),
            ('0x1.127340c4ef528p+1', '0x1.1ad6915be1d58p+1', '0x1.454cdfbf55908p+1'),
            (33, 32, 32),
        ),
        (
            ('0x1.c2811fde2a4c9p-3', '0x1.547a22aadf074p-3', '0x1.97ba20188e33fp-2'),
            ('0x1.101e8bdfe51b8p+2', '0x1.295f7802a1655p+2', '0x1.223851d6511f1p+2'),
            ('0x1.e4b4ab1cb3d27p+0', '0x1.80926998e670fp+0', '0x1.02c3b713ebb39p+1'),
            (23, 22, 20),
        ),
        (
            ('0x1.beaebe5d6b131p-4', '0x1.01a8320744a97p-2', '0x1.02dba9a0ea5f5p-3'),
            ('0x1.aaa645e660c6dp+8', '0x1.d04432d999248p+8', '0x1.c4e58ba152122p+8'),
            ('0x1.b0ac9cd386158p+3', '0x1.611106ec2375fp+3', '0x1.d032e281684b0p+3'),
            (60, 60, 60),
        ),
        (
            ('0x1.e901af26b62bfp-4', '0x1.ff0d2090e29aap-4', '0x1.90e35fe2cf2a2p-3'),
            ('0x1.a856171009a11p+8', '0x1.cfb0c2af860c5p+8', '0x1.c488aed756dfep+8'),
            ('0x1.41bd471cad10bp+4', '0x1.3fcdf9fc04f5ep+3', '0x1.d2b9372cee8aep+4'),
            (60, 60, 60),
        ),
    ],
}



class TestGoldenSearch:
    @pytest.mark.parametrize("batch_size", [8, 1000])
    def test_search_matches_recorded_values(self, batch_size):
        grid = GridSpec(C_values=(1.0, 100.0), sigma_values=(0.3, 1.0), k=3)
        adam = fast_adam(max_iter=60, batch_size=batch_size, early_stop=True, early_stop_tol=2e-2, early_stop_patience=3)
        res = grid_search_cv(toy_dataset(n=31, seed=3), grid, recipe_from_name("hawkeye"), seed=7, adam=adam, scaling="zscore")
        got = [
            (
                tuple(r.hex() for r in cell.fold_rmse),
                tuple(r.initial_objective.hex() for r in cell.fold_reports),
                tuple(r.final_objective.hex() for r in cell.fold_reports),
                tuple(r.iterations for r in cell.fold_reports),
            )
            for cell in res.cells
        ]
        assert got == GOLDEN_SEARCH[batch_size]


class TestAveragedSelectionIsLayoutStable:
    """With ``adam.average = "ema"`` the selected cell does not depend on the
    stack layout.

    The benchmark's grid_cv search (5 folds of 320 training rows, full
    batch, 1000 steps) on three of the seed sweep's inputs: the ones whose
    selection moves between one row per stack (one GEMV per row) and the
    default stacks (one GEMM per fold) when the last iterate is returned.
    The grid keeps the sweep's sigma=1 cells only, the width all three
    select in every run of the sweep, and the cells between which their
    selection moved.

    The selected cell is a measured result of one build (OpenBLAS 0.3.31),
    not a bound: there the selected cell leads the runner-up by 1.2e-4,
    8.6e-5 and 2.6e-4 relative, while each cell's statistic moves by at
    most 7.8e-5, 4.7e-5 and 1.4e-5 between layouts; without averaging the
    largest moves are 3.5e-3 to 6.4e-3, more than the gap.  What
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
        adam = AdamConfig(batch_size=400, average="ema")

        def search():
            return grid_search_cv(train, grid, recipe_from_name("hawkeye"), adam=adam, scaling="zscore", selection="mean")

        stacked = search()
        monkeypatch.setattr(helssvr.model, "STACK_ROWS", 1)
        one_row = search()
        for a, b in zip(stacked.cells, one_row.cells):
            assert abs(a.stat - b.stat) <= self.STAT_RTOL * b.stat
        assert stacked.best_params == one_row.best_params
