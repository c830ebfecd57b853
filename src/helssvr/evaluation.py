"""Metrics, cross-validated grid search, and rank statistics.

The metrics are RMSE, MAE, and the signed-group errors (mean absolute
residual over the under- and over-prediction groups separately; an empty
group is reported as absent, not zero).

Model comparison across datasets uses average ranks with a chi-square
rank test, its F-distributed refinement, and a critical-difference
post-hoc threshold for pairwise verdicts.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import losses
from .data import Dataset, kfold_split
from .kernels import KernelSpec
from .losses import LossSpec
from .model import FitReport, check_trained, fit_cells, predict, predict_cells
from .optimizer import AdamConfig
from .seeding import child_seed


@dataclass(frozen=True)
class MetricsReport:
    """RMSE/MAE plus per-sign-group mean absolute errors."""

    rmse: float
    mae: float
    error_pos: float | None
    error_neg: float | None
    n: int
    n_pos: int
    n_neg: int


def compute_metrics(y, f) -> MetricsReport:
    """Evaluate predictions ``f`` against targets ``y``.

    ``error_pos`` averages |y - f| over samples with y >= f (model under-
    predicts), ``error_neg`` over samples with y < f; each is None when
    its group is empty.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if y.shape != f.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {f.shape}")
    if y.size == 0:
        raise ValueError("metrics need at least one sample")
    r = y - f
    ar = np.abs(r)
    pos = r >= 0
    n_pos = int(pos.sum())
    n_neg = int(y.size - n_pos)
    return MetricsReport(
        rmse=float(np.sqrt(np.mean(r * r))),
        mae=float(np.mean(ar)),
        error_pos=float(np.mean(ar[pos])) if n_pos else None,
        error_neg=float(np.mean(ar[~pos])) if n_neg else None,
        n=int(y.size),
        n_pos=n_pos,
        n_neg=n_neg,
    )


# ---------------------------------------------------------------------------
# Cross-validated grid search.


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter value lists, none of which repeats a value, plus the
    fold count."""

    C_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    epsilon_values: tuple[float, ...] = (0.05,)
    lambda_values: tuple[float, ...] = (1.0,)
    a_values: tuple[float, ...] = (1.0,)
    gamma_values: tuple[float, ...] = (0.01,)
    k: int = 5

    def __post_init__(self):
        for name in ("C_values", "sigma_values", "epsilon_values", "lambda_values", "a_values", "gamma_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"grid {name} must be non-empty")
            # a repeated value would train a second, identical cell
            repeat = next((v for i, v in enumerate(vals) if v in vals[:i]), None)
            if repeat is not None:
                raise ValueError(f"grid {name} repeats the value {repeat!r}")
            # the loss axes are checked by the LossSpec each recipe builds
            if name in ("C_values", "sigma_values", "gamma_values") and not all(
                math.isfinite(v) and v > 0 for v in vals
            ):
                raise ValueError(f"grid {name} must be finite and > 0, got {vals}")
        if not isinstance(self.k, numbers.Integral) or self.k < 2:
            raise ValueError(f"grid k must be an integer >= 2, got {self.k!r}")


@dataclass(frozen=True)
class ModelRecipe:
    """A trainable model family: the loss kind ``name``.

    The grid's epsilon, lambda and a axes apply to the loss parameters the
    kind takes (:func:`losses.required_params`); the other axes collapse to
    None, so the search does not revisit identical models.  The parameters
    no grid axis covers are fixed: theta = 1.0 (2.0 for bounded least
    squares) and t = 1.0.  Search kernels are RBF.
    """

    name: str

    def __post_init__(self):
        if self.name not in losses.LOSS_KINDS:
            raise ValueError(f"unknown model recipe {self.name!r}")

    def build_loss(self, epsilon, lam, a) -> LossSpec:
        theta = 2.0 if self.name == losses.BOUNDED_LEAST_SQUARES else 1.0
        values = dict(epsilon=epsilon, lam=lam, a=a, theta=theta, t=1.0)
        return LossSpec(self.name, **{p: values[p] for p in losses.required_params(self.name)})

    def build_kernel(self, sigma) -> KernelSpec:
        return KernelSpec("rbf", sigma=sigma)


def recipe_from_name(name: str) -> ModelRecipe:
    """The old name of ``ModelRecipe(name)``."""
    return ModelRecipe(name)


@dataclass(frozen=True)
class CellParams:
    C: float
    sigma: float
    epsilon: float | None
    lam: float | None
    a: float | None
    gamma: float


@dataclass
class CellResult:
    """A grid cell's held-out RMSE per fold, the Adam steps every fold
    trained (the rung step for a cell successive halving cut, fewer than
    ``max_iter``), its statistic, and the (fold, step) of its first fold
    that diverged (None if none did; see
    :func:`~helssvr.optimizer.train_adam`), whose RMSE is NaN."""

    params: CellParams
    fold_rmse: list[float]
    iterations: int
    stat: float
    diverged: tuple[int, int] | None = None


@dataclass
class GridSearchResult:
    best: CellResult
    cells: list[CellResult]
    folds: list[np.ndarray]

    @property
    def best_params(self) -> CellParams:
        return self.best.params


def _enumerate_cells(grid: GridSpec, recipe: ModelRecipe) -> list[CellParams]:
    axes = losses.required_params(recipe.name)
    cs = sorted(grid.C_values)
    sigmas = sorted(grid.sigma_values)
    epss = sorted(grid.epsilon_values) if "epsilon" in axes else [None]
    lams = sorted(grid.lambda_values) if "lam" in axes else [None]
    avals = sorted(grid.a_values) if "a" in axes else [None]
    gammas = sorted(grid.gamma_values)
    return [
        CellParams(C=c, sigma=s, epsilon=e, lam=l, a=a, gamma=g)
        for c, s, e, l, a, g in product(cs, sigmas, epss, lams, avals, gammas)
    ]


#: successive halving's rungs, in tenths of ``max_iter`` (100 and 300 of
#: the default 1000 steps); see :func:`grid_search_cv`
RUNG_TENTHS = (1, 3)

#: fewest cells a rung of successive halving keeps training.  In a probe
#: on cli_bench-sized grids (2 and 4 cells, mini-batch 32, best fold),
#: halving below four lost the exhaustive search's cell on 5 of 24 items.
HALVING_FLOOR = 4


def grid_search_cv(
    ds: Dataset,
    grid: GridSpec,
    recipe: ModelRecipe,
    seed: int = 0,
    adam: AdamConfig | None = None,
    scaling: str = "minmax",
    selection: str = "best_fold",
) -> GridSearchResult:
    """Search the grid with k-fold cross validation and successive halving.

    For each cell the model trains on k-1 folds and is scored by RMSE on
    the held-out fold.  A cell's statistic is its best (lowest) fold RMSE
    by default, or the fold mean with ``selection="mean"``; either is NaN
    if a fold diverged, and a cell of NaN statistic ranks last.  Raises
    ValueError if no cell's statistic is finite.

    Successive halving (Jamieson & Talwalkar 2016) trains every cell to the
    rungs at ``max_iter // 10`` and ``3 * max_iter // 10`` steps
    (:data:`RUNG_TENTHS`) and scores it there, on the held-out folds, as
    at the end.  After each rung only the better half of the cells still
    training (rounded up, and never fewer than :data:`HALVING_FLOOR`; ties
    go to the earlier cell) resume, from their optimizer states, to the
    next rung or to ``max_iter``.  A cut cell keeps its rung statistic and
    fold RMSEs, with the rung step as ``iterations``.  A search over at most
    :data:`HALVING_FLOOR` cells, or whose cells still training number at
    most that many at a rung, trains them straight on.  The best cell is
    the lowest statistic over all cells, cut or not (Hyperband's return
    rule, Li et al. 2018).  Ties break to the first cell in ascending
    (C, sigma, epsilon, lambda, a, gamma) order.

    Cells that share a kernel width form one work item per rung: all their
    folds train in one :func:`fit_cells` call, from one step, each fold's
    Gram matrix built once and folds of equal size stacked within its
    budget.  Fold j trains every cell with the Adam seed
    ``child_seed(seed, j)``, so the cells of a fold train on one sequence
    of mini-batches and differ only in their hyperparameters (common random
    numbers).  Its numbers are bit-identical from run to run for the same
    grid and ``model.STACK_ROWS``.  A cell that trains all the way with the
    same stack layout at every rung is bit-identical to an exhaustive
    search's, and every cell agrees with a standalone :func:`fit` of its
    steps with its fold's seed to rounding.  Work items run one
    after another, since each Adam step's Python work holds the GIL.  This
    is the one-recipe case of :func:`grid_search_recipes`.
    """
    return _finite_best(grid_search_recipes(ds, grid, [recipe], seed, adam, scaling, selection)[0])


def _finite_best(result: GridSearchResult) -> GridSearchResult:
    """``result``, unless its best statistic is not finite: then ValueError."""
    if not math.isfinite(result.best.stat):
        raise ValueError("no grid cell produced a finite fold RMSE")
    return result


def grid_search_recipes(
    ds: Dataset,
    grid: GridSpec,
    recipes,
    seed: int = 0,
    adam: AdamConfig | None = None,
    scaling: str = "minmax",
    selection: str = "best_fold",
) -> list[GridSearchResult]:
    """:func:`grid_search_cv` of each of several recipes on one dataset,
    trained together; returns one result per recipe, bit for bit the
    result of its own :func:`grid_search_cv`.

    The recipes (distinct loss kinds) share the folds and the rungs.  A
    rung runs when some recipe has more than :data:`HALVING_FLOOR` cells
    still training; every recipe then trains its cells to it and is scored
    there.  Only the recipes above the floor halve, each on its own
    ranking; a recipe at the floor keeps every cell, as its own search
    trains them straight on.  Fold j of every cell of every recipe trains
    with the Adam seed ``child_seed(seed, j)``.  At each rung one
    :func:`fit_cells` call per kernel width trains the cells of every
    recipe, all from one step, in shared optimizer stacks on each fold's
    Gram matrix; one :func:`predict_cells` call per fold scores them.  A
    run to a rung resumed to step T is bit-identical to a run to T in the
    same stack layout, every stack on a fold draws the fold's batches, and
    a stack gives each kind's rows the bits of a stack of that kind alone,
    so every number equals the one-recipe search's.  The k
    training sets are built once per call.  A (cell, fold) that diverges
    scores NaN and stops alone (see :func:`~helssvr.model.fit_cells`), so
    every recipe gets a result, though its best statistic may be NaN when
    no cell has a finite one.
    """
    if selection not in ("best_fold", "mean"):
        raise ValueError(f"selection must be 'best_fold' or 'mean', got {selection!r}")
    recipes = list(recipes)
    names = [recipe.name for recipe in recipes]
    if not recipes or len(set(names)) != len(names):
        raise ValueError(f"grid_search_recipes needs distinct recipes, got {names}")
    adam = AdamConfig() if adam is None else adam
    folds = kfold_split(ds.n, grid.k, seed)
    # the k training sets, which every rung and kernel width trains on
    all_idx = np.arange(ds.n)
    sets = [(ds.X[idx], ds.y[idx]) for idx in (np.setdiff1d(all_idx, t, assume_unique=True) for t in folds)]
    fold_seeds = [child_seed(seed, j) for j in range(len(folds))]
    cells = [_enumerate_cells(grid, recipe) for recipe in recipes]
    # each recipe's latest result per cell, its (cell, fold) optimizer
    # states, and the cells it still trains
    results = [[None] * len(c) for c in cells]
    states = [{} for _ in recipes]
    training = [list(range(len(c))) for c in cells]

    def rank(res):
        # a non-finite statistic ranks last
        return res.stat if math.isfinite(res.stat) else math.inf

    rungs = [adam.max_iter * r // 10 for r in RUNG_TENTHS]
    for steps in [*(r for r in rungs if 0 < r < adam.max_iter), adam.max_iter]:
        final = steps == adam.max_iter
        if not final and all(len(ids) <= HALVING_FLOOR for ids in training):
            continue
        sigmas: dict = {}  # each kernel width's (recipe, cell) pairs that train
        for r, ids in enumerate(training):
            for i in ids:
                sigmas.setdefault(cells[r][i].sigma, []).append((r, i))
        run = replace(adam, max_iter=steps)
        for sigma, owners in sigmas.items():
            # every fold of every cell in one fit_cells call, each fold's
            # held-out kernel rows once for all its cells
            params = [cells[r][i] for r, i in owners]
            cell_losses = [recipes[r].build_loss(p.epsilon, p.lam, p.a) for (r, _), p in zip(owners, params)]
            specs = [(j, loss, p.C, p.gamma) for j in range(len(folds)) for loss, p in zip(cell_losses, params)]
            resume = [states[r].get((i, j)) for j in range(len(folds)) for r, i in owners]
            fitted = fit_cells(sets, recipes[0].build_kernel(sigma), specs, run, scaling=scaling, resume=resume,
                               seeds=fold_seeds)
            found = [CellResult(p, [], steps, math.nan) for p in params]
            for j, test_idx in enumerate(folds):
                fold_fits = fitted[j * len(owners) : (j + 1) * len(owners)]
                preds = predict_cells([model for model, _ in fold_fits], ds.X[test_idx])
                for (r, i), res, (_, report), pred in zip(owners, found, fold_fits, preds):
                    # a diverged fold's NaN coefficients predict NaN, so it scores NaN
                    states[r][i, j] = report.state
                    res.fold_rmse.append(compute_metrics(ds.y[test_idx], pred).rmse)
                    if report.state.diverged is not None:
                        res.diverged = res.diverged or (j, report.state.diverged)
            for (r, i), res in zip(owners, found):
                res.stat = float(np.min(res.fold_rmse) if selection == "best_fold" else np.mean(res.fold_rmse))
                results[r][i] = res
        if final:
            break
        for r, ids in enumerate(training):
            # sorted is stable, so ties go to the earlier cell; a recipe at
            # the floor keeps every cell
            ranked = sorted(ids, key=lambda i: rank(results[r][i]))
            training[r] = sorted(ranked[: max(HALVING_FLOOR, -(-len(ids) // 2))])

    return [GridSearchResult(best=min(res, key=rank), cells=res, folds=folds) for res in results]


# ---------------------------------------------------------------------------
# The benchmark protocol: search, refit and score every (dataset, recipe).


@dataclass(frozen=True)
class BenchmarkRecord:
    """A (dataset, recipe) work item of :func:`run_benchmark` that
    succeeded: its search, the search seconds apportioned to it, its refit
    and the refit's metrics on the held-out rows."""

    dataset: str
    model: str
    search: GridSearchResult
    search_seconds: float
    refit: FitReport
    metrics: MetricsReport


def _hold_out(ds: Dataset, k: int, seed: int) -> tuple[Dataset, Dataset]:
    """``ds`` split into the rows a benchmark searches and refits on and the
    rows that score the refit: the first of ``k`` :func:`kfold_split`
    folds, on a seed stream apart from the search's folds, the same for
    every recipe."""
    held = -(-ds.n // k)  # kfold_split's first fold is one of the larger ones
    if ds.n - held < k:
        raise ValueError(f"{ds.n} rows are too few for grid.k={k}: holding out {held} rows to score the refit"
                         f" leaves {ds.n - held}, fewer than the search's {k} folds")
    test = kfold_split(ds.n, k, child_seed(seed, 0x7E57))[0]
    return Dataset(np.delete(ds.X, test, axis=0), np.delete(ds.y, test)), Dataset(ds.X[test], ds.y[test])


def run_benchmark(datasets, recipes, grid: GridSpec, adam: AdamConfig, seed: int = 0, scaling: str = "minmax",
                  selection: str = "best_fold") -> tuple[list, list]:
    """Search, refit and score every recipe of ``recipes`` (distinct
    :class:`ModelRecipe` kinds, else ValueError before any work) on every
    ``(name, Dataset)`` pair of ``datasets``: the protocol of
    ``helssvr bench``.

    Each dataset first gives up 1/``grid.k`` of its rows, the first of
    ``grid.k`` folds on a seed stream apart from the search's, so every
    recipe of a dataset is scored on the same rows.  One
    :func:`grid_search_recipes` call per dataset searches its recipes on
    the other rows; its wall time is apportioned to the recipes in
    proportion to their cell-steps, not measured per recipe.  One
    :func:`fit_cells` call per recipe then refits its winning cells, one
    per dataset, on the searched rows with the Adam seed ``adam.seed``; each
    is the only cell of its set, so it is bit for bit a :func:`fit` of its
    own.  :func:`predict` scores each refit on its held-out rows, which neither
    the search nor the refit saw (Cawley & Talbot 2010).  Every number is
    bit for bit what a run of one recipe writes.

    Returns ``(records, failures)``: a :class:`BenchmarkRecord` per
    (dataset, recipe) that succeeded, sorted by (dataset, model), and each
    failed one as ``(dataset, model, exception)``, with model ``*`` for a
    dataset too small to hold rows out.  A search without a finite cell
    and a refit that diverged fail their own item; an exception a search
    or refit call raises fails each item of that call.  The other items go
    on.  Prints nothing.
    """
    recipes = list(recipes)
    if len({recipe.name for recipe in recipes}) != len(recipes):
        raise ValueError(f"run_benchmark needs distinct recipes, got {[recipe.name for recipe in recipes]}")
    records, failures = [], []
    searched = []  # (name, recipe, searched rows, held-out rows, search result, seconds)
    for name, ds in datasets:
        try:
            ds, test = _hold_out(ds, grid.k, seed)
        except ValueError as exc:
            failures.append((name, "*", exc))
            continue
        t0 = time.perf_counter()
        try:
            results = grid_search_recipes(ds, grid, recipes, seed=seed, adam=adam, scaling=scaling,
                                          selection=selection)
        except Exception as exc:
            failures.extend((name, recipe.name, exc) for recipe in recipes)
            continue
        wall = time.perf_counter() - t0
        steps = [sum(cell.iterations * len(cell.fold_rmse) for cell in res.cells) for res in results]
        for recipe, res, k in zip(recipes, results, steps):
            try:
                searched.append((name, recipe, ds, test, _finite_best(res), wall * k / sum(steps)))
            except ValueError as exc:
                failures.append((name, recipe.name, exc))
    # every recipe's refits stack alike, so that the training times (a
    # stack's wall time split evenly among its rows) compare across recipes
    for recipe in dict.fromkeys(item[1] for item in searched):
        mine = [item for item in searched if item[1] is recipe]
        params = [res.best.params for *_, res, _ in mine]
        try:
            fitted = fit_cells([(ds.X, ds.y) for _, _, ds, *_ in mine], [recipe.build_kernel(p.sigma) for p in params],
                               [(k, recipe.build_loss(p.epsilon, p.lam, p.a), p.C, p.gamma)
                                for k, p in enumerate(params)], adam, scaling=scaling)
        except Exception as exc:
            failures.extend((item[0], recipe.name, exc) for item in mine)
            continue
        for (name, _, _, test, res, secs), pair in zip(mine, fitted):
            try:
                model, report = check_trained(pair)
                metrics = compute_metrics(test.y, predict(model, test.X))
                records.append(BenchmarkRecord(name, recipe.name, res, secs, report, metrics))
            except Exception as exc:
                failures.append((name, recipe.name, exc))
    records.sort(key=lambda r: (r.dataset, r.model))
    return records, failures


# ---------------------------------------------------------------------------
# Rank statistics across datasets.

#: two-tailed critical values of the studentized range / sqrt(2) at the 5%
#: level, indexed by the number of compared models
NEMENYI_Q_ALPHA_05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


def friedman_chi2(avg_ranks, D: int, p: int | None = None) -> float:
    """Rank chi-square statistic from the models' average ranks."""
    avg_ranks = np.asarray(avg_ranks, dtype=float)
    if p is None:
        p = avg_ranks.size
    if p < 2:
        raise ValueError("need at least two models")
    if D < 1:
        raise ValueError("need at least one dataset")
    return float(12.0 * D / (p * (p + 1)) * (np.sum(avg_ranks**2) - p * (p + 1) ** 2 / 4.0))


def iman_davenport_F(chi2: float, D: int, p: int) -> float:
    """F-distributed refinement of the rank chi-square statistic."""
    denom = D * (p - 1) - chi2
    if denom <= 0:
        raise ValueError("statistic undefined: D*(p-1) must exceed chi2")
    return float((D - 1) * chi2 / denom)


def nemenyi_cd(q_alpha: float, p: int, D: int) -> float:
    """Critical difference threshold for pairwise average-rank gaps."""
    if q_alpha <= 0:
        raise ValueError("q_alpha must be > 0")
    return float(q_alpha * math.sqrt(p * (p + 1) / (6.0 * D)))


def _row_ranks(values: np.ndarray, tie: str) -> np.ndarray:
    ranks = np.full(values.shape, np.nan)
    present = ~np.isnan(values)
    vals = values[present]
    out = np.empty(vals.size)
    for i, v in enumerate(vals):
        smaller = int(np.sum(vals < v))
        if tie == "competition":
            out[i] = smaller + 1
        else:  # fractional: tied entries share the mean of their positions
            equal = int(np.sum(vals == v))
            out[i] = smaller + (equal + 1) / 2.0
    ranks[present] = out
    return ranks


def _truncate(twice_sum: int, count: int, decimals: int) -> float:
    """The average rank ``twice_sum / (2 * count)`` cut to ``decimals`` places.

    Integer arithmetic: a floating-point floor of ``x * 10**decimals`` cuts
    an exact average such as 2.28 (stored as 2.27999...) to 2.2799.
    """
    scale = 10**decimals
    return (twice_sum * scale // (2 * count)) / scale


@dataclass
class RankAnalysis:
    """Per-dataset ranks, average ranks, and the test statistics."""

    rank_matrix: np.ndarray
    avg_ranks: np.ndarray
    stat_ranks: np.ndarray
    D: int
    p: int
    chi2_F: float
    F_F: float
    CD: float
    q_alpha: float
    pairwise: np.ndarray
    complete: bool
    tie: str
    model_names: list[str] | None = None


def rank_models(
    table,
    tie: str = "competition",
    q_alpha: float | None = None,
    rank_decimals: int | None = 4,
    model_names: list[str] | None = None,
) -> RankAnalysis:
    """Rank models per dataset and run the rank tests on the averages.

    ``table`` is a D x p array of scores (lower is better) with NaN for
    absent entries.  The default tie convention is competition style (tied
    best models share rank 1, the next model gets rank 3); ``tie="fractional"``
    uses mean positions instead.  A model's average divides by the number
    of datasets where it is present; the chi-square statistic always uses
    the full dataset count D.

    ``rank_decimals`` truncates the average ranks to that many decimal
    places (>= 0) before the test statistics are computed, which matches
    how the statistics are conventionally recomputed from 4-decimal
    published rank tables; pass None to use the exact averages.

    Raises ValueError, naming ``rank.tie=fractional``, when the chi-square
    statistic of the exact averages lies outside [0, D(p-1)], as it can
    when competition ranks of tied models sum to less than p(p+1)/2.
    """
    values = np.asarray(table, dtype=float)
    if values.ndim != 2:
        raise ValueError("rank table must be 2-d")
    D, p = values.shape
    if p < 2:
        raise ValueError("need at least two models to rank")
    if tie not in ("competition", "fractional"):
        raise ValueError(f"tie must be 'competition' or 'fractional', got {tie!r}")
    if rank_decimals is not None and rank_decimals < 0:
        raise ValueError(f"rank_decimals must be >= 0 or None, got {rank_decimals}")

    rank_matrix = np.full(values.shape, np.nan)
    for i in range(D):
        present = ~np.isnan(values[i])
        if present.sum() < 2:
            raise ValueError(f"dataset row {i} needs at least two present entries")
        rank_matrix[i] = _row_ranks(values[i], tie)

    present_counts = np.sum(~np.isnan(rank_matrix), axis=0)
    if not present_counts.all():
        raise ValueError(f"model column {int(np.argmin(present_counts))} has no present entries")
    avg_ranks = np.nansum(rank_matrix, axis=0) / present_counts

    if rank_decimals is None:
        stat_ranks = avg_ranks.copy()
    else:
        # ranks are multiples of 1/2, so twice a model's rank sum is an integer
        twice_sums = np.nansum(2 * rank_matrix, axis=0)
        stat_ranks = np.array(
            [_truncate(int(s), int(c), rank_decimals) for s, c in zip(twice_sums, present_counts)]
        )

    chi2 = friedman_chi2(stat_ranks, D, p)
    # the statistic lies in [0, D(p-1)] when each dataset's ranks sum to
    # p(p+1)/2; checked on the exact averages, with room for rounding only,
    # so that rank_decimals' truncation cannot trip it
    exact, top = friedman_chi2(avg_ranks, D, p), D * (p - 1)
    if not -1e-9 * top <= exact <= top * (1 + 1e-9):
        raise ValueError(
            f"the Friedman chi-square {chi2:.4f} lies outside [0, D(p-1)] = [0, {top}]: it assumes that each"
            f" dataset's ranks sum to p(p+1)/2, which {tie} ranks of tied models or absent entries break;"
            " rank with rank.tie=fractional on a table without absent entries"
        )
    f_f = iman_davenport_F(chi2, D, p) if top > chi2 else math.inf
    if q_alpha is None:
        if p not in NEMENYI_Q_ALPHA_05:
            raise ValueError(f"no built-in q_alpha for p={p}; pass q_alpha explicitly")
        q_alpha = NEMENYI_Q_ALPHA_05[p]
    cd = nemenyi_cd(q_alpha, p, D)
    gaps = np.abs(stat_ranks[:, None] - stat_ranks[None, :])
    pairwise = gaps > cd

    return RankAnalysis(
        rank_matrix=rank_matrix,
        avg_ranks=avg_ranks,
        stat_ranks=stat_ranks,
        D=D,
        p=p,
        chi2_F=chi2,
        F_F=f_f,
        CD=cd,
        q_alpha=float(q_alpha),
        pairwise=pairwise,
        complete=bool(not np.any(np.isnan(values))),
        tie=tie,
        model_names=model_names,
    )


def format_rank_report(analysis: RankAnalysis, critical_f: float | None = None) -> str:
    """Human-readable summary of a rank analysis."""
    names = analysis.model_names or [f"model_{j}" for j in range(analysis.p)]
    lines = []
    lines.append(f"models compared : {analysis.p}")
    lines.append(f"datasets        : {analysis.D}")
    lines.append(f"tie convention  : {analysis.tie}")
    if not analysis.complete:
        lines.append(
            "note: the design is incomplete (absent entries); averages divide by"
            " per-model present counts and the chi-square statistic is heuristic"
        )
    if analysis.D == 1:
        lines.append("warning: only one dataset; the F test is not meaningful")
    lines.append("")
    lines.append("average ranks (lower is better):")
    order = np.argsort(analysis.avg_ranks)
    for j in order:
        lines.append(f"  {names[j]:<32s} {analysis.avg_ranks[j]:.4f}")
    lines.append("")
    lines.append(f"chi-square rank statistic : {analysis.chi2_F:.4f}")
    f_repr = "inf" if math.isinf(analysis.F_F) else f"{analysis.F_F:.4f}"
    lines.append(f"F statistic               : {f_repr}")
    if critical_f is not None:
        verdict = "reject" if analysis.F_F > critical_f else "fail to reject"
        lines.append(
            f"critical F                : {critical_f:.4f} -> {verdict} the equal-performance hypothesis"
        )
    lines.append(f"critical difference       : {analysis.CD:.4f} (q_alpha={analysis.q_alpha})")
    lines.append("")
    lines.append("pairwise significant rank gaps (|gap| > CD):")
    for i in range(analysis.p):
        for j in range(i + 1, analysis.p):
            gap = abs(analysis.stat_ranks[i] - analysis.stat_ranks[j])
            flag = "significant" if analysis.pairwise[i, j] else "not significant"
            lines.append(f"  {names[i]} vs {names[j]}: gap={gap:.4f} -> {flag}")
    return "\n".join(lines) + "\n"
