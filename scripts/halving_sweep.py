"""Successive halving against the exhaustive grid search, input by input.

    python3 scripts/halving_sweep.py           # the full sweep, a few minutes
    python3 scripts/halving_sweep.py --tiny    # small inputs, a few seconds

Run it from the root of a checkout; it imports helssvr from ``src/``.  Each
input is searched twice: exhaustively (every cell trained for all of
``max_iter`` steps, by emptying ``evaluation.RUNG_TENTHS``) and with the
library's successive halving.  For each it prints the selected cell, the
refit's noise-free RMSE on held-out rows and the search's wall seconds.

Two tables:

* ``grid_cv``: the benchmark's grid_cv inputs (function 1, Gaussian noise,
  500 rows of which 400 train, seeds 100-109, 200-209 and 500) with its
  search: the 18-cell grid, 5 folds, full batch, zscore, fold mean.
* ``bench``: the same inputs with ``helssvr bench``'s defaults: the same
  18-cell grid at mini-batch 32, min-max scaling, best fold.  Its refit
  RMSE is the kind of error ``helssvr bench`` writes to ``results.csv``:
  the winning cell refitted on the searched rows and scored on held-out
  rows that neither the search nor the refit saw (bench too holds out 1/5
  of the rows at its default ``grid.k=5``), though here against the
  noise-free targets and bench against the noisy ones.

The last line counts the inputs where both searches selected the same cell.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import helssvr as hs  # noqa: E402
from helssvr import evaluation  # noqa: E402

SEEDS = (*range(100, 110), *range(200, 210), 500)
GRID = dict(C_values=(1.0, 100.0, 10000.0), sigma_values=(0.1, 1.0, 10.0), a_values=(1.0, 3.0), k=5)
# (table, scaling, selection, batch size; None is full batch)
SETUPS = (("grid_cv", "zscore", "mean", None), ("bench", "minmax", "best_fold", 32))


@contextlib.contextmanager
def exhaustive():
    """Searches without rungs while the block runs."""
    rungs = evaluation.RUNG_TENTHS
    evaluation.RUNG_TENTHS = ()
    try:
        yield
    finally:
        evaluation.RUNG_TENTHS = rungs


def run_search(train, X_test, y_test_true, grid, scaling, selection, adam):
    """The selected cell, the refit's noise-free test RMSE, the search seconds."""
    recipe = hs.ModelRecipe("hawkeye")
    t0 = time.perf_counter()
    res = hs.grid_search_cv(train, grid, recipe, seed=0, adam=adam, scaling=scaling, selection=selection)
    seconds = time.perf_counter() - t0
    p = res.best_params
    model, _ = hs.fit(
        train.X, train.y, recipe.build_kernel(p.sigma), recipe.build_loss(p.epsilon, p.lam, p.a),
        C=p.C, adam=replace(adam, gamma=p.gamma), scaling=scaling,
    )
    rmse = hs.compute_metrics(y_test_true, hs.predict(model, X_test)).rmse
    return (p.C, p.sigma, p.a), rmse, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="two seeds, 80 rows and 150 steps")
    args = parser.parse_args(argv)
    seeds, n_train, n_test, max_iter = ((100, 500), 60, 20, 150) if args.tiny else (SEEDS, 400, 100, 1000)
    grid = hs.GridSpec(**GRID)
    same = total = 0
    for table, scaling, selection, batch in SETUPS:
        print(f"\n{table}: {scaling}, {selection}, batch {batch or 'full'}, {max_iter} steps")
        print(f"{'seed':>5}  {'exhaustive (C, sigma, a)':<26} {'rmse':>8} {'s':>6}  "
              f"{'halving (C, sigma, a)':<26} {'rmse':>8} {'s':>6}")
        for seed in seeds:
            spec = hs.SyntheticSpec(1, "gaussian", n_samples=n_train + n_test, seed=seed)
            ds, y_true = hs.generate_synthetic(spec)
            train = hs.Dataset(X=ds.X[:n_train], y=ds.y[:n_train], name=ds.name)
            adam = hs.AdamConfig(batch_size=batch or n_train, max_iter=max_iter)
            inputs = (train, ds.X[n_train:], y_true[n_train:], grid, scaling, selection, adam)
            with exhaustive():
                full = run_search(*inputs)
            halved = run_search(*inputs)
            same += full[0] == halved[0]
            total += 1
            print(f"{seed:>5}  " + "  ".join(f"{str(c):<26} {r:8.4f} {s:6.2f}" for c, r, s in (full, halved)))
    print(f"\nsame selected cell on {same} of {total} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
