"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance and runtime bound is asserted.
"""

import math
import time

import numpy as np

from helssvr.cli import main as cli_main
from helssvr.data import Dataset, SyntheticSpec, generate_synthetic
from helssvr.evaluation import (
    GridSpec,
    ModelRecipe,
    compute_metrics,
    friedman_chi2,
    grid_search_cv,
    iman_davenport_F,
    nemenyi_cd,
    rank_models,
)
from helssvr.kernels import KernelSpec, gram_matrix
from helssvr.losses import LossSpec, loss_derivative, loss_value
from helssvr.model import fit, predict
from helssvr.optimizer import BETA1, BETA2, DELTA, START, AdamConfig, AdamState, adam_step, objective_value
from helssvr.seeding import make_rng, sample_without_replacement
from test_optimizer import objective_gradient

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


def report(number, name, started, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} ({time.perf_counter() - started:.2f}s)")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_loss_axioms():
    started = time.perf_counter()
    ok = True
    rng = np.random.default_rng(20_240)
    n = 10_000
    eps = rng.uniform(0.01, 1.0, n)
    avals = rng.uniform(0.1, 5.0, n)
    lams = rng.uniform(0.1, 2.0, n)
    rs = rng.uniform(-12.0, 12.0, n)
    inner_coords = rng.uniform(-0.999, 0.999, n)

    for e, a, lam, r, u in zip(eps, avals, lams, rs, inner_coords):
        spec = LossSpec("hawkeye", epsilon=e, a=a, lam=lam)
        v = loss_value(spec, r)
        ok &= v >= 0.0
        ok &= v <= lam
        ok &= v == loss_value(spec, -r)
        ok &= loss_value(spec, u * e) == 0.0  # sparsity inside the band
        ok &= loss_value(spec, abs(r)) <= loss_value(spec, abs(r) + 0.7)
    # saturation at extreme residuals
    ok &= loss_value(LossSpec("hawkeye", epsilon=0.3, a=2.0, lam=1.4), 1e6) <= 1.4
    ok &= loss_value(LossSpec("hawkeye", epsilon=0.3, a=2.0, lam=1.4), -1e6) <= 1.4

    # finite-difference smoothness at 1000 random points plus the band edges
    h = 1e-6
    fd_rng = np.random.default_rng(77)
    for _ in range(1000):
        e = float(fd_rng.uniform(0.05, 1.0))
        a = float(fd_rng.uniform(0.1, 3.0))
        lam = float(fd_rng.uniform(0.1, 2.0))
        spec = LossSpec("hawkeye", epsilon=e, a=a, lam=lam)
        r = float(fd_rng.uniform(-(e + 5.0 / a), e + 5.0 / a))
        fd = (loss_value(spec, r + h) - loss_value(spec, r - h)) / (2 * h)
        d = loss_derivative(spec, r)
        ok &= abs(fd - d) <= max(1e-5, 1e-6 * abs(d))
    edge_spec = LossSpec("hawkeye", epsilon=0.5, a=2.0, lam=1.5)
    for r in (0.5 + 1e-8, 0.5 - 1e-8, -0.5 + 1e-8, -0.5 - 1e-8):
        fd = (loss_value(edge_spec, r + h) - loss_value(edge_spec, r - h)) / (2 * h)
        ok &= abs(fd - loss_derivative(edge_spec, r)) <= 1e-5

    elapsed_ok = time.perf_counter() - started < 5.0
    report(1, "loss axioms", started, ok and elapsed_ok)


def test_criterion_2_gradient_oracle():
    started = time.perf_counter()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        X = rng.uniform(-1, 1, size=(n, int(rng.integers(1, 4))))
        y = rng.uniform(-1, 1, size=n)
        gram = gram_matrix(KernelSpec("rbf", sigma=float(rng.uniform(0.5, 2.0))), X)
        C = float(rng.uniform(0.5, 5.0))
        alpha = rng.normal(scale=0.5, size=n)
        for loss in (
            LossSpec("hawkeye", epsilon=0.1, a=float(rng.uniform(0.5, 2.0)), lam=1.0),
            LossSpec("least_squares"),
        ):
            g = objective_gradient(alpha, gram, y, C, loss, np.arange(n))
            h = 1e-6
            for j in range(n):
                up, dn = alpha.copy(), alpha.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    objective_value(up, gram, y, C, loss)
                    - objective_value(dn, gram, y, C, loss)
                ) / (2 * h)
                ok &= abs(g[j] - fd) <= max(1e-5, 1e-4 * abs(fd))
    elapsed_ok = time.perf_counter() - started < 10.0
    report(2, "gradient oracle", started, ok and elapsed_ok)


def test_criterion_3_adam_step_oracle():
    started = time.perf_counter()
    ok = True
    gs = np.array([1.0, -0.5, 2.0])  # constant gradient, three coordinates
    beta1, beta2, gamma, delta = 0.9, 0.999, 0.01, 1e-8

    # hand-scripted two-step trace from the trainer's start, plain python
    # floats per coordinate
    expected = []
    for g in gs:
        m = v = alpha = 0.01
        coords = []
        for t in (1, 2):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            alpha = alpha - gamma * m_hat / math.sqrt(v_hat + delta)
            coords.append(alpha)
        expected.append(coords)
    expected = np.array(expected)  # (coord, step)

    ok &= (BETA1, BETA2, DELTA, START) == (beta1, beta2, delta, 0.01)
    state = AdamState(alpha=np.full(3, START), m=np.full(3, START), v=np.full(3, START), t=0)
    for step in range(2):
        state = adam_step(state, gs, gamma)
        rel = np.abs(state.alpha - expected[:, step]) / np.abs(expected[:, step])
        ok &= bool(np.all(rel <= 1e-12))
    report(3, "adam step oracle", started, ok)


def test_criterion_4_statistics_reproduction():
    started = time.perf_counter()
    ok = True
    chi2 = friedman_chi2([2.5294, 3.8888, 2.0, 1.2777], D=18, p=4)
    ok &= abs(chi2 - 23.2540) <= 1e-3
    ff = iman_davenport_F(chi2, D=18, p=4)
    ok &= abs(ff - 12.8575) <= 1e-3
    cd = nemenyi_cd(2.569, p=4, D=18)
    ok &= abs(cd - 1.1055) <= 5e-4

    analysis = rank_models(RMSE_TABLE)
    mask = ~np.isnan(EXPECTED_RANKS)
    ok &= bool(np.array_equal(analysis.rank_matrix[mask], EXPECTED_RANKS[mask]))
    ok &= bool(np.all(np.isnan(analysis.rank_matrix[~mask])))
    ok &= abs(analysis.avg_ranks[0] - 43.0 / 17.0) < 1e-12  # 17 present rows
    ok &= abs(analysis.chi2_F - 23.2540) <= 1e-3
    ok &= abs(analysis.F_F - 12.8575) <= 1e-3
    ok &= abs(analysis.CD - 1.1055) <= 5e-4
    report(4, "statistics reproduction", started, ok)


def test_criterion_5_metrics():
    started = time.perf_counter()
    ok = True
    rep = compute_metrics([0.0, 0.0], [1.0, -1.0])
    ok &= rep.rmse == 1.0 and rep.mae == 1.0
    ok &= rep.error_pos == 1.0 and rep.error_neg == 1.0
    rep = compute_metrics([3.0], [1.0])
    ok &= rep.rmse == 2.0 and rep.mae == 2.0
    ok &= rep.error_pos == 2.0 and rep.error_neg is None
    rep = compute_metrics([1.0, 2.0], [1.0, 2.0])
    ok &= rep.rmse == 0.0 and rep.error_pos == 0.0 and rep.error_neg is None

    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(1, 15))
        y = rng.normal(scale=3.0, size=n)
        f = rng.normal(scale=3.0, size=n)
        r = compute_metrics(y, f)
        ok &= r.mae <= r.rmse + 1e-12
    report(5, "metrics reproduction", started, ok)


def test_criterion_6_synthetic_regression():
    started = time.perf_counter()
    grid = GridSpec(
        C_values=(1.0, 100.0, 10000.0),
        sigma_values=(0.1, 1.0, 10.0),
        epsilon_values=(0.05,),
        lambda_values=(1.0,),
        a_values=(1.0, 3.0),
        gamma_values=(0.01,),
        k=5,
    )
    recipe = ModelRecipe("hawkeye")
    adam = AdamConfig(batch_size=400)  # >= n: deterministic full-batch descent
    rmses = {}
    for fid in (1, 2, 3, 4, 5):
        ds, y_true = generate_synthetic(SyntheticSpec(fid, "gaussian", n_samples=500, seed=100 + fid))
        train = Dataset(X=ds.X[:400], y=ds.y[:400], name=f"f{fid}")
        res = grid_search_cv(
            train, grid, recipe, seed=fid, adam=adam, scaling="zscore", selection="mean"
        )
        p = res.best_params
        model, _ = fit(
            train.X,
            train.y,
            recipe.build_kernel(p.sigma),
            recipe.build_loss(p.epsilon, p.lam, p.a),
            C=p.C,
            adam=AdamConfig(batch_size=400, gamma=p.gamma, seed=fid),
            scaling="zscore",
        )
        rmses[fid] = compute_metrics(y_true[400:], predict(model, ds.X[400:])).rmse
    elapsed = time.perf_counter() - started
    print("  noise-free test RMSE per function:", {k: round(v, 4) for k, v in rmses.items()})
    ok = all(v < 0.08 for v in rmses.values()) and elapsed < 120.0
    report(6, "synthetic desk-scale regression", started, ok)


def test_criterion_7_robustness_ordering():
    started = time.perf_counter()
    wins = 0
    for seed in range(5):
        ds, y_true = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=500, seed=1000 + seed))
        X_tr, y_tr = ds.X[:400], ds.y[:400].copy()
        X_te, y_te_true = ds.X[400:], y_true[400:]
        corrupt = sample_without_replacement(make_rng(77, seed), 400, 40)
        y_tr[corrupt] += 5.0
        adam = AdamConfig(batch_size=400, seed=seed)
        kernel = KernelSpec("rbf", sigma=0.3)
        he, _ = fit(
            X_tr, y_tr, kernel, LossSpec("hawkeye", epsilon=0.05, a=3.0, lam=1.0),
            C=100.0, adam=adam, scaling="zscore",
        )
        ls, _ = fit(
            X_tr, y_tr, kernel, LossSpec("least_squares"), C=100.0, adam=adam, scaling="zscore"
        )
        rmse_he = compute_metrics(y_te_true, predict(he, X_te)).rmse
        rmse_ls = compute_metrics(y_te_true, predict(ls, X_te)).rmse
        wins += rmse_he < rmse_ls
    elapsed = time.perf_counter() - started
    print(f"  corrupted-training wins: {wins}/5")
    report(7, "robustness ordering", started, wins == 5 and elapsed < 60.0)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    ok = True
    data = tmp_path / "toy.csv"
    ds, y_true = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=60, seed=4))
    from helssvr.data import write_synthetic_csv

    write_synthetic_csv(data, ds, y_true)

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["train", "--data", str(data), "--target", "y", "--seed", "3",
            "--set", "adam.max_iter=200"]
    ok &= cli_main(argv + ["--out", str(m1)]) == 0
    ok &= cli_main(argv + ["--out", str(m2)]) == 0
    ok &= m1.read_bytes() == m2.read_bytes()

    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    bench_argv = [
        "bench", "--data", str(data), "--target", "y", "--drop", "y_true",
        "--recipes", "hawkeye,least_squares",
        "--set", "grid.C=1,100", "--set", "grid.sigma=0.3,1", "--set", "grid.a=1",
        "--set", "grid.k=3", "--set", "adam.max_iter=150",
    ]
    ok &= cli_main(bench_argv + ["--outdir", str(b1)]) == 0
    ok &= cli_main(bench_argv + ["--outdir", str(b2)]) == 0

    import csv as _csv

    def rows_without_timing(path):
        with open(path, newline="") as fh:
            return [r[:6] for r in _csv.reader(fh)]

    ok &= rows_without_timing(b1 / "results.csv") == rows_without_timing(b2 / "results.csv")
    ok &= (b1 / "best_params.csv").read_bytes() == (b2 / "best_params.csv").read_bytes()
    report(8, "determinism", started, ok)


def test_criterion_9_end_to_end_cli(tmp_path):
    started = time.perf_counter()
    ok = True
    paths = []
    for fid in (1, 2, 3, 4, 5):
        for noise in ("gaussian", "uniform", "student"):
            out = tmp_path / f"f{fid}_{noise}.csv"
            rc = cli_main(
                ["synth", "--function", str(fid), "--noise", noise, "--n", "500",
                 "--seed", str(10 * fid), "--out", str(out)]
            )
            ok &= rc == 0
            paths.append(str(out))
    ok &= len(paths) == 15

    outdir = tmp_path / "bench"
    rc = cli_main(
        ["bench", "--data", *paths, "--target", "y", "--drop", "y_true",
         "--recipes", "hawkeye,least_squares",
         "--outdir", str(outdir),
         "--set", "grid.C=100", "--set", "grid.sigma=0.3,1", "--set", "grid.a=1,3",
         "--set", "grid.k=5", "--set", "scaling=zscore"]
    )
    ok &= rc == 0

    import csv as _csv

    with open(outdir / "results.csv", newline="") as fh:
        rows = list(_csv.reader(fh))
    ok &= len(rows) == 31  # header + 15 datasets x 2 recipes

    rank_prefix = tmp_path / "rank"
    rc = cli_main(
        ["rank", "--input", str(outdir / "results.csv"), "--out", str(rank_prefix),
         "--set", "rank.critical_f=4.60"]
    )
    ok &= rc == 0
    report_text = (tmp_path / "rank_report.txt").read_text()
    ok &= "average ranks" in report_text
    ok &= "critical difference" in report_text
    elapsed = time.perf_counter() - started
    ok &= elapsed < 600.0
    report(9, "end-to-end cli", started, ok)
