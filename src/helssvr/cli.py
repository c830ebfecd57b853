"""Command-line front end: train, predict, synth, bench, rank.

Configuration is layered: built-in defaults, then an optional flat
key=value config file, then command-line flags (``--set key=value`` plus
the named convenience flags).  Unknown keys are rejected before any
computation starts.

Exit codes: 0 success, 1 benchmark finished with some failed work items,
2 configuration error, 3 data or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_features,
    write_synthetic_csv,
)
from .evaluation import (
    GridSpec,
    compute_metrics,
    format_rank_report,
    grid_search_cv,
    rank_models,
    recipe_from_name,
)
from .kernels import KernelSpec
from .losses import LOSS_KINDS, LossSpec, required_params
from .model import fit, load_model, predict, save_model
from .optimizer import AVERAGES, AdamConfig


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in str(text).split(",") if v.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


def _parse_optional_float(text: str):
    low = str(text).strip().lower()
    return None if low in ("", "none") else float(text)


def _parse_optional_int(text: str):
    low = str(text).strip().lower()
    return None if low in ("", "none") else int(text)


def _parse_choice(*allowed):
    def parse(text):
        if text not in allowed:
            raise ValueError(f"must be one of {allowed}, got {text!r}")
        return text

    return parse


# key -> (default, parser-from-string)
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (0, int),
    "scaling": ("minmax", _parse_choice("none", "minmax", "zscore")),
    "trace": (False, _parse_bool),
    "C": (100.0, float),
    "loss.kind": ("hawkeye", _parse_choice(*LOSS_KINDS)),
    "loss.epsilon": (0.05, float),
    "loss.a": (1.0, float),
    "loss.lambda": (1.0, float),
    "loss.theta": (None, _parse_optional_float),
    "loss.t": (None, _parse_optional_float),
    "kernel.kind": ("rbf", _parse_choice("rbf", "linear")),
    "kernel.sigma": (1.0, float),
    "adam.gamma": (0.01, float),
    "adam.beta1": (0.9, float),
    "adam.beta2": (0.999, float),
    "adam.delta": (1e-8, float),
    "adam.batch_size": (32, int),
    "adam.max_iter": (1000, int),
    "adam.seed": (None, _parse_optional_int),
    "adam.average": ("none", _parse_choice(*AVERAGES)),
    "grid.C": ((1.0, 100.0, 10000.0), _parse_float_list),
    "grid.sigma": ((0.1, 1.0, 10.0), _parse_float_list),
    "grid.epsilon": ((0.05,), _parse_float_list),
    "grid.lambda": ((1.0,), _parse_float_list),
    "grid.a": ((1.0, 3.0), _parse_float_list),
    "grid.gamma": ((0.01,), _parse_float_list),
    "grid.k": (5, int),
    "cv.selection": ("best_fold", _parse_choice("best_fold", "mean")),
    "bench.report": ("best_fold", _parse_choice("best_fold", "refit")),
    "rank.tie": ("competition", _parse_choice("competition", "fractional")),
    "rank.q_alpha": (None, _parse_optional_float),
    "rank.critical_f": (None, _parse_optional_float),
    "rank.decimals": (4, _parse_optional_int),
}


class RunConfig:
    """Validated key-value configuration with layered precedence."""

    def __init__(self):
        self.values = {k: default for k, (default, _) in CONFIG_SCHEMA.items()}
        self.explicit: set[str] = set()

    def set(self, key: str, raw: str, source: str):
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (from {source})")
        _, parser = CONFIG_SCHEMA[key]
        try:
            self.values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} (from {source}): {exc}") from exc
        self.explicit.add(key)

    def __getitem__(self, key: str):
        return self.values[key]


def _read_config_file(cfg: RunConfig, path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        cfg.set(key.strip(), value.strip(), source=f"{path}:{lineno}")


def assemble_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        _read_config_file(cfg, args.config)
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        cfg.set(key.strip(), value.strip(), source="--set")
    # named flags win over --set and the file
    for key, attr in (("seed", "seed"), ("scaling", "scaling")):
        val = getattr(args, attr, None)
        if val is not None:
            cfg.set(key, str(val), source=f"--{attr}")
    if getattr(args, "trace", False):
        cfg.set("trace", "true", source="--trace")
    return cfg


_LOSS_KEY_BY_PARAM = {
    "epsilon": "loss.epsilon",
    "a": "loss.a",
    "lam": "loss.lambda",
    "theta": "loss.theta",
    "t": "loss.t",
}


def build_loss(cfg: RunConfig) -> LossSpec:
    kind = cfg["loss.kind"]
    required = required_params(kind)
    params = {}
    for pname, key in _LOSS_KEY_BY_PARAM.items():
        if pname in required:
            value = cfg[key]
            if value is None:
                raise ConfigError(f"{key} is required for loss.kind={kind}")
            params[pname] = value
        elif key in cfg.explicit:
            raise ConfigError(f"{key} is not a parameter of loss.kind={kind}")
    try:
        return LossSpec(kind, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_kernel(cfg: RunConfig) -> KernelSpec:
    try:
        if cfg["kernel.kind"] == "rbf":
            return KernelSpec("rbf", sigma=cfg["kernel.sigma"])
        return KernelSpec("linear")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_adam(cfg: RunConfig, collect_trace: bool = False) -> AdamConfig:
    seed = cfg["adam.seed"] if cfg["adam.seed"] is not None else cfg["seed"]
    try:
        return AdamConfig(
            gamma=cfg["adam.gamma"],
            beta1=cfg["adam.beta1"],
            beta2=cfg["adam.beta2"],
            delta=cfg["adam.delta"],
            batch_size=cfg["adam.batch_size"],
            max_iter=cfg["adam.max_iter"],
            seed=seed,
            average=cfg["adam.average"],
            collect_trace=collect_trace,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg: RunConfig) -> GridSpec:
    try:
        return GridSpec(
            C_values=cfg["grid.C"],
            sigma_values=cfg["grid.sigma"],
            epsilon_values=cfg["grid.epsilon"],
            lambda_values=cfg["grid.lambda"],
            a_values=cfg["grid.a"],
            gamma_values=cfg["grid.gamma"],
            k=cfg["grid.k"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_options(args, path) -> dict:
    """The CSV options of a command line, for :func:`load_csv` or :func:`load_features`."""
    return dict(
        path=path,
        has_header=not args.no_header,
        target_column=args.target,  # a name, or an index as digits
        delimiter=args.delimiter,
        drop_columns=tuple(c.strip() for c in (args.drop or "").split(",") if c.strip()),
    )


# ---------------------------------------------------------------------------
# Commands.


def cmd_train(cfg: RunConfig, args) -> int:
    loss = build_loss(cfg)
    kernel = build_kernel(cfg)
    adam = build_adam(cfg, collect_trace=cfg["trace"])
    ds, report = load_csv(**_csv_options(args, args.data))
    model, fit_report = fit(ds.X, ds.y, kernel, loss, C=cfg["C"], adam=adam, scaling=cfg["scaling"])
    save_model(model, args.out)
    if cfg["trace"]:
        trace_path = args.trace_out or (str(args.out) + ".trace.csv")
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "objective"])
            for i, h in enumerate(fit_report.trace or []):
                w.writerow([i, repr(h)])
    print(f"model written       : {args.out}")
    print(f"training samples    : {ds.n} (rejected rows: {report.rows_rejected})")
    print(f"final objective     : {fit_report.final_objective:.6g}")
    print(f"iterations          : {fit_report.iterations}")
    print(f"fit seconds         : {fit_report.wall_time_seconds:.4f}")
    print(f"gram seconds        : {fit_report.gram_seconds:.4f}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    model = load_model(args.model)
    X = load_features(**_csv_options(args, args.data))
    preds = predict(model, X)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["prediction"])
        for p in preds:
            w.writerow([repr(float(p))])
    print(f"predictions written : {args.out} ({preds.size} rows)")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    try:
        spec = SyntheticSpec(
            function_id=args.function,
            noise=args.noise,
            n_samples=args.n,
            seed=cfg["seed"],
            sampling=args.sampling,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ds, y_true = generate_synthetic(spec)
    write_synthetic_csv(args.out, ds, y_true)
    print(f"synthetic dataset written : {args.out} ({ds.n} rows, {ds.name})")
    return 0


def _bench_one(ds, recipe, grid, cfg, adam):
    res = grid_search_cv(
        ds,
        grid,
        recipe,
        seed=cfg["seed"],
        adam=adam,
        scaling=cfg["scaling"],
        selection=cfg["cv.selection"],
    )
    best = res.best
    # refit on the full dataset with the winning cell: reported training
    # time always comes from this single fit
    loss = recipe.build_loss(best.params.epsilon, best.params.lam, best.params.a)
    kernel = recipe.build_kernel(best.params.sigma)
    refit_adam = replace(adam, gamma=best.params.gamma)
    model, refit_report = fit(
        ds.X, ds.y, kernel, loss, C=best.params.C, adam=refit_adam, scaling=cfg["scaling"]
    )
    if cfg["bench.report"] == "refit":
        metrics = compute_metrics(ds.y, predict(model, ds.X))
    else:
        metrics = best.fold_metrics[int(np.argmin(best.fold_rmse))]
    return res, metrics, refit_report


def cmd_bench(cfg: RunConfig, args) -> int:
    recipes = []
    for name in args.recipes.split(","):
        name = name.strip()
        try:
            recipes.append(recipe_from_name(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not recipes:
        raise ConfigError("bench needs at least one recipe")
    grid = build_grid(cfg)
    adam = build_adam(cfg)

    results, timings, best_rows, failures = [], [], [], []
    for path in args.data:
        dataset_name = str(path)
        try:
            ds, _ = load_csv(**_csv_options(args, path))
        except (OSError, ValueError) as exc:
            failures.append((dataset_name, "*", type(exc).__name__, str(exc)))
            continue
        for recipe in recipes:
            try:
                res, metrics, refit_report = _bench_one(ds, recipe, grid, cfg, adam)
            except Exception as exc:
                # one failed work item must not abort the others; an
                # unexpected exception type also gets its traceback
                if not isinstance(exc, (ValueError, OSError)):
                    traceback.print_exc(file=sys.stderr)
                failures.append((dataset_name, recipe.name, type(exc).__name__, str(exc)))
                continue
            results.append(
                (
                    dataset_name,
                    recipe.name,
                    metrics.rmse,
                    metrics.mae,
                    metrics.error_pos,
                    metrics.error_neg,
                    refit_report.wall_time_seconds,
                )
            )
            timings.append(
                (dataset_name, recipe.name, refit_report.wall_time_seconds, refit_report.gram_seconds)
            )
            p = res.best_params
            best_rows.append(
                (dataset_name, recipe.name, p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma, res.best_rmse)
            )

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    results.sort(key=lambda r: (r[0], r[1]))
    timings.sort(key=lambda r: (r[0], r[1]))
    best_rows.sort(key=lambda r: (r[0], r[1]))

    with open(os.path.join(outdir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "model", "rmse", "mae", "error_pos", "error_neg", "train_seconds"])
        for row in results:
            w.writerow([row[0], row[1], *[_fmt(v) for v in row[2:6]], f"{row[6]:.6f}"])
    with open(os.path.join(outdir, "timing.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "model", "fit_seconds", "gram_seconds"])
        for row in timings:
            w.writerow([row[0], row[1], f"{row[2]:.6f}", f"{row[3]:.6f}"])
    with open(os.path.join(outdir, "best_params.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma", "cv_rmse"])
        for row in best_rows:
            w.writerow([row[0], row[1], *[_fmt(v) for v in row[2:]]])
    if failures:
        with open(os.path.join(outdir, "failures.csv"), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "model", "error_type", "error"])
            w.writerows(failures)

    print(f"benchmark rows      : {len(results)} -> {os.path.join(outdir, 'results.csv')}")
    if failures:
        print(f"failed work items   : {len(failures)} -> {os.path.join(outdir, 'failures.csv')}", file=sys.stderr)
        return 1
    return 0


def _read_rank_table(path, delimiter=","):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]

    if {"dataset", "model", "rmse"} <= set(header):
        d_i, m_i, r_i = header.index("dataset"), header.index("model"), header.index("rmse")
        datasets, models = [], []
        cells = {}
        for row in body:
            if len(row) != len(header):
                raise ValueError(f"{path}: ragged row {row!r}")
            d, m, v = row[d_i], row[m_i], row[r_i]
            if d not in datasets:
                datasets.append(d)
            if m not in models:
                models.append(m)
            cells[(d, m)] = float(v) if v.strip() else np.nan
        table = np.full((len(datasets), len(models)), np.nan)
        for i, d in enumerate(datasets):
            for j, m in enumerate(models):
                if (d, m) in cells:
                    table[i, j] = cells[(d, m)]
        return table, datasets, models

    models = header[1:]
    if not models:
        raise ValueError(f"{path}: wide rank table needs model columns")
    datasets, values = [], []
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged row {row!r}")
        datasets.append(row[0])
        parsed = []
        for cell in row[1:]:
            cell = cell.strip()
            parsed.append(np.nan if cell in ("", "-") else float(cell))
        values.append(parsed)
    return np.asarray(values, dtype=float), datasets, models


def cmd_rank(cfg: RunConfig, args) -> int:
    table, datasets, models = _read_rank_table(args.input, delimiter=args.delimiter)
    analysis = rank_models(
        table,
        tie=cfg["rank.tie"],
        q_alpha=cfg["rank.q_alpha"],
        rank_decimals=cfg["rank.decimals"],
        model_names=models,
        dataset_names=datasets,
    )
    ranks_path = f"{args.out}_ranks.csv"
    with open(ranks_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", *models])
        for name, row in zip(datasets, analysis.rank_matrix):
            w.writerow([name, *[("" if np.isnan(v) else _fmt(float(v))) for v in row]])
        w.writerow(["average_rank", *[_fmt(float(v)) for v in analysis.avg_ranks]])
    report = format_rank_report(analysis, critical_f=cfg["rank.critical_f"])
    report_path = f"{args.out}_report.txt"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report)
    sys.stdout.write(report)
    print(f"rank outputs        : {ranks_path}, {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--scaling", choices=["none", "minmax", "zscore"], help="feature/target scaling")
    common.add_argument("--trace", action="store_true", help="record per-iteration objective values")

    io_csv = argparse.ArgumentParser(add_help=False)
    io_csv.add_argument("--no-header", action="store_true", help="CSV has no header row")
    io_csv.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    io_csv.add_argument(
        "--drop",
        help="comma-separated columns (names or indices) excluded from the features,"
        " e.g. --drop y_true for synthetic files",
    )

    parser = argparse.ArgumentParser(prog="helssvr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common, io_csv], help="fit a model on a CSV dataset")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--target", help="target column name or index (default: last column)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--trace-out", help="objective trace CSV (with --trace)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", parents=[common, io_csv], help="predict with a saved model")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--data", required=True, help="feature CSV")
    p.add_argument("--target", help="column to drop before predicting (e.g. the training target)")
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic benchmark dataset")
    p.add_argument("--function", type=int, required=True, help="benchmark function id (1..5)")
    p.add_argument("--noise", required=True, choices=["gaussian", "uniform", "student"], help="noise family")
    p.add_argument("--n", type=int, default=500, help="sample count (default 500)")
    p.add_argument("--sampling", choices=["uniform", "grid"], default="uniform")
    p.add_argument("--out", required=True, help="CSV to write (columns x,y,y_true)")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("bench", parents=[common, io_csv], help="grid-search recipes over datasets")
    p.add_argument("--data", nargs="+", required=True, help="dataset CSV paths")
    p.add_argument("--target", help="target column name or index (default: last column)")
    p.add_argument("--recipes", required=True, help="comma-separated loss kinds to benchmark")
    p.add_argument("--outdir", required=True, help="directory for results/timing/best_params CSVs")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("rank", parents=[common, io_csv], help="rank models from a results table")
    p.add_argument("--input", required=True, help="bench results.csv or a wide dataset-by-model table")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(handler=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = assemble_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
