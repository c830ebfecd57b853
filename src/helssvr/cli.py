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
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import numpy as np

from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_features,
    write_csv,
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
from .optimizer import AdamConfig


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


@contextmanager
def _config_errors(prefix: str = ""):
    """Re-raise a ValueError from the block as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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


def _parse_positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"must be finite and > 0, got {value}")
    return value


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _optional(parser):
    """``parser``, except that an empty value or ``none`` means unset (None)."""

    def parse(text):
        return None if str(text).strip().lower() in ("", "none") else parser(text)

    return parse


def _parse_choice(*allowed):
    def parse(text):
        if text not in allowed:
            raise ValueError(f"must be one of {allowed}, got {text!r}")
        return text

    return parse


# key -> (default, parser-from-string)
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (0, _parse_count),
    "scaling": ("minmax", _parse_choice("none", "minmax", "zscore")),
    "C": (100.0, _parse_positive),
    "loss.kind": ("hawkeye", _parse_choice(*LOSS_KINDS)),
    "loss.epsilon": (0.05, float),
    "loss.a": (1.0, float),
    "loss.lambda": (1.0, float),
    "loss.theta": (None, _optional(float)),
    "loss.t": (None, _optional(float)),
    "kernel.kind": ("rbf", _parse_choice("rbf", "linear")),
    "kernel.sigma": (1.0, float),
    "adam.gamma": (0.01, float),
    "adam.beta1": (0.9, float),
    "adam.beta2": (0.999, float),
    "adam.delta": (1e-8, float),
    "adam.batch_size": (32, int),
    "adam.max_iter": (1000, int),
    "adam.early_stop": (False, _parse_bool),
    "adam.early_stop_tol": (1e-10, float),
    "adam.early_stop_patience": (20, int),
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
    "rank.q_alpha": (None, _optional(_parse_positive)),
    "rank.critical_f": (None, _optional(_parse_positive)),
    "rank.decimals": (4, _optional(_parse_count)),
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
        with _config_errors(f"bad value for {key!r} (from {source}): "):
            self.values[key] = parser(raw)
        self.explicit.add(key)

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, prefix: str) -> dict:
        """The values of the keys ``prefix.*``, by the name after the dot."""
        start = len(prefix) + 1
        return {k[start:]: v for k, v in self.values.items() if k.startswith(prefix + ".")}


def _read_config_file(cfg: RunConfig, path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    with _config_errors():
        return LossSpec(kind, **params)


def build_kernel(cfg: RunConfig) -> KernelSpec:
    if cfg["kernel.kind"] == "linear":
        if "kernel.sigma" in cfg.explicit:
            raise ConfigError("kernel.sigma is not a parameter of kernel.kind=linear")
        return KernelSpec("linear")
    with _config_errors():
        return KernelSpec("rbf", sigma=cfg["kernel.sigma"])


def build_adam(cfg: RunConfig, collect_trace: bool = False) -> AdamConfig:
    fields = cfg.section("adam")  # each adam.* key names an AdamConfig field
    with _config_errors():
        return AdamConfig(**fields, seed=cfg["seed"], collect_trace=collect_trace)


def build_grid(cfg: RunConfig) -> GridSpec:
    # grid.k is GridSpec's k; every other grid.<axis> key is its <axis>_values
    fields = {(n if n == "k" else f"{n}_values"): v for n, v in cfg.section("grid").items()}
    with _config_errors():
        return GridSpec(**fields)


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
    adam = build_adam(cfg, collect_trace=args.trace_out is not None)
    ds, report = load_csv(**_csv_options(args, args.data))
    model, fit_report = fit(ds.X, ds.y, kernel, loss, C=cfg["C"], adam=adam, scaling=cfg["scaling"])
    save_model(model, args.out)
    if args.trace_out is not None:
        write_csv(args.trace_out, ["iter", "objective"], ((i, repr(h)) for i, h in enumerate(fit_report.trace)))
    print(f"model written       : {args.out}")
    print(f"training samples    : {ds.n} (rejected rows: {report.rows_rejected})")
    print(f"final objective     : {fit_report.final_objective:.6g}")
    print(f"iterations          : {fit_report.iterations}")
    print(f"stop reason         : {fit_report.stop_reason}")
    print(f"fit seconds         : {fit_report.wall_time_seconds:.4f}")
    print(f"gram seconds        : {fit_report.gram_seconds:.4f}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    model = load_model(args.model)
    X = load_features(**_csv_options(args, args.data))
    preds = predict(model, X)
    write_csv(args.out, ["prediction"], ([repr(float(p))] for p in preds))
    print(f"predictions written : {args.out} ({preds.size} rows)")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    with _config_errors():
        spec = SyntheticSpec(
            function_id=args.function,
            noise=args.noise,
            n_samples=args.n,
            seed=cfg["seed"],
            sampling=args.sampling,
        )
    ds, y_true = generate_synthetic(spec)
    write_synthetic_csv(args.out, ds, y_true)
    print(f"synthetic dataset written : {args.out} ({ds.n} rows, {ds.name})")
    return 0


def _bench_one(ds, recipe, grid, cfg, adam):
    t0 = time.perf_counter()
    res = grid_search_cv(
        ds,
        grid,
        recipe,
        seed=cfg["seed"],
        adam=adam,
        scaling=cfg["scaling"],
        selection=cfg["cv.selection"],
    )
    search_seconds = time.perf_counter() - t0
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
    return res, search_seconds, metrics, refit_report


def cmd_bench(cfg: RunConfig, args) -> int:
    # bench trains the recipes over the grid: the keys of a single fit would
    # be ignored, so setting one is an error
    unread = sorted(k for k in cfg.explicit if k in ("C", "adam.gamma") or k.startswith(("loss.", "kernel.")))
    if unread:
        raise ConfigError(
            f"{unread[0]} is not read by bench; set the grid.* keys (grid.gamma for the learning rate)"
            " and --recipes instead"
        )
    # an empty name is an unknown recipe, so --recipes always names at least one
    names = [name.strip() for name in args.recipes.split(",")]
    with _config_errors():
        recipes = [recipe_from_name(name) for name in names]
    # a repeated item would write a second row for its (dataset, model)
    for what, given, key in (("recipe", names, names), ("dataset", args.data, map(os.path.realpath, args.data))):
        i = _first_repeat(key)
        if i is not None:
            raise ConfigError(f"{what} {given[i]!r} is given twice")
    grid = build_grid(cfg)
    adam = build_adam(cfg)
    # build every loss the searches will build, so that a bad loss axis is a
    # config error before any data loads, not a failure of every work item
    with _config_errors("bad grid value: "):
        for recipe in recipes:
            for epsilon, lam, a in product(grid.epsilon_values, grid.lambda_values, grid.a_values):
                recipe.build_loss(epsilon, lam, a)

    # one (dataset, model, search result, search seconds, metrics, refit
    # report) per work item
    items, failures = [], []
    for path in args.data:
        dataset_name = str(path)
        try:
            ds, _ = load_csv(**_csv_options(args, path))
        except (OSError, ValueError) as exc:
            failures.append((dataset_name, "*", type(exc).__name__, str(exc)))
            continue
        for recipe in recipes:
            try:
                items.append((dataset_name, recipe.name, *_bench_one(ds, recipe, grid, cfg, adam)))
            except Exception as exc:
                # one failed work item must not abort the others; an
                # unexpected exception type also gets its traceback
                if not isinstance(exc, (ValueError, OSError)):
                    traceback.print_exc(file=sys.stderr)
                failures.append((dataset_name, recipe.name, type(exc).__name__, str(exc)))
    items.sort(key=lambda item: item[:2])

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    results_path = os.path.join(outdir, "results.csv")
    write_csv(
        results_path,
        ["dataset", "model", "rmse", "mae", "error_pos", "error_neg", "train_seconds"],
        (
            [d, m, *map(_fmt, (mt.rmse, mt.mae, mt.error_pos, mt.error_neg)), f"{rep.wall_time_seconds:.6f}"]
            for d, m, _, _, mt, rep in items
        ),
    )
    write_csv(
        os.path.join(outdir, "timing.csv"),
        ["dataset", "model", "fit_seconds", "gram_seconds", "search_seconds", "cells", "fits"],
        (
            [d, m, f"{rep.wall_time_seconds:.6f}", f"{rep.gram_seconds:.6f}", f"{secs:.6f}",
             len(res.cells), sum(len(c.fold_rmse) for c in res.cells)]
            for d, m, res, secs, _, rep in items
        ),
    )
    write_csv(
        os.path.join(outdir, "best_params.csv"),
        ["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma", "cv_rmse"],
        (
            [d, m, *map(_fmt, (p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma, res.best.stat))]
            for d, m, res, _, _, _ in items
            for p in [res.best_params]
        ),
    )
    # every cell's fold RMSEs, statistic, and each fold's steps and stop
    # reason ("halved" for a cell successive halving cut)
    folds = range(1, grid.k + 1)
    write_csv(
        os.path.join(outdir, "cells.csv"),
        ["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma",
         *(f"rmse_fold{j}" for j in folds), "stat",
         *(f"iterations_fold{j}" for j in folds), *(f"stop_reason_fold{j}" for j in folds)],
        (
            [d, m, *map(_fmt, (p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma, *cell.fold_rmse, cell.stat)),
             *(r.iterations for r in cell.fold_reports), *(r.stop_reason for r in cell.fold_reports)]
            for d, m, res, _, _, _ in items
            for cell in res.cells
            for p in [cell.params]
        ),
    )
    print(f"benchmark rows      : {len(items)} -> {results_path}")
    if failures:
        failures_path = os.path.join(outdir, "failures.csv")
        write_csv(failures_path, ["dataset", "model", "error_type", "error"], failures)
        print(f"failed work items   : {len(failures)} -> {failures_path}", file=sys.stderr)
        return 1
    return 0


def _rank_score(text, where):
    """A rank table's score cell; empty or ``-`` means absent (NaN)."""
    text = text.strip()
    try:
        return np.nan if text in ("", "-") else float(text)
    except ValueError:
        raise ValueError(f"{where}: score {text!r} is not a number") from None


def _first_repeat(names):
    """Index of the first name that already appeared earlier, or None."""
    seen = set()
    for i, name in enumerate(names):
        if name in seen:
            return i
        seen.add(name)
    return None


def _read_rank_table(path, delimiter=","):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        lines = [(f"{path}:{reader.line_num}", r) for r in reader if r]
    if len(lines) < 2:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    header = [c.strip() for c in lines[0][1]]
    body = lines[1:]
    for where, row in body:
        if len(row) != len(header):
            raise ValueError(f"{where}: ragged row {row!r}")

    if {"dataset", "model", "rmse"} <= set(header):
        d_i, m_i, r_i = header.index("dataset"), header.index("model"), header.index("rmse")
        # each dataset and model name -> its first-seen position
        datasets, models, cells = {}, {}, {}
        for where, row in body:
            d, m = row[d_i], row[m_i]
            cell = (datasets.setdefault(d, len(datasets)), models.setdefault(m, len(models)))
            if cell in cells:
                raise ValueError(f"{where}: second rmse for dataset {d!r}, model {m!r}")
            cells[cell] = _rank_score(row[r_i], where)
        table = np.full((len(datasets), len(models)), np.nan)
        for cell, score in cells.items():
            table[cell] = score
        return table, list(datasets), list(models)

    models = header[1:]
    if not models:
        raise ValueError(f"{path}: wide rank table needs model columns")
    datasets = [row[0] for _, row in body]
    i = _first_repeat(models)
    if i is not None:
        raise ValueError(f"{lines[0][0]}: second column for model {models[i]!r}")
    i = _first_repeat(datasets)
    if i is not None:
        raise ValueError(f"{body[i][0]}: second row for dataset {datasets[i]!r}")
    values = [[_rank_score(cell, where) for cell in row[1:]] for where, row in body]
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
    rows = [
        [name, *[("" if np.isnan(v) else _fmt(float(v))) for v in row]]
        for name, row in zip(datasets, analysis.rank_matrix)
    ]
    rows.append(["average_rank", *[_fmt(float(v)) for v in analysis.avg_ranks]])
    write_csv(ranks_path, ["dataset", *models], rows)
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
    # each command takes only the flags it reads, so argparse rejects the rest
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="master random seed")
    scaled = argparse.ArgumentParser(add_help=False)
    scaled.add_argument("--scaling", choices=["none", "minmax", "zscore"], help="feature/target scaling")

    delimited = argparse.ArgumentParser(add_help=False)
    delimited.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    io_csv = argparse.ArgumentParser(add_help=False, parents=[delimited])
    io_csv.add_argument("--no-header", action="store_true", help="CSV has no header row")
    io_csv.add_argument(
        "--drop",
        help="comma-separated columns (names or indices) excluded from the features,"
        " e.g. --drop y_true for synthetic files",
    )

    parser = argparse.ArgumentParser(prog="helssvr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common, seeded, scaled, io_csv], help="fit a model on a CSV dataset")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--target", help="target column name or index (default: last column)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--trace-out", help="record the objective at every step and write it to this CSV")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", parents=[common, io_csv], help="predict with a saved model")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--data", required=True, help="feature CSV")
    p.add_argument("--target", help="column to drop before predicting (e.g. the training target)")
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("synth", parents=[common, seeded], help="generate a synthetic benchmark dataset")
    p.add_argument("--function", type=int, required=True, help="benchmark function id (1..5)")
    p.add_argument("--noise", required=True, choices=["gaussian", "uniform", "student"], help="noise family")
    p.add_argument("--n", type=int, default=500, help="sample count (default 500)")
    p.add_argument("--sampling", choices=["uniform", "grid"], default="uniform")
    p.add_argument("--out", required=True, help="CSV to write (columns x,y,y_true)")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("bench", parents=[common, seeded, scaled, io_csv], help="grid-search recipes over datasets")
    p.add_argument("--data", nargs="+", required=True, help="dataset CSV paths")
    p.add_argument("--target", help="target column name or index (default: last column)")
    p.add_argument("--recipes", required=True, help="comma-separated loss kinds to benchmark")
    p.add_argument("--outdir", required=True, help="directory for results/timing/best_params CSVs")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("rank", parents=[common, delimited], help="rank models from a results table")
    p.add_argument("--input", required=True, help="bench results.csv or a wide dataset-by-model table")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(handler=cmd_rank)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(assemble_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
