"""Command-line front end: train, predict, synth, bench, rank.

Configuration is layered: built-in defaults, then an optional flat
key=value config file, then command-line flags (``--set key=value`` plus
the named convenience flags).  Each key of ``CONFIG_SCHEMA`` names the
commands that read it: a key that is unknown, or set for a command that
does not read it, is a configuration error before any input is read.

Exit codes: 0 success, 1 benchmark finished with some failed work items,
2 configuration error, 3 data or runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from contextlib import contextmanager, suppress
from itertools import product

import numpy as np

from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_features,
    not_utf8,
    read_rows,
    write_csv,
    write_synthetic_csv,
)
from .evaluation import GridSpec, ModelRecipe, format_rank_report, rank_models, run_benchmark
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


def _parse_delimiter(text: str) -> str:
    """A ``--delimiter`` value: one character, as :mod:`csv` requires."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def _parse_choice(*allowed):
    def parse(text):
        if text not in allowed:
            raise ValueError(f"must be one of {allowed}, got {text!r}")
        return text

    return parse


# key -> (default, parser-from-string, the commands that read it)
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (0, _parse_count, "train synth bench"),
    "scaling": ("minmax", _parse_choice("none", "minmax", "zscore"), "train bench"),
    "C": (100.0, _parse_positive, "train"),
    "loss.kind": ("hawkeye", _parse_choice(*LOSS_KINDS), "train"),
    "loss.epsilon": (0.05, float, "train"),
    "loss.a": (1.0, float, "train"),
    "loss.lambda": (1.0, float, "train"),
    "loss.theta": (None, _optional(float), "train"),
    "loss.t": (None, _optional(float), "train"),
    "kernel.sigma": (1.0, float, "train"),
    "adam.gamma": (0.01, float, "train"),
    "adam.batch_size": (32, int, "train bench"),
    "adam.max_iter": (1000, int, "train bench"),
    "grid.C": ((1.0, 100.0, 10000.0), _parse_float_list, "bench"),
    "grid.sigma": ((0.1, 1.0, 10.0), _parse_float_list, "bench"),
    "grid.epsilon": ((0.05,), _parse_float_list, "bench"),
    "grid.lambda": ((1.0,), _parse_float_list, "bench"),
    "grid.a": ((1.0, 3.0), _parse_float_list, "bench"),
    "grid.gamma": ((0.01,), _parse_float_list, "bench"),
    "grid.k": (5, int, "bench"),
    "cv.selection": ("best_fold", _parse_choice("best_fold", "mean"), "bench"),
    "rank.tie": ("competition", _parse_choice("competition", "fractional"), "rank"),
    "rank.q_alpha": (None, _optional(_parse_positive), "rank"),
    "rank.critical_f": (None, _optional(_parse_positive), "rank"),
    "rank.decimals": (4, _optional(_parse_count), "rank"),
}


class RunConfig:
    """Validated key-value configuration with layered precedence."""

    def __init__(self):
        self.values = {k: default for k, (default, *_) in CONFIG_SCHEMA.items()}
        self.explicit: dict[str, str] = {}  # each key set, and where it was set

    def set(self, key: str, raw: str, source: str):
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (from {source})")
        parser = CONFIG_SCHEMA[key][1]
        with _config_errors(f"bad value for {key!r} (from {source}): "):
            self.values[key] = parser(raw)
        self.explicit[key] = source

    def bad_value(self, keys, exc: ValueError) -> ConfigError:
        """The ConfigError for ``exc``, a library's rejection of the values
        of ``keys``: it names each key, its source and its value, as
        :meth:`set` names a value its parser rejects."""
        sources = " and ".join(f"{key!r} (from {self.explicit.get(key, 'the default')})" for key in keys)
        values = " and ".join(repr(self[key]) for key in keys)
        return ConfigError(f"bad value{'s' * (len(keys) > 1)} for {sources}: {exc}, got {values}")

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, prefix: str) -> dict:
        """The values of the keys ``prefix.*``, by the name after the dot."""
        start = len(prefix) + 1
        return {k[start:]: v for k, v in self.values.items() if k.startswith(prefix + ".")}


def _read_config_file(cfg: RunConfig, path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(str(not_utf8(path))) from None
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
    for key in ("seed", "scaling"):
        if getattr(args, key, None) is not None:
            cfg.set(key, str(getattr(args, key)), source=f"--{key}")
    return cfg


def _check_read(cfg: RunConfig, command: str):
    """Raise ConfigError for the first key set for ``command`` that it does not read and so would ignore."""
    for key in sorted(cfg.explicit):
        readers = CONFIG_SCHEMA[key][2].split()
        if command == "bench" and readers == ["train"]:
            # bench searches the grid's values in place of a single fit's
            raise ConfigError(f"{key} is not read by bench; set the grid.* keys (grid.gamma for the learning rate)"
                              " and --recipes instead")
        if command not in readers:
            raise ConfigError(f"{key} is not read by {command}, only by {', '.join(readers)}")


def build_loss(cfg: RunConfig) -> LossSpec:
    kind = cfg["loss.kind"]
    params = {}
    for name in ("epsilon", "a", "lambda", "theta", "t"):
        key, pname = f"loss.{name}", "lam" if name == "lambda" else name
        if pname in required_params(kind):
            value = cfg[key]
            if value is None:
                raise ConfigError(f"{key} is required for loss.kind={kind}")
            params[pname] = value
        elif key in cfg.explicit:
            raise ConfigError(f"{key} is not a parameter of loss.kind={kind}")
    try:
        return LossSpec(kind, **params)
    except ValueError as exc:
        raise cfg.bad_value([f"loss.{'lambda' if name == 'lam' else name}" for name in exc.params], exc) from exc


def build_kernel(cfg: RunConfig) -> KernelSpec:
    with _config_errors():
        return KernelSpec("rbf", sigma=cfg["kernel.sigma"])


def build_adam(cfg: RunConfig, collect_trace: bool = False) -> AdamConfig:
    fields = cfg.section("adam")  # each adam.* key names an AdamConfig field
    # AdamConfig checks each field alone, so a config of one field finds
    # the key at fault; the parser has already checked the seed
    for name, value in fields.items():
        try:
            AdamConfig(**{name: value})
        except ValueError as exc:
            raise cfg.bad_value([f"adam.{name}"], exc) from exc
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
    _check_outputs(args, [("--data", args.data)], [("--out", args.out), ("--trace-out", args.trace_out)])
    loss = build_loss(cfg)
    kernel = build_kernel(cfg)
    adam = build_adam(cfg, collect_trace=args.trace_out is not None)
    ds, rejected = load_csv(**_csv_options(args, args.data))
    model, fit_report = fit(ds.X, ds.y, kernel, loss, C=cfg["C"], adam=adam, scaling=cfg["scaling"])
    save_model(model, args.out)
    if args.trace_out is not None:
        write_csv(args.trace_out, ["iter", "objective"], ((i, repr(h)) for i, h in enumerate(fit_report.state.trace)))
    print(f"model written       : {args.out}")
    print(f"training samples    : {ds.n} (rejected rows: {rejected})")
    print(f"final objective     : {fit_report.final_objective:.6g}")
    print(f"iterations          : {fit_report.state.t}")
    print(f"fit seconds         : {fit_report.wall_time_seconds:.4f}")
    print(f"gram seconds        : {fit_report.gram_seconds:.4f}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    _check_outputs(args, [("--model", args.model), ("--data", args.data)], [("--out", args.out)])
    model = load_model(args.model)
    X = load_features(**_csv_options(args, args.data))
    preds = predict(model, X)
    write_csv(args.out, ["prediction"], ([repr(float(p))] for p in preds))
    print(f"predictions written : {args.out} ({preds.size} rows)")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    _check_outputs(args, [], [("--out", args.out)])
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


#: the files bench writes into its --outdir (failures.csv only if an item fails)
BENCH_OUTPUTS = ("results.csv", "timing.csv", "best_params.csv", "cells.csv", "failures.csv")


def cmd_bench(cfg: RunConfig, args) -> int:
    outputs = [os.path.join(args.outdir, name) for name in BENCH_OUTPUTS]
    _check_outputs(
        args, [("--data", path) for path in args.data], [("--outdir", path) for path in outputs], outdir=args.outdir
    )
    # an empty name is an unknown recipe, so --recipes always names at least one
    names = [name.strip() for name in args.recipes.split(",")]
    with _config_errors():
        recipes = [ModelRecipe(name) for name in names]
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

    datasets, failures = [], []  # failures: (dataset, model, exception)
    for path in args.data:
        try:
            datasets.append((str(path), load_csv(**_csv_options(args, path))[0]))
        except (OSError, ValueError) as exc:
            failures.append((str(path), "*", exc))
    records, failed = run_benchmark(
        datasets, recipes, grid, adam, seed=cfg["seed"], scaling=cfg["scaling"], selection=cfg["cv.selection"]
    )
    for *_, exc in failed:
        if not isinstance(exc, (ValueError, OSError)):
            traceback.print_exception(exc)
    # failures in the order of the datasets, then of the recipes
    order = {name: k for k, name in enumerate(["*", *names])}
    failures = sorted(failures + failed, key=lambda failure: (args.data.index(failure[0]), order[failure[1]]))

    os.makedirs(args.outdir, exist_ok=True)
    results_path, timing_path, best_path, cells_path, failures_path = outputs
    write_csv(
        results_path,
        ["dataset", "model", "rmse", "mae", "error_pos", "error_neg"],
        ([r.dataset, r.model, *map(_fmt, (r.metrics.rmse, r.metrics.mae, r.metrics.error_pos, r.metrics.error_neg))]
         for r in records),
    )
    write_csv(
        timing_path,
        ["dataset", "model", "fit_seconds", "gram_seconds", "search_seconds", "cells"],
        (
            [r.dataset, r.model, f"{r.refit.wall_time_seconds:.6f}", f"{r.refit.gram_seconds:.6f}",
             f"{r.search_seconds:.6f}", len(r.search.cells)]
            for r in records
        ),
    )
    write_csv(
        best_path,
        ["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma", "cv_rmse"],
        (
            [r.dataset, r.model, *map(_fmt, (p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma, r.search.best.stat))]
            for r in records
            for p in [r.search.best_params]
        ),
    )
    # every cell's fold RMSEs, statistic, steps and stop reason (the step
    # and fold of its first fold that diverged, else "halved" for a cell
    # successive halving cut, at fewer than max_iter steps)
    write_csv(
        cells_path,
        ["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma",
         *(f"rmse_fold{j}" for j in range(1, grid.k + 1)), "stat", "iterations", "stop_reason"],
        (
            [r.dataset, r.model, *map(_fmt, (p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma, *cell.fold_rmse, cell.stat)),
             cell.iterations, f"diverged at step {cell.diverged[1]} of fold {cell.diverged[0]}" if cell.diverged
             else "halved" if cell.iterations < adam.max_iter else "max_iter"]
            for r in records
            for cell in r.search.cells
            for p in [cell.params]
        ),
    )
    print(f"benchmark rows      : {len(records)} -> {results_path}")
    if failures:
        rows = ([d, m, type(exc).__name__, str(exc)] for d, m, exc in failures)
        write_csv(failures_path, ["dataset", "model", "error_type", "error"], rows)
        print(f"failed work items   : {len(failures)} -> {failures_path}", file=sys.stderr)
        return 1
    # an earlier run's failures would read as this run's
    with suppress(FileNotFoundError):
        os.remove(failures_path)
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


def _check_outputs(args, inputs, outputs, outdir=None):
    """Raise ConfigError when an output file of a command lies in no
    existing directory, is a directory, or is one of its inputs
    (``--config`` and ``inputs``) or an earlier output, compared by real
    path as bench compares its datasets: writing it would fail after the
    work, or destroy that file.  Both lists hold (flag, path) pairs; a None
    path is a flag not given.  ``outdir`` is the directory bench makes for
    its outputs: it must not be a file, and must lie in an existing
    directory."""

    def check_parent(flag, path):
        parent = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"{flag} {path!r}: {parent!r} is not an existing directory")

    if outdir is not None:
        if os.path.exists(outdir) and not os.path.isdir(outdir):
            raise ConfigError(f"--outdir {outdir!r} is not a directory")
        check_parent("--outdir", outdir)
    seen = {os.path.realpath(p): (flag, p) for flag, p in [("--config", args.config), *inputs] if p is not None}
    for flag, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{flag} {path!r} is the same file as {seen[real][0]} {seen[real][1]!r}")
        if os.path.isdir(real):
            raise ConfigError(f"{flag} {path!r} is a directory")
        if outdir is None:
            check_parent(flag, path)
        seen[real] = (flag, path)


def _read_rank_table(path, delimiter=","):
    rows = read_rows(path, delimiter)
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row plus at least one data row")
    (header_line, header), body = rows[0], rows[1:]

    if {"dataset", "model", "rmse"} <= set(header):
        d_i, m_i, r_i = header.index("dataset"), header.index("model"), header.index("rmse")
        # each dataset and model name -> its first-seen position
        datasets, models, cells = {}, {}, {}
        for line, row in body:
            d, m = row[d_i], row[m_i]
            cell = (datasets.setdefault(d, len(datasets)), models.setdefault(m, len(models)))
            if cell in cells:
                raise ValueError(f"{path}:{line}: second rmse for dataset {d!r}, model {m!r}")
            cells[cell] = _rank_score(row[r_i], f"{path}:{line}")
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
        raise ValueError(f"{path}:{header_line}: second column for model {models[i]!r}")
    i = _first_repeat(datasets)
    if i is not None:
        raise ValueError(f"{path}:{body[i][0]}: second row for dataset {datasets[i]!r}")
    values = [[_rank_score(cell, f"{path}:{line}") for cell in row[1:]] for line, row in body]
    return np.asarray(values, dtype=float), datasets, models


def cmd_rank(cfg: RunConfig, args) -> int:
    ranks_path, report_path = f"{args.out}_ranks.csv", f"{args.out}_report.txt"
    _check_outputs(args, [("--input", args.input)], [("--out", ranks_path), ("--out", report_path)])
    table, datasets, models = _read_rank_table(args.input, delimiter=args.delimiter)
    analysis = rank_models(
        table,
        tie=cfg["rank.tie"],
        q_alpha=cfg["rank.q_alpha"],
        rank_decimals=cfg["rank.decimals"],
        model_names=models,
    )
    rows = [
        [name, *[("" if np.isnan(v) else _fmt(float(v))) for v in row]]
        for name, row in zip(datasets, analysis.rank_matrix)
    ]
    rows.append(["average_rank", *[_fmt(float(v)) for v in analysis.avg_ranks]])
    write_csv(ranks_path, ["dataset", *models], rows)
    report = format_rank_report(analysis, critical_f=cfg["rank.critical_f"])
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
    delimited.add_argument("--delimiter", default=",", type=_parse_delimiter, help="CSV delimiter (default ',')")
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
        cfg = assemble_config(args)
        _check_read(cfg, args.command)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
