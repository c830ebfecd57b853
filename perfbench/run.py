"""Benchmark of helssvr: three workloads through the public API and the CLI.

    python3 perfbench/run.py --workload grid_cv --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  The library is imported from ``src/`` of
that checkout, never from an installed copy; without ``src/helssvr`` the run
fails with exit code 2 and prints no result.

Workloads (why each was chosen, and which layer metric should move which
end-to-end metric, is recorded in ``perfbench/layer_map.json``):

* ``grid_cv``   - 5-fold grid search over 18 HawkEye cells on 400 rows, full
  batch, then a refit of the best cell and a prediction of 100 held-out rows.
* ``large_fit`` - one full-batch fit at n=2000, a prediction of 20,000 query
  rows, and a save/load round trip of the model.
* ``cli_bench`` - ``helssvr bench`` over three synthetic CSVs (one per noise
  kind) with two recipes and the default mini-batch, then ``helssvr rank``.

All inputs come from ``generate_synthetic`` keyed by ``--seed``; the program's
own seeds (folds, Adam) stay fixed, so the seed only changes the data.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``.  Its times are in units of a fixed
reference kernel sampled during the iterations (see ``reference.py``),
because the speed of the shared hosts this runs on drifts by up to 2x; the
raw wall times are printed and recorded as well.  ``--trace 1`` runs the workload
once untraced and once with spans around the calls between modules (see
``tracing.py``) and reports the per-layer metrics, including the tracing
overhead.  Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
correctness check also makes the exit code 1.  The line before it is the
provenance record, and the run's record with the raw per-iteration values is
written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: the machines this runs on give a process a few cores shared
# with other work, and a second BLAS thread there measures the scheduler.  Set
# before numpy is imported; the set-up subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from reference import AdamKernel, Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# set-up repetitions before the first iteration; measure() adds one after
# each iteration, so set-up is sampled across the run's host speed drift
SETUP_FIRST = 3

hs = None  # the helssvr package, imported by load_library()


def load_library() -> None:
    """Import helssvr from this checkout's ``src/`` or exit with code 2."""
    global hs
    src = ROOT / "src"
    if not (src / "helssvr" / "__init__.py").is_file():
        print(f"perfbench: {src / 'helssvr'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import helssvr
    import helssvr.cli

    if Path(helssvr.__file__).resolve().parent != src / "helssvr":
        print(f"perfbench: imported helssvr from {helssvr.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    hs = helssvr


def _api() -> types.SimpleNamespace:
    """The library calls the workloads make themselves.

    The tracer wraps these attributes, so spans also cover the benchmark's
    direct calls into the library.
    """
    return types.SimpleNamespace(
        grid_search_cv=hs.evaluation.grid_search_cv,
        fit=hs.model.fit,
        predict=hs.model.predict,
        save_model=hs.model.save_model,
        load_model=hs.model.load_model,
        bench=lambda argv: hs.cli.main(["bench", *argv]),
        rank=lambda argv: hs.cli.main(["rank", *argv]),
    )


@dataclass
class Outcome:
    """One workload iteration: timings, work counts and failed checks."""

    run: tuple[float, float]  # perf_counter start and end of the whole iteration
    fit_phase: tuple[float, float]  # ... and of the call that makes the fits
    fits: int
    attempted: int
    failed: int
    quality: float
    problems: list[str]  # failed correctness checks
    extra: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # findings that do not fail the run
    # set by measure(): the reference kernel's median seconds and sample
    # count inside the iteration, and the iteration's and the fit phase's
    # wall seconds less the samples, also in units of the reference
    ref_s: float = float("nan")
    samples: int = 0
    run_net_s: float = float("nan")
    fit_phase_net_s: float = float("nan")
    run_ref: float = float("nan")
    fit_phase_ref: float = float("nan")

    @property
    def run_s(self) -> float:
        return self.run[1] - self.run[0]

    @property
    def fit_phase_s(self) -> float:
        return self.fit_phase[1] - self.fit_phase[0]


# ---------------------------------------------------------------------------
# Workloads.  Each has setup() (timed as setup_s, repeated), run_once(), and
# own_metrics(): the workload's own headline figures, printed and recorded
# but not gated (BENCHMARK.json gates only metrics that every workload has).


class GridCV:
    """The paper's model-selection loop: the criterion-6 grid on 400 rows."""

    FUNCTION = 1
    C = (1.0, 100.0, 10000.0)
    SIGMA = (0.1, 1.0, 10.0)
    A = (1.0, 3.0)
    K = 5
    # With noise sd 0.2 a well-fitted cell's CV RMSE sits near 0.2; above
    # CV_GATE the fold models themselves fit badly.  The refit's noise-free
    # RMSE is compared with acceptance criterion 6's 0.08 and reported, not
    # gated: correct runs miss it when cells tie within the noise (seed 106
    # picks sigma=0.1 at CV 0.2158 against 0.2172 for a cell that refits to
    # 0.034) and when the last Adam iterate sits on a transient spike of the
    # objective (seed 205: 0.208 after 1000 steps, 0.035 after 900 or 1100).
    CV_GATE = 0.25
    CRITERION_6_RMSE = 0.08
    REFERENCE = dict(n=320, batch=320, steps=80)  # full batch on a 0.8 MB Gram

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n_train, self.n_test = (60, 20) if tiny else (400, 100)

    def setup(self, workdir):
        spec = hs.SyntheticSpec(self.FUNCTION, "gaussian", n_samples=self.n_train + self.n_test, seed=self.seed)
        ds, y_true = hs.generate_synthetic(spec)
        n = self.n_train
        self.train = hs.Dataset(X=ds.X[:n], y=ds.y[:n], name=ds.name)
        self.X_test, self.y_test_true = ds.X[n:], y_true[n:]

    def run_once(self, api):
        grid = hs.GridSpec(C_values=self.C, sigma_values=self.SIGMA, a_values=self.A, k=self.K)
        recipe = hs.recipe_from_name("hawkeye")
        adam = hs.AdamConfig(batch_size=self.n_train)
        t0 = time.perf_counter()
        res = api.grid_search_cv(self.train, grid, recipe, seed=0, adam=adam, scaling="zscore", selection="mean")
        t1 = time.perf_counter()
        p = res.best_params
        fitted, _ = api.fit(
            self.train.X,
            self.train.y,
            recipe.build_kernel(p.sigma),
            recipe.build_loss(p.epsilon, p.lam, p.a),
            C=p.C,
            adam=hs.AdamConfig(batch_size=self.n_train, gamma=p.gamma, seed=0),
            scaling="zscore",
        )
        pred = api.predict(fitted, self.X_test)
        t2 = time.perf_counter()
        cells = len(self.C) * len(self.SIGMA) * len(self.A)
        stats = [c.stat for c in res.cells if np.isfinite(c.stat)]
        rmse = hs.compute_metrics(self.y_test_true, pred).rmse
        problems, notes = [], []
        if len(res.cells) != cells or res.best.stat != min(stats, default=None):
            problems.append("grid_cv: the search did not return the cell with the lowest CV statistic")
        elif not res.best.stat < self.CV_GATE:
            problems.append(f"grid_cv: best CV RMSE {res.best.stat!r} is not below {self.CV_GATE}")
        if not np.all(np.isfinite(pred)):
            problems.append("grid_cv: predictions are not all finite")
        if not rmse < self.CRITERION_6_RMSE:
            notes.append(f"grid_cv: refit noise-free RMSE {rmse!r} is above criterion 6's {self.CRITERION_6_RMSE}")
        return Outcome((t0, t2), (t0, t1), cells * self.K, cells, cells - len(stats), rmse, problems, notes=notes)

    def own_metrics(self, outcomes):
        return {"cv_fits_per_s": (statistics.median(o.fits / o.fit_phase_net_s for o in outcomes), "1/s")}


class LargeFit:
    """One fit whose 32 MB Gram exceeds the L2 caches, and a large predict."""

    FUNCTION = 4
    SIGMA = 0.3
    C = 100.0
    # full batch on a 16 MB Gram (four times L2; n not a power of two, whose
    # row stride aliases in the caches) plus per-row kernel evaluations, in
    # about the fit : predict ratio of an iteration
    REFERENCE = dict(n=1448, batch=1448, steps=4, rows=50)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n, self.n_query = (100, 500) if tiny else (2000, 20000)

    def setup(self, workdir):
        spec = hs.SyntheticSpec(self.FUNCTION, "gaussian", n_samples=self.n + self.n_query, seed=self.seed)
        ds, y_true = hs.generate_synthetic(spec)
        self.X, self.y = ds.X[: self.n], ds.y[: self.n]
        self.X_query, self.y_query_true = ds.X[self.n :], y_true[self.n :]
        self.model_path = workdir / "large_fit_model.json"

    def run_once(self, api):
        kernel = hs.KernelSpec("rbf", sigma=self.SIGMA)
        loss = hs.LossSpec("hawkeye", epsilon=0.05, a=3.0, lam=1.0)
        adam = hs.AdamConfig(batch_size=self.n, seed=0)
        t0 = time.perf_counter()
        fitted, _ = api.fit(self.X, self.y, kernel, loss, C=self.C, adam=adam, scaling="zscore")
        t1 = time.perf_counter()
        pred = api.predict(fitted, self.X_query)
        t2 = time.perf_counter()
        api.save_model(fitted, self.model_path)
        reloaded = api.load_model(self.model_path)
        t3 = time.perf_counter()
        pred_reloaded = api.predict(reloaded, self.X_query)
        t4 = time.perf_counter()
        problems = []
        if not np.all(np.isfinite(pred)):
            problems.append("large_fit: predictions are not all finite")
        if pred.tobytes() != pred_reloaded.tobytes():
            problems.append("large_fit: reloaded model predicts differently from the in-memory model")
        rmse = hs.compute_metrics(self.y_query_true, pred).rmse
        return Outcome(
            (t0, t4), (t0, t1), 1, 1, 1 if problems else 0, rmse, problems,
            {"predict_s": t2 - t1, "save_load_s": t3 - t2},
        )

    def own_metrics(self, outcomes):
        return {
            "fit_s": (statistics.median(o.fit_phase_net_s for o in outcomes), "s"),
            "predict_rows_per_s": (statistics.median(self.n_query / o.extra["predict_s"] for o in outcomes), "1/s"),
        }


class CliBench:
    """``helssvr bench`` then ``helssvr rank``, as a paper-reproducing user runs them."""

    # one dataset per noise kind keeps all three kinds in a run of ~7 s
    DATASETS = ((1, "gaussian"), (2, "uniform"), (3, "student"))
    RECIPES = ("hawkeye", "least_squares")
    C, SIGMA, A, K = (100.0,), (0.3, 1.0), (1.0, 3.0), 5
    REFERENCE = dict(n=160, batch=32, steps=70)  # mini-batch gathers on a small Gram

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n = 40 if tiny else 200

    def setup(self, workdir):
        self.workdir = workdir
        self.paths = []
        for fid, noise in self.DATASETS:
            ds, y_true = hs.generate_synthetic(hs.SyntheticSpec(fid, noise, n_samples=self.n, seed=self.seed))
            path = workdir / f"{ds.name}.csv"
            hs.data.write_synthetic_csv(path, ds, y_true)
            self.paths.append(str(path))

    def fits_per_item(self, recipe):
        # a spans only hawkeye's grid; epsilon and lambda keep one value each
        cells = len(self.C) * len(self.SIGMA) * (len(self.A) if recipe == "hawkeye" else 1)
        return cells * self.K + 1  # every fold of every cell, plus the refit

    def run_once(self, api):
        outdir = self.workdir / "bench_out"
        rank_prefix = self.workdir / "rank"
        report = Path(f"{rank_prefix}_report.txt")
        shutil.rmtree(outdir, ignore_errors=True)
        report.unlink(missing_ok=True)
        bench_argv = [
            "--data", *self.paths, "--target", "y", "--drop", "y_true",
            "--recipes", ",".join(self.RECIPES), "--outdir", str(outdir),
            "--set", "grid.C=" + ",".join(map(repr, self.C)),
            "--set", "grid.sigma=" + ",".join(map(repr, self.SIGMA)),
            "--set", "grid.a=" + ",".join(map(repr, self.A)),
            "--set", f"grid.k={self.K}", "--set", "scaling=zscore",
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc_bench = api.bench(bench_argv)
            t1 = time.perf_counter()
            rc_rank = api.rank(["--input", str(outdir / "results.csv"), "--out", str(rank_prefix)])
            t2 = time.perf_counter()
        problems = []
        rows, failures = _read_csv_rows(outdir / "results.csv"), _read_csv_rows(outdir / "failures.csv")
        n_failed = len(failures)
        items = len(self.paths) * len(self.RECIPES)
        expected = {(p, r) for p in self.paths for r in self.RECIPES}
        got = [(r["dataset"], r["model"]) for r in rows]
        if rc_bench != 0 or n_failed:
            problems.append(f"cli_bench: bench exited {rc_bench} with {n_failed} failed work items")
        if len(got) != len(set(got)) or set(got) != expected:
            problems.append(f"cli_bench: results.csv has {len(got)} rows, expected one per (dataset, recipe)")
        text = report.read_text(encoding="utf-8") if report.exists() else ""
        if rc_rank != 0 or "average ranks" not in text or "critical difference" not in text:
            problems.append(f"cli_bench: rank exited {rc_rank}; report lacks average ranks or critical difference")
        rmses = [float(r["rmse"]) for r in rows]
        quality = statistics.fmean(rmses) if rmses else float("nan")
        fits = len(self.paths) * sum(self.fits_per_item(r) for r in self.RECIPES)
        return Outcome(
            (t0, t2), (t0, t1), fits, items, max(n_failed, items - len(rows)), quality, problems,
            {"work_items": len(rows), "work_items_failed": n_failed},
        )

    def own_metrics(self, outcomes):
        return {"work_items_per_s": (statistics.median(o.attempted / o.run_net_s for o in outcomes), "1/s")}


def _read_csv_rows(path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {"grid_cv": GridCV, "large_fit": LargeFit, "cli_bench": CliBench}


# ---------------------------------------------------------------------------
# Set-up, warm-up and the two kinds of run.


def time_setup(workload, workdir, repeats: int) -> list[float]:
    """Import the library in a fresh interpreter, then build the inputs.

    Repeated ``repeats`` times; returns each repetition's seconds.  The
    inputs are the same every time, so iterations in between see no change.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import helssvr, helssvr.cli"], env=env, cwd=ROOT, check=True
        )
        workload.setup(workdir)
        times.append(time.perf_counter() - t0)
    return times


def warm_up() -> None:
    """Start the BLAS threads and fill lazy imports before any timing."""
    spec = hs.SyntheticSpec(1, "gaussian", n_samples=64, seed=0)
    ds, _ = hs.generate_synthetic(spec)
    fitted, _ = hs.fit(ds.X, ds.y, hs.KernelSpec("rbf", sigma=1.0), hs.LossSpec("least_squares"),
                       C=1.0, adam=hs.AdamConfig(max_iter=20))
    hs.predict(fitted, ds.X)


def _unique(messages) -> list[str]:
    return list(dict.fromkeys(messages))


def _check_repeatable(outcomes) -> list[str]:
    values = sorted({repr(o.quality) for o in outcomes})
    return [] if len(values) == 1 else [f"quality differs between iterations of the same inputs: {values}"]


def measure(workload, seconds: float, between=None) -> tuple[dict, list[Outcome], list[str]]:
    """Repeat the workload for about ``seconds``; end-to-end metrics as medians.

    Times are in units of the workload's reference kernel, sampled while the
    iterations run (see ``reference.py``).  ``between()``, if given, runs
    after each iteration with the sampling paused.
    """
    api = _api()
    outcomes = []
    with Sampler(AdamKernel(**workload.REFERENCE)) as sampler:
        deadline = time.perf_counter() + seconds
        while True:
            outcomes.append(workload.run_once(api))
            if between is not None:
                with sampler.paused():
                    between()
            left = deadline - time.perf_counter()
            # stop rather than start an iteration that would end far past the deadline
            if left < 0.5 * outcomes[-1].run_s:
                break
    for o in outcomes:
        o.samples = len(sampler.within(*o.run))
        o.ref_s = sampler.unit(*o.run)
        o.run_net_s = sampler.cost(*o.run, 1.0)
        o.fit_phase_net_s = sampler.cost(*o.fit_phase, 1.0)
        o.run_ref = o.run_net_s / o.ref_s
        o.fit_phase_ref = o.fit_phase_net_s / o.ref_s
    metrics = {
        "run_ref": statistics.median(o.run_ref for o in outcomes),
        "fits_per_ref": statistics.median(o.fits / o.fit_phase_ref for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = [p for o in outcomes for p in o.problems] + _check_repeatable(outcomes)
    return metrics, outcomes, _unique(problems)


def run_untraced_and_traced(workload):
    """One untraced and one traced iteration; returns both and the tracer."""
    plain = workload.run_once(_api())
    api = _api()
    with Tracer() as tracer:
        layers.install(tracer, hs, api)
        traced = workload.run_once(api)
    problems = _unique(plain.problems + traced.problems)
    if repr(traced.quality) != repr(plain.quality):
        problems.append(f"tracing changed the result: quality {traced.quality!r} vs {plain.quality!r}")
    return plain, traced, tracer, problems


# ---------------------------------------------------------------------------
# Provenance.


def _blas_threads():
    import ctypes

    names = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    git_sha = None
    # a checkout without .git must not report the sha of a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            git_sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sources = sorted((ROOT / "src" / "helssvr").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        raw = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + raw)
        lines += raw.count(b"\n")
    blas = (np.show_config(mode="dicts").get("Build Dependencies") or {}).get("blas") or {}
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# Entry point.


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_library()
    spec = _benchmark_spec()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)

    setup_times = time_setup(workload, workdir, SETUP_FIRST)
    warm_up()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setup_s": setup_times}
    if args.trace:
        plain, traced, tracer, problems = run_untraced_and_traced(workload)
        values = layers.metrics(tracer, plain, traced)
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        absent = [name for name in wanted if name not in values]
        if absent:
            print(f"absent layer metrics: {', '.join(absent)} (wrapped names not found: {tracer.missing})",
                  file=sys.stderr)
        tracer.write(workdir / "spans.csv")
        attempted, failed = traced.attempted, traced.failed
        outcomes = [plain, traced]
        record["iterations"] = {"untraced_s": plain.run_s, "traced_s": traced.run_s}
    else:
        e2e, outcomes, problems = measure(
            workload, args.seconds, between=lambda: setup_times.extend(time_setup(workload, workdir, 1))
        )
        values = dict(e2e, setup_s=statistics.median(setup_times))
        wanted = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        shown = dict(
            workload.own_metrics(outcomes),
            run_s=(statistics.median(o.run_net_s for o in outcomes), "s"),
            fits_per_s=(statistics.median(o.fits / o.fit_phase_net_s for o in outcomes), "1/s"),
            ref_s=(statistics.median(o.ref_s for o in outcomes), "s"),
            quality_rmse=(outcomes[0].quality, "1"),
        )
        record["iterations"] = [
            {"run_s": o.run_s, "fit_phase_s": o.fit_phase_s, "run_net_s": o.run_net_s,
             "fit_phase_net_s": o.fit_phase_net_s, "ref_s": o.ref_s, "samples": o.samples,
             "run_ref": o.run_ref, "fit_phase_ref": o.fit_phase_ref, "fits": o.fits, "quality": o.quality, **o.extra}
            for o in outcomes
        ]
    if problems:
        failed = max(failed, 1)
    if not args.trace:
        shown["failed_frac"] = (failed / max(attempted, 1), "1")
        record["own_metrics"] = {name: {"value": v, "unit": unit} for name, (v, unit) in shown.items()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted if name in values}
    notes = _unique(n for o in outcomes for n in o.notes)
    record.update(provenance=provenance(), problems=problems, notes=notes, metrics=metrics)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for note in notes:
        print(f"NOTE (not a failure): {note}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, m in record.get("own_metrics", {}).items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']} (recorded, not gated)")
    print(json.dumps({"provenance": record["provenance"]}))
    result = {"correct": not problems, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
