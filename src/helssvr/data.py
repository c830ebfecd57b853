"""Dataset ingestion, scaling, fold splitting, and synthetic benchmarks.

One reader parses every data CSV.  Rows whose cell count differs from the
header are a format error.  A row with a non-numeric or missing target or
feature cell is skipped and counted when loading a training set
(:func:`load_csv`), and is an error when loading features to predict on
(:func:`load_features`); dropped columns are never parsed.  The synthetic
generators produce five 1-d target functions with a choice of Gaussian,
uniform, or Student-t noise, always returning the noise-free targets
alongside the noisy ones.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from .seeding import make_rng, sample_without_replacement

SCALING_MODES = ("none", "minmax", "zscore")
NOISE_KINDS = ("gaussian", "uniform", "student", "none")


@dataclass
class Dataset:
    """Feature matrix plus target vector."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str] | None = None
    name: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-d")
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise ValueError("y must be 1-d with one entry per row of X")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class LoadReport:
    """Row accounting from a CSV parse."""

    rows_total: int
    rows_used: int
    rows_rejected: int


def _read_columns(path, has_header, delimiter, target_column, drop_columns, strict_rows):
    """The target and feature columns of a numeric CSV, parsed row by row.

    Returns ``(y, X, feature_names, report)``; ``y`` is None when
    ``target_column`` is None.  Only the target and feature cells are
    parsed, so a dropped column may hold text.  A row with a wrong cell
    count raises; a row with an unparseable or empty cell raises with
    ``strict_rows``, and is otherwise skipped and counted.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [(reader.line_num, r) for r in reader if r]  # blank lines carry no data
    if not rows:
        raise ValueError(f"{path}: no rows")

    names = None
    if has_header:
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        width = len(names)
    else:
        width = len(rows[0][1])

    def resolve_column(col, what):
        if isinstance(col, str) and not col.lstrip("-").isdigit():
            if names is None:
                raise ValueError(f"{what} column given by name but the file has no header")
            try:
                return names.index(col)
            except ValueError:
                raise ValueError(f"{what} column {col!r} not in header {names}") from None
        idx = int(col)
        if not -width <= idx < width:
            raise ValueError(f"{what} column index {idx} out of range for width {width}")
        return idx % width

    target_idx = None if target_column is None else resolve_column(target_column, "target")
    drop_idx = {resolve_column(c, "drop") for c in drop_columns}
    if target_idx in drop_idx:
        raise ValueError("target column cannot also be dropped")
    feature_idx = [i for i in range(width) if i != target_idx and i not in drop_idx]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns left")
    used = feature_idx if target_idx is None else [target_idx, *feature_idx]

    parsed = []
    rejected = 0
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} cells, found {len(row)}")
        try:
            parsed.append([float(row[i]) for i in used])
        except ValueError:
            if strict_rows:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
            rejected += 1
    if not parsed:
        raise ValueError(f"{path}: no usable numeric rows")

    data = np.asarray(parsed, dtype=float)
    if target_idx is None:
        y, X = None, data
    else:
        # column-major: the summation order of the column means that
        # zscore scaling takes, and so their bits, follow the layout
        y, X = data[:, 0], np.asfortranarray(data[:, 1:])
    feature_names = None if names is None else [names[i] for i in feature_idx]
    report = LoadReport(rows_total=len(rows), rows_used=len(parsed), rows_rejected=rejected)
    return y, X, feature_names, report


def load_csv(
    path,
    has_header: bool = True,
    target_column=None,
    delimiter: str = ",",
    drop_columns=(),
) -> tuple[Dataset, LoadReport]:
    """Parse a numeric CSV into a dataset.

    ``target_column`` may be a column name (header required), an integer
    index, or None for the last column.  ``drop_columns`` (names or
    indices) are excluded from the features and never parsed; useful for
    auxiliary columns such as the noise-free targets in synthetic files or
    a text id.  Rows with a wrong cell count raise; rows with an
    unparseable or empty target or feature cell are skipped and counted in
    the report.
    """
    target = -1 if target_column is None else target_column
    y, X, feature_names, report = _read_columns(
        path, has_header, delimiter, target, drop_columns, strict_rows=False
    )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError(f"{path}: non-finite values in data")
    return Dataset(X=X, y=y, feature_names=feature_names, name=str(path)), report


def load_features(
    path,
    has_header: bool = True,
    target_column=None,
    delimiter: str = ",",
    drop_columns=(),
) -> np.ndarray:
    """Feature matrix of a CSV to predict on, one row per data row.

    No target column is required: ``target_column``, if given, is skipped
    like the ``drop_columns``.  Every row must have the header's width and
    every feature cell must parse, else the ValueError names the file and
    line; so the output rows map one-to-one to the input rows.  Non-finite
    values are passed on for :func:`~helssvr.model.predict` to reject.
    """
    skip = tuple(drop_columns) if target_column is None else (*drop_columns, target_column)
    return _read_columns(path, has_header, delimiter, None, skip, strict_rows=True)[1]


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffle ``range(n)`` by seed and deal it into k disjoint folds.

    Fold sizes differ by at most one (the larger folds come first).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    perm = sample_without_replacement(make_rng(seed, 0xF01D), n, n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


# ---------------------------------------------------------------------------
# Synthetic benchmarks: five 1-d functions on fixed domains.

FUNCTION_DOMAINS = {
    1: (0.0, 2.0 * np.pi),
    2: (-4.0, 4.0),
    3: (0.0, 2.0 * np.pi),
    4: (-4.0, 4.0),
    5: (-4.0, 4.0),
}


def benchmark_function(function_id: int, x):
    """Noise-free target values of benchmark function 1..5 at ``x``."""
    x = np.asarray(x, dtype=float)
    if function_id == 1:
        return np.sin(x)
    if function_id == 2:
        # sin(3x) / (3x), continuously extended to 1 at x = 0
        u = 3.0 * x
        out = np.ones_like(u)
        nz = u != 0.0
        out[nz] = np.sin(u[nz]) / u[nz]
        return out
    if function_id == 3:
        return np.sin(x) * np.cos(x * x)
    if function_id == 4:
        return x * np.cos(x)
    if function_id == 5:
        return (1.0 - x + 2.0 * x * x) * np.exp(-0.5 * x * x)
    raise ValueError(f"unknown benchmark function id {function_id}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset: function, noise family, size, seed."""

    function_id: int
    noise: str
    n_samples: int = 500
    seed: int = 0
    sampling: str = "uniform"  # or "grid": equally spaced over the domain

    def __post_init__(self):
        if self.function_id not in FUNCTION_DOMAINS:
            raise ValueError(f"function_id must be 1..5, got {self.function_id}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if not isinstance(self.n_samples, numbers.Integral) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples!r}")
        if self.sampling not in ("uniform", "grid"):
            raise ValueError(f"sampling must be 'uniform' or 'grid', got {self.sampling!r}")


def _draw_noise(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "gaussian":
        return 0.2 * rng.standard_normal(n)
    if kind == "uniform":
        return rng.uniform(-0.2, 0.2, n)
    if kind == "student":
        # t with 10 degrees of freedom as normal / sqrt(chi-square / dof),
        # composed from plain normals for portability
        z = rng.standard_normal(n)
        w = rng.standard_normal((n, 10))
        return z / np.sqrt(np.einsum("ij,ij->i", w, w) / 10.0)
    return np.zeros(n)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Sample one synthetic dataset; returns (dataset, noise-free targets)."""
    lo, hi = FUNCTION_DOMAINS[spec.function_id]
    rng = make_rng(spec.seed, spec.function_id)
    if spec.sampling == "grid":
        x = np.linspace(lo, hi, spec.n_samples)
    else:
        x = rng.uniform(lo, hi, spec.n_samples)
    y_true = benchmark_function(spec.function_id, x)
    y = y_true + _draw_noise(rng, spec.noise, spec.n_samples)
    name = f"f{spec.function_id}_{spec.noise}"
    ds = Dataset(X=x.reshape(-1, 1), y=y, feature_names=["x"], name=name)
    return ds, y_true


def write_csv(path, header, rows) -> None:
    """Write a header row and then every row of ``rows`` as one CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_synthetic_csv(path, ds: Dataset, y_true) -> None:
    """Write a synthetic dataset as x,y,y_true rows."""
    columns = (ds.X[:, 0], ds.y, np.asarray(y_true, dtype=float))
    write_csv(path, ["x", "y", "y_true"], ([repr(float(v)) for v in row] for row in zip(*columns)))


# ---------------------------------------------------------------------------
# Feature/target scaling.  Parameters are always fit on training data only;
# constant columns map to 0 and invert back to their constant.


@dataclass(frozen=True)
class ScalingState:
    """Fitted per-feature and target scaling parameters."""

    mode: str
    feature_a: np.ndarray | None = None  # minmax: mins;  zscore: means
    feature_b: np.ndarray | None = None  # minmax: maxs;  zscore: stds
    target_a: float | None = None
    target_b: float | None = None


def _fit_columns(values: np.ndarray, mode: str):
    if mode == "minmax":
        return values.min(axis=0), values.max(axis=0)
    means = values.mean(axis=0)
    stds = values.std(axis=0)
    return means, stds


def _apply_columns(values, a, b, mode):
    span = b - a if mode == "minmax" else b
    nz = span != 0
    scaled = (np.asarray(values, dtype=float) - a) / np.where(nz, span, 1.0)
    return np.where(nz, scaled, 0.0)


def scale_fit(X, y, mode: str) -> ScalingState:
    """Fit scaling parameters on training features and targets."""
    if mode not in SCALING_MODES:
        raise ValueError(f"scaling mode must be one of {SCALING_MODES}, got {mode!r}")
    if mode == "none":
        return ScalingState(mode="none")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fa, fb = _fit_columns(X, mode)
    fa.flags.writeable = fb.flags.writeable = False  # shared by every model the state scales
    ta, tb = _fit_columns(y.reshape(-1, 1), mode)
    return ScalingState(mode=mode, feature_a=fa, feature_b=fb, target_a=float(ta[0]), target_b=float(tb[0]))


def scale_features(state: ScalingState, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if state.mode == "none":
        return X.copy()
    if X.shape[1] != state.feature_a.shape[0]:
        raise ValueError(
            f"feature count {X.shape[1]} does not match fitted scaler ({state.feature_a.shape[0]})"
        )
    return _apply_columns(X, state.feature_a, state.feature_b, state.mode)


def scale_target(state: ScalingState, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if state.mode == "none":
        return y.copy()
    return _apply_columns(y.reshape(-1, 1), np.array([state.target_a]), np.array([state.target_b]), state.mode)[:, 0]


def inverse_target(state: ScalingState, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if state.mode == "none":
        return y.copy()
    span = state.target_b - state.target_a if state.mode == "minmax" else state.target_b
    return y * span + state.target_a

