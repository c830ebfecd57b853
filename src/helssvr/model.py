"""The HE-LSSVR estimator and its baseline-loss variants.

Fitting builds the training Gram matrix, minimizes the kernel objective
with mini-batch Adam, and keeps the (scaled) training inputs so the model
is self-contained: prediction is f(x) = sum_k alpha_k K(x, x_k) followed
by inverse target scaling.  There is no separate bias term; centering, if
wanted, comes from the scaling layer.

Swapping the loss spec turns the same pipeline into any of the baseline
regressors (least squares, insensitive, ramp variants, ...).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .data import SCALING_MODES, ScalingState, inverse_target, scale_features, scale_fit, scale_target
from .kernels import GramMatrix, KernelSpec, block_rows, gram_buffer, gram_matrix, kernel_row
from .losses import LossSpec
from .optimizer import AdamConfig, AdamState, check_rate_and_seed, objective_value, train_adam

MODEL_FORMAT = "helssvr-model-v1"


@dataclass(frozen=True)
class TrainedModel:
    """Coefficients, retained training inputs, and scaling metadata.

    Immutable: the fields cannot be reassigned, and ``alpha``, ``X_train``
    and the scaling vectors are read-only arrays, so a model (and the
    training inputs and scaling the models of one :func:`fit_cells` call
    share) is safe to share.
    """

    alpha: np.ndarray
    X_train: np.ndarray  # stored in scaled space
    kernel: KernelSpec
    loss: LossSpec
    C: float
    scaling: ScalingState


@dataclass
class FitReport:
    """Training summary: objective values, iterations, why training
    stopped, wall times.

    ``final_objective`` is H of the returned coefficients, the averaged
    iterate (see :func:`~helssvr.optimizer.train_adam`).
    ``stop_reason`` is ``"max_iter"`` when all ``AdamConfig.max_iter`` steps
    ran, or ``"early_stop"`` when the early-stopping rule ended the run
    after ``iterations`` steps.  In a grid search a fold of a cell that
    successive halving cut reports ``"halved"``, with the step of the cut
    as ``iterations`` (see :func:`helssvr.evaluation.grid_search_cv`).
    When cells train together (:func:`fit_cells`), the Gram build and each
    optimizer stack's run are timed once and split evenly among the cells
    that share them; a resumed cell's times are those of the call that
    resumed it.  ``state`` is the optimizer's final state, from which
    :func:`fit_cells` can resume the cell (None in a grid search's
    reports).
    """

    final_objective: float
    initial_objective: float
    iterations: int
    stop_reason: str
    wall_time_seconds: float
    gram_seconds: float
    trace: list[float] | None = None
    state: AdamState | None = None


#: most cells one optimizer stack trains together; bounds the (rows, n)
#: working arrays of :func:`train_adam`
STACK_ROWS = 32

#: most bytes of Gram matrices one optimizer stack holds.  Training sets of
#: equal size share a stack while their Grams (8 n^2 bytes each) total at
#: most this; a larger Gram trains in a stack of its own.  Stacking saves
#: per-step Python work, but each step reads every Gram of the stack, and
#: once they spill from the per-core L2 cache (2 MiB) the reads cost more
#: than the saving.  Five folds of two HawkEye cells, 1000 steps, time with
#: one fold per stack -> all five in one stack (2-core Xeon VM, OpenBLAS
#: 0.3.31 on one thread, min-max of 3 runs):
#:
#:   ====================  ===========  ==========================  =====
#:   fold rows, batch      Grams        one per stack -> stacked    ratio
#:   ====================  ===========  ==========================  =====
#:   120, 32               576,000 B    0.29-0.31 s -> 0.12-0.17 s  0.47
#:   160, 32 (cli_bench)   1,024,000 B  0.34-0.35 s -> 0.20-0.20 s  0.58
#:   160, full             1,024,000 B  0.29-0.29 s -> 0.15-0.19 s  0.56
#:   200, 32               1,600,000 B  0.32-0.32 s -> 0.22-0.23 s  0.71
#:   200, full             1,600,000 B  0.27-0.28 s -> 0.21-0.24 s  0.79
#:   240, 32               2,304,000 B  0.36-0.47 s -> 0.36-0.48 s  0.85
#:   240, full             2,304,000 B  0.36-0.39 s -> 0.37-0.40 s  1.05
#:   280, 32               3,136,000 B  0.36-0.43 s -> 0.40-0.45 s  1.14
#:   320, full (grid_cv)   4,096,000 B  0.43-0.44 s -> 0.56-0.57 s  1.30
#:   ====================  ===========  ==========================  =====
#:
#: The two benchmark rows were timed with each fold's two rows as one GEMM
#: per fold (:func:`helssvr.optimizer.gram_products`); two more rounds gave
#: ratios of 0.56-0.59 and 1.26-1.41.  The other rows were timed with one
#: GEMV per row.
#:
#: The crossover lies between 1.6 and 2.3 MB.  Any budget from 1,024,000 B
#: to 4,096,000 B splits the benchmark's shapes alike (160-row folds
#: stacked, 320-row folds apart); 1 MiB is the conservative choice, on
#: the side where stacking won every measurement.  With the GEMM the two
#: benchmark shapes stay on their sides, so the budget is unchanged.
STACK_GRAM_BYTES = 1 << 20


def _fold_stacks(sizes) -> list[list[int]]:
    """The training sets, by index, whose cells share each optimizer stack.

    ``sizes`` gives each set's row count.  Only sets of equal size share a
    stack, in index order, as many as :data:`STACK_GRAM_BYTES`,
    :data:`STACK_ROWS` and a Gram buffer within
    :data:`helssvr.kernels.GRAM_MAX_BYTES` allow (at least one).
    """
    by_size: dict = {}
    for j, n in enumerate(sizes):
        by_size.setdefault(n, []).append(j)
    stacks = []
    for n, sets in by_size.items():
        per = max(1, min(STACK_GRAM_BYTES // (8 * n * n), STACK_ROWS))
        while per > 1 and kernels.gram_buffer_bytes(per, n) > kernels.GRAM_MAX_BYTES:
            per -= 1
        stacks.extend(sets[k : k + per] for k in range(0, len(sets), per))
    return stacks


def _training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data contains non-finite values")
    return X, y


def fit_cells(
    sets, kernel: KernelSpec, cells, adam: AdamConfig | None = None, scaling: str = "minmax", resume=None
) -> list[tuple[TrainedModel, FitReport]]:
    """Train cells of one loss kind on one or more training sets with one
    kernel and one Adam configuration.

    ``sets`` holds ``(X, y)`` training sets, such as the folds of a cross
    validation, and ``cells`` holds ``(set, loss, C, gamma, seed)``: the
    index of the cell's training set, then its loss, C, learning rate and
    Adam seed, which replace ``adam``'s (None means the defaults) and are
    checked as :class:`AdamConfig` checks its own, naming the cell.  Every
    cell's loss is of one kind.  Returns one (model, report) per cell.
    ``resume`` optionally gives each cell a ``FitReport.state`` of an
    earlier call with the same set, loss and C, from which it trains on to
    ``adam.max_iter`` steps (None starts it fresh; the cells that share a
    stack must all start fresh or from one step count).  The Grams are
    built again.

    Each set is scaled and gets its Gram matrix once.  Cells train together
    when their sets agree in size (see :func:`_fold_stacks`), in stacks of
    at most :data:`STACK_ROWS` that take the same number of cells from each
    set, in cell order.  Only one stack's Grams are held at a time, in one
    buffer.  Results are bit-identical for the same cells and
    :data:`STACK_ROWS`.  A cell that trains as the only row of its set in
    its stack is bit-identical to a :func:`fit` of that cell alone; one
    that shares its set's Gram products with other rows agrees with it to
    rounding (see :func:`helssvr.optimizer.train_adam`).  A run resumed to
    step T is bit-identical to a run to T in the same stack layout.
    """
    sets = [_training_set(X, y) for X, y in sets]
    adam = AdamConfig() if adam is None else adam
    cells = list(cells)
    if not cells:
        raise ValueError("fit_cells needs at least one cell")
    kinds = sorted({loss.kind for _, loss, *_ in cells})
    if len(kinds) > 1:
        raise ValueError(f"fit_cells trains one loss kind per call, got {kinds}")
    if not all(C > 0 for _, _, C, *_ in cells):
        raise ValueError("C must be > 0")
    for i, (*_, gamma, seed) in enumerate(cells):
        check_rate_and_seed(gamma, seed, f": cell {i}")
    if not all(0 <= j < len(sets) for j, *_ in cells):
        raise ValueError(f"cell training set indices must lie in [0, {len(sets)})")
    resume = [None] * len(cells) if resume is None else list(resume)
    if len(resume) != len(cells):
        raise ValueError(f"fit_cells got {len(resume)} resume states for {len(cells)} cells")
    cells_of = [[] for _ in sets]
    for i, (j, *_) in enumerate(cells):
        cells_of[j].append(i)

    out = [None] * len(cells)
    used = [j for j in range(len(sets)) if cells_of[j]]
    for group in _fold_stacks([sets[j][0].shape[0] for j in used]):
        group = [used[g] for g in group]
        n = sets[group[0]][0].shape[0]
        gram = GramMatrix(gram_buffer(len(group), n))
        ys = np.empty((len(group), n))
        scaled = []  # (scaled X, scaling, Gram seconds per cell) of each set
        for k, j in enumerate(group):
            X, y = sets[j]
            state_scaling = scale_fit(X, y, scaling)
            Xs = scale_features(state_scaling, X)
            Xs.flags.writeable = False  # shared by every cell's model
            ys[k] = scale_target(state_scaling, y)
            t0 = time.perf_counter()
            gram_matrix(kernel, Xs, out=gram.values[k])
            scaled.append((Xs, state_scaling, (time.perf_counter() - t0) / len(cells_of[j])))

        # a stack takes the same number of cells from each set, so that its
        # layout stays uniform across the sets
        per = max(1, STACK_ROWS // len(group))
        for lo in range(0, max(len(cells_of[j]) for j in group), per):
            folds, rows = zip(*((k, i) for k, j in enumerate(group) for i in cells_of[j][lo : lo + per]))
            _, losses, Cs, gammas, seeds = zip(*(cells[i] for i in rows))
            t1 = time.perf_counter()
            stack = train_adam(
                gram, ys, Cs, losses, adam, gamma=gammas, seed=seeds, fold=folds, resume=[resume[i] for i in rows]
            )
            wall = (time.perf_counter() - t1) / len(rows)
            for k, i, loss, C, state in zip(folds, rows, losses, Cs, stack.states):
                Xs, state_scaling, gram_seconds = scaled[k]
                gram_k = GramMatrix(gram.values[k])
                state.alpha.flags.writeable = False
                model = TrainedModel(
                    alpha=state.alpha, X_train=Xs, kernel=kernel, loss=loss, C=float(C), scaling=state_scaling
                )
                report = FitReport(
                    final_objective=objective_value(state.alpha, gram_k, ys[k], C, loss),
                    initial_objective=objective_value(np.full(n, float(adam.alpha0)), gram_k, ys[k], C, loss),
                    iterations=state.t,
                    stop_reason="early_stop" if state.stopped else "max_iter",
                    wall_time_seconds=wall,
                    gram_seconds=gram_seconds,
                    trace=state.trace,
                    state=state,
                )
                out[i] = (model, report)
    return out


def fit(
    X,
    y,
    kernel: KernelSpec,
    loss: LossSpec,
    C: float,
    adam: AdamConfig | None = None,
    scaling: str = "minmax",
) -> tuple[TrainedModel, FitReport]:
    """Train on (X, y); returns the model and a fit report.

    Scaling parameters are fit on this training data only.  The reported
    wall time covers the optimizer run; Gram construction is timed
    separately.  This is the one-cell case of :func:`fit_cells`.
    """
    adam = AdamConfig() if adam is None else adam
    return fit_cells([(X, y)], kernel, [(0, loss, C, adam.gamma, adam.seed)], adam, scaling)[0]


def predict_cells(models, X_new) -> list[np.ndarray]:
    """Predictions of several models for new samples, one array per model.

    The models must share their training inputs and scaling (the same
    objects, as the models of one training set of :func:`fit_cells` do)
    and their kernel.  Each new sample's kernel row is computed once, in
    blocks of :func:`helssvr.kernels.block_rows` samples that reuse one
    buffer; each block is scaled as it is evaluated, so the queries are
    never copied as a whole.  Each raw prediction is that row's dot
    product with one model's coefficients, so every model's predictions
    are bit-identical to :func:`predict` of it alone.  Predictions are in
    original target units.
    """
    models = list(models)
    if not models:
        raise ValueError("predict_cells needs at least one model")
    first = models[0]
    if not all(m.X_train is first.X_train and m.scaling is first.scaling and m.kernel == first.kernel for m in models):
        raise ValueError("predict_cells needs models that share X_train, scaling and kernel")
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new.reshape(-1, 1)
    if X_new.shape[1] != first.X_train.shape[1]:
        raise ValueError(
            f"feature count {X_new.shape[1]} does not match training data ({first.X_train.shape[1]})"
        )
    if not np.isfinite(X_new).all():
        row, col = np.argwhere(~np.isfinite(X_new))[0]
        raise ValueError(f"features must be finite: row {row}, column {col} is {X_new[row, col]!r}")
    step = block_rows(*first.X_train.shape)
    block = np.empty((min(step, X_new.shape[0]), first.X_train.shape[0]))
    raw = np.empty((len(models), X_new.shape[0]))
    for lo in range(0, X_new.shape[0], step):
        queries = X_new[lo : lo + step]
        if first.scaling.mode != "none":
            queries = scale_features(first.scaling, queries)
        rows = kernel_row(first.kernel, queries, first.X_train, out=block[: queries.shape[0]])
        for i, row in enumerate(rows, lo):
            for c, model in enumerate(models):
                raw[c, i] = row @ model.alpha
    return [inverse_target(first.scaling, r) for r in raw]


def predict(model: TrainedModel, X_new) -> np.ndarray:
    """Predictions for new samples, in original target units.

    Each raw prediction is the dot product of a kernel row against the
    coefficients, computed through the same code path as the Gram rows.
    This is the one-model case of :func:`predict_cells`.
    """
    return predict_cells([model], X_new)[0]


# ---------------------------------------------------------------------------
# Serialization: one JSON document, canonical key order, full float
# precision via repr, so save -> load -> predict is bit-exact and two runs
# with the same seed produce byte-identical files.


def _scaling_to_doc(s: ScalingState) -> dict:
    return {
        "mode": s.mode,
        "feature_a": None if s.feature_a is None else s.feature_a.tolist(),
        "feature_b": None if s.feature_b is None else s.feature_b.tolist(),
        "target_a": s.target_a,
        "target_b": s.target_b,
    }


def _array_field(value, name: str, ndim: int) -> np.ndarray:
    """Model field ``name`` as a finite float array of ``ndim`` dimensions."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {name!r} is not a numeric array: {exc}") from None
    if arr.ndim != ndim:
        raise ValueError(f"model field {name!r} must be {ndim}-dimensional, got shape {arr.shape}")
    # the float conversion also accepts numeric text ("0.04") and booleans
    leaves = np.asarray(value, dtype=object).ravel()
    if set(map(type, leaves)) - {int, float}:
        bad = next(v for v in leaves if type(v) not in (int, float))
        raise ValueError(f"model field {name!r} must hold only numbers, got {bad!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"model field {name!r} contains non-finite values")
    return arr


def _member(doc, path: str):
    """The value at the dotted ``path`` of a model document.

    The error names the field that is missing or is not a JSON object.
    """
    value, keys = doc, path.split(".")
    for depth, key in enumerate(keys):
        if not isinstance(value, dict):
            where = f"field {'.'.join(keys[:depth])!r}" if depth else "document"
            raise ValueError(f"model {where} must be a JSON object, got {type(value).__name__}")
        if key not in value:
            raise ValueError(f"model field {'.'.join(keys[: depth + 1])!r} is missing")
        value = value[key]
    return value


def _number(doc, path: str) -> float:
    """The finite JSON number at the dotted ``path`` of a model document."""
    value = _member(doc, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValueError(f"model field {path!r} must be a finite number, got {value!r}")
    return float(value)


def _scaling_from_doc(doc: dict, n_features: int) -> ScalingState:
    mode = _member(doc, "scaling.mode")
    if mode not in SCALING_MODES:
        raise ValueError(f"model field 'scaling.mode' must be one of {SCALING_MODES}, got {mode!r}")
    keys = ("feature_a", "feature_b", "target_a", "target_b")
    if mode == "none":
        for key in keys:
            if _member(doc, f"scaling.{key}") is not None:
                raise ValueError(f"model field 'scaling.{key}' must be null for scaling mode 'none'")
        return ScalingState(mode="none")
    vectors = {}
    for key in keys[:2]:
        vectors[key] = _array_field(_member(doc, f"scaling.{key}"), f"scaling.{key}", 1)
        vectors[key].flags.writeable = False
        if vectors[key].shape[0] != n_features:
            raise ValueError(
                f"model field 'scaling.{key}' has {vectors[key].shape[0]} entries for {n_features} features"
            )
    return ScalingState(
        mode=mode,
        feature_a=vectors["feature_a"],
        feature_b=vectors["feature_b"],
        target_a=_number(doc, "scaling.target_a"),
        target_b=_number(doc, "scaling.target_b"),
    )


def model_to_json(model: TrainedModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "kernel": {"kind": model.kernel.kind, "sigma": model.kernel.sigma},
        "loss": {"kind": model.loss.kind, **model.loss.params()},
        "C": model.C,
        "scaling": _scaling_to_doc(model.scaling),
        "x_train": model.X_train.tolist(),
        "alpha": model.alpha.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def model_from_json(text: str) -> TrainedModel:
    """Parse a saved model, rejecting fields that could not have been saved.

    ``alpha`` must be 1-D, ``x_train`` 2-D and one row per coefficient,
    both of finite JSON numbers (not text or booleans), and ``C``, the loss parameters and ``kernel.sigma``
    (null for a linear kernel) finite numbers.  ``scaling.mode`` must be
    one of ``SCALING_MODES``; a scaled model needs finite target numbers
    and scaling vectors of one finite entry per feature, an unscaled one
    null in all four fields.  A document that is not a JSON object, a
    missing field or an unknown loss parameter is rejected too.  The error
    names the first field at fault.
    """
    doc = json.loads(text)
    if _member(doc, "format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc['format']!r}")
    kind = _member(doc, "loss.kind")
    loss_params = [k for k in doc["loss"] if k != "kind"]
    unknown = sorted(set(loss_params) - {f.name for f in fields(LossSpec)})
    if unknown:
        raise ValueError(f"model field 'loss' has unknown parameter {unknown[0]!r}")
    sigma = None if _member(doc, "kernel.sigma") is None else _number(doc, "kernel.sigma")
    alpha = _array_field(_member(doc, "alpha"), "alpha", 1)
    X_train = _array_field(_member(doc, "x_train"), "x_train", 2)
    alpha.flags.writeable = X_train.flags.writeable = False
    if X_train.shape[0] != alpha.shape[0]:
        raise ValueError(
            f"model field 'alpha' has {alpha.shape[0]} coefficients for {X_train.shape[0]} rows of 'x_train'"
        )
    return TrainedModel(
        alpha=alpha,
        X_train=X_train,
        kernel=KernelSpec(kind=_member(doc, "kernel.kind"), sigma=sigma),
        loss=LossSpec(kind=kind, **{k: _number(doc, f"loss.{k}") for k in loss_params}),
        C=_number(doc, "C"),
        scaling=_scaling_from_doc(doc, X_train.shape[1]),
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())


__all__ = [
    "MODEL_FORMAT",
    "FitReport",
    "TrainedModel",
    "fit",
    "fit_cells",
    "load_model",
    "model_from_json",
    "model_to_json",
    "objective_value",
    "predict",
    "predict_cells",
    "save_model",
]
