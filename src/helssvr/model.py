"""The HE-LSSVR estimator and its baseline-loss variants.

Fitting builds the training Gram matrix, minimizes the kernel objective
with mini-batch Adam, and keeps the (scaled) centers of the model's kernel
expansion so the model is self-contained: prediction is
f(x) = sum_k alpha_k K(x, x_k) followed by inverse target scaling.  The
centers are the training inputs, or, for a set trained on a low-rank
factor of its Gram, the factor's r pivot rows.  There is no separate bias
term; centering, if wanted, comes from the scaling layer.

Swapping the loss spec turns the same pipeline into any of the baseline
regressors (least squares, insensitive, ramp variants, ...).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields

import numpy as np

from .data import SCALING_MODES, ScalingState, inverse_target, not_utf8, scale_features, scale_fit, scale_target
from .kernels import RBF, GramFactors, GramMatrix, KernelSpec, block_rows, gram_buffer, gram_factor, gram_matrix, kernel_row
from .losses import LossSpec
from .optimizer import AdamConfig, AdamState, check_cell, check_seed, objective_value, train_adam

MODEL_FORMAT = "helssvr-model-v1"


@dataclass(frozen=True)
class TrainedModel:
    """Coefficients, the kernel expansion's centers, and scaling metadata.

    ``X_train`` holds the centers in scaled space: every training row, or,
    for a set trained on a pivoted-Cholesky factor of its Gram, the r pivot
    rows (see :func:`fit_cells`).  Immutable: the fields cannot be
    reassigned, and ``alpha``, ``X_train`` and the scaling vectors are
    read-only arrays, so a model (and the centers and scaling the models of
    one :func:`fit_cells` call share) is safe to share.
    """

    alpha: np.ndarray
    X_train: np.ndarray
    kernel: KernelSpec
    loss: LossSpec
    C: float
    scaling: ScalingState


@dataclass
class FitReport:
    """Training summary: the final objective, wall times and the
    optimizer's final state.

    ``final_objective`` is H of the returned coefficients, the averaged
    iterate (see :func:`~helssvr.optimizer.train_adam`).  ``state`` is the
    optimizer's final state: ``state.t`` is the number of steps trained,
    ``state.trace`` the objective at every step when ``collect_trace`` is
    set, and :func:`fit_cells` can resume the cell from it.
    When cells train together (:func:`fit_cells`), the Gram build and each
    optimizer stack's run are timed once and split evenly among the cells
    that share them; a resumed cell's times are those of the call that
    resumed it.
    """

    final_objective: float
    wall_time_seconds: float
    gram_seconds: float
    state: AdamState


#: most cells one optimizer stack trains together; bounds the (rows, n)
#: working arrays of :func:`train_adam`
STACK_ROWS = 32

#: most bytes of Grams one optimizer stack holds.  Training sets of one
#: size and Gram form share a stack while their Grams (see
#: :mod:`helssvr.kernels`) total at most this.  Stacking saves per-step
#: Python work, but each step reads every Gram of the stack, and once they
#: spill from the per-core L2 cache the reads cost more than the saving:
#: five stacked folds ran slower from 2.3 MB on (2-core VM, one OpenBLAS
#: thread).
#:
#: The budget also sets the Gram's form: a set two of whose float64 Grams
#: exceed it (n >= 257 rows) trains on a pivoted-Cholesky factor of its
#: Gram, or on a float32 Gram where the factor's rank reaches n/4 (see
#: :func:`fit_cells`).  Changing the budget therefore changes the numbers
#: of every fit whose size lies between the old and the new gate.
STACK_GRAM_BYTES = 1 << 20


def _tries_factor(n: int) -> bool:
    """Whether a set of n rows tries a Gram factor: where two of its
    float64 Grams exceed :data:`STACK_GRAM_BYTES`, so that
    :func:`_fold_stacks` would give each such Gram a stack of its own."""
    return 2 * 8 * n * n > STACK_GRAM_BYTES


def _fold_stacks(forms, nbytes) -> list[list[int]]:
    """The training sets, by index, whose cells share each optimizer stack.

    ``forms`` gives each set's (rows, Gram dtype), the dtype None for a
    Gram factor, and ``nbytes`` the bytes of its Gram.  Only sets of one
    form share a stack, in index order, while their Grams total at most
    :data:`STACK_GRAM_BYTES` and they number at most :data:`STACK_ROWS`
    (at least one).
    """
    by_form: dict = {}
    for j, form in enumerate(forms):
        by_form.setdefault(form, []).append(j)
    stacks = []
    for sets in by_form.values():
        stacks.append([])
        held = 0
        for j in sets:
            if stacks[-1] and (held + nbytes[j] > STACK_GRAM_BYTES or len(stacks[-1]) == STACK_ROWS):
                stacks.append([])
                held = 0
            stacks[-1].append(j)
            held += nbytes[j]
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
    if X.shape[1] == 0:
        raise ValueError("cannot fit on samples with no features")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data contains non-finite values")
    return X, y


def fit_cells(
    sets, kernel, cells, adam: AdamConfig | None = None, scaling: str = "minmax", resume=None, seeds=None
) -> list[tuple[TrainedModel, FitReport]]:
    """Train cells of one or more loss kinds on one or more training sets
    with one Adam configuration.

    ``sets`` holds ``(X, y)`` training sets, such as the folds of a cross
    validation, and ``kernel`` is one :class:`KernelSpec` for all of them
    or a sequence of one per set.  ``cells`` holds
    ``(set, loss, C, gamma)``: the index of the cell's training set, then
    its loss, C and learning rate, which replaces ``adam.gamma`` (an
    ``adam`` of None means the defaults), checked as
    :func:`~helssvr.optimizer.train_adam` checks them, naming the cell.  ``seeds`` gives each set's Adam seed (all
    ``adam.seed`` by default): every cell of a set trains on the mini-batches
    that seed draws, in whichever stack it trains.  Returns one (model,
    report) per cell, trained to ``adam.max_iter`` steps
    (``report.state.t``).  ``resume`` optionally gives each cell a
    ``FitReport.state`` of an earlier call with the same set, loss and C,
    from which it trains on to ``adam.max_iter`` steps (None starts it
    fresh); the states of one set's cells must hold its generator in one
    state.  The Grams are built again.

    Each set is scaled and gets its Gram form once: a float64 Gram below 257
    rows, where two of them fit :data:`STACK_GRAM_BYTES`; from there a
    pivoted-Cholesky factor, or a float32 Gram where the factor's rank
    reaches n/4 (see :mod:`helssvr.kernels`).  Cells train together when
    their sets agree in size and Gram form, while the Grams' bytes fit the
    budget (see :func:`_fold_stacks`).  Each loss kind's cells are chunked
    as if they trained alone: a chunk takes the same number of cells (at
    most :data:`STACK_ROWS` in all) from each set of a group, in cell order.
    A group's chunks are packed, in order, into optimizer stacks of at most
    :data:`STACK_ROWS` rows and at most one chunk of each kind.  The cells
    of a stack must all start fresh or all resume from one step count;
    :func:`train_adam` raises otherwise.  Every set's factor is built first,
    since the factors' bytes decide the stacks; only one group's dense Grams
    are held at a time, in one buffer.  Results are bit-identical for the
    same cells and :data:`STACK_ROWS`, and a kind's cells get the same bits
    whatever other kinds train in the call, since a stack gives each kind's
    rows the bits of a stack of that kind alone (see
    :func:`helssvr.optimizer.train_adam`).  A cell that trains as the only
    row of its kind and set in its chunk is bit-identical to a :func:`fit`
    of that cell alone; one that shares its set's Gram products with other
    rows of its kind agrees with it to rounding; both with the set's seed.
    A run resumed to step T is bit-identical to a run to T in the same
    stack layout.  A cell that diverges raises nothing and leaves every
    other cell's bits as they were: its ``report.state.diverged`` is the
    step (see :func:`~helssvr.optimizer.train_adam`), and its model's
    coefficients and its report's ``final_objective`` are NaN.

    A factor-trained set's models differ from a float64 fit's by the
    factor's error, which its tolerance bounds, and a float32-trained
    set's by float32's rounding of the Gram and of its products, each
    carried forward by Adam; either way the coefficients, moments,
    residuals and reports stay float64.

    A factor-trained model is its kernel expansion over the factor's r
    pivot rows P, one read-only ``X_train`` that every model of the set
    shares, with coefficients L_PP^-T (L^T alpha) (one solve per cell):
    K's pivot rows are exact, so at the training rows it gives L (L^T alpha),
    the fitted values training minimized, and prediction reads r kernel
    values per query instead of n.  The reports' ``state.alpha`` and
    objectives keep the n training coefficients, from which a cell resumes.
    """
    sets = [_training_set(X, y) for X, y in sets]
    adam = AdamConfig() if adam is None else adam
    kernels_of = [kernel] * len(sets) if isinstance(kernel, KernelSpec) else list(kernel)
    if len(kernels_of) != len(sets):
        raise ValueError(f"fit_cells got {len(kernels_of)} kernels for {len(sets)} training sets")
    cells = list(cells)
    if not cells:
        raise ValueError("fit_cells needs at least one cell")
    for i, (_, _, C, gamma) in enumerate(cells):
        check_cell(gamma, C, f": cell {i}")
    if not all(0 <= j < len(sets) for j, *_ in cells):
        raise ValueError(f"cell training set indices must lie in [0, {len(sets)})")
    seeds = [adam.seed] * len(sets) if seeds is None else list(seeds)
    if len(seeds) != len(sets):
        raise ValueError(f"fit_cells got {len(seeds)} seeds for {len(sets)} training sets")
    for j, seed in enumerate(seeds):
        check_seed(seed, f": set {j}")
    resume = [None] * len(cells) if resume is None else list(resume)
    if len(resume) != len(cells):
        raise ValueError(f"fit_cells got {len(resume)} resume states for {len(cells)} cells")
    cells_of = {}  # each kind's cells of each set, kinds in order of first appearance
    for i, (j, loss, *_) in enumerate(cells):
        cells_of.setdefault(loss.kind, [[] for _ in sets])[j].append(i)

    out = [None] * len(cells)
    used = [j for j in range(len(sets)) if any(of[j] for of in cells_of.values())]
    # each set scaled once, and given its Gram form: (rows, dtype), the
    # dtype None for a factor, and the Gram's bytes
    scaled, factors, seconds, forms, nbytes = {}, {}, {}, [], []
    for j in used:
        X, y = sets[j]
        n = len(y)
        state_scaling = scale_fit(X, y, scaling)
        scaled[j] = (scale_features(state_scaling, X), state_scaling, scale_target(state_scaling, y))
        t0 = time.perf_counter()
        if _tries_factor(n) and (factor := gram_factor(kernels_of[j], scaled[j][0])) is not None:
            factors[j] = factor
        seconds[j] = time.perf_counter() - t0
        dtype = None if j in factors else np.dtype(np.float32 if _tries_factor(n) else np.float64)
        forms.append((n, dtype))
        nbytes.append(factors[j].Lt.nbytes if dtype is None else dtype.itemsize * n * n)
    for group in _fold_stacks(forms, nbytes):
        n, dtype = forms[group[0]]
        group = [used[g] for g in group]
        if dtype is None:
            gram = GramFactors(factors[j] for j in group)
        else:
            gram = GramMatrix(gram_buffer(len(group), n, dtype))
            for k, j in enumerate(group):
                t0 = time.perf_counter()
                gram_matrix(kernels_of[j], scaled[j][0], out=gram.values[k])
                seconds[j] += time.perf_counter() - t0
        ys = np.stack([scaled[j][2] for j in group])
        centers = []  # (scaled centers, scaling, Gram seconds per cell) of each set
        for j in group:
            Xs, state_scaling, _ = scaled[j]
            if j in factors:
                Xs = Xs[factors[j].pivots]  # the centers of the models' expansion
            Xs.flags.writeable = False  # shared by every cell's model
            per_set = sum(len(of[j]) for of in cells_of.values())
            centers.append((Xs, state_scaling, seconds[j] / per_set))

        # a chunk takes the same number of cells of its kind from each set,
        # so that its layout stays uniform across the sets; the chunks are
        # packed into stacks, in order, one chunk of a kind per stack: two
        # would share the kind's (kind, set) blocks, and so change their
        # products
        per = max(1, STACK_ROWS // len(group))
        stacks = [(set(), [])]  # the kinds and (position in group, cell) rows of each stack
        for kind, of in cells_of.items():
            of = [of[j] for j in group]
            for lo in range(0, max(map(len, of)), per):
                chunk = [(k, i) for k, ids in enumerate(of) for i in ids[lo : lo + per]]
                if kind in stacks[-1][0] or len(stacks[-1][1]) + len(chunk) > STACK_ROWS:
                    stacks.append((set(), []))
                stacks[-1][0].add(kind)
                stacks[-1][1].extend(chunk)
        for _, stack_rows in stacks:
            folds, rows = zip(*stack_rows)
            _, losses, Cs, gammas = zip(*(cells[i] for i in rows))
            t1 = time.perf_counter()
            stack = train_adam(
                gram, ys, Cs, losses, adam, gamma=gammas, seed=[seeds[j] for j in group], fold=folds,
                resume=[resume[i] for i in rows],
            )
            wall = (time.perf_counter() - t1) / len(rows)
            for k, i, loss, C, state in zip(folds, rows, losses, Cs, stack.states):
                Xs, state_scaling, gram_seconds = centers[k]
                alpha = state.alpha
                if Xs.shape[0] < n:  # a factor's pivot rows: beta = L_PP^-T (L^T alpha)
                    factor = factors[group[k]]
                    alpha = np.linalg.solve(factor.Lt[:, factor.pivots], factor.Lt @ alpha)
                state.alpha.flags.writeable = alpha.flags.writeable = False
                model = TrainedModel(
                    alpha=alpha, X_train=Xs, kernel=kernels_of[group[k]], loss=loss, C=float(C),
                    scaling=state_scaling,
                )
                report = FitReport(
                    final_objective=np.nan if state.diverged is not None
                    else objective_value(state.alpha, gram.one_set(k), ys[k], C, loss),
                    wall_time_seconds=wall,
                    gram_seconds=gram_seconds,
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
    separately.  This is the one-cell case of :func:`fit_cells`, except
    that a cell that diverges raises ValueError naming the step.
    """
    adam = AdamConfig() if adam is None else adam
    return check_trained(fit_cells([(X, y)], kernel, [(0, loss, C, adam.gamma)], adam, scaling)[0])


def check_trained(fitted: tuple[TrainedModel, FitReport]) -> tuple[TrainedModel, FitReport]:
    """``fitted``, a (model, report) pair of :func:`fit_cells`, unless its
    cell diverged: then ValueError naming the step."""
    if (step := fitted[1].state.diverged) is not None:
        raise ValueError(f"training diverged: non-finite residual or coefficients at step {step}")
    return fitted


def predict_cells(models, X_new) -> list[np.ndarray]:
    """Predictions of several models for new samples, one array per model.

    The models must share their training inputs and scaling (the same
    objects, as the models of one training set of :func:`fit_cells` do)
    and their kernel.  Each new sample's kernel row is computed once, in
    blocks of :func:`helssvr.kernels.block_rows` samples that reuse one
    buffer; each block is scaled as it is evaluated, so the queries are
    never copied as a whole.  Each model's raw predictions of a block are
    one ``np.vecdot`` of the block's rows with its coefficients, which runs
    the same dot loop as ``row @ alpha`` on each row, so every model's
    predictions are bit-identical to :func:`predict` of it alone.
    Predictions are in original target units.
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
    if X_new.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got ndim={X_new.ndim}")
    if X_new.shape[1] != first.X_train.shape[1]:
        raise ValueError(
            f"feature count {X_new.shape[1]} does not match training data ({first.X_train.shape[1]})"
        )
    if not np.isfinite(X_new).all():
        row, col = np.argwhere(~np.isfinite(X_new))[0]
        raise ValueError(f"features must be finite: row {row}, column {col} is {float(X_new[row, col])}")
    step = block_rows(*first.X_train.shape)
    block = np.empty((min(step, X_new.shape[0]), first.X_train.shape[0]))
    raw = np.empty((len(models), X_new.shape[0]))
    for lo in range(0, X_new.shape[0], step):
        queries = X_new[lo : lo + step]
        if first.scaling.mode != "none":
            queries = scale_features(first.scaling, queries)
        rows = kernel_row(first.kernel, queries, first.X_train, out=block[: queries.shape[0]])
        for c, model in enumerate(models):
            np.vecdot(rows, model.alpha, out=raw[c, lo : lo + step])
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
    both of finite JSON numbers (not text or booleans), ``C`` and the loss
    parameters finite numbers, ``kernel.kind`` ``"rbf"`` and
    ``kernel.sigma`` a finite number > 0.  ``scaling.mode`` must be one of
    ``SCALING_MODES``; a scaled model needs finite target numbers
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
    if (kernel := _member(doc, "kernel.kind")) != RBF:
        raise ValueError(f"model field 'kernel.kind' must be {RBF!r}, got {kernel!r}")
    if (sigma := _number(doc, "kernel.sigma")) <= 0:
        raise ValueError(f"model field 'kernel.sigma' must be > 0, got {sigma!r}")
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
        kernel=KernelSpec(RBF, sigma=sigma),
        loss=LossSpec(kind=kind, **{k: _number(doc, f"loss.{k}") for k in loss_params}),
        C=_number(doc, "C"),
        scaling=_scaling_from_doc(doc, X_train.shape[1]),
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    return model_from_json(text)


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
