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
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import SCALING_MODES, ScalingState, inverse_target, scale_features, scale_fit, scale_target
from .kernels import KernelSpec, gram_matrix, kernel_row
from .losses import LossSpec
from .optimizer import AdamConfig, objective_value, train_adam

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
    """Training summary: objective values, iterations, wall times.

    When cells train together (:func:`fit_cells`), the Gram build and each
    optimizer stack's run are timed once and split evenly among the cells
    that share them.
    """

    final_objective: float
    initial_objective: float
    iterations: int
    wall_time_seconds: float
    gram_seconds: float
    trace: list[float] | None = None


#: most cells one optimizer stack trains together; bounds the (rows, n)
#: working arrays of :func:`train_adam`
STACK_ROWS = 32


def fit_cells(X, y, kernel: KernelSpec, cells, scaling: str = "minmax") -> list[tuple[TrainedModel, FitReport]]:
    """Train several cells on one (X, y) and kernel; one (model, report) each.

    ``cells`` holds ``(loss, C, adam)`` triples (``adam`` None means the
    defaults).  Scaling and the Gram matrix are computed once.  Cells whose
    loss kind and Adam settings other than gamma and seed agree train
    together, in stacks of at most :data:`STACK_ROWS`.  Every cell's model
    and objectives are bit-identical to a :func:`fit` of that cell alone.
    """
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
    cells = [(loss, C, AdamConfig() if adam is None else adam) for loss, C, adam in cells]
    if not cells:
        raise ValueError("fit_cells needs at least one cell")
    if not all(C > 0 for _, C, _ in cells):
        raise ValueError("C must be > 0")

    state_scaling = scale_fit(X, y, scaling)
    Xs = scale_features(state_scaling, X)
    Xs.flags.writeable = False  # shared by every cell's model
    ys = scale_target(state_scaling, y)

    t0 = time.perf_counter()
    gram = gram_matrix(kernel, Xs)
    gram_seconds = (time.perf_counter() - t0) / len(cells)

    groups: dict = {}
    for i, (loss, _, adam) in enumerate(cells):
        groups.setdefault((loss.kind, replace(adam, gamma=1.0, seed=0)), []).append(i)
    out = [None] * len(cells)
    for members in groups.values():
        for k in range(0, len(members), STACK_ROWS):
            chunk = members[k : k + STACK_ROWS]
            losses, Cs, adams = zip(*(cells[i] for i in chunk))
            t1 = time.perf_counter()
            stack = train_adam(
                gram, ys, Cs, losses, adams[0], gamma=[a.gamma for a in adams], seed=[a.seed for a in adams]
            )
            wall = (time.perf_counter() - t1) / len(chunk)
            for i, state in zip(chunk, stack.states):
                loss, C, adam = cells[i]
                state.alpha.flags.writeable = False
                alpha0 = np.full(Xs.shape[0], float(adam.alpha0))
                model = TrainedModel(
                    alpha=state.alpha, X_train=Xs, kernel=kernel, loss=loss, C=float(C), scaling=state_scaling
                )
                report = FitReport(
                    final_objective=objective_value(state.alpha, gram, ys, C, loss),
                    initial_objective=objective_value(alpha0, gram, ys, C, loss),
                    iterations=state.t,
                    wall_time_seconds=wall,
                    gram_seconds=gram_seconds,
                    trace=state.trace,
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
    return fit_cells(X, y, kernel, [(loss, C, adam)], scaling)[0]


def predict(model: TrainedModel, X_new) -> np.ndarray:
    """Predictions for new samples, in original target units.

    Each raw prediction is the dot product of a kernel row against the
    coefficients, computed through the same code path as the Gram rows.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new.reshape(-1, 1)
    if X_new.shape[1] != model.X_train.shape[1]:
        raise ValueError(
            f"feature count {X_new.shape[1]} does not match training data ({model.X_train.shape[1]})"
        )
    bad = ~np.isfinite(X_new)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"features must be finite: row {row}, column {col} is {X_new[row, col]!r}")
    Xs = scale_features(model.scaling, X_new)
    raw = np.empty(Xs.shape[0])
    for i in range(Xs.shape[0]):
        raw[i] = kernel_row(model.kernel, Xs[i], model.X_train) @ model.alpha
    return inverse_target(model.scaling, raw)


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

    ``alpha`` must be finite and 1-D, ``x_train`` finite, 2-D and one row
    per coefficient, and ``C``, the loss parameters and ``kernel.sigma``
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
    "save_model",
]
