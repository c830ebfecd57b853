"""Which library calls the traced run wraps, and the layer metrics it derives.

Each name is rebound in the module that calls it, so a span measures the
calls one layer makes into another.  Span names are ``<module>.<function>``
after the module that defines the function; the layers are helssvr's modules
(data, seeding, kernels, losses, optimizer, model, evaluation, cli).
"""

from __future__ import annotations

import hashlib

import numpy as np

# (caller module, attribute, span name)
LIBRARY_WRAPS = (
    ("optimizer", "loss_derivative", "losses.loss_derivative"),
    ("optimizer", "loss_value", "losses.loss_value"),
    ("optimizer", "sample_without_replacement", "seeding.sample_without_replacement"),
    ("optimizer", "adam_step", "optimizer.adam_step"),
    ("model", "gram_matrix", "kernels.gram_matrix"),
    ("model", "train_adam", "optimizer.train_adam"),
    ("model", "kernel_row", "kernels.kernel_row"),
    ("evaluation", "fit", "model.fit"),
    ("evaluation", "predict", "model.predict"),
    ("evaluation", "kfold_split", "data.kfold_split"),
    ("cli", "grid_search_cv", "evaluation.grid_search_cv"),
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "rank_models", "evaluation.rank_models"),
    ("cli", "fit", "model.fit"),
    ("cli", "predict", "model.predict"),
)

# the benchmark's own calls (attributes of run._api())
BENCH_WRAPS = (
    ("grid_search_cv", "evaluation.grid_search_cv"),
    ("fit", "model.fit"),
    ("predict", "model.predict"),
    ("save_model", "model.save_model"),
    ("load_model", "model.load_model"),
    ("bench", "cli.bench"),
    ("rank", "cli.rank"),
)

SPANS = sorted({s for *_, s in LIBRARY_WRAPS} | {s for _, s in BENCH_WRAPS})

_TINY = np.finfo(float).tiny


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _GramProbe:
    """Bytes built, distinct (X, kernel) inputs, and subnormal entries."""

    keys = ("kernels.gram_matrix.bytes", "kernels.gram_matrix.distinct_ratio", "kernels.gram.subnormal_frac")

    def __init__(self):
        self.seen = set()
        self.calls = self.entries = self.subnormal = 0

    def __call__(self, counters, args, kwargs, result):
        spec, X = _arg(args, kwargs, 0, "spec"), np.ascontiguousarray(_arg(args, kwargs, 1, "X"), dtype=float)
        self.seen.add((spec, X.shape, hashlib.blake2b(X.tobytes(), digest_size=16).digest()))
        values = result.values
        mag = np.abs(values)
        self.calls += 1
        self.entries += values.size
        self.subnormal += int(np.count_nonzero((mag < _TINY) & (mag > 0)))
        counters["kernels.gram_matrix.bytes"] += values.nbytes
        counters["kernels.gram_matrix.distinct_ratio"] = len(self.seen) / self.calls
        counters["kernels.gram.subnormal_frac"] = self.subnormal / self.entries


def _train_probe(counters, args, kwargs, state):
    # bytes of K the two matrix-vector products read per step, computed from
    # the shapes: K @ alpha reads all of K, the loss term reads the batch rows
    n = _arg(args, kwargs, 0, "gram").n
    s = min(_arg(args, kwargs, 4, "cfg").batch_size, n)
    counters["optimizer.steps"] += state.t
    counters["optimizer.matvec_bytes"] += 8 * state.t * (n * n + s * n)


def _derivative_probe(counters, args, kwargs, result):
    counters["losses.loss_derivative.elements"] += np.size(result)


def _predict_probe(counters, args, kwargs, result):
    counters["model.predict.rows"] += np.size(result)


def _load_csv_probe(counters, args, kwargs, result):
    counters["data.load_csv.rows"] += result[0].n


def _search_probe(counters, args, kwargs, result):
    counters["evaluation.grid_search_cv.cells"] += len(result.cells)
    counters["evaluation.grid_search_cv.fits"] += sum(len(c.fold_rmse) for c in result.cells)


def _probes():
    return {
        "kernels.gram_matrix": (_GramProbe(), _GramProbe.keys),
        "optimizer.train_adam": (_train_probe, ("optimizer.steps", "optimizer.matvec_bytes")),
        "losses.loss_derivative": (_derivative_probe, ("losses.loss_derivative.elements",)),
        "model.predict": (_predict_probe, ("model.predict.rows",)),
        "data.load_csv": (_load_csv_probe, ("data.load_csv.rows",)),
        "evaluation.grid_search_cv": (
            _search_probe,
            ("evaluation.grid_search_cv.cells", "evaluation.grid_search_cv.fits"),
        ),
    }


def install(tracer, package, api) -> None:
    """Wrap every listed name of ``package``'s modules and of ``api``."""
    probes = _probes()
    for module, attr, span in LIBRARY_WRAPS:
        tracer.wrap(getattr(package, module), attr, span, *probes.get(span, (None, ())))
    for attr, span in BENCH_WRAPS:
        tracer.wrap(api, attr, span, *probes.get(span, (None, ())))


def metrics(tracer, plain, traced) -> dict:
    """Per-layer metrics of the traced iteration; absent layers are left out."""
    values = tracer.layer_metrics(SPANS)
    values.update(tracer.counters)
    values["model.save_load.s"] = values["model.save_model.s"] + values["model.load_model.s"]
    values["cli.work_items"] = traced.extra.get("work_items", 0)
    values["cli.work_items_failed"] = traced.extra.get("work_items_failed", 0)
    values["quality_rmse"] = plain.quality
    values["trace.overhead_frac"] = (traced.run_s - plain.run_s) / plain.run_s
    absent = tracer.absent_keys
    return {k: v for k, v in values.items() if k not in absent}
