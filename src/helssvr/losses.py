"""Scalar regression losses with closed-form derivatives.

Every loss here is a symmetric function of the residual r = y - f(x),
exposed as a (value, derivative) pair so that gradient-based training can
treat all of them uniformly.  The headline loss is the HawkEye loss: zero
on the insensitive band [-epsilon, epsilon], smooth everywhere, and
saturating at the bound lambda for large residuals, so distant outliers
stop contributing gradient.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

HAWKEYE = "hawkeye"
LEAST_SQUARES = "least_squares"
ABSOLUTE = "absolute"
HUBER = "huber"
INSENSITIVE = "insensitive"
RAMP_INSENSITIVE = "ramp_insensitive"
NONCONVEX_LEAST_SQUARES = "nonconvex_least_squares"
RAMP_INSENSITIVE_LEAST_SQUARES = "ramp_insensitive_least_squares"
QUADRATIC_NONCONVEX_INSENSITIVE = "quadratic_nonconvex_insensitive"
CANAL = "canal"
BOUNDED_LEAST_SQUARES = "bounded_least_squares"


@dataclass(frozen=True)
class LossSpec:
    """A loss kind plus its hyperparameters.

    Immutable after construction; all evaluation functions are pure, so a
    spec can be shared freely across threads.

    Parameters
    ----------
    kind : str
        One of ``LOSS_KINDS``.
    epsilon : float, optional
        Half-width of the insensitive band (>= 0; > 0 for hawkeye).
    a : float, optional
        Shape parameter of the hawkeye loss (> 0).
    lam : float, optional
        Saturation bound of the hawkeye loss (> 0).
    theta : float, optional
        Scale/cap parameter of several baseline losses (>= 0).
    t : float, optional
        Second threshold parameter where a kind needs one (>= 0).
    """

    kind: str
    epsilon: float | None = None
    a: float | None = None
    lam: float | None = None
    theta: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        record = _KINDS[self.kind]
        for name in ("epsilon", "a", "lam", "theta", "t"):
            val = getattr(self, name)
            if name in record.params:
                if val is None:
                    raise ValueError(f"{self.kind} loss requires parameter {name!r}")
                if not np.isfinite(val):
                    raise ValueError(f"{self.kind} loss parameter {name!r} must be finite")
            elif val is not None:
                raise ValueError(f"{self.kind} loss does not take parameter {name!r}")
        for name, bound, strict in record.rules:
            val = getattr(self, name)
            limit = getattr(self, bound) if isinstance(bound, str) else bound
            if val < limit or (strict and val == limit):
                raise ValueError(f"{self.kind} loss requires {name} {'>' if strict else '>='} {bound}")
        if self.kind == HAWKEYE and not np.isfinite(self.lam * self.a):
            raise ValueError("hawkeye loss requires a finite lam * a")

    def params(self) -> dict:
        """Hyperparameters actually carried by this kind, as a dict."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "kind" and getattr(self, f.name) is not None
        }


@dataclass(frozen=True)
class LossStack:
    """The parameters of several specs of one kind, as (m, width) blocks.

    Row c holds ``specs[c]``'s value in every column, so that
    ``loss_derivative(stack, R)`` on an (m, width) residual block is plain
    same-shape elementwise work and gives row c bit-for-bit what
    ``loss_derivative(specs[c], R[c])`` gives.
    """

    kind: str
    epsilon: np.ndarray | None = None
    a: np.ndarray | None = None
    lam: np.ndarray | None = None
    theta: np.ndarray | None = None
    t: np.ndarray | None = None
    #: hawkeye only: the block lam * a, the derivative's scale
    lam_a: np.ndarray | None = None


def stack_losses(specs, width: int) -> LossStack:
    """Stack specs of one kind: row c repeats ``specs[c]``'s parameters ``width`` times."""
    kinds = {spec.kind for spec in specs}
    if len(kinds) != 1:
        raise ValueError(f"a loss stack needs specs of exactly one kind, got {sorted(kinds)}")
    kind = kinds.pop()
    blocks = {
        name: np.repeat(np.array([[getattr(spec, name)] for spec in specs], dtype=float), width, axis=1)
        for name in _KINDS[kind].params
    }
    if kind == HAWKEYE:
        blocks["lam_a"] = blocks["lam"] * blocks["a"]
    return LossStack(kind, **blocks)


def _check_residual(r):
    arr = np.asarray(r, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("residual must be finite")
    return arr


# ---------------------------------------------------------------------------
# Values.  Each helper receives m = |r| and returns the loss, which makes the
# symmetry L(r) = L(-r) exact by construction (|-r| == |r| bitwise).


def _hawkeye_value(spec, m):
    # lam * (1 - (up + 1) * e^{-up}) with up = max(a * (|r| - eps), 0).  up >=
    # 0, so the exponent never overflows; for huge up the product
    # (up + 1) * e^{-up} underflows gracefully to 0 and the loss saturates at
    # lam.  Inside the band up is +0.0, which makes the loss exactly +0.0
    # there with no select.
    up = np.maximum(spec.a * (m - spec.epsilon), 0.0)
    return spec.lam * (1.0 - (up + 1.0) * np.exp(-up))


def _least_squares_value(spec, m):
    return m * m


def _absolute_value(spec, m):
    return m


def _huber_value(spec, m):
    th = spec.theta
    return np.where(m < th, 0.5 * m * m, th * m - 0.5 * th * th)


def _insensitive_value(spec, m):
    return np.maximum(0.0, m - spec.epsilon)


def _ramp_insensitive_value(spec, m):
    eps, th = spec.epsilon, spec.theta
    return np.where(m < eps, 0.0, np.where(m > th, th - eps, m - eps))


def _nonconvex_least_squares_value(spec, m):
    th = spec.theta
    return np.where(m > th, th * th, m * m)


def _ramp_insensitive_least_squares_value(spec, m):
    eps, th = spec.epsilon, spec.theta
    mid = (m - eps) ** 2
    return np.where(m < eps, 0.0, np.where(m > th, (th - eps) ** 2, mid))


def _quadratic_nonconvex_insensitive_value(spec, m):
    eps, t, th = spec.epsilon, spec.t, spec.theta
    tail = (t - eps) ** 2 + th * m - th * t
    return np.where(m < eps, 0.0, np.where(m > t, tail, (m - eps) ** 2))


def _bounded_least_squares_value(spec, m):
    t, th = spec.t, spec.theta
    return (1.0 / t) * (1.0 - 1.0 / (1.0 + th * m * m))


# ---------------------------------------------------------------------------
# Derivatives.  dL/dr is sign(r) times dL/d|r|, which gives the odd symmetry
# of dL/dr exactly and picks the 0 subgradient at r = 0 for the kinds with a
# kink there.  Non-smooth kinds return 0 at every kink point (strict
# inequalities on both sides).  The hawkeye derivative is computed in the
# output array plus one scratch block; the other helpers return dL/d|r| and
# the dispatcher multiplies it by sign(r) into the output.


def _hawkeye_deriv(spec, r, out):
    # (((lam * a) * up) * e^{-up}) * sign(r) with up = max(a * (|r| - eps), 0),
    # the products in that association.  Inside the band up is +0.0
    # (np.maximum(-x, 0.0) and np.maximum(-0.0, 0.0) both give +0.0) and
    # lam * a is finite and > 0, so the product there is exactly +0.0 with no
    # select.
    lam_a = spec.lam_a if isinstance(spec, LossStack) else spec.lam * spec.a
    up = np.abs(r, out=out)
    up -= spec.epsilon
    up *= spec.a
    np.maximum(up, 0.0, out=up)
    scratch = np.negative(up, out=np.empty_like(up))
    np.exp(scratch, out=scratch)
    up *= lam_a
    up *= scratch
    up *= np.sign(r, out=scratch)
    return up


def _least_squares_deriv(spec, m):
    return 2.0 * m


def _absolute_deriv(spec, m):
    return np.ones_like(m)


def _huber_deriv(spec, m):
    return np.where(m < spec.theta, m, spec.theta)


def _insensitive_deriv(spec, m):
    return np.where(m > spec.epsilon, 1.0, 0.0)


def _ramp_insensitive_deriv(spec, m):
    eps, th = spec.epsilon, spec.theta
    return np.where((m > eps) & (m < th), 1.0, 0.0)


def _nonconvex_least_squares_deriv(spec, m):
    return np.where(m < spec.theta, 2.0 * m, 0.0)


def _ramp_insensitive_least_squares_deriv(spec, m):
    eps, th = spec.epsilon, spec.theta
    return np.where((m >= eps) & (m < th), 2.0 * (m - eps), 0.0)


def _quadratic_nonconvex_insensitive_deriv(spec, m):
    eps, t, th = spec.epsilon, spec.t, spec.theta
    return np.where(
        (m >= eps) & (m < t), 2.0 * (m - eps), np.where(m > t, th, 0.0)
    )


def _bounded_least_squares_deriv(spec, m):
    t, th = spec.t, spec.theta
    denom = (1.0 + th * m * m) ** 2
    return 2.0 * th * m / (t * denom)


@dataclass(frozen=True)
class _Kind:
    """Everything one loss kind is made of.

    ``rules`` are its domain checks, run in order after the finiteness
    checks: (parameter, lower bound, strict), where the bound is a number or
    another parameter's name and the parameter must exceed it (strict) or
    reach it.  ``value`` and ``deriv`` take (spec, |r|) and return L and
    dL/d|r|; ``deriv`` is None for hawkeye, whose :func:`_hawkeye_deriv`
    writes dL/dr itself.
    """

    params: tuple[str, ...]
    rules: tuple[tuple[str, float | str, bool], ...]
    value: Callable
    deriv: Callable | None


_EPS_GE_0, _THETA_GE_0, _THETA_GE_EPS = ("epsilon", 0, False), ("theta", 0, False), ("theta", "epsilon", False)

# canal is the ramp-insensitive loss under a second name: both are
# min(theta - eps, max(0, |r| - eps)).
_KINDS = {
    HAWKEYE: _Kind(
        ("epsilon", "a", "lam"), (("epsilon", 0, True), ("a", 0, True), ("lam", 0, True)),
        _hawkeye_value, None),
    LEAST_SQUARES: _Kind((), (), _least_squares_value, _least_squares_deriv),
    ABSOLUTE: _Kind((), (), _absolute_value, _absolute_deriv),
    HUBER: _Kind(("theta",), (_THETA_GE_0,), _huber_value, _huber_deriv),
    INSENSITIVE: _Kind(("epsilon",), (_EPS_GE_0,), _insensitive_value, _insensitive_deriv),
    RAMP_INSENSITIVE: _Kind(
        ("epsilon", "theta"), (_EPS_GE_0, _THETA_GE_EPS),
        _ramp_insensitive_value, _ramp_insensitive_deriv),
    NONCONVEX_LEAST_SQUARES: _Kind(
        ("theta",), (_THETA_GE_0,),
        _nonconvex_least_squares_value, _nonconvex_least_squares_deriv),
    RAMP_INSENSITIVE_LEAST_SQUARES: _Kind(
        ("epsilon", "theta"), (_EPS_GE_0, _THETA_GE_EPS),
        _ramp_insensitive_least_squares_value, _ramp_insensitive_least_squares_deriv),
    QUADRATIC_NONCONVEX_INSENSITIVE: _Kind(
        ("epsilon", "t", "theta"), (_EPS_GE_0, ("t", "epsilon", False), _THETA_GE_0),
        _quadratic_nonconvex_insensitive_value, _quadratic_nonconvex_insensitive_deriv),
    CANAL: _Kind(
        ("epsilon", "theta"), (_EPS_GE_0, _THETA_GE_EPS),
        _ramp_insensitive_value, _ramp_insensitive_deriv),
    BOUNDED_LEAST_SQUARES: _Kind(
        ("t", "theta"), (("t", 0, True), _THETA_GE_0),
        _bounded_least_squares_value, _bounded_least_squares_deriv),
}

LOSS_KINDS = tuple(_KINDS)


def required_params(kind: str) -> tuple[str, ...]:
    """Hyperparameter names a loss kind needs at construction."""
    if kind not in _KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    return _KINDS[kind].params


def loss_value(spec: LossSpec, r, *, check=True):
    """Loss at residual ``r`` (scalar or array, finite).

    The hawkeye value is exactly zero for ``|r| < epsilon``, grows smoothly
    outside the band, and never exceeds ``lam``.  ``check=False`` skips the
    finiteness check, for the trainer, which has checked the whole residual
    block already; the values are the same bits.
    """
    arr = _check_residual(r) if check else np.asarray(r, dtype=float)
    out = _KINDS[spec.kind].value(spec, np.abs(arr))
    return float(out) if np.ndim(r) == 0 else out


def loss_derivative(spec: LossSpec, r, out=None):
    """dL/dr at residual ``r`` (scalar or array, finite).

    Non-smooth kinds return the 0 subgradient at their kink points, which
    keeps every kind usable under the same gradient-based trainer.  ``spec``
    may be a :class:`LossStack` of m specs with ``r`` of shape (m, n).

    ``out`` is an optional float array shaped like ``r``, sharing no memory
    with it, that receives the result and is returned; the values are
    bit-identical to the allocating call.  The hawkeye kind then allocates
    one scratch block of r's shape and nothing else; the other kinds write
    only their final product into ``out``.

    A stack's residual block is not checked for finiteness: the trainer,
    which builds the stacks, checks it once per step for all of its kinds.
    """
    arr = np.asarray(r, dtype=float) if isinstance(spec, LossStack) else _check_residual(r)
    if out is not None and np.may_share_memory(out, arr):
        raise ValueError("loss_derivative's out must not overlap the residual")
    res = np.empty_like(arr) if out is None else out
    if spec.kind == HAWKEYE:
        _hawkeye_deriv(spec, arr, res)
    else:
        np.multiply(np.sign(arr), _KINDS[spec.kind].deriv(spec, np.abs(arr)), out=res)
    return float(res) if out is None and np.ndim(r) == 0 else res
