import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from helssvr import losses
from helssvr.losses import LossSpec, loss_derivative, loss_value


def hawkeye(eps=0.5, a=1.0, lam=1.0):
    return LossSpec("hawkeye", epsilon=eps, a=a, lam=lam)


def fd_derivative(spec, r, h=1e-6):
    return (loss_value(spec, r + h) - loss_value(spec, r - h)) / (2.0 * h)


class TestHawkeyeValues:
    def test_inside_zone_is_zero(self):
        assert loss_value(hawkeye(), 0.3) == 0.0

    def test_outer_branch_value(self):
        # lam * (1 - (u+1) e^{-u}) with u = 1 at r = 1.5
        assert loss_value(hawkeye(), 1.5) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)

    def test_symmetry_exact(self):
        assert loss_value(hawkeye(), -1.5) == loss_value(hawkeye(), 1.5)

    def test_boundary_value_zero(self):
        assert loss_value(hawkeye(), 0.5) == 0.0
        assert loss_value(hawkeye(), -0.5) == 0.0

    def test_derivative_zero_at_origin(self):
        assert loss_derivative(hawkeye(), 0.0) == 0.0

    def test_derivative_outer_branch(self):
        assert loss_derivative(hawkeye(), 1.5) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_derivative_odd(self):
        assert loss_derivative(hawkeye(), -1.5) == -loss_derivative(hawkeye(), 1.5)

    def test_vectorized_matches_scalar(self):
        spec = hawkeye(0.2, 2.0, 1.5)
        rs = np.linspace(-3, 3, 41)
        vec = loss_value(spec, rs)
        assert vec.shape == rs.shape
        for r, v in zip(rs, vec):
            assert loss_value(spec, float(r)) == v

    def test_extreme_residuals_saturate(self):
        spec = hawkeye(0.5, 1.0, 2.0)
        assert loss_value(spec, 1e6) == pytest.approx(2.0)
        assert loss_value(spec, -1e6) == pytest.approx(2.0)
        assert loss_value(spec, 1e300) == 2.0
        assert loss_derivative(spec, 1e300) == 0.0

    def test_nonfinite_residual_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                loss_value(hawkeye(), bad)
            with pytest.raises(ValueError):
                loss_derivative(hawkeye(), bad)


class TestBaselineValues:
    def test_least_squares(self):
        spec = LossSpec("least_squares")
        assert loss_value(spec, 2.0) == 4.0
        assert loss_derivative(spec, 2.0) == 4.0
        assert loss_derivative(spec, -3.0) == -6.0

    def test_absolute(self):
        spec = LossSpec("absolute")
        assert loss_value(spec, -2.5) == 2.5
        assert loss_derivative(spec, 2.0) == 1.0
        assert loss_derivative(spec, -2.0) == -1.0
        assert loss_derivative(spec, 0.0) == 0.0  # kink subgradient

    def test_huber(self):
        spec = LossSpec("huber", theta=1.0)
        assert loss_value(spec, 0.5) == 0.125
        assert loss_value(spec, 2.0) == 2.0 - 0.5
        assert loss_derivative(spec, 0.5) == 0.5
        assert loss_derivative(spec, 2.0) == 1.0
        assert loss_derivative(spec, 1.0) == 1.0  # continuous at the switch

    def test_insensitive(self):
        spec = LossSpec("insensitive", epsilon=0.5)
        assert loss_value(spec, 0.25) == 0.0
        assert loss_value(spec, 2.0) == 1.5
        assert loss_derivative(spec, 0.5) == 0.0  # kink subgradient
        assert loss_derivative(spec, 0.75) == 1.0

    def test_ramp_insensitive(self):
        spec = LossSpec("ramp_insensitive", epsilon=0.5, theta=1.5)
        assert loss_value(spec, 0.2) == 0.0
        assert loss_value(spec, 1.0) == 0.5
        assert loss_value(spec, 5.0) == 1.0
        assert loss_derivative(spec, 1.0) == 1.0
        assert loss_derivative(spec, 5.0) == 0.0

    def test_nonconvex_least_squares(self):
        spec = LossSpec("nonconvex_least_squares", theta=1.5)
        assert loss_value(spec, 1.0) == 1.0
        assert loss_value(spec, 4.0) == 2.25
        assert loss_derivative(spec, 1.0) == 2.0
        assert loss_derivative(spec, 4.0) == 0.0
        assert loss_derivative(spec, 1.5) == 0.0  # kink

    def test_ramp_insensitive_least_squares(self):
        spec = LossSpec("ramp_insensitive_least_squares", epsilon=0.5, theta=1.5)
        assert loss_value(spec, 0.3) == 0.0
        assert loss_value(spec, 1.0) == 0.25
        assert loss_value(spec, 9.0) == 1.0
        assert loss_derivative(spec, 1.0) == 1.0
        assert loss_derivative(spec, 9.0) == 0.0

    def test_quadratic_nonconvex_insensitive(self):
        spec = LossSpec("quadratic_nonconvex_insensitive", epsilon=0.5, t=1.5, theta=2.0)
        assert loss_value(spec, 0.1) == 0.0
        assert loss_value(spec, 1.0) == 0.25
        assert loss_value(spec, 2.0) == 1.0 + 2.0 * 2.0 - 2.0 * 1.5
        assert loss_derivative(spec, 1.0) == 1.0
        assert loss_derivative(spec, 2.0) == 2.0

    def test_canal(self):
        spec = LossSpec("canal", epsilon=0.5, theta=1.5)
        assert loss_value(spec, 0.2) == 0.0
        assert loss_value(spec, 1.0) == 0.5
        assert loss_value(spec, 10.0) == 1.0
        assert loss_derivative(spec, 1.0) == 1.0
        assert loss_derivative(spec, 10.0) == 0.0

    def test_bounded_least_squares(self):
        spec = LossSpec("bounded_least_squares", t=1.0, theta=2.0)
        assert loss_value(spec, 0.0) == 0.0
        assert loss_value(spec, 1.0) == pytest.approx(1.0 - 1.0 / 3.0, rel=1e-12)
        assert loss_value(spec, 1e8) == pytest.approx(1.0, rel=1e-10)
        # smooth everywhere: derivative matches finite differences
        for r in (-2.0, -0.3, 0.0, 0.7, 3.0):
            assert loss_derivative(spec, r) == pytest.approx(fd_derivative(spec, r), abs=1e-7)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="hawkeye", epsilon=0.0, a=1.0, lam=1.0),
            dict(kind="hawkeye", epsilon=0.5, a=0.0, lam=1.0),
            dict(kind="hawkeye", epsilon=0.5, a=1.0, lam=0.0),
            dict(kind="hawkeye", epsilon=-1.0, a=1.0, lam=1.0),
            dict(kind="hawkeye", epsilon=0.5, a=1.0),  # missing lam
            dict(kind="hawkeye", epsilon=0.5, a=1e200, lam=1e200),  # lam * a overflows
            dict(kind="insensitive", epsilon=-0.1),
            dict(kind="huber", theta=-1.0),
            dict(kind="ramp_insensitive", epsilon=1.0, theta=0.5),
            dict(kind="ramp_insensitive_least_squares", epsilon=1.0, theta=0.5),
            dict(kind="canal", epsilon=1.0, theta=0.5),
            dict(kind="quadratic_nonconvex_insensitive", epsilon=1.0, t=0.5, theta=1.0),
            dict(kind="bounded_least_squares", t=0.0, theta=1.0),
            dict(kind="least_squares", epsilon=0.1),  # stray parameter
            dict(kind="nope"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LossSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # one case per domain rule, in the order each kind checks them
            (dict(kind="hawkeye", epsilon=0.0, a=1.0, lam=1.0), "hawkeye loss requires epsilon > 0"),
            (dict(kind="hawkeye", epsilon=0.5, a=-1.0, lam=1.0), "hawkeye loss requires a > 0"),
            (dict(kind="hawkeye", epsilon=0.5, a=1.0, lam=0.0), "hawkeye loss requires lam > 0"),
            (dict(kind="hawkeye", epsilon=0.5, a=1e200, lam=1e200), "hawkeye loss requires a finite lam * a"),
            (dict(kind="insensitive", epsilon=-0.1), "insensitive loss requires epsilon >= 0"),
            (dict(kind="huber", theta=-1.0), "huber loss requires theta >= 0"),
            (dict(kind="nonconvex_least_squares", theta=-1.0), "nonconvex_least_squares loss requires theta >= 0"),
            (dict(kind="ramp_insensitive", epsilon=-0.1, theta=1.0), "ramp_insensitive loss requires epsilon >= 0"),
            (dict(kind="ramp_insensitive", epsilon=1.0, theta=0.5), "ramp_insensitive loss requires theta >= epsilon"),
            (
                dict(kind="ramp_insensitive_least_squares", epsilon=-0.1, theta=1.0),
                "ramp_insensitive_least_squares loss requires epsilon >= 0",
            ),
            (
                dict(kind="ramp_insensitive_least_squares", epsilon=1.0, theta=0.5),
                "ramp_insensitive_least_squares loss requires theta >= epsilon",
            ),
            (dict(kind="canal", epsilon=-0.1, theta=1.0), "canal loss requires epsilon >= 0"),
            (dict(kind="canal", epsilon=1.0, theta=0.5), "canal loss requires theta >= epsilon"),
            (
                dict(kind="quadratic_nonconvex_insensitive", epsilon=-0.1, t=0.5, theta=1.0),
                "quadratic_nonconvex_insensitive loss requires epsilon >= 0",
            ),
            (
                dict(kind="quadratic_nonconvex_insensitive", epsilon=1.0, t=0.5, theta=1.0),
                "quadratic_nonconvex_insensitive loss requires t >= epsilon",
            ),
            (
                dict(kind="quadratic_nonconvex_insensitive", epsilon=0.1, t=0.5, theta=-1.0),
                "quadratic_nonconvex_insensitive loss requires theta >= 0",
            ),
            (dict(kind="bounded_least_squares", t=0.0, theta=1.0), "bounded_least_squares loss requires t > 0"),
            (dict(kind="bounded_least_squares", t=1.0, theta=-1.0), "bounded_least_squares loss requires theta >= 0"),
            # the checks that come before the domain rules
            (dict(kind="nope"), "unknown loss kind 'nope'"),
            (dict(kind="hawkeye", epsilon=0.5, a=1.0), "hawkeye loss requires parameter 'lam'"),
            (dict(kind="huber", theta=math.inf), "huber loss parameter 'theta' must be finite"),
            (dict(kind="least_squares", epsilon=0.1), "least_squares loss does not take parameter 'epsilon'"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_error_messages(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            LossSpec(**kwargs)
        assert str(exc.value) == message

    def test_required_params_of_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown loss kind 'nope'"):
            losses.required_params("nope")

    def test_stack_of_mixed_kinds_rejected(self):
        specs = [LossSpec("least_squares"), LossSpec("huber", theta=1.0)]
        with pytest.raises(ValueError, match=r"specs of exactly one kind, got \['huber', 'least_squares'\]"):
            losses.stack_losses(specs, 3)

    def test_boundaries_accepted(self):
        # each non-strict bound admits its own value
        LossSpec("insensitive", epsilon=0.0)
        LossSpec("huber", theta=0.0)
        LossSpec("canal", epsilon=0.5, theta=0.5)
        LossSpec("quadratic_nonconvex_insensitive", epsilon=0.5, t=0.5, theta=0.0)
        LossSpec("bounded_least_squares", t=1e-300, theta=0.0)


class LossCharacteristics(NamedTuple):
    """One loss kind's traits, a row of the README's "Loss traits" table."""

    robust: bool
    insensitive_zone: bool
    bounded: bool
    convex: bool
    smooth: bool


# The abstract's claim: HawkEye alone is bounded, smooth and insensitive.
# The numeric probes below check each flag where it can be measured.
TRAITS = {
    "hawkeye": LossCharacteristics(True, True, True, False, True),
    "least_squares": LossCharacteristics(False, False, False, True, True),
    "absolute": LossCharacteristics(False, False, False, True, False),
    "huber": LossCharacteristics(False, False, False, True, True),
    "insensitive": LossCharacteristics(False, True, False, True, False),
    "ramp_insensitive": LossCharacteristics(True, True, True, False, False),
    "nonconvex_least_squares": LossCharacteristics(True, False, True, False, False),
    "ramp_insensitive_least_squares": LossCharacteristics(True, True, True, False, False),
    "quadratic_nonconvex_insensitive": LossCharacteristics(True, True, True, False, False),
    "canal": LossCharacteristics(True, True, True, False, False),
    "bounded_least_squares": LossCharacteristics(True, False, True, False, True),
}


def characteristics(spec):
    return TRAITS[spec.kind]


class TestCharacteristics:
    def test_readme_table_is_the_trait_matrix(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        lines = readme.split("\n## Loss traits\n", 1)[1].split("\n## ", 1)[0].splitlines()
        rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines if line.startswith("|")]
        assert rows[0] == ["loss", "robust", "insensitive zone", "bounded", "convex", "smooth"]
        flags = {"yes": True, "no": False}
        table = {row[0].strip("`"): LossCharacteristics(*(flags[cell] for cell in row[1:])) for row in rows[2:]}
        assert list(table) == list(losses.LOSS_KINDS)
        assert table == TRAITS

    def test_hawkeye_row(self):
        c = characteristics(hawkeye())
        assert (c.robust, c.insensitive_zone, c.bounded, c.convex, c.smooth) == (
            True,
            True,
            True,
            False,
            True,
        )

    def test_least_squares_row(self):
        c = characteristics(LossSpec("least_squares"))
        assert (c.robust, c.insensitive_zone, c.bounded, c.convex, c.smooth) == (
            False,
            False,
            False,
            True,
            True,
        )

    def test_canal_row(self):
        c = characteristics(LossSpec("canal", epsilon=0.5, theta=1.5))
        assert (c.robust, c.insensitive_zone, c.bounded, c.convex, c.smooth) == (
            True,
            True,
            True,
            False,
            False,
        )

    def test_huber_marked_not_robust(self):
        assert characteristics(LossSpec("huber", theta=1.0)).robust is False

    def test_every_kind_has_a_row(self):
        specs = _one_spec_per_kind()
        assert {s.kind for s in specs} == set(losses.LOSS_KINDS) == set(TRAITS)


def _one_spec_per_kind():
    return [
        LossSpec("hawkeye", epsilon=0.5, a=1.0, lam=1.0),
        LossSpec("least_squares"),
        LossSpec("absolute"),
        LossSpec("huber", theta=1.0),
        LossSpec("insensitive", epsilon=0.5),
        LossSpec("ramp_insensitive", epsilon=0.5, theta=1.5),
        LossSpec("nonconvex_least_squares", theta=1.5),
        LossSpec("ramp_insensitive_least_squares", epsilon=0.5, theta=1.5),
        LossSpec("quadratic_nonconvex_insensitive", epsilon=0.5, t=1.5, theta=1.0),
        LossSpec("canal", epsilon=0.5, theta=1.5),
        LossSpec("bounded_least_squares", t=1.0, theta=2.0),
    ]


class TestNumericProbesOfCharacteristics:
    """Probe the declared trait flags numerically where that is possible."""

    def test_insensitive_zone_flags(self):
        rng = np.random.default_rng(7)
        for spec in _one_spec_per_kind():
            c = characteristics(spec)
            eps = spec.epsilon if spec.epsilon is not None else 0.5
            inside = rng.uniform(-eps * 0.999, eps * 0.999, 200) if eps > 0 else np.zeros(1)
            vals = loss_value(spec, inside)
            if c.insensitive_zone:
                assert np.all(vals == 0.0)
            else:
                probe = loss_value(spec, eps * 0.5 if eps > 0 else 0.5)
                assert probe > 0.0

    def test_bounded_flags_where_formula_saturates(self):
        # the quadratic nonconvex insensitive kind grows linearly for
        # theta > 0, so its declared bound is only probed with theta = 0
        caps = {
            "hawkeye": ("lam", LossSpec("hawkeye", epsilon=0.5, a=1.0, lam=1.3), 1.3),
            "ramp_insensitive": (
                "theta-eps",
                LossSpec("ramp_insensitive", epsilon=0.5, theta=1.5),
                1.0,
            ),
            "nonconvex_least_squares": (
                "theta^2",
                LossSpec("nonconvex_least_squares", theta=1.5),
                2.25,
            ),
            "ramp_insensitive_least_squares": (
                "(theta-eps)^2",
                LossSpec("ramp_insensitive_least_squares", epsilon=0.5, theta=1.5),
                1.0,
            ),
            "quadratic_nonconvex_insensitive": (
                "(t-eps)^2 at theta=0",
                LossSpec("quadratic_nonconvex_insensitive", epsilon=0.5, t=1.5, theta=0.0),
                1.0,
            ),
            "canal": ("theta-eps", LossSpec("canal", epsilon=0.5, theta=1.5), 1.0),
            "bounded_least_squares": (
                "1/t",
                LossSpec("bounded_least_squares", t=2.0, theta=1.0),
                0.5,
            ),
        }
        rs = np.concatenate([np.linspace(-50, 50, 1001), [1e6, -1e6]])
        for kind, (_, spec, cap) in caps.items():
            assert characteristics(spec).bounded, kind
            assert np.all(loss_value(spec, rs) <= cap + 1e-12), kind

    def test_unbounded_flags(self):
        big = 1e8
        for spec in _one_spec_per_kind():
            if not characteristics(spec).bounded:
                assert loss_value(spec, big) > 1e6

    def test_smooth_flags_via_finite_differences(self):
        rng = np.random.default_rng(11)
        for spec in _one_spec_per_kind():
            if not characteristics(spec).smooth:
                continue
            rs = rng.uniform(-4, 4, 100)
            for r in rs:
                fd = fd_derivative(spec, float(r))
                d = loss_derivative(spec, float(r))
                assert abs(fd - d) <= max(1e-5, 1e-6 * abs(d)), spec.kind


N_TUPLES = 12000


@pytest.fixture(scope="module")
def tuples():
    rng = np.random.default_rng(2024)
    eps = rng.uniform(0.01, 1.0, N_TUPLES)
    a = rng.uniform(0.1, 5.0, N_TUPLES)
    lam = rng.uniform(0.1, 2.0, N_TUPLES)
    r = rng.uniform(-10.0, 10.0, N_TUPLES)
    return eps, a, lam, r


class TestHawkeyeProperties:
    """Randomized checks of the loss axioms."""

    def test_sparsity(self, tuples):
        eps, a, lam, _ = tuples
        rng = np.random.default_rng(1)
        inner = rng.uniform(-1.0, 1.0, eps.size) * eps * 0.9999
        for e, aa, ll, rr in zip(eps, a, lam, inner):
            assert loss_value(LossSpec("hawkeye", epsilon=e, a=aa, lam=ll), rr) == 0.0

    def test_symmetry_nonnegativity_bound(self, tuples):
        eps, a, lam, r = tuples
        for e, aa, ll, rr in zip(eps, a, lam, r):
            spec = LossSpec("hawkeye", epsilon=e, a=aa, lam=ll)
            v = loss_value(spec, rr)
            assert v == loss_value(spec, -rr)
            assert v >= 0.0
            assert v <= ll

    def test_bound_at_extremes(self):
        spec = hawkeye(0.2, 3.0, 1.7)
        for r in (1e6, -1e6, 1e12, -1e12):
            assert loss_value(spec, r) <= 1.7

    def test_monotone_in_magnitude(self, tuples):
        eps, a, lam, _ = tuples
        rng = np.random.default_rng(2)
        r1 = rng.uniform(0.0, 8.0, eps.size)
        r2 = r1 + rng.uniform(0.0, 4.0, eps.size)
        for e, aa, ll, lo, hi in zip(eps, a, lam, r1, r2):
            spec = LossSpec("hawkeye", epsilon=e, a=aa, lam=ll)
            assert loss_value(spec, lo) <= loss_value(spec, hi)

    def test_symmetry_of_all_symmetric_kinds(self):
        rng = np.random.default_rng(3)
        rs = rng.uniform(-6, 6, 500)
        for spec in _one_spec_per_kind():
            vals_pos = loss_value(spec, rs)
            vals_neg = loss_value(spec, -rs)
            assert np.array_equal(vals_pos, vals_neg), spec.kind


class TestHawkeyeSmoothness:
    def test_finite_difference_matches_derivative(self):
        # moderate shape values keep the O(h) truncation error at the band
        # edges inside the absolute tolerance
        rng = np.random.default_rng(42)
        n = 1000
        eps = rng.uniform(0.05, 1.0, n)
        a = rng.uniform(0.1, 3.0, n)
        lam = rng.uniform(0.1, 2.0, n)
        for e, aa, ll in zip(eps, a, lam):
            spec = LossSpec("hawkeye", epsilon=e, a=aa, lam=ll)
            r = float(rng.uniform(-(e + 5.0 / aa), e + 5.0 / aa))
            fd = fd_derivative(spec, r)
            d = loss_derivative(spec, r)
            assert abs(fd - d) <= max(1e-5, 1e-6 * abs(d))

    def test_finite_difference_at_band_edges(self):
        spec = hawkeye(0.5, 2.0, 1.5)
        for r in (0.5 + 1e-8, 0.5 - 1e-8, -0.5 + 1e-8, -0.5 - 1e-8):
            fd = fd_derivative(spec, r)
            d = loss_derivative(spec, r)
            assert abs(fd - d) <= 1e-5

    def test_derivative_vanishes_for_outliers(self):
        for a, lam in ((0.3, 0.5), (1.0, 1.0), (4.0, 2.0)):
            spec = hawkeye(0.2, a, lam)
            r = 0.2 + 100.0 / a
            assert abs(loss_derivative(spec, r)) < 1e-20 * lam * a

    def test_derivative_maximum_location_and_value(self):
        spec = hawkeye(0.5, 2.0, 1.5)
        grid = np.linspace(0.5, 0.5 + 10.0 / 2.0, 200001)
        d = loss_derivative(spec, grid)
        i = int(np.argmax(np.abs(d)))
        r_star = 0.5 + 1.0 / 2.0
        assert abs(grid[i] - r_star) < 1e-3
        assert np.max(np.abs(d)) == pytest.approx(1.5 * 2.0 * math.exp(-1.0), rel=1e-6)
        assert abs(loss_derivative(spec, r_star)) == pytest.approx(
            1.5 * 2.0 * math.exp(-1.0), rel=1e-12
        )


# Reference hawkeye forms with an explicit select over the insensitive band;
# the library's select-free forms must match them byte for byte.
def where_hawkeye_value(spec, m):
    u = spec.a * (m - spec.epsilon)
    return np.where(m < spec.epsilon, 0.0, spec.lam * (1.0 - (np.maximum(u, 0.0) + 1.0) * np.exp(-np.maximum(u, 0.0))))


def where_hawkeye_derivative(spec, r):
    m = np.abs(r)
    up = np.maximum(spec.a * (m - spec.epsilon), 0.0)
    return np.sign(r) * np.where(m <= spec.epsilon, 0.0, spec.lam * spec.a * up * np.exp(-up))


def edge_residuals(eps):
    """Residuals at and around the band edges, signed zeros, subnormals and
    huge values, with both signs."""
    tiny = np.nextafter(0.0, 1.0)
    m = np.array([
        0.0, eps, eps * (1 + 2.0**-52), eps * (1 - 2.0**-52), np.nextafter(eps, 0.0), np.nextafter(eps, 1.0),
        tiny, 1e-310, 2.2250738585072014e-308, eps / 2, 2 * eps, 1.0, 50.0, 1e300,
    ])
    return np.concatenate([m, -m])


class TestSelectFreeHawkeye:
    """The hawkeye value and derivative carry no np.where over the band:
    inside it up = max(a (|r| - eps), 0) is +0.0 and lam * a is finite and
    > 0, so the plain formulas already give exactly +0.0 there."""

    SPECS = [
        hawkeye(0.05, 1.0, 1.0),
        hawkeye(0.5, 3.0, 0.25),
        hawkeye(1e-300, 1e300, 1e-5),
        # a * (|r| - eps) underflows to -0.0 inside the band
        hawkeye(0.05, 5e-324, 2.0),
        hawkeye(1e300, 1.0, 1e300),
    ]

    @staticmethod
    def residuals(spec):
        # the edge cases, then the slope: |r| up to eps + 8 / a
        scale = min(spec.epsilon + 8.0 / spec.a, 1e300)
        return np.concatenate([edge_residuals(spec.epsilon), np.random.default_rng(12).uniform(-scale, scale, 200)])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"eps={s.epsilon},a={s.a},lam={s.lam}")
    def test_value_matches_where_form(self, spec):
        r = self.residuals(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            want = where_hawkeye_value(spec, np.abs(r))
            assert losses._hawkeye_value(spec, np.abs(r)).tobytes() == want.tobytes()
            assert loss_value(spec, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"eps={s.epsilon},a={s.a},lam={s.lam}")
    def test_derivative_matches_where_form(self, spec):
        r = self.residuals(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            want = where_hawkeye_derivative(spec, r)
            assert loss_derivative(spec, r).tobytes() == want.tobytes()
            assert losses._hawkeye_deriv(spec, r, np.empty_like(r)).tobytes() == want.tobytes()
            for x, w in zip(r, want):
                assert np.float64(loss_derivative(spec, float(x))).tobytes() == w.tobytes()
            stack = losses.stack_losses([spec, spec], r.size)
            got = loss_derivative(stack, np.stack([r, r[::-1]]))
            assert got.tobytes() == np.stack([want, want[::-1]]).tobytes()

    def test_inside_band_is_signed_zero(self):
        # the value is +0.0, the derivative sign(r) * +0.0
        for spec in self.SPECS:
            m = np.array([0.0, spec.epsilon / 2, spec.epsilon])
            r = np.concatenate([m, -m])
            assert loss_value(spec, r).tobytes() == np.zeros(6).tobytes()
            assert loss_derivative(spec, r).tobytes() == (np.sign(r) * 0.0).tobytes()


class TestDerivativeOut:
    @pytest.mark.parametrize("spec", _one_spec_per_kind(), ids=lambda s: s.kind)
    def test_out_matches_allocating_call(self, spec):
        rng = np.random.default_rng(11)
        R = np.concatenate([rng.normal(0, 1.5, (3, 40)), np.tile(edge_residuals(0.5)[:14], (3, 1))], axis=1)
        R[1, :3] = (0.5, 1.0, 1.5)  # the kinds' kink points
        for loss, r in ((losses.stack_losses([spec] * 3, R.shape[1]), R), (spec, R[0])):
            with np.errstate(over="ignore", invalid="ignore"):
                want = loss_derivative(loss, r)
                buf = np.full_like(r, np.nan)
                got = loss_derivative(loss, r, out=buf)
            assert got is buf
            assert buf.tobytes() == want.tobytes()

    def test_out_must_not_overlap_residual(self):
        r = np.array([0.1, 1.0, -2.0])
        with pytest.raises(ValueError, match="must not overlap"):
            loss_derivative(hawkeye(), r, out=r)

    def test_out_keeps_finiteness_check(self):
        spec = hawkeye()
        buf = np.zeros(2)
        with pytest.raises(ValueError, match="residual must be finite"):
            loss_derivative(spec, np.array([0.1, np.nan]), out=buf)


class TestCanalOracle:
    """canal is min(theta - eps, max(0, |r| - eps)), with dL/d|r| = 1 strictly
    between eps and theta and 0 elsewhere; the library must give these
    formulas' bits, which are also the ramp-insensitive loss's."""

    PAIRS = [(0.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.05, 1.0), (0.5, 1.5), (1e-300, 1e300), (5e-324, 1e-310), (1.0, 1e308)]

    @staticmethod
    def oracle_value(eps, th, m):
        return np.minimum(th - eps, np.maximum(0.0, m - eps))

    @staticmethod
    def oracle_derivative(eps, th, r):
        m = np.abs(r)
        return np.sign(r) * np.where((m > eps) & (m < th), 1.0, 0.0)

    @staticmethod
    def residuals(eps, th):
        # 0, eps, theta and their float neighbours, subnormals, huge values
        # and a random sweep past theta, with both signs
        tiny = np.nextafter(0.0, 1.0)
        points = [0.0, tiny, 1e-310, 2.2250738585072014e-308, 1.0, 1e308]
        for x in (eps, th):
            points += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), x * (1 + 2.0**-52), x * (1 - 2.0**-52)]
        scale = min(2.0 * th + 1.0, 1e308)
        m = np.concatenate([points, np.random.default_rng(13).uniform(0.0, scale, 2000)])
        return np.concatenate([m, -m])

    @pytest.mark.parametrize("eps, th", PAIRS)
    def test_value_matches_formula(self, eps, th):
        spec = LossSpec("canal", epsilon=eps, theta=th)
        r = self.residuals(eps, th)
        want = self.oracle_value(eps, th, np.abs(r))
        assert loss_value(spec, r).tobytes() == want.tobytes()
        assert loss_value(LossSpec("ramp_insensitive", epsilon=eps, theta=th), r).tobytes() == want.tobytes()
        for x, w in zip(r[:40], want[:40]):
            assert np.float64(loss_value(spec, float(x))).tobytes() == w.tobytes()

    @pytest.mark.parametrize("eps, th", PAIRS)
    def test_derivative_matches_formula(self, eps, th):
        spec = LossSpec("canal", epsilon=eps, theta=th)
        r = self.residuals(eps, th)
        want = self.oracle_derivative(eps, th, r)
        assert loss_derivative(spec, r).tobytes() == want.tobytes()
        assert loss_derivative(LossSpec("ramp_insensitive", epsilon=eps, theta=th), r).tobytes() == want.tobytes()
        stack = losses.stack_losses([spec, spec], r.size)
        got = loss_derivative(stack, np.stack([r, r[::-1]]))
        assert got.tobytes() == np.stack([want, want[::-1]]).tobytes()
