import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.catalog import make_coinflip
from skewlab.errors import DomainError, InvariantError, PreconditionError, SkewlabError
from skewlab.fiber import (
    _ISO_TIE,
    CONCAVITY_SLACK,
    ZERO_TOL,
    ConcavityCertificate,
    FiberMap,
    _bisect_last,
    certify,
    grid_max,
    grid_values,
    isoclinic_point,
    kappa,
    left_derivative_limit,
    ratio_bound_monotone,
    ratio_bound_nonmonotone,
)

from conftest import (
    admissible_flip_pair,
    admissible_increasing_pair,
    bumpy_concave,
    hump,
    monotone_concave,
)

LOGISTIC = FiberMap(1.0, lambda x: x * (2.0 - x), form="x(2-x)")
HUMP4 = FiberMap(1.0, lambda x: 4.0 * x * (1.0 - x), form="4x(1-x)")
LINEAR = FiberMap(1.0, lambda x: x, form="x")
ZERO = FiberMap(1.0, lambda x: 0.0, form="0")
SQUARE = FiberMap(1.0, lambda x: x * x, form="x^2")  # convex: the concavity test fails


def cubic(u):
    """2.4u - 1.2u^2 - 0.6u^3: concave and nonmonotone on [0, 1], with b < 1."""
    return ((-0.6 * u - 1.2) * u + 2.4) * u


def binary_conjugate(c):
    """The cubic conjugated by c: f_c(x) = f(c x) / c on [0, 1/c]."""
    return FiberMap(1.0 / c, lambda x: cubic(c * x) / c, form="cubic_c")


class TestKappa:
    def test_direct_values(self):
        assert kappa(1.0, 2.0) == 1.0
        assert kappa(3.0, 3.0) == 0.0
        assert kappa(2.0, 6.0) == 2.0

    @pytest.mark.parametrize("u,v", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_domain(self, u, v):
        with pytest.raises(DomainError):
            kappa(u, v)

    @pytest.mark.parametrize("u,v", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_nan_refused(self, u, v):
        with pytest.raises(DomainError, match=r"^kappa needs positive arguments, got \("):
            kappa(u, v)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_symmetry_and_zero(self, u, v):
        assert kappa(u, v) == kappa(v, u)
        assert kappa(u, u) == 0.0
        assert (kappa(u, v) == 0.0) == (u == v)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.integers(min_value=-30, max_value=30),
    )
    def test_scale_invariance_exact_for_binary_scales(self, u, v, e):
        c = 2.0 ** e
        assert kappa(c * u, c * v) == kappa(u, v)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance_generic(self, u, v, c):
        k1, k2 = kappa(c * u, c * v), kappa(u, v)
        assert k1 == pytest.approx(k2, rel=1e-14, abs=1e-15)


class TestCertify:
    def test_logistic_alpha_one(self):
        cert = certify(LOGISTIC, 10_000)
        assert cert.alpha_star == pytest.approx(1.0, abs=1e-3)
        assert cert.monotone and cert.b == 1.0 and cert.gamma == 1.0

    def test_linear(self):
        cert = certify(LINEAR, 1000)
        assert cert.alpha_star == 0.0
        assert cert.monotone and cert.b == 1.0

    def test_hump(self):
        cert = certify(HUMP4, 10_000)
        assert cert.alpha_star == pytest.approx(4.0, abs=4e-3)
        assert cert.gamma == pytest.approx(1.0, abs=1e-8)
        assert cert.c == pytest.approx(0.5, abs=1e-4)
        assert not cert.monotone
        assert cert.b == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_zero_map(self):
        cert = certify(ZERO, 64)
        assert cert.alpha_star == 0.0 and cert.gamma == 0.0
        assert cert.monotone and cert.b is None

    def test_nonmonotone_without_strict_concavity_has_no_b(self):
        # the tent min(x, 1 - x) is concave but linear on each side of its peak
        cert = certify(FiberMap(1.0, lambda x: min(x, 1.0 - x), form="tent"), 64)
        assert (cert.alpha_star, cert.gamma, cert.monotone) == (0.0, 0.5, False)
        assert cert.b is None

    def test_grid_too_small(self):
        with pytest.raises(PreconditionError):
            certify(LOGISTIC, 4)

    def test_not_anchored(self):
        with pytest.raises(InvariantError):
            certify(FiberMap(1.0, lambda x: x + 0.5), 64)

    def test_leaves_interval(self):
        with pytest.raises(InvariantError):
            certify(FiberMap(1.0, lambda x: 3.0 * x), 64)

    def test_convex_rejected(self):
        with pytest.raises(InvariantError):
            certify(FiberMap(1.0, lambda x: x * x), 64)

    def test_nonmonotone_certify_evaluates_each_value_once(self):
        # grid values, scan values, two per predicate from the right end
        # down to b = 2/3, and the bisection: 2793 evaluations
        calls = [0]

        def f(x):
            calls[0] += 1
            return 4.0 * x * (1.0 - x)

        cert = certify(FiberMap(1.0, f, form="4x(1-x)"), 1024)
        assert not cert.monotone and cert.b == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert calls[0] <= 3 * 1025

    def test_coin_fibres_judged_by_their_values(self):
        # the constant 1 does not fix 0, and the constant 0 is the zero map
        zero, one = make_coinflip("one").fiber_at.values
        with pytest.raises(InvariantError, match=r"^f\(0\) = 1\.0 is not 0 \(map const\(1\.0\)\)$"):
            certify(one, 64)
        assert certify(zero, 64) == certify(ZERO, 64)

    def test_alpha_star_is_maximal(self, rng):
        # passes at the certified level, fails 10% above it
        for _ in range(25):
            case = monotone_concave(rng) if rng.random() < 0.5 else hump(rng)
            fm = case["fm"]
            cert = certify(fm, 4096)
            assert cert.alpha_star >= 0.1
            assert _ref_concavity_holds(fm, cert.alpha_star, 4096)
            assert not _ref_concavity_holds(fm, cert.alpha_star * 1.1, 4096)

    def test_alpha_star_matches_analytic(self, rng):
        for _ in range(25):
            case = monotone_concave(rng) if rng.random() < 0.5 else bumpy_concave(rng)
            cert = certify(case["fm"], 4096)
            # the grid level exceeds the true level up to O(h^2) + float noise
            assert cert.alpha_star >= case["alpha"] - 1e-7
            assert cert.alpha_star == pytest.approx(case["alpha"], rel=0.05, abs=5e-3)

    def test_second_difference_at_the_slack_accepted(self):
        # a grid-indexed black box whose one kink, at the last interior node,
        # has a second difference of exactly CONCAVITY_SLACK
        fm = FiberMap(1.0, lambda x: CONCAVITY_SLACK * max(0, round(8 * x) - 7), form="kink")
        cert = certify(fm, 8)
        assert cert.alpha_star == 0.0 and cert.monotone and cert.b == 1.0

    @settings(deadline=None)
    @given(st.integers(min_value=-20, max_value=20))
    def test_binary_conjugation_maps_the_certificate_exactly(self, k):
        # f_c(x) = f(c x) / c on [0, 1/c]: every grid node, value and
        # bisection width scales by a power of two, so alpha* scales by c,
        # gamma and the isoclinic point b by 1/c, with no rounding
        c = 2.0 ** k
        unit = certify(FiberMap(1.0, cubic, form="cubic"), 1000)
        conj = certify(binary_conjugate(c), 1000)
        assert not unit.monotone and unit.b < 1.0
        assert conj.alpha_star == unit.alpha_star * c
        assert conj.gamma == unit.gamma / c
        assert conj.b == unit.b / c


class TestLeftDerivative:
    def test_linear_exact(self):
        assert left_derivative_limit(LINEAR, 0.75) == pytest.approx(1.0, abs=1e-8)

    def test_logistic_at_one(self):
        assert left_derivative_limit(LOGISTIC, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_hump_at_isoclinic(self):
        d = left_derivative_limit(HUMP4, 2.0 / 3.0)
        assert d == pytest.approx(-4.0 / 3.0, abs=1e-6)

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_limit_is_one_quotient_at_the_smallest_step(self, a, u):
        fm = FiberMap(a, lambda x: x * (2.0 * a - x) / a)
        x = a * u
        h = min(fm.a * 1e-4, x / 2) / 4**5
        assert left_derivative_limit(fm, x) == (fm(x) - fm(x - h)) / h

    def test_h_domain(self):
        with pytest.raises(DomainError, match=r"^x must lie in \(0, 1\.0\], got 0\.0$"):
            left_derivative_limit(LOGISTIC, 0.0)
        with pytest.raises(DomainError, match=r"^x must lie in"):
            left_derivative_limit(LOGISTIC, 1.5)
        # the smallest subnormal: its step rounds to 0
        with pytest.raises(DomainError, match=r"^need 0 < h < x, got h = 0\.0, x = 5e-324$"):
            left_derivative_limit(LOGISTIC, 5e-324)


class TestIsoclinicPoint:
    def test_hump(self):
        assert isoclinic_point(HUMP4) == pytest.approx(2 / 3, abs=1e-6)

    def test_monotone_gives_endpoint(self):
        assert isoclinic_point(LOGISTIC) == 1.0
        assert isoclinic_point(LINEAR) == 1.0

    def test_zero_map_refused(self):
        with pytest.raises(PreconditionError):
            isoclinic_point(ZERO)

    def test_predicate_never_holding_refused(self):
        # x^2 up to 1/2, then a drop of slope -10: |f'| >= f/x wherever f > 0
        fm = FiberMap(1.0, lambda x: x * x if x <= 0.5 else max(0.0, 0.25 - 10.0 * (x - 0.5)))
        with pytest.raises(PreconditionError, match="isoclinic predicate never holds"):
            isoclinic_point(fm)

    def test_scale_free(self, rng):
        # scaling the map does not move the isoclinic point
        b1 = isoclinic_point(HUMP4, scan=512)
        b2 = isoclinic_point(HUMP4.scaled(0.35), scan=512)
        assert b1 == pytest.approx(b2, abs=1e-6)

    def test_at_least_half_the_interval(self, rng):
        for _ in range(60):
            if rng.random() < 0.5:
                case = hump(rng, a=rng.uniform(0.5, 2.0))
            else:
                case = bumpy_concave(rng)
            fm = case["fm"]
            b = isoclinic_point(fm, scan=512)
            assert b >= fm.a / 2.0 - 1e-6

    def test_bisection_stops_at_width_tol(self):
        # the bisection of isoclinic_point: nodes k/8 bracket 2/3 in a cell of
        # width 2^-3; seven halvings reach the width tol = 2^-10 exactly and
        # stop, so the result is the midpoint of a cell of that width: an odd
        # multiple of 2^-11
        b = _bisect_last(lambda x: x < 2 / 3, [k / 8 for k in range(1, 9)], 60, 2.0**-10)
        assert abs(b - 2 / 3) < 2.0**-10
        assert b * 2**11 % 2 == 1

    @settings(deadline=None)
    @given(st.integers(min_value=-20, max_value=20))
    def test_default_width_scales_with_a(self, k):
        # the default bisection width 1e-9 * a scales with the conjugate's
        # interval [0, 1/c], so its b is the cubic's b / c with no rounding
        c = 2.0 ** k
        unit = isoclinic_point(FiberMap(1.0, cubic, form="cubic"))
        assert unit < 1.0
        assert isoclinic_point(binary_conjugate(c)) == unit / c


class TestGridSize:
    """Every grid-based fibre test refuses fewer than 8 cells, as certify does."""

    @pytest.mark.parametrize("n", [0, -1, 1, 7])
    def test_isoclinic_scan_refused(self, n):
        with pytest.raises(PreconditionError, match=rf"^grid_size must be >= 8, got {n}$"):
            isoclinic_point(HUMP4, scan=n)

    @pytest.mark.parametrize("n", [0, -1, 1, 7])
    def test_concavity_grid_refused(self, n):
        for fm in (LOGISTIC, SQUARE):
            with pytest.raises(PreconditionError, match=rf"^grid_size must be >= 8, got {n}$"):
                certify(fm, n)

    @pytest.mark.parametrize("n", [0, -1, 1, 7])
    def test_grid_values_refused(self, n):
        for grid in (grid_values, grid_max):
            with pytest.raises(PreconditionError, match=rf"^grid_size must be >= 8, got {n}$"):
                grid(LOGISTIC, n)

    @pytest.mark.parametrize("call, n", [
        (lambda n: certify(LOGISTIC, n), 10.5),
        (lambda n: grid_max(LOGISTIC, n), float("nan")),
        (lambda n: isoclinic_point(HUMP4, scan=n), "16"),
    ], ids=["certify", "grid_max", "isoclinic_point"])
    def test_non_integer_refused(self, call, n):
        with pytest.raises(PreconditionError, match=rf"^grid_size must be an integer, got {n!r}$"):
            call(n)

    def test_smallest_grid_accepted(self):
        assert grid_max(LOGISTIC, 8) == 1.0
        assert certify(LOGISTIC, 8).alpha_star > 0.0
        with pytest.raises(InvariantError, match="not concave"):
            certify(SQUARE, 8)
        assert isoclinic_point(HUMP4, scan=8) == pytest.approx(2 / 3, abs=1e-6)


class TestRatioBoundMonotone:
    def test_logistic_instance(self):
        rb = ratio_bound_monotone(LOGISTIC, 1.0, 0.5, 1.0)
        assert rb.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rb.bound == pytest.approx(0.5, abs=1e-12)
        assert rb.ratio <= rb.bound

    def test_identity_preserves_gap(self):
        rb = ratio_bound_monotone(LINEAR, 0.0, 0.3, 0.9)
        assert rb.ratio == pytest.approx(1.0, abs=1e-12)
        assert rb.bound == 1.0

    def test_precondition_messages(self):
        with pytest.raises(PreconditionError, match="0 < x < y"):
            ratio_bound_monotone(LOGISTIC, 1.0, 0.9, 0.5)
        with pytest.raises(PreconditionError, match=r"f\(x\) < f\(y\)"):
            ratio_bound_monotone(HUMP4, 4.0, 0.4, 0.6)  # f(0.4) > f(0.6) fails order
        with pytest.raises(DomainError):
            ratio_bound_monotone(LOGISTIC, -1.0, 0.2, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        # a NaN alpha once gave the bound nan, and inf the bound 0.0 against a
        # ratio of 0.722: a false violation
        message = rf"^alpha: must be a nonnegative number, got {alpha!r}$"
        with pytest.raises(DomainError, match=message):
            ratio_bound_monotone(LOGISTIC, alpha, 0.2, 0.5)

    @pytest.mark.parametrize("x, y", [(0.5, 0.5), (0.0, 0.5)], ids=["x=y", "x=0"])
    def test_boundary_pairs_refused(self, x, y):
        # each pair fails only the strict side of 0 < x < y
        with pytest.raises(PreconditionError, match=r"^precondition 0 < x < y <= a failed"):
            ratio_bound_monotone(LOGISTIC, 1.0, x, y)

    def test_randomized(self, rng):
        checked = 0
        while checked < 300:
            case = monotone_concave(rng)
            pair = admissible_increasing_pair(rng, case["fm"])
            if pair is None:
                continue
            rb = ratio_bound_monotone(case["fm"], case["alpha"], *pair)
            assert rb.ratio <= rb.bound + 1e-9
            checked += 1


class TestRatioBoundNonmonotone:
    def test_specific_instance(self):
        rb = ratio_bound_nonmonotone(HUMP4, 4.0, 2.0 / 3.0, 0.45, 0.66)
        expected_ratio = (0.0924 / 0.8976) / (0.21 / 0.45)
        assert rb.ratio == pytest.approx(expected_ratio, abs=1e-12)
        assert rb.bound == pytest.approx(0.35, abs=1e-4)
        assert rb.ratio < rb.bound

    def test_bound_tends_to_one_near_b(self):
        b = 2.0 / 3.0
        rb = ratio_bound_nonmonotone(HUMP4, 4.0, b, b - 1e-6, b - 5e-7)
        assert rb.bound > 1.0 - 1e-5

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="^alpha: must be a positive number, got 0.0$"):
            ratio_bound_nonmonotone(HUMP4, 0.0, 2 / 3, 0.5, 0.6)
        with pytest.raises(PreconditionError, match="0 < x < y"):
            ratio_bound_nonmonotone(HUMP4, 4.0, 2 / 3, 0.6, 0.5)
        with pytest.raises(PreconditionError, match="x, y < b"):
            ratio_bound_nonmonotone(HUMP4, 4.0, 2 / 3, 0.5, 0.7)
        with pytest.raises(PreconditionError, match=r"f\(y\) < f\(x\)"):
            ratio_bound_nonmonotone(HUMP4, 4.0, 2 / 3, 0.1, 0.2)
        # b = 1 is where the hump returns to 0
        with pytest.raises(PreconditionError, match=r"f\(b\) > 0"):
            ratio_bound_nonmonotone(HUMP4, 4.0, 1.0, 0.6, 0.7)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        # a NaN alpha once gave the bound nan, and inf the bound -inf
        message = rf"^alpha: must be a positive number, got {alpha!r}$"
        with pytest.raises(PreconditionError, match=message):
            ratio_bound_nonmonotone(HUMP4, alpha, 2 / 3, 0.45, 0.66)

    def test_y_at_b_refused(self):
        # f(0.6) < f(0.5) and f(b) > 0 hold: only y < b refuses the pair
        with pytest.raises(PreconditionError, match="x, y < b"):
            ratio_bound_nonmonotone(HUMP4, 4.0, 0.6, 0.5, 0.6)

    def test_randomized_strict(self, rng):
        checked = 0
        while checked < 300:
            case = hump(rng)
            pair = admissible_flip_pair(rng, case["fm"], case["b"])
            if pair is None:
                continue
            rb = ratio_bound_nonmonotone(case["fm"], case["alpha"], case["b"], *pair)
            assert rb.ratio < rb.bound
            checked += 1


class TestFiberMap:
    def test_scaled_metadata(self):
        fm = FiberMap(1.0, lambda x: x * (2 - x), gamma=1.0, alpha=1.0,
                      b=1.0, monotone=True)
        half = fm.scaled(0.5)
        assert half(1.0) == 0.5
        assert half.gamma == 0.5 and half.alpha == 0.5
        zero = fm.scaled(0.0)
        assert zero(0.7) == 0.0 and zero.gamma == 0.0 and zero.b is None

    def test_scaled_negative_rejected(self):
        with pytest.raises(DomainError):
            LOGISTIC.scaled(-1.0)

    def test_scaled_nan_rejected(self):
        # NaN compares False with 0, so only a check written as not c >= 0 sees it
        message = "^scale factor: must be a nonnegative number, got nan$"
        with pytest.raises(DomainError, match=message):
            LOGISTIC.scaled(float("nan"))

    def test_scaled_infinite_rejected(self):
        # inf * f(0) is NaN, so the scaled map would no longer fix 0
        message = "^scale factor: must be a nonnegative number, got inf$"
        with pytest.raises(DomainError, match=message):
            LOGISTIC.scaled(math.inf)


# Reference versions that evaluate the predicate at every scan point, the
# quotient at every step of a shrinking-h schedule, and the concavity test a
# second time at alpha_star.  The library functions must give the same
# floats and raise the same errors.  Every fibre-value tolerance is a
# multiple of a: ZERO_TOL * a and CONCAVITY_SLACK * a.


def _ref_left_quotient(fm, x, h):
    if not (0.0 < x <= fm.a):
        raise DomainError(f"x must lie in (0, {fm.a!r}], got {x!r}")
    if not (0.0 < h < x):
        raise DomainError(f"need 0 < h < x, got h = {h!r}, x = {x!r}")
    return (fm(x) - fm(x - h)) / h


def _ref_left_derivative_limit(fm, x):
    h = min(fm.a * 1e-4, x / 2.0)
    val = _ref_left_quotient(fm, x, h)
    for _ in range(5):
        h *= 0.25
        val = _ref_left_quotient(fm, x, h)
    return val


def _ref_concavity_holds(fm, alpha, grid_size, slack=None):
    slack = CONCAVITY_SLACK * fm.a if slack is None else slack
    xs = [fm.a * i / grid_size for i in range(grid_size + 1)]
    xs[-1] = fm.a
    vals = [fm(x) for x in xs]
    h = fm.a / grid_size
    bump = 2.0 * alpha * h * h
    return all(
        vals[i - 1] - 2.0 * vals[i] + vals[i + 1] + bump <= slack
        for i in range(1, grid_size)
    )


def _ref_isoclinic_point(fm, scan=2048):
    a = fm.a
    xs = [a * i / scan for i in range(scan + 1)]
    xs[-1] = a
    xs = xs[1:]
    vals = [fm(x) for x in xs]
    if max(vals) <= ZERO_TOL * a:
        raise PreconditionError(
            "isoclinic point undefined: map is identically 0 on the scan grid"
        )

    def pred(x, fx):
        if fx <= 0.0:
            return False
        return abs(_ref_left_derivative_limit(fm, x)) < fx / x - _ISO_TIE

    flags = [pred(x, v) for x, v in zip(xs, vals)]
    if flags[-1]:
        return a
    if not any(flags):
        if all(vals[i + 1] >= vals[i] - ZERO_TOL * a for i in range(len(vals) - 1)):
            return a
        raise PreconditionError(
            "isoclinic predicate never holds on the scan grid; "
            "map does not look strictly concave"
        )
    last_true = max(i for i, fl in enumerate(flags) if fl)
    lo, hi = xs[last_true], xs[last_true + 1]
    for _ in range(60):
        if hi - lo <= 1e-9 * a:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid, fm(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_certify(fm, grid_size):
    if grid_size < 8:
        raise PreconditionError(f"grid_size must be >= 8, got {grid_size}")
    xs = [fm.a * i / grid_size for i in range(grid_size + 1)]
    xs[-1] = fm.a
    vals = [fm(x) for x in xs]
    tol = ZERO_TOL * fm.a
    if abs(vals[0]) > tol:
        raise InvariantError(f"f(0) = {vals[0]!r} is not 0 (map {fm.form})")
    for x, v in zip(xs, vals):
        if not (-tol <= v <= fm.a + tol):
            raise InvariantError(f"f({x!r}) = {v!r} leaves [0, {fm.a!r}] (map {fm.form})")
    h = fm.a / grid_size
    denom = 2.0 * h * h
    alpha_star = min(
        -(vals[i - 1] - 2.0 * vals[i] + vals[i + 1]) / denom
        for i in range(1, grid_size)
    )
    alpha_star = max(0.0, alpha_star)
    bump = 2.0 * alpha_star * h * h
    for i in range(1, grid_size):
        if vals[i - 1] - 2.0 * vals[i] + vals[i + 1] + bump > CONCAVITY_SLACK * fm.a:
            raise InvariantError(f"map {fm.form} is not concave on the grid near x = {xs[i]!r}")
    i_max = max(range(len(vals)), key=vals.__getitem__)
    gamma = vals[i_max]
    monotone = all(vals[i + 1] >= vals[i] - tol for i in range(grid_size))
    if gamma <= tol:
        b = None
    elif monotone:
        b = fm.a
    elif alpha_star > 0.0:
        b = _ref_isoclinic_point(fm, scan=min(grid_size, 2048))
    else:
        b = None
    return ConcavityCertificate(
        alpha_star=alpha_star, gamma=gamma, c=xs[i_max], b=b,
        grid_size=grid_size, monotone=monotone,
    )


def _outcome(fn, *args):
    """repr of the result (exact floats), or the raised error type and message."""
    try:
        return repr(fn(*args))
    except SkewlabError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def polynomial_maps(draw):
    """a * t * p(x / a) for p = c1 u + c2 u^2 + c3 u^3, peak scaled to s * a.

    c2 <= 0 with c3 near 0 gives concave quadratics and cubics; the draws
    also reach linear maps, maps convex near a, and maps that go negative.
    """
    a = draw(st.sampled_from([0.25, 1.0, 2.0, 3.7]))
    c1 = draw(st.floats(min_value=0.0, max_value=3.0))
    c2 = draw(st.just(0.0) | st.floats(min_value=-3.0, max_value=0.0))
    c3 = draw(st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0))
    s = draw(st.floats(min_value=0.05, max_value=0.95))
    peak = max(((c3 * u + c2) * u + c1) * u for u in (i / 64.0 for i in range(65)))
    t = s / peak if peak > 0.0 else 1.0
    form = f"poly(a={a!r},{c1!r},{c2!r},{c3!r},t={t!r})"
    return FiberMap(a, lambda x: a * t * (((c3 * (x / a) + c2) * (x / a) + c1) * (x / a)),
                    form=form)


class TestAgainstParentReference:
    @settings(max_examples=150, deadline=None)
    @given(polynomial_maps(), st.sampled_from([4, 8, 9, 64, 257, 1024]))
    def test_certify(self, fm, grid):
        assert _outcome(certify, fm, grid) == _outcome(_ref_certify, fm, grid)

    @settings(max_examples=150, deadline=None)
    @given(polynomial_maps(), st.sampled_from([1, 8, 64, 300]))
    def test_isoclinic_point(self, fm, scan):
        # the library refuses scans below 8 cells; the reference has no such check
        expected = (f"PreconditionError: grid_size must be >= 8, got {scan}" if scan < 8
                    else _outcome(_ref_isoclinic_point, fm, scan))
        assert _outcome(isoclinic_point, fm, scan) == expected

    def test_convex_error_names_the_first_failing_node(self):
        # D2 is exactly 0 on the linear half and h^2 at x = 0.5
        fm = FiberMap(1.0, lambda x: 0.5 * x + max(0.0, x - 0.5) ** 2, form="kink")
        with pytest.raises(InvariantError, match=r"near x = 0\.5$"):
            certify(fm, 64)
        assert _outcome(certify, fm, 64) == _outcome(_ref_certify, fm, 64)

    def test_concavity_holds_at_the_slack(self):
        # the second differences of x on i/64 are exactly 0
        assert certify(LINEAR, 64).alpha_star == 0.0
        assert _ref_concavity_holds(LINEAR, 0.0, 64, slack=0.0)

    def test_left_derivative_limit_with_subnormal_step(self):
        # five roundings of h and one division by 4^5 differ here
        fm = FiberMap(1.0, lambda x: 0.5 * x)
        x = 2.2250738585e-313
        assert left_derivative_limit(fm, x) == _ref_left_derivative_limit(fm, x) == 0.5

    @given(polynomial_maps(), st.floats(min_value=-0.5, max_value=1.5))
    def test_left_derivative_limit(self, fm, u):
        x = fm.a * u
        assert (_outcome(left_derivative_limit, fm, x)
                == _outcome(_ref_left_derivative_limit, fm, x))
