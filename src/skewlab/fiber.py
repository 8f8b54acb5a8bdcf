"""Single-map analysis on an interval [0, a] anchored at 0.

Everything here treats a fiber map as a black-box evaluator: concavity is
certified through second differences on a uniform grid, one-sided derivatives
through backward difference quotients, and the two contraction-ratio
inequalities are evaluated directly so callers (and tests) can check them
against their closed-form bounds.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .errors import (
    DomainError,
    InvariantError,
    PreconditionError,
    check_at_least,
    check_number,
)

# Times a, the slack of the fibre-value rules `value_range` and `zero_tol`.
ZERO_TOL = 1e-12
# Times a, the allowed slack in the grid second-difference concavity test.
CONCAVITY_SLACK = 1e-9
# Grid of `certify` for a map without analytic data, and `certify --grid`'s default.
CERTIFY_GRID = 4096
# Tie-breaker for the strict inequality in the isoclinic predicate.
_ISO_TIE = 1e-12
# Width, relative to a, at which `isoclinic_point` stops bisecting b.
_ISO_WIDTH = 1e-9

# Largest step of the one-sided derivative quotient, as a fraction of a.
_H0_FRACTION = 1e-4


def kappa(u: float, v: float) -> float:
    """Relative gap |v - u| / min(u, v) between two positive reals."""
    if not (u > 0.0 and v > 0.0):  # also refuses NaN
        raise DomainError(f"kappa needs positive arguments, got ({u!r}, {v!r})")
    return abs(v - u) / min(u, v)


class FiberMap(NamedTuple):
    """A map of [0, a] into itself with f(0) = 0.

    ``form`` is a human-readable descriptor (registry name plus parameters)
    used in reports.  The optional analytic fields are populated by the
    closed-form registry when the family allows; grid certification never
    consults them, so they can always be cross-checked against `certify`.
    """

    a: float
    f: Callable[[float], float]
    form: str = "blackbox"
    gamma: float | None = None
    alpha: float | None = None
    b: float | None = None
    monotone: bool | None = None

    def __call__(self, x: float) -> float:
        return self.f(x)

    def scaled(self, c: float) -> "FiberMap":
        """The map x -> c * f(x); analytic data rescales along."""
        # finite too: inf * f(0) is NaN, so the map would no longer fix 0
        check_number("scale factor", c, "a nonnegative number", DomainError)
        base = self.f
        if c == 0.0:
            return FiberMap(a=self.a, f=lambda x: 0.0, form="zero",
                            gamma=0.0, alpha=0.0, b=None, monotone=True)
        return self._replace(
            f=lambda x: c * base(x),
            form=f"{c!r}*({self.form})",
            gamma=None if self.gamma is None else c * self.gamma,
            alpha=None if self.alpha is None else c * self.alpha,
        )


class ConcavityCertificate(NamedTuple):
    """Grid-level concavity data for one fiber map.

    ``alpha_star`` is the largest curvature level for which f(x) + alpha*x^2
    still passes the grid second-difference test; ``gamma`` and ``c`` locate
    the grid maximum; ``b`` is the isoclinic point (None when undefined:
    identically-zero maps, or nonmonotone maps certified only at level 0).
    """

    alpha_star: float
    gamma: float
    c: float
    b: float | None
    grid_size: int
    monotone: bool


class RatioBound(NamedTuple):
    ratio: float
    bound: float


def zero_tol(a: float) -> float:
    """The size up to which a value on [0, a] counts as 0: ZERO_TOL * a."""
    return ZERO_TOL * a


def value_range(a: float) -> tuple[float, float]:
    """[0, a] widened by `zero_tol` at both ends, as (lo, hi); a NaN fails lo <= v <= hi."""
    tol = zero_tol(a)
    return -tol, a + tol


def _check_grid_size(n: int) -> None:
    check_at_least("grid_size", n, 8, PreconditionError)


def _grid(a: float, n: int) -> list[float]:
    xs = [a * i / n for i in range(n + 1)]
    xs[-1] = a
    return xs


def grid_values(fm: FiberMap, grid_size: int) -> tuple[list[float], list[float]]:
    _check_grid_size(grid_size)
    xs = _grid(fm.a, grid_size)
    return xs, [fm(x) for x in xs]


def grid_max(fm: FiberMap, grid_size: int) -> float:
    _, vals = grid_values(fm, grid_size)
    return max(vals)


def _nondecreasing(vals: list[float], a: float) -> bool:
    """Does no value fall more than `zero_tol` below the one before it?"""
    tol = zero_tol(a)
    return all(w >= v - tol for v, w in zip(vals, vals[1:]))


def _check_map_invariants(fm: FiberMap, xs: list[float], vals: list[float]) -> None:
    if abs(vals[0]) > zero_tol(fm.a):
        raise InvariantError(f"f(0) = {vals[0]!r} is not 0 (map {fm.form})")
    lo, hi = value_range(fm.a)
    for x, v in zip(xs, vals):
        if not (lo <= v <= hi):
            raise InvariantError(f"f({x!r}) = {v!r} leaves [0, {fm.a!r}] (map {fm.form})")


def _second_differences(vals: list[float]):
    """Centered second differences D2 at the interior grid points, in order."""
    return (vals[i - 1] - 2.0 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1))


def certify(fm: FiberMap, grid_size: int) -> ConcavityCertificate:
    """Certify the largest grid-level concavity of a fiber map.

    alpha_star is -max D2/(2h^2), where D2 is the centered second difference
    at the interior grid points, clamped below at 0.  A map with some
    D2 > CONCAVITY_SLACK * a (convex somewhere on the grid) is rejected: that is
    exactly when f + alpha_star*x^2 fails the grid concavity test, since
    then alpha_star = 0.  The peak, supremum, monotonicity flag and
    isoclinic point are read off the same grid.
    """
    _check_grid_size(grid_size)
    xs, vals = grid_values(fm, grid_size)
    _check_map_invariants(fm, xs, vals)

    h, slack = fm.a / grid_size, CONCAVITY_SLACK * fm.a  # D2 scales with a
    d2_max = max(_second_differences(vals))
    alpha_star = max(0.0, -d2_max / (2.0 * h * h))
    if d2_max > slack:
        i = next(i for i, d2 in enumerate(_second_differences(vals), 1) if d2 > slack)
        raise InvariantError(f"map {fm.form} is not concave on the grid near x = {xs[i]!r}")

    i_max = max(range(len(vals)), key=vals.__getitem__)
    gamma = vals[i_max]
    c = xs[i_max]
    monotone = _nondecreasing(vals, fm.a)

    if gamma <= zero_tol(fm.a):
        b = None  # identically-zero map: f(b) > 0 has no witness
    elif monotone:
        b = fm.a
    elif alpha_star > 0.0:
        b = isoclinic_point(fm, scan=min(grid_size, 2048))
    else:
        b = None  # nonmonotone with no certified strict concavity

    return ConcavityCertificate(
        alpha_star=alpha_star, gamma=gamma, c=c, b=b,
        grid_size=grid_size, monotone=monotone,
    )


def left_derivative_limit(fm: FiberMap, x: float) -> float:
    """Backward quotient (f(x) - f(x-h)) / h at the step h = min(a/1e4, x/2) / 4^5.

    For concave maps the quotient is monotone in h, so a small step gives a
    tight estimate of the left derivative.  h is scaled by 1/4 five times,
    one rounding each; that equals one division by 4^5 except where h is
    subnormal.  x must lie in (0, a], and an x so small that h rounds to 0
    is refused.
    """
    if not (0.0 < x <= fm.a):
        raise DomainError(f"x must lie in (0, {fm.a!r}], got {x!r}")
    h = min(fm.a * _H0_FRACTION, x / 2.0) * 0.25 * 0.25 * 0.25 * 0.25 * 0.25
    if not (0.0 < h < x):
        raise DomainError(f"need 0 < h < x, got h = {h!r}, x = {x!r}")
    return (fm(x) - fm(x - h)) / h


def _bisect_last(pred: Callable, nodes: list, steps: int, tol: float = 0.0) -> float | None:
    """Bisect the bracket of the last node where ``pred`` holds, scanning from
    nodes[-2] leftwards (nodes[-1] only closes a bracket); None if none holds.

    Up to ``steps`` bisections stop once the width is at most ``tol``: with
    tol = 0, once the bracket can no longer move, so the float is unchanged.
    """
    i = next((i for i in reversed(range(len(nodes) - 1)) if pred(nodes[i])), None)
    if i is None:
        return None
    lo, hi = nodes[i], nodes[i + 1]
    for _ in range(steps):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def isoclinic_point(fm: FiberMap, scan: int = 2048) -> float:
    """Supremum of the points where |left derivative| < chord slope f(x)/x.

    Works by scanning the predicate on a coarse grid from the right and
    bisecting the first sign change it meets (`_bisect_last`, 60 steps to
    width ``_ISO_WIDTH * a``, relative to the fibre's width).  Returns a
    when the predicate holds at the right endpoint (in particular for
    nondecreasing maps).  Undefined for the zero map.
    """
    _check_grid_size(scan)
    a = fm.a
    xs = _grid(a, scan)[1:]
    f = functools.cache(fm)  # the scan reads each node's value from the grid pass
    vals = [f(x) for x in xs]
    if max(vals) <= zero_tol(a):
        raise PreconditionError("isoclinic point undefined: map is identically 0 on the scan grid")

    def pred(x: float) -> bool:
        fx = f(x)
        return fx > 0.0 and abs(left_derivative_limit(fm, x)) < fx / x - _ISO_TIE

    b = a if pred(a) else _bisect_last(pred, xs, 60, _ISO_WIDTH * a)
    # Exactly-linear initial segments defeat the strict predicate; the
    # monotone convention still applies.
    if b is None and not _nondecreasing(vals, a):
        raise PreconditionError(
            "isoclinic predicate never holds on the scan grid; "
            "map does not look strictly concave"
        )
    return a if b is None else b


def monotone_bound(alpha: float, y: float, fy: float) -> float:
    """The order-preserving bound f(y) / (f(y) + alpha*y^2) at the larger point y."""
    return fy / (fy + alpha * y * y)


def flip_bound(alpha: float, b: float, fb: float, x: float) -> float:
    """The order-flipping bound 1 - alpha*b*(b - x)/f(b) at the smaller point x."""
    return 1.0 - alpha * b * (b - x) / fb


def ratio_bound_monotone(
    fm: FiberMap, alpha: float, x: float, y: float
) -> RatioBound:
    """Contraction-ratio check when the image pair keeps its order.

    Returns (ratio, bound) with ratio = kappa(f(x), f(y)) / kappa(x, y) and
    bound = f(y) / (f(y) + alpha*y^2).  For a map that is alpha-concave on
    [0, y] the ratio never exceeds the bound.
    """
    check_number("alpha", alpha, "a nonnegative number", DomainError)
    if not (0.0 < x < y <= fm.a):
        raise PreconditionError(
            f"precondition 0 < x < y <= a failed: x = {x!r}, y = {y!r}, a = {fm.a!r}"
        )
    fx, fy = fm(x), fm(y)
    if not (0.0 < fx < fy):
        raise PreconditionError(
            f"precondition 0 < f(x) < f(y) failed: f(x) = {fx!r}, f(y) = {fy!r}"
        )
    return RatioBound(kappa(fx, fy) / kappa(x, y), monotone_bound(alpha, y, fy))


def ratio_bound_nonmonotone(
    fm: FiberMap, alpha: float, b: float, x: float, y: float
) -> RatioBound:
    """Contraction-ratio check when the image pair flips its order.

    Requires both points below the isoclinic point b and a strictly positive
    concavity level.  Returns (ratio, bound) with
    bound = 1 - alpha*b*(b - x)/f(b); the ratio is strictly below the bound.
    """
    check_number("alpha", alpha, "a positive number", PreconditionError)
    if not (0.0 < x < y):
        raise PreconditionError(
            f"precondition 0 < x < y failed: x = {x!r}, y = {y!r}"
        )
    if not (y < b):
        raise PreconditionError(
            f"precondition x, y < b failed: y = {y!r}, b = {b!r}"
        )
    fx, fy = fm(x), fm(y)
    if not (0.0 < fy < fx):
        raise PreconditionError(
            f"precondition 0 < f(y) < f(x) failed: f(x) = {fx!r}, f(y) = {fy!r}"
        )
    fb = fm(b)
    if fb <= 0.0:
        raise PreconditionError(f"precondition f(b) > 0 failed: f(b) = {fb!r}")
    return RatioBound(kappa(fx, fy) / kappa(x, y), flip_bound(alpha, b, fb, x))
