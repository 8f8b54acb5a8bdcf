"""Skew products: base dynamics driving a family of interval fiber maps."""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._numpy import np
from .bases import CircleRotation, SymbolicShift
from .errors import DomainError, SkewlabError, check_at_least
from .fiber import ZERO_TOL, ConcavityCertificate, FiberMap, certify, grid_max


class SkewSystem(NamedTuple):
    """F(theta, x) = (R(theta), psi_theta(x)) on base x [0, a].

    ``classification`` and ``beta`` are declarations (from the catalog or a
    config); `classify` re-derives them from grid certification so the two
    can be cross-checked.  ``product_parts``, when present, holds the (f, g)
    of a product family psi_theta(x) = f(x) * g(theta): the callables that
    ``fiber_at`` composes, each taking a float or a numpy array.  Grid sweeps
    and `orbits` apply them to every node at once, with the float operations
    of the one-point path; all contracts go through ``fiber_at``.
    """

    base: object
    fiber_at: Callable[[object], FiberMap]
    a: float
    classification: str = "unclassified"
    beta: float | None = None
    label: str = ""
    product_parts: tuple | None = None


class SymbolFibers:
    """A fibre family over a shift keyed by the word's leading symbol:
    word w gets ``maps[w.symbol(0)]``.

    It is the system's ``fiber_at`` itself, so the declaration that the
    fibre depends on symbol 0 alone goes wherever the contract goes, and
    replacing ``fiber_at`` drops it.  `advance` reads it to walk words on
    their symbol streams.
    """

    __slots__ = ("maps",)

    def __init__(self, maps: Iterable[FiberMap]):
        self.maps = tuple(maps)

    def __call__(self, word) -> FiberMap:
        return self.maps[word.symbol(0)]


def _outside(x: float, a: float) -> DomainError:
    return DomainError(f"fiber coordinate {x!r} outside [0, {a!r}]")


def step(sys: SkewSystem, point):
    """One application of the skew map to (base point, fiber coordinate)."""
    theta, x = point
    if not (0.0 <= x <= sys.a):
        raise _outside(x, sys.a)
    return (sys.base.step(theta), sys.fiber_at(theta)(x))


def orbit(sys: SkewSystem, point, steps: int) -> list:
    """The points (theta_0, x_0) .. (theta_steps, x_steps)."""
    pts = [point]
    for _ in range(steps):
        pts.append(step(sys, pts[-1]))
    return pts


def orbits(
    sys: SkewSystem, thetas: Sequence, xs: Sequence[float], steps: int
) -> Iterator[tuple]:
    """Walk the forward orbits of many starts together, one step at a time.

    Yields (thetas_n, xs_n) for n = 0..steps and holds only the current
    points.  A circle rotation with ``product_parts`` steps every start at
    once as numpy arrays; any other system yields lists, built per step by
    one base step and one call of the fiber map's ``f`` per point, the
    values `step` makes.
    Either way a fiber coordinate outside [0, a] raises DomainError before
    it is stepped.
    """
    if isinstance(sys.base, CircleRotation) and sys.product_parts is not None:
        f, g = sys.product_parts
        omega, a = sys.base.omega, sys.a
        thetas = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        yield thetas, xs
        for _ in range(steps):
            bad = ~((xs >= 0.0) & (xs <= a))
            if bad.any():
                raise _outside(float(xs[np.argmax(bad)]), a)
            xs = f(xs) * g(thetas)
            thetas = (thetas + omega) % 1.0
            yield thetas, xs
        return
    base_step, fiber_at, a = sys.base.step, sys.fiber_at, sys.a
    thetas, xs = list(thetas), list(xs)
    yield thetas, xs
    for _ in range(steps):
        for x in xs:
            if not (0.0 <= x <= a):
                raise _outside(x, a)
        stepped = [base_step(t) for t in thetas]
        xs = [fiber_at(t).f(x) for t, x in zip(thetas, xs)]
        thetas = stepped
        yield thetas, xs


def advance(sys: SkewSystem, thetas: Sequence, xs: Sequence[float], steps: int) -> tuple:
    """The last points that `orbits` yields, (thetas_steps, xs_steps).

    Over a `SymbolicShift` whose ``fiber_at`` is a `SymbolFibers`, each
    start's first ``steps`` symbols are read once, the fiber coordinates step
    together by table lookup with the checks and float operations of
    `orbits`, and each word is shifted ``steps`` times in one move.  Any
    other system runs `orbits` to its end.
    """
    fibers = sys.fiber_at
    if not (isinstance(fibers, SymbolFibers) and isinstance(sys.base, SymbolicShift)):
        for thetas, xs in orbits(sys, thetas, xs, steps):
            pass
        return thetas, xs
    fs, a = [fm.f for fm in fibers.maps], sys.a
    thetas, xs = list(thetas), list(xs)
    # column n: every start's symbol n
    for column in zip(*[w.symbols(steps) for w in thetas]):
        for x in xs:
            if not (0.0 <= x <= a):
                raise _outside(x, a)
        xs = [fs[s](x) for s, x in zip(column, xs)]
    return [w.advanced(steps) for w in thetas], xs


class Classification(NamedTuple):
    kind: str  # monotone-equiconcave | isoclinic-equiconcave | unclassified
    beta: float | None
    samples: int
    diagnostics: list[str]


def classify(
    sys: SkewSystem,
    sample_count: int,
    grid_size: int = 2048,
    rng: random.Random | None = None,
) -> Classification:
    """Certify sampled fiber maps and derive the system's classification.

    beta is estimated as the minimum of alpha_star/gamma over the nonzero
    sampled maps.  The verdict is monotone-equiconcave when every sample is
    nondecreasing, isoclinic-equiconcave when instead every nonmonotone
    sample's range stays strictly below the isoclinic point of its successor
    map, and unclassified otherwise (with diagnostics, never an exception).
    """
    check_at_least("sample_count", sample_count, 1)
    rng = rng or random.Random(0)
    thetas = sys.base.sample_points(sample_count, rng)
    diagnostics: list[str] = []
    betas: list[float] = []
    all_monotone = True
    range_ok = True
    certs: dict[FiberMap, ConcavityCertificate] = {}  # a map met again is not re-certified

    def certified(fm: FiberMap) -> ConcavityCertificate:
        if fm not in certs:
            certs[fm] = certify(fm, grid_size)
        return certs[fm]

    for theta in thetas:
        try:
            cert = certified(sys.fiber_at(theta))
        except SkewlabError as exc:
            diagnostics.append(f"certification failed at theta = {theta!s}: {exc}")
            return Classification("unclassified", None, len(thetas), diagnostics)
        if cert.gamma <= ZERO_TOL:
            diagnostics.append(f"zero map at theta = {theta!s} (0-concave)")
            continue
        if cert.alpha_star <= 0.0:
            diagnostics.append(
                f"no certified strict concavity at theta = {theta!s}"
            )
            return Classification("unclassified", None, len(thetas), diagnostics)
        betas.append(cert.alpha_star / cert.gamma)
        if not cert.monotone:
            all_monotone = False
            succ_cert = None
            try:
                succ_cert = certified(sys.fiber_at(sys.base.step(theta)))
            except SkewlabError as exc:
                diagnostics.append(
                    f"successor map at theta = {theta!s} not certifiable: {exc}"
                )
            if succ_cert is None or succ_cert.b is None:
                diagnostics.append(
                    f"isoclinic range condition unverifiable after theta = {theta!s}"
                )
                range_ok = False
            elif not (cert.gamma < succ_cert.b):
                diagnostics.append(
                    f"range condition fails at theta = {theta!s}: "
                    f"sup = {cert.gamma!r} >= b(successor) = {succ_cert.b!r}"
                )
                range_ok = False

    beta = min(betas) if betas else None
    if beta is None:
        diagnostics.append("all sampled maps vanish; concavity constant undefined")
        return Classification("monotone-equiconcave", None, len(thetas), diagnostics)
    if all_monotone:
        kind = "monotone-equiconcave"
    elif range_ok:
        kind = "isoclinic-equiconcave"
    else:
        kind = "unclassified"
    return Classification(kind, beta, len(thetas), diagnostics)


class PinchReport(NamedTuple):
    theta: str
    horizon: int
    zero_steps: list[int]
    verdict: str


def detect_pinching(
    sys: SkewSystem, theta, horizon: int, grid_size: int = 2048
) -> PinchReport:
    """List the orbit steps whose fiber map vanishes on the whole grid.

    An empty list never certifies the point as non-pinching: vanishing maps
    could appear past any finite horizon.
    """
    check_at_least("horizon", horizon, 1)
    zero_steps = []
    cur = theta
    for n in range(horizon + 1):
        if grid_max(sys.fiber_at(cur), grid_size) <= ZERO_TOL:
            zero_steps.append(n)
        cur = sys.base.step(cur)
    if zero_steps:
        verdict = f"zero fiber maps at steps {zero_steps[:16]} (showing first 16)"
    else:
        verdict = "no pinching observed within horizon"
    return PinchReport(
        theta=sys.base.format_point(theta),
        horizon=horizon,
        zero_steps=zero_steps,
        verdict=verdict,
    )
