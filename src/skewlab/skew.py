"""Skew products: base dynamics driving a family of interval fiber maps."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bases import CircleRotation
from .errors import DomainError, SkewlabError
from .fiber import ZERO_TOL, FiberMap, certify, grid_max
from .nonauto import MapSequence


@dataclass(frozen=True)
class SkewSystem:
    """F(theta, x) = (R(theta), psi_theta(x)) on base x [0, a].

    ``classification`` and ``beta`` are declarations (from the catalog or a
    config); `classify` re-derives them from grid certification so the two
    can be cross-checked.  ``product_parts``, when present, holds vectorized
    (f, g) callables for product families psi_theta(x) = f(x) * g(theta); they
    speed up grid sweeps and `orbits`, while all contracts go through ``fiber_at``.
    """

    base: object
    fiber_at: Callable[[object], FiberMap]
    a: float
    classification: str = "unclassified"
    beta: float | None = None
    label: str = ""
    product_parts: tuple | None = None

    def map_sequence(self, theta) -> MapSequence:
        """The fiber maps met along the forward orbit of theta, as a sequence."""
        orbit_cache = [theta]

        def supplier(n: int) -> FiberMap:
            while len(orbit_cache) < n:
                orbit_cache.append(self.base.step(orbit_cache[-1]))
            return self.fiber_at(orbit_cache[n - 1])

        return MapSequence(
            supplier=supplier,
            a=self.a,
            declared_beta=self.beta,
            classification=(
                "equiconcave" if self.classification.endswith("equiconcave") else "unknown"
            ),
        )


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
    once as numpy arrays; any other system steps each point through `step`
    and yields lists.  Either way a fiber coordinate outside [0, a] raises
    DomainError before it is stepped.
    """
    if isinstance(sys.base, CircleRotation) and sys.product_parts is not None:
        f_vec, g_vec = sys.product_parts
        omega, a = sys.base.omega, sys.a
        thetas = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        yield thetas, xs
        for _ in range(steps):
            bad = ~((xs >= 0.0) & (xs <= a))
            if bad.any():
                raise _outside(float(xs[np.argmax(bad)]), a)
            xs = f_vec(xs) * g_vec(thetas)
            thetas = (thetas + omega) % 1.0
            yield thetas, xs
        return
    thetas, xs = list(thetas), list(xs)
    yield thetas, xs
    for _ in range(steps):
        stepped = [step(sys, p) for p in zip(thetas, xs)]
        thetas = [theta for theta, _ in stepped]
        xs = [x for _, x in stepped]
        yield thetas, xs


@dataclass(frozen=True)
class Classification:
    kind: str  # monotone-equiconcave | isoclinic-equiconcave | unclassified
    beta: float | None
    samples: int
    diagnostics: list[str]

    def to_dict(self) -> dict:
        return self.__dict__.copy()


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
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    rng = rng or random.Random(0)
    thetas = sys.base.sample_points(sample_count, rng)
    diagnostics: list[str] = []
    betas: list[float] = []
    all_monotone = True
    range_ok = True

    for theta in thetas:
        fm = sys.fiber_at(theta)
        try:
            cert = certify(fm, grid_size)
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
                succ_cert = certify(sys.fiber_at(sys.base.step(theta)), grid_size)
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


@dataclass(frozen=True)
class PinchReport:
    theta: str
    horizon: int
    zero_steps: list[int]
    verdict: str

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def detect_pinching(
    sys: SkewSystem, theta, horizon: int, grid_size: int = 2048
) -> PinchReport:
    """List the orbit steps whose fiber map vanishes on the whole grid.

    An empty list never certifies the point as non-pinching: vanishing maps
    could appear past any finite horizon.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
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
