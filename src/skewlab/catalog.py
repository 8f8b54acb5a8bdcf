"""Ready-made skew systems: the worked examples shipped with the package.

Each entry builds an immutable SkewSystem whose declared classification and
concavity constant can be re-derived with `skew.classify`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .bases import CircleRotation, FiniteOrbitBase, SymbolicShift
from .errors import DomainError, RegistryError
from .fiber import FiberMap
from .registry import build_base_function, build_fiber
from .skew import SkewSystem

if TYPE_CHECKING:
    from .attractor import GraphFunction

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0


def make_noinvattr(window: int = 64) -> SkewSystem:
    """Two fixed points and an absorbed heteroclinic chain on [-1, 1].

    Chain points 1 - 1/(n+1) for n >= 0 and -1 - 1/n for n < 0, truncated to
    |n| <= window with the last chain point absorbed into the fixed point 1.
    Fibers: x(2-x) where the base point is >= 0 and x(2-x)/4 where it is
    negative.  The truncation makes the base non-invertible at the absorbing
    endpoint; backward orbits remain exact along the represented chain.
    """
    if window < 1:
        raise DomainError("window must be >= 1")
    thetas = {}
    for n in range(0, window + 1):
        thetas[n] = 1.0 - 1.0 / (n + 1)
    for n in range(-window, 0):
        thetas[n] = -1.0 - 1.0 / n
    # The chain formulas give the same value 0.0 at indices -1 and 0; the two
    # indices collapse into one point, whose predecessors all stay negative.
    points = list(dict.fromkeys([-1.0, 1.0] + [thetas[n] for n in sorted(thetas)]))
    succ = {-1.0: -1.0, 1.0: 1.0}
    for n in sorted(thetas):
        succ[thetas[n]] = thetas[n + 1] if n + 1 in thetas else 1.0
    base = FiniteOrbitBase(points, succ)

    strong = build_fiber({"form": "logistic-scaled", "k": 1.0}, 1.0)
    weak = build_fiber({"form": "logistic-scaled", "k": 0.25}, 1.0)

    def fiber_at(theta: float) -> FiberMap:
        return strong if theta >= 0.0 else weak

    return SkewSystem(
        base=base, fiber_at=fiber_at, a=1.0,
        classification="monotone-equiconcave", beta=1.0,
        label=f"noinvattr(window={window})",
    )


def make_coinflip(sided: str = "one") -> SkewSystem:
    """Binary shift driving a two-point fiber: the new value is the leading bit.

    The fiber maps are constants, so they opt out of all concavity analysis;
    this system exists to exercise orbit and attractor verification only.
    """
    base = SymbolicShift(sided)
    fibers = tuple(
        FiberMap(a=1.0, f=lambda x, _v=bit: _v, form=f"const({bit!r})", analyzable=False)
        for bit in (0.0, 1.0)
    )

    def fiber_at(word) -> FiberMap:
        return fibers[word.symbol(0)]

    return SkewSystem(
        base=base, fiber_at=fiber_at, a=1.0,
        classification="unclassified", beta=None,
        label=f"coinflip-{sided}",
    )


def coinflip_attractor_graph() -> GraphFunction:
    """The canonical graph of the two-sided coin model: read the bit at -1."""
    from .attractor import GraphFunction

    return GraphFunction.from_callable(1.0, lambda w: float(w.symbol(-1)))


def make_keller(
    p_spec: dict | None = None,
    q_spec: dict | None = None,
    omega: float = GOLDEN_ROTATION,
) -> SkewSystem:
    """Irrational rotation driving product fibers p(x) * q(theta) on [0, 1].

    Defaults: p(x) = x(2-x) and q(theta) = c*(eps + (1-eps) sin^2(pi theta))
    with c = 1, eps = 0.5.  q is rescaled when sup(p)*sup(q) would leave the
    fiber interval.
    """
    if not (0.0 < omega < 1.0):
        raise DomainError("omega must lie in (0, 1)")
    p_spec = p_spec or {"form": "logistic-scaled", "k": 1.0}
    q_spec = q_spec or {"form": "sin-squared", "c": 1.0, "eps": 0.5}
    return make_product(p_spec, q_spec, CircleRotation(omega), label="keller")


def declared_classification(
    fm: FiberMap, sup_range: float | None
) -> tuple[str, float | None]:
    """(classification, beta) of a family of nonnegative multiples of fm.

    Read off fm's analytic data: beta = alpha/gamma is its scale-normalized
    concavity, and the family is monotone-equiconcave for monotone fm, or
    isoclinic-equiconcave when its range bound ``sup_range`` stays strictly
    below fm's isoclinic point b.  A map without a strictly positive alpha
    and gamma (a black-box map has neither) declares unclassified, no beta.
    """
    alpha, gamma = fm.alpha or 0.0, fm.gamma or 0.0
    if not (alpha > 0.0 and gamma > 0.0):
        return "unclassified", None
    beta = alpha / gamma
    if fm.monotone:
        return "monotone-equiconcave", beta
    if fm.b is not None and sup_range < fm.b:
        return "isoclinic-equiconcave", beta
    return "unclassified", beta


def make_product(
    f_spec: dict, g_spec: dict, base, a: float = 1.0, label: str = "product"
) -> SkewSystem:
    """General product family psi_theta(x) = f(x) * g(theta) over any base.

    g is normalized so that sup(f)*sup(g) <= a.  The family inherits f's
    scale-normalized concavity and f's isoclinic point; its declaration is
    `declared_classification` of f with range bound sup(f)*sup(g).
    """
    fm = build_fiber(f_spec, a)
    g, g_sup, g_label = build_base_function(g_spec)
    if fm.gamma is None:
        raise RegistryError(
            f"product fiber form {fm.form} lacks an analytic supremum"
        )
    scale = 1.0
    if fm.gamma * g_sup > a:
        scale = a / (fm.gamma * g_sup)

    def factor(theta):
        return scale * g(theta)

    # Consecutive calls with the same factor (a constant g) get the same
    # FiberMap, so per-map caches keyed by it hit; only the latest is kept.
    last = [None, None]

    def fiber_at(theta) -> FiberMap:
        c = factor(theta)
        if c != last[0]:
            last[:] = c, fm.scaled(c)
        return last[1]

    classification, beta = declared_classification(fm, fm.gamma * g_sup * scale)
    return SkewSystem(
        base=base, fiber_at=fiber_at, a=a,
        classification=classification, beta=beta,
        label=f"{label}[{fm.form} x {g_label}]",
        product_parts=(fm.f, factor),
    )


class CatalogEntry(NamedTuple):
    name: str
    build: Callable[..., SkewSystem]
    params: dict
    doc: str


CATALOG: dict[str, CatalogEntry] = {
    "noinvattr": CatalogEntry(
        "noinvattr", make_noinvattr, {"window": 64},
        "fixed points with an absorbed chain; strong map right, weak map left",
    ),
    "coinflip-one": CatalogEntry(
        "coinflip-one", lambda: make_coinflip("one"), {},
        "one-sided binary shift writing its leading bit into a two-point fiber",
    ),
    "coinflip-two": CatalogEntry(
        "coinflip-two", lambda: make_coinflip("two"), {},
        "two-sided binary shift; reading the bit at -1 gives an exact attractor",
    ),
    "keller": CatalogEntry(
        "keller", make_keller, {"omega": GOLDEN_ROTATION},
        "irrational rotation with product fibers p(x) q(theta)",
    ),
    "product-hump": CatalogEntry(
        "product-hump",
        lambda: make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 0.6},
            CircleRotation(GOLDEN_ROTATION),
            label="product-hump",
        ),
        {},
        "nonmonotone hump map scaled to land strictly below its isoclinic point",
    ),
}
