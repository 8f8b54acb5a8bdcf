"""Ready-made skew systems: the worked examples shipped with the package.

`CATALOG` maps each name to a zero-argument builder of an immutable
SkewSystem.  Its fibres declare its classification and concavity constant
(`skew.declared`), which `skew.classify` re-derives from the maps.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .bases import CircleRotation, FiniteOrbitBase, SymbolicShift
from .errors import RegistryError, check_at_least
from .fiber import FiberMap
from .registry import build_base_function, build_fiber
from .skew import ProductFamily, SkewSystem, SymbolTable

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
    check_at_least("window", window, 1)
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
        base=base, fiber_at=fiber_at, a=1.0, label=f"noinvattr(window={window})"
    )


def make_coinflip(sided: str = "one") -> SkewSystem:
    """Binary shift driving a two-point fiber: the new value is the leading bit.

    The fiber maps are constants, so the map 1 fails `certify`'s f(0) = 0
    check; this system exists to exercise orbit and attractor verification only.
    """
    base = SymbolicShift(sided)
    fiber_at = SymbolTable(
        0,
        (FiberMap(a=1.0, f=lambda x, _v=bit: _v, form=f"const({bit!r})") for bit in (0.0, 1.0)),
    )
    return SkewSystem(base=base, fiber_at=fiber_at, a=1.0, label=f"coinflip-{sided}")


def coinflip_attractor_graph() -> GraphFunction:
    """The canonical graph of the two-sided coin model: read the bit at -1."""
    from .attractor import GraphFunction

    return GraphFunction(1.0, func=SymbolTable(-1, (0.0, 1.0)))


def make_keller() -> SkewSystem:
    """The golden rotation driving product fibers p(x) * q(theta) on [0, 1].

    p(x) = x(2-x) and q(theta) = eps + (1-eps) sin^2(pi theta) with eps = 0.5;
    `make_product` builds other p, q and rotations.
    """
    return make_product(
        {"form": "logistic-scaled", "k": 1.0},
        {"form": "sin-squared", "c": 1.0, "eps": 0.5},
        CircleRotation(GOLDEN_ROTATION),
        label="keller",
    )


def make_product(
    f_spec: dict, g_spec: dict, base, a: float = 1.0, label: str = "product"
) -> SkewSystem:
    """General product family psi_theta(x) = f(x) * g(theta) over any base.

    g is normalized so that sup(f)*sup(g) <= a.  The family inherits f's
    scale-normalized concavity and f's isoclinic point: its `ProductFamily`
    holds the normalized sup(g), so `skew.declared` bounds its range by
    sup(f)*sup(g).
    """
    fm = build_fiber(f_spec, a)
    g, g_sup, g_label = build_base_function(g_spec)
    if fm.gamma is None:
        raise RegistryError(
            f"field fiber.f: product fiber form {fm.form} lacks an analytic supremum"
        )
    scale = 1.0
    if fm.gamma * g_sup > a:
        scale = a / (fm.gamma * g_sup)

    def factor(theta):
        return scale * g(theta)

    return SkewSystem(
        base=base, fiber_at=ProductFamily(fm, factor, g_sup * scale), a=a,
        label=f"{label}[{fm.form} x {g_label}]",
    )


CATALOG: dict[str, Callable[[], SkewSystem]] = {
    "noinvattr": make_noinvattr,
    "coinflip-one": lambda: make_coinflip("one"),
    "coinflip-two": lambda: make_coinflip("two"),
    "keller": make_keller,
    "product-hump": lambda: make_product(
        {"form": "quadratic-hump", "k": 4.0},
        {"form": "constant", "c": 0.6},
        CircleRotation(GOLDEN_ROTATION),
        label="product-hump",
    ),
}
