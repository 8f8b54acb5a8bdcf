"""Shared generators: random concave fiber maps with known analytic data.

Each generator returns a dict with the map and whatever is exactly known
about it (concavity level, supremum, isoclinic point), so tests can check
grid measurements against closed-form values and feed valid levels into the
ratio inequalities.
"""

import math
import random

import pytest
from hypothesis import settings

from skewlab.fiber import FiberMap

# Every run of the suite draws the same hypothesis examples, and none is stored.
settings.register_profile("skewlab", derandomize=True, database=None)
settings.load_profile("skewlab")


def monotone_concave(rng: random.Random) -> dict:
    """Strictly increasing, strictly concave map on [0,1] with exact alpha."""
    style = rng.randrange(3)
    if style == 0:
        c = rng.uniform(0.5, 1.0)
        k = rng.uniform(0.15, 1.0) / (2.0 - c)
        fm = FiberMap(
            1.0, lambda x, k=k, c=c: k * x * (2.0 - c * x),
            form=f"lin-quad(k={k:.3f},c={c:.3f})",
            gamma=k * (2.0 - c), alpha=k * c, b=1.0, monotone=True,
        )
        return {"fm": fm, "alpha": k * c, "gamma": k * (2.0 - c)}
    if style == 1:
        k = rng.uniform(0.1, 0.6)
        w = rng.uniform(0.05, min(0.3, 0.9 - k))
        fm = FiberMap(
            1.0,
            lambda x, k=k, w=w: k * x * (2.0 - x) + w * math.sqrt(x),
            form=f"quad+sqrt(k={k:.3f},w={w:.3f})",
        )
        return {"fm": fm, "alpha": k + w / 8.0, "gamma": k + w}
    k = rng.uniform(0.1, 0.6)
    w = rng.uniform(0.05, min(0.3, (0.9 - k) / math.tanh(3.0)))
    fm = FiberMap(
        1.0,
        lambda x, k=k, w=w: k * x * (2.0 - x) + w * math.tanh(3.0 * x),
        form=f"quad+tanh(k={k:.3f},w={w:.3f})",
    )
    # tanh curvature vanishes at 0, so the quadratic part sets the level
    return {"fm": fm, "alpha": k, "gamma": k + w * math.tanh(3.0)}


def hump(rng: random.Random, a: float = 1.0) -> dict:
    """Symmetric hump s*4u(1-u) on [0,a]: everything about it is exact."""
    s = rng.uniform(0.2, 0.95) * a
    fm = FiberMap(
        a,
        lambda x, s=s, a=a: 4.0 * s * (x / a) * (1.0 - x / a),
        form=f"hump(s={s:.3f},a={a:.3f})",
        gamma=s, alpha=4.0 * s / (a * a), b=2.0 * a / 3.0, monotone=False,
    )
    return {
        "fm": fm, "alpha": 4.0 * s / (a * a), "gamma": s,
        "b": 2.0 * a / 3.0, "c": a / 2.0,
    }


def bumpy_concave(rng: random.Random) -> dict:
    """Quadratic plus a sine ripple on [0,1]: strictly concave, alpha exact.

    The sine term's curvature vanishes at the endpoints, so the scaled
    quadratic coefficient is exactly the largest certifiable level.
    """
    a0 = rng.uniform(0.5, 1.5)
    bb = rng.uniform(1.0, 2.2)
    c0 = rng.uniform(0.0, 0.3 * a0)
    raw = lambda x, A=a0, B=bb, C=c0: A * x * (B - x) + C * math.sin(math.pi * x)
    m = max(raw(i / 512.0) for i in range(513))
    t = 0.9 / m
    fm = FiberMap(
        1.0, lambda x, f=raw, t=t: t * f(x),
        form=f"bumpy(A={a0:.3f},B={bb:.3f},C={c0:.3f})",
    )
    return {"fm": fm, "alpha": t * a0}


def admissible_increasing_pair(rng: random.Random, fm: FiberMap) -> tuple | None:
    """(x, y) with 0 < x < y <= a and 0 < f(x) < f(y), or None."""
    for _ in range(40):
        x, y = sorted((rng.uniform(1e-3, fm.a), rng.uniform(1e-3, fm.a)))
        if y - x < 1e-6:
            continue
        fx, fy = fm(x), fm(y)
        if 0.0 < fx < fy:
            return x, y
    return None


def admissible_flip_pair(rng: random.Random, fm: FiberMap, b: float) -> tuple | None:
    """(x, y) below b with x < y and 0 < f(y) < f(x), margins included."""
    lo, hi = 0.02 * fm.a, b - 0.02 * fm.a
    for _ in range(60):
        x, y = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if y - x < 5e-3 * fm.a:
            continue
        fx, fy = fm(x), fm(y)
        if 0.0 < fy < fx - 1e-9:
            return x, y
    return None


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
