"""Closed-form fiber maps and base functions, addressable by name.

Every fiber form satisfies f(0) = 0 and keeps its range inside [0, a] for
the declared parameter domain (checked numerically at build time).  Where
the algebra allows — quadratics and the tanh form — the built map carries
exact supremum, concavity level, isoclinic point and monotonicity, so that
grid certification has an analytic cross-check.

Each fiber form and base function is one expression that takes a float or
a numpy array: polynomials through Horner's rule, and sin and tanh through
`math` for a number and numpy for an array, so a one-point call never loads
numpy.  Grid sweeps and batched orbits run these same callables, so they do
the float operations of the one-point path.
"""

from __future__ import annotations

import math
from typing import Callable

from ._numpy import np
from .errors import RegistryError
from .fiber import FiberMap

FIBER_FORMS = ("poly", "logistic-scaled", "quadratic-hump", "tanh-like")
BASE_FUNCTION_FORMS = ("constant", "sin-squared")

_VALIDATE_GRID = 257


def _elementwise(name: str) -> Callable:
    """`math`'s function ``name`` for a number, numpy's for an array."""
    scalar = getattr(math, name)

    def fn(x):
        if isinstance(x, (int, float)):
            return scalar(x)
        return getattr(np, name)(x)

    return fn


_sin, _tanh = _elementwise("sin"), _elementwise("tanh")


def _validate_range(fm: FiberMap) -> FiberMap:
    for i in range(_VALIDATE_GRID + 1):
        x = fm.a * i / _VALIDATE_GRID
        v = fm(x)
        if not (-1e-12 <= v <= fm.a + 1e-12):
            raise RegistryError(
                f"form {fm.form}: f({x!r}) = {v!r} leaves [0, {fm.a!r}]"
            )
    return fm


def _poly_metadata(c1: float, c2: float, a: float) -> dict:
    """Exact analysis of f(x) = c1*x + c2*x^2 on [0, a] (concave case only)."""
    if c2 > 0.0:
        return {}
    alpha = -c2
    monotone = c1 >= 0.0 and c1 + 2.0 * c2 * a >= -1e-15
    if alpha == 0.0:
        gamma = max(0.0, c1 * a)
        return {
            "alpha": 0.0,
            "monotone": monotone,
            "gamma": gamma,
            "b": None if gamma == 0.0 else (a if monotone else None),
        }
    root = c1 / alpha  # second zero of the parabola
    peak = root / 2.0
    gamma = (c1 * a + c2 * a * a) if peak >= a else (c1 * peak + c2 * peak * peak)
    b = min(a, 2.0 * root / 3.0)
    return {"alpha": alpha, "monotone": monotone, "gamma": max(0.0, gamma), "b": b}


def build_fiber(spec: dict, a: float) -> FiberMap:
    """Instantiate a registry fiber form on [0, a]."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise RegistryError(f"fiber spec must be a dict with a 'form' key, got {spec!r}")
    form = spec["form"]

    if form == "poly":
        coeffs = spec.get("coeffs")
        if not isinstance(coeffs, (list, tuple)) or not coeffs or not all(
            isinstance(c, (int, float)) for c in coeffs
        ):
            raise RegistryError("poly form needs a nonempty numeric 'coeffs' list")
        coeffs = [float(c) for c in coeffs]

        def f(x, _c=tuple(coeffs)):
            acc = 0.0
            for c in reversed(_c):
                acc = (acc + c) * x
            return acc

        meta = {}
        if len(coeffs) == 1:
            meta = _poly_metadata(coeffs[0], 0.0, a)
        elif len(coeffs) == 2:
            meta = _poly_metadata(coeffs[0], coeffs[1], a)
        label = "poly[{}]".format(",".join(repr(c) for c in coeffs))
        return _validate_range(FiberMap(a=a, f=f, form=label, **meta))

    if form == "logistic-scaled":
        k = spec.get("k")
        if not isinstance(k, (int, float)) or k < 0:
            raise RegistryError("logistic-scaled form needs nonnegative 'k'")
        k = float(k)
        fm = build_fiber({"form": "poly", "coeffs": [2.0 * k, -k]}, a)
        return fm._replace(form=f"logistic-scaled(k={k!r})")

    if form == "quadratic-hump":
        k = spec.get("k")
        if not isinstance(k, (int, float)) or k < 0:
            raise RegistryError("quadratic-hump form needs nonnegative 'k'")
        k = float(k)
        fm = build_fiber({"form": "poly", "coeffs": [k, -k]}, a)
        return fm._replace(form=f"quadratic-hump(k={k!r})")

    if form == "tanh-like":
        k, s = spec.get("k"), spec.get("s")
        for name, v in (("k", k), ("s", s)):
            if not isinstance(v, (int, float)) or v <= 0:
                raise RegistryError(f"tanh-like form needs positive {name!r}")
        k, s = float(k), float(s)

        def f(x, _k=k, _s=s):
            return _k * _tanh(_s * x)

        # Curvature vanishes at 0, so no strictly positive level certifies.
        return _validate_range(
            FiberMap(
                a=a, f=f, form=f"tanh-like(k={k!r},s={s!r})",
                gamma=k * math.tanh(s * a), alpha=0.0, b=a, monotone=True,
            )
        )

    raise RegistryError(f"unknown fiber form {form!r} (known: {FIBER_FORMS})")


def build_base_function(spec: dict) -> tuple[Callable, float, str]:
    """A named function theta -> [0, sup]: (g, sup, label)."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise RegistryError(
            f"base function spec must be a dict with a 'form' key, got {spec!r}"
        )
    form = spec["form"]
    if form == "constant":
        c = spec.get("c")
        if not isinstance(c, (int, float)) or c < 0:
            raise RegistryError("constant form needs nonnegative 'c'")
        c = float(c)
        return (lambda theta: c), c, f"constant({c!r})"
    if form == "sin-squared":
        c = spec.get("c", 1.0)
        eps = spec.get("eps", 0.0)
        if not isinstance(c, (int, float)) or c <= 0:
            raise RegistryError("sin-squared form needs positive 'c'")
        if not isinstance(eps, (int, float)) or not (0.0 <= eps <= 1.0):
            raise RegistryError("sin-squared form needs 'eps' in [0, 1]")
        c, eps = float(c), float(eps)

        def g(theta, _c=c, _e=eps):
            s = _sin(math.pi * theta)
            return _c * (_e + (1.0 - _e) * s * s)

        return g, c, f"sin-squared(c={c!r},eps={eps!r})"
    raise RegistryError(
        f"unknown base function form {form!r} (known: {BASE_FUNCTION_FORMS})"
    )
