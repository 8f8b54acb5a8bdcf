"""Closed-form fiber maps and base functions, addressable by name.

`FORMS` declares each form's parameters and their domains once.  Every fiber
form satisfies f(0) = 0 and keeps its range inside [0, a] for the declared
parameter domain (checked numerically at build time).  Where the algebra allows — quadratics
and the tanh form — the built map carries exact supremum, concavity level,
isoclinic point and monotonicity, so that grid certification has an analytic
cross-check.

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
from .errors import RegistryError, check_number
from .fiber import FiberMap

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


def _polynomial(a: float, coeffs: tuple, label: str | None = None) -> FiberMap:
    """f(x) = coeffs[0]*x + coeffs[1]*x^2 + ..., with exact data up to degree 2."""

    def f(x, _c=coeffs):
        acc = 0.0
        for c in reversed(_c):
            acc = (acc + c) * x
        return acc

    c1, c2 = (*coeffs, 0.0)[:2]
    meta = _poly_metadata(c1, c2, a) if len(coeffs) <= 2 else {}
    label = label or "poly[{}]".format(",".join(repr(c) for c in coeffs))
    return _validate_range(FiberMap(a=a, f=f, form=label, **meta))


def _tanh_like(a: float, k: float, s: float) -> FiberMap:
    def f(x, _k=k, _s=s):
        return _k * _tanh(_s * x)

    # Curvature vanishes at 0, so no strictly positive level certifies.
    return _validate_range(
        FiberMap(
            a=a, f=f, form=f"tanh-like(k={k!r},s={s!r})",
            gamma=k * math.tanh(s * a), alpha=0.0, b=a, monotone=True,
        )
    )


def _sin_squared(c: float, eps: float) -> tuple[Callable, float, str]:
    def g(theta, _c=c, _e=eps):
        s = _sin(math.pi * theta)
        return _c * (_e + (1.0 - _e) * s * s)

    return g, c, f"sin-squared(c={c!r},eps={eps!r})"


# Each closed form, by kind and name: its builder, which takes (a, *params) for a
# fiber form and (*params) for a base function, then its parameters as (name,
# domain of `errors.check_number`) with a default when it may be left out.
FORMS = {
    "fiber": {
        "poly": (_polynomial, ("coeffs", "a finite number")),  # a nonempty list of them
        "logistic-scaled": (
            lambda a, k: _polynomial(a, (2.0 * k, -k), f"logistic-scaled(k={k!r})"),
            ("k", "a nonnegative number"),
        ),
        "quadratic-hump": (
            lambda a, k: _polynomial(a, (k, -k), f"quadratic-hump(k={k!r})"),
            ("k", "a nonnegative number"),
        ),
        "tanh-like": (_tanh_like, ("k", "a positive number"), ("s", "a positive number")),
    },
    "base function": {
        "constant": (
            lambda c: ((lambda theta: c), c, f"constant({c!r})"), ("c", "a nonnegative number")
        ),
        "sin-squared": (
            _sin_squared, ("c", "a positive number", 1.0), ("eps", "a number in [0, 1]", 0.0)
        ),
    },
}


def check_spec(kind: str, spec, field: str | None = None) -> tuple[Callable, list]:
    """The builder of a ``kind`` spec's form, and its parameters checked, as floats.

    A bad spec raises RegistryError naming ``field``, a config's path to the
    spec, and the parameter, or else the form and the parameter.
    """
    known = tuple(FORMS[kind])
    form = spec.get("form") if isinstance(spec, dict) else None
    if form not in known:
        place = f"{kind} spec" if field is None else f"field {field}"
        if form is None:
            raise RegistryError(f"{place}: must be a {kind} form object, got {spec!r}")
        raise RegistryError(f"{place}: unknown {kind} form {form!r} (known: {known})")
    build, *params = FORMS[kind][form]
    values = []
    for name, domain, *default in params:
        where = f"form {form}, parameter {name}" if field is None else f"field {field}.{name}"
        v = spec.get(name, *default)
        if name != "coeffs":
            values.append(float(check_number(where, v, domain, RegistryError)))
        elif isinstance(v, (list, tuple)) and v:
            values.append(tuple(float(check_number(f"{where}[{i}]", c, domain, RegistryError))
                                for i, c in enumerate(v)))
        else:
            raise RegistryError(f"{where}: must be a nonempty list of numbers, got {v!r}")
    return build, values


def build_fiber(spec: dict, a: float) -> FiberMap:
    """Instantiate a registry fiber form on [0, a]."""
    build, values = check_spec("fiber", spec)
    return build(a, *values)


def build_base_function(spec: dict) -> tuple[Callable, float, str]:
    """A named function theta -> [0, sup]: (g, sup, label)."""
    build, values = check_spec("base function", spec)
    return build(*values)
