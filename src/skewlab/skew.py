"""Skew products: base dynamics driving a family of interval fiber maps."""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bases import CircleRotation, FiniteOrbitBase, SymbolicShift, _index
from .errors import DomainError, SkewlabError, check_at_least
from .fiber import ZERO_TOL, FiberMap, certify


class SkewSystem(NamedTuple):
    """F(theta, x) = (R(theta), psi_theta(x)) on base x [0, a].

    The fibres declare what is known of them.  `declared` reads the
    classification and beta off their maps' analytic data, and `classify`
    re-derives both from grid certification, so the two can be
    cross-checked.  A `ProductFamily` over a circle also steps as numpy
    arrays (`walks_arrays`), a `SymbolTable` over a shift on symbol streams
    (`walks_symbols`).  Replacing ``fiber_at`` replaces every declaration.
    """

    base: object
    fiber_at: Callable[[object], FiberMap]
    a: float
    label: str = ""


class ProductFamily:
    """The fibres theta |-> ``fm.scaled(g(theta))`` of a product system, or
    fm itself without g: the ``fiber_at`` of `catalog.make_product` and of
    single-form configs.  ``fm.f`` and ``g`` each take a float or a numpy
    array: the family declares its batch form, which `walks_arrays` reads,
    as a `SymbolTable` declares its symbol walk.  ``sup`` is the supremum
    of g (1.0 without g), for the range bound `declared` reads.
    """

    __slots__ = ("fm", "g", "sup", "_last")

    def __init__(self, fm: FiberMap, g: Callable | None = None, sup: float = 1.0):
        # Consecutive calls with the same factor (a constant g) get the same
        # FiberMap, so per-map caches keyed by it hit; only the latest is kept.
        self.fm, self.g, self.sup, self._last = fm, g, sup, (None, fm)

    def __call__(self, theta) -> FiberMap:
        if self.g is None:
            return self.fm
        c = self.g(theta)
        if c != self._last[0]:
            self._last = c, self.fm.scaled(c)
        return self._last[1]

    def factors(self, thetas):
        """g at every point of the array ``thetas`` (1.0 without g), the batch factor."""
        return 1.0 if self.g is None else self.g(thetas)


class SymbolTable:
    """A function of a shift word through one coordinate:
    w |-> ``values[w.symbol(offset)]``, one value per symbol 0 and 1.

    As a system's ``fiber_at`` (offset 0 in `coinflip-one/two`) it declares
    the fibre map a symbol selects; as a graph's ``func`` (offset -1 in
    `catalog.coinflip_attractor_graph`) it declares a graph value the same
    way.  The declaration goes wherever the callable goes, and replacing the
    callable drops it.  `advance` and `attractor.verify_attractor` read it
    to walk words on their symbol streams (`symbol_walk`).
    """

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: Iterable):
        self.offset = _index(offset)
        self.values = tuple(values)
        if len(self.values) != 2:
            raise DomainError(
                f"a symbol table needs one value per symbol 0 and 1, got {len(self.values)}"
            )

    def __call__(self, word):
        return self.values[word.symbol(self.offset)]


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
    points.  A system that `walks_arrays` steps every start at once as
    numpy arrays; any other system yields lists, built per step by one base
    step and one call of the fiber map's ``f`` per point, the values `step`
    makes.
    Either way a fiber coordinate outside [0, a] raises DomainError before
    it is stepped.
    """
    if walks_arrays(sys):
        import numpy as np

        family, omega, a = sys.fiber_at, sys.base.omega, sys.a
        thetas = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        yield thetas, xs
        for _ in range(steps):
            bad = ~((xs >= 0.0) & (xs <= a))
            if bad.any():
                raise _outside(float(xs[np.argmax(bad)]), a)
            xs = family.fm.f(xs) * family.factors(thetas)
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


def walks_arrays(sys: SkewSystem) -> bool:
    """Whether `orbits` and the grid sweeps step sys as numpy arrays: a circle
    rotation whose ``fiber_at`` is a `ProductFamily`."""
    return isinstance(sys.base, CircleRotation) and isinstance(sys.fiber_at, ProductFamily)


def walks_symbols(sys: SkewSystem) -> bool:
    """Whether `symbol_walk` walks sys: a `SymbolicShift` whose ``fiber_at``
    is a `SymbolTable` that the shift's words can be read at.

    A one-sided word has no negative coordinates, so its fibres at a
    negative offset fail at their first read, which `orbits` makes only
    after the step-0 checks: such a system walks through `orbits`.
    """
    base, fibers = sys.base, sys.fiber_at
    return (
        isinstance(base, SymbolicShift)
        and isinstance(fibers, SymbolTable)
        and (fibers.offset >= 0 or base.sided == "two")
    )


def symbol_walk(
    sys: SkewSystem,
    words: Sequence,
    xs: Sequence[float],
    steps: int,
    graph: SymbolTable | None = None,
) -> Iterator[tuple]:
    """The fiber coordinates of `orbits` over a system that `walks_symbols`.

    Yields (xs_n, values_n) for n = 0..steps: values_n lists ``graph`` at
    each start shifted n times, or is None without a graph.  Each start's
    window of symbols, from the lowest position that the fibres or the graph
    read to the highest, is read once; the fiber coordinates step together by
    table lookup, with the [0, a] check and the float operations of `orbits`.
    No word is built.
    """
    fibers, a = sys.fiber_at, sys.a
    fs = tuple(fm.f for fm in fibers.values)
    lo, hi = fibers.offset, fibers.offset + steps - 1
    if graph is not None:
        lo, hi = min(lo, graph.offset), max(hi, graph.offset + steps)
    width = hi - lo + 1
    # column k: every start's symbol lo + k
    columns = list(zip(*[w.symbols(width, lo) for w in words])) if words else [()] * width
    if graph is None:
        values = itertools.repeat(None)
    else:
        table = graph.values
        values = ([table[s] for s in column] for column in columns[graph.offset - lo:])
    xs = list(xs)
    yield xs, next(values)
    for column in columns[fibers.offset - lo:][:steps]:
        for x in xs:
            if not (0.0 <= x <= a):
                raise _outside(x, a)
        xs = [fs[s](x) for s, x in zip(column, xs)]
        yield xs, next(values)


def advance(sys: SkewSystem, thetas: Sequence, xs: Sequence[float], steps: int) -> tuple:
    """The last points that `orbits` yields, (thetas_steps, xs_steps).

    A system that `walks_symbols` steps its fiber coordinates through
    `symbol_walk` and shifts each word ``steps`` times in one move.  Any
    other system runs `orbits` to its end.
    """
    if not walks_symbols(sys):
        for thetas, xs in orbits(sys, thetas, xs, steps):
            pass
        return thetas, xs
    for xs, _ in symbol_walk(sys, thetas, xs, steps):
        pass
    return [w.advanced(steps) for w in thetas], xs


def declared(sys: SkewSystem) -> tuple[str, float | None]:
    """(classification, beta) read off the analytic data of sys's fibre maps:
    a `ProductFamily`'s form, with range bound gamma * ``sup``, a
    `SymbolTable`'s values, or the maps at a finite base's points, with range
    bound their largest gamma.  Any other callable declares nothing.  beta is
    the least alpha/gamma; the family is monotone-equiconcave when every map
    is monotone, or isoclinic-equiconcave when the range bound stays strictly
    below every map's isoclinic point b.  A map without a strictly positive
    alpha and gamma (a black-box map has neither) declares unclassified.
    """
    fibers, sup = sys.fiber_at, 1.0
    if isinstance(fibers, ProductFamily):
        maps, sup = (fibers.fm,), fibers.sup
    elif isinstance(fibers, SymbolTable):
        maps = fibers.values
    elif isinstance(sys.base, FiniteOrbitBase):
        maps = [fibers(p) for p in sys.base.points]
    else:
        return "unclassified", None
    if not all((fm.alpha or 0.0) > 0.0 and (fm.gamma or 0.0) > 0.0 for fm in maps):
        return "unclassified", None
    beta = min(fm.alpha / fm.gamma for fm in maps)
    if all(fm.monotone for fm in maps):
        return "monotone-equiconcave", beta
    bound = max(fm.gamma for fm in maps) * sup
    if all(fm.b is not None and bound < fm.b for fm in maps):
        return "isoclinic-equiconcave", beta
    return "unclassified", beta


class Classification(NamedTuple):
    kind: str  # monotone-equiconcave | isoclinic-equiconcave | unclassified
    beta: float | None
    samples: int
    diagnostics: list[str]


def classify(
    sys: SkewSystem,
    sample_count: int,
    grid_size: int = 2048,
) -> Classification:
    """Certify sampled fiber maps and derive the system's classification.

    The sample points are drawn by ``random.Random(0)``, so every run on a
    system certifies the same maps.  beta is estimated as the minimum of
    alpha_star/gamma over the nonzero sampled maps.  The verdict is
    monotone-equiconcave when every sample is nondecreasing,
    isoclinic-equiconcave when instead every nonmonotone sample's range stays
    strictly below the isoclinic point of its successor map, and unclassified
    otherwise (with diagnostics, never an exception).
    """
    check_at_least("sample_count", sample_count, 1)
    thetas = sys.base.sample_points(sample_count, random.Random(0))
    diagnostics: list[str] = []
    betas: list[float] = []
    all_monotone = True
    range_ok = True
    # a map met again is not re-certified
    certified = functools.cache(lambda fm: certify(fm, grid_size))

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
