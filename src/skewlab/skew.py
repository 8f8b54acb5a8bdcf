"""Skew products: base dynamics driving a family of interval fiber maps."""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bases import CircleRotation, FiniteOrbitBase, SymbolicShift, _index
from .errors import DomainError, SkewlabError, check_at_least
from .fiber import FiberMap, certify, value_range, zero_tol

# Grid on which `classify` certifies each sampled fiber map.
CLASSIFY_GRID = 1024


class SkewSystem(NamedTuple):
    """F(theta, x) = (R(theta), psi_theta(x)) on base x [0, a].

    The fibres declare what is known of them.  `declared` reads the
    classification and beta off their maps' analytic data, and `classify`
    re-derives both from grid certification, so the two can be
    cross-checked.  They also choose how `orbits` walks: a `ProductFamily`
    over a circle steps as numpy arrays (`walks_arrays`), a `SymbolTable`
    over a shift on symbol streams (`walks_symbols`), anything else as
    lists.  Replacing ``fiber_at`` replaces every declaration.
    """

    base: object
    fiber_at: Callable[[object], FiberMap]
    a: float
    label: str = ""


class ProductFamily:
    """The fibres theta |-> ``fm.scaled(g(theta))`` of a product system, or
    fm itself without g: the ``fiber_at`` of `catalog.make_product` and of
    single-form configs.  ``fm.f`` and ``g`` each take a float or a numpy
    array: the family declares the array form of `orbits`, which
    `walks_arrays` reads, as a `SymbolTable` declares the symbol form.
    ``sup`` is the supremum of g (1.0 without g), for the range bound
    `declared` reads.
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
    callable drops it.  `orbits` reads both to walk words on their symbol
    streams (`walks_symbols`), reading such a graph off the same window.
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


# Values (starts x steps) that one block of the array form of `orbits`, and
# `attractor._reduce_arrays`, holds at once.
BLOCK_VALUES = 8192


def block_rows(count: int) -> int:
    """Steps in one block of the array walk of ``count`` starts: at least 1."""
    return max(1, BLOCK_VALUES // max(1, count))


def _check_fibers(xs, a: float) -> None:
    """Refuse the first fiber coordinate of xs outside [0, a], a NaN
    included: the one check of `orbits` and `step`.  A numpy array is
    accepted by its extremes (a NaN fails both comparisons) and searched
    only when that fails."""
    if not isinstance(xs, list):
        if not xs.size or (xs.min() >= 0.0 and xs.max() <= a):
            return
        bad = ~((xs >= 0.0) & (xs <= a))
        xs = [float(xs[bad.argmax()])] if bad.any() else []
    for x in xs:
        if not (0.0 <= x <= a):
            raise DomainError(f"fiber coordinate {x!r} outside [0, {a!r}]")


def step(sys: SkewSystem, point):
    """One application of the skew map to (base point, fiber coordinate)."""
    theta, x = point
    _check_fibers([x], sys.a)
    return (sys.base.step(theta), sys.fiber_at(theta)(x))


class _Shifted(Sequence):
    """The words ``w.advanced(n)`` for w in ``words``, each built when read."""

    __slots__ = ("words", "n")

    def __init__(self, words: list, n: int):
        self.words, self.n = words, n

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i):
        return self.words[i].advanced(self.n)


def orbits(
    sys: SkewSystem, thetas: Sequence, xs: Sequence[float] | None, steps: int, *graphs
) -> Iterator[tuple]:
    """Walk the forward orbits of many starts together, one step at a time.

    Yields (thetas_n, xs_n, *values_n) for n = 0..steps; values_n is each
    graph's `GraphFunction.values` at thetas_n.  Before each step every
    fiber coordinate is checked against [0, a] (`_check_fibers`, the check
    of `step`).  The fibres choose the batch form:

    - a system that `walks_arrays` steps numpy arrays a block of
      `block_rows` steps at a time, at most `BLOCK_VALUES` values: the
      block's base points fill one fresh array row by row, and the base
      factors and each grid graph's values are read off it in one call
      (a graph with no grid is read per step).  Each step then applies
      ``fm.f`` and its factor row, so every value is the one a step at a
      time gives, and a yielded array is never overwritten;
    - a system that `walks_symbols` reads each start's window of symbols
      once and steps the fiber coordinates by table lookup.  thetas_n builds
      each word ``w.advanced(n)`` only when read, and a graph whose ``func``
      is a `SymbolTable` with every value in [0, a] is read off the window;
    - any other system steps lists: one base step and one call of the fiber
      map's ``f`` per point, the values `step` makes.

    The symbol and list forms hold only the current step.

    With ``xs=None`` the base alone is walked, as lists, and xs_n is None.
    """
    check_at_least("steps", steps, 0)
    a = sys.a
    if xs is not None and walks_arrays(sys):
        import numpy as np

        family, omega = sys.fiber_at, sys.base.omega
        theta, xs = np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float)
        rows = block_rows(theta.size)
        # a non-finite start fails every grid read at step 0: the graphs are
        # then read per step, so they fail in their order
        blocked = bool(np.isfinite(theta).all())
        for n0 in range(0, steps + 1, rows):
            # ts[j]: the base points theta_{n0 + j}
            ts = np.empty((min(rows, steps + 1 - n0), *theta.shape))
            for j, row in enumerate(ts):
                if n0 + j:
                    np.remainder(np.add(theta, omega, out=row), 1.0, out=row)
                else:
                    row[...] = theta
                theta = row
            reads = [g.values(ts) if blocked and g.grid is not None else None
                     for g in graphs]
            factors = np.broadcast_to(family.factors(ts), ts.shape)
            for j, row in enumerate(ts):
                if n0 + j:
                    _check_fibers(xs, a)
                    xs = family.fm.f(xs) * factor  # the factor at theta_{n0 + j - 1}
                factor = factors[j]
                yield (row, xs, *[g.values(row) if r is None else r[j]
                                  for g, r in zip(graphs, reads)])
        return
    if xs is not None and walks_symbols(sys):
        fibers, words, xs = sys.fiber_at, list(thetas), list(xs)
        fs = tuple(fm.f for fm in fibers.values)
        # tables[i]: graph i's symbol table when it is read off the window
        tables = [g.func if isinstance(g.func, SymbolTable)
                  and all(lo <= v <= hi for v in g.func.values) else None
                  for g in graphs for lo, hi in [value_range(g.a)]]
        lo, hi = fibers.offset, fibers.offset + steps - 1
        for t in filter(None, tables):
            lo, hi = min(lo, t.offset), max(hi, t.offset + steps)
        # column k: every start's symbol lo + k
        columns = (list(zip(*[w.symbols(hi - lo + 1, lo) for w in words])) if words
                   else [()] * (hi - lo + 1))
        for n in range(steps + 1):
            if n:
                _check_fibers(xs, a)
                xs = [fs[s](x) for s, x in zip(columns[fibers.offset - lo + n - 1], xs)]
            thetas = _Shifted(words, n)
            yield (thetas, xs, *[g.values(thetas) if t is None
                                 else [t.values[s] for s in columns[t.offset - lo + n]]
                                 for g, t in zip(graphs, tables)])
        return
    base_step, fiber_at = sys.base.step, sys.fiber_at
    thetas, xs = list(thetas), None if xs is None else list(xs)
    for n in range(steps + 1):
        if n:
            if xs is not None:
                _check_fibers(xs, a)
                xs = [fiber_at(t).f(x) for t, x in zip(thetas, xs)]
            thetas = [base_step(t) for t in thetas]
        yield (thetas, xs, *[g.values(thetas) for g in graphs])


def walks_arrays(sys: SkewSystem) -> bool:
    """Whether `orbits` and the grid sweeps step sys as numpy arrays: a circle
    rotation whose ``fiber_at`` is a `ProductFamily`."""
    return isinstance(sys.base, CircleRotation) and isinstance(sys.fiber_at, ProductFamily)


def walks_symbols(sys: SkewSystem) -> bool:
    """Whether `orbits` steps sys on symbol streams: a `SymbolicShift` whose
    ``fiber_at`` is a `SymbolTable` that the shift's words can be read at.

    A one-sided word has no negative coordinates, so its fibres at a
    negative offset fail at their first read, which the list walk makes
    only after the step-0 graph reads: such a system walks as lists.
    """
    base, fibers = sys.base, sys.fiber_at
    return (
        isinstance(base, SymbolicShift)
        and isinstance(fibers, SymbolTable)
        and (fibers.offset >= 0 or base.sided == "two")
    )


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
    diagnostics: list[str]


def classify(sys: SkewSystem, sample_count: int) -> Classification:
    """Certify sampled fiber maps and derive the system's classification.

    The sample points are drawn by ``random.Random(0)``, so every run on a
    system certifies the same maps, each on CLASSIFY_GRID nodes.  beta is
    estimated as the minimum of alpha_star/gamma over the nonzero sampled
    maps.  The verdict is
    monotone-equiconcave when every sample is nondecreasing,
    isoclinic-equiconcave when instead every nonmonotone sample's range stays
    strictly below the isoclinic point of its successor map, and unclassified
    otherwise (with diagnostics, never an exception).
    """
    check_at_least("sample_count", sample_count, 1)
    diagnostics: list[str] = []
    betas: list[float] = []
    all_monotone = True
    range_ok = True
    # a map met again is not re-certified
    certified = functools.cache(lambda fm: certify(fm, CLASSIFY_GRID))
    tol = zero_tol(sys.a)

    for theta in sys.base.sample_points(sample_count, random.Random(0)):
        try:
            cert = certified(sys.fiber_at(theta))
        except SkewlabError as exc:
            diagnostics.append(f"certification failed at theta = {theta!s}: {exc}")
            return Classification("unclassified", None, diagnostics)
        if cert.gamma <= tol:
            diagnostics.append(f"zero map at theta = {theta!s} (0-concave)")
            continue
        if cert.alpha_star <= 0.0:
            diagnostics.append(
                f"no certified strict concavity at theta = {theta!s}"
            )
            return Classification("unclassified", None, diagnostics)
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
        return Classification("monotone-equiconcave", None, diagnostics)
    if all_monotone:
        kind = "monotone-equiconcave"
    elif range_ok:
        kind = "isoclinic-equiconcave"
    else:
        kind = "unclassified"
    return Classification(kind, beta, diagnostics)
