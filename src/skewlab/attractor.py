"""Attractor graphs: construction, pullback, and verification.

A candidate attractor is a function from the base to [0, a], represented as
an orbit-keyed table, a dense grid over the circle, or a plain callable.
This module builds preinvariant graphs orbit by orbit, computes pullback
limits along backward orbits (pointwise and on circle grids), and verifies
attraction, preinvariance, and pairwise agreement of candidate graphs.
"""

from __future__ import annotations

import csv
import functools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .bases import CircleRotation
from .errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
    check_at_least,
    check_number,
)
from .fiber import FiberMap, _bisect_last, _grid, grid_max, value_range, zero_tol
# step is unused here; perfbench's tracer test looks it up as attractor.step.
from .skew import SkewSystem, block_rows, orbits, step, walks_arrays  # noqa: F401

GRAPH_COLUMNS = ("point", "value")
# Times the fibre width a: the change below which a pullback stops (`_settled`).
PULLBACK_STOP_DELTA = 1e-12
# Times a: graph values above it count as positive, fixed points below it as 0.
POSITIVE_THRESHOLD = 1e-9
# Scan nodes of largest_fixed_point before its bisection.
FIXED_POINT_SCAN = 4096
# Grid nodes on which build_preinvariant tests a fiber map for vanishing.
ZERO_SCAN = 512


class GraphFunction:
    """A candidate attractor graph phi: base -> [0, a].

    Exactly one representation is active: ``table`` (orbit-keyed), ``grid``
    (dense nodes j/m over [0,1), nearest-node lookup), or ``func``.  A table
    graph answers on its points only: evaluation anywhere else raises a
    coverage error naming the point.
    """

    def __init__(
        self,
        a: float,
        table: dict | None = None,
        grid: Sequence[float] | None = None,
        func: Callable | None = None,
    ):
        reps = sum(x is not None for x in (table, grid, func))
        if reps != 1:
            raise DomainError("exactly one of table/grid/func must be given")
        self.a, self._range = a, value_range(a)  # every stored value is checked against it
        self.table = dict(table) if table is not None else None
        self.grid = None
        self.func = func
        if self.table is not None:
            if not self.table:
                raise DomainError("table representation must hold at least one point")
            for k, v in self.table.items():
                self._check_value(v, k)
        if grid is not None:
            import numpy as np

            self.grid = np.asarray(grid, dtype=float)
            if self.grid.ndim != 1 or len(self.grid) < 1:
                raise DomainError("grid representation must be a 1-d array")
            lo, hi = self._range
            # written so that a NaN, which compares False, fails the check
            if not (self.grid.min() >= lo and self.grid.max() <= hi):
                j = int(np.argmin((self.grid >= lo) & (self.grid <= hi)))
                self._check_value(float(self.grid[j]), j / len(self.grid))

    def _check_value(self, v: float, where) -> float:
        lo, hi = self._range
        if not (lo <= v <= hi):
            raise InvariantError(f"graph value {v!r} at {where!s} leaves [0, {self.a!r}]")
        return v

    def value(self, theta) -> float:
        return float(self.values((theta,))[0])

    def values(self, thetas: Sequence) -> Sequence[float]:
        """The graph at every point: a grid reads each point's nearest node,
        all at once into an array; a table or callable graph gives a list."""
        if self.grid is not None:
            import numpy as np

            m = len(self.grid)
            ts = np.asarray(thetas, dtype=float)
            finite = np.isfinite(ts)
            if not finite.all():
                raise _not_finite(float(ts[~finite][0]))
            # the nearest node; np.rint rounds ties to even
            return self.grid[np.rint((ts % 1.0) * m).astype(int) % m]
        if self.func is not None:
            func, check = self.func, self._check_value
            lo, hi = self._range
            # check raises: it is called only for a value outside [lo, hi]
            return [v if lo <= (v := func(t)) <= hi else check(v, t) for t in thetas]
        table = self.table
        try:
            return [table[t] for t in thetas]
        except KeyError:
            missing = next(t for t in thetas if t not in table)
            raise CoverageError(f"graph not defined at base point {missing!s}") from None

    def to_csv(self, stream, base) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(GRAPH_COLUMNS)
        if self.grid is not None:
            m = len(self.grid)
            # A float's repr never needs CSV quoting, so each row is plain text.
            stream.writelines(
                f"{j / m!r},{v!r}\n" for j, v in enumerate(self.grid.tolist())
            )
            return
        if self.table is not None:
            rows = sorted((base.format_point(k), repr(v)) for k, v in self.table.items())
            writer.writerows(rows)
            return
        raise CapabilityError("callable graphs have no CSV serialization")

    @classmethod
    def from_csv(cls, stream, base, a):
        """Read a graph written by `to_csv`: a header, then (point, value) rows.

        Over a circle base the m rows must name each node j/m of a uniform
        m-grid (to 1e-9); over any other base each row's point is parsed by
        the base.  Either way a CSV names each point once: a second row for
        a node or point is refused with the line that set it first.
        """
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or tuple(header) != GRAPH_COLUMNS:
            raise ConfigError(f"graph CSV must start with header {GRAPH_COLUMNS}")
        rows = []
        for row in reader:
            line = reader.line_num
            if len(row) != 2:
                raise ConfigError(
                    f"graph CSV line {line}: {len(row)} cells, expected 2 "
                    f"(point, value): {row!r}"
                )
            rows.append((line, row[0], _csv_number(row[1], line, "value")))
        if not rows:
            raise ConfigError("graph CSV has a header but no rows")
        grid = isinstance(base, CircleRotation)
        m = len(rows)
        values: dict = {}  # node index or point -> value
        lines: dict = {}  # node index or point -> line that set it
        for line, k, v in rows:
            if grid:
                theta = _csv_number(k, line, "point")
                key = int(round(theta * m)) if math.isfinite(theta) else -1
                if not 0 <= key < m or abs(theta - key / m) > 1e-9:
                    raise ConfigError(
                        f"grid CSV line {line}: point {k!r} is not a node of a "
                        f"uniform {m}-grid"
                    )
            else:
                key = base.parse_point(k)
            if key in lines:
                kind, what = ("grid", "node") if grid else ("graph", "point")
                raise ConfigError(
                    f"{kind} CSV line {line}: point {k!r} repeats the {what} of "
                    f"line {lines[key]}"
                )
            lines[key] = line
            values[key] = v
        if grid:  # m rows and no node twice: every node is set
            return cls(a, grid=[values[j] for j in range(m)])
        return cls(a, table=values)


def _not_finite(theta: float) -> DomainError:
    return DomainError(f"grid graph lookup needs a finite point, got {theta!r}")


def _csv_number(cell: str, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ConfigError(
            f"graph CSV line {line}: {column} {cell!r} is not a number"
        ) from None


def positive_fraction(graph: GraphFunction) -> float:
    """Fraction of stored graph values above POSITIVE_THRESHOLD * a."""
    threshold = POSITIVE_THRESHOLD * graph.a
    if graph.grid is not None:
        return float((graph.grid > threshold).mean())
    if graph.table is not None:
        vals = list(graph.table.values())
        return sum(v > threshold for v in vals) / len(vals)
    raise DomainError("positive fraction needs a stored representation")


def largest_fixed_point(g: FiberMap) -> float:
    """Largest solution of g(x) = x on [0, a], by downward scan and bisection.

    Returns a when g(a) = a (to `fiber.zero_tol`), and refuses a map with
    g(a) > a, which leaves [0, a].  Otherwise scans g(x) - x at the nodes
    a*j/FIXED_POINT_SCAN, j = 0..FIXED_POINT_SCAN, from the right: the first
    node where g(x) >= x and its right neighbour bracket the largest fixed
    point, and `fiber._bisect_last` closes the bracket to rounding in at most
    80 steps.  The bracket needs neither monotonicity nor a contraction, so
    this serves every cycle composition, and a neutral fixed point
    (g'(x) = 1) costs no more than an attracting one.  Roots below
    POSITIVE_THRESHOLD * a are snapped to 0; with no node where g(x) >= x
    the result is 0.
    """
    a = g.a
    ga = g(a)
    if abs(ga - a) <= zero_tol(a):
        return a
    if ga > a:
        raise InvariantError(f"f({a!r}) = {ga!r} leaves [0, {a!r}] (map {g.form})")
    x = _bisect_last(lambda x: g(x) - x >= 0.0, _grid(a, FIXED_POINT_SCAN), 80)
    return 0.0 if x is None or x < POSITIVE_THRESHOLD * a else x


def build_preinvariant(
    sys: SkewSystem,
    points: Sequence | None = None,
) -> GraphFunction:
    """Construct a preinvariant graph orbit class by orbit class.

    Each class is walked by `orbits` over at most max(64, 4 x the point
    count) points, and stops where it joins an already-assigned class, whose
    values it keeps, or closes a cycle.  Every point of the walk is first set
    to 0 if it pins orbits at 0 (it contains a fiber map that vanishes on the
    ZERO_SCAN grid, in a family whose maps all fix 0, so the zero
    propagates), and to a otherwise.  Then an unpinned walk that did not join
    overwrites either its cycle or its open chain.  A cycle anchors at the
    largest fixed point of its composed fiber map, which `largest_fixed_point`
    brackets whether or not the maps are monotone, and is pushed forward
    around the cycle.  A walk that never closes (no cycle within the walk
    limit) takes the forward images of (theta_0, a).  The graph answers on
    the points of its walks only: anywhere else it raises a coverage error
    naming the point.
    """
    pts = list(points) if points is not None else list(getattr(sys.base, "points", ()))
    if not pts:
        if points is not None:
            raise DomainError("build_preinvariant needs at least one point")
        raise CapabilityError("build_preinvariant needs an enumerable point set for this base")
    limit = max(64, 4 * len(pts))
    table: dict = {}
    # Keyed by the fiber map, so each distinct map is scanned once.
    is_zero = functools.cache(lambda fm: grid_max(fm, ZERO_SCAN) <= zero_tol(fm.a))
    fixes_zero = functools.cache(lambda fm: abs(fm(0.0)) <= zero_tol(fm.a))

    for p in pts:
        if p in table:
            continue
        # place: each path point's index, to find where a cycle starts
        path, place, joined, cycle = [], {}, False, None
        for (t,), _ in orbits(sys, [p], None, limit - 1):
            if t in table:
                joined = True
                break
            if t in place:
                cycle = path[place[t]:]
                break
            place[t] = len(path)
            path.append(t)

        pinned = (any(is_zero(sys.fiber_at(t)) for t in path)
                  and all(fixes_zero(sys.fiber_at(t)) for t in path))
        fill = 0.0 if pinned else sys.a
        for t in path:
            table[t] = fill
        if pinned or joined:
            continue
        if cycle is not None:
            k = len(cycle)
            maps = [sys.fiber_at(t) for t in cycle]

            def comp(x, _maps=tuple(maps)):
                for fm in _maps:
                    x = fm(x)
                return x

            g = FiberMap(a=sys.a, f=comp, form=f"cycle-composition(k={k})")
            v = largest_fixed_point(g)
            table[cycle[0]] = v
            for j in range(1, k):
                v = maps[j - 1](v)
                table[cycle[j]] = v
            continue
        # open chain: path[0] keeps a, and the later points take its forward images
        v = sys.a
        for prev, t in zip(path, path[1:]):
            v = sys.fiber_at(prev)(v)
            table[t] = v

    return GraphFunction(sys.a, table=table)


class PullbackSequence(NamedTuple):
    """phi_n(theta) for n = 1..depth_used along the backward orbit of theta."""

    values: list[float]
    delta: float
    truncated: bool
    a: float

    @property
    def depth_used(self) -> int:
        return len(self.values)

    def nonincreasing(self) -> bool:
        """No value rises over the one before it by more than ``zero_tol(a)``."""
        slack = zero_tol(self.a)
        return all(w <= v + slack for v, w in zip(self.values, self.values[1:]))


def _settled(n: int, delta: float, early_stop: bool, a: float) -> bool:
    """The stop rule of every pullback: n >= 2 and ``delta`` < PULLBACK_STOP_DELTA * a.

    delta is the largest change |phi_n - phi_{n-1}|, with phi_0 = a, at the
    point of a `pullback_phi` query or over the nodes a sweep moved.
    ``early_stop`` False turns the rule off, and a NaN delta never stops.
    """
    return early_stop and n >= 2 and delta < PULLBACK_STOP_DELTA * a


def _sweeps(sys: SkewSystem, nodes: Sequence, pred: Sequence) -> Iterator[tuple]:
    """(phi_n, moved_n, delta_n, rise_n) for n = 1, 2, ...: one backward step each.

    phi_n(node) = psi_p(phi_{n-1}(p)) for p = nodes[pred[node]], and phi_0 = a.
    The node sets are a circle grid, where ``pred`` is an index permutation,
    and a finite base, where ``pred[i] = -1`` ends node i's backward orbit.
    moved_n holds the indices sweep n moves: those with a predecessor, then
    those whose predecessor moved in sweep n - 1; every other node keeps its
    value.  delta_n and rise_n are the largest |change| and the largest change
    over moved_n, NaN when a change is NaN.  A `walks_arrays` system sweeps
    as numpy arrays and moves every node; any other system holds phi_n as a
    list, applies each moving node's predecessor map through ``fiber_at``,
    so it never loads numpy, and ends when no node moves.
    """
    a = float(sys.a)
    if walks_arrays(sys):
        import numpy as np

        family, pred_idx = sys.fiber_at, np.asarray(pred, dtype=int)
        f, g_pred = family.fm.f, family.factors(np.asarray(nodes, dtype=float)[pred_idx])
        every = range(len(nodes))
        vals = np.full(len(nodes), a)
        while True:
            new = f(vals[pred_idx]) * g_pred
            diff, vals = new - vals, new
            yield vals, every, float(np.max(np.abs(diff))), float(np.max(diff))
    maps = [sys.fiber_at(nodes[p]) if p >= 0 else None for p in pred]
    # A sweep walks only the moving indices: the noinvattr chain keeps one of
    # its 130 nodes moving through all sweeps of a depth-1000 pullback.
    moved = [i for i, p in enumerate(pred) if p >= 0]
    vals = [a] * len(nodes)
    while moved:
        new = vals.copy()
        for i in moved:
            # float() stores what an array of floats would
            new[i] = float(maps[i](vals[pred[i]]))
        diff, vals = [new[i] - vals[i] for i in moved], new
        if any(map(math.isnan, diff)):  # unlike numpy's, Python's max can skip a NaN
            yield vals, moved, math.nan, math.nan
        else:
            yield vals, moved, max(map(abs, diff)), max(diff)
        was = set(moved)
        moved = [i for i in moved if pred[i] in was]


def _pull_back(
    sys: SkewSystem, nodes: Sequence, pred: Sequence, depth: int, early_stop: bool
) -> tuple:
    """Sweep a node set until `_settled` stops it, no node moves, or ``depth``.

    Returns (phi, stopped, sweeps, delta, max_increase): the last values; the
    last sweep that moved each node that stopped moving before the last
    sweep, every other node having moved in all ``sweeps``; the last sweep's
    delta; and the largest rise of any node over any sweep (0 when none rises).
    """
    check_at_least("depth", depth, 1)
    phi, sweeps, delta, max_increase = [float(sys.a)] * len(nodes), 0, math.nan, 0.0
    moving, stopped = range(len(nodes)), {}
    for sweeps, (phi, moved, delta, rise) in zip(range(1, depth + 1), _sweeps(sys, nodes, pred)):
        if len(moved) < len(moving):  # the nodes left behind last moved in the sweep before
            stopped.update(dict.fromkeys(set(moving).difference(moved), sweeps - 1))
        moving = moved
        # a NaN rise compares False, so max keeps the running value
        max_increase = max(max_increase, rise)
        if _settled(sweeps, delta, early_stop, sys.a):
            break
    return phi, stopped, sweeps, delta, max_increase


def pullback_phi(
    sys: SkewSystem,
    theta,
    depth: int,
    early_stop: bool = True,
) -> PullbackSequence:
    """Fiber images of the top endpoint transported along the backward orbit.

    phi_n(theta) applies, to the endpoint a, the fiber maps met from the n-th
    preimage of theta forward to theta.  For monotone fiber families the
    sequence is nonincreasing; iteration stops early by the rule of
    `_settled`, or where the backward orbit ends at a point with no unique
    predecessor, which sets ``truncated``.  A theta with no unique
    predecessor raises.

    Each preimage is read, and its fiber map built, when the composition
    first reaches it, so a query that stops early walks no further back; phi_n
    applies the k maps built so far to phi_{n-k}: n^2/2 calls up to the
    stopping depth n.  An orbit that closes after p steps ends at theta
    itself, so past it phi_n applies the period to phi_{n-p}: about n*p
    calls, with the float operations of composing all n maps, in order.
    """
    check_at_least("depth", depth, 1)
    if not hasattr(sys.base, "predecessor"):
        raise CapabilityError("base provides no predecessor map")
    maps: list[FiberMap] = []  # maps[k-1]: the fiber map at the k-th preimage of theta
    phis = [sys.a]  # phis[n] = phi_n
    cur, closed, truncated = theta, False, False
    for n in range(1, depth + 1):
        if not closed:
            try:
                cur = sys.base.predecessor(cur)
            except CapabilityError:
                if n == 1:
                    raise CapabilityError(
                        f"no pullback at {sys.base.format_point(theta)}: "
                        "the point has no unique predecessor"
                    ) from None
                truncated = True
                break
            maps.append(sys.fiber_at(cur))
            # predecessor inverts step, so a backward orbit can only close at theta
            closed = cur == theta
        v = phis[n - len(maps)]
        for fm in reversed(maps):
            v = fm(v)
        phis.append(v)
        delta = abs(v - phis[-2])
        if _settled(n, delta, early_stop, sys.a):
            break
    return PullbackSequence(values=phis[1:], delta=delta, truncated=truncated, a=sys.a)


class PullbackGridResult(NamedTuple):
    graph: GraphFunction
    sweeps: int
    delta: float
    monotone_ok: bool
    max_increase: float


def pullback_grid(
    sys: SkewSystem,
    grid_size: int,
    depth: int = 1000,
    early_stop: bool = True,
) -> PullbackGridResult:
    """Pullback limit over a dense circle grid by repeated backward sweeps.

    Nodes are j/m; the predecessor of a node is its nearest node under the
    exact rotation, which for a uniform grid is a fixed index shift.  Each
    sweep transports the whole grid one step, so sweep s holds phi_s at every
    node.  Sweeps stop by the rule of `_settled`.  ``max_increase`` is the
    largest rise of any node over any sweep (0 when none rises), and
    ``monotone_ok`` says it stays within ``zero_tol(a)``.
    """
    base = sys.base
    if not isinstance(base, CircleRotation):
        raise CapabilityError("grid pullback is defined for circle rotation bases")
    check_at_least("grid_size", grid_size, 8)
    import numpy as np

    m = int(grid_size)
    thetas = np.arange(m) / m
    shift = int(round(m * base.omega)) % m
    perm = (np.arange(m) - shift) % m
    phi, _, sweeps, delta, max_increase = _pull_back(sys, thetas, perm, depth, early_stop)
    return PullbackGridResult(
        graph=GraphFunction(sys.a, grid=phi), sweeps=sweeps, delta=delta,
        monotone_ok=max_increase <= zero_tol(sys.a), max_increase=max_increase,
    )


def pullback_graph_finite(
    sys: SkewSystem, depth: int, early_stop: bool = True
) -> tuple[GraphFunction, dict]:
    """Pullback over every point of a finite base, as one node set.

    A point with no unique predecessor ends its chain, and a point stops
    moving where its backward orbit ends; the sweeps stop by the rule of
    `_settled`.  The summary maps every point to the last sweep that moved
    it, the depth its value was pulled back from.
    """
    base = sys.base
    pts = getattr(base, "points", None)
    if pts is None:
        raise CapabilityError("finite pullback needs an enumerable base")
    index = {p: i for i, p in enumerate(pts)}
    pred = []
    for p in pts:
        try:
            pred.append(index[base.predecessor(p)])
        except CapabilityError:
            pred.append(-1)
    phi, stopped, sweeps, *_ = _pull_back(sys, pts, pred, depth, early_stop)
    depths = {base.format_point(p): stopped.get(i, sweeps) for i, p in enumerate(pts)}
    return GraphFunction(sys.a, table=dict(zip(pts, phi))), depths


class SampleRecord(NamedTuple):
    start_base: str
    start_fiber: float
    achieved_step: int | None
    max_dev_after: float | None


class AttractorVerdict(NamedTuple):
    verdict: str  # attracting | not-attracting
    tol: float
    steps: int
    records: list[SampleRecord]


def verify_attractor(
    sys: SkewSystem,
    graph: GraphFunction,
    starts: Sequence[tuple],
    steps: int,
    tol: float,
) -> AttractorVerdict:
    """Measure fiber distance to the graph along each start's forward orbit.

    For each start the record holds the first step N from which every later
    sampled deviation stays below tol (None when even the final step misses),
    plus the largest deviation seen from N on.
    """
    check_at_least("steps", steps, 1)
    if not starts:
        raise DomainError("verify_attractor needs at least one start")
    check_number("tol", tol, "a positive number", DomainError)
    walk = orbits(sys, [t for t, _ in starts], [x for _, x in starts], steps, graph)
    reduce = _reduce_arrays if walks_arrays(sys) else _reduce_lists
    achieved, tail = reduce(walk, tol, len(starts))
    records = [
        SampleRecord(sys.base.format_point(theta0), x0, None, None)
        if n > steps
        else SampleRecord(sys.base.format_point(theta0), x0, int(n), float(dev))
        for (theta0, x0), n, dev in zip(starts, achieved, tail)
    ]
    return AttractorVerdict(
        verdict="attracting" if all(n <= steps for n in achieved) else "not-attracting",
        tol=tol, steps=steps, records=records,
    )


def _reduce_lists(walk, tol: float, count: int) -> tuple:
    """(achieved, tail) per start from the (thetas, xs, graph values) of each
    step 0..steps: one past the last step whose deviation is >= tol (0 when
    none is), and the largest deviation from that step on."""
    achieved = [0] * count
    tail = [-math.inf] * count
    for n, (_, xs, values) in enumerate(walk):
        for i, (x, v) in enumerate(zip(xs, values)):
            dev = abs(x - v)
            if dev >= tol:
                achieved[i] = n + 1
                tail[i] = -math.inf
            elif dev > tail[i]:
                tail[i] = dev
    return achieved, tail


def _reduce_arrays(walk, tol: float, count: int) -> tuple:
    """`_reduce_lists` for the arrays of a `walks_arrays` walk, a block of
    `skew.block_rows` steps at a time: each step's deviations fill a row,
    and at the block's end each start's last missed row and the largest
    deviation after it are found.  A NaN deviation never misses tol, and
    np.max keeps it in the tail."""
    import numpy as np

    achieved = np.zeros(count, dtype=int)
    tail = np.full(count, -np.inf)
    devs = np.empty((block_rows(count), count))  # devs[j]: the block's step j

    def fold(n0: int, block) -> None:
        np.abs(block, out=block)
        past = np.arange(n0 + 1, n0 + 1 + len(block))[:, None]  # one past row j's step
        # per start, one past its last missed step in the block, or 0
        reach = np.multiply(block >= tol, past).max(axis=0)
        np.maximum(achieved, reach, out=achieved)
        np.copyto(block, -np.inf, where=past <= reach)
        np.copyto(tail, -np.inf, where=reach > 0)
        np.maximum(tail, block.max(axis=0), out=tail)

    held = 0  # rows of devs filled
    for n, (_, xs, values) in enumerate(walk):
        np.subtract(xs, values, out=devs[held])
        held += 1
        if held == len(devs):
            fold(n + 1 - held, devs)
            held = 0
    if held:
        fold(n + 1 - held, devs[:held])
    return achieved, tail


class PreinvarianceReport(NamedTuple):
    ok: bool
    first_good_n: int | None
    first_violation: int | None
    max_tail_residual: float | None
    horizon: int
    tol: float


def _along_orbits(sys: SkewSystem, thetas: Sequence, steps: int, *graphs) -> list:
    """[orbits, *reads]: each start's orbit theta, R theta, .., R^steps theta,
    then each graph's values along each orbit as Python floats.  All orbits
    are walked first; each graph reads them in one `GraphFunction.values` call."""
    walk, width = [ts for ts, _ in orbits(sys, thetas, None, steps)], steps + 1
    path = [t for orbit in zip(*walk) for t in orbit]
    rows = [path] + [g.values(path).tolist() if g.grid is not None else g.values(path)
                     for g in graphs]
    return [[row[i:i + width] for i in range(0, len(path), width)] for row in rows]


def verify_preinvariance(
    sys: SkewSystem,
    graph: GraphFunction,
    thetas: Sequence,
    horizon: int,
    tol: float,
) -> list[PreinvarianceReport]:
    """One report per start theta, in order: the smallest N from which the
    graph commutes with the dynamics along theta's orbit.

    Checks |psi_{R^n theta}(phi(R^n theta)) - phi(R^{n+1} theta)| <= tol for
    all N <= n < horizon; failure reports the first violating step instead.
    Every orbit is walked before the graph is read, so a start off the base
    raises DomainError before an earlier orbit's CoverageError (both exit 3).
    """
    check_at_least("horizon", horizon, 1)
    check_number("tol", tol, "a positive number", DomainError)
    if len(thetas) == 0:
        raise DomainError("verify_preinvariance needs at least one theta")
    orbits_, phis = _along_orbits(sys, thetas, horizon, graph)
    fiber_at, reports = sys.fiber_at, []
    for path, phi in zip(orbits_, phis):
        residuals = [abs(fiber_at(t)(here) - nxt) for t, here, nxt in zip(path, phi, phi[1:])]
        bad = [n for n, r in enumerate(residuals) if r > tol]
        first_good = bad[-1] + 1 if bad else 0
        tail = residuals[first_good:]  # empty when the last step fails
        reports.append(PreinvarianceReport(bool(tail), first_good if tail else None,
                                           bad[0] if bad else None, max(tail, default=None),
                                           horizon, tol))
    return reports


class OrbitGapRecord(NamedTuple):
    theta: str
    max_gap: float
    exceed_count: int
    last_exceed: int | None
    flagged: bool


class UniquenessReport(NamedTuple):
    verdict: str
    eps: float
    steps: int
    max_gap: float
    flagged_orbits: int
    records: list[OrbitGapRecord]


def uniqueness_probe(
    sys: SkewSystem,
    g1: GraphFunction,
    g2: GraphFunction,
    thetas: Sequence,
    steps: int,
    eps: float,
) -> UniquenessReport:
    """Track |g1 - g2| along sampled orbits.

    An orbit whose gap still exceeds eps in the second half of the window is
    flagged: two graphs with a persistent gap along a common orbit cannot
    both be attractors, since forward fiber orbits would have to shadow both.
    """
    check_at_least("steps", steps, 1)
    if len(thetas) == 0:
        raise DomainError("uniqueness_probe needs at least one theta")
    check_number("eps", eps, "a positive number", DomainError)
    _, reads1, reads2 = _along_orbits(sys, thetas, steps, g1, g2)
    records = []
    for theta0, values1, values2 in zip(thetas, reads1, reads2):
        gaps = [abs(u - v) for u, v in zip(values1, values2)]
        exceed = [n for n, gap in enumerate(gaps) if gap >= eps]
        records.append(
            OrbitGapRecord(
                theta=sys.base.format_point(theta0),
                max_gap=max(gaps),
                exceed_count=len(exceed),
                last_exceed=exceed[-1] if exceed else None,
                flagged=any(n >= steps // 2 for n in exceed),
            )
        )
    flagged = sum(r.flagged for r in records)
    verdict = (
        "consistent with a single attractor"
        if flagged == 0
        else f"both cannot be attractors (gap persists on {flagged} orbits)"
    )
    return UniquenessReport(
        verdict=verdict, eps=eps, steps=steps, max_gap=max(r.max_gap for r in records),
        flagged_orbits=flagged, records=records,
    )


def match_fraction(
    sys: SkewSystem,
    graph: GraphFunction,
    n: int,
    starts: Sequence[tuple],
) -> float:
    """Fraction of starts whose step-n fiber value equals the graph's value."""
    check_at_least("n", n, 1)
    if not starts:
        raise DomainError("match_fraction needs at least one start")
    for thetas, xs in orbits(sys, [t for t, _ in starts], [x for _, x in starts], n):
        pass
    hits = sum(x == v for x, v in zip(xs, graph.values(thetas)))
    return hits / len(starts)
