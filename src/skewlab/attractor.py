"""Attractor graphs: construction, pullback, and verification.

A candidate attractor is a function from the base to [0, a], represented as
an orbit-keyed table, a dense grid over the circle, or a plain callable.
This module builds preinvariant graphs orbit by orbit, computes pullback
limits along backward orbits (pointwise and on circle grids), and verifies
attraction, preinvariance, and pairwise agreement of candidate graphs.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

from ._numpy import np
from .bases import CircleRotation, orbit_walk
from .errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
)
from .fiber import ZERO_TOL, FiberMap, grid_max
# step is unused here; perfbench's tracer test looks it up as attractor.step.
from .skew import SkewSystem, orbits, step  # noqa: F401

GRAPH_COLUMNS = ("point", "value")
PULLBACK_STOP_DELTA = 1e-12
# Starts walked together by match_fraction.  Stepping 10^4 shift words at once
# holds all of them and their successors: 7.0 MB more peak memory for demo
# coinflip-one.
MATCH_BLOCK = 32
# Scan nodes of largest_fixed_point before its bisection.
FIXED_POINT_SCAN = 4096


class GraphFunction:
    """A candidate attractor graph phi: base -> [0, a].

    Exactly one representation is active: ``table`` (orbit-keyed), ``grid``
    (dense nodes j/m over [0,1), nearest-node lookup), or ``func``.  Table
    graphs may carry a ``fallback`` value for points outside the table; without
    one, evaluation off the table raises a coverage error naming the point.
    """

    def __init__(
        self,
        a: float,
        provenance: str,
        table: dict | None = None,
        grid: np.ndarray | None = None,
        func: Callable | None = None,
        fallback: float | None = None,
    ):
        reps = sum(x is not None for x in (table, grid, func))
        if reps != 1:
            raise DomainError("exactly one of table/grid/func must be given")
        self.a = a
        self.provenance = provenance
        self.table = dict(table) if table is not None else None
        self.grid = np.asarray(grid, dtype=float) if grid is not None else None
        self.func = func
        self.fallback = fallback
        if self.table is not None:
            if not self.table:
                raise DomainError("table representation must hold at least one point")
            for k, v in self.table.items():
                self._check_value(v, k)
        if self.grid is not None:
            if self.grid.ndim != 1 or len(self.grid) < 1:
                raise DomainError("grid representation must be a 1-d array")
            # written so that a NaN, which compares False, fails the check
            if not (self.grid.min() >= -ZERO_TOL and self.grid.max() <= a + ZERO_TOL):
                raise InvariantError("grid graph stores values outside [0, a]")
        if fallback is not None:
            self._check_value(fallback, "<fallback>")

    def _check_value(self, v: float, where) -> float:
        if not (-ZERO_TOL <= v <= self.a + ZERO_TOL):
            raise InvariantError(
                f"graph value {v!r} at {where!s} leaves [0, {self.a!r}]"
            )
        return v

    @classmethod
    def from_table(cls, a, table, provenance="user-supplied", fallback=None):
        return cls(a, provenance, table=table, fallback=fallback)

    @classmethod
    def from_grid(cls, a, values, provenance="user-supplied"):
        return cls(a, provenance, grid=values)

    @classmethod
    def from_callable(cls, a, func, provenance="user-supplied"):
        return cls(a, provenance, func=func)

    def node_index(self, theta: float) -> int:
        m = len(self.grid)
        return int(round((theta % 1.0) * m)) % m

    def value(self, theta) -> float:
        if self.grid is not None:
            return float(self.grid[self.node_index(theta)])
        return self.values((theta,))[0]

    def values(self, thetas: Sequence) -> Sequence[float]:
        """`value` at every point: a grid looks up all nodes at once into an
        array; a table or callable graph gives a list."""
        if self.grid is not None:
            m = len(self.grid)
            # np.rint rounds ties to even, like round in node_index
            idx = np.rint((np.asarray(thetas, dtype=float) % 1.0) * m).astype(int) % m
            return self.grid[idx]
        if self.func is not None:
            func, check = self.func, self._check_value
            lo, hi = -ZERO_TOL, self.a + ZERO_TOL
            # check raises: it is called only for a value outside [lo, hi]
            return [v if lo <= (v := func(t)) <= hi else check(v, t) for t in thetas]
        table, fallback = self.table, self.fallback
        if fallback is not None:
            return [table.get(t, fallback) for t in thetas]
        try:
            return [table[t] for t in thetas]
        except KeyError:
            missing = next(t for t in thetas if t not in table)
            raise CoverageError(f"graph not defined at base point {missing!s}") from None

    def to_csv(self, stream, base=None) -> None:
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
            fmt = base.format_point if base is not None else str
            rows = sorted((fmt(k), repr(v)) for k, v in self.table.items())
            writer.writerows(rows)
            return
        raise CapabilityError("callable graphs have no CSV serialization")

    @classmethod
    def from_csv(cls, stream, base, a, provenance="user-supplied"):
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
        if isinstance(base, CircleRotation):
            m = len(rows)
            values = np.empty(m)
            filled: dict[int, int] = {}  # node -> line that set it
            for line, k, v in rows:
                theta = _csv_number(k, line, "point")
                j = int(round(theta * m)) if math.isfinite(theta) else -1
                if not 0 <= j < m or abs(theta - j / m) > 1e-9:
                    raise ConfigError(
                        f"grid CSV line {line}: point {k!r} is not a node of a "
                        f"uniform {m}-grid"
                    )
                if j in filled:
                    raise ConfigError(
                        f"grid CSV line {line}: point {k!r} repeats the node of "
                        f"line {filled[j]}"
                    )
                filled[j] = line
                values[j] = v
            return cls(a, provenance, grid=values)
        table = {}
        lines: dict = {}  # point -> line that set it
        for line, k, v in rows:
            p = base.parse_point(k)
            if p in lines:
                raise ConfigError(
                    f"graph CSV line {line}: point {k!r} repeats the point of "
                    f"line {lines[p]}"
                )
            lines[p] = line
            table[p] = v
        return cls(a, provenance, table=table)


def _csv_number(cell: str, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ConfigError(
            f"graph CSV line {line}: {column} {cell!r} is not a number"
        ) from None


def positive_fraction(graph: GraphFunction, threshold: float = 1e-9) -> float:
    """Fraction of stored graph values above the threshold."""
    if graph.grid is not None:
        return float(np.mean(graph.grid > threshold))
    if graph.table is not None:
        vals = list(graph.table.values())
        return sum(v > threshold for v in vals) / len(vals)
    raise DomainError("positive fraction needs a stored representation")


def largest_fixed_point(g: FiberMap) -> float:
    """Largest solution of g(x) = x on [0, a], by downward scan and bisection.

    Returns a when g(a) = a (to 1e-12).  Otherwise scans g(x) - x at the
    nodes a*j/FIXED_POINT_SCAN from the right: the first node where
    g(x) >= x and its right neighbour bracket the largest fixed point, and
    80 bisections close the bracket to rounding.  The bracket needs neither
    monotonicity nor a contraction, so this serves every cycle composition,
    and a neutral fixed point (g'(x) = 1) costs no more than an attracting
    one.  Roots below 1e-9 are snapped to 0; with no node where g(x) >= x
    the result is 0.
    """
    a = g.a
    if abs(g(a) - a) <= 1e-12:
        return a
    hi = None
    lo = None
    for j in range(FIXED_POINT_SCAN, -1, -1):
        x = a * j / FIXED_POINT_SCAN
        if g(x) - x >= 0.0:
            lo, hi = x, a * (j + 1) / FIXED_POINT_SCAN
            break
    if lo is None:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return 0.0 if x < 1e-9 else x


def build_preinvariant(
    sys: SkewSystem,
    points: Sequence | None = None,
    orbit_limit: int | None = None,
    grid_size: int = 512,
) -> GraphFunction:
    """Construct a preinvariant graph orbit class by orbit class.

    Per walked orbit: a class containing an identically-zero fiber map (in a
    family whose maps all fix 0, so the zero propagates) gets the zero graph;
    a class closing into a cycle anchors at the largest fixed point of the
    cycle's composed fiber map, which `largest_fixed_point` brackets whether
    or not the maps are monotone, and pushes it forward around the cycle,
    with the off-cycle points set to a; a class that never closes (no cycle
    within the walk limit) takes the forward images of (theta_0, a).  A walk visits at most
    ``orbit_limit`` points (default max(64, 4 x the point count)).  Points
    outside every walk fall back to a.  Walks that run into an
    already-assigned class keep the existing values and fill their new
    upstream points with a (0 if the new segment pins orbits at 0).
    """
    if orbit_limit is not None and orbit_limit < 1:
        raise DomainError(f"orbit_limit must be >= 1, got {orbit_limit!r}")
    base = sys.base
    pts = list(points) if points is not None else list(getattr(base, "points", ()))
    if not pts:
        raise CapabilityError(
            "build_preinvariant needs an enumerable point set for this base"
        )
    limit = max(64, 4 * len(pts)) if orbit_limit is None else orbit_limit
    table: dict = {}
    # Keyed by the fiber map, so each distinct map is scanned once.
    zero_cache: dict[FiberMap, bool] = {}
    anchor_cache: dict[FiberMap, bool] = {}

    def is_zero(theta) -> bool:
        fm = sys.fiber_at(theta)
        if fm not in zero_cache:
            zero_cache[fm] = grid_max(fm, grid_size) <= ZERO_TOL
        return zero_cache[fm]

    def fixes_zero(theta) -> bool:
        fm = sys.fiber_at(theta)
        if fm not in anchor_cache:
            anchor_cache[fm] = abs(fm(0.0)) <= ZERO_TOL
        return anchor_cache[fm]

    for p in pts:
        if p in table:
            continue
        path, cycle = orbit_walk(base, p, limit)
        # cut the walk where it joins an already-assigned class
        joined = next((k for k, t in enumerate(path) if t in table), None)
        if joined is not None:
            path = path[:joined]

        pinned = any(is_zero(t) for t in path) and all(fixes_zero(t) for t in path)
        if pinned:
            for t in path:
                table[t] = 0.0
            continue
        if joined is not None:
            for t in path:
                table[t] = sys.a
            continue
        if cycle is not None:
            k = len(cycle)
            maps = [sys.fiber_at(t) for t in cycle]

            def comp(x, _maps=tuple(maps)):
                for fm in _maps:
                    x = fm(x)
                return x

            g = FiberMap(a=sys.a, f=comp, form=f"cycle-composition(k={k})")
            for t in path:
                table[t] = sys.a
            v = largest_fixed_point(g)
            table[cycle[0]] = v
            for j in range(1, k):
                v = maps[j - 1](v)
                table[cycle[j]] = v
            continue
        # open chain: anchor at the first (lowest-index) representable point
        v = sys.a
        table[path[0]] = v
        for prev, t in zip(path, path[1:]):
            v = sys.fiber_at(prev)(v)
            table[t] = v

    return GraphFunction(sys.a, "constructed-preinvariant", table=table, fallback=sys.a)


class PullbackSequence(NamedTuple):
    """phi_n(theta) for n = 1..depth_used along the backward orbit of theta."""

    theta_repr: str
    values: list[float]
    delta: float
    depth_used: int
    truncated: bool

    def nonincreasing(self, slack: float = 1e-12) -> bool:
        return all(
            self.values[i + 1] <= self.values[i] + slack
            for i in range(len(self.values) - 1)
        )

    def limit(self) -> float:
        return self.values[-1]


def _sweeps(sys: SkewSystem, nodes: Sequence, pred: Sequence) -> Iterator[tuple]:
    """(phi_n, live_n) at every node for n = 1, 2, ...: one backward step each.

    phi_n(node) = psi_p(phi_{n-1}(p)) for p = nodes[pred[node]], and phi_0 = a.
    The node sets are a circle grid, where ``pred`` is an index permutation,
    and a finite base, where ``pred[i] = -1`` ends node i's backward orbit.
    live_n marks the nodes with at least n preimages, the ones sweep n moves;
    every other node keeps its last value.  A circle product sweeps as numpy
    arrays; any other system holds phi_n and live_n as lists and applies each
    live node's predecessor map through ``fiber_at``, so it never loads numpy.
    """
    a = float(sys.a)
    if isinstance(sys.base, CircleRotation) and sys.product_parts is not None:
        f, g = sys.product_parts
        pred_idx = np.asarray(pred, dtype=int)
        g_pred = np.asarray(g(np.asarray(nodes, dtype=float)[pred_idx]), dtype=float)
        live = np.ones(len(nodes), dtype=bool)
        vals = np.full(len(nodes), a)
        while True:
            vals = f(vals[pred_idx]) * g_pred
            yield vals, live
    maps = [sys.fiber_at(nodes[p]) if p >= 0 else None for p in pred]
    live = [p >= 0 for p in pred]
    # A sweep walks only the live indices: the noinvattr chain keeps one of
    # its 130 nodes live through all sweeps of a depth-1000 pullback.
    idx = [i for i, moves in enumerate(live) if moves]
    vals = [a] * len(nodes)
    while True:
        new = vals.copy()
        for i in idx:
            # float() stores what an array of floats would
            new[i] = float(maps[i](vals[pred[i]]))
        vals = new
        yield vals, live
        idx = [i for i in idx if live[pred[i]]]
        live = [False] * len(nodes)
        for i in idx:
            live[i] = True


def _compositions(sys: SkewSystem, back: Sequence, closed: bool) -> Iterator[float]:
    """phi_n for n = 1, 2, ... composed along the backward orbit ``back``.

    ``back[k-1]`` is the k-th preimage; each fiber map is built when the
    composition first reaches it.  phi_n applies the k maps built so far to
    phi_{n-k}: to phi_0 = a while n <= len(back).  A ``closed`` orbit holds
    one period, ending at theta itself, so past it phi_n applies the period
    to phi_{n-p}: the float operations of composing all n maps, in order.
    """
    maps: list[FiberMap] = []
    phis = [sys.a]  # phis[n] = phi_n
    for n in itertools.count(1):
        if n <= len(back):
            maps.append(sys.fiber_at(back[n - 1]))
        elif not closed:
            return
        v = phis[n - len(maps)]
        for fm in reversed(maps):
            v = fm(v)
        phis.append(v)
        yield v


def pullback_phi(
    sys: SkewSystem,
    theta,
    depth: int,
    stop_delta: float = PULLBACK_STOP_DELTA,
    allow_partial: bool = False,
) -> PullbackSequence:
    """Fiber images of the top endpoint transported along the backward orbit.

    phi_n(theta) applies, to the endpoint a, the fiber maps met from the n-th
    preimage of theta forward to theta.  For monotone fiber families the
    sequence is nonincreasing; iteration stops early once consecutive values
    differ by less than ``stop_delta`` (pass 0 to disable).

    Each phi_n composes the fiber maps along the backward orbit: n^2/2 calls
    up to the stopping depth n, or about n*p if the orbit closes after p steps.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if not hasattr(sys.base, "predecessor"):
        raise CapabilityError("base provides no predecessor map")
    back: list = []  # back[k-1] = k-th preimage of theta
    cur = theta
    truncated = False
    for _ in range(depth):
        try:
            cur = sys.base.predecessor(cur)
        except CapabilityError:
            if allow_partial:
                truncated = True
                break
            raise
        back.append(cur)
        # predecessor inverts step, so a backward orbit can only close at theta
        if cur == theta:
            break
    closed = back[-1:] == [theta]

    values: list[float] = []
    delta = math.inf
    for v in itertools.islice(_compositions(sys, back, closed), depth):
        values.append(v)
        if len(values) >= 2:
            delta = abs(values[-1] - values[-2])
            if stop_delta > 0.0 and delta < stop_delta:
                break
    return PullbackSequence(
        theta_repr=sys.base.format_point(theta),
        values=values,
        delta=delta,
        depth_used=len(values),
        truncated=truncated,
    )


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
    stop_delta: float = PULLBACK_STOP_DELTA,
) -> PullbackGridResult:
    """Pullback limit over a dense circle grid by repeated backward sweeps.

    Nodes are j/m; the predecessor of a node is its nearest node under the
    exact rotation, which for a uniform grid is a fixed index shift.  Each
    sweep transports the whole grid one step, so sweep s holds phi_s at every
    node.  ``max_increase`` is the largest rise of any node over any sweep
    (0 when none rises), and ``monotone_ok`` says it stays within 1e-12.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    base = sys.base
    if not isinstance(base, CircleRotation):
        raise CapabilityError("grid pullback is defined for circle rotation bases")
    m = int(grid_size)
    if m < 8:
        raise DomainError("grid_size must be >= 8")
    thetas = np.arange(m) / m
    shift = int(round(m * base.omega)) % m
    perm = (np.arange(m) - shift) % m

    values = np.full(m, float(sys.a))
    max_increase = 0.0
    delta = math.inf

    sweeps = 0
    for s, (row, _) in zip(range(1, depth + 1), _sweeps(sys, thetas, perm)):
        new = np.asarray(row)  # a list for a circle system without product_parts
        diff = new - values
        # a NaN rise compares False, so max keeps the running value
        max_increase = max(max_increase, float(np.max(diff)))
        delta = float(np.max(np.abs(diff)))
        values = new
        sweeps = s
        if stop_delta > 0.0 and delta < stop_delta:
            break

    return PullbackGridResult(
        graph=GraphFunction(sys.a, "pullback", grid=values), sweeps=sweeps, delta=delta,
        monotone_ok=max_increase <= 1e-12, max_increase=max_increase,
    )


def pullback_graph_finite(
    sys: SkewSystem, depth: int, stop_delta: float = PULLBACK_STOP_DELTA
) -> tuple[GraphFunction, dict]:
    """Pointwise pullback over every point of a finite base.

    One `_sweeps` run over ``base.points`` serves every point; a point with
    no unique predecessor ends its chain.  Each point stops at the first
    n >= 2 with |phi_n - phi_{n-1}| < ``stop_delta``, or where its backward
    orbit leaves the represented set; the summary maps every point to the
    depth it used.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
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
    running = list(range(len(pts)))  # chain not used up and not stopped yet
    final = [float(sys.a)] * len(pts)
    used = [0] * len(pts)
    for n, (vals, live) in zip(range(1, depth + 1), _sweeps(sys, pts, pred)):
        running = [i for i in running if live[i]]
        if not running:
            break
        for i in running:
            final[i] = vals[i]
            used[i] = n
        if n >= 2 and stop_delta > 0.0:
            running = [i for i in running if not abs(vals[i] - prev[i]) < stop_delta]
        prev = vals
    table = dict(zip(pts, final))
    depths = {base.format_point(p): d for p, d in zip(pts, used)}
    return GraphFunction(sys.a, "pullback", table=table), depths


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
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not starts:
        raise DomainError("verify_attractor needs at least one start")
    _check_positive("tol", tol)
    walk = orbits(sys, [t for t, _ in starts], [x for _, x in starts], steps)
    first = next(walk)
    walk = itertools.chain([first], walk)
    # A per-point walk yields lists and is reduced step by step; the circle
    # product's array walk is reduced as one (steps + 1) x N array.
    if isinstance(first[1], list):
        achieved, tail = _reduce_lists(walk, graph, tol, len(starts))
    else:
        achieved, tail = _reduce_arrays(walk, graph, tol, steps, len(starts))
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


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:  # also refuses NaN: no deviation or gap is ever >= NaN
        raise DomainError(f"{name} must be > 0, got {value!r}")


def _reduce_lists(walk, graph: GraphFunction, tol: float, count: int) -> tuple:
    """(achieved, tail) per start: one past the last step whose deviation is
    >= tol (0 when none is), and the largest deviation from that step on."""
    achieved = [0] * count
    tail = [-math.inf] * count
    for n, (thetas, xs) in enumerate(walk):
        for i, (x, v) in enumerate(zip(xs, graph.values(thetas))):
            dev = abs(x - v)
            if dev >= tol:
                achieved[i] = n + 1
                tail[i] = -math.inf
            elif dev > tail[i]:
                tail[i] = dev
    return achieved, tail


def _reduce_arrays(
    walk, graph: GraphFunction, tol: float, steps: int, count: int
) -> tuple:
    """`_reduce_lists` for array steps, over all steps at once."""
    devs = np.empty((steps + 1, count))  # devs[n, i]: start i at step n
    for n, (thetas, xs) in enumerate(walk):
        devs[n] = np.abs(xs - graph.values(thetas))
    missed = devs >= tol
    # One past the last step that misses tol, or 0 when none does.
    achieved = np.where(
        missed.any(axis=0), steps + 1 - np.argmax(missed[::-1], axis=0), 0
    )
    devs[np.arange(steps + 1)[:, None] < achieved] = -np.inf
    return achieved, devs.max(axis=0)


class PreinvarianceReport(NamedTuple):
    ok: bool
    first_good_n: int | None
    first_violation: int | None
    max_tail_residual: float | None
    horizon: int
    tol: float


def verify_preinvariance(
    sys: SkewSystem,
    graph: GraphFunction,
    theta,
    horizon: int,
    tol: float,
) -> PreinvarianceReport:
    """Smallest N from which the graph commutes with the dynamics along theta.

    Checks |psi_{R^n theta}(phi(R^n theta)) - phi(R^{n+1} theta)| <= tol for
    all N <= n < horizon; failure reports the first violating step instead.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    _check_positive("tol", tol)
    residuals = []
    cur, here = theta, None  # here: the graph value at cur, read once
    for _ in range(horizon):
        nxt = sys.base.step(cur)
        psi = sys.fiber_at(cur)
        if here is None:
            here = graph.value(cur)
        image = psi(here)
        here = graph.value(nxt)
        residuals.append(abs(image - here))
        cur = nxt
    first_violation = next(
        (n for n, r in enumerate(residuals) if r > tol), None
    )
    first_good = 0
    for n in range(horizon - 1, -1, -1):
        if residuals[n] > tol:
            first_good = n + 1
            break
    if first_good >= horizon:
        return PreinvarianceReport(False, None, first_violation, None, horizon, tol)
    return PreinvarianceReport(
        True, first_good, first_violation, max(residuals[first_good:]), horizon, tol
    )


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
    Each orbit's steps + 1 base points are read from both graphs with one
    `GraphFunction.values` call each.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if len(thetas) == 0:
        raise DomainError("uniqueness_probe needs at least one theta")
    _check_positive("eps", eps)
    base_step = sys.base.step
    records = []
    max_gap = 0.0
    flagged = 0
    for theta0 in thetas:
        path = [theta0]
        for _ in range(steps):
            path.append(base_step(path[-1]))
        gaps = [abs(u - v) for u, v in zip(g1.values(path), g2.values(path))]
        exceed = [n for n, gap in enumerate(gaps) if gap >= eps]
        gmax = float(max(gaps))  # a grid graph's values are numpy floats
        is_flagged = any(n >= steps // 2 for n in exceed)
        flagged += is_flagged
        max_gap = max(max_gap, gmax)
        records.append(
            OrbitGapRecord(
                theta=sys.base.format_point(theta0),
                max_gap=gmax,
                exceed_count=len(exceed),
                last_exceed=exceed[-1] if exceed else None,
                flagged=is_flagged,
            )
        )
    verdict = (
        "consistent with a single attractor"
        if flagged == 0
        else f"both cannot be attractors (gap persists on {flagged} orbits)"
    )
    return UniquenessReport(
        verdict=verdict, eps=eps, steps=steps, max_gap=max_gap,
        flagged_orbits=flagged, records=records,
    )


def match_fraction(
    sys: SkewSystem,
    graph: GraphFunction,
    n: int,
    starts: Sequence[tuple],
    tol: float = 0.0,
) -> float:
    """Fraction of starts whose step-n fiber value matches the graph."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not tol >= 0.0:  # also refuses NaN, which no deviation is ever <=
        raise DomainError(f"tol must be >= 0, got {tol!r}")
    if not starts:
        raise DomainError("match_fraction needs at least one start")
    hits = 0
    for i in range(0, len(starts), MATCH_BLOCK):
        block = starts[i:i + MATCH_BLOCK]
        for thetas, xs in orbits(sys, [t for t, _ in block], [x for _, x in block], n):
            pass
        hits += sum(abs(x - v) <= tol for x, v in zip(xs, graph.values(thetas)))
    return hits / len(starts)
