"""Attractor graphs: construction, pullback, and verification.

A candidate attractor is a function from the base to [0, a], represented as
an orbit-keyed table, a dense grid over the circle, or a plain callable.
This module builds preinvariant graphs orbit by orbit, computes pullback
limits along backward orbits (pointwise and on circle grids), and verifies
attraction, preinvariance, and pairwise agreement of candidate graphs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bases import CircleRotation
from .errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
    SkewlabError,
)
from .fiber import ZERO_TOL, FiberMap, grid_max
from .nonauto import map_profile
# step is unused here; perfbench's tracer test looks it up as attractor.step.
from .skew import SkewSystem, orbits, step  # noqa: F401

GRAPH_COLUMNS = ("point", "value")
DEFAULT_GRID_NODES = 2 ** 14
PULLBACK_STOP_DELTA = 1e-12
# Starts walked together by match_fraction.  Stepping 10^4 shift words at once
# holds all of them plus the tuples the interpreter keeps for reuse, several MB.
MATCH_BLOCK = 32


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
        label: str = "",
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
        self.label = label
        if self.table is not None:
            for k, v in self.table.items():
                self._check_value(v, k)
        if self.grid is not None:
            if self.grid.ndim != 1 or len(self.grid) < 1:
                raise DomainError("grid representation must be a 1-d array")
            if self.grid.min() < -ZERO_TOL or self.grid.max() > a + ZERO_TOL:
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
    def from_table(cls, a, table, provenance="user-supplied", fallback=None, label=""):
        return cls(a, provenance, table=table, fallback=fallback, label=label)

    @classmethod
    def from_grid(cls, a, values, provenance="user-supplied", label=""):
        return cls(a, provenance, grid=values, label=label)

    @classmethod
    def from_callable(cls, a, func, provenance="user-supplied", label=""):
        return cls(a, provenance, func=func, label=label)

    def node_index(self, theta: float) -> int:
        m = len(self.grid)
        return int(round((theta % 1.0) * m)) % m

    def value(self, theta) -> float:
        if self.table is not None:
            if theta in self.table:
                return self.table[theta]
            if self.fallback is not None:
                return self.fallback
            raise CoverageError(f"graph not defined at base point {theta!s}")
        if self.grid is not None:
            return float(self.grid[self.node_index(theta)])
        return self._check_value(self.func(theta), theta)

    def values(self, thetas: Sequence) -> np.ndarray:
        """`value` at every point, as an array; a grid looks up all nodes at once."""
        if self.grid is not None:
            m = len(self.grid)
            # np.rint rounds ties to even, like round in node_index
            idx = np.rint((np.asarray(thetas, dtype=float) % 1.0) * m).astype(int) % m
            return self.grid[idx]
        return np.array([self.value(t) for t in thetas], dtype=float)

    def to_csv(self, stream, base=None) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(GRAPH_COLUMNS)
        if self.grid is not None:
            m = len(self.grid)
            for j in range(m):
                writer.writerow([repr(j / m), repr(float(self.grid[j]))])
            return
        if self.table is not None:
            fmt = base.format_point if base is not None else str
            rows = sorted((fmt(k), repr(v)) for k, v in self.table.items())
            writer.writerows(rows)
            return
        raise CapabilityError("callable graphs have no CSV serialization")

    def to_csv_string(self, base=None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, base=base)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, stream, base, a, provenance="user-supplied"):
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or tuple(header) != GRAPH_COLUMNS:
            raise ConfigError(f"graph CSV must start with header {GRAPH_COLUMNS}")
        rows = [(k, float(v)) for k, v in reader]
        if isinstance(base, CircleRotation):
            m = len(rows)
            values = np.empty(m)
            for k, v in rows:
                theta = float(k)
                j = int(round(theta * m))
                if j >= m or abs(theta - j / m) > 1e-9:
                    raise ConfigError(
                        f"grid CSV row {k!r} is not a node of a uniform {m}-grid"
                    )
                values[j] = v
            return cls(a, provenance, grid=values)
        table = {base.parse_point(k): v for k, v in rows}
        return cls(a, provenance, table=table)


def positive_fraction(graph: GraphFunction, threshold: float = 1e-9) -> float:
    """Fraction of stored graph values above the threshold."""
    if graph.grid is not None:
        return float(np.mean(graph.grid > threshold))
    if graph.table is not None:
        vals = list(graph.table.values())
        return sum(v > threshold for v in vals) / len(vals)
    raise DomainError("positive fraction needs a stored representation")


def largest_fixed_point(
    g: FiberMap, tol: float = 1e-12, max_iter: int = 10 ** 6
) -> float:
    """Largest fixed point of a nondecreasing concave map with g(0) = 0.

    Iterates from the right endpoint; the sequence is nonincreasing and
    converges to the largest fixed point.  Converged values below 1e-9 are
    snapped to 0 (the iteration leaves an O(tol) residue when 0 is the only
    fixed point).
    """
    x = g.a
    for _ in range(max_iter):
        nx = g(x)
        if abs(nx - x) < tol:
            x = nx
            break
        x = nx
    return 0.0 if x < 1e-9 else x


def _largest_fixed_point_scan(g: FiberMap, grid: int = 4096) -> float:
    """Largest solution of g(x) = x by downward scan plus bisection.

    Used for cycle compositions that are not monotone, where the iterative
    route has no convergence guarantee.
    """
    a = g.a
    if abs(g(a) - a) <= 1e-12:
        return a
    hi = None
    lo = None
    for j in range(grid, -1, -1):
        x = a * j / grid
        if g(x) - x >= 0.0:
            lo, hi = x, a * (j + 1) / grid
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
    a class closing into a cycle anchors at the cycle's largest fixed fiber
    value and pushes it forward around the cycle, with the off-cycle points
    set to a; a class that never closes (no cycle within the walk limit)
    takes the forward images of (theta_0, a).  Points outside every walk fall
    back to a.  Walks that run into an already-assigned class keep the
    existing values and fill their new upstream points with a (0 if the new
    segment pins orbits at 0).
    """
    base = sys.base
    pts = list(points) if points is not None else list(getattr(base, "points", ()))
    if not pts:
        raise CapabilityError(
            "build_preinvariant needs an enumerable point set for this base"
        )
    limit = orbit_limit or max(64, 4 * len(pts))
    table: dict = {}
    zero_cache: dict = {}
    anchor_cache: dict = {}

    def is_zero(theta) -> bool:
        if theta not in zero_cache:
            zero_cache[theta] = grid_max(sys.fiber_at(theta), grid_size) <= ZERO_TOL
        return zero_cache[theta]

    def fixes_zero(theta) -> bool:
        if theta not in anchor_cache:
            anchor_cache[theta] = abs(sys.fiber_at(theta)(0.0)) <= ZERO_TOL
        return anchor_cache[theta]

    for p in pts:
        if p in table:
            continue
        path: list = []
        idx: dict = {}
        cycle = None
        joined = False
        cur = p
        for _ in range(limit):
            if cur in table:
                joined = True
                break
            if cur in idx:
                cycle = path[idx[cur]:]
                break
            idx[cur] = len(path)
            path.append(cur)
            cur = base.step(cur)

        pinned = any(is_zero(t) for t in path) and all(fixes_zero(t) for t in path)
        if pinned:
            for t in path:
                table[t] = 0.0
            continue
        if joined:
            for t in path:
                table[t] = sys.a
            continue
        if cycle is not None:
            k = len(cycle)

            def comp(x, _cyc=tuple(cycle)):
                for t in _cyc:
                    x = sys.fiber_at(t)(x)
                return x

            g = FiberMap(a=sys.a, f=comp, form=f"cycle-composition(k={k})")
            try:
                mono = all(
                    map_profile(sys.fiber_at(t), grid_size).monotone for t in cycle
                )
            except SkewlabError:
                mono = False
            a0 = largest_fixed_point(g) if mono else _largest_fixed_point_scan(g)
            for t in path:
                table[t] = sys.a
            v = a0
            table[cycle[0]] = v
            for j in range(1, k):
                v = sys.fiber_at(cycle[j - 1])(v)
                table[cycle[j]] = v
            continue
        # open chain: anchor at the first (lowest-index) representable point
        v = sys.a
        table[path[0]] = v
        for prev, t in zip(path, path[1:]):
            v = sys.fiber_at(prev)(v)
            table[t] = v

    return GraphFunction(
        sys.a, "constructed-preinvariant", table=table, fallback=sys.a,
        label=f"preinvariant({sys.label})",
    )


@dataclass(frozen=True)
class PullbackSequence:
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

    maps = [sys.fiber_at(t) for t in back]
    values: list[float] = []
    delta = math.inf
    for n in range(1, len(back) + 1):
        v = sys.a
        for k in range(n - 1, -1, -1):
            v = maps[k](v)
        values.append(v)
        if len(values) >= 2:
            delta = abs(values[-1] - values[-2])
            if stop_delta > 0.0 and delta < stop_delta:
                break
    return PullbackSequence(
        theta_repr=sys.base.format_point(theta),
        values=values,
        delta=delta if values and len(values) >= 2 else math.inf,
        depth_used=len(values),
        truncated=truncated,
    )


@dataclass(frozen=True)
class PullbackGridResult:
    graph: GraphFunction
    sweeps: int
    delta: float
    monotone_ok: bool
    max_increase: float
    snapshots: dict[int, np.ndarray]

    def to_dict(self) -> dict:
        return {
            "sweeps": self.sweeps,
            "delta": self.delta,
            "monotone_ok": self.monotone_ok,
            "max_increase": self.max_increase,
        }


def pullback_grid(
    sys: SkewSystem,
    grid_size: int = DEFAULT_GRID_NODES,
    depth: int = 1000,
    stop_delta: float = PULLBACK_STOP_DELTA,
    snapshots: Iterable[int] = (),
) -> PullbackGridResult:
    """Pullback limit over a dense circle grid by repeated backward sweeps.

    Nodes are j/m; the predecessor of a node is its nearest node under the
    exact rotation, which for a uniform grid is a fixed index shift.  Each
    sweep transports the whole grid one step, so sweep s holds phi_s at every
    node; monotonicity (nonincreasing values at every node, up to 1e-12) is
    tracked sweep by sweep.  Product families take a vectorized fast path.
    """
    base = sys.base
    if not isinstance(base, CircleRotation):
        raise CapabilityError("grid pullback is defined for circle rotation bases")
    m = int(grid_size)
    if m < 8:
        raise DomainError("grid_size must be >= 8")
    thetas = np.arange(m) / m
    shift = int(round(m * base.omega)) % m
    perm = (np.arange(m) - shift) % m
    theta_pred = thetas[perm]
    want = set(int(s) for s in snapshots)

    values = np.full(m, float(sys.a))
    taken: dict[int, np.ndarray] = {}
    monotone_ok = True
    max_increase = 0.0
    delta = math.inf

    if sys.product_parts is not None:
        f_vec, g_vec = sys.product_parts
        g_pred = np.asarray(g_vec(theta_pred), dtype=float)

        def sweep(vals: np.ndarray) -> np.ndarray:
            return f_vec(vals[perm]) * g_pred

    else:
        fibers_pred = [sys.fiber_at(t) for t in theta_pred]

        def sweep(vals: np.ndarray) -> np.ndarray:
            return np.array([fm(v) for fm, v in zip(fibers_pred, vals[perm])])

    sweeps = 0
    for s in range(1, depth + 1):
        new = sweep(values)
        inc = float(np.max(new - values))
        max_increase = max(max_increase, inc)
        if inc > 1e-12:
            monotone_ok = False
        delta = float(np.max(np.abs(new - values)))
        values = new
        sweeps = s
        if s in want:
            taken[s] = values.copy()
        if stop_delta > 0.0 and delta < stop_delta:
            break

    graph = GraphFunction(
        sys.a, "pullback", grid=values, label=f"pullback({sys.label})"
    )
    return PullbackGridResult(
        graph=graph, sweeps=sweeps, delta=delta,
        monotone_ok=monotone_ok, max_increase=max_increase, snapshots=taken,
    )


def pullback_graph_finite(
    sys: SkewSystem, depth: int, stop_delta: float = PULLBACK_STOP_DELTA
) -> tuple[GraphFunction, dict]:
    """Pointwise pullback over every point of a finite base.

    Points whose backward orbit leaves the represented set are truncated at
    the deepest available preimage; the summary maps each such point to the
    depth actually used.
    """
    pts = getattr(sys.base, "points", None)
    if pts is None:
        raise CapabilityError("finite pullback needs an enumerable base")
    table = {}
    depths = {}
    for p in pts:
        seq = pullback_phi(sys, p, depth, stop_delta=stop_delta, allow_partial=True)
        table[p] = seq.values[-1] if seq.values else sys.a
        depths[sys.base.format_point(p)] = seq.depth_used
    graph = GraphFunction(sys.a, "pullback", table=table, label=f"pullback({sys.label})")
    return graph, depths


@dataclass(frozen=True)
class SampleRecord:
    start_base: str
    start_fiber: float
    achieved_step: int | None
    max_dev_after: float | None

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class AttractorVerdict:
    verdict: str  # attracting | not-attracting
    tol: float
    steps: int
    records: list[SampleRecord]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "steps": self.steps,
            "records": [r.to_dict() for r in self.records],
        }


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
    devs = np.empty((steps + 1, len(starts)))  # devs[n, i]: start i at step n
    walk = orbits(sys, [t for t, _ in starts], [x for _, x in starts], steps)
    for n, (thetas, xs) in enumerate(walk):
        devs[n] = np.abs(np.asarray(xs, dtype=float) - graph.values(thetas))
    missed = devs >= tol
    # One past the last step that misses tol, or 0 when none does.
    achieved = np.where(
        missed.any(axis=0), steps + 1 - np.argmax(missed[::-1], axis=0), 0
    )
    devs[np.arange(steps + 1)[:, None] < achieved] = -np.inf
    tail_max = devs.max(axis=0)
    records = [
        SampleRecord(sys.base.format_point(theta0), x0, None, None)
        if n > steps
        else SampleRecord(sys.base.format_point(theta0), x0, int(n), float(dev))
        for (theta0, x0), n, dev in zip(starts, achieved, tail_max)
    ]
    return AttractorVerdict(
        verdict="attracting" if np.all(achieved <= steps) else "not-attracting",
        tol=tol, steps=steps, records=records,
    )


@dataclass(frozen=True)
class PreinvarianceReport:
    ok: bool
    first_good_n: int | None
    first_violation: int | None
    max_tail_residual: float | None
    horizon: int
    tol: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


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
    residuals = []
    cur = theta
    for _ in range(horizon):
        nxt = sys.base.step(cur)
        residuals.append(
            abs(sys.fiber_at(cur)(graph.value(cur)) - graph.value(nxt))
        )
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


@dataclass(frozen=True)
class OrbitGapRecord:
    theta: str
    max_gap: float
    exceed_count: int
    last_exceed: int | None
    flagged: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class UniquenessReport:
    verdict: str
    eps: float
    steps: int
    max_gap: float
    flagged_orbits: int
    records: list[OrbitGapRecord]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps": self.eps,
            "steps": self.steps,
            "max_gap": self.max_gap,
            "flagged_orbits": self.flagged_orbits,
            "records": [r.to_dict() for r in self.records],
        }


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
    records = []
    max_gap = 0.0
    flagged = 0
    for theta0 in thetas:
        cur = theta0
        exceed = []
        gmax = 0.0
        for n in range(steps + 1):
            gap = abs(g1.value(cur) - g2.value(cur))
            gmax = max(gmax, gap)
            if gap >= eps:
                exceed.append(n)
            cur = sys.base.step(cur)
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
    hits = 0
    for i in range(0, len(starts), MATCH_BLOCK):
        block = starts[i:i + MATCH_BLOCK]
        for thetas, xs in orbits(sys, [t for t, _ in block], [x for _, x in block], n):
            pass
        matched = np.abs(np.asarray(xs, dtype=float) - graph.values(thetas)) <= tol
        hits += int(np.count_nonzero(matched))
    return hits / len(starts)
