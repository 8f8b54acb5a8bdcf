import csv
import functools
import io
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.attractor import (
    FIXED_POINT_SCAN,
    PULLBACK_STOP_DELTA,
    GraphFunction,
    OrbitGapRecord,
    UniquenessReport,
    build_preinvariant,
    largest_fixed_point,
    match_fraction,
    positive_fraction,
    pullback_graph_finite,
    pullback_grid,
    pullback_phi,
    uniqueness_probe,
    verify_attractor,
    verify_preinvariance,
)
from skewlab.bases import (
    CircleRotation,
    FiniteOrbitBase,
    OneSidedWord,
    SymbolicShift,
    TwoSidedWord,
)
from skewlab.catalog import (
    GOLDEN_ROTATION,
    coinflip_attractor_graph,
    make_coinflip,
    make_keller,
    make_noinvattr,
    make_product,
)
from skewlab.errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
)
from skewlab.fiber import FiberMap
from skewlab.registry import build_fiber
from skewlab.skew import (
    ProductFamily,
    SkewSystem,
    SymbolTable,
    block_rows,
    classify,
    orbits,
    step,
    walks_arrays,
    walks_symbols,
)

STRONG = FiberMap(1.0, lambda x: x * (2 - x), gamma=1.0, alpha=1.0, b=1.0, monotone=True)
WEAK = FiberMap(1.0, lambda x: x * (2 - x) / 4.0, gamma=0.25, alpha=0.25, b=1.0, monotone=True)
# The data of one graph per representation, for the lookup tests.
GRID8 = np.linspace(0.0, 0.875, 8)
# 1/16, 3/16 and 2.5625 fall halfway between two nodes of GRID8
THETAS = [0.0, 1 / 16, 3 / 16, 0.25, 0.5, 0.7, 0.99, 0.999999, -0.3, 2.5625]


def square(t):
    return (t % 1.0) ** 2


def keller_k07():
    """0.7 x(2-x) times sin^2 (eps 0.5) over the golden rotation.  0.7 is no
    power of two, so a batched path that rounds differently from the
    one-point path shows in the last bit."""
    return make_product(
        {"form": "logistic-scaled", "k": 0.7},
        {"form": "sin-squared", "c": 1.0, "eps": 0.5},
        CircleRotation(GOLDEN_ROTATION),
    )


@functools.cache
def keller_graph():
    """Keller's grid pullback at m = 256, depth 300."""
    return pullback_grid(make_keller(), grid_size=256, depth=300).graph


def step_orbit(sys_, point, steps):
    """The points (theta_0, x_0) .. (theta_steps, x_steps), one `step` at a time."""
    points = [point]
    for _ in range(steps):
        points.append(step(sys_, points[-1]))
    return points


def reference_records(sys_, graph, starts, steps, tol):
    """(achieved_step, max_dev_after) per start, walked start by start with `step`."""
    out = []
    for point in starts:
        devs = [abs(x - graph.value(theta)) for theta, x in step_orbit(sys_, point, steps)]
        achieved = max((n + 1 for n, d in enumerate(devs) if d >= tol), default=0)
        out.append((achieved, max(devs[achieved:])) if achieved <= steps else (None, None))
    return out


def reduce_2d(walk, tol, steps, count):
    """(achieved, tail) per start of `verify_attractor`'s array walk, from a
    (steps + 1) x count array of every deviation."""
    devs = np.empty((steps + 1, count))  # devs[n, i]: start i at step n
    for n, (xs, values) in enumerate(walk):
        devs[n] = np.abs(xs - values)
    missed = devs >= tol
    # One past the last step that misses tol, or 0 when none does.
    achieved = np.where(missed.any(axis=0), steps + 1 - np.argmax(missed[::-1], axis=0), 0)
    devs[np.arange(steps + 1)[:, None] < achieved] = -np.inf
    return achieved, devs.max(axis=0)


def reference_2d_records(sys_, graph, starts, steps, tol):
    """(achieved_step, max_dev_after) per start through `reduce_2d`."""
    thetas, xs = [t for t, _ in starts], [x for _, x in starts]
    walk = ((x, graph.values(t)) for t, x in orbits(sys_, thetas, xs, steps))
    achieved, tail = reduce_2d(walk, tol, steps, len(starts))
    return [(int(n), float(dev)) if n <= steps else (None, None)
            for n, dev in zip(achieved, tail)]


def walk_error(sys_, starts, steps):
    """The DomainError message of stepping every start with `step`, all
    starts one step at a time, or None when the walk stays in [0, a]."""
    points = list(starts)
    try:
        for _ in range(steps):
            points = [step(sys_, point) for point in points]
    except DomainError as exc:
        return str(exc)
    return None


def assert_verify_matches_reference(sys_, graph, starts, steps, tol):
    """verify_attractor and match_fraction against the start-by-start walk;
    a start that leaves [0, a] fails both with the message `step` gives."""
    error = walk_error(sys_, starts, steps)
    if error is None:
        verdict = verify_attractor(sys_, graph, starts, steps, tol)
        expected = reference_records(sys_, graph, starts, steps, tol)
        assert [(r.achieved_step, r.max_dev_after) for r in verdict.records] == expected
        attracted = all(achieved is not None for achieved, _ in expected)
        assert verdict.verdict == ("attracting" if attracted else "not-attracting")
    else:
        with pytest.raises(DomainError) as exc:
            verify_attractor(sys_, graph, starts, steps, tol)
        assert str(exc.value) == error
    n = 1 + steps // 2
    error = walk_error(sys_, starts, n)
    if error is None:
        ends = [step_orbit(sys_, point, n)[-1] for point in starts]
        hits = sum(abs(x - graph.value(theta)) <= tol for theta, x in ends)
        assert match_fraction(sys_, graph, n, starts, tol) == hits / len(starts)
    else:
        with pytest.raises(DomainError) as exc:
            match_fraction(sys_, graph, n, starts, tol)
        assert str(exc.value) == error


# Sends every fiber coordinate out of [0, 1].
EXIT = FiberMap(1.0, lambda x: x + 1.5, form="exit")


def exiting_at(sys_, point):
    """sys_ with the fiber map at base point ``point`` replaced by EXIT."""
    return sys_._replace(
        fiber_at=lambda t: EXIT if t == point else sys_.fiber_at(t)
    )


def reference_pullback(sys_, theta, depth, stop_delta):
    """(phi_1..phi_N, truncated): every phi_n composed afresh along the backward orbit.

    N is the first n >= 2 with |phi_n - phi_{n-1}| < stop_delta, else the depth
    or the length of the backward orbit, whichever is shorter.  truncated: the
    orbit ended before the depth and the stop rule did not end the query first.
    """
    back = []
    cur = theta
    for _ in range(depth):
        try:
            cur = sys_.base.predecessor(cur)
        except CapabilityError:
            break
        back.append(cur)
    values = []
    for n in range(1, len(back) + 1):
        v = sys_.a
        for t in reversed(back[:n]):
            v = sys_.fiber_at(t)(v)
        values.append(v)
        if n >= 2 and abs(values[-1] - values[-2]) < stop_delta:
            return values, False
    return values, len(back) < depth


def reference_node_set(sys_, depth, stop_delta):
    """{point: (value, depth used)} of a pullback over every point of a finite base.

    Each point's phi_1, phi_2, ... are composed afresh to the depth with no
    stop.  The node set stops at the first n >= 2 where the largest
    |phi_n - phi_{n-1}| (phi_0 = a) over the points with n values is below
    stop_delta, or before the first n that no point has; each point keeps
    its last value up to there.
    """
    seqs = {p: [sys_.a, *reference_pullback(sys_, p, depth, 0.0)[0]]
            for p in sys_.base.points}
    stop = depth
    for n in range(1, depth + 1):
        moving = [vs for vs in seqs.values() if len(vs) > n]
        if not moving:
            stop = n - 1
            break
        if n >= 2 and max(abs(vs[n] - vs[n - 1]) for vs in moving) < stop_delta:
            stop = n
            break
    return {p: (vs[min(len(vs) - 1, stop)], min(len(vs) - 1, stop)) for p, vs in seqs.items()}


class CountingPredecessors:
    """A base that counts its predecessor calls and delegates everything else."""

    def __init__(self, base):
        self.base, self.calls = base, 0

    def predecessor(self, p):
        self.calls += 1
        return self.base.predecessor(p)

    def __getattr__(self, name):
        return getattr(self.base, name)


@st.composite
def finite_systems(draw):
    """A random successor table on up to 12 points, one k x (2 - x) fiber per point.

    Every such table has a cycle; most have points with several preimages
    (no predecessor) and chains that run into them.
    """
    n = draw(st.integers(1, 12))
    succ = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ks = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    base = FiniteOrbitBase([float(i) for i in range(n)],
                           {float(i): float(j) for i, j in enumerate(succ)})
    maps = [FiberMap(1.0, lambda x, k=k: k * x * (2.0 - x)) for k in ks]
    return SkewSystem(base=base, fiber_at=lambda t: maps[int(t)], a=1.0)


def counting_noinvattr():
    """noinvattr(64) whose fiber maps count their evaluations in ``calls[0]``."""
    calls = [0]

    def counting(k):
        def f(x):
            calls[0] += 1
            return k * x * (2.0 - x)
        return FiberMap(1.0, f)

    strong, weak = counting(1.0), counting(0.25)
    sys_ = make_noinvattr(64)._replace(
        fiber_at=lambda t: strong if t >= 0.0 else weak
    )
    return sys_, calls


def _ref_largest_fixed_point(g):
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


@st.composite
def fixed_point_maps(draw):
    """A quadratic hump k x(1 - x), a logistic-scaled k x(2 - x) with k in (0, 1],
    or the cycle composition of two or three logistic-scaled maps, on [0, 1]."""
    if draw(st.booleans()):
        k = draw(st.floats(0.0, 4.0, exclude_min=True))
        return build_fiber({"form": "quadratic-hump", "k": k}, 1.0)
    ks = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3))
    maps = [build_fiber({"form": "logistic-scaled", "k": k}, 1.0) for k in ks]
    if len(maps) == 1:
        return maps[0]

    def comp(x):
        for fm in maps:
            x = fm(x)
        return x
    return FiberMap(1.0, comp, form=f"cycle-composition(k={len(maps)})")


class TestLargestFixedPoint:
    @settings(max_examples=150, deadline=None)
    @given(fixed_point_maps())
    def test_matches_reference_exactly(self, g):
        assert largest_fixed_point(g) == _ref_largest_fixed_point(g)

    def test_strong_map(self):
        assert largest_fixed_point(STRONG) == 1.0

    def test_weak_map_only_zero(self):
        assert largest_fixed_point(WEAK) == 0.0

    def test_identity_stays_at_endpoint(self):
        ident = FiberMap(1.0, lambda x: x)
        assert largest_fixed_point(ident) == 1.0

    def test_interior_fixed_point(self):
        # k x(2-x) = x at x = 2 - 1/k
        fm = FiberMap(1.0, lambda x: 0.9 * x * (2 - x))
        assert largest_fixed_point(fm) == pytest.approx(2 - 1 / 0.9, abs=1e-9)

    def test_scan_matches_iteration_on_monotone(self):
        # 0.8 x(2-x) = x at x = 2 - 1/0.8, in closed form
        fm = FiberMap(1.0, lambda x: 0.8 * x * (2 - x))
        assert largest_fixed_point(fm) == pytest.approx(2 - 1 / 0.8, abs=1e-9)

    def test_scan_handles_hump(self):
        # 4x(1-x) fixes 3/4; an iteration from 1 would bounce around it
        fm = FiberMap(1.0, lambda x: 4.0 * x * (1.0 - x))
        assert largest_fixed_point(fm) == pytest.approx(0.75, abs=1e-9)

    def test_neutral_fixed_point_is_exactly_zero(self):
        # k = 0.5: f(x) = x - x^2/2 has f'(0) = 1, so an iteration from 1
        # creeps towards 0 by steps of x^2/2 and stagnates near 2e-6
        fm = build_fiber({"form": "logistic-scaled", "k": 0.5}, 1.0)
        assert largest_fixed_point(fm) == 0.0

    def test_slow_contraction_reaches_rounding(self):
        # k = 0.75 fixes 2 - 1/0.75 = 2/3 with f'(2/3) = 0.5
        fm = build_fiber({"form": "logistic-scaled", "k": 0.75}, 1.0)
        assert abs(largest_fixed_point(fm) - 2.0 / 3.0) <= 1e-15

    def test_map_leaving_the_interval_refused(self):
        # 1.1x leaves [0, 1] at 1; bracketing past a once returned 1.000244140625
        with pytest.raises(InvariantError,
                           match=r"^f\(1\.0\) = 1\.1 leaves \[0, 1\.0\] \(map blackbox\)$"):
            largest_fixed_point(FiberMap(1.0, lambda x: 1.1 * x))


def csv_text(graph, base=None):
    """What `GraphFunction.to_csv` writes, as a string."""
    buf = io.StringIO()
    graph.to_csv(buf, base=base)
    return buf.getvalue()


def scalar_uniqueness(sys_, g1, g2, thetas, steps, eps):
    """`uniqueness_probe` by one scalar `value` call per graph and step."""
    records, flagged = [], 0
    for theta0 in thetas:
        cur, exceed, gmax = theta0, [], 0.0
        for n in range(steps + 1):
            gap = abs(g1.value(cur) - g2.value(cur))
            gmax = max(gmax, gap)
            if gap >= eps:
                exceed.append(n)
            cur = sys_.base.step(cur)
        is_flagged = any(n >= steps // 2 for n in exceed)
        flagged += is_flagged
        records.append(OrbitGapRecord(
            sys_.base.format_point(theta0), gmax, len(exceed),
            exceed[-1] if exceed else None, is_flagged,
        ))
    verdict = (
        "consistent with a single attractor" if flagged == 0
        else f"both cannot be attractors (gap persists on {flagged} orbits)"
    )
    return UniquenessReport(verdict, eps, steps, max(r.max_gap for r in records),
                            flagged, records)


def reference_grid_csv(grid):
    """Grid CSV written row by row, one repr(float(grid[j])) per node."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("point", "value"))
    m = len(grid)
    for j in range(m):
        writer.writerow([repr(j / m), repr(float(grid[j]))])
    return buf.getvalue()


@st.composite
def grid_graphs(draw):
    """A grid graph over [0, a] whose values reach 0, -0, a and subnormals."""
    a = draw(st.sampled_from([1.0, 0.3, 3.7, 1e-300]))
    special = st.sampled_from([0.0, -0.0, a, 5e-324, 2.2250738585e-313, a / 3.0])
    values = draw(st.lists(special | st.floats(0.0, a), min_size=1, max_size=300))
    return GraphFunction(a, grid=values)


class TestGraphFunction:
    def test_bounds_enforced(self):
        with pytest.raises(InvariantError):
            GraphFunction(1.0, table={0.0: 1.5})
        with pytest.raises(InvariantError):
            GraphFunction(1.0, grid=[0.2, -0.3])

    def test_nearest_node_lookup(self):
        g = GraphFunction(1.0, grid=[0.0, 0.25, 0.5, 0.75])
        assert g.value(0.26) == 0.25
        assert g.value(0.99) == 0.0  # wraps to node 0
        g8 = GraphFunction(1.0, grid=np.arange(8) / 8)
        assert g8.value(1 / 16) == 0.0 and g8.value(3 / 16) == 0.25  # ties to even

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_grid_lookup_refuses_non_finite_point(self, theta):
        g = GraphFunction(1.0, grid=[0.5, 0.25, 0.75, 0.0])
        message = f"^grid graph lookup needs a finite point, got {theta!r}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast warning must not come first
            with pytest.raises(DomainError, match=message):
                g.value(theta)
            with pytest.raises(DomainError, match=message):
                g.values([0.25, theta, 0.5])

    def test_coverage_error_names_point(self):
        g = GraphFunction(1.0, table={0.5: 0.3})
        with pytest.raises(CoverageError, match="0.75"):
            g.value(0.75)

    def test_values_off_the_table_name_the_first_missing_point(self):
        # a table graph answers on its points only; there is no default value
        g = GraphFunction(1.0, table={0.5: 0.3, 0.25: 0.6})
        with pytest.raises(CoverageError, match=r"^graph not defined at base point 0\.123$"):
            g.values([0.5, 0.123, 0.7])

    def test_exactly_one_representation(self):
        with pytest.raises(DomainError, match="exactly one of table/grid/func"):
            GraphFunction(1.0, table={0.0: 0.5}, func=lambda t: 0.5)

    def test_callable_graph_has_no_csv(self):
        with pytest.raises(CapabilityError, match="callable graphs have no CSV"):
            csv_text(GraphFunction(1.0, func=lambda t: 0.5))

    @pytest.mark.parametrize("text", ["", "theta,value\n0.0,0.5\n"], ids=["empty", "renamed"])
    def test_csv_header_required(self, text):
        with pytest.raises(ConfigError, match=r"must start with header \('point', 'value'\)"):
            GraphFunction.from_csv(io.StringIO(text), CircleRotation(0.3), 1.0)

    def test_empty_representations_refused(self):
        # an empty table has no positive fraction: it used to divide by zero
        with pytest.raises(DomainError, match="table representation must hold"):
            GraphFunction(1.0, table={})
        with pytest.raises(DomainError, match="1-d array"):
            GraphFunction(1.0, grid=[])

    @pytest.mark.parametrize(
        "graph, reference",
        [
            # the nearest of the 8 nodes, Python's round also rounding ties to even
            (GraphFunction(1.0, grid=GRID8), lambda t: GRID8[round((t % 1.0) * 8) % 8]),
            (GraphFunction(1.0, table={t: square(t) for t in THETAS}), square),
            (GraphFunction(1.0, func=square), square),
        ],
        ids=["grid", "table", "callable"],
    )
    def test_values_match_value(self, graph, reference):
        expected = [reference(t) for t in THETAS]
        assert list(graph.values(THETAS)) == expected
        assert [graph.value(t) for t in THETAS] == expected
        assert all(type(graph.value(t)) is float for t in THETAS)

    def test_csv_roundtrip_grid(self):
        base = CircleRotation(0.3)
        vals = np.linspace(0.0, 0.9, 64)
        g = GraphFunction(1.0, grid=vals)
        text = csv_text(g, base=base)
        g2 = GraphFunction.from_csv(io.StringIO(text), base, 1.0)
        assert np.array_equal(g2.grid, g.grid)

    @settings(max_examples=150, deadline=None)
    @given(grid_graphs())
    def test_grid_csv_matches_row_writer(self, g):
        assert csv_text(g) == reference_grid_csv(g.grid)

    def test_grid_csv_matches_row_writer_off_powers_of_two(self):
        rng = random.Random(5)
        for m in (1, 3, 7, 1000, 4099):
            vals = [rng.choice((0.0, 1.0, 5e-324, rng.random())) for _ in range(m)]
            g = GraphFunction(1.0, grid=vals)
            text = csv_text(g, base=CircleRotation(0.3))
            assert text == reference_grid_csv(g.grid)
            assert text.count("\n") == m + 1

    def test_csv_roundtrip_table(self):
        base = FiniteOrbitBase([0.25, 0.5], {0.25: 0.5, 0.5: 0.5})
        g = GraphFunction(1.0, table={0.25: 0.125, 0.5: 1 / 3})
        text = csv_text(g, base=base)
        g2 = GraphFunction.from_csv(io.StringIO(text), base, 1.0)
        assert g2.table == g.table


class TestBuildPreinvariant:
    def test_noinvattr_values(self):
        sys_ = make_noinvattr(16)
        g = build_preinvariant(sys_)
        assert g.value(1.0) == 1.0
        assert g.value(-1.0) == 0.0
        assert g.value(0.0) == 1.0  # chain values are the top endpoint

    def test_zero_map_orbit_pinned(self):
        base = FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 0.0})
        zero = FiberMap(1.0, lambda x: 0.0)
        sys_ = SkewSystem(
            base=base,
            fiber_at=lambda t: zero if t == 0.0 else STRONG,
            a=1.0,
        )
        g = build_preinvariant(sys_)
        assert g.value(0.0) == 0.0 and g.value(1.0) == 0.0

    def test_neutral_fixed_point_anchors_at_zero(self):
        # a one-point cycle under k = 0.5 x(2-x), whose only fixed point is 0
        neutral = build_fiber({"form": "logistic-scaled", "k": 0.5}, 1.0)
        sys_ = SkewSystem(
            base=FiniteOrbitBase([0.5], {0.5: 0.5}), fiber_at=lambda t: neutral, a=1.0
        )
        assert build_preinvariant(sys_).table == {0.5: 0.0}

    def test_coinflip_matches_predecessor_bit(self):
        sys_ = make_coinflip("one")
        words = [
            OneSidedWord((1, 0, 1), (0, 1)),
            OneSidedWord((), (1, 0, 0)),
            OneSidedWord((0, 0, 1, 1), (1,)),
        ]
        g = build_preinvariant(sys_, points=words)
        # on each cycle the value stored at a word equals the bit written
        # by its cyclic predecessor
        w = OneSidedWord((), (1, 0, 0))
        for _ in range(3):
            prev = OneSidedWord((), (w.cycle[-1],) + w.cycle[:-1])
            assert g.value(w) == float(prev.symbol(0))
            w = w.shifted()

    def test_open_chain_uses_forward_images(self):
        class Chain:
            def step(self, n):
                return n + 1

            def format_point(self, n):
                return str(n)

        halver = FiberMap(1.0, lambda x: x / 2.0)
        sys_ = SkewSystem(base=Chain(), fiber_at=lambda n: halver, a=1.0)
        g = build_preinvariant(sys_, points=[0])
        assert [g.value(n) for n in range(6)] == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]

    def test_requires_point_set(self):
        with pytest.raises(CapabilityError):
            build_preinvariant(make_keller())

    def test_empty_points_refused(self):
        # a finite base has its points: an empty list is the caller's error
        with pytest.raises(DomainError, match="^build_preinvariant needs at least one point$"):
            build_preinvariant(make_noinvattr(16), points=[])

    def test_each_distinct_map_scanned_once(self, monkeypatch):
        import skewlab.attractor as attractor

        scanned = []
        real = attractor.grid_max

        def counting(fm, grid_size):
            scanned.append(fm)
            return real(fm, grid_size)

        monkeypatch.setattr(attractor, "grid_max", counting)
        sys_ = make_noinvattr(64)
        graph = build_preinvariant(sys_)
        # 130 base points, but only the strong and the weak map
        assert len(sys_.base.points) == 130
        assert len(scanned) == 2 and scanned[0] is not scanned[1]
        assert graph.value(1.0) == 1.0 and graph.value(-1.0) == 0.0

    def test_cycle_entered_from_a_tail_anchors_only_the_cycle(self):
        # 0 -> 1 -> 2 -> 3 -> 1: the cycle anchors at the fixed point 2/3 of
        # 0.75 x(2-x) and is pushed around; its tail 0 keeps a
        fm = build_fiber({"form": "logistic-scaled", "k": 0.75}, 1.0)
        base = FiniteOrbitBase([0.0, 1.0, 2.0, 3.0], {0.0: 1.0, 1.0: 2.0, 2.0: 3.0, 3.0: 1.0})
        table = build_preinvariant(SkewSystem(base, lambda t: fm, 1.0)).table
        assert sorted(table) == [0.0, 1.0, 2.0, 3.0] and table[0.0] == 1.0
        assert table[1.0] == pytest.approx(2 / 3, abs=1e-12)
        assert table[2.0] == fm(table[1.0]) and table[3.0] == fm(table[2.0])

    def test_walk_without_a_revisit_takes_the_open_chain(self):
        # no revisit within the limit max(64, 4 x 1): 64 points take the
        # forward images of a, and the graph answers nowhere else
        class Chain:
            def step(self, n):
                return n + 1

        halver = FiberMap(1.0, lambda x: x / 2.0)
        g = build_preinvariant(SkewSystem(Chain(), lambda n: halver, 1.0), points=[0])
        assert g.table == {n: 0.5**n for n in range(64)}
        with pytest.raises(CoverageError, match=r"^graph not defined at base point 64$"):
            g.value(64)

    @pytest.mark.parametrize("word, period", [("0~~0@0", 1), ("01~~01@0", 2)])
    def test_fixed_two_sided_words_are_cycles(self, word, period):
        # a cycle anchors at the fixed point 2/3 of 0.75 x(2-x); an open chain
        # would start at a
        fm = build_fiber({"form": "logistic-scaled", "k": 0.75}, 1.0)
        sys_ = SkewSystem(SymbolicShift("two"), lambda w: fm, 1.0)
        table = build_preinvariant(sys_, points=[TwoSidedWord.parse(word)]).table
        assert len(table) == period
        assert all(v == pytest.approx(2 / 3, abs=1e-12) for v in table.values())

    def test_walk_stops_at_the_join(self):
        # 2 closes the cycle 3 -> 4 -> 3 in three steps; 0 joins it at 2 in
        # two more, and walks no further
        class CountingBase:
            steps = 0

            def step(self, t):
                self.steps += 1
                return {0: 1, 1: 2, 2: 3, 3: 4, 4: 3}[t]

        base = CountingBase()
        table = build_preinvariant(SkewSystem(base, lambda t: STRONG, 1.0), points=[2, 0]).table
        assert base.steps == 5
        assert sorted(table) == [0, 1, 2, 3, 4] and table[0] == table[1] == 1.0

    def test_fixed_two_sided_word_stored_once(self):
        sys_ = make_coinflip("two")
        zero = sys_.base.zero_word()
        graph = build_preinvariant(sys_, points=[zero])
        assert len(graph.table) == 1
        assert graph.value(zero) == graph.value(zero.shifted()) == 0.0


NO_PREDECESSOR = "^no pullback at {}: the point has no unique predecessor$"


class TestPullbackPhi:
    def test_noinvattr_halves(self):
        sys_ = make_noinvattr(64)
        seq = pullback_phi(sys_, 0.0, 40, stop_delta=0.0)
        assert seq.depth_used == 40
        assert all(v <= 2.0 ** -(n + 1) for n, v in enumerate(seq.values))
        assert seq.nonincreasing()

    def test_depth_one_is_single_preimage_image(self):
        sys_ = make_keller(omega=0.3)
        seq = pullback_phi(sys_, 0.5, 1)
        expected = sys_.fiber_at(sys_.base.predecessor(0.5))(1.0)
        assert seq.values == [expected]

    def test_constant_family_converges_to_largest_fixed_point(self):
        fm = FiberMap(1.0, lambda x: 0.9 * x * (2 - x), monotone=True)
        sys_ = SkewSystem(base=CircleRotation(0.43), fiber_at=lambda t: fm, a=1.0)
        seq = pullback_phi(sys_, 0.2, 2000)
        assert seq.values[-1] == pytest.approx(largest_fixed_point(fm), abs=1e-8)

    def test_one_sided_shift_refused(self):
        sys_ = make_coinflip("one")
        with pytest.raises(CapabilityError, match=NO_PREDECESSOR.format(re.escape("|0"))):
            pullback_phi(sys_, OneSidedWord((), (0,)), 5)

    def test_base_without_predecessor_refused(self):
        class ForwardOnly:  # a base that steps forward and never back
            def step(self, t):
                return t

        sys_ = SkewSystem(base=ForwardOnly(), fiber_at=lambda t: STRONG, a=1.0)
        with pytest.raises(CapabilityError, match="^base provides no predecessor map$"):
            pullback_phi(sys_, 0.0, 5)

    def test_point_with_two_preimages_refused(self):
        # the fixed point 1.0 and the absorbed end of the chain both map to 1.0
        with pytest.raises(CapabilityError, match=NO_PREDECESSOR.format(r"1\.0")):
            pullback_phi(make_noinvattr(8), 1.0, 5)

    def test_truncated_backward_orbit(self):
        sys_ = make_noinvattr(8)
        seq = pullback_phi(sys_, 0.0, 100, stop_delta=0.0)
        assert seq.truncated and seq.depth_used < 100

    def test_stop_rule_before_orbit_end_is_not_truncated(self):
        # phi_1 = phi_2 = 1 stops the query at depth 2, within the chain
        seq = pullback_phi(make_noinvattr(64), 0.9, 1000)
        assert seq.values == [1.0, 1.0]
        assert seq.depth_used == 2 and not seq.truncated

    @pytest.mark.parametrize("sys_, theta", [
        (make_keller(), 0.3),
        (SkewSystem(SymbolicShift("two"),
                    ProductFamily(build_fiber({"form": "logistic-scaled", "k": 0.9}, 1.0)),
                    1.0),
         TwoSidedWord.parse("0~0110101~1@3")),
        (make_noinvattr(8), 0.0),
    ], ids=["keller", "two-sided-shift", "noinvattr-chain"])
    def test_backward_orbit_read_only_as_far_as_composed(self, sys_, theta):
        base = CountingPredecessors(sys_.base)
        seq = pullback_phi(sys_._replace(base=base), theta, 4000)
        assert seq.depth_used < 4000
        # one predecessor per composed map, and one more where the orbit ends
        assert base.calls == seq.depth_used + seq.truncated
        assert seq.values == pullback_phi(sys_, theta, 4000).values


class TestPullbackGrid:
    def test_monotone_and_converged(self):
        res = pullback_grid(make_keller(), grid_size=512, depth=2000)
        assert res.monotone_ok
        assert res.delta < 1e-12
        # lambda(0.5) = log 2 + 2 log((1 + sqrt 0.5) / 2) ~ 0.376 > 0: positive graph
        assert positive_fraction(res.graph) == 1.0

    def test_deeper_sweep_lies_below(self):
        # with no stop, depth s ends on sweep s
        shallow, deep = (
            pullback_grid(make_keller(), grid_size=256, depth=s, stop_delta=0.0)
            for s in (10, 50)
        )
        assert (shallow.sweeps, deep.sweeps) == (10, 50)
        assert np.all(deep.graph.grid <= shallow.graph.grid + 1e-12)

    def test_scalar_path_matches_fast_path(self):
        # the sweep applies the (f, g) that fiber_at composes: same floats
        for sys_ in (make_keller(), keller_k07()):
            scalar = SkewSystem(
                base=sys_.base, fiber_at=lambda t: sys_.fiber_at(t), a=sys_.a
            )
            r_fast = pullback_grid(sys_, grid_size=128, depth=60, stop_delta=0.0)
            r_scalar = pullback_grid(scalar, grid_size=128, depth=60, stop_delta=0.0)
            assert r_fast.graph.grid.tolist() == r_scalar.graph.grid.tolist()

    def test_first_sweep_never_stops(self):
        # f = x(2 - x) fixes 1 and g = 1, so phi_1 = a at every node: the rule
        # measures that change from a and stops at sweep 2, never at sweep 1
        sys_ = make_product({"form": "logistic-scaled", "k": 1.0}, {"form": "constant", "c": 1.0},
                            CircleRotation(GOLDEN_ROTATION))
        res = pullback_grid(sys_, grid_size=64, depth=100)
        assert (res.sweeps, res.delta) == (2, 0.0)
        assert res.graph.grid.tolist() == [1.0] * 64

    def test_requires_circle(self):
        with pytest.raises(CapabilityError):
            pullback_grid(make_noinvattr(8), grid_size=64, depth=5)


class TestPullbackSweep:
    @settings(max_examples=80, deadline=None)
    @given(finite_systems(), st.integers(1, 60))
    def test_sweep_matches_composition(self, sys_, depth):
        for stop_delta in (0.0, 1e-12):
            graph, depths = pullback_graph_finite(sys_, depth, stop_delta=stop_delta)
            for p, (value, used) in reference_node_set(sys_, depth, stop_delta).items():
                assert (graph.table[p], depths[repr(p)]) == (value, used)
            for p in sys_.base.points:
                values, truncated = reference_pullback(sys_, p, depth, stop_delta)
                if not values:
                    with pytest.raises(CapabilityError, match="no unique predecessor"):
                        pullback_phi(sys_, p, depth, stop_delta=stop_delta)
                    continue
                seq = pullback_phi(sys_, p, depth, stop_delta=stop_delta)
                assert seq.values == values
                assert seq.truncated == truncated

    @pytest.mark.parametrize("stop_delta", [PULLBACK_STOP_DELTA, 0.0],
                             ids=["early-stop", "no-early-stop"])
    def test_finite_and_pointwise_agree_on_noinvattr(self, stop_delta):
        # the node set stops once the largest change of its moving points is
        # below the stop delta, so each point runs at least as deep as its own
        # query, and its value is its composition to the depth it used; with no
        # stop, each point's finite value and depth are its query's
        sys_ = make_noinvattr(64)
        graph, depths = pullback_graph_finite(sys_, 1000, stop_delta=stop_delta)
        queried = 0
        for p in sys_.base.points:
            used = depths[sys_.base.format_point(p)]
            if used == 0:  # no unique predecessor: the point keeps a, and a query raises
                assert graph.table[p] == sys_.a
                with pytest.raises(CapabilityError, match="no unique predecessor"):
                    pullback_phi(sys_, p, 1000, stop_delta=stop_delta)
                continue
            seq = pullback_phi(sys_, p, 1000, stop_delta=stop_delta)
            if stop_delta:
                assert seq.depth_used <= used
                assert pullback_phi(sys_, p, used, stop_delta=0.0).values[-1] == graph.table[p]
            else:
                assert seq.values[-1] == graph.table[p]
                assert seq.depth_used == used
            queried += 1
        assert queried == len(sys_.base.points) - 2

    def test_default_finite_pullback_is_the_no_early_stop_one_on_noinvattr(self):
        # the strong map fixes 1, so phi_1 = phi_2 = 1 at the upper chain points;
        # the node set moves on while its lower points still change
        sys_ = make_noinvattr(64)
        fmt = sys_.base.format_point
        (graph, depths), (full, full_depths) = (
            pullback_graph_finite(sys_, 1000, stop_delta=s) for s in (PULLBACK_STOP_DELTA, 0.0)
        )
        differ = [p for p in sys_.base.points
                  if (graph.table[p], depths[fmt(p)]) != (full.table[p], full_depths[fmt(p)])]
        assert differ == [-1.0]
        # the closed orbit at -1 goes on contracting: both values are nearly 0
        assert 0.0 < full.table[-1.0] <= graph.table[-1.0] < 1e-30
        assert depths[fmt(-1.0)] < full_depths[fmt(-1.0)] == 1000

    def test_nan_change_never_stops_the_sweeps(self):
        # the moving nodes change by [0, 0, NaN] in every sweep: a max that
        # skipped the NaN would read 0 and stop at sweep 2
        calls = [0]

        def nan_map(x):
            calls[0] += 1
            return math.nan

        maps = {0.0: FiberMap(1.0, lambda x: x), 1.0: FiberMap(1.0, nan_map),
                2.0: FiberMap(1.0, lambda x: 1.0)}
        base = FiniteOrbitBase([0.0, 1.0, 2.0], {0.0: 0.0, 1.0: 2.0, 2.0: 1.0})
        sys_ = SkewSystem(base=base, fiber_at=maps.__getitem__, a=1.0)
        with pytest.raises(InvariantError, match=r"^graph value nan at 2\.0 leaves"):
            pullback_graph_finite(sys_, 50)
        assert calls[0] == 50

    def test_closed_circle_orbit_matches_composition(self):
        # omega = 1/4: the backward orbit of 1/8 closes after four exact steps
        sys_ = make_keller(omega=0.25)
        seq = pullback_phi(sys_, 0.125, 300, stop_delta=0.0)
        values, truncated = reference_pullback(sys_, 0.125, 300, 0.0)
        assert len(seq.values) == 300 and not seq.truncated and not truncated
        assert seq.values == values

    @pytest.mark.parametrize("word", ["01~~01@0", "011~~011@1", "0010~~0010@2"])
    def test_periodic_two_sided_word_matches_composition(self, word):
        strong = FiberMap(1.0, lambda x: 0.9 * x * (2.0 - x))
        weak = FiberMap(1.0, lambda x: 0.5 * x * (2.0 - x))
        sys_ = SkewSystem(base=SymbolicShift("two"),
                          fiber_at=lambda w: strong if w.symbol(0) else weak, a=1.0)
        theta = TwoSidedWord.parse(word)
        period = len(word.split("~")[0])
        back = theta
        for _ in range(period):
            back = sys_.base.predecessor(back)
        assert back == theta  # the backward orbit closes after the period
        for depth, stop_delta in ((200, 0.0), (2000, 1e-12)):
            seq = pullback_phi(sys_, theta, depth, stop_delta=stop_delta)
            values, _ = reference_pullback(sys_, theta, depth, stop_delta)
            assert len(values) > 4 * period
            assert seq.values == values and not seq.truncated

    def test_open_query_cost_triangular(self):
        # the golden rotation's backward orbits never close; each phi_n is
        # composed afresh, so a query that stops at n makes n(n+1)/2 calls
        keller = make_keller()
        calls = [0]

        def counting_fiber_at(theta):
            fm = keller.fiber_at(theta)

            def f(x):
                calls[0] += 1
                return fm(x)
            return FiberMap(1.0, f)

        sys_ = keller._replace(fiber_at=counting_fiber_at)
        for theta in (0.3, 0.0625, 0.9):
            calls[0] = 0
            seq = pullback_phi(sys_, theta, 4000)
            n = seq.depth_used
            assert 2 <= n < 4000 and not seq.truncated
            assert calls[0] <= n * (n + 1) // 2
            assert seq.values == pullback_phi(keller, theta, 4000).values

    def test_cost_linear_in_depth(self):
        sys_, calls = counting_noinvattr()
        runs = {
            "finite graph": lambda d: pullback_graph_finite(sys_, d, stop_delta=0.0),
            "query at -1": lambda d: pullback_phi(sys_, -1.0, d, stop_delta=0.0),
        }
        for name, run in runs.items():
            evals = []
            for depth in (1000, 2000):
                calls[0] = 0
                run(depth)
                evals.append(calls[0])
            assert evals[0] >= 1000, name
            assert evals[1] <= 2.1 * evals[0], (name, evals)


class TestVerifyAttractor:
    def test_noinvattr_forward_attraction(self):
        sys_ = make_noinvattr(16)
        g = build_preinvariant(sys_)
        verdict = verify_attractor(sys_, g, [(0.0, 0.5)], steps=20, tol=1e-9)
        assert verdict.verdict == "attracting"
        rec = verdict.records[0]
        assert rec.achieved_step is not None and rec.achieved_step <= 5

    def test_pinned_fiber_never_attracted(self):
        sys_ = make_noinvattr(16)
        g = build_preinvariant(sys_)
        verdict = verify_attractor(sys_, g, [(0.0, 0.0)], steps=30, tol=1e-3)
        assert verdict.verdict == "not-attracting"
        assert verdict.records[0].achieved_step is None

    def test_coinflip_two_exact(self):
        sys_ = make_coinflip("two")
        g = coinflip_attractor_graph()
        w = TwoSidedWord((0,), (1, 1, 0, 1), (0,), 0)
        verdict = verify_attractor(sys_, g, [(w, 0.0), (w, 1.0)], steps=10, tol=1e-15)
        for rec in verdict.records:
            assert rec.achieved_step <= 1 and rec.max_dev_after == 0.0

    def test_empty_starts_refused(self):
        sys_ = make_noinvattr(8)
        graph = build_preinvariant(sys_)
        with pytest.raises(DomainError, match="at least one start"):
            verify_attractor(sys_, graph, [], 10, 1e-9)
        with pytest.raises(DomainError, match="at least one start"):
            match_fraction(sys_, graph, 3, [])

    def test_coverage_error_propagates(self):
        sys_ = make_noinvattr(8)
        sparse = GraphFunction(1.0, table={0.0: 1.0})
        with pytest.raises(CoverageError):
            verify_attractor(sys_, sparse, [(0.0, 0.5)], steps=5, tol=1e-6)

    @given(
        eps=st.floats(0.0, 1.0),
        starts=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0)),
            min_size=1, max_size=12,
        ),
        steps=st.integers(1, 150),
        tol=st.floats(1e-6, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_orbits_match_scalar_path(self, eps, starts, steps, tol):
        batched = make_keller(q_spec={"form": "sin-squared", "c": 1.0, "eps": eps})
        scalar = batched._replace(fiber_at=lambda t: batched.fiber_at(t))
        graph = pullback_grid(batched, grid_size=256, depth=300).graph
        fast = verify_attractor(batched, graph, starts, steps, tol)
        slow = verify_attractor(scalar, graph, starts, steps, tol)
        expected = reference_records(scalar, graph, starts, steps, tol)
        assert [(r.achieved_step, r.max_dev_after) for r in slow.records] == expected
        assert fast.verdict == slow.verdict
        assert fast.records == slow.records
        n = 1 + steps // 2
        assert match_fraction(batched, graph, n, starts, tol) == match_fraction(
            scalar, graph, n, starts, tol
        )

    @given(sys_=finite_systems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_finite_table_records_match_start_by_start(self, sys_, data):
        pts = sys_.base.points
        if data.draw(st.booleans(), label="pullback graph"):
            graph, _ = pullback_graph_finite(sys_, 40)
        else:
            graph = GraphFunction(
                1.0, table={p: data.draw(st.floats(0.0, 1.0)) for p in pts}
            )
        starts = data.draw(st.lists(
            st.tuples(st.sampled_from(pts), st.floats(0.0, 1.0)), min_size=1, max_size=12
        ))
        steps = data.draw(st.integers(1, 60))
        tol = data.draw(st.floats(1e-6, 0.5))
        if data.draw(st.booleans(), label="a start leaves [0, 1]"):
            # the orbit of a start meets the exit point after 0..3 steps
            theta = data.draw(st.sampled_from(starts))[0]
            for _ in range(data.draw(st.integers(0, 3))):
                theta = sys_.base.step(theta)
            sys_ = exiting_at(sys_, theta)
        assert_verify_matches_reference(sys_, graph, starts, steps, tol)

    @given(sided=st.sampled_from(["one", "two"]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_records_match_start_by_start(self, sided, data):
        bits = st.lists(st.integers(0, 1), max_size=6).map(tuple)
        cycle = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
        if sided == "one":
            words = st.builds(OneSidedWord, bits, cycle)
            read = st.integers(0, 4)
        else:
            words = st.builds(TwoSidedWord, cycle, bits, cycle, st.integers(-3, 3))
            read = st.integers(-4, 4)
        k = data.draw(read, label="symbol read by the graph")
        graph = GraphFunction(1.0, func=lambda w: float(w.symbol(k)))
        starts = data.draw(st.lists(
            st.tuples(words, st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=12
        ))
        steps = data.draw(st.integers(1, 12))
        tol = data.draw(st.sampled_from([1e-15, 0.5, 0.75]))
        sys_ = make_coinflip(sided)
        if data.draw(st.booleans(), label="a start leaves [0, 1]"):
            word = data.draw(st.sampled_from(starts))[0]
            for _ in range(data.draw(st.integers(0, 3))):
                word = word.shifted()
            sys_ = exiting_at(sys_, word)
        assert_verify_matches_reference(sys_, graph, starts, steps, tol)

    @pytest.mark.parametrize("sys_, exit_point, good, bad", [
        # chain indices 0 -> 1 -> 2 on noinvattr(8); the fixed points stay put
        (make_noinvattr(8), 1.0 - 1.0 / 3.0, [-1.0, 1.0], 0.0),
        (make_coinflip("one"), OneSidedWord((1, 1, 0), (1,)),
         [OneSidedWord((), (0,)), OneSidedWord((), (0, 1))],
         OneSidedWord((0, 0, 1, 1, 0), (1,))),
        (make_coinflip("two"), TwoSidedWord((0,), (1, 1), (0,), 0),
         [TwoSidedWord((0,), (), (0,), 0), TwoSidedWord((1,), (), (1,), 0)],
         TwoSidedWord((0,), (1, 1), (0,), -2)),
    ], ids=["finite", "one-sided", "two-sided"])
    def test_one_start_leaving_later_fails_as_step_does(self, sys_, exit_point, good, bad):
        sys_ = exiting_at(sys_, exit_point)
        starts = [(good[0], 0.5), (bad, 0.25), (good[1], 0.75)]
        graph = GraphFunction(1.0, func=lambda t: 0.5)
        # the bad start meets the exit map at step 2 and is refused at step 3
        theta2, x2 = step_orbit(sys_, (bad, 0.25), 2)[-1]
        assert theta2 == exit_point
        message = f"fiber coordinate {x2 + 1.5!r} outside [0, 1.0]"
        with pytest.raises(DomainError) as ref:
            step_orbit(sys_, (bad, 0.25), 4)
        assert str(ref.value) == walk_error(sys_, starts, 4) == message
        assert verify_attractor(sys_, graph, starts, 3, 0.1).steps == 3
        for run in (lambda: verify_attractor(sys_, graph, starts, 4, 0.1),
                    lambda: match_fraction(sys_, graph, 4, starts, 0.1)):
            with pytest.raises(DomainError) as exc:
                run()
            assert str(exc.value) == message

    def test_batched_records_equal_scalar_records(self):
        batched = keller_k07()
        scalar = batched._replace(fiber_at=lambda t: batched.fiber_at(t))
        graph = pullback_grid(batched, grid_size=256, depth=300).graph
        rng = random.Random(7)
        starts = [(rng.random(), rng.random()) for _ in range(200)]
        fast = verify_attractor(batched, graph, starts, 100, 1e-3)
        slow = verify_attractor(scalar, graph, starts, 100, 1e-3)
        assert fast.records == slow.records
        assert any(r.max_dev_after for r in slow.records)

    def test_circle_verification_holds_one_block(self):
        sys_ = make_keller()
        graph = keller_graph()
        rng = random.Random(8)

        def peak(count, steps):
            starts = [(rng.random(), rng.random()) for _ in range(count)]
            tracemalloc.start()
            try:
                verdict = verify_attractor(sys_, graph, starts, steps, 0.01)
                return starts, verdict, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block holds at most BLOCK_VALUES values of each of its arrays; the
        # 5001 x 200 deviations of the 2-D reduction alone take 8 MB
        starts, verdict, held = peak(200, 5000)
        assert held < 1_000_000
        records = [(r.achieved_step, r.max_dev_after) for r in verdict.records]
        assert records == reference_2d_records(sys_, graph, starts, 5000, 0.01)
        assert len({n for n, _ in records}) > 10
        # a block of 50 000 starts is one step: a longer walk holds no more
        assert peak(50_000, 100)[2] <= 1.25 * peak(50_000, 3)[2]

    def test_nan_deviation_stays_in_the_tail(self):
        # a fibre map giving NaN: the last step's deviation is NaN, which
        # never misses tol and stays in the tail, as in the 2-D reduction
        sys_ = SkewSystem(CircleRotation(GOLDEN_ROTATION),
                          ProductFamily(FiberMap(1.0, lambda x: x * math.nan)), 1.0)
        assert walks_arrays(sys_)
        graph = GraphFunction(1.0, grid=[0.0, 0.5, 0.25, 1.0])
        starts = [(0.1, 0.0), (0.3, 0.5), (0.6, 0.25), (0.9, 0.75)]
        for tol in (0.1, 0.3, 1.0):
            verdict = verify_attractor(sys_, graph, starts, 1, tol)
            records = [(r.achieved_step, r.max_dev_after) for r in verdict.records]
            want = reference_2d_records(sys_, graph, starts, 1, tol)
            assert repr(records) == repr(want)
            assert any(n is not None for n, _ in want)
            assert all(math.isnan(dev) for n, dev in want if n is not None)

    @pytest.mark.parametrize("x0", [-0.25, 1.5])
    def test_start_outside_fiber_raises_on_both_paths(self, x0):
        batched = make_keller()
        scalar = batched._replace(fiber_at=lambda t: batched.fiber_at(t))
        graph = GraphFunction(1.0, func=lambda t: 0.5)
        messages = []
        for sys_ in (batched, scalar):
            with pytest.raises(DomainError, match="outside") as exc:
                verify_attractor(sys_, graph, [(0.1, 0.5), (0.2, x0)], steps=3, tol=1e-3)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == f"fiber coordinate {x0!r} outside [0, 1.0]"


def last_of_orbits(sys_, thetas, xs, steps):
    for thetas, xs in orbits(sys_, thetas, xs, steps):
        pass
    return thetas, xs


def generic(sys_):
    """sys_ with its fibre family hidden behind a lambda: no SymbolTable."""
    return sys_._replace(fiber_at=lambda t: sys_.fiber_at(t))


class TestSwappedFibreFamily:
    """A product system's batch form is its ``fiber_at``: replacing the
    family walks the new one, batched or not."""

    @pytest.mark.parametrize("batched", [True, False], ids=["family", "lambda"])
    def test_keller_with_other_fibres_walks_them(self, batched):
        eps3 = make_keller(q_spec={"form": "sin-squared", "c": 1.0, "eps": 0.3})
        family = eps3.fiber_at
        assert isinstance(family, ProductFamily)
        swapped = make_keller()._replace(
            fiber_at=family if batched else lambda t: family(t)
        )
        assert walks_arrays(swapped) is batched

        got, ref = (pullback_grid(s, grid_size=128, depth=300) for s in (swapped, eps3))
        assert got.graph.grid.tolist() == ref.graph.grid.tolist()
        assert got._replace(graph=None) == ref._replace(graph=None)

        rng = random.Random(5)
        starts = [(rng.random(), rng.random()) for _ in range(40)]
        thetas, xs = [t for t, _ in starts], [x for _, x in starts]
        ends = (
            [list(map(float, v)) for v in last_of_orbits(s, thetas, xs, 60)]
            for s in (swapped, eps3)
        )
        assert next(ends) == next(ends)
        graph = ref.graph
        assert verify_attractor(swapped, graph, starts, 60, 1e-3) == verify_attractor(
            eps3, graph, starts, 60, 1e-3
        )


def shift_starts(sided, data):
    bits = st.lists(st.integers(0, 1), max_size=6).map(tuple)
    cycle = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
    if sided == "one":
        words = st.builds(OneSidedWord, bits, cycle)
    else:
        words = st.builds(TwoSidedWord, cycle, bits, cycle, st.integers(-4, 4))
    return data.draw(st.lists(
        st.tuples(words, st.sampled_from([0.0, 0.25, 1.0])), min_size=1, max_size=12
    ))


def walk_outcome(sys_, thetas, xs, steps, *graphs):
    """Every step that `orbits` yields, exactly: the points (as words and as
    their fields), the fiber coordinates' hex and the graph values' repr;
    then the type and message of what the walk raised, or None."""
    seen = []
    try:
        for ts, xs_n, *values in orbits(sys_, thetas, xs, steps, *graphs):
            seen.append((list(ts), [tuple(t) for t in ts], [x.hex() for x in xs_n],
                         [[repr(v) for v in vs] for vs in values]))
    except (DomainError, InvariantError) as exc:
        return seen, (type(exc), str(exc))
    return seen, None


def stepwise_orbits(sys_, thetas, xs, steps, *graphs):
    """The array walk one step at a time: xs_n = fm.f(xs) * family.factors(thetas)
    and thetas_n = (thetas + omega) % 1.0, every graph read at every step."""
    family, omega = sys_.fiber_at, sys_.base.omega
    thetas, xs = np.asarray(thetas, dtype=float), np.asarray(xs, dtype=float)
    for n in range(steps + 1):
        if n:
            xs = family.fm.f(xs) * family.factors(thetas)
            thetas = (thetas + omega) % 1.0
        yield (thetas, xs, *[g.values(thetas) for g in graphs])


def array_outcome(walk):
    """Every step of an array walk as bytes and hex, then the message of the
    DomainError it raised, or None."""
    seen = []
    try:
        for ts, xs, *values in walk:
            seen.append((ts.tobytes(), xs.tobytes(),
                         *[[float(v).hex() for v in vs] for vs in values]))
    except DomainError as exc:
        return seen, str(exc)
    return seen, None


def overflowing(x):
    """2x, or NaN once 1e309 x overflows (x above about 0.18)."""
    return 2.0 * x + (x * 1e308 * 10.0 - x * 1e308 * 10.0)


class TestOrbits:
    """Each batch form of `orbits` yields, at every step, what the list walk
    of the same system with its fibres hidden (`generic`) yields."""

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 200, 201])
    def test_blocked_array_walk_matches_one_step_at_a_time(self, count):
        # B steps make a block; the walk crosses none, one and three block ends
        sys_ = keller_k07()
        rows = block_rows(count)
        rng = random.Random(count)
        thetas = [rng.random() for _ in range(count)]
        xs = [rng.random() for _ in range(count)]
        graphs = (GraphFunction(1.0, grid=GRID8), GraphFunction(1.0, func=square))
        for steps in sorted({0, 1, rows - 1, rows, rows + 1, 3 * rows + 5}):
            # every yielded array is kept: a later block overwrites none of them
            got = array_outcome(list(orbits(sys_, thetas, xs, steps, *graphs)))
            want = array_outcome(stepwise_orbits(sys_, thetas, xs, steps, *graphs))
            assert got == want
            assert len(got[0]) == steps + 1

    def test_non_finite_start_fails_in_graph_order(self):
        # every step's graphs are read in order, so the callable graph listed
        # first refuses the NaN start before the grid graph does
        def finite_only(t):
            if not math.isfinite(t):
                raise DomainError(f"callable graph refuses {t!r}")
            return 0.5

        for graphs in ([GraphFunction(1.0, func=finite_only), GraphFunction(1.0, grid=GRID8)],
                       [GraphFunction(1.0, grid=GRID8), GraphFunction(1.0, func=finite_only)]):
            got, want = (array_outcome(walk(keller_k07(), [0.1, math.nan], [0.5, 0.5], 3, *graphs))
                         for walk in (orbits, stepwise_orbits))
            assert got == want
            assert not got[0] and got[1].startswith("callable" if graphs[0].func else "grid")

    @pytest.mark.parametrize("f, bad", [(lambda x: 2.0 * x, 2.0), (overflowing, math.nan)],
                             ids=["leaves", "nan"])
    def test_fibre_failing_inside_a_block_fails_as_the_list_walk(self, f, bad):
        # start 117 doubles from 2^-(B + 3) and leaves [0, 1] (or turns NaN)
        # in the middle of the second block; start 150 does at the same step
        sys_ = SkewSystem(CircleRotation(GOLDEN_ROTATION), ProductFamily(FiberMap(1.0, f)), 1.0)
        rows = block_rows(200)
        xs = [2.0 ** -1000] * 200
        xs[117], xs[150] = 2.0 ** -(rows + 3), 1.5 * 2.0 ** -(rows + 4)
        thetas = [random.Random(i).random() for i in range(200)]
        graph = GraphFunction(1.0, grid=GRID8)
        with np.errstate(over="ignore", invalid="ignore"):
            got = array_outcome(orbits(sys_, thetas, xs, 3 * rows, graph))
            want = array_outcome(stepwise_orbits(sys_, thetas, xs, len(got[0]) - 1, graph))
        walked = 0
        with pytest.raises(DomainError) as exc:
            for _ in orbits(generic(sys_), thetas, xs, 3 * rows, graph):
                walked += 1
        assert got == (want[0], str(exc.value))
        assert str(exc.value) == f"fiber coordinate {bad!r} outside [0, 1.0]"
        assert len(got[0]) == walked and rows < walked < 2 * rows

    @given(sided=st.sampled_from(["one", "two"]), steps=st.integers(0, 25), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_symbol_walk_matches_list_walk(self, sided, steps, data):
        sys_ = make_coinflip(sided)
        assert walks_symbols(sys_) and not walks_symbols(generic(sys_))
        starts = shift_starts(sided, data)
        thetas, xs = [t for t, _ in starts], [x for _, x in starts]
        offset = st.integers(-2, 3)
        in_range = st.sampled_from([0.0, 0.25, 1.0])
        outside = st.sampled_from([0.5, 1.5, -0.25, float("nan")])
        graphs = [
            GraphFunction(1.0, func=SymbolTable(data.draw(offset), data.draw(
                st.tuples(in_range, in_range)))),
            GraphFunction(1.0, func=SymbolTable(data.draw(offset), data.draw(
                st.tuples(in_range, outside)))),
            GraphFunction(1.0, func=lambda w: float(w.symbol(2))),
        ]
        for walked in ([], *([g] for g in graphs)):
            got = walk_outcome(sys_, thetas, xs, steps, *walked)
            assert got == walk_outcome(generic(sys_), thetas, xs, steps, *walked)
            if got[1] is None:
                assert len(got[0]) == steps + 1

    def test_finite_walk_matches_step(self):
        sys_ = make_noinvattr(8)
        rng = random.Random(3)
        starts = [(rng.choice(sys_.base.points), rng.random()) for _ in range(40)]
        graph = build_preinvariant(sys_)
        for n, (ts, xs, values) in enumerate(orbits(sys_, *zip(*starts), 30, graph)):
            points = [step_orbit(sys_, point, n)[-1] for point in starts]
            assert ts == [t for t, _ in points]
            assert [x.hex() for x in xs] == [x.hex() for _, x in points]
            assert values == [graph.value(t) for t in ts]

    def test_array_walk_matches_list_walk(self):
        sys_ = keller_k07()
        rng = random.Random(4)
        thetas = [rng.random() for _ in range(40)]
        xs = [rng.random() for _ in thetas]
        graphs = (GraphFunction(1.0, grid=GRID8), GraphFunction(1.0, func=square))
        walks = zip(orbits(sys_, thetas, xs, 50, *graphs),
                    orbits(generic(sys_), thetas, xs, 50, *graphs))
        for (ts, xs_n, grid, func), (lts, lxs, lgrid, lfunc) in walks:
            assert isinstance(xs_n, np.ndarray)
            assert ts.tobytes() == np.array(lts).tobytes()
            assert xs_n.tobytes() == np.array(lxs).tobytes()
            assert grid.tobytes() == lgrid.tobytes()
            assert [v.hex() for v in func] == [v.hex() for v in lfunc]

    def test_base_alone(self):
        sys_ = make_coinflip("two")
        words = sys_.base.sample_points(5, random.Random(2))
        walk = list(orbits(sys_, words, None, 6))
        assert [xs for _, xs in walk] == [None] * 7
        assert [list(ts) for ts, _ in walk] == [[w.advanced(n) for w in words] for n in range(7)]

    @pytest.mark.parametrize("steps", [-1, 1.0, True])
    def test_steps_must_be_a_count(self, steps):
        # a negative count would yield no step at all, not even the starts
        with pytest.raises(DomainError, match="^steps must be"):
            next(orbits(make_noinvattr(8), [1.0], [0.5], steps))

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_exiting_symbol_map_fails_as_step_does(self, sided):
        # symbol 1 sends x to x + 1.5, which the next step refuses
        fibers = SymbolTable(0, [FiberMap(1.0, lambda x: 0.5 * x, form="half"), EXIT])
        sys_ = make_coinflip(sided)._replace(fiber_at=fibers)
        starts = [(sys_.base.zero_word(), 0.5)]
        if sided == "one":
            starts += [(OneSidedWord((0, 0, 1), (0,)), 0.25), (OneSidedWord((1,), (0,)), 1.0)]
        else:
            starts += [(TwoSidedWord((1,), (0, 0, 1), (0,), 0), 0.25),
                       (TwoSidedWord((0,), (1,), (0,), 0), 1.0)]
        assert last_of_orbits(sys_, *zip(*starts), 1)[1] == [0.25, 0.125, 2.5]
        graph = GraphFunction(1.0, func=lambda w: 0.0)
        # the third start is refused at step 1, the second at step 3
        for starts, bad in ((starts, 2.5), (starts[:2], 1.5625)):
            message = walk_error(sys_, starts, 4)
            assert message == f"fiber coordinate {bad!r} outside [0, 1.0]"
            thetas, xs = [t for t, _ in starts], [x for _, x in starts]
            for run in (lambda: last_of_orbits(sys_, thetas, xs, 4),
                        lambda: last_of_orbits(generic(sys_), thetas, xs, 4),
                        lambda: match_fraction(sys_, graph, 4, starts)):
                with pytest.raises(DomainError) as exc:
                    run()
                assert str(exc.value) == message

    def test_match_fraction_reads_symbol_streams(self):
        # the symbol walk builds each word once, when the graph reads it,
        # never through base.step, and counts what the list walk counts
        sys_ = make_coinflip("one")
        calls = []
        shift = sys_.base.step
        sys_.base.step = lambda w: calls.append(w) or shift(w)
        rng = random.Random(11)
        starts = [
            (OneSidedWord(tuple(rng.randrange(2) for _ in range(rng.randrange(30))),
                          tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))),
             rng.choice([0.0, 0.5, 1.0]))
            for _ in range(100)
        ]
        graphs = [GraphFunction(1.0, func=lambda w: 0.0),
                  GraphFunction(1.0, func=lambda w: 0.5),
                  GraphFunction(1.0, func=lambda w: float(w.symbol(2)))]
        for n in range(1, 26):
            for tol in (0.0, 0.5):
                for graph in graphs:
                    fraction = match_fraction(sys_, graph, n, starts, tol)
                    assert calls == []
                    assert fraction == match_fraction(generic(sys_), graph, n, starts, tol)
                    assert len(calls) == n * len(starts)
                    calls.clear()

    @pytest.mark.parametrize("case", ["coinflip-one-words", "noinvattr"])
    def test_match_fraction_equals_blocks_of_32(self, case):
        # one pass over every start counts what walking them 32 at a time counts
        if case == "coinflip-one-words":
            sys_ = make_coinflip("one")
            rng = random.Random(20260809)
            starts = [(OneSidedWord(tuple(rng.randrange(2) for _ in range(20)), (0,)), 0.0)
                      for _ in range(1000)]
            graphs = [GraphFunction(1.0, func=lambda w: 0.0),
                      GraphFunction(1.0, func=lambda w: float(w.symbol(3)))]
        else:
            sys_ = make_noinvattr(16)
            rng = random.Random(4)
            starts = [(rng.choice(sys_.base.points), rng.random()) for _ in range(300)]
            graphs = [build_preinvariant(sys_), pullback_graph_finite(sys_, 5)[0]]
        for graph in graphs:
            for n, tol in [(1, 0.0), (5, 1e-3), (20, 0.0), (20, 0.25)]:
                hits = 0
                for i in range(0, len(starts), 32):
                    block = starts[i:i + 32]
                    thetas, xs = last_of_orbits(
                        sys_, [t for t, _ in block], [x for _, x in block], n)
                    hits += sum(abs(x - v) <= tol for x, v in zip(xs, graph.values(thetas)))
                assert match_fraction(sys_, graph, n, starts, tol) == hits / len(starts)


HALF = FiberMap(1.0, lambda x: 0.5 * x, form="half")


def hidden(graph):
    """graph with its symbol table hidden behind a lambda: no SymbolTable."""
    return GraphFunction(graph.a, func=lambda w: graph.func(w))


def verify_outcome(sys_, graph, starts, steps, tol):
    """verify_attractor's verdict, or the type and message of what it raised."""
    try:
        return verify_attractor(sys_, graph, starts, steps, tol)
    except (DomainError, InvariantError) as exc:
        return type(exc), str(exc)


class TestVerifyOnSymbolStreams:
    """A shift system and graph declared as `SymbolTable`s verify on symbol
    streams with the records and failures of the generic `orbits` walk."""

    @given(sided=st.sampled_from(["one", "two"]), catalog_graph=st.booleans(),
           steps=st.integers(1, 25), tol=st.sampled_from([1e-15, 0.5, 0.75]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_records_match_generic_path(self, sided, catalog_graph, steps, tol, data):
        sys_ = make_coinflip(sided)
        if sided == "two" and catalog_graph:
            graph = coinflip_attractor_graph()
        else:
            offset = data.draw(st.integers(0 if sided == "one" else -3, 3), label="offset")
            values = data.draw(st.tuples(*[st.sampled_from([0.0, 0.25, 1.0])] * 2))
            graph = GraphFunction(1.0, func=SymbolTable(offset, values))
        starts = shift_starts(sided, data)
        got = verify_attractor(sys_, graph, starts, steps, tol)
        assert got == verify_attractor(generic(sys_), hidden(graph), starts, steps, tol)

    @given(sided=st.sampled_from(["one", "two"]), steps=st.integers(1, 12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_failures_match_generic_path(self, sided, steps, data):
        # maps that leave [0, 1], graph values outside it, negative offsets
        # on one-sided words: the first failure of the generic walk, or none
        maps = data.draw(st.tuples(*[st.sampled_from([HALF, EXIT])] * 2), label="maps")
        fibers = SymbolTable(data.draw(st.integers(-1, 2), label="fibre offset"), maps)
        values = data.draw(st.tuples(*[st.sampled_from(
            [0.0, 0.5, 1.0, 1.5, -0.25, float("nan")])] * 2), label="graph values")
        table = SymbolTable(data.draw(st.integers(-2, 2), label="graph offset"), values)
        sys_ = make_coinflip(sided)._replace(fiber_at=fibers)
        graph = GraphFunction(1.0, func=table)
        starts = shift_starts(sided, data)
        got = verify_outcome(sys_, graph, starts, steps, 1e-3)
        assert got == verify_outcome(generic(sys_), hidden(graph), starts, steps, 1e-3)

    @pytest.mark.parametrize("sided, fibers, graph, error", [
        # start 1's symbol 2 selects EXIT at step 3: x = 0.5 / 8 + 1.5 is
        # refused at step 4, before start 2 meets EXIT
        ("two", SymbolTable(0, [HALF, EXIT]), coinflip_attractor_graph(),
         (DomainError, "fiber coordinate 1.625 outside [0, 1.0]")),
        # start 1's symbol 2 is the graph's symbol -1 at step 3, start 2's at step 4
        ("two", None, GraphFunction(1.0, func=SymbolTable(-1, (0.0, 2.0))),
         (InvariantError, "graph value 2.0 at 0~0011~0@3 leaves [0, 1.0]")),
        ("one", None, coinflip_attractor_graph(),
         (DomainError, "one-sided words have no negative coordinates")),
        # fibres at a negative offset are first read at step 1, after the
        # graph's step-0 values
        ("one", SymbolTable(-1, [HALF, HALF]),
         GraphFunction(1.0, func=SymbolTable(0, (1.5, 0.0))),
         (InvariantError, "graph value 1.5 at |0 leaves [0, 1.0]")),
    ], ids=["map-leaves", "graph-value-outside", "one-sided-negative-offset",
            "one-sided-negative-fibre-offset"])
    def test_each_failure_as_on_the_generic_path(self, sided, fibers, graph, error):
        sys_ = make_coinflip(sided)
        if fibers is not None:
            sys_ = sys_._replace(fiber_at=fibers)
        zero = sys_.base.zero_word()
        if sided == "one":
            starts = [(zero, 0.5), (OneSidedWord((0, 0, 0, 1), (0,)), 0.5)]
        else:
            starts = [(zero, 0.5), (TwoSidedWord((0,), (0, 0, 1, 1), (0,), 0), 0.5),
                      (TwoSidedWord((0,), (0, 0, 0, 1), (0,), 0), 0.5)]
        assert verify_outcome(sys_, graph, starts, 6, 1e-3) == error
        assert verify_outcome(generic(sys_), hidden(graph), starts, 6, 1e-3) == error

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_stream_path_makes_no_base_step(self, sided):
        sys_ = make_coinflip(sided)
        calls = []
        shift = sys_.base.step
        sys_.base.step = lambda w: calls.append(w) or shift(w)
        graph = GraphFunction(1.0, func=SymbolTable(2, (0.0, 1.0)))
        starts = [(w, x) for w in sys_.base.sample_points(20, random.Random(5))
                  for x in (0.0, 1.0)]
        verdict = verify_attractor(sys_, graph, starts, 25, 1e-15)
        assert calls == []
        assert verdict == verify_attractor(generic(sys_), hidden(graph), starts, 25, 1e-15)
        assert len(calls) == 25 * len(starts)

    @pytest.mark.parametrize("offset, values, message", [
        (0, (HALF,), "a symbol table needs one value per symbol 0 and 1, got 1"),
        (0, (0.0, 0.5, 1.0), "a symbol table needs one value per symbol 0 and 1, got 3"),
        (0.5, (0.0, 1.0), "symbol index 0.5 is not an integer"),
    ])
    def test_table_declaration_checked(self, offset, values, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SymbolTable(offset, values)


def per_start_preinvariance(sys_, graph, theta, horizon, tol):
    """One start's `verify_preinvariance` report, walked step by step with a
    scalar read per point; a grid graph reads its nearest node by round."""
    def value(t):
        if graph.grid is None:
            return graph.value(t)
        m = len(graph.grid)
        return float(graph.grid[round((t % 1.0) * m) % m])

    residuals = []
    cur, here = theta, None  # here: the graph value at cur, read once
    for _ in range(horizon):
        nxt = sys_.base.step(cur)
        psi = sys_.fiber_at(cur)
        if here is None:
            here = value(cur)
        image = psi(here)
        here = value(nxt)
        residuals.append(abs(image - here))
        cur = nxt
    bad = [n for n, r in enumerate(residuals) if r > tol]
    first_violation = bad[0] if bad else None
    first_good = bad[-1] + 1 if bad else 0
    if first_good >= horizon:
        return (False, None, first_violation, None, horizon, tol)
    return (True, first_good, first_violation, max(residuals[first_good:]), horizon, tol)


def preinvariance_cases():
    """(system, graph, starts) for a Keller grid, the noinvattr table graph and
    coinflip-two's `SymbolTable` graph."""
    keller = make_keller()
    m = 64
    grid = pullback_grid(keller, grid_size=m, depth=200).graph
    rng = random.Random(29)
    # (j + 0.5)/m lies halfway between two nodes: ties go to the even node
    circle = ([(j + 0.5) / m for j in range(m)] + [j / m for j in range(0, m, 5)]
              + [rng.random() for _ in range(20)] + [0.999999, 1.0, 2.5, -0.3])
    noinv = make_noinvattr(16)
    two = make_coinflip("two")
    words = [TwoSidedWord((rng.randrange(2),), tuple(rng.randrange(2) for _ in range(k)),
                          (rng.randrange(2),), rng.randrange(-3, 4)) for k in range(12)]
    return {
        "keller-grid": (keller, grid, circle),
        "noinvattr-table": (noinv, build_preinvariant(noinv), list(noinv.base.points)),
        "coinflip-two-symbols": (two, coinflip_attractor_graph(), words),
    }


class TestVerifyPreinvariance:
    @pytest.mark.parametrize("case, outcomes", [
        ("keller-grid", {True, False}),
        ("noinvattr-table", {True, False}),
        ("coinflip-two-symbols", {True}),  # an exact attractor
    ], ids=["keller-grid", "noinvattr-table", "coinflip-two-symbols"])
    def test_batched_equals_per_start(self, case, outcomes):
        sys_, graph, starts = preinvariance_cases()[case]
        seen = set()
        for horizon, tol in [(1, 1e-6), (7, 1e-3), (30, 0.05), (40, 1e-12)]:
            reps = verify_preinvariance(sys_, graph, starts, horizon, tol)
            assert len(reps) == len(starts)
            for theta, rep in zip(starts, reps):
                want = per_start_preinvariance(sys_, graph, theta, horizon, tol)
                assert tuple(rep) == want
                assert [type(v) for v in rep] == [type(v) for v in want]
                seen.add(rep.ok)
        assert seen == outcomes

    def test_empty_thetas_refused(self):
        sys_ = make_noinvattr(8)
        graph = build_preinvariant(sys_)
        with pytest.raises(DomainError, match="^verify_preinvariance needs at least one theta$"):
            verify_preinvariance(sys_, graph, [], 5, 1e-9)
        # horizon and tol are checked first
        with pytest.raises(DomainError, match="^horizon must be >= 1, got 0$"):
            verify_preinvariance(sys_, graph, [], 0, 1e-9)
        with pytest.raises(DomainError, match="^tol: must be a positive number, got 0.0$"):
            verify_preinvariance(sys_, graph, [], 5, 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, math.inf])
    def test_tol_must_be_positive(self, tol):
        # against a NaN or infinite tol every deviation passes; against tol <= 0 none does
        sys_ = make_noinvattr(8)
        graph = build_preinvariant(sys_)
        message = f"^tol: must be a positive number, got {tol!r}$"
        with pytest.raises(DomainError, match=message):
            verify_preinvariance(sys_, graph, [0.0], 5, tol)
        with pytest.raises(DomainError, match=message):
            verify_attractor(sys_, graph, [(0.0, 0.5)], 5, tol)

    def test_pullback_graph_immediately_preinvariant_at_nodes(self):
        # one-step residuals at grid nodes are bounded by the stop delta; the
        # node lattice is exactly aligned with the nearest-node predecessor
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=512, depth=2000)
        reps = verify_preinvariance(sys_, res.graph, [j / 512 for j in (0, 37, 255, 511)], 1, 1e-6)
        assert len(reps) == 4
        for rep in reps:
            assert rep.ok and rep.first_good_n == 0
            assert rep.max_tail_residual <= 10 * max(res.delta, 1e-13)

    def test_pullback_graph_on_finite_base_preinvariant_along_orbits(self):
        sys_ = make_noinvattr(32)
        graph, _depths = pullback_graph_finite(sys_, 60)
        theta = sys_.base.parse_point("-0.5")
        (rep,) = verify_preinvariance(sys_, graph, [theta], 40, 1e-6)
        assert rep.ok

    def test_constructed_graph_has_finite_transient(self):
        sys_ = make_noinvattr(16)
        g = build_preinvariant(sys_)
        theta = sys_.base.parse_point("-0.5")
        (rep,) = verify_preinvariance(sys_, g, [theta], 60, 1e-9)
        assert rep.ok and rep.first_good_n >= 1

    def test_top_constant_fails_where_maps_pull_down(self):
        sys_ = make_keller()
        top = GraphFunction(1.0, func=lambda theta: 1.0)
        (rep,) = verify_preinvariance(sys_, top, [0.2], 5, 1e-6)
        assert not rep.ok or rep.first_good_n > 0
        assert rep.first_violation == 0

    def test_each_orbit_point_read_once(self):
        sys_ = keller_k07()
        graph = GraphFunction(1.0, func=lambda t: 0.5 + 0.25 * math.sin(7 * t))
        calls = []
        real = graph.values
        graph.values = lambda ts: calls.append(list(ts)) or real(ts)
        (rep,) = verify_preinvariance(sys_, graph, [0.2], 50, 1.0)
        cur, path, residuals = 0.2, [0.2], []
        for _ in range(50):
            nxt = sys_.base.step(cur)
            residuals.append(abs(sys_.fiber_at(cur)(graph.func(cur)) - graph.func(nxt)))
            path.append(nxt)
            cur = nxt
        assert calls == [path] and len(set(path)) == 51
        assert rep.ok and rep.max_tail_residual == max(residuals)

    def test_point_off_the_base_fails_in_the_base_step(self):
        # the base step meets the point before the graph does
        sys_ = make_noinvattr(8)
        graph = GraphFunction(1.0, table={1.0: 1.0})
        with pytest.raises(DomainError, match="not in the base"):
            verify_preinvariance(sys_, graph, [0.123], 5, 1e-9)
        # every orbit is walked before the graph is read: 0.0 is missing
        # from the table, but the later start fails first
        with pytest.raises(CoverageError):
            verify_preinvariance(sys_, graph, [0.0], 5, 1e-9)
        with pytest.raises(DomainError, match="not in the base"):
            verify_preinvariance(sys_, graph, [0.0, 0.123], 5, 1e-9)


class TestUniquenessProbe:
    def test_equal_graphs(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=500)
        rep = uniqueness_probe(sys_, res.graph, res.graph, [0.1, 0.7], 50, 1e-9)
        assert rep.max_gap == 0.0 and rep.flagged_orbits == 0

    def test_offset_graph_flagged(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=500)
        shifted = GraphFunction(
            1.0, grid=np.minimum(res.graph.grid + 0.2, 1.0)
        )
        rep = uniqueness_probe(sys_, res.graph, shifted, [0.1, 0.7, 0.33], 60, 0.05)
        assert rep.flagged_orbits == 3
        assert "cannot be attractors" in rep.verdict

    def test_finite_depth_pair_agrees(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=400, stop_delta=0.0)
        g_half = pullback_grid(sys_, grid_size=256, depth=200, stop_delta=0.0).graph
        rng = random.Random(1)
        rep = uniqueness_probe(
            sys_, g_half, res.graph, [rng.random() for _ in range(20)], 50, 1e-6
        )
        assert rep.flagged_orbits == 0

    @pytest.mark.parametrize("kind", ["grid-callable", "table-callable", "table-table"])
    def test_records_match_scalar_walk(self, kind):
        if kind == "grid-callable":
            sys_ = make_keller()
            g1 = pullback_grid(sys_, grid_size=128, depth=60, stop_delta=0.0).graph
            g2 = GraphFunction(1.0, func=lambda t: 0.75 + 0.2 * math.sin(9.0 * t))
            thetas = [0.0, 0.1, 0.3, 0.77]
        else:
            sys_ = make_noinvattr(8)
            g1 = build_preinvariant(sys_)
            g2 = (GraphFunction(1.0, func=lambda t: 0.5) if kind == "table-callable"
                  else pullback_graph_finite(sys_, 3)[0])
            thetas = list(sys_.base.points)
        for steps, eps in [(1, 0.1), (12, 0.05), (40, 1e-9)]:
            rep = uniqueness_probe(sys_, g1, g2, thetas, steps, eps)
            assert rep == scalar_uniqueness(sys_, g1, g2, thetas, steps, eps)
            assert all(type(r.max_gap) is float for r in rep.records)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_must_be_positive(self, steps):
        # no step compares anything, which must not read as agreement
        sys_ = make_noinvattr(8)
        g1 = build_preinvariant(sys_)
        g2 = GraphFunction(1.0, func=lambda theta: 0.0)
        with pytest.raises(DomainError, match=f"^steps must be >= 1, got {steps}$"):
            uniqueness_probe(sys_, g1, g2, [0.0, 0.5], steps, 0.1)

    def test_empty_thetas_refused(self):
        sys_ = make_noinvattr(8)
        g1 = build_preinvariant(sys_)
        g2 = GraphFunction(1.0, func=lambda theta: 0.0)
        message = "^uniqueness_probe needs at least one theta$"
        with pytest.raises(DomainError, match=message):
            uniqueness_probe(sys_, g1, g2, [], 10, 0.1)
        rep = uniqueness_probe(sys_, g1, g2, [1.0], 1, 0.1)
        assert rep.flagged_orbits == 1 and len(rep.records) == 1

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_eps_must_be_positive(self, eps):
        sys_ = make_noinvattr(8)
        g1 = build_preinvariant(sys_)
        g2 = GraphFunction(1.0, func=lambda theta: 0.0)
        with pytest.raises(DomainError, match=f"^eps: must be a positive number, got {eps!r}$"):
            uniqueness_probe(sys_, g1, g2, [0.0, 0.5], 10, eps)


def _range_checks():
    """(name, low, call of one value): every count check in front of a walk or sweep."""
    noinv, keller = make_noinvattr(8), make_keller()
    graph = GraphFunction(1.0, func=lambda t: 0.5)
    starts = [(0.0, 0.5)]
    return [
        ("depth", 1, lambda v: pullback_phi(noinv, 0.0, v)),
        ("depth", 1, lambda v: pullback_grid(keller, 64, depth=v)),
        ("depth", 1, lambda v: pullback_graph_finite(noinv, v)),
        ("grid_size", 8, lambda v: pullback_grid(keller, v, depth=5)),
        ("steps", 1, lambda v: verify_attractor(noinv, graph, starts, v, 0.1)),
        ("steps", 1, lambda v: uniqueness_probe(noinv, graph, graph, [0.0], v, 0.1)),
        ("horizon", 1, lambda v: verify_preinvariance(noinv, graph, [0.0], v, 0.1)),
        ("n", 1, lambda v: match_fraction(noinv, graph, v, starts)),
        ("sample_count", 1, lambda v: classify(noinv, v)),
        ("sample count", 1, lambda v: keller.base.sample_points(v, random.Random(0))),
        ("window", 1, lambda v: make_noinvattr(v)),
    ]


@pytest.mark.parametrize("check", range(11))
def test_range_errors_state_the_value(check):
    name, low, run = _range_checks()[check]
    for value in (low - 1, -3):
        with pytest.raises(DomainError, match=f"^{name} must be >= {low}, got {value}$"):
            run(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, True])
@pytest.mark.parametrize("check", range(11))
def test_counts_must_be_integers(check, value):
    # range() would refuse these with a bare TypeError, and True would run as 1
    name, _, run = _range_checks()[check]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run(value)


@pytest.mark.parametrize("check", range(11))
def test_numpy_integer_counts_accepted(check):
    _, low, run = _range_checks()[check]
    run(np.int64(low))


class TestHelpers:
    def test_positive_fraction(self):
        g = GraphFunction(1.0, grid=[0.0, 0.5, 1e-12, 0.7])
        assert positive_fraction(g) == 0.5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-40, max_value=20))
    def test_positive_fraction_scales_with_a(self, k):
        # Keller's graph with three nodes at the threshold, all scaled by 2^k:
        # at a = 2^-30 every Keller value lies below an absolute 1e-9
        grid = keller_graph().grid.copy()
        grid[:3] = [5e-10, 1e-9, 2e-9]
        c = 2.0 ** k
        assert positive_fraction(GraphFunction(1.0, grid=grid)) == 1.0 - 2 / len(grid)
        assert positive_fraction(GraphFunction(c, grid=grid * c)) == 1.0 - 2 / len(grid)

    def test_positive_fraction_of_table_and_callable(self):
        g = GraphFunction(1.0, table={0.0: 1e-12, 0.25: 0.5, 0.5: 0.7, 0.75: 0.9})
        assert positive_fraction(g) == 0.75
        with pytest.raises(DomainError, match="needs a stored representation"):
            positive_fraction(GraphFunction(1.0, func=lambda t: 0.5))

    def test_match_fraction_coinflip(self):
        sys_ = make_coinflip("one")
        flat = GraphFunction(1.0, func=lambda w: 0.0)
        rng = random.Random(5)
        starts = [
            (OneSidedWord(tuple(rng.randrange(2) for _ in range(6)), (0,)), 0.0)
            for _ in range(400)
        ]
        freq = match_fraction(sys_, flat, 6, starts, tol=0.0)
        assert 0.35 <= freq <= 0.65
        assert freq == sum(step_orbit(sys_, s, 6)[-1][1] == 0.0 for s in starts) / len(starts)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_match_fraction_tol_must_be_nonnegative(self, tol):
        # against a negative or NaN tol no deviation counts as a match, silently,
        # and against inf every deviation does
        sys_ = make_coinflip("one")
        flat = GraphFunction(1.0, func=lambda w: 0.0)
        starts = [(OneSidedWord((), (0,)), 0.0)]
        assert match_fraction(sys_, flat, 3, starts, tol=0.0) == 1.0
        message = f"^tol: must be a nonnegative number, got {tol!r}$"
        with pytest.raises(DomainError, match=message):
            match_fraction(sys_, flat, 3, starts, tol=tol)

    def test_finite_pullback_needs_a_point_set(self):
        with pytest.raises(CapabilityError, match="needs an enumerable base"):
            pullback_graph_finite(make_keller(), 5)

    def test_finite_pullback_graph(self):
        sys_ = make_noinvattr(32)
        graph, depths = pullback_graph_finite(sys_, 20)
        assert graph.value(-1.0) <= 2.0 ** -20  # weak map at most halves
        assert graph.value(1.0) == 1.0
        assert graph.value(0.0) <= 2.0 ** -20
