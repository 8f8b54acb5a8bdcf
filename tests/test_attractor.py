import dataclasses
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.attractor import (
    GraphFunction,
    _largest_fixed_point_scan,
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
from skewlab.bases import CircleRotation, FiniteOrbitBase, OneSidedWord, TwoSidedWord
from skewlab.catalog import (
    coinflip_attractor_graph,
    make_coinflip,
    make_keller,
    make_noinvattr,
)
from skewlab.errors import CapabilityError, CoverageError, DomainError, InvariantError
from skewlab.fiber import FiberMap
from skewlab.skew import SkewSystem, orbit

STRONG = FiberMap(1.0, lambda x: x * (2 - x), gamma=1.0, alpha=1.0, b=1.0, monotone=True)
WEAK = FiberMap(1.0, lambda x: x * (2 - x) / 4.0, gamma=0.25, alpha=0.25, b=1.0, monotone=True)


def reference_records(sys_, graph, starts, steps, tol):
    """(achieved_step, max_dev_after) per start, walked start by start with `step`."""
    out = []
    for point in starts:
        devs = [abs(x - graph.value(theta)) for theta, x in orbit(sys_, point, steps)]
        achieved = max((n + 1 for n, d in enumerate(devs) if d >= tol), default=0)
        out.append((achieved, max(devs[achieved:])) if achieved <= steps else (None, None))
    return out


class TestLargestFixedPoint:
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
        fm = FiberMap(1.0, lambda x: 0.8 * x * (2 - x))
        assert _largest_fixed_point_scan(fm) == pytest.approx(
            largest_fixed_point(fm), abs=1e-9
        )

    def test_scan_handles_hump(self):
        # 4x(1-x) fixes 3/4; the iterative route would bounce around it
        fm = FiberMap(1.0, lambda x: 4.0 * x * (1.0 - x))
        assert _largest_fixed_point_scan(fm) == pytest.approx(0.75, abs=1e-9)


class TestGraphFunction:
    def test_bounds_enforced(self):
        with pytest.raises(InvariantError):
            GraphFunction.from_table(1.0, {0.0: 1.5})
        with pytest.raises(InvariantError):
            GraphFunction.from_grid(1.0, [0.2, -0.3])

    def test_nearest_node_lookup(self):
        g = GraphFunction.from_grid(1.0, [0.0, 0.25, 0.5, 0.75])
        assert g.value(0.26) == 0.25
        assert g.value(0.99) == 0.0  # wraps to node 0
        g8 = GraphFunction.from_grid(1.0, np.arange(8) / 8)
        assert g8.value(1 / 16) == 0.0 and g8.value(3 / 16) == 0.25  # ties to even

    def test_coverage_error_names_point(self):
        g = GraphFunction.from_table(1.0, {0.5: 0.3})
        with pytest.raises(CoverageError, match="0.75"):
            g.value(0.75)

    def test_fallback(self):
        g = GraphFunction.from_table(1.0, {0.5: 0.3}, fallback=1.0)
        assert g.value(0.123) == 1.0

    @pytest.mark.parametrize(
        "graph",
        [
            GraphFunction.from_grid(1.0, np.linspace(0.0, 0.875, 8)),
            GraphFunction.from_table(1.0, {0.5: 0.3, 0.25: 0.6}, fallback=1.0),
            GraphFunction.from_callable(1.0, lambda t: (t % 1.0) ** 2),
        ],
        ids=["grid", "table", "callable"],
    )
    def test_values_match_value(self, graph):
        thetas = [0.0, 1 / 16, 3 / 16, 0.25, 0.5, 0.7, 0.99, 0.999999, -0.3, 2.5625]
        assert np.array_equal(graph.values(thetas), [graph.value(t) for t in thetas])

    def test_csv_roundtrip_grid(self):
        base = CircleRotation(0.3)
        vals = np.linspace(0.0, 0.9, 64)
        g = GraphFunction.from_grid(1.0, vals, provenance="pullback")
        text = g.to_csv_string(base=base)
        g2 = GraphFunction.from_csv(io.StringIO(text), base, 1.0)
        assert np.array_equal(g2.grid, g.grid)

    def test_csv_roundtrip_table(self):
        base = FiniteOrbitBase([0.25, 0.5], {0.25: 0.5, 0.5: 0.5})
        g = GraphFunction.from_table(1.0, {0.25: 0.125, 0.5: 1 / 3})
        text = g.to_csv_string(base=base)
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
        g = build_preinvariant(sys_, points=[0], orbit_limit=6)
        assert [g.value(n) for n in range(6)] == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]

    def test_requires_point_set(self):
        with pytest.raises(CapabilityError):
            build_preinvariant(make_keller())


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
        assert seq.limit() == pytest.approx(largest_fixed_point(fm), abs=1e-8)

    def test_one_sided_shift_refused(self):
        sys_ = make_coinflip("one")
        with pytest.raises(CapabilityError):
            pullback_phi(sys_, OneSidedWord((), (0,)), 5)

    def test_truncated_backward_orbit(self):
        sys_ = make_noinvattr(8)
        seq = pullback_phi(sys_, 0.0, 100, stop_delta=0.0, allow_partial=True)
        assert seq.truncated and seq.depth_used < 100


class TestPullbackGrid:
    def test_monotone_and_converged(self):
        res = pullback_grid(make_keller(), grid_size=512, depth=2000)
        assert res.monotone_ok
        assert res.delta < 1e-12
        # lambda(0.5) = log 2 + 2 log((1 + sqrt 0.5) / 2) ~ 0.376 > 0: positive graph
        assert positive_fraction(res.graph) == 1.0

    def test_snapshots_taken(self):
        res = pullback_grid(
            make_keller(), grid_size=256, depth=50, stop_delta=0.0, snapshots=[10, 50]
        )
        assert set(res.snapshots) == {10, 50}
        assert np.all(res.snapshots[50] <= res.snapshots[10] + 1e-12)

    def test_scalar_path_matches_fast_path(self):
        sys_ = make_keller()
        scalar = SkewSystem(
            base=sys_.base, fiber_at=sys_.fiber_at, a=sys_.a, product_parts=None
        )
        r_fast = pullback_grid(sys_, grid_size=128, depth=60, stop_delta=0.0)
        r_scalar = pullback_grid(scalar, grid_size=128, depth=60, stop_delta=0.0)
        assert np.allclose(r_fast.graph.grid, r_scalar.graph.grid, atol=1e-12)

    def test_requires_circle(self):
        with pytest.raises(CapabilityError):
            pullback_grid(make_noinvattr(8), grid_size=64, depth=5)


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

    def test_coverage_error_propagates(self):
        sys_ = make_noinvattr(8)
        sparse = GraphFunction.from_table(1.0, {0.0: 1.0})
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
        scalar = dataclasses.replace(batched, product_parts=None)
        graph = pullback_grid(batched, grid_size=256, depth=300).graph
        fast = verify_attractor(batched, graph, starts, steps, tol)
        slow = verify_attractor(scalar, graph, starts, steps, tol)
        expected = reference_records(scalar, graph, starts, steps, tol)
        assert [(r.achieved_step, r.max_dev_after) for r in slow.records] == expected
        assert fast.verdict == slow.verdict
        for r_fast, r_slow in zip(fast.records, slow.records, strict=True):
            assert r_fast.achieved_step == r_slow.achieved_step
            if r_slow.max_dev_after is None:
                assert r_fast.max_dev_after is None
            else:
                assert r_fast.max_dev_after == pytest.approx(r_slow.max_dev_after, abs=1e-12)
        n = 1 + steps // 2
        assert match_fraction(batched, graph, n, starts, tol) == match_fraction(
            scalar, graph, n, starts, tol
        )

    @pytest.mark.parametrize("x0", [-0.25, 1.5])
    def test_start_outside_fiber_raises_on_both_paths(self, x0):
        batched = make_keller()
        scalar = dataclasses.replace(batched, product_parts=None)
        graph = GraphFunction.from_callable(1.0, lambda t: 0.5)
        messages = []
        for sys_ in (batched, scalar):
            with pytest.raises(DomainError, match="outside") as exc:
                verify_attractor(sys_, graph, [(0.1, 0.5), (0.2, x0)], steps=3, tol=1e-3)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == f"fiber coordinate {x0!r} outside [0, 1.0]"


class TestVerifyPreinvariance:
    def test_pullback_graph_immediately_preinvariant_at_nodes(self):
        # one-step residuals at grid nodes are bounded by the stop delta; the
        # node lattice is exactly aligned with the nearest-node predecessor
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=512, depth=2000)
        for j in (0, 37, 255, 511):
            rep = verify_preinvariance(sys_, res.graph, j / 512, 1, 1e-6)
            assert rep.ok and rep.first_good_n == 0
            assert rep.max_tail_residual <= 10 * max(res.delta, 1e-13)

    def test_pullback_graph_on_finite_base_preinvariant_along_orbits(self):
        sys_ = make_noinvattr(32)
        graph, _depths = pullback_graph_finite(sys_, 60)
        theta = sys_.base.parse_point("-0.5")
        rep = verify_preinvariance(sys_, graph, theta, 40, 1e-6)
        assert rep.ok

    def test_constructed_graph_has_finite_transient(self):
        sys_ = make_noinvattr(16)
        g = build_preinvariant(sys_)
        theta = sys_.base.parse_point("-0.5")
        rep = verify_preinvariance(sys_, g, theta, 60, 1e-9)
        assert rep.ok and rep.first_good_n >= 1

    def test_top_constant_fails_where_maps_pull_down(self):
        sys_ = make_keller()
        top = GraphFunction.from_callable(1.0, lambda theta: 1.0)
        rep = verify_preinvariance(sys_, top, 0.2, 5, 1e-6)
        assert not rep.ok or rep.first_good_n > 0
        assert rep.first_violation == 0


class TestUniquenessProbe:
    def test_equal_graphs(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=500)
        rep = uniqueness_probe(sys_, res.graph, res.graph, [0.1, 0.7], 50, 1e-9)
        assert rep.max_gap == 0.0 and rep.flagged_orbits == 0

    def test_offset_graph_flagged(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=500)
        shifted = GraphFunction.from_grid(
            1.0, np.minimum(res.graph.grid + 0.2, 1.0)
        )
        rep = uniqueness_probe(sys_, res.graph, shifted, [0.1, 0.7, 0.33], 60, 0.05)
        assert rep.flagged_orbits == 3
        assert "cannot be attractors" in rep.verdict

    def test_finite_depth_pair_agrees(self):
        sys_ = make_keller()
        res = pullback_grid(sys_, grid_size=256, depth=400, stop_delta=0.0,
                            snapshots=[200])
        g_half = GraphFunction.from_grid(1.0, res.snapshots[200])
        rng = random.Random(1)
        rep = uniqueness_probe(
            sys_, g_half, res.graph, [rng.random() for _ in range(20)], 50, 1e-6
        )
        assert rep.flagged_orbits == 0


class TestHelpers:
    def test_positive_fraction(self):
        g = GraphFunction.from_grid(1.0, [0.0, 0.5, 1e-12, 0.7])
        assert positive_fraction(g) == 0.5

    def test_match_fraction_coinflip(self):
        sys_ = make_coinflip("one")
        flat = GraphFunction.from_callable(1.0, lambda w: 0.0)
        rng = random.Random(5)
        starts = [
            (OneSidedWord(tuple(rng.randrange(2) for _ in range(6)), (0,)), 0.0)
            for _ in range(400)
        ]
        freq = match_fraction(sys_, flat, 6, starts, tol=0.0)
        assert 0.35 <= freq <= 0.65
        assert freq == sum(orbit(sys_, s, 6)[-1][1] == 0.0 for s in starts) / len(starts)

    def test_finite_pullback_graph(self):
        sys_ = make_noinvattr(32)
        graph, depths = pullback_graph_finite(sys_, 20)
        assert graph.value(-1.0) <= 2.0 ** -20  # weak map at most halves
        assert graph.value(1.0) == 1.0
        assert graph.value(0.0) <= 2.0 ** -20
