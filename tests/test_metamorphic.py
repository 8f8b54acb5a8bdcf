"""Power-of-two conjugacy: results on [0, a] for a = 2^k, read back by a.

For f on [0, 1] and a = 2^k, the map y -> a f(y / a) on [0, a] is again a
registry `poly`: coefficients c_i / a^(i-1).  Multiplying by a power of two
is exact in floats, so every grid node, value, difference and tolerance of
the conjugate is the one at a = 1 times a (a slope or a ratio not at all,
alpha* divided by a), and each result must map back bit for bit.  That
holds while no value leaves the normal floats, which k in [-40, 10] keeps.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewlab.attractor import largest_fixed_point, pullback_grid, pullback_phi
from skewlab.catalog import GOLDEN_ROTATION
from skewlab.config import load_system
from skewlab.errors import InvariantError
from skewlab.fiber import certify
from skewlab.nonauto import along_orbit, iterate_pair
from skewlab.registry import build_fiber

EXPONENTS = st.integers(min_value=-40, max_value=10)


def conjugate_poly(coeffs, a):
    """y -> a p(y / a) for p(x) = sum coeffs[i] x^(i+1), as a registry poly on [0, a]."""
    return build_fiber({"form": "poly", "coeffs": [c / a ** i for i, c in enumerate(coeffs)]}, a)


def keller(a):
    """Keller's system (logistic f = 2x - x^2, sin^2 with eps = 0.5) conjugated to [0, a]."""
    return load_system({
        "base": {"variant": "circle-rotation", "omega": GOLDEN_ROTATION},
        "fiber": {"form": "product", "f": {"form": "poly", "coeffs": [2.0, -1.0 / a]},
                  "g": {"form": "sin-squared", "c": 1.0, "eps": 0.5}},
        "a": a,
    })


class TestCertify:
    @settings(deadline=None)
    @given(EXPONENTS)
    @example(-40)
    def test_logistic_certificate_maps_back(self, k):
        a = 2.0 ** k
        unit, conj = (certify(conjugate_poly([2.0, -1.0], s), 4096) for s in (1.0, a))
        assert unit.monotone and unit.b == 1.0
        assert conj.monotone and conj.b == a
        assert (conj.gamma, conj.c) == (unit.gamma * a, unit.c * a)
        assert conj.alpha_star == unit.alpha_star / a

    @settings(deadline=None)
    @given(EXPONENTS)
    @example(-10)
    def test_convex_map_refused_at_every_a(self, k):
        # x^2 / a has second differences 2a / 4096^2, above CONCAVITY_SLACK * a
        a = 2.0 ** k
        near = re.escape(f"near x = {a / 4096!r}")  # the first interior node
        with pytest.raises(InvariantError, match=f"is not concave on the grid {near}$"):
            certify(conjugate_poly([0.0, 1.0], a), 4096)


def keller_trace(a):
    return iterate_pair(along_orbit(keller(a), 0.0), 0.2 * a, 0.8 * a, 30)


class TestOrbitPair:
    @settings(deadline=None)
    @given(EXPONENTS)
    @example(-40)
    def test_keller_trace_maps_back(self, k):
        # each map's analytic gamma, a constant times a, is no zero map, so
        # the pair is not pinched; beta = alpha / gamma scales by 1 / a^2
        a = 2.0 ** k
        unit, conj = keller_trace(1.0), keller_trace(a)
        assert conj.reason == unit.reason == "completed" and len(conj.rows) == 31
        assert conj.beta == unit.beta / (a * a)
        for u, c in zip(unit.rows, conj.rows):
            assert (c.x, c.y) == (u.x * a, u.y * a)
            assert c.b == (None if u.b is None else u.b * a)
            assert (c.kappa, c.ratio, c.bound, c.case) == (u.kappa, u.ratio, u.bound, u.case)


def pullback_examples(test):
    """Pin the exponents of the acceptance list; -30 stopped after 9 sweeps
    and at depth 3 while the stop delta was absolute."""
    for k in (-40, -30, -20, 0, 10):
        test = example(k)(test)
    return test


class TestPullback:
    @settings(deadline=None, max_examples=30)
    @given(EXPONENTS)
    @pullback_examples
    def test_grid_pullback_maps_back(self, k):
        a = 2.0 ** k
        unit, conj = (pullback_grid(keller(s), grid_size=1024, depth=1000) for s in (1.0, a))
        assert unit.sweeps == conj.sweeps == 42
        assert (conj.graph.grid / a).tolist() == unit.graph.grid.tolist()
        assert (conj.delta, conj.max_increase) == (unit.delta * a, unit.max_increase * a)
        assert conj.monotone_ok and unit.monotone_ok

    @settings(deadline=None)
    @given(EXPONENTS)
    @pullback_examples
    def test_pointwise_pullback_maps_back(self, k):
        a = 2.0 ** k
        unit, conj = (pullback_phi(keller(s), 0.3, 1000) for s in (1.0, a))
        assert unit.depth_used == conj.depth_used == 11
        assert [v / a for v in conj.values] == unit.values
        assert conj.nonincreasing() and unit.nonincreasing()


@settings(deadline=None)
@given(EXPONENTS)
@example(-40)
def test_largest_fixed_point_maps_back(k):
    # 1.5x - x^2 fixes 0 and 0.5; the root a/2 is not snapped to 0 at any a
    a = 2.0 ** k
    unit = largest_fixed_point(conjugate_poly([1.5, -1.0], 1.0))
    assert unit == pytest.approx(0.5)
    assert largest_fixed_point(conjugate_poly([1.5, -1.0], a)) == unit * a
