"""Exact symmetries of the problem as test oracles that need no closed form.

Power-of-two conjugacy: results on [0, a] for a = 2^k, read back by a.  For
f on [0, 1] and a = 2^k, the map y -> a f(y / a) on [0, a] is again a
registry form: a `poly` with coefficients c_i / a^(i-1), or `tanh-like`
(k a, s / a).  Multiplying by a power of two is exact in floats, so every
grid node, value, difference and tolerance of the conjugate is the one at
a = 1 times a (a slope or a ratio not at all, alpha* divided by a), and
each result must map back bit for bit.  That holds while no value leaves
the normal floats, which k in [-40, 10] keeps.

Reflection: for an even g such as sin^2, the rotation by 1 - omega read at
-theta mirrors the rotation by omega at theta.  That match is not exact in
floats (see `TestReflection`).
"""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewlab import cli
from skewlab.attractor import (
    largest_fixed_point,
    positive_fraction,
    pullback_grid,
    pullback_phi,
)
from skewlab.catalog import GOLDEN_ROTATION
from skewlab.config import load_system
from skewlab.errors import InvariantError
from skewlab.fiber import certify
from skewlab.nonauto import along_orbit, convergence_certificate, iterate_pair
from skewlab.registry import build_fiber

EXPONENTS = st.integers(min_value=-40, max_value=10)


def conjugate_poly(coeffs, a):
    """y -> a p(y / a) for p(x) = sum coeffs[i] x^(i+1), as a registry poly on [0, a]."""
    return build_fiber({"form": "poly", "coeffs": [c / a ** i for i, c in enumerate(coeffs)]}, a)


def product_config(f, a=1.0, eps=0.5, omega=GOLDEN_ROTATION):
    """The config of f(x) * sin^2-forcing over the rotation by omega, on [0, a]."""
    return {
        "base": {"variant": "circle-rotation", "omega": omega},
        "fiber": {"form": "product", "f": f,
                  "g": {"form": "sin-squared", "c": 1.0, "eps": eps}},
        "a": a,
    }


def keller_config(a):
    """Keller's system (logistic f = 2x - x^2, sin^2 with eps = 0.5) conjugated to [0, a]."""
    return product_config({"form": "poly", "coeffs": [2.0, -1.0 / a]}, a)


def keller(a):
    return load_system(keller_config(a))


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


class TestTanhProduct:
    """0.95 tanh(2.5 x) over the golden rotation, sin^2 with eps = 0.5, on [0, a]."""

    @staticmethod
    @functools.cache
    def results(a):
        sys_ = load_system(product_config({"form": "tanh-like", "k": 0.95 * a, "s": 2.5 / a}, a))
        return (certify(sys_.fiber_at(0.3), 2000), pullback_phi(sys_, 0.3, 1000),
                pullback_grid(sys_, grid_size=256))

    @settings(deadline=None, max_examples=30)
    @given(EXPONENTS)
    @example(-30)
    @example(-10)
    @example(0)
    @example(5)
    @example(10)
    def test_certificate_and_pullbacks_map_back(self, k):
        a = 2.0 ** k
        (cert, seq, grid), (unit_cert, unit_seq, unit_grid) = self.results(a), self.results(1.0)
        # tanh's curvature vanishes at 0, but its grid second differences do not
        assert unit_cert.monotone and unit_cert.alpha_star > 0.0 and unit_cert.b == 1.0
        assert cert.monotone
        assert (cert.alpha_star * a, cert.gamma / a, cert.c / a, cert.b / a) == (
            unit_cert.alpha_star, unit_cert.gamma, unit_cert.c, unit_cert.b)
        assert seq.depth_used == unit_seq.depth_used
        assert [v / a for v in seq.values] == unit_seq.values
        assert grid.sweeps == unit_grid.sweeps
        assert positive_fraction(grid.graph) == positive_fraction(unit_grid.graph)
        assert (grid.graph.grid / a).tolist() == unit_grid.graph.grid.tolist()


def verify_doc(a, tmp_path, capsys):
    """verify's JSON, default --tol, for the Keller config on [0, a] against its
    own 256-node grid pullback."""
    config, phi = tmp_path / f"keller-{a!r}.json", tmp_path / f"phi-{a!r}.csv"
    config.write_text(json.dumps(keller_config(a)))
    assert cli.main(["pullback", "--config", str(config), "--grid", "256", "--out", str(phi)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(config), "--phi", str(phi),
                     "--samples", "3", "--steps", "5"]) == 0
    return json.loads(capsys.readouterr().out)


class TestDefaultTolerances:
    """The defaults of verify --tol and convergence_certificate's tol are multiples
    of a.  An absolute 1e-9 exceeds a = 2^-30 itself, so every start read as
    attracted from step 0 and every graph as preinvariant from n = 0."""

    @pytest.mark.parametrize("k", [-30, -10, 10])
    def test_verify_maps_back(self, k, tmp_path, capsys):
        a = 2.0 ** k
        unit, conj = verify_doc(1.0, tmp_path, capsys), verify_doc(a, tmp_path, capsys)
        assert unit["attractor"]["tol"] == 1e-9 and conj["attractor"]["tol"] == 1e-9 * a
        assert conj["attractor"]["verdict"] == unit["attractor"]["verdict"] == "not-attracting"
        for u, c in zip(unit["attractor"]["records"], conj["attractor"]["records"], strict=True):
            assert c["achieved_step"] == u["achieved_step"]
            assert c["start_fiber"] == u["start_fiber"] * a
        for u, c in zip(unit["preinvariance"], conj["preinvariance"], strict=True):
            assert (c["ok"], c["first_good_n"], c["first_violation"]) == (
                u["ok"], u["first_good_n"], u["first_violation"])
        assert not any(r["ok"] for r in conj["preinvariance"])

    @settings(deadline=None)
    @given(EXPONENTS)
    @example(-30)
    def test_convergence_certificate_maps_back(self, k):
        a = 2.0 ** k
        unit_trace, trace = keller_trace(1.0), keller_trace(a)
        unit = convergence_certificate(unit_trace, unit_trace.beta, 0.1)
        conj = convergence_certificate(trace, trace.beta, 0.1 * a)
        assert unit.envelope_first is None and unit.first_within == 25
        assert (conj.envelope_first, conj.first_within) == (unit.envelope_first, unit.first_within)
        assert conj.tol == unit.tol * a and [e / a for e in conj.envelope] == unit.envelope
        assert (conj.verdict, conj.capped_steps) == (unit.verdict, unit.capped_steps)


class TestReflection:
    """sin^2 is even, so the rotation by 1 - omega at node (m - j) mod m, or
    at the point 1 - theta, meets the maps of the rotation by omega at node j,
    or at theta, in the same order.  The match is not exact: 1 - omega and
    1 - theta are rounded, and sin(pi (1 - theta)) rounds differently from
    sin(pi theta), so each map differs by a few units in the last place.
    Keller's maps damp those errors, measured below 5e-16 here; the tolerance
    is 1e-14.  tanh(5x) over the pinched forcing (eps = 0) has slope 5 at 0
    and is pulled back all 1000 sweeps, which grows them to 1.5e-13 at
    m = 4096; the tolerance is 1e-12.  Counts (sweeps, depths, positive
    fractions) match exactly."""

    @pytest.mark.parametrize("f, eps, tol", [
        ({"form": "logistic-scaled", "k": 1.0}, 0.5, 1e-14),
        ({"form": "tanh-like", "k": 1.0, "s": 5.0}, 0.0, 1e-12),
    ], ids=["keller", "pinched-tanh"])
    def test_grid_pullback_mirrors(self, f, eps, tol):
        m = 4096
        there, back = (pullback_grid(load_system(product_config(f, eps=eps, omega=omega)), m)
                       for omega in (GOLDEN_ROTATION, 1.0 - GOLDEN_ROTATION))
        assert there.sweeps == back.sweeps
        assert positive_fraction(there.graph) == positive_fraction(back.graph)
        mirrored = back.graph.grid[(m - np.arange(m)) % m]
        assert np.max(np.abs(mirrored - there.graph.grid)) <= tol

    @pytest.mark.parametrize("theta", [0.3, 0.0625, 0.20784410369082473])
    def test_pointwise_pullback_mirrors(self, theta):
        f = {"form": "logistic-scaled", "k": 1.0}
        there, back = (pullback_phi(load_system(product_config(f, omega=omega)), t, 1000)
                       for omega, t in ((GOLDEN_ROTATION, theta), (1.0 - GOLDEN_ROTATION, 1.0 - theta)))
        assert there.depth_used == back.depth_used
        assert max(abs(u - v) for u, v in zip(there.values, back.values, strict=True)) <= 1e-14
