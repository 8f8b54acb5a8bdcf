import pytest

from skewlab import skew
from skewlab.bases import CircleRotation, FiniteOrbitBase, OneSidedWord, SymbolicShift
from skewlab.catalog import (
    CATALOG,
    GOLDEN_ROTATION,
    make_coinflip,
    make_keller,
    make_noinvattr,
    make_product,
)
from skewlab.config import load_system
from skewlab.errors import ConfigError, DomainError
from skewlab.fiber import FiberMap
from skewlab.nonauto import along_orbit, bound_violations, iterate_pair
from skewlab.registry import build_fiber
from skewlab.skew import (
    SkewSystem,
    SymbolTable,
    classify,
    declared,
    orbits,
    step,
)


def autonomous(fm: FiberMap, base=None) -> SkewSystem:
    return SkewSystem(
        base=base or CircleRotation(0.3),
        fiber_at=lambda theta: fm,
        a=fm.a,
        label="test",
    )


class TestStep:
    def test_zero_fiber_is_fixed(self):
        sys_ = make_noinvattr(8)
        for theta in (0.0, -1.0, 0.5):
            assert step(sys_, (theta, 0.0))[1] == 0.0

    def test_coinflip_writes_leading_bit(self):
        sys_ = make_coinflip("one")
        w = OneSidedWord((1, 0, 1, 1), (0,))
        new_base, val = step(sys_, (w, 0.0))
        assert val == 1.0
        assert new_base == w.shifted()

    def test_rotation_coordinate(self):
        sys_ = make_keller()._replace(base=CircleRotation(0.3))
        (theta1, _x1) = step(sys_, (0.1, 0.5))
        assert theta1 == pytest.approx(0.4)

    def test_fiber_domain_checked(self):
        sys_ = make_keller()
        with pytest.raises(DomainError):
            step(sys_, (0.1, 1.5))

    def test_composition_matches_manual(self):
        sys_ = make_keller()._replace(base=CircleRotation(0.437))
        theta, x = 0.21, 0.8
        pts = [(ts[0], xs[0]) for ts, xs in orbits(sys_, [theta], [x], 12)]
        cur_t, cur_x = theta, x
        for n in range(1, 13):
            cur_x = sys_.fiber_at(cur_t)(cur_x)
            cur_t = sys_.base.step(cur_t)
            assert pts[n] == (cur_t, cur_x)

    def test_two_sided_step_then_back(self):
        sys_ = make_coinflip("two")
        w = sys_.base.parse_point("01~100~1@2")
        fwd, _ = step(sys_, (w, 1.0))
        assert sys_.base.predecessor(fwd) == w


class TestClassify:
    def test_noinvattr(self):
        cls = classify(make_noinvattr(16), 10)
        assert cls.kind == "monotone-equiconcave"
        assert cls.beta == pytest.approx(1.0, abs=1e-3)

    def test_product_beta_matches_analytic(self):
        sys_ = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 0.6},
            CircleRotation(0.41),
        )
        cls = classify(sys_, 8)
        assert cls.kind == "isoclinic-equiconcave"
        assert cls.beta == pytest.approx(4.0, abs=1e-3)

    def test_full_hump_unclassified(self):
        sys_ = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 1.0},
            CircleRotation(0.41),
        )
        cls = classify(sys_, 8)
        assert cls.kind == "unclassified"
        assert any("range condition" in d for d in cls.diagnostics)

    def test_zero_member_keeps_family_equiconcave(self):
        base = FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 0.0})
        strong = FiberMap(1.0, lambda x: x * (2 - x), form="strong")
        zero = FiberMap(1.0, lambda x: 0.0, form="zero")
        sys_ = SkewSystem(
            base=base,
            fiber_at=lambda t: zero if t == 0.0 else strong,
            a=1.0,
        )
        cls = classify(sys_, 2)
        assert cls.kind == "monotone-equiconcave"
        assert cls.beta == pytest.approx(1.0, abs=1e-3)
        assert any("zero map" in d for d in cls.diagnostics)

    def test_linear_member_not_strictly_concave(self):
        sys_ = autonomous(FiberMap(1.0, lambda x: 0.5 * x, form="x/2"))
        cls = classify(sys_, 3)
        assert (cls.kind, cls.beta) == ("unclassified", None)
        [diagnostic] = cls.diagnostics
        assert diagnostic.startswith("no certified strict concavity at theta = ")

    def test_all_zero_members_leave_beta_undefined(self):
        zero = FiberMap(1.0, lambda x: 0.0, form="zero")
        base = FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 0.0})
        cls = classify(autonomous(zero, base), 2)
        assert (cls.kind, cls.beta) == ("monotone-equiconcave", None)
        assert cls.diagnostics == [
            "zero map at theta = 0.0 (0-concave)",
            "zero map at theta = 1.0 (0-concave)",
            "all sampled maps vanish; concavity constant undefined",
        ]

    @pytest.mark.parametrize("successor, diagnostics", [
        # x^2 is convex: certify refuses it, here and again when it is sampled
        (FiberMap(1.0, lambda x: x * x, form="x^2"),
         ["successor map at theta = 0.0 not certifiable: ",
          "isoclinic range condition unverifiable after theta = 0.0",
          "certification failed at theta = 1.0: "]),
        # the zero map certifies with no isoclinic point b
        (FiberMap(1.0, lambda x: 0.0, form="zero"),
         ["isoclinic range condition unverifiable after theta = 0.0",
          "zero map at theta = 1.0 (0-concave)"]),
    ], ids=["not-certifiable", "no-b"])
    def test_successor_without_isoclinic_point_unclassified(self, successor, diagnostics):
        hump = FiberMap(1.0, lambda x: 2.0 * x * (1.0 - x), form="2x(1-x)")
        base = FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 1.0})
        sys_ = SkewSystem(base=base, fiber_at=lambda t: hump if t == 0.0 else successor,
                          a=1.0)
        cls = classify(sys_, 2)
        assert cls.kind == "unclassified"
        assert len(cls.diagnostics) == len(diagnostics)
        assert all(d.startswith(p) for d, p in zip(cls.diagnostics, diagnostics))

    def test_coinflip_unclassified_with_diagnostics(self):
        cls = classify(make_coinflip("one"), 4)
        assert cls.kind == "unclassified"
        assert cls.diagnostics

    def test_monotone_product(self):
        sys_ = make_product(
            {"form": "logistic-scaled", "k": 1.0},
            {"form": "constant", "c": 0.8},
            CircleRotation(0.39),
        )
        cls = classify(sys_, 6)
        assert cls.kind == "monotone-equiconcave"
        assert cls.beta == pytest.approx(1.0, abs=1e-3)

    def test_each_distinct_map_certified_once(self, monkeypatch):
        calls = []
        real = skew.certify

        def counting(fm, grid_size):
            calls.append(fm)
            return real(fm, grid_size)

        monkeypatch.setattr(skew, "certify", counting)
        hump = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 0.6},
            CircleRotation(0.41),
        )
        assert classify(hump, 12).kind == "isoclinic-equiconcave"
        assert len(calls) == 1  # 12 samples and their 12 successors: one map
        calls.clear()
        classify(make_keller(), 6)
        assert len(calls) == 6 and len(set(calls)) == 6


def symbol_table_system(form, ks):
    """Fibres k*f keyed by the leading symbol of a two-sided word."""
    maps = [build_fiber({"form": form, "k": k}, 1.0) for k in ks]
    return SkewSystem(base=SymbolicShift("two"), fiber_at=SymbolTable(0, maps), a=1.0)


class TestDeclared:
    """The fibres declare the classification and beta: replacing ``fiber_at``
    replaces both, whatever the builder declared."""

    def test_replaced_fibres_declare_their_own_beta(self):
        keller = make_keller()
        sys_ = CATALOG["product-hump"]()._replace(base=keller.base, fiber_at=keller.fiber_at)
        assert declared(sys_) == ("monotone-equiconcave", 1.0)
        # bounds built on the hump's beta = 4 would be broken 50 times here
        trace = iterate_pair(along_orbit(sys_, 0.3), 0.2, 0.9, 200)
        assert len(trace.rows) > 50 and bound_violations(trace) == []

    def test_keller_with_hump_fibres_is_isoclinic(self):
        sys_ = make_keller()._replace(fiber_at=CATALOG["product-hump"]().fiber_at)
        kind, beta = declared(sys_)
        assert (kind, beta) == ("isoclinic-equiconcave", pytest.approx(4.0))
        cls = classify(sys_, 8)
        assert cls.kind == kind and cls.beta == pytest.approx(beta, abs=1e-3)

    def test_finite_base_declares_through_its_points(self):
        sys_ = make_noinvattr(8)
        wrapped = sys_._replace(fiber_at=lambda t: sys_.fiber_at(t))
        assert declared(wrapped) == ("monotone-equiconcave", 1.0)
        # a finite base without points, which would declare no map, is refused
        with pytest.raises(ConfigError, match="at least one point"):
            FiniteOrbitBase([], {})

    def test_other_callables_declare_nothing(self):
        keller = make_keller()
        assert declared(keller) == ("monotone-equiconcave", 1.0)
        wrapped = keller._replace(fiber_at=lambda t: keller.fiber_at(t))
        assert declared(wrapped) == ("unclassified", None)

    def test_symbol_table_of_logistic_maps(self):
        sys_ = symbol_table_system("logistic-scaled", (0.7, 0.9))
        assert declared(sys_) == ("monotone-equiconcave", 1.0)
        cls = classify(sys_, 8)
        assert cls.kind == "monotone-equiconcave"
        assert cls.beta == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("ks, kind", [
        ((2.0, 2.4), "isoclinic-equiconcave"),  # peaks 0.5 and 0.6, both below b = 2/3
        ((2.0, 4.0), "unclassified"),  # the second peak, 1, is above every b
    ])
    def test_symbol_table_range_bound_is_the_largest_peak(self, ks, kind):
        sys_ = symbol_table_system("quadratic-hump", ks)
        assert declared(sys_) == (kind, pytest.approx(4.0))
        assert classify(sys_, 8).kind == kind

    @pytest.mark.parametrize("k, kind", [
        # peaks 0.5 and 0.5: below the hump's b = 2/3 and the parabola's b = 1
        (0.5, "isoclinic-equiconcave"),
        # the parabola's peak 0.7 is above the hump's b
        (0.7, "unclassified"),
    ])
    def test_mixed_maps_take_the_least_beta_and_every_b(self, k, kind):
        logistic = build_fiber({"form": "logistic-scaled", "k": k}, 1.0)  # beta 1
        hump = build_fiber({"form": "quadratic-hump", "k": 2.0}, 1.0)  # beta 4
        table = SkewSystem(base=SymbolicShift("two"), fiber_at=SymbolTable(0, (logistic, hump)),
                           a=1.0)
        chain = SkewSystem(base=FiniteOrbitBase([0.0, 1.0], {0.0: 1.0, 1.0: 0.0}),
                           fiber_at=lambda t: hump if t else logistic, a=1.0)
        assert declared(table) == declared(chain) == (kind, 1.0)

    def test_a_map_without_analytic_data_declares_nothing(self):
        hump = build_fiber({"form": "quadratic-hump", "k": 2.0}, 1.0)
        cubic = build_fiber({"form": "poly", "coeffs": [2.4, -1.2, -0.6]}, 1.0)
        no_gamma = hump._replace(gamma=None)
        for other in (cubic, no_gamma):
            sys_ = SkewSystem(base=SymbolicShift("two"), fiber_at=SymbolTable(0, (hump, other)),
                              a=1.0)
            assert declared(sys_) == ("unclassified", None)

    @pytest.mark.parametrize("name, expected", [
        ("coinflip-one", ("unclassified", None)),
        ("coinflip-two", ("unclassified", None)),
        ("keller", ("monotone-equiconcave", 1.0)),
        ("noinvattr", ("monotone-equiconcave", 1.0)),
        ("product-hump", ("isoclinic-equiconcave", 4.0)),
    ])
    def test_catalog_declarations(self, name, expected):
        assert declared(CATALOG[name]()) == expected

    @pytest.mark.parametrize("doc, expected", [
        ({"base": {"variant": "circle-rotation", "omega": GOLDEN_ROTATION},
          "fiber": {"form": "product", "f": {"form": "logistic-scaled", "k": 1.0},
                    "g": {"form": "sin-squared", "c": 1.0, "eps": eps}}, "a": 1.0},
         ("monotone-equiconcave", 1.0))
        for eps in (0.3, 0.5, 0.7)
    ] + [
        ({"base": {"variant": "finite-orbit", "preset": "noinvattr", "window": 64},
          "fiber": {"form": "noinvattr-split"}}, ("monotone-equiconcave", 1.0)),
        ({"base": {"variant": "shift", "sided": "two"},
          "fiber": {"form": "poly", "coeffs": [2.4, -1.2, -0.6]}}, ("unclassified", None)),
    ], ids=["keller-eps0.3", "keller-eps0.5", "keller-eps0.7", "noinvattr", "cubic-hump"])
    def test_benchmark_config_declarations(self, doc, expected):
        assert declared(load_system(doc)) == expected


class TestMapSequence:
    def test_sequence_follows_base_orbit(self):
        sys_ = make_noinvattr(8)
        seq = along_orbit(sys_, 0.0)
        assert seq.declared_beta == 1.0
        # every map on the forward orbit of the collision point is the strong one
        for n in range(1, 6):
            assert seq.map_at(n)(1.0) == 1.0
