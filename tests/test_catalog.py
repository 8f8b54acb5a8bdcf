import pytest

from skewlab import nonauto
from skewlab.bases import CircleRotation, OneSidedWord
from skewlab.catalog import (
    CATALOG,
    GOLDEN_ROTATION,
    coinflip_attractor_graph,
    make_coinflip,
    make_keller,
    make_noinvattr,
    make_product,
)
from skewlab.errors import CapabilityError, ConfigError, RegistryError
from skewlab.fiber import grid_max
from skewlab.skew import classify, declared, orbits, step


class TestNoinvattr:
    def test_fiber_values(self):
        sys_ = make_noinvattr(8)
        assert sys_.fiber_at(0.5)(0.5) == pytest.approx(0.75)
        assert sys_.fiber_at(-1.5)(0.5) == pytest.approx(0.1875)

    def test_base_structure(self):
        sys_ = make_noinvattr(4)
        base = sys_.base
        assert base.step(-1.0) == -1.0 and base.step(1.0) == 1.0
        assert base.step(0.0) == 0.5  # collision point moves up the chain
        assert base.step(base.points[-1]) == 1.0  # absorbed truncation
        with pytest.raises(CapabilityError):
            base.predecessor(1.0)  # both 1.0 and the absorbed chain end map there

    def test_forward_orbit_reaches_top(self):
        sys_ = make_noinvattr(16)
        *_, (_, (x5,)) = orbits(sys_, [0.0], [0.5], 5)
        assert x5 >= 1.0 - 1e-9

    def test_classification(self):
        cls = classify(make_noinvattr(8), 8)
        assert cls.kind == "monotone-equiconcave"
        assert cls.beta == pytest.approx(1.0, abs=1e-3)


class TestCoinflip:
    def test_step_writes_bit(self):
        sys_ = make_coinflip("one")
        w = OneSidedWord((1, 0, 1, 1), (0,))
        assert step(sys_, (w, 0.0))[1] == 1.0

    def test_one_sided_not_invertible(self):
        w = OneSidedWord((1, 0), (0,))
        with pytest.raises(CapabilityError):
            make_coinflip("one").base.predecessor(w)
        two = make_coinflip("two").base
        v = two.parse_point("1~001~0@0")
        assert two.predecessor(two.step(v)) == v

    def test_canonical_graph_reads_previous_bit(self):
        g = coinflip_attractor_graph()
        sys_ = make_coinflip("two")
        w = sys_.base.parse_point("1~001~0@0")
        assert g.value(w) == 1.0  # symbol at -1 comes from the left cycle
        assert g.value(sys_.base.step(w)) == 0.0


def keller_with(q_spec, p_spec=None):
    """make_keller's system with other factors: q_spec, and p_spec for its p."""
    p_spec = p_spec or {"form": "logistic-scaled", "k": 1.0}
    return make_product(p_spec, q_spec, CircleRotation(GOLDEN_ROTATION), label="keller")


class TestKeller:
    def test_default_system(self):
        # scripts/keller_dichotomy.py builds make_keller's system at eps = 0.5 this way
        sys_, same = make_keller(), keller_with({"form": "sin-squared", "c": 1.0, "eps": 0.5})
        assert sys_.base.omega == same.base.omega == GOLDEN_ROTATION
        assert sys_.label == same.label
        for theta in (0.0, 0.3, 0.77):
            assert sys_.fiber_at(theta)(0.5) == same.fiber_at(theta)(0.5)

    def test_constant_forcing_gives_same_map_everywhere(self):
        sys_ = keller_with({"form": "constant", "c": 1.0})
        for theta in (0.0, 0.3, 0.77):
            assert sys_.fiber_at(theta)(0.5) == pytest.approx(0.75)
        assert declared(sys_)[0] == "monotone-equiconcave"
        assert declared(sys_)[1] == pytest.approx(1.0)

    def test_vanishing_forcing_pinches_exactly_at_zero(self):
        sys_ = keller_with({"form": "sin-squared", "c": 1.0, "eps": 0.0})
        assert grid_max(sys_.fiber_at(0.0), 128) == 0.0
        assert grid_max(sys_.fiber_at(0.25), 128) > 0.1

    def test_forcing_rescaled_into_interval(self):
        sys_ = keller_with({"form": "constant", "c": 3.0})
        assert grid_max(sys_.fiber_at(0.5), 256) <= 1.0 + 1e-12

    def test_unknown_form_rejected(self):
        with pytest.raises(RegistryError):
            keller_with({"form": "sin-squared", "c": 1.0, "eps": 0.5}, {"form": "mystery"})

    @pytest.mark.parametrize("omega", [0.0, 1.0, 1.5])
    def test_rotation_number_refused(self, omega):
        # CircleRotation refuses it, as it refuses a config's omega
        message = rf"^omega: must be a number in \(0, 1\), got {omega!r}$"
        with pytest.raises(ConfigError, match=message):
            CircleRotation(omega)


class TestProduct:
    def test_hump_below_isoclinic_point(self):
        sys_ = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 0.6},
            CircleRotation(GOLDEN_ROTATION),
        )
        assert declared(sys_)[0] == "isoclinic-equiconcave"
        assert declared(sys_)[1] == pytest.approx(4.0)

    def test_hump_at_full_height_unclassified(self):
        sys_ = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 1.0},
            CircleRotation(GOLDEN_ROTATION),
        )
        assert declared(sys_)[0] == "unclassified"

    def test_monotone_product(self):
        sys_ = make_product(
            {"form": "tanh-like", "k": 0.8, "s": 2.0},
            {"form": "constant", "c": 0.9},
            CircleRotation(GOLDEN_ROTATION),
        )
        assert declared(sys_)[0] == "unclassified"  # no strict concavity level
        sys2 = make_product(
            {"form": "logistic-scaled", "k": 0.7},
            {"form": "constant", "c": 0.9},
            CircleRotation(GOLDEN_ROTATION),
        )
        assert declared(sys2)[0] == "monotone-equiconcave"

    def test_same_factor_gives_the_same_map(self, monkeypatch):
        sys_ = make_product(
            {"form": "quadratic-hump", "k": 4.0},
            {"form": "constant", "c": 0.6},
            CircleRotation(GOLDEN_ROTATION),
        )
        assert sys_.fiber_at(0.1) is sys_.fiber_at(0.7)
        calls = []
        real = nonauto.map_profile

        def counting(fm):
            calls.append(fm)
            return real(fm)

        monkeypatch.setattr(nonauto, "map_profile", counting)
        trace = nonauto.iterate_pair(nonauto.along_orbit(sys_, 0.1), 0.3, 0.62, 40)
        assert len(trace.rows) > 2 and calls == [sys_.fiber_at(0.1)]

    def test_distinct_factors_give_distinct_maps(self):
        sys_ = make_keller()
        a, b = sys_.fiber_at(0.1), sys_.fiber_at(0.3)
        assert a is not b and a(0.5) != b(0.5)
        assert sys_.fiber_at(0.1)(0.5) == a(0.5)


class TestCatalogEntries:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_declared_classification_verified(self, name):
        sys_ = CATALOG[name]()
        cls = classify(sys_, 8)
        kind, beta = declared(sys_)
        assert cls.kind == kind
        if beta is not None:
            assert cls.beta == pytest.approx(beta, abs=1e-3)

    def test_pullback_halving_claim(self):
        from skewlab.attractor import pullback_phi

        sys_ = make_noinvattr(64)
        seq = pullback_phi(sys_, 0.0, 40, early_stop=False)
        assert all(v <= 2.0 ** -(n + 1) for n, v in enumerate(seq.values))
