import json

import pytest

from skewlab import cli
from skewlab.errors import DomainError, RegistryError
from skewlab.fiber import certify
from skewlab.nonauto import MapSequence
from skewlab.registry import build_base_function, build_fiber


class TestFiberForms:
    @pytest.mark.parametrize(
        "spec,a",
        [
            ({"form": "logistic-scaled", "k": 1.0}, 1.0),
            ({"form": "logistic-scaled", "k": 0.25}, 1.0),
            ({"form": "quadratic-hump", "k": 4.0}, 1.0),
            ({"form": "quadratic-hump", "k": 2.0}, 1.0),
            ({"form": "poly", "coeffs": [1.0, -0.6]}, 1.0),
            ({"form": "poly", "coeffs": [0.5]}, 1.0),
        ],
    )
    def test_analytic_data_matches_certification(self, spec, a):
        fm = build_fiber(spec, a)
        cert = certify(fm, 4096)
        assert cert.gamma == pytest.approx(fm.gamma, abs=1e-6)
        assert cert.alpha_star == pytest.approx(fm.alpha, abs=1e-6)
        assert cert.monotone == fm.monotone
        if fm.gamma > 0:
            if cert.b is None:
                assert fm.b is None
            else:
                assert cert.b == pytest.approx(fm.b, abs=1e-5)

    def test_zero_poly(self):
        fm = build_fiber({"form": "poly", "coeffs": [0.0]}, 1.0)
        assert fm.gamma == 0.0 and fm.alpha == 0.0 and fm.b is None

    def test_tanh_like(self):
        fm = build_fiber({"form": "tanh-like", "k": 0.8, "s": 2.0}, 1.0)
        cert = certify(fm, 2048)
        assert fm.alpha == 0.0 and fm.monotone
        assert cert.gamma == pytest.approx(fm.gamma, abs=1e-6)
        # curvature vanishes at 0, so the certifiable level shrinks with the grid
        assert cert.alpha_star < 0.01

    def test_range_violation_rejected(self):
        with pytest.raises(RegistryError):
            build_fiber({"form": "logistic-scaled", "k": 2.0}, 1.0)
        with pytest.raises(RegistryError):
            build_fiber({"form": "poly", "coeffs": [-1.0]}, 1.0)

    def test_unknown_form(self):
        with pytest.raises(RegistryError):
            build_fiber({"form": "sombrero"}, 1.0)
        with pytest.raises(RegistryError):
            build_fiber({"coeffs": [1.0]}, 1.0)

    def test_vectorized_matches_scalar(self):
        # a form's own map takes an array; the polynomial forms then do the
        # float operations of one-point calls, while numpy's tanh and
        # math.tanh may differ in the last bit
        import numpy as np

        rng = np.random.default_rng(0)
        xs = np.concatenate([np.linspace(0.0, 1.0, 37), rng.random(1000)])
        points = xs.tolist()
        for spec in [
            {"form": "logistic-scaled", "k": 0.7},
            {"form": "logistic-scaled", "k": 1.0},
            {"form": "quadratic-hump", "k": 3.0},
            {"form": "poly", "coeffs": [1.0, -0.5]},
            {"form": "poly", "coeffs": [0.9, 0.3, -1.1]},
        ]:
            fm = build_fiber(spec, 1.0)
            assert fm.f(xs).tolist() == [fm(x) for x in points], spec
        fm = build_fiber({"form": "tanh-like", "k": 0.5, "s": 1.5}, 1.0)
        assert np.allclose(fm.f(xs), [fm(x) for x in points], rtol=0.0, atol=1e-12)


class TestBaseFunctions:
    def test_constant(self):
        g, sup, _ = build_base_function({"form": "constant", "c": 0.6})
        assert g(0.3) == 0.6 and sup == 0.6

    def test_sin_squared_range(self):
        g, sup, _ = build_base_function(
            {"form": "sin-squared", "c": 1.0, "eps": 0.25}
        )
        assert g(0.0) == pytest.approx(0.25)
        assert g(0.5) == pytest.approx(1.0)
        assert sup == 1.0

    def test_sin_squared_takes_an_array(self):
        import numpy as np

        g, _, _ = build_base_function({"form": "sin-squared", "c": 0.8, "eps": 0.3})
        thetas = np.random.default_rng(1).random(1000)
        assert g(thetas).tolist() == [g(t) for t in thetas.tolist()]

    def test_bad_params(self):
        with pytest.raises(RegistryError):
            build_base_function({"form": "sin-squared", "c": -1.0})
        with pytest.raises(RegistryError):
            build_base_function({"form": "noise"})


class TestMapSequenceContract:
    def test_mismatched_interval_rejected(self):
        fm = build_fiber({"form": "logistic-scaled", "k": 0.5}, 0.5)
        seq = MapSequence(lambda n: fm, 1.0)
        with pytest.raises(DomainError):
            seq.map_at(1)


class TestCliCertifyExamples:
    def test_logistic_scaled_unity(self, tmp_path, capsys):
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "logistic-scaled", "k": 1.0}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["certify", "--config", str(p), "--grid", "4096"]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["alpha_star"] == pytest.approx(1.0, abs=1e-3)

    def test_zero_poly_certificate(self, tmp_path, capsys):
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "poly", "coeffs": [0.0]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["certify", "--config", str(p)]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["alpha_star"] == 0.0 and cert["gamma"] == 0.0
