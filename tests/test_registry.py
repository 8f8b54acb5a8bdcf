import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import cli
from skewlab.config import parse_config
from skewlab.errors import ConfigError, DomainError, RegistryError
from skewlab.fiber import FiberMap, certify
from skewlab.nonauto import MapSequence
from skewlab.registry import (
    FORMS,
    _poly_metadata,
    _sin,
    _tanh,
    _validate_range,
    build_base_function,
    build_fiber,
)


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

    def test_range_check_evaluates_only_on_the_interval(self):
        # a * 257 / 257 rounds 4.4e-16 above this a: the last node is a itself
        a, seen = 3.985556480007111, []
        _validate_range(FiberMap(a, lambda x: seen.append(x) or 0.5 * x))
        assert len(seen) == 258 and max(seen) == seen[-1] == a

    @pytest.mark.parametrize("k", [-40, 0, 10])
    def test_range_slack_scales_with_a(self, k):
        # within 1e-12 * a of a the value passes; 2e-12 * a above it is refused
        a = 2.0 ** k
        assert build_fiber({"form": "poly", "coeffs": [1.0 + 2.0 ** -41]}, a)
        with pytest.raises(RegistryError, match=r"leaves \[0, "):
            build_fiber({"form": "poly", "coeffs": [1.0 + 2e-12]}, a)

    def test_unknown_form(self):
        with pytest.raises(RegistryError):
            build_fiber({"form": "sombrero"}, 1.0)
        with pytest.raises(RegistryError):
            build_fiber({"coeffs": [1.0]}, 1.0)

    def test_unknown_parameter(self):
        message = r"^form tanh-like, parameter z: unknown parameter \(known: \('k', 's'\)\)$"
        with pytest.raises(RegistryError, match=message):
            build_fiber({"form": "tanh-like", "k": 1.0, "s": 1.0, "z": 0.0}, 1.0)

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


# A valid spec of every closed form, and for each of its parameters the values
# just outside the parameter's domain.
VALID = {
    "poly": {"form": "poly", "coeffs": [1.0, -0.5]},
    "logistic-scaled": {"form": "logistic-scaled", "k": 1.0},
    "quadratic-hump": {"form": "quadratic-hump", "k": 4.0},
    "tanh-like": {"form": "tanh-like", "k": 0.8, "s": 2.0},
    "constant": {"form": "constant", "c": 0.6},
    "sin-squared": {"form": "sin-squared", "c": 1.0, "eps": 0.5},
}
OUTSIDE = {
    ("poly", "coeffs"): [[], [1.0, True], [float("nan")], [1.0, float("-inf")]],
    ("logistic-scaled", "k"): [-0.1],
    ("quadratic-hump", "k"): [-0.1],
    ("tanh-like", "k"): [0, -0.1],
    ("tanh-like", "s"): [0, -0.1],
    ("constant", "c"): [-0.1],
    ("sin-squared", "c"): [0, -0.1],
    ("sin-squared", "eps"): [1.5, -0.1],
}
NOT_NUMBERS = [float("nan"), float("inf"), float("-inf"), True, "1", None]
REFUSALS = [
    (form, name, value)
    for (form, name), outside in OUTSIDE.items()
    for value in NOT_NUMBERS + outside
]
CIRCLE = {"variant": "circle-rotation", "omega": 0.3}
LOGISTIC = {"form": "logistic-scaled", "k": 1.0}


def test_refusals_cover_every_parameter_of_the_table():
    declared = {
        (form, name)
        for forms in FORMS.values()
        for form, (_, *params) in forms.items()
        for name, *_ in params
    }
    assert declared == set(OUTSIDE)


@pytest.mark.parametrize("form, name, value", REFUSALS)
def test_bad_parameter_refused_at_parse_time_by_its_field(form, name, value, tmp_path, capsys):
    spec = dict(VALID[form], **{name: value})
    if form in FORMS["fiber"]:
        placements = {"fiber": spec, "fiber.f": {"form": "product", "f": spec,
                                                  "g": {"form": "constant", "c": 1.0}}}
    else:
        placements = {"fiber.g": {"form": "product", "f": LOGISTIC, "g": spec}}
    index = r"(\[\d+\])?" if name == "coeffs" else ""
    for path, fiber in placements.items():
        doc = {"base": CIRCLE, "fiber": fiber}
        field = re.escape(f"{path}.{name}") + index
        with pytest.raises(ConfigError, match=rf"^field {field}: must be "):
            parse_config(doc)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["certify", "--config", str(config)]) == 2
        assert re.match(rf"config error: field {field}: must be ", capsys.readouterr().err)
    with pytest.raises(RegistryError, match=rf"^form {form}, parameter {name}{index}: must be "):
        build_fiber(spec, 1.0) if form in FORMS["fiber"] else build_base_function(spec)


# The builders as they were before the table: the reference that every valid
# spec must still build, field for field and value for value.


def _reference_fiber(spec, a):
    form = spec["form"]
    if form == "poly":
        coeffs = [float(c) for c in spec["coeffs"]]

        def f(x, _c=tuple(coeffs)):
            acc = 0.0
            for c in reversed(_c):
                acc = (acc + c) * x
            return acc

        meta = {}
        if len(coeffs) == 1:
            meta = _poly_metadata(coeffs[0], 0.0, a)
        elif len(coeffs) == 2:
            meta = _poly_metadata(coeffs[0], coeffs[1], a)
        label = "poly[{}]".format(",".join(repr(c) for c in coeffs))
        return _validate_range(FiberMap(a=a, f=f, form=label, **meta))
    if form == "logistic-scaled":
        k = float(spec["k"])
        fm = _reference_fiber({"form": "poly", "coeffs": [2.0 * k, -k]}, a)
        return fm._replace(form=f"logistic-scaled(k={k!r})")
    if form == "quadratic-hump":
        k = float(spec["k"])
        fm = _reference_fiber({"form": "poly", "coeffs": [k, -k]}, a)
        return fm._replace(form=f"quadratic-hump(k={k!r})")
    k, s = float(spec["k"]), float(spec["s"])

    def f(x, _k=k, _s=s):
        return _k * _tanh(_s * x)

    return _validate_range(
        FiberMap(
            a=a, f=f, form=f"tanh-like(k={k!r},s={s!r})",
            gamma=k * math.tanh(s * a), alpha=0.0, b=a, monotone=True,
        )
    )


def _reference_base_function(spec):
    if spec["form"] == "constant":
        c = float(spec["c"])
        return (lambda theta: c), c, f"constant({c!r})"
    c, eps = float(spec.get("c", 1.0)), float(spec.get("eps", 0.0))

    def g(theta, _c=c, _e=eps):
        s = _sin(math.pi * theta)
        return _c * (_e + (1.0 - _e) * s * s)

    return g, c, f"sin-squared(c={c!r},eps={eps!r})"


def _number(low, high, positive=False):
    """A float or an int in [low, high], above low when ``positive``."""
    return st.one_of(
        st.floats(low, high, exclude_min=positive),
        st.integers(math.floor(low) + positive, math.floor(high)),
    )


FIBER_SPECS = st.one_of(
    st.builds(lambda c: {"form": "poly", "coeffs": c}, st.lists(_number(-3, 3), min_size=1,
                                                               max_size=4)),
    st.builds(lambda k: {"form": "logistic-scaled", "k": k}, _number(0, 2)),
    st.builds(lambda k: {"form": "quadratic-hump", "k": k}, _number(0, 6)),
    st.builds(lambda k, s: {"form": "tanh-like", "k": k, "s": s},
              _number(0, 2, positive=True), _number(0, 8, positive=True)),
)
BASE_SPECS = st.one_of(
    st.builds(lambda c: {"form": "constant", "c": c}, _number(0, 3)),
    st.builds(lambda c, eps: {"form": "sin-squared", "c": c, "eps": eps},
              _number(0, 3, positive=True), _number(0, 1)),
    st.just({"form": "sin-squared"}),
    st.builds(lambda eps: {"form": "sin-squared", "eps": eps}, _number(0, 1)),
)
GRID = [i / 256 for i in range(257)]


@settings(max_examples=300, deadline=None)
@given(FIBER_SPECS, st.one_of(st.floats(0.25, 2.0), st.just(1)))
def test_valid_fiber_spec_builds_the_reference_map(spec, a):
    try:
        ref = _reference_fiber(spec, a)
    except RegistryError:  # its range leaves [0, a]
        with pytest.raises(RegistryError, match="leaves"):
            build_fiber(spec, a)
        return
    fm = build_fiber(spec, a)
    assert fm._replace(f=None) == ref._replace(f=None)
    xs = [a * x for x in GRID]
    assert [fm.f(x) for x in xs] == [ref.f(x) for x in xs]


@settings(max_examples=200, deadline=None)
@given(BASE_SPECS)
def test_valid_base_function_spec_builds_the_reference(spec):
    g, sup, label = build_base_function(spec)
    ref_g, ref_sup, ref_label = _reference_base_function(spec)
    assert (sup, label) == (ref_sup, ref_label)
    assert [g(t) for t in GRID] == [ref_g(t) for t in GRID]
