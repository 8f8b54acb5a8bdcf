import csv
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skewlab import cli, nonauto
from skewlab.bases import CircleRotation, OneSidedWord
from skewlab.attractor import AttractorVerdict, PreinvarianceReport, SampleRecord
from skewlab.catalog import make_product
from skewlab.config import build_system, load_system, parse_config
from skewlab.errors import ConfigError
from skewlab.fiber import ConcavityCertificate, certify
from skewlab.skew import ProductFamily, classify, declared

KELLER_CFG = {
    "base": {"variant": "circle-rotation", "omega": 0.6180339887498949},
    "fiber": {
        "form": "product",
        "f": {"form": "logistic-scaled", "k": 1.0},
        "g": {"form": "sin-squared", "c": 1.0, "eps": 0.5},
    },
    "a": 1.0,
}

NOINV_CFG = {
    "base": {"variant": "finite-orbit", "preset": "noinvattr", "window": 64},
    "fiber": {"form": "noinvattr-split"},
    "a": 1.0,
}

SHIFT_CFG = {
    "base": {"variant": "shift", "sided": "one"},
    "fiber": {"form": "logistic-scaled", "k": 1.0},
    "a": 1.0,
}


@pytest.fixture
def cfg_file(tmp_path):
    def write(doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


class TestConfig:
    def test_roundtrip_is_identity(self):
        cfg = parse_config(KELLER_CFG)
        assert parse_config(json.dumps(cfg._asdict())) == cfg

    def test_unknown_base_variant(self):
        with pytest.raises(ConfigError, match="base.variant"):
            parse_config({"base": {"variant": "torus"}, "fiber": {"form": "poly"}})

    def test_path_and_missing_file(self, cfg_file, tmp_path):
        assert parse_config(Path(cfg_file(KELLER_CFG))) == parse_config(KELLER_CFG)
        missing = str(tmp_path / "absent.json")
        with pytest.raises(ConfigError, match=f"^config file {re.escape(repr(missing))} not found$"):
            parse_config(missing)

    def test_bad_omega_names_field(self):
        doc = {"base": {"variant": "circle-rotation", "omega": 1.5},
               "fiber": {"form": "poly", "coeffs": [1.0]}}
        with pytest.raises(ConfigError, match="base.omega"):
            parse_config(doc)

    def test_bad_defaults_named(self, cfg_file, capsys):
        # the analysis is set by flags alone: a config's defaults block is refused, not read
        doc = dict(KELLER_CFG, defaults={"grid": 512})
        assert cli.main(["certify", "--config", cfg_file(doc)]) == 2
        assert capsys.readouterr().err.startswith("config error: field defaults: unknown field")

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_finite_orbit_a_other_than_1_exits_2_naming_it(self, cfg_file, capsys, a):
        # the preset builds fibres on [0, 1] and would ignore any other a
        assert cli.main(["certify", "--config", cfg_file(dict(NOINV_CFG, a=a))]) == 2
        assert capsys.readouterr().err == (
            "config error: field a: must be 1.0 over a finite-orbit base, whose preset "
            f"fibres live on [0, 1], got {a!r}\n"
        )
        assert parse_config(dict(NOINV_CFG, a=1.0)) == parse_config(NOINV_CFG)

    @pytest.mark.parametrize("doc, field, value", [
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=2.9)), "base.window", "2.9"),
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=float("nan"))),
         "base.window", "nan"),
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=0)), "base.window", "0"),
        (dict(KELLER_CFG, a=float("nan")), "a", "nan"),
        (dict(KELLER_CFG, a=0.0), "a", "0.0"),
        (dict(KELLER_CFG, a=-1.0), "a", "-1.0"),
        (dict(KELLER_CFG, a=float("inf")), "a", "inf"),
        (dict(KELLER_CFG, a=True), "a", "True"),
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=True)), "base.window", "True"),
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=float("inf"))),
         "base.window", "inf"),
    ])
    def test_bad_number_exits_2_naming_the_field(self, cfg_file, capsys, doc, field, value):
        # json writes inf and nan as Infinity and NaN, which it also reads back
        assert cli.main(["certify", "--config", cfg_file(doc)]) == 2
        kind = "number" if field == "a" else "integer"
        assert capsys.readouterr().err == (
            f"config error: field {field}: must be a positive {kind}, got {value}\n"
        )

    @pytest.mark.parametrize("doc, field", [
        (dict(KELLER_CFG, label="keller"), "label"),
        (dict(KELLER_CFG, base=dict(KELLER_CFG["base"], sided="two")), "base.sided"),
        (dict(NOINV_CFG, base=dict(NOINV_CFG["base"], omega=0.5)), "base.omega"),
        (dict(SHIFT_CFG, base=dict(SHIFT_CFG["base"], omega=0.5)), "base.omega"),
        (dict(KELLER_CFG, fiber=dict(KELLER_CFG["fiber"], h={"form": "constant"})), "fiber.h"),
        (dict(NOINV_CFG, fiber={"form": "noinvattr-split", "k": 1.0}), "fiber.k"),
    ], ids=["top-level", "circle-base", "finite-orbit-base", "shift-base", "product-fiber",
            "noinvattr-split-fiber"])
    def test_unknown_field_exits_2_naming_it(self, cfg_file, capsys, doc, field):
        assert cli.main(["certify", "--config", cfg_file(doc)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: field {field}: unknown field")

    def test_unknown_form_parameter_exits_2_naming_it(self, cfg_file, capsys):
        # eps misspelt: the default eps = 0 would flip Keller's lambda to -log 2
        fiber = dict(KELLER_CFG["fiber"], g={"form": "sin-squared", "epsilon": 0.3})
        assert cli.main(["certify", "--config", cfg_file(dict(KELLER_CFG, fiber=fiber))]) == 2
        assert capsys.readouterr().err == (
            "config error: field fiber.g.epsilon: unknown parameter (known: ('c', 'eps'))\n"
        )

    def test_product_f_without_supremum_exits_2_naming_it(self, cfg_file, capsys):
        # a three-coefficient poly is a black box: nothing bounds f to scale g by
        fiber = dict(KELLER_CFG["fiber"], f={"form": "poly", "coeffs": [2.4, -1.2, -0.6]})
        assert cli.main(["certify", "--config", cfg_file(dict(KELLER_CFG, fiber=fiber))]) == 2
        assert capsys.readouterr().err == (
            "config error: field fiber.f: product fiber form poly[2.4,-1.2,-0.6] "
            "lacks an analytic supremum\n"
        )

    def test_integral_float_count_accepted(self):
        base = parse_config(dict(NOINV_CFG, base=dict(NOINV_CFG["base"], window=3.0))).base
        assert base["window"] == 3 and type(base["window"]) is int

    @pytest.mark.parametrize("contents, reason", [
        (None, "Is a directory"),
        (b'{"a": 1.0\xff}', "not UTF-8 (invalid start byte)"),
    ], ids=["directory", "not-utf-8"])
    def test_unreadable_config_exits_2_naming_the_file(self, tmp_path, capsys, contents,
                                                       reason):
        path = tmp_path / "cfg.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        assert cli.main(["certify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {str(path)!r}: {reason}\n"
        )

    def test_build_keller_like(self):
        sys_ = build_system(parse_config(KELLER_CFG))
        assert declared(sys_)[0] == "monotone-equiconcave"
        assert isinstance(sys_.fiber_at, ProductFamily)

    def test_build_simple_registry_map(self):
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "quadratic-hump", "k": 4.0}}
        sys_ = build_system(parse_config(doc))
        assert sys_.fiber_at(0.9)(0.5) == pytest.approx(1.0)


class TestDeclaredClassification:
    """A single-form config declares what the product with g = 1 declares."""

    @pytest.mark.parametrize("spec", [
        {"form": "logistic-scaled", "k": 0.7},
        {"form": "quadratic-hump", "k": 2.0},
        {"form": "quadratic-hump", "k": 4.0},
        {"form": "tanh-like", "k": 0.8, "s": 2.0},
    ])
    def test_single_form_declares_as_product(self, spec):
        base = {"variant": "circle-rotation", "omega": 0.3}
        single = build_system(parse_config({"base": base, "fiber": spec}))
        product = make_product(spec, {"form": "constant", "c": 1.0}, CircleRotation(0.3))
        assert declared(single) == declared(product)

    def test_half_hump_is_isoclinic(self):
        # 2x(1-x) peaks at 1/2, below its isoclinic point 2/3
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "quadratic-hump", "k": 2.0}}
        sys_ = build_system(parse_config(doc))
        assert declared(sys_)[0] == "isoclinic-equiconcave"
        assert classify(sys_, 8, grid_size=1024).kind == declared(sys_)[0]

    def test_black_box_cubic_unclassified(self):
        doc = {"base": {"variant": "shift", "sided": "two"},
               "fiber": {"form": "poly", "coeffs": [2.4, -1.2, -0.6]}}
        sys_ = build_system(parse_config(doc))
        assert declared(sys_) == ("unclassified", None)


class TestCliExitCodes:
    def test_certify_ok(self, cfg_file, capsys):
        rc = cli.main(["certify", "--config", cfg_file(KELLER_CFG),
                       "--grid", "512", "--theta", "0.25"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["alpha_star"] == pytest.approx(0.75, abs=1e-3)

    @pytest.mark.parametrize("cfg, theta, form", [
        # the first point of the noinvattr chain
        (NOINV_CFG, "-1.0", "logistic-scaled(k=0.25)"),
        (SHIFT_CFG, "|0", "logistic-scaled(k=1.0)"),
    ], ids=["finite", "shift"])
    def test_certify_without_theta_takes_the_base_default(self, cfg_file, capsys, cfg,
                                                          theta, form):
        assert cli.main(["certify", "--config", cfg_file(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["theta"], doc["form"]) == (theta, form)

    def test_no_subcommand_exits_2_with_usage(self, capsys):
        assert cli.main([]) == 2
        assert capsys.readouterr().out.startswith("usage: skewlab")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["certify", "--config", str(p)]) == 2

    def test_missing_field_exits_2(self, cfg_file):
        assert cli.main(["certify", "--config",
                         cfg_file({"base": {"variant": "shift"}})]) == 2

    def test_convex_map_exits_3(self, cfg_file):
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "poly", "coeffs": [0.0, 1.0]}}
        assert cli.main(["certify", "--config", cfg_file(doc)]) == 3

    def test_one_sided_pullback_exits_5(self, cfg_file):
        assert cli.main(["pullback", "--config", cfg_file(SHIFT_CFG),
                         "--depth", "5"]) == 5

    def test_two_sided_pullback_without_theta_names_theta(self, cfg_file, capsys):
        path = cfg_file(dict(SHIFT_CFG, base={"variant": "shift", "sided": "two"}))
        assert cli.main(["pullback", "--config", path, "--depth", "5"]) == 5
        err = capsys.readouterr().err
        assert "not invertible" not in err
        assert "circle grid or a finite base" in err and "--theta" in err
        # the base is invertible: a pullback at one word runs
        assert cli.main(["pullback", "--config", path, "--depth", "5",
                         "--theta", "0~1~0@0"]) == 0

    def test_bound_violation_exits_4(self, cfg_file, monkeypatch):
        real = nonauto.iterate_pair

        def doctored(*args, **kwargs):
            tr = real(*args, **kwargs)
            tr.rows[0] = tr.rows[0]._replace(ratio=tr.rows[0].bound + 1.0)
            return tr

        monkeypatch.setattr(nonauto, "iterate_pair", doctored)
        rc = cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                       "--theta", "0.0", "--x0", "0.2", "--y0", "0.8",
                       "--steps", "5", "--out", "/dev/null"])
        assert rc == 4


class TestOrbitPairCommand:
    def test_kappa_strictly_decreasing(self, cfg_file, tmp_path):
        out = tmp_path / "trace.csv"
        rc = cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                       "--theta", "0.0", "--x0", "0.2", "--y0", "0.8",
                       "--steps", "50", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        kappas = [float(r["kappa"]) for r in rows if r["kappa"]]
        assert len(kappas) >= 5
        assert all(b < a for a, b in zip(kappas, kappas[1:]))

    def test_equal_starts_single_row(self, cfg_file, tmp_path):
        out = tmp_path / "trace.csv"
        cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                  "--theta", "0.0", "--x0", "0.5", "--y0", "0.5",
                  "--steps", "10", "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1 and float(rows[0]["kappa"]) == 0.0

    def test_zero_steps_write_the_start_row(self, cfg_file, tmp_path):
        # row 0 as every trace starts, with no transition fields
        out = tmp_path / "trace.csv"
        rc = cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                       "--theta", "0.0", "--x0", "0.2", "--y0", "0.8",
                       "--steps", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == ["n,x,y,kappa,ratio,bound,b",
                                                "0,0.2,0.8,3.0000000000000004,,,"]

    @pytest.mark.parametrize("steps", ["0", "1"])
    @pytest.mark.parametrize("flag, value, shown", [
        ("--x0", "-5", "-5.0"), ("--x0", "nan", "nan"), ("--y0", "1.5", "1.5"),
    ])
    def test_bad_start_exits_3_at_any_step_count(self, cfg_file, tmp_path, capsys,
                                                 steps, flag, value, shown):
        # zero steps used to write the header and exit 0 without checking the starts
        out = tmp_path / "trace.csv"
        starts = dict({"--x0": "0.2", "--y0": "0.8"}, **{flag: value})
        rc = cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG), "--theta", "0.0",
                       *(arg for pair in starts.items() for arg in pair),
                       "--steps", steps, "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == (
            f"invariant violation: {flag[2:]} must lie in (0, 1.0], got {shown}\n"
        )


class TestJsonLayout:
    """The results in the JSON of certify and verify are the `_asdict()` of their types.

    json writes a bare NamedTuple as an array, so each record, nested ones
    included, must reach it as a dict.
    """

    def test_certificate_is_asdict_of_certify(self, cfg_file, capsys):
        cfg = cfg_file(KELLER_CFG)
        rc = cli.main(["certify", "--config", cfg, "--grid", "512", "--theta", "0.25"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        system = load_system(cfg)
        assert doc["certificate"] == certify(system.fiber_at(0.25), 512)._asdict()
        assert set(doc) == {"system", "theta", "form", "certificate"}
        assert set(doc["certificate"]) == _field_names(ConcavityCertificate)

    def test_verify_records_have_the_result_fields(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(KELLER_CFG)
        phi = tmp_path / "phi.csv"
        assert cli.main(["pullback", "--config", cfg, "--grid", "512", "--depth", "400",
                         "--out", str(phi)]) == 0
        capsys.readouterr()
        rc = cli.main(["verify", "--config", cfg, "--phi", str(phi), "--samples", "5",
                       "--steps", "30", "--tol", "0.05", "--horizon", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"attractor", "preinvariance", "graph_provenance"}
        assert set(doc["attractor"]) == _field_names(AttractorVerdict)
        assert len(doc["attractor"]["records"]) == 5
        for record in doc["attractor"]["records"]:
            assert isinstance(record, dict)
            assert set(record) == _field_names(SampleRecord)
        assert len(doc["preinvariance"]) == 3
        for entry in doc["preinvariance"]:
            assert set(entry) == _field_names(PreinvarianceReport)



def _field_names(cls) -> set[str]:
    return set(cls._fields)


class TestPullbackVerifyPipeline:
    def test_emitted_graph_is_reingestible(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(KELLER_CFG)
        phi = tmp_path / "phi.csv"
        rc = cli.main(["pullback", "--config", cfg, "--grid", "512",
                       "--depth", "400", "--out", str(phi)])
        assert rc == 0
        rc = cli.main(["verify", "--config", cfg, "--phi", str(phi),
                       "--samples", "4", "--steps", "40", "--tol", "0.05",
                       "--horizon", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attractor"]["verdict"] == "attracting"

    def test_finite_base_pullback(self, cfg_file, tmp_path):
        phi = tmp_path / "phi.csv"
        rc = cli.main(["pullback", "--config", cfg_file(NOINV_CFG),
                       "--depth", "45", "--no-early-stop", "--out", str(phi)])
        assert rc == 0
        reader = csv.DictReader(phi.read_text().splitlines())
        rows = {r["point"]: float(r["value"]) for r in reader}
        assert rows["0.0"] <= 2.0 ** -45
        assert rows["1.0"] == 1.0

    @pytest.mark.parametrize(
        "cfg,theta", [(SHIFT_CFG, "0|1"), (NOINV_CFG, "1.0")],
        ids=["one-sided-shift", "noinvattr-two-preimages"],
    )
    def test_point_without_preimage_exits_5(self, cfg_file, capsys, cfg, theta):
        rc = cli.main(["pullback", "--config", cfg_file(cfg), "--theta", theta,
                       "--depth", "10"])
        assert rc == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert f"no pullback at {theta}:" in err

    def test_single_point_pullback_json(self, cfg_file, capsys):
        rc = cli.main(["pullback", "--config", cfg_file(NOINV_CFG),
                       "--theta", "0.0", "--depth", "40", "--no-early-stop"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nonincreasing"] and len(doc["values"]) == 40

    def test_single_point_delta_at_depth_1_is_measured_from_a(self, cfg_file, capsys):
        rc = cli.main(["pullback", "--config", cfg_file(KELLER_CFG), "--theta", "0.3",
                       "--depth", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth_used"] == 1
        assert doc["delta"] == abs(doc["values"][0] - 1.0) > 0.0

    @pytest.mark.parametrize("cfg, argv, message", [
        (KELLER_CFG, ["--theta", "0.3", "--grid", "64"],
         "--grid cannot be combined with --theta, which pulls back at one point and "
         "prints its values"),
        (KELLER_CFG, ["--theta", "0.3", "--out", "out.csv"],
         "--out cannot be combined with --theta, which pulls back at one point and "
         "prints its values"),
        (NOINV_CFG, ["--grid", "64", "--out", "out.csv"],
         "--grid sets the nodes of a circle base: a finite base pulls back at each of "
         "its points"),
    ], ids=["theta-grid", "theta-out", "finite-grid"])
    def test_ignored_setting_exits_2_before_any_work(self, cfg_file, tmp_path, capsys,
                                                     monkeypatch, cfg, argv, message):
        def work(*args, **kwargs):
            raise AssertionError("a pullback ran")

        for name in ("pullback_phi", "pullback_graph_finite", "pullback_grid"):
            monkeypatch.setattr(f"skewlab.attractor.{name}", work)
        out = tmp_path / "out.csv"
        argv = [str(out) if a == "out.csv" else a for a in argv]
        assert cli.main(["pullback", "--config", cfg_file(cfg), *argv]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, target, reason", [
        (["pullback", "--config", "keller.json", "--grid", "64", "--depth", "50"],
         "missing/x.csv", "No such file or directory"),
        (["orbit-pair", "--config", "keller.json", "--x0", "0.2", "--y0", "0.8",
          "--steps", "5"], ".", "Is a directory"),
    ], ids=["pullback-missing-dir", "orbit-pair-directory"])
    def test_unwritable_out_exits_2_naming_it(self, cfg_file, tmp_path, capsys, argv,
                                              target, reason):
        argv = [cfg_file(KELLER_CFG) if a == "keller.json" else a for a in argv]
        out = str(tmp_path / target)
        assert cli.main([*argv, "--out", out]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot write --out file {out!r}: {reason}\n")


class TestVerifyInput:
    def verify(self, cfg, phi, samples=2):
        return cli.main(["verify", "--config", cfg, "--phi", str(phi),
                         "--samples", str(samples), "--steps", "5"])

    def graph_csv(self, tmp_path, rows):
        phi = tmp_path / "phi.csv"
        phi.write_text("\n".join(["point,value", *rows]) + "\n")
        return phi

    @pytest.mark.parametrize("rows, needle", [
        ([], "no rows"),
        (["0.0,0.5", "0.5"], "line 3: 1 cells"),
        (["0.0,0.5", "0.5,0.5,0.1"], "line 3: 3 cells"),
        (["0.0,0.5", "0.5,half"], "line 3: value 'half' is not a number"),
        (["zero,0.5", "0.5,0.5"], "line 2: point 'zero' is not a number"),
        (["0.0,0.5", "0.0,0.25"], "line 3: point '0.0' repeats the node of line 2"),
        (["0.0,0.5", "-0.5,0.25"], "line 3: point '-0.5' is not a node"),
        (["0.0,0.5", "nan,0.25"], "line 3: point 'nan' is not a node"),
        (["0.0,0.5", "inf,0.25"], "line 3: point 'inf' is not a node"),
    ])
    def test_bad_graph_csv_exits_2(self, cfg_file, tmp_path, capsys, rows, needle):
        phi = self.graph_csv(tmp_path, rows)
        assert self.verify(cfg_file(KELLER_CFG), phi) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, rows, needle", [
        # -1 and -1.0 parse to the same chain point
        (NOINV_CFG, ["-1,0.0", "1.0,1.0", "-1.0,0.5"],
         "line 4: point '-1.0' repeats the point of line 2"),
        # 01|1 normalises to 0|1
        (SHIFT_CFG, ["0|1,0.5", "01|1,0.25"],
         "line 3: point '01|1' repeats the point of line 2"),
    ], ids=["finite", "shift"])
    def test_repeated_table_point_exits_2(self, cfg_file, tmp_path, capsys, cfg, rows,
                                          needle):
        phi = self.graph_csv(tmp_path, rows)
        assert self.verify(cfg_file(cfg), phi) == 2
        assert needle in capsys.readouterr().err

    # the message names the first node whose value fails, as the table path does
    @pytest.mark.parametrize("rows, node", [(["0.0,nan", "0.5,nan"], "0.0"),
                                            (["0.0,0.5", "0.5,nan"], "0.5")],
                             ids=["all-nan", "one-nan"])
    def test_nan_grid_values_exit_3(self, cfg_file, tmp_path, capsys, rows, node):
        phi = self.graph_csv(tmp_path, rows)
        assert self.verify(cfg_file(KELLER_CFG), phi) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"invariant violation: graph value nan at {node} leaves [0, 1.0]\n"

    @pytest.mark.parametrize("rows, bad", [
        (["0.0,0.5", "0.25,1.5", "0.5,0.5", "0.75,-0.25"], "1.5 at 0.25"),
        (["0.0,0.5", "0.25,0.5", "0.5,0.5", "0.75,-0.25"], "-0.25 at 0.75"),
        # within the slack 1e-12 * a of [0, a]: the next node is named
        (["0.0,-1e-13", "0.25,1.0000000000001", "0.5,1.01", "0.75,0.5"], "1.01 at 0.5"),
    ], ids=["above-a", "below-0", "past-the-slack"])
    def test_grid_value_outside_range_exit_3(self, cfg_file, tmp_path, capsys, rows, bad):
        phi = self.graph_csv(tmp_path, rows)
        assert self.verify(cfg_file(KELLER_CFG), phi) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"invariant violation: graph value {bad} leaves [0, 1.0]\n"

    @pytest.mark.parametrize("cfg, rows", [
        (KELLER_CFG, ["0.0,0.5", "0.5,0.5"]),
        (NOINV_CFG, ["1.0,1.0"]),
    ], ids=["grid", "table"])
    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_bad_tol_exits_3(self, cfg_file, tmp_path, capsys, cfg, rows, tol):
        phi = self.graph_csv(tmp_path, rows)
        rc = cli.main(["verify", "--config", cfg_file(cfg), "--phi", str(phi),
                       "--samples", "2", "--steps", "5", "--tol", tol])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"invariant violation: tol: must be a positive number, got {float(tol)!r}\n")

    def test_missing_phi_exits_2(self, cfg_file, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert self.verify(cfg_file(KELLER_CFG), missing) == 2
        assert repr(str(missing)) in capsys.readouterr().err

    def test_non_utf8_phi_exits_2_naming_it(self, cfg_file, tmp_path, capsys):
        phi = tmp_path / "phi.csv"
        phi.write_bytes(b"point,value\n0.0,0.5\n0.5,\xff\n")
        assert self.verify(cfg_file(KELLER_CFG), phi) == 2
        assert capsys.readouterr() == ("", f"config error: cannot read --phi file "
                                           f"{str(phi)!r}: not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("cfg, rows, samples", [
        (KELLER_CFG, ["0.0,0.5", "0.5,0.5"], 0),
        (KELLER_CFG, ["0.0,0.5", "0.5,0.5"], -3),
        (NOINV_CFG, ["1.0,1.0"], -3),
    ])
    def test_no_samples_exits_3(self, cfg_file, tmp_path, capsys, cfg, rows, samples):
        phi = self.graph_csv(tmp_path, rows)
        assert self.verify(cfg_file(cfg), phi, samples) == 3
        assert "--samples must be >= 1" in capsys.readouterr().err


class TestDepthAndGridArguments:
    """0 and negative values are refused, not replaced by the config default."""

    @pytest.mark.parametrize("cfg, argv, needle", [
        (KELLER_CFG, ["pullback", "--depth", "0"], "depth must be >= 1"),
        (KELLER_CFG, ["pullback", "--depth", "-5"], "depth must be >= 1"),
        (NOINV_CFG, ["pullback", "--depth", "0"], "depth must be >= 1"),
        (NOINV_CFG, ["pullback", "--depth", "-5"], "depth must be >= 1"),
        (NOINV_CFG, ["pullback", "--theta", "0.0", "--depth", "0"], "depth must be >= 1"),
        (KELLER_CFG, ["pullback", "--grid", "0"], "grid_size must be >= 8"),
        (KELLER_CFG, ["certify", "--grid", "0"], "grid_size must be >= 8"),
    ], ids=["grid-pullback-depth-0", "grid-pullback-depth-neg", "finite-pullback-depth-0",
            "finite-pullback-depth-neg", "theta-pullback-depth-0", "pullback-grid-0",
            "certify-grid-0"])
    def test_exits_3_and_writes_nothing(self, cfg_file, capsys, cfg, argv, needle):
        assert cli.main([argv[0], "--config", cfg_file(cfg), *argv[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == "" and needle in err


class TestRangeErrorsNameTheValue:
    """A refused count names the field and the value it got."""

    @pytest.mark.parametrize("argv, needle", [
        (["pullback", "--depth", "0"], "depth must be >= 1, got 0"),
        (["pullback", "--grid", "7"], "grid_size must be >= 8, got 7"),
        (["verify", "--horizon", "0"], "horizon must be >= 1, got 0"),
        (["verify", "--steps", "0"], "steps must be >= 1, got 0"),
    ], ids=["pullback-depth", "pullback-grid", "verify-horizon", "verify-steps"])
    def test_exits_3(self, cfg_file, tmp_path, capsys, argv, needle):
        if argv[0] == "verify":
            phi = tmp_path / "phi.csv"
            phi.write_text("point,value\n0.0,0.5\n0.5,0.5\n")
            argv = argv + ["--phi", str(phi), "--samples", "2"]
        assert cli.main([argv[0], "--config", cfg_file(KELLER_CFG), *argv[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"invariant violation: {needle}\n"

    def test_bad_horizon_is_refused_before_any_walk(self, cfg_file, tmp_path, capsys,
                                                    monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("verify_attractor ran")

        monkeypatch.setattr("skewlab.attractor.verify_attractor", walk)
        phi = tmp_path / "phi.csv"
        phi.write_text("point,value\n0.0,0.5\n0.5,0.5\n")
        rc = cli.main(["verify", "--config", cfg_file(KELLER_CFG), "--phi", str(phi),
                       "--horizon", "0"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "invariant violation: horizon must be >= 1, got 0\n"


class TestNonFiniteCirclePoint:
    @pytest.mark.parametrize("theta", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["certify"],
        ["orbit-pair", "--x0", "0.2", "--y0", "0.8", "--steps", "5"],
        ["pullback", "--depth", "5"],
    ], ids=["certify", "orbit-pair", "pullback"])
    def test_exits_2_and_names_the_input(self, cfg_file, tmp_path, capsys, argv, theta):
        out_path = tmp_path / "out.csv"
        extra = ["--out", str(out_path)] if argv[0] == "orbit-pair" else []
        rc = cli.main([argv[0], "--config", cfg_file(KELLER_CFG), *argv[1:],
                       "--theta", theta, *extra])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and f"circle point {theta!r} is not a finite number" in err
        assert not out_path.exists()


class TestFlagDefaults:
    """A run that leaves out the analysis flags is the run that spells out their defaults."""

    @pytest.mark.parametrize("cfg, argv, spelled", [
        (KELLER_CFG, ["certify", "--theta", "0.25"], ["--grid", "4096"]),
        (KELLER_CFG, ["pullback"], ["--grid", "4096", "--depth", "1000"]),
        # a black box: each map of the trace is certified
        ({"base": {"variant": "shift", "sided": "two"},
          "fiber": {"form": "poly", "coeffs": [2.4, -1.2, -0.6]}},
         ["orbit-pair", "--x0", "0.2", "--y0", "0.8"], ["--steps", "100"]),
        (KELLER_CFG, ["verify", "--phi", "phi.csv"], ["--steps", "100", "--tol", "1e-9"]),
    ], ids=["certify", "pullback", "orbit-pair", "verify"])
    def test_spelled_out_defaults_change_nothing(self, cfg_file, tmp_path, capsys, cfg,
                                                 argv, spelled):
        phi = tmp_path / "phi.csv"
        phi.write_text("point,value\n0.0,0.5\n0.5,0.5\n")
        argv = [argv[0], "--config", cfg_file(cfg),
                *(str(phi) if a == "phi.csv" else a for a in argv[1:])]
        writes = argv[0] in ("pullback", "orbit-pair")
        runs = []
        for run, extra in enumerate(([], spelled)):
            out = tmp_path / f"out{run}"
            rc = cli.main(argv + extra + (["--out", str(out)] if writes else []))
            runs.append((rc, *capsys.readouterr(), out.read_bytes() if writes else None))
        assert runs[0][0] == 0 and any(runs[0][1:])  # each run wrote something
        assert runs[0] == runs[1]


class TestDeterminism:
    def test_pullback_bytes_repeat(self, cfg_file, tmp_path):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"phi{run}.csv"
            rc = cli.main(["pullback", "--config", cfg_file(KELLER_CFG),
                           "--grid", "128", "--depth", "60", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDemos:
    @pytest.mark.parametrize(
        "name", ["noinvattr", "coinflip-one", "coinflip-two", "keller", "product-hump"]
    )
    def test_fast_demos_pass(self, name, capsys):
        assert cli.main(["demo", name, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_demo_exits_2(self):
        assert cli.main(["demo", "nope"]) == 2

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._DEMOS, "half-true",
                            lambda fast: [(True, "holds"), (False, "does not hold")])
        assert cli.main(["demo", "half-true"]) == cli.EXIT_CLAIM == 1
        assert capsys.readouterr().out == "PASS - holds\nFAIL - does not hold\n"

    def test_coin_words_draw_as_randrange_does(self):
        rng = random.Random(20260809)
        expected = [
            OneSidedWord(tuple(rng.randrange(2) for _ in range(20)), (0,))
            for _ in range(10 ** 4)
        ]
        words = cli._coin_words(random.Random(20260809), 10 ** 4)
        assert words == expected
        assert [str(w) for w in words] == [str(w) for w in expected]

    def test_run_demos_script_passes(self):
        # a fresh interpreter, so no module this test process imported is reused
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_demos.py"), "--fast"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert "all demos passed" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_keller_dichotomy_script_runs(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "keller_dichotomy.py"),
             "--grid", "64", "--depth", "400", "--eps", "0.5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        rows = list(csv.reader(proc.stdout.splitlines()))
        assert rows[0] == ["eps", "positive_fraction", "sweeps", "delta"]
        assert len(rows) == 2
        # lambda(0.5) = log 2 + 2 log((1 + sqrt 0.5) / 2) ~ 0.376 > 0: positive graph
        eps, frac, sweeps, delta = rows[1]
        assert float(eps) == 0.5 and float(frac) == 1.0
        assert 1 <= int(sweeps) <= 400 and float(delta) < 1e-12
