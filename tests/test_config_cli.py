import csv
import json

import pytest

from skewlab import cli
from skewlab.config import build_system, parse_config
from skewlab.errors import ConfigError

KELLER_CFG = {
    "base": {"variant": "circle-rotation", "omega": 0.6180339887498949},
    "fiber": {
        "form": "product",
        "f": {"form": "logistic-scaled", "k": 1.0},
        "g": {"form": "sin-squared", "c": 1.0, "eps": 0.5},
    },
    "a": 1.0,
    "defaults": {"grid": 512, "depth": 400},
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
        assert parse_config(cfg.to_json()) == cfg

    def test_unknown_base_variant(self):
        with pytest.raises(ConfigError, match="base.variant"):
            parse_config({"base": {"variant": "torus"}, "fiber": {"form": "poly"}})

    def test_bad_omega_names_field(self):
        doc = {"base": {"variant": "circle-rotation", "omega": 1.5},
               "fiber": {"form": "poly", "coeffs": [1.0]}}
        with pytest.raises(ConfigError, match="base.omega"):
            parse_config(doc)

    def test_bad_defaults_named(self):
        doc = dict(KELLER_CFG, defaults={"grid": -1})
        with pytest.raises(ConfigError, match="defaults.grid"):
            parse_config(doc)

    def test_build_keller_like(self):
        sys_ = build_system(parse_config(KELLER_CFG))
        assert sys_.classification == "monotone-equiconcave"
        assert sys_.product_parts is not None

    def test_build_simple_registry_map(self):
        doc = {"base": {"variant": "circle-rotation", "omega": 0.3},
               "fiber": {"form": "quadratic-hump", "k": 4.0}}
        sys_ = build_system(parse_config(doc))
        assert sys_.fiber_at(0.9)(0.5) == pytest.approx(1.0)


class TestCliExitCodes:
    def test_certify_ok(self, cfg_file, capsys):
        rc = cli.main(["certify", "--config", cfg_file(KELLER_CFG),
                       "--grid", "512", "--theta", "0.25"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["alpha_star"] == pytest.approx(0.75, abs=1e-3)

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

    def test_bound_violation_exits_4(self, cfg_file, monkeypatch):
        real = cli.iterate_pair

        def doctored(*args, **kwargs):
            tr = real(*args, **kwargs)
            tr.rows[0].ratio = tr.rows[0].bound + 1.0
            return tr

        monkeypatch.setattr(cli, "iterate_pair", doctored)
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
        rows = list(csv.DictReader(out.open()))
        kappas = [float(r["kappa"]) for r in rows if r["kappa"]]
        assert len(kappas) >= 5
        assert all(b < a for a, b in zip(kappas, kappas[1:]))

    def test_equal_starts_single_row(self, cfg_file, tmp_path):
        out = tmp_path / "trace.csv"
        cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                  "--theta", "0.0", "--x0", "0.5", "--y0", "0.5",
                  "--steps", "10", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1 and float(rows[0]["kappa"]) == 0.0

    def test_zero_steps_header_only(self, cfg_file, tmp_path):
        out = tmp_path / "trace.csv"
        cli.main(["orbit-pair", "--config", cfg_file(NOINV_CFG),
                  "--theta", "0.0", "--x0", "0.2", "--y0", "0.8",
                  "--steps", "0", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines == ["n,x,y,kappa,ratio,bound,b"]


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
        rows = {r["point"]: float(r["value"]) for r in csv.DictReader(phi.open())}
        assert rows["0.0"] <= 2.0 ** -45
        assert rows["1.0"] == 1.0

    def test_single_point_pullback_json(self, cfg_file, capsys):
        rc = cli.main(["pullback", "--config", cfg_file(NOINV_CFG),
                       "--theta", "0.0", "--depth", "40", "--no-early-stop"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nonincreasing"] and len(doc["values"]) == 40


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
        "name", ["noinvattr", "coinflip-two", "product-hump"]
    )
    def test_fast_demos_pass(self, name, capsys):
        assert cli.main(["demo", name, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_demo_exits_2(self):
        assert cli.main(["demo", "nope"]) == 2
