"""Which commands run numpy, and which skewlab layers each command runs.

numpy is bound lazily, and only work over a circle base uses it (grid
graphs, grid sweeps, batched orbits).  A process that certifies fibres,
traces orbit pairs, pulls back at one point (every pointwise query composes
on lists; sweeps are for node sets), or pulls back, verifies and runs demos
over a finite base or a shift must finish without executing numpy's import.
Likewise `import skewlab` runs no layer module, and each command executes
only the layers it calls: `certify` neither the attractor nor the nonauto
module, `orbit-pair` not the attractor module, `pullback` and `verify` not
the nonauto module, nor the demos that build preinvariant graphs
(`noinvattr`, `coinflip-one`).  No command imports `dataclasses`: every
result and value type is a NamedTuple, which runs no generated code when
its class is created.  Each child process below starts fresh, so no earlier
test has loaded a module for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewlab
from skewlab import cli

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
}
CUBIC_CFG = {
    "base": {"variant": "shift", "sided": "two"},
    "fiber": {"form": "poly", "coeffs": [2.4, -1.2, -0.6]},
}

# Runs each argv list through cli.main in turn and records, after each one,
# its exit code, the numpy submodules and the skewlab modules loaded so far,
# and whether dataclasses is loaded.
CHILD = """
import json, sys
from skewlab import cli
report = []
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    report.append([rc, sorted(k for k in sys.modules if k.startswith("numpy.")),
                   sorted(k for k in sys.modules if k.startswith("skewlab.")),
                   "dataclasses" in sys.modules])
with open(sys.argv[2], "w") as fh:
    json.dump(report, fh)
"""


def _child_env():
    src = str(Path(skewlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(argvs, report_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs), str(report_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    for argv, entry in zip(argvs, report):
        assert not entry.pop(), (argv, "imported dataclasses")
    return report


def test_scalar_commands_never_run_numpy(tmp_path):
    keller = tmp_path / "keller.json"
    keller.write_text(json.dumps(KELLER_CFG))
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps(CUBIC_CFG))
    noinv = tmp_path / "noinv.json"
    noinv.write_text(json.dumps(NOINV_CFG))
    finite = str(tmp_path / "finite.csv")
    grid_args = ["pullback", "--config", str(keller), "--grid", "64", "--depth", "200"]
    scalar = [
        ["certify", "--config", str(keller), "--theta", "0.3"],
        ["certify", "--config", str(cubic), "--grid", "2000"],
        ["orbit-pair", "--config", str(keller), "--x0", "0.2", "--y0", "0.8",
         "--steps", "50", "--out", str(tmp_path / "trace.csv")],
        ["orbit-pair", "--config", str(cubic), "--x0", "0.2", "--y0", "0.8",
         "--steps", "20", "--out", str(tmp_path / "trace-cubic.csv")],
        # a pointwise query composes on lists; the golden rotation's orbit never closes
        ["pullback", "--config", str(keller), "--theta", "0.3", "--depth", "400"],
        ["pullback", "--config", str(noinv), "--depth", "300", "--no-early-stop",
         "--out", finite],
        # the fixed point -1.0 is its own predecessor: the query reuses that one map
        ["pullback", "--config", str(noinv), "--theta", "-1.0", "--depth", "300",
         "--no-early-stop"],
        ["verify", "--config", str(noinv), "--phi", finite, "--samples", "40",
         "--steps", "60"],
        ["demo", "noinvattr", "--fast"],
        ["demo", "coinflip-one", "--fast"],
        ["demo", "coinflip-two", "--fast"],
        ["demo", "product-hump", "--fast"],
    ]
    report = _run_child(
        scalar + [grid_args + ["--out", str(tmp_path / "child.csv")]],
        tmp_path / "report.json",
    )

    for argv, (rc, loaded, _) in zip(scalar, report):
        assert rc == 0, argv
        assert loaded == [], (argv, loaded[:5])
    rc, loaded, _ = report[-1]
    assert rc == 0 and loaded, "the grid pullback must have run numpy"

    # The same call once more, in a process where numpy already ran.
    np.asarray(0.0)
    assert cli.main(grid_args + ["--out", str(tmp_path / "here.csv")]) == 0
    child = (tmp_path / "child.csv").read_bytes()
    assert child.count(b"\n") == 65
    assert child == (tmp_path / "here.csv").read_bytes()


def test_closed_circle_orbit_never_runs_numpy(tmp_path):
    # omega = 1/4: the backward orbit of 1/8 closes after four exact steps
    quarter = tmp_path / "quarter.json"
    quarter.write_text(json.dumps(
        dict(KELLER_CFG, base={"variant": "circle-rotation", "omega": 0.25})
    ))
    argv = ["pullback", "--config", str(quarter), "--theta", "0.125", "--depth", "300",
            "--no-early-stop"]
    [(rc, loaded, _)] = _run_child([argv], tmp_path / "report.json")
    assert rc == 0
    assert loaded == [], (len(loaded), loaded[:5])


def test_circle_arrays_run_numpy(tmp_path):
    keller = tmp_path / "keller.json"
    keller.write_text(json.dumps(KELLER_CFG))
    grid = tmp_path / "grid.csv"
    grid.write_text("point,value\n" + "".join(f"{j / 16!r},0.5\n" for j in range(16)))
    array_commands = [
        ["verify", "--config", str(keller), "--phi", str(grid), "--samples", "4",
         "--steps", "10"],
        ["demo", "keller", "--fast"],
    ]
    for argv in array_commands:
        [(rc, loaded, _)] = _run_child([argv], tmp_path / "report.json")
        assert rc == 0 and loaded, argv


def test_import_runs_no_layer_module():
    code = "import json, sys, skewlab; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [k for k in json.loads(proc.stdout) if k.startswith("skewlab")] == ["skewlab"]


def test_each_command_runs_only_its_layers(tmp_path):
    keller = tmp_path / "keller.json"
    keller.write_text(json.dumps(KELLER_CFG))
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps(CUBIC_CFG))
    noinv = tmp_path / "noinv.json"
    noinv.write_text(json.dumps(NOINV_CFG))
    finite = str(tmp_path / "finite.csv")
    grid = str(tmp_path / "grid.csv")
    attractor, nonauto = "skewlab.attractor", "skewlab.nonauto"
    # (argv, modules it must not execute, modules it must execute)
    commands = [
        (["certify", "--config", str(keller), "--theta", "0.3"], {attractor, nonauto}, set()),
        (["certify", "--config", str(cubic), "--grid", "2000"], {attractor, nonauto}, set()),
        (["orbit-pair", "--config", str(cubic), "--x0", "0.2", "--y0", "0.8", "--steps",
          "20", "--out", str(tmp_path / "trace.csv")], {attractor}, {nonauto}),
        (["pullback", "--config", str(keller), "--grid", "64", "--depth", "50", "--out",
          grid], {nonauto}, {attractor}),
        (["pullback", "--config", str(noinv), "--depth", "50", "--out", finite],
         {nonauto}, {attractor}),
        (["pullback", "--config", str(keller), "--theta", "0.3", "--depth", "50"],
         {nonauto}, {attractor}),
        (["verify", "--config", str(noinv), "--phi", finite, "--samples", "5",
          "--steps", "10"], {nonauto}, {attractor}),
        (["verify", "--config", str(keller), "--phi", grid, "--samples", "5",
          "--steps", "10"], {nonauto}, {attractor}),
        # build_preinvariant brackets each cycle's anchor without profiling its maps
        (["demo", "noinvattr", "--fast"], {nonauto}, {attractor}),
        (["demo", "coinflip-one", "--fast"], {nonauto}, {attractor}),
    ]
    for argv, absent, present in commands:
        [(rc, _, modules)] = _run_child([argv], tmp_path / "report.json")
        assert rc == 0, argv
        assert not absent & set(modules), (argv, modules)
        assert present <= set(modules), (argv, modules)


def test_exports_resolve():
    import skewlab.attractor

    for name in skewlab.__all__:
        assert getattr(skewlab, name) is not None, name
    assert len(set(skewlab.__all__)) == len(skewlab.__all__)
    with pytest.raises(AttributeError):
        skewlab.no_such_name
    assert cli.pullback_grid is skewlab.attractor.pullback_grid
    with pytest.raises(AttributeError):
        cli.no_such_name
