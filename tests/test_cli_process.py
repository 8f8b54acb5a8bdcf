"""The skewlab process: what it writes and how it leaves.

`python -m skewlab.cli` and the `skewlab` console script enter through
`cli.run()`, which flushes stdout and stderr and ends with `os._exit`.  The
tests below spawn that process and compare its bytes and exit code with
in-process `cli.main`.  The child environment drops `PYTHONUNBUFFERED`: with
it set every write reaches the pipe at once, which would hide a missing
flush.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewlab
from skewlab import cli

ROOT = Path(__file__).resolve().parent.parent
KELLER_CFG = {
    "base": {"variant": "circle-rotation", "omega": 0.6180339887498949},
    "fiber": {
        "form": "product",
        "f": {"form": "logistic-scaled", "k": 1.0},
        "g": {"form": "sin-squared", "c": 1.0, "eps": 0.5},
    },
    "a": 1.0,
}
SHIFT_CFG = {
    "base": {"variant": "shift", "sided": "one"},
    "fiber": {"form": "logistic-scaled", "k": 1.0},
    "a": 1.0,
}
BAD_CFG = {"base": {"variant": "torus"}, "fiber": {"form": "logistic-scaled", "k": 1.0}}
# Runs the console script's target, named in argv[1], as the installed `skewlab`
# script does, with an exit hook registered first.
SCRIPT = (
    "import atexit, importlib, sys\n"
    "atexit.register(print, 'teardown', file=sys.stderr)\n"
    "module, _, name = sys.argv.pop(1).partition(':')\n"
    "sys.exit(getattr(importlib.import_module(module), name)())\n"
)
# `python -m skewlab.cli`, with an exit hook registered first.
MODULE = (
    "import atexit, runpy, sys\n"
    "atexit.register(print, 'teardown', file=sys.stderr)\n"
    "runpy.run_module('skewlab.cli', run_name='__main__', alter_sys=True)\n"
)

# `python -m skewlab.cli` whose `load_system` raises an error that no handler maps
# to an exit code, with an exit hook registered first.
RAISING = (
    "import skewlab.config\n"
    "def load_system(doc):\n"
    "    raise RuntimeError('load_system failed')\n"
    "skewlab.config.load_system = load_system\n"
) + MODULE


def _env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(skewlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _spawn(argv, *launcher):
    launcher = launcher or ("-m", "skewlab.cli")
    return subprocess.run([sys.executable, *launcher, *argv], env=_env(), cwd=ROOT,
                          capture_output=True, timeout=120)


def _in_process(capsysbinary, argv):
    rc = cli.main(argv)
    out, err = capsysbinary.readouterr()
    return rc, out, err


@pytest.fixture
def cfg(tmp_path):
    def write(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_piped_grid_csv_is_the_bytes_main_writes(cfg, capsysbinary):
    argv = ["pullback", "--config", cfg(KELLER_CFG, "keller.json"), "--grid", "4096",
            "--depth", "400", "--out", "-"]
    proc = _spawn(argv)
    rc, out, err = _in_process(capsysbinary, argv)
    assert proc.returncode == rc == 0
    assert out.count(b"\n") == 4097
    assert proc.stdout == out
    assert proc.stderr == err and json.loads(err)["sweeps"] > 0


def test_out_file_is_the_bytes_main_writes(cfg, tmp_path, capsysbinary):
    argv = ["pullback", "--config", cfg(KELLER_CFG, "keller.json"), "--grid", "4096",
            "--depth", "400"]
    proc = _spawn(argv + ["--out", str(tmp_path / "child.csv")])
    rc, out, err = _in_process(capsysbinary, argv + ["--out", str(tmp_path / "here.csv")])
    assert proc.returncode == rc == 0
    assert proc.stdout == out == b"" and proc.stderr == err
    child = (tmp_path / "child.csv").read_bytes()
    assert child.count(b"\n") == 4097
    assert child == (tmp_path / "here.csv").read_bytes()


@pytest.mark.parametrize("code, argv, message", [
    (0, ["certify", "--config", "keller.json", "--theta", "0.3"], None),
    (2, ["certify", "--config", "bad.json"],
     "config error: field base.variant: must be one of "
     "('circle-rotation', 'finite-orbit', 'shift'), got 'torus'\n"),
    (3, ["verify", "--config", "keller.json", "--phi", "phi.csv", "--steps", "0"],
     "invariant violation: steps must be >= 1, got 0\n"),
    (5, ["pullback", "--config", "shift.json"],
     "capability error: base not invertible: no pullback for this system\n"),
], ids=["ok", "config", "invariant", "capability"])
def test_exit_code_and_streams_match_main(cfg, tmp_path, capsysbinary, code, argv, message):
    paths = {"keller.json": cfg(KELLER_CFG, "keller.json"),
             "bad.json": cfg(BAD_CFG, "bad.json"),
             "shift.json": cfg(SHIFT_CFG, "shift.json"),
             "phi.csv": str(tmp_path / "phi.csv")}
    (tmp_path / "phi.csv").write_text("point,value\n0.0,0.5\n0.5,0.5\n")
    argv = [paths.get(a, a) for a in argv]
    proc = _spawn(argv)
    rc, out, err = _in_process(capsysbinary, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)
    assert rc == code
    if message is None:
        assert err == b"" and json.loads(out)["certificate"]
    else:
        assert out == b"" and err == message.encode()


def test_infinite_parameter_exits_2_before_any_sweep(cfg):
    doc = json.loads(json.dumps(KELLER_CFG))
    doc["fiber"]["g"]["c"] = float("inf")  # json writes it as Infinity
    proc = _spawn(["pullback", "--config", cfg(doc, "inf.json"), "--grid", "64"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"config error: field fiber.g.c: must be a positive number, got inf\n"


@pytest.mark.parametrize("entry", ["console-script", "module"])
def test_both_entry_points_skip_teardown(cfg, entry):
    """An exit hook never runs: the process leaves by `os._exit`."""
    if entry == "console-script":
        pyproject = (ROOT / "pyproject.toml").read_text()
        target = re.search(r'^skewlab = "(.+)"$', pyproject, re.M).group(1)
        launcher = ("-c", SCRIPT, target)
    else:
        launcher = ("-c", MODULE)
    proc = _spawn(["certify", "--config", cfg(KELLER_CFG, "keller.json")], *launcher)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["system"]
    assert proc.stderr == b""


@pytest.mark.parametrize("argv, launcher, code, tail", [
    (["certify"], MODULE, 2, b"the following arguments are required: --config\n"),
    (["certify", "--config", "keller.json"], RAISING, 1,
     b"RuntimeError: load_system failed\n"),
], ids=["argparse-exit", "uncaught-exception"])
def test_a_raising_main_takes_the_normal_path(cfg, argv, launcher, code, tail):
    """argparse's SystemExit and an uncaught exception still run the exit hooks."""
    argv = [cfg(KELLER_CFG, "keller.json") if a == "keller.json" else a for a in argv]
    proc = _spawn(argv, "-c", launcher)
    assert proc.returncode == code
    assert proc.stderr.endswith(tail + b"teardown\n")


@pytest.mark.parametrize("argv", [
    ["orbit-pair", "--config", "keller.json", "--x0", "0.2", "--y0", "0.8"],
    ["pullback", "--config", "keller.json", "--grid", "64", "--depth", "50"],
], ids=["orbit-pair", "pullback"])
def test_failed_out_write_exits_2_naming_out(cfg, argv):
    # the file opens, and the write or the flush at close fails
    argv = [cfg(KELLER_CFG, "keller.json") if a == "keller.json" else a for a in argv]
    proc = _spawn([*argv, "--out", "/dev/full"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (b"config error: cannot write --out file '/dev/full': "
                           b"No space left on device\n")


def test_closed_stdout_exits_141_quietly(cfg):
    """A reader that stops after one line ends the process with 141 and no traceback."""
    argv = ["pullback", "--config", cfg(KELLER_CFG, "keller.json"), "--grid", "65536",
            "--depth", "100"]
    proc = subprocess.Popen([sys.executable, "-m", "skewlab.cli", *argv], env=_env(),
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"point,value\n"
    proc.stdout.close()  # 2.4 MB are still to come: the next write fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_deeply_nested_config_exits_2(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text('{"base": ' + "[" * 100000 + "]" * 100000 + "}")
    proc = _spawn(["certify", "--config", str(path)])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"config error: JSON nests too deeply to parse\n"
