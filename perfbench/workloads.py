"""The two seeded workloads: config files, CLI job lists and their checks.

`build(name, seed, workdir)` derives every input from the seed, writes the
configs into `workdir`, and returns the job list.  The program sees only
argv and config files; every job's output is checked in closed form by the
`check` attached to it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
WORKLOADS = ("circle-product", "chain-shift")
# Subcommand -> end-to-end metric holding the sum of its job times.
COMMAND_METRICS = {
    "certify": "certify_rel",
    "orbit-pair": "orbit_pair_rel",
    "pullback": "pullback_rel",
    "verify": "verify_rel",
    "demo": "demo_rel",
}
TRACE_HEADER = ("n", "x", "y", "kappa", "ratio", "bound", "b")
GRAPH_HEADER = ("point", "value")

# Black-box cubic: three coefficients, which the registry does not analyse.
# f = 2.4x - 1.2x^2 - 0.6x^3: alpha = 1.2, peak f(2/3) = 8/9, nonmonotone;
# |f'| < f/x up to b = (-1.5 + sqrt(10.25)) / 2; fixed point solves
# 0.6x^2 + 1.2x - 1.4 = 0.
CUBIC_HUMP = [2.4, -1.2, -0.6]
CUBIC_HUMP_B = (-1.5 + math.sqrt(10.25)) / 2.0
CUBIC_HUMP_FIXED = (-1.2 + math.sqrt(1.44 + 4 * 0.6 * 1.4)) / 1.2
# orbit-pair re-certifies the black-box map at every step.  |f'| is about
# 0.81 at the fixed point, so 100 steps bring the pair well within the
# 1e-6 the trace check allows.
CUBIC_HUMP_STEPS = 100


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: Callable[[str, str], None]  # (stdout, stderr) -> raises CheckFailed
    outputs: tuple[str, ...] = ()  # files the job writes

    @property
    def metric(self) -> str:
        return COMMAND_METRICS[self.argv[0]]


@dataclass(frozen=True)
class Workload:
    inputs: dict  # the seeded values, recorded with every result
    setup_config: str  # config loaded by the set-up probe
    jobs: tuple[Job, ...]


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return str(path)


def _file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise checks.CheckFailed(f"output file missing: {exc}") from None


def _demo(name: str) -> Job:
    return Job(f"demo-{name}", ("demo", name), lambda out, err: checks.demo_lines(out))


def _orbit_pair(jid, config, steps, x0, y0, workdir, theta=None, fixed_point=None,
                full=False) -> Job:
    out_path = str(workdir / f"{jid}.csv")
    argv = ["orbit-pair", "--config", config, "--steps", str(steps),
            "--x0", repr(x0), "--y0", repr(y0), "--out", out_path]
    if theta is not None:
        argv += ["--theta", theta]

    def check(out, err):
        rows = checks.read_csv(_file(out_path), TRACE_HEADER)
        checks.trace_rows(rows, steps, fixed_point=fixed_point, full=full)

    return Job(jid, tuple(argv), check, (out_path,))


def _certify(jid, config, grid, theta, **closed_form) -> Job:
    argv = ["certify", "--config", config]
    if grid is not None:
        argv += ["--grid", str(grid)]
    if theta is not None:
        argv += ["--theta", theta]

    def check(out, err):
        doc = checks.parse_json(out, "certify output")
        checks.certificate(doc.get("certificate", {}), grid=grid or 4096, **closed_form)

    return Job(jid, tuple(argv), check)


def _verify(jid, config, phi, samples, steps, seed, tol=None) -> Job:
    argv = ["verify", "--config", config, "--phi", phi, "--samples", str(samples),
            "--steps", str(steps), "--seed", str(seed)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    return Job(jid, tuple(argv),
               lambda out, err: checks.verdict(checks.parse_json(out, "verify output")))


def _grid_pullback(jid, config, grid, depth, workdir, summary_check, lo, hi) -> Job:
    out_path = str(workdir / f"{jid}.csv")

    def check(out, err):
        summary_check(checks.parse_json(err, "pullback summary"))
        checks.grid_graph(checks.read_csv(_file(out_path), GRAPH_HEADER), grid, lo, hi)

    argv = ("pullback", "--config", config, "--grid", str(grid), "--depth", str(depth),
            "--out", out_path)
    return Job(jid, argv, check, (out_path,))


def circle_product(seed: int, workdir: Path) -> Workload:
    """Keller product family over the golden rotation."""
    rng = random.Random(f"circle-product/{seed}")
    eps = rng.choice([0.3, 0.5, 0.7])
    theta_c, theta_p = rng.random(), rng.random()
    x0, y0 = rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)
    verify_seed = rng.randrange(2 ** 31)
    config = _write(workdir, "keller.json", {
        "base": {"variant": "circle-rotation", "omega": GOLDEN},
        "fiber": {"form": "product", "f": {"form": "logistic-scaled", "k": 1.0},
                  "g": {"form": "sin-squared", "c": 1.0, "eps": eps}},
        "a": 1.0,
    })
    q = checks.keller_q(eps, theta_c)
    positive = checks.keller_exponent(eps) > 0.0
    graph_lo = checks.POSITIVE_THRESHOLD if positive else 0.0
    phi = str(workdir / "pullback-4096.csv")

    def summary(doc):
        checks.keller_summary(doc, eps)

    jobs = (
        _certify("certify", config, 10000, repr(theta_c), alpha=q, gamma=q, monotone=True),
        _orbit_pair("orbit-pair", config, 1000, x0, y0, workdir),
        _grid_pullback("pullback-65536", config, 65536, 4000, workdir, summary, graph_lo, 1.0),
        _grid_pullback("pullback-4096", config, 4096, 4000, workdir, summary, graph_lo, 1.0),
        Job("pullback-theta",
            ("pullback", "--config", config, "--theta", repr(theta_p), "--depth", "4000"),
            lambda out, err: checks.pullback_sequence(
                checks.parse_json(out, "pullback output"), positive)),
        # The grid graph is read by nearest node, so agreement carries a
        # slack of order |phi'| / 8192: 1e-4 to 3e-4 for these eps values.
        _verify("verify", config, phi, 200, 1000, verify_seed, tol=1e-3),
        _demo("keller"),
    )
    inputs = {"eps": eps, "lambda": checks.keller_exponent(eps), "theta_certify": theta_c,
              "theta_pullback": theta_p, "x0": x0, "y0": y0, "verify_seed": verify_seed}
    return Workload(inputs, config, jobs)


def _chain_point(n: int) -> float:
    """Chain point of index n on the noinvattr base (catalog formula)."""
    return 1.0 - 1.0 / (n + 1) if n >= 0 else -1.0 - 1.0 / n


def chain_shift(seed: int, workdir: Path) -> Workload:
    """noinvattr finite chain (window 64), the coin-flip shifts and a black-box cubic."""
    rng = random.Random(f"chain-shift/{seed}")
    theta_c = _chain_point(rng.randint(-64, 64))
    theta_o = _chain_point(rng.randint(-64, 64))
    x0, y0 = rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)
    verify_seed = rng.randrange(2 ** 31)
    hump_pair = _separate_pair(rng, CUBIC_HUMP, CUBIC_HUMP_STEPS)
    config = _write(workdir, "noinvattr.json", {
        "base": {"variant": "finite-orbit", "preset": "noinvattr", "window": 64},
        "fiber": {"form": "noinvattr-split"},
    })
    hump = _write(workdir, "cubic-hump.json", {
        "base": {"variant": "shift", "sided": "two"},
        "fiber": {"form": "poly", "coeffs": CUBIC_HUMP},
    })
    graph = str(workdir / "pullback-finite.csv")

    def finite_check(out, err):
        table = {p: float(v) for p, v in checks.read_csv(_file(graph), GRAPH_HEADER)}
        depths = checks.parse_json(err, "pullback summary").get("depth_used", {})
        checks.noinvattr_graph(table, depths)

    # x(2-x) on the right half, x(2-x)/4 on the left: alpha = gamma = k.
    k = 1.0 if theta_c >= 0.0 else 0.25
    jobs = (
        Job("pullback-finite",
            ("pullback", "--config", config, "--depth", "1000", "--no-early-stop",
             "--out", graph),
            finite_check, (graph,)),
        Job("pullback-theta",
            ("pullback", "--config", config, "--theta", "-1.0", "--depth", "2000",
             "--no-early-stop"),
            lambda out, err: checks.halving(
                checks.parse_json(out, "pullback output").get("values"), 2000)),
        _verify("verify", config, graph, 200, 200, verify_seed),
        _certify("certify", config, None, repr(theta_c), alpha=k, gamma=k, monotone=True),
        _orbit_pair("orbit-pair", config, 100, x0, y0, workdir, theta=repr(theta_o)),
        # The cubic has no registry metadata: certify runs the isoclinic
        # scan, and orbit-pair certifies the map at every step.
        _certify("certify-hump", hump, 20000, None,
                 alpha=1.2, gamma=8.0 / 9.0, b=CUBIC_HUMP_B, monotone=False),
        # The pair is drawn to stay apart (_separate_pair); a trace cut
        # short would mean less work, so it fails instead.
        _orbit_pair("orbit-pair-hump", hump, CUBIC_HUMP_STEPS, *hump_pair, workdir,
                    fixed_point=CUBIC_HUMP_FIXED, full=True),
        _demo("noinvattr"),
        _demo("coinflip-one"),
        _demo("coinflip-two"),
        _demo("product-hump"),
    )
    inputs = {"theta_certify": theta_c, "theta_orbit": theta_o, "x0": x0, "y0": y0,
              "verify_seed": verify_seed, "hump_pair": hump_pair}
    return Workload(inputs, config, jobs)


def _poly(coeffs, x: float) -> float:
    """The cubic in the float arithmetic of skewlab's `poly` form (Horner)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * x
    return acc


def _separate_pair(rng, coeffs, steps) -> tuple[float, float]:
    """A seeded start pair whose float orbits stay apart for `steps` steps.

    orbit-pair stops as soon as the two coordinates are equal.  Near an
    attracting fixed point the pair reaches rounding level within a few
    dozen steps, and whether the two floats then coincide is luck; a
    merged pair would do a fraction of the work, so the job's cost would
    depend on the seed.
    """
    while True:
        x0 = x = rng.uniform(0.05, 0.45)
        y0 = y = rng.uniform(0.55, 0.95)
        for _ in range(steps):
            x, y = _poly(coeffs, x), _poly(coeffs, y)
            if x == y:
                break
        else:
            return x0, y0


_BUILDERS = {
    "circle-product": circle_product,
    "chain-shift": chain_shift,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return _BUILDERS[name](seed, workdir)
