"""Command-line surface: certify, orbit-pair, pullback, verify, demo.

Exit codes: 0 success, 1 a demo claim failed, 2 malformed configuration, a
setting the command would ignore, or a file it cannot read or write, 3
invariant or precondition violation, 4 a recorded contraction ratio
exceeded its bound, 5 the base lacks the requested capability.

Each handler imports the layers it runs when it runs, so `certify` never
executes the attractor or nonauto modules and `orbit-pair` never executes
the attractor module.

A `python -m skewlab.cli` or `skewlab` process enters through `run()`: once
`main()` has returned and stdout and stderr are flushed, it ends with
`os._exit`, skipping interpreter teardown (module finalisation, a last
garbage collection, numpy's shutdown).  On a 2-vCPU Xeon VM that saves
10-20 ms per process, and up to about 65 ms for a grid pullback, which
runs numpy.  `main()` itself returns its exit code, so library callers
and tests are unaffected.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os as _os
import random
import sys as _sys
from typing import NoReturn

from .bases import CircleRotation, FiniteOrbitBase, OneSidedWord, fair_bits
from .catalog import (
    CATALOG,
    GOLDEN_ROTATION,
    coinflip_attractor_graph,
    make_keller,
    make_product,
)
from .config import load_system
from .errors import (
    CapabilityError,
    ConfigError,
    CoverageError,
    DomainError,
    InvariantError,
    PreconditionError,
    check_at_least,
    file_error,
)
from .fiber import CERTIFY_GRID, certify
from .skew import classify, orbits

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BOUND = 4
EXIT_CAPABILITY = 5
# Times the fibre width a: verify's default --tol.
VERIFY_TOL = 1e-9


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield _sys.stdout
    else:
        try:  # the open, a write, or the flush at close
            with open(path, "w", newline="") as fh:
                yield fh
        except OSError as exc:
            raise file_error("write --out file", path, exc) from None


def _default_theta(base):
    if isinstance(base, CircleRotation):
        return 0.0
    if isinstance(base, FiniteOrbitBase):
        return base.points[0]
    return base.zero_word()


def _resolve_theta(base, raw: str | None):
    if raw is None:
        return _default_theta(base)
    return base.parse_point(raw)


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def __getattr__(name: str):
    # perfbench reads cli.pullback_grid; it names what cmd_pullback calls.
    if name == "pullback_grid":
        from .attractor import pullback_grid

        return pullback_grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_certify(args) -> int:
    system = load_system(args.config)
    theta = _resolve_theta(system.base, args.theta)
    fm = system.fiber_at(theta)
    cert = certify(fm, args.grid)
    _emit_json(
        {
            "system": system.label,
            "theta": system.base.format_point(theta),
            "form": fm.form,
            "certificate": cert._asdict(),
        }
    )
    return EXIT_OK


def cmd_orbit_pair(args) -> int:
    from .nonauto import along_orbit, bound_violations, iterate_pair, trace_to_csv

    system = load_system(args.config)
    theta = _resolve_theta(system.base, args.theta)
    seq = along_orbit(system, theta)
    trace = iterate_pair(seq, args.x0, args.y0, args.steps)
    with _out_stream(args.out) as fh:
        trace_to_csv(trace, fh)
    bad = bound_violations(trace)
    if bad:
        print(
            f"bound violation at steps {bad}: recorded ratio exceeded its bound",
            file=_sys.stderr,
        )
        return EXIT_BOUND
    return EXIT_OK


def cmd_pullback(args) -> int:
    from .attractor import (
        PULLBACK_STOP_DELTA,
        positive_fraction,
        pullback_graph_finite,
        pullback_grid,
        pullback_phi,
    )

    system = load_system(args.config)
    stop_delta = 0.0 if args.no_early_stop else PULLBACK_STOP_DELTA

    if args.theta is not None:
        for flag, value in (("--grid", args.grid), ("--out", args.out)):
            if value is not None:
                raise ConfigError(f"{flag} cannot be combined with --theta, which pulls "
                                  "back at one point and prints its values")
        theta = system.base.parse_point(args.theta)
        seq = pullback_phi(system, theta, args.depth, stop_delta=stop_delta)
        _emit_json(
            {
                "theta": seq.theta_repr,
                "depth_used": seq.depth_used,
                "delta": seq.delta,
                "nonincreasing": seq.nonincreasing(),
                "truncated": seq.truncated,
                "values": seq.values,
            }
        )
        return EXIT_OK

    base = system.base
    if isinstance(base, CircleRotation):
        grid = 4096 if args.grid is None else args.grid
        res = pullback_grid(system, grid_size=grid, depth=args.depth, stop_delta=stop_delta)
        with _out_stream(args.out) as fh:
            res.graph.to_csv(fh, base=base)
        summary = res._asdict()
        summary["positive_fraction"] = positive_fraction(summary.pop("graph"))
        print(json.dumps(summary, sort_keys=True), file=_sys.stderr)
        return EXIT_OK
    if isinstance(base, FiniteOrbitBase):
        if args.grid is not None:
            raise ConfigError("--grid sets the nodes of a circle base: a finite base "
                              "pulls back at each of its points")
        graph, depths = pullback_graph_finite(system, args.depth, stop_delta=stop_delta)
        with _out_stream(args.out) as fh:
            graph.to_csv(fh, base=base)
        print(
            json.dumps({"depth_used": depths}, sort_keys=True), file=_sys.stderr
        )
        return EXIT_OK
    if getattr(base, "sided", None) == "two":  # invertible, but its words are no node set
        raise CapabilityError("a pullback over all points needs a circle grid or a finite "
                              "base: give --theta to pull back at one point")
    raise CapabilityError("base not invertible: no pullback for this system")


def cmd_verify(args) -> int:
    from .attractor import GraphFunction, verify_attractor, verify_preinvariance

    system = load_system(args.config)
    try:
        with open(args.phi, newline="", encoding="utf-8") as fh:
            graph = GraphFunction.from_csv(fh, system.base, system.a)
    except (OSError, UnicodeDecodeError) as exc:
        raise file_error("read --phi file", args.phi, exc) from None
    check_at_least("--samples", args.samples, 1)
    check_at_least("horizon", args.horizon, 1)
    rng = random.Random(args.seed)
    thetas = system.base.sample_points(args.samples, rng)
    starts = [
        (theta, rng.uniform(0.05 * system.a, 0.95 * system.a)) for theta in thetas
    ]
    tol = VERIFY_TOL * system.a if args.tol is None else args.tol
    verdict = verify_attractor(system, graph, starts, args.steps, tol)
    preinv = verify_preinvariance(system, graph, thetas[:3], args.horizon, tol)
    _emit_json(
        {
            # json writes a bare NamedTuple as an array: convert the nested records too.
            "attractor": dict(
                verdict._asdict(), records=[r._asdict() for r in verdict.records]
            ),
            "preinvariance": [r._asdict() for r in preinv],
            "graph_provenance": "user-supplied",
        }
    )
    return EXIT_OK


def _claims_noinvattr(fast: bool) -> list[tuple[bool, str]]:
    from .attractor import build_preinvariant, pullback_phi, verify_preinvariance
    from .catalog import make_noinvattr

    system = make_noinvattr(64)
    claims = []

    *_, (_, (x5,)) = orbits(system, [0.0], [0.5], 5)
    claims.append(
        (
            x5 >= 1.0 - 1e-9,
            f"forward orbit from (0.0, 0.5): x_5 = {x5!r} is within 1e-9 of 1 "
            "(gap squares every step)",
        )
    )

    seq = pullback_phi(system, 0.0, 40, stop_delta=0.0)
    halving = all(v <= 2.0 ** -(n + 1) for n, v in enumerate(seq.values))
    claims.append(
        (
            halving and len(seq.values) == 40,
            "backward-transported top values at the collision point satisfy "
            "phi_n <= 2^-n for n <= 40 (weak map at most halves)",
        )
    )

    graph = build_preinvariant(system)
    claims.append(
        (
            graph.value(1.0) == 1.0 and graph.value(-1.0) == 0.0,
            "constructed preinvariant graph: value 1 at the right fixed point, "
            "0 at the left fixed point (largest fixed fiber values)",
        )
    )

    theta = system.base.parse_point("-0.5")  # chain point at index -2
    (rep,) = verify_preinvariance(system, graph, [theta], 80, 1e-9)
    claims.append(
        (rep.ok, f"graph is preinvariant along the chain (residual-free from n = {rep.first_good_n})")
    )

    contradiction = halving and x5 >= 1.0 - 1e-9
    claims.append(
        (
            contradiction,
            "no invariant attracting graph exists over this base: invariance "
            "forces the value at the collision point below 2^-40, while "
            "attraction forces values near 1 along the forward chain",
        )
    )
    return claims


def _claims_coinflip_two(fast: bool) -> list[tuple[bool, str]]:
    from .attractor import verify_attractor
    from .bases import TwoSidedWord
    from .catalog import make_coinflip

    system = make_coinflip("two")
    graph = coinflip_attractor_graph()
    max_len = 6 if fast else 10
    starts = []
    for length in range(1, max_len + 1):
        for code in range(2 ** length):
            bits = tuple((code >> i) & 1 for i in range(length))
            w = TwoSidedWord((0,), bits, (1,), 0)
            starts.append((w, 0.0))
            starts.append((w, 1.0))
    verdict = verify_attractor(system, graph, starts, steps=max_len + 2, tol=1e-15)
    ok = verdict.verdict == "attracting" and all(
        r.achieved_step is not None and r.achieved_step <= 1 and r.max_dev_after == 0.0
        for r in verdict.records
    )
    return [
        (
            ok,
            f"reading the bit at -1 is an exact attractor: deviation 0 from step 1 "
            f"on all {len(starts)} starts (words up to length {max_len})",
        )
    ]


def _coin_words(rng: random.Random, count: int) -> list[OneSidedWord]:
    """``count`` words of 20 fair bits followed by zeros.

    The bits are drawn in bulk by `fair_bits`: the words and the final state
    of ``rng`` are those of drawing each bit by ``rng.randrange(2)``.
    """
    bits = fair_bits(rng, 20 * count)
    return [OneSidedWord(bits[i:i + 20], (0,)) for i in range(0, len(bits), 20)]


def _claims_coinflip_one(fast: bool) -> list[tuple[bool, str]]:
    from .attractor import GraphFunction, build_preinvariant, match_fraction, verify_attractor
    from .catalog import make_coinflip

    system = make_coinflip("one")
    n_words = 2000 if fast else 10 ** 4
    flat = GraphFunction(1.0, func=lambda w: 0.0)
    starts = [(w, 0.0) for w in _coin_words(random.Random(20260809), n_words)]
    freq = match_fraction(system, flat, 20, starts, tol=0.0)
    claims = [
        (
            abs(freq - 0.5) <= 0.05,
            f"a constant candidate graph matches the step-20 fiber value on "
            f"{freq:.3f} of {n_words} random words (no simple graph attracts; "
            "a fair bit decides each match)",
        )
    ]

    words = [
        OneSidedWord((1, 0, 1), (0, 1)),
        OneSidedWord((0, 0, 1, 1), (1,)),
        OneSidedWord((), (1, 0, 0)),
    ]
    graph = build_preinvariant(system, points=words)
    verdict = verify_attractor(
        system, graph, [(w, 0.0) for w in words], steps=12, tol=1e-15
    )
    claims.append(
        (
            verdict.verdict == "attracting",
            "orbit-keyed construction on preperiodic words attracts exactly "
            "after each word's transient",
        )
    )
    return claims


def _claims_keller(fast: bool) -> list[tuple[bool, str]]:
    from .attractor import positive_fraction, pullback_grid, verify_preinvariance

    system = make_keller()
    grid = 1024 if fast else 4096
    res = pullback_grid(system, grid_size=grid, depth=4000)
    claims = [
        (
            res.monotone_ok,
            f"pullback values never increase at any of the {grid} grid nodes "
            f"(max increase {res.max_increase!r})",
        ),
        (
            res.delta < 1e-9,
            f"pullback converged after {res.sweeps} sweeps (last delta {res.delta!r})",
        ),
    ]
    rng = random.Random(7)
    nodes = [rng.randrange(grid) / grid for _ in range(1000)]
    bad = sum(not rep.ok for rep in verify_preinvariance(system, res.graph, nodes, 1, 1e-6))
    claims.append(
        (bad == 0, "preinvariance residual < 1e-6 at 1000 sampled grid nodes")
    )
    frac = positive_fraction(res.graph)
    claims.append(
        (
            frac >= 0.9 or frac <= 0.1,
            f"positive-node fraction is {frac:.4f}: the limit graph is observed "
            "to be essentially 0 or essentially positive, never mixed",
        )
    )
    return claims


def _claims_product_hump(fast: bool) -> list[tuple[bool, str]]:
    from .nonauto import along_orbit, isoclinic_guard, iterate_pair

    system = CATALOG["product-hump"]()
    cls = classify(system, 12, grid_size=1024)
    claims = [
        (
            cls.kind == "isoclinic-equiconcave" and abs((cls.beta or 0) - 4.0) < 1e-3,
            f"scaled hump family classifies as isoclinic-equiconcave with "
            f"beta = {cls.beta!r} (range [0, 0.6] below the isoclinic point 2/3)",
        )
    ]
    trace = iterate_pair(along_orbit(system, 0.1), 0.3, 0.62, 80)
    guard = isoclinic_guard(trace)
    gap = abs(trace.rows[-1].x - trace.rows[-1].y)
    claims.append(
        (
            guard.hypothesis_ok and not guard.flip_violations and gap < 1e-6,
            f"orbit pair converges (final gap {gap!r}) with all "
            f"{guard.flips} order flips inside their contraction bounds",
        )
    )

    unscaled = make_product(
        {"form": "quadratic-hump", "k": 4.0},
        {"form": "constant", "c": 1.0},
        CircleRotation(GOLDEN_ROTATION),
        label="full-hump",
    )
    cls2 = classify(unscaled, 8, grid_size=1024)
    trace2 = iterate_pair(along_orbit(unscaled, 0.1), 0.2, 0.21, 40)
    guard2 = isoclinic_guard(trace2)
    claims.append(
        (
            cls2.kind == "unclassified" and not guard2.hypothesis_ok,
            "the unscaled hump admits no such certificate: range reaches 1 and "
            f"the confinement hypothesis fails at step {guard2.first_violation[0] if guard2.first_violation else '?'}",
        )
    )
    return claims


_DEMOS = {
    "noinvattr": _claims_noinvattr,
    "coinflip-one": _claims_coinflip_one,
    "coinflip-two": _claims_coinflip_two,
    "keller": _claims_keller,
    "product-hump": _claims_product_hump,
}


def cmd_demo(args) -> int:
    fn = _DEMOS.get(args.name)
    if fn is None:
        raise ConfigError(f"unknown demo {args.name!r} (known: {sorted(_DEMOS)})")
    claims = fn(args.fast)
    ok_all = True
    for ok, text in claims:
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'} - {text}")
    return EXIT_OK if ok_all else EXIT_CLAIM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="skew products with concave interval fibers: "
        "certificates, orbit traces, attractor graphs",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("certify", help="concavity certificate of a fiber map")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=CERTIFY_GRID)
    p.add_argument("--theta", default=None)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("orbit-pair", help="paired orbit trace with bounds, as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--theta", default=None)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_orbit_pair)

    p = sub.add_parser("pullback", help="pullback graph over the base, as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--theta", default=None)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_pullback)

    p = sub.add_parser("verify", help="attractor and preinvariance verification")
    p.add_argument("--config", required=True)
    p.add_argument("--phi", required=True, help="graph CSV to verify")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=float, default=None)  # VERIFY_TOL * a
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("demo", help="run a bundled scenario and report claims")
    p.add_argument("name", help=f"one of {sorted(_DEMOS)}")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (InvariantError, PreconditionError, DomainError, CoverageError) as exc:
        print(f"invariant violation: {exc}", file=_sys.stderr)
        return EXIT_INVARIANT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=_sys.stderr)
        return EXIT_CAPABILITY


def run() -> NoReturn:
    """Process entry point: `main()`, then exit without interpreter teardown.

    The flushes are required: a piped stdout is block-buffered, and
    `os._exit` discards what is still in the buffer.  Every `--out` file is
    closed by its `with` block before `main` returns.  An exception out of
    `main`, argparse's `SystemExit` included, takes the normal exit path.
    """
    code = main()
    _sys.stdout.flush()
    _sys.stderr.flush()
    _os._exit(code)


if __name__ == "__main__":
    run()
