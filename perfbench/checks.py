"""Closed-form checks on skewlab CLI outputs.

Every check compares an output with a value derived from theory, never with
a snapshot of an earlier output, so a more accurate program still passes.
A check raises `CheckFailed` naming what is wrong and returns nothing.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Certificates are read off a uniform grid of step h = 1 / grid; for the
# cubic and quadratic fibres used here the grid error of alpha_star, gamma
# and the isoclinic point is at most a few h.
GRID_ERROR_STEPS = 4.0
# The pullback graph counts as positive above this value (skewlab's own
# positivity threshold).
POSITIVE_THRESHOLD = 1e-9


class CheckFailed(Exception):
    """An output disagrees with its closed-form value."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what} is not JSON: {exc}") from None


def read_csv(text: str, header: tuple[str, ...]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and tuple(rows[0]) == header,
             f"CSV header is {rows[:1]!r}, expected {list(header)!r}")
    return rows[1:]


def keller_q(eps: float, theta: float) -> float:
    """Base factor q(theta) = eps + (1 - eps) sin^2(pi theta) of the Keller family."""
    s = math.sin(math.pi * theta)
    return eps + (1.0 - eps) * s * s


def keller_exponent(eps: float) -> float:
    """lambda(eps) = log 2 + 2 log((1 + sqrt(eps)) / 2) for p = x(2-x) (Keller 1996)."""
    return math.log(2.0) + 2.0 * math.log((1.0 + math.sqrt(eps)) / 2.0)


def certificate(cert: dict, alpha: float, gamma: float, grid: int,
                b: float | None = None, monotone: bool | None = None) -> None:
    """alpha_star, gamma (and b, monotone when given) match their closed forms on [0, 1]."""
    tol = GRID_ERROR_STEPS / grid
    checks = [("alpha_star", cert.get("alpha_star"), alpha),
              ("gamma", cert.get("gamma"), gamma)]
    if b is not None:
        checks.append(("b", cert.get("b"), b))
    for name, got, want in checks:
        _require(isinstance(got, (int, float)) and abs(got - want) <= tol,
                 f"certificate {name} = {got!r}, closed form {want!r} (tol {tol:g})")
    if monotone is not None:
        _require(cert.get("monotone") is monotone,
                 f"certificate monotone = {cert.get('monotone')!r}, expected {monotone!r}")


def pullback_summary(summary: dict, fraction: float) -> None:
    """A grid pullback summary reports the expected positive fraction, monotone."""
    got = summary.get("positive_fraction")
    _require(got == fraction, f"positive_fraction = {got!r}, expected {fraction!r}")
    _require(summary.get("monotone_ok") is True,
             f"monotone_ok = {summary.get('monotone_ok')!r}")


def keller_summary(summary: dict, eps: float) -> None:
    """The Keller pullback is positive exactly when lambda(eps) > 0."""
    pullback_summary(summary, 1.0 if keller_exponent(eps) > 0.0 else 0.0)


def grid_graph(rows: list[list[str]], nodes: int, lo: float, hi: float) -> None:
    """A graph CSV holds every node j/m once, with values in [lo, hi]."""
    _require(len(rows) == nodes, f"graph has {len(rows)} rows, expected {nodes}")
    for j, (point, value) in enumerate(rows):
        _require(float(point) == j / nodes, f"row {j} is point {point}, expected {j / nodes!r}")
        _require(lo <= float(value) <= hi,
                 f"graph value {value} at {point} outside [{lo!r}, {hi!r}]")


def pullback_sequence(doc: dict, positive: bool) -> None:
    """phi_n(theta) never increases, stays in [0, 1], and is positive when expected."""
    values = doc.get("values")
    _require(isinstance(values, list) and values, "pullback sequence has no values")
    for n in range(1, len(values)):
        _require(values[n] <= values[n - 1] + 1e-12,
                 f"phi_{n + 1} = {values[n]!r} exceeds phi_{n} = {values[n - 1]!r}")
    _require(0.0 <= values[-1] <= 1.0, f"limit {values[-1]!r} outside [0, 1]")
    if positive:
        _require(values[-1] > POSITIVE_THRESHOLD,
                 f"limit {values[-1]!r} is not positive although lambda > 0")


def halving(values: list, depth: int) -> None:
    """noinvattr at its left fixed point: phi_n(-1) <= 2^-n for n = 1..depth."""
    _require(len(values) == depth, f"{len(values)} values, expected {depth}")
    for n, v in enumerate(values, start=1):
        _require(0.0 <= v <= 2.0 ** -n, f"phi_{n}(-1) = {v!r} exceeds 2^-{n}")


def noinvattr_graph(table: dict, depths: dict) -> None:
    """The finite pullback graph is 1 at the fixed point 1 and 0 at -1.

    The strong map x(2-x) fixes 1, so every phi_n(1) = 1; the weak map
    x(2-x)/4 at most halves, so phi_n(-1) <= 2^-n.
    """
    one, minus_one = table.get("1.0"), table.get("-1.0")
    _require(one is not None and abs(one - 1.0) <= 1e-12, f"graph at 1.0 is {one!r}, expected 1")
    n = depths.get("-1.0", 0)
    _require(n >= 1, f"pullback at -1.0 used depth {n!r}")
    _require(minus_one is not None and 0.0 <= minus_one <= 2.0 ** -n,
             f"graph at -1.0 is {minus_one!r}, expected 0 (at most 2^-{n})")


def verdict(doc: dict) -> None:
    got = doc.get("attractor", {}).get("verdict")
    _require(got == "attracting", f"verify verdict is {got!r}, expected 'attracting'")


def demo_lines(text: str) -> None:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(bool(lines), "demo printed no claims")
    for line in lines:
        _require(line.startswith("PASS"), f"demo claim not PASS: {line[:120]!r}")


def trace_rows(rows: list[list[str]], steps: int, fixed_point: float | None = None,
               full: bool = False) -> None:
    """An orbit-pair trace: 2..steps+1 rows in [0, 1], ending near f's fixed point.

    With `full` the pair must not merge early: the trace has all steps+1 rows.
    """
    least = steps + 1 if full else 2
    _require(least <= len(rows) <= steps + 1, f"trace has {len(rows)} rows for {steps} steps")
    for r in rows:
        x, y = float(r[1]), float(r[2])
        _require(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0, f"trace row {r[0]} leaves [0, 1]")
    if fixed_point is not None:
        x, y = float(rows[-1][1]), float(rows[-1][2])
        _require(abs(x - fixed_point) <= 1e-6 and abs(y - fixed_point) <= 1e-6,
                 f"orbits end at ({x!r}, {y!r}), not at the fixed point {fixed_point!r}")
