"""Nonautonomous iteration: sequences of fiber maps and paired-orbit traces.

A pair of starting points is pushed through the map sequence while the
relative gap, its per-step contraction ratio, and the matching closed-form
bound are recorded.  The bound comes from the order-preserving inequality
when the image pair keeps its order and from the order-flipping one when it
does not; ties (equal images) and coordinates pinned at 0 leave blanks.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .errors import DomainError, PreconditionError, check_at_least, check_number
from .fiber import (
    CERTIFY_GRID,
    FiberMap,
    certify,
    flip_bound,
    kappa,
    monotone_bound,
    zero_tol,
)
from .skew import SkewSystem, _check_fibers, declared

_BOUND_SLACK = 1e-9
# Relative gaps below this are dominated by the rounding error of the two
# image evaluations, so a contraction ratio read off them means nothing.
KAPPA_NOISE_FLOOR = 1e-13
# Times the fibre width a: convergence_certificate's default tol.
CONVERGENCE_TOL = 1e-6


def map_profile(fm: FiberMap) -> FiberMap:
    """The map with the data the trace bounds read: fm itself when it carries
    analytic gamma, alpha and monotonicity, taken as given (a hand-built map
    whose data omits b keeps b = None), and otherwise fm with the gamma,
    alpha, b and monotonicity that `certify` reads off CERTIFY_GRID."""
    if fm.gamma is not None and fm.alpha is not None and fm.monotone is not None:
        return fm
    cert = certify(fm, CERTIFY_GRID)
    return fm._replace(
        gamma=cert.gamma, alpha=cert.alpha_star, b=cert.b, monotone=cert.monotone
    )


class MapSequence(NamedTuple):
    """A sequence n >= 1 of fiber maps on a shared interval [0, a].

    ``declared_beta`` is the scale-normalized concavity constant: when set,
    per-step bounds use alpha_n = beta * gamma_n, matching how the sequence
    was generated.  Without it, each map's own (analytic or certified)
    concavity level is used.
    """

    supplier: Callable[[int], FiberMap]
    a: float
    declared_beta: float | None = None

    def map_at(self, n: int) -> FiberMap:
        if n < 1:
            raise DomainError(f"sequence index must be >= 1, got {n}")
        fm = self.supplier(n)
        if fm.a != self.a:
            raise DomainError(
                f"map {n} lives on [0, {fm.a!r}], sequence on [0, {self.a!r}]"
            )
        return fm


def along_orbit(sys: SkewSystem, theta) -> MapSequence:
    """The fiber maps met along the forward orbit of theta, as a sequence."""
    orbit_cache = [theta]

    def supplier(n: int) -> FiberMap:
        while len(orbit_cache) < n:
            orbit_cache.append(sys.base.step(orbit_cache[-1]))
        return sys.fiber_at(orbit_cache[n - 1])

    return MapSequence(supplier=supplier, a=sys.a, declared_beta=declared(sys)[1])


class PairStep(NamedTuple):
    """One trace row.  ratio/bound/b/case describe the transition to row n+1."""

    n: int
    x: float
    y: float
    kappa: float | None
    ratio: float | None = None
    bound: float | None = None
    b: float | None = None
    case: str | None = None  # inc | dec | tie (orientation of the image pair)


class OrbitPairTrace(NamedTuple):
    rows: list[PairStep]
    reason: str  # merged | pinched | completed
    a: float
    beta: float | None

    def first_gap_below(self, tol: float) -> int | None:
        for r in self.rows:
            if abs(r.x - r.y) < tol:
                return r.n
        return None


def _kappa_or_none(x: float, y: float) -> float | None:
    if x > 0.0 and y > 0.0:
        return kappa(x, y)
    return None


def iterate_pair(seq: MapSequence, x0: float, y0: float, steps: int) -> OrbitPairTrace:
    """Push a pair of points through the sequence, recording gap contraction.

    Terminates early with reason "merged" when the coordinates coincide and
    with reason "pinched" when the acting map is identically zero on its
    certification grid (both coordinates then sit at 0 for good).  x0 and y0
    must lie in (0, a], and ``steps`` = 0 gives the start row alone.  Before
    each step `skew._check_fibers` checks both coordinates, as in every walk.
    """
    check_at_least("steps", steps, 0)
    a = seq.a
    for name, v in (("x0", x0), ("y0", y0)):
        if not (0.0 < v <= a):
            raise DomainError(f"{name} must lie in (0, {a!r}], got {v!r}")

    k = _kappa_or_none(x0, y0)
    if x0 == y0:
        return OrbitPairTrace([PairStep(0, x0, y0, k)], "merged", a, seq.declared_beta)

    # Row n - 1 is appended once step n has filled in its transition fields.
    rows: list[PairStep] = []
    x, y = x0, y0
    reason = "completed"
    # a map met again is not re-certified
    profile = functools.cache(map_profile)
    tol = zero_tol(a)
    n = 0  # the last row's step when no step is taken
    for n in range(1, steps + 1):
        _check_fibers([x, y], a)
        fm = seq.map_at(n)
        prof = profile(fm)

        if prof.gamma <= tol:
            # a map that vanishes has no isoclinic point
            rows.append(PairStep(n - 1, x, y, k))
            x, y = fm(x), fm(y)
            k = _kappa_or_none(x, y)
            reason = "pinched"
            break

        u, v = (x, y) if x < y else (y, x)
        fu, fv = fm(u), fm(v)
        alpha = seq.declared_beta * prof.gamma if seq.declared_beta is not None else prof.alpha

        bound = None
        if fu < fv:
            case = "inc"
            if fu > 0.0:
                bound = monotone_bound(alpha, v, fv)
        elif fu > fv:
            case = "dec"
            b = prof.b
            if alpha > 0.0 and b is not None and v < b and (fb := fm(b)) > 0.0:
                bound = flip_bound(alpha, b, fb, u)
        else:
            case = "tie"

        nx, ny = (fu, fv) if x < y else (fv, fu)
        k_new = _kappa_or_none(nx, ny)
        ratio = None
        if k is not None and k >= KAPPA_NOISE_FLOOR and k_new is not None:
            ratio = k_new / k
        rows.append(PairStep(n - 1, x, y, k, ratio, bound, prof.b, case))
        x, y, k = nx, ny, k_new
        if x == y:
            reason = "merged"
            break

    rows.append(PairStep(n, x, y, k))
    return OrbitPairTrace(rows, reason, a, seq.declared_beta)


def bound_violations(trace: OrbitPairTrace) -> list[int]:
    """Row indices whose recorded ratio exceeds the recorded bound."""
    return [
        r.n
        for r in trace.rows
        if r.ratio is not None and r.bound is not None
        and r.ratio > r.bound + _BOUND_SLACK
    ]


class ConvergenceReport(NamedTuple):
    verdict: str  # consistent | violation
    violation_step: int | None
    eps: float
    per_step_cap: float
    capped_steps: int
    cap_violations: list[int]
    envelope: list[float]
    envelope_first: int | None
    first_within: int | None
    tol: float


def convergence_certificate(
    trace: OrbitPairTrace, beta: float, eps: float, tol: float | None = None
) -> ConvergenceReport:
    """Check a monotone equiconcave trace against its contraction budget.

    Every step whose coordinates both stay above eps must contract the
    relative gap by at least the factor 1/(1 + beta*eps^2); the product of
    the recorded per-step bounds gives a geometric envelope
    a * kappa_0 * prod(bounds) that dominates |x_n - y_n|.  ``tol``, the
    gap that counts as converged, defaults to CONVERGENCE_TOL * a.
    """
    if tol is None:
        tol = CONVERGENCE_TOL * trace.a
    for name, v in (("beta", beta), ("eps", eps), ("tol", tol)):
        check_number(name, v, "a positive number", DomainError)
    recorded = [r for r in trace.rows if r.bound is not None]
    if not recorded:
        raise PreconditionError("trace lacks bound records")

    cap = 1.0 / (1.0 + beta * eps * eps)
    capped_steps = 0
    cap_violations = []
    violation_step = next(iter(bound_violations(trace)), None)
    for r in trace.rows:
        if r.ratio is None or r.bound is None:
            continue
        if min(r.x, r.y) >= eps:
            capped_steps += 1
            if r.ratio > cap + _BOUND_SLACK:
                cap_violations.append(r.n)

    k0 = trace.rows[0].kappa
    envelope: list[float] = []
    envelope_first = None
    if k0 is not None:
        env = trace.a * k0
        envelope.append(env)
        for r in trace.rows[:-1]:
            if r.bound is None:
                break
            env *= r.bound
            envelope.append(env)
        for n, env_n in enumerate(envelope):
            if env_n < tol:
                envelope_first = n
                break

    first_within = trace.first_gap_below(tol)
    verdict = "consistent" if violation_step is None and not cap_violations else "violation"
    if verdict == "violation" and violation_step is None:
        violation_step = cap_violations[0]
    return ConvergenceReport(
        verdict=verdict,
        violation_step=violation_step,
        eps=eps,
        per_step_cap=cap,
        capped_steps=capped_steps,
        cap_violations=cap_violations,
        envelope=envelope,
        envelope_first=envelope_first,
        first_within=first_within,
        tol=tol,
    )


class GuardReport(NamedTuple):
    hypothesis_ok: bool
    first_violation: tuple[int, float, float] | None  # (n, offending value, b)
    flips: int
    flip_violations: list[int]
    unverifiable: list[int]


def isoclinic_guard(trace: OrbitPairTrace) -> GuardReport:
    """Verify the confinement hypothesis x_n, y_n < b and the flip bounds.

    At order-flipping steps the ratio is additionally checked against the
    normalized bound 1 - beta*a*(b - min(x,y))/2 (requires the trace's
    sequence to declare beta).  Reports, never raises, on hypothesis failure.
    """
    beta = trace.beta
    first_violation = None
    flips = 0
    flip_violations = []
    unverifiable = []
    for r in trace.rows[:-1]:
        if r.case is None:
            continue
        if r.b is None:
            unverifiable.append(r.n)
            continue
        hi = max(r.x, r.y)
        if hi >= r.b and first_violation is None:
            first_violation = (r.n, hi, r.b)
        if r.case == "dec":
            flips += 1
            if beta is not None and r.ratio is not None and hi < r.b:
                norm_bound = 1.0 - beta * trace.a * (r.b - min(r.x, r.y)) / 2.0
                if r.ratio > norm_bound + _BOUND_SLACK:
                    flip_violations.append(r.n)

    return GuardReport(
        hypothesis_ok=first_violation is None,
        first_violation=first_violation,
        flips=flips,
        flip_violations=flip_violations,
        unverifiable=unverifiable,
    )


TRACE_COLUMNS = ("n", "x", "y", "kappa", "ratio", "bound", "b")


def _cell(v: float | int | None) -> str:
    return "" if v is None else repr(v)


def trace_to_csv(trace: OrbitPairTrace, stream) -> None:
    """A header, then one plain-text row per step, as `GraphFunction.to_csv`."""
    stream.write(",".join(TRACE_COLUMNS) + "\n")
    stream.writelines(
        f"{r.n},{r.x!r},{r.y!r},{_cell(r.kappa)},{_cell(r.ratio)},{_cell(r.bound)},"
        f"{_cell(r.b)}\n"
        for r in trace.rows
    )
