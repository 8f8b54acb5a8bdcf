"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import math
import random
import time

import pytest

from skewlab.attractor import (
    GraphFunction,
    match_fraction,
    positive_fraction,
    pullback_grid,
    pullback_phi,
    uniqueness_probe,
    verify_attractor,
    verify_preinvariance,
)
from skewlab.bases import OneSidedWord, TwoSidedWord
from skewlab.catalog import make_coinflip, make_keller, make_noinvattr
from skewlab.cli import _claims_noinvattr
from skewlab.fiber import (
    FiberMap,
    certify,
    isoclinic_point,
    kappa,
    ratio_bound_monotone,
    ratio_bound_nonmonotone,
)
from skewlab.nonauto import (
    MapSequence,
    convergence_certificate,
    isoclinic_guard,
    iterate_pair,
)
from skewlab.skew import orbits

from conftest import (
    admissible_flip_pair,
    admissible_increasing_pair,
    bumpy_concave,
    hump,
    monotone_concave,
)

LOGISTIC = FiberMap(1.0, lambda x: x * (2.0 - x), form="x(2-x)")
HUMP4 = FiberMap(1.0, lambda x: 4.0 * x * (1.0 - x), form="4x(1-x)")


def _report(num: int, msg: str) -> None:
    print(f"[criterion {num:2d}] PASS - {msg}")


def test_c01_relative_gap_algebra():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(10_000):
        u = rng.uniform(1e-6, 1e3)
        v = rng.uniform(1e-6, 1e3)
        assert kappa(u, v) == kappa(v, u)
        assert kappa(u, u) == 0.0
        c = 2.0 ** rng.randint(-24, 24)
        assert kappa(c * u, c * v) == kappa(u, v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"gap functional algebra exact on 10^4 random pairs in {elapsed:.2f}s")


def test_c02_concavity_certification():
    cert1 = certify(LOGISTIC, 10_000)
    assert cert1.alpha_star == pytest.approx(1.0, abs=1e-3)
    cert2 = certify(HUMP4, 10_000)
    assert cert2.alpha_star == pytest.approx(4.0, abs=4e-3)
    _report(2, f"alpha_star = {cert1.alpha_star:.6f} (x(2-x)) and "
               f"{cert2.alpha_star:.6f} (4x(1-x)) at grid 10^4")


def test_c03_isoclinic_point():
    b = isoclinic_point(HUMP4)
    assert b == pytest.approx(2.0 / 3.0, abs=1e-6)
    rng = random.Random(303)
    worst = math.inf
    for _ in range(500):
        if rng.random() < 0.5:
            case = hump(rng, a=rng.uniform(0.5, 2.0))
        else:
            case = bumpy_concave(rng)
        fm = case["fm"]
        bi = isoclinic_point(fm, scan=512)
        worst = min(worst, bi - fm.a / 2.0)
        assert bi >= fm.a / 2.0 - 1e-6
    _report(3, f"b(4x(1-x)) = {b:.8f}; 500 random strictly concave maps keep "
               f"b - a/2 >= {worst:.3e}")


def test_c04_order_preserving_ratio_bound():
    rng = random.Random(404)
    checked = 0
    while checked < 1000:
        case = monotone_concave(rng) if rng.random() < 0.7 else hump(rng)
        pair = admissible_increasing_pair(rng, case["fm"])
        if pair is None:
            continue
        rb = ratio_bound_monotone(case["fm"], case["alpha"], *pair)
        assert rb.ratio <= rb.bound + 1e-9
        checked += 1
    _report(4, "1000 admissible order-preserving instances: ratio <= bound + 1e-9, "
               "zero violations")


def test_c05_order_flipping_ratio_bound():
    rb = ratio_bound_nonmonotone(HUMP4, 4.0, 2.0 / 3.0, 0.45, 0.66)
    expected_ratio = (0.0924 / 0.8976) / (0.21 / 0.45)  # 0.220588...
    assert rb.ratio == pytest.approx(expected_ratio, abs=1e-12)
    assert rb.ratio == pytest.approx(0.2206, abs=1e-4)
    assert rb.bound == pytest.approx(0.35, abs=1e-4)

    rng = random.Random(505)
    checked = 0
    while checked < 1000:
        case = hump(rng, a=rng.uniform(0.5, 2.0))
        pair = admissible_flip_pair(rng, case["fm"], case["b"])
        if pair is None:
            continue
        rb_i = ratio_bound_nonmonotone(case["fm"], case["alpha"], case["b"], *pair)
        assert rb_i.ratio < rb_i.bound
        checked += 1
    _report(5, f"specific instance ratio {rb.ratio:.6f} < bound {rb.bound:.6f}; "
               "1000 random flip instances strictly bounded")


def _strong_monotone_sequence(rng):
    ks = [rng.uniform(0.75, 1.0) for _ in range(600)]

    def supplier(n):
        k = ks[(n - 1) % len(ks)]
        return FiberMap(1.0, lambda x, k=k: k * x * (2.0 - x),
                        gamma=k, alpha=k, b=1.0, monotone=True)

    return MapSequence(supplier, 1.0, declared_beta=1.0)


def test_c06_monotone_contraction_at_desk_scale():
    rng = random.Random(606)
    t0 = time.perf_counter()
    slowest = 0
    for _ in range(100):
        seq = _strong_monotone_sequence(rng)
        x0 = rng.uniform(0.2, 1.0)
        y0 = rng.uniform(0.2, 1.0)
        if abs(x0 - y0) < 1e-3:
            y0 = min(1.0, x0 + 0.1)
        tr = iterate_pair(seq, x0, y0, 400)
        assert all(min(r.x, r.y) >= 0.1 for r in tr.rows)
        ks = [r.kappa for r in tr.rows if r.kappa is not None]
        # strictly decreasing until the gap reaches the rounding floor,
        # where the recorded values are subtraction noise on equal doubles
        assert all(b < a for a, b in zip(ks, ks[1:]) if a >= 1e-13)
        rep = convergence_certificate(tr, beta=1.0, eps=0.1, tol=1e-6)
        assert rep.verdict == "consistent"
        assert rep.first_within is not None
        # the recorded product budget dominates the gap at every step ...
        for row, env in zip(tr.rows, rep.envelope):
            assert abs(row.x - row.y) <= env + 1e-12
        # ... so the tolerance is hit no later than the budget predicts
        if rep.envelope_first is not None:
            assert rep.first_within <= rep.envelope_first
        else:
            assert tr.reason == "merged"
        slowest = max(slowest, rep.first_within)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, f"100 monotone sequences: gap < 1e-6 within the recorded product "
               f"budget (worst first step {slowest}) in {elapsed:.2f}s")


def _scaled_hump_sequence(rng):
    ss = [rng.uniform(0.5, 0.6) for _ in range(400)]

    def supplier(n):
        s = ss[(n - 1) % len(ss)]
        return FiberMap(1.0, lambda x, s=s: 4.0 * s * x * (1.0 - x),
                        gamma=s, alpha=4.0 * s, b=2.0 / 3.0, monotone=False)

    return MapSequence(supplier, 1.0, declared_beta=4.0)


def test_c07_nonmonotone_contraction_and_guard():
    rng = random.Random(707)
    total_flips = 0
    for _ in range(30):
        seq = _scaled_hump_sequence(rng)
        x0 = rng.uniform(0.1, 0.65)
        y0 = rng.uniform(0.1, 0.65)
        if abs(x0 - y0) < 1e-3:
            y0 = min(0.65, x0 + 0.05)
        tr = iterate_pair(seq, x0, y0, 200)
        rep = isoclinic_guard(tr)
        assert rep.hypothesis_ok and not rep.flip_violations
        assert abs(tr.rows[-1].x - tr.rows[-1].y) < 1e-6
        total_flips += rep.flips
    assert total_flips > 0

    full = FiberMap(1.0, lambda x: 4.0 * x * (1.0 - x),
                    gamma=1.0, alpha=4.0, b=2.0 / 3.0, monotone=False)
    seq_full = MapSequence(lambda n: full, 1.0, declared_beta=4.0)
    tr_full = iterate_pair(seq_full, 0.2, 0.25, 40)
    rep_full = isoclinic_guard(tr_full)
    assert not rep_full.hypothesis_ok
    _report(7, f"30 confined hump sequences converge with {total_flips} bounded "
               "flips; the unconfined hump is reported hypothesis-violating at "
               f"step {rep_full.first_violation[0]}")


def test_c08_chain_example():
    system = make_noinvattr(64)
    *_, (_, (x5,)) = orbits(system, [0.0], [0.5], 5)
    assert x5 >= 1.0 - 1e-9

    seq = pullback_phi(system, 0.0, 40, stop_delta=0.0)
    assert seq.depth_used == 40
    assert all(v <= 2.0 ** -(n + 1) for n, v in enumerate(seq.values))

    claims = _claims_noinvattr(fast=False)
    assert all(ok for ok, _ in claims)
    assert any("no invariant attracting graph" in text for _, text in claims)
    _report(8, f"forward orbit within 1e-9 of 1 by step 5; pullback values halve "
               f"for 40 steps (last {seq.values[-1]:.2e}); demo contradiction "
               "statement verified")


def test_c09_coin_model():
    two = make_coinflip("two")
    graph_two = GraphFunction(1.0, func=lambda w: float(w.symbol(-1)))
    starts = []
    for length in range(1, 11):
        for code in range(2 ** length):
            bits = tuple((code >> i) & 1 for i in range(length))
            w = TwoSidedWord((0,), bits, (1,), 0)
            starts.append((w, 0.0))
            starts.append((w, 1.0))
    verdict = verify_attractor(two, graph_two, starts, steps=12, tol=1e-15)
    assert verdict.verdict == "attracting"
    for rec in verdict.records:
        assert rec.achieved_step <= 1 and rec.max_dev_after == 0.0

    one = make_coinflip("one")
    flat = GraphFunction(1.0, func=lambda w: 0.0)
    rng = random.Random(909)
    word_starts = [
        (OneSidedWord(tuple(rng.randrange(2) for _ in range(20)), (0,)), 0.0)
        for _ in range(10_000)
    ]
    freq = match_fraction(one, flat, 20, word_starts, tol=0.0)
    assert abs(freq - 0.5) <= 0.05
    _report(9, f"two-sided reader exact on all {len(starts)} starts (words up to "
               f"length 10); one-sided constant-graph match frequency {freq:.4f}")


def test_c10_pullback_dichotomy():
    system = make_keller()
    res = pullback_grid(system, grid_size=4096, depth=4000, stop_delta=1e-12)
    assert res.monotone_ok
    assert res.delta < 1e-12

    rng = random.Random(1010)
    nodes = [rng.randrange(4096) / 4096 for _ in range(1000)]
    reps = verify_preinvariance(system, res.graph, nodes, 1, 1e-6)
    assert len(reps) == 1000 and all(rep.ok for rep in reps)
    frac = positive_fraction(res.graph)
    assert frac >= 0.9 or frac <= 0.1
    _report(10, f"pullback nonincreasing at all 4096 nodes, converged in "
                f"{res.sweeps} sweeps; residual < 1e-6 at 1000 nodes; positive "
                f"fraction {frac:.4f} (dichotomy observed, not asserted as truth)")


def test_c11_uniqueness_shadow():
    system = make_keller()
    res = pullback_grid(system, grid_size=2048, depth=1000, stop_delta=0.0)
    g500 = pullback_grid(system, grid_size=2048, depth=500, stop_delta=0.0).graph
    rng = random.Random(1111)
    thetas = [rng.random() for _ in range(100)]
    rep = uniqueness_probe(system, g500, res.graph, thetas, steps=100, eps=1e-6)
    assert rep.flagged_orbits == 0
    assert rep.max_gap < 1e-6
    _report(11, f"pullback graphs at depths 500 and 1000 agree within "
                f"{max(rep.max_gap, 1e-18):.2e} along 100 sampled orbits")
