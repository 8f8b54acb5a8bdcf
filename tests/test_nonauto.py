import csv
import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import nonauto
from skewlab.bases import CircleRotation
from skewlab.catalog import CATALOG, GOLDEN_ROTATION, make_product
from skewlab.errors import DomainError, PreconditionError
from skewlab.fiber import FiberMap, certify, ratio_bound_monotone, ratio_bound_nonmonotone
from skewlab.registry import build_fiber
from skewlab.nonauto import (
    MapSequence,
    bound_violations,
    convergence_certificate,
    isoclinic_guard,
    iterate_pair,
    trace_to_csv,
)

HALF = FiberMap(
    1.0, lambda x: x * (2.0 - x) / 2.0, form="x(2-x)/2",
    gamma=0.5, alpha=0.5, b=1.0, monotone=True,
)
ZERO = FiberMap(1.0, lambda x: 0.0, form="0", gamma=0.0, alpha=0.0, monotone=True)


def constant_sequence(fm, beta=None):
    return MapSequence(lambda n: fm, fm.a, declared_beta=beta)


def strong_monotone_sequence(rng):
    """k_n * x(2-x) with k_n in [0.75, 1]: orbits from [0.2, 1] stay >= 0.27."""
    ks = [rng.uniform(0.75, 1.0) for _ in range(500)]

    def supplier(n):
        k = ks[(n - 1) % len(ks)]
        return FiberMap(
            1.0, lambda x, k=k: k * x * (2.0 - x),
            gamma=k, alpha=k, b=1.0, monotone=True,
        )

    return MapSequence(supplier, 1.0, declared_beta=1.0)


def scaled_hump_sequence(rng):
    """s_n * 4x(1-x) with s_n in [0.5, 0.6]: range inside [0, 2/3)."""
    ss = [rng.uniform(0.5, 0.6) for _ in range(500)]

    def supplier(n):
        s = ss[(n - 1) % len(ss)]
        return FiberMap(
            1.0, lambda x, s=s: 4.0 * s * x * (1.0 - x),
            gamma=s, alpha=4.0 * s, b=2.0 / 3.0, monotone=False,
        )

    return MapSequence(supplier, 1.0, declared_beta=4.0)


class TestIteratePair:
    def test_contraction_logistic_half(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 300)
        gaps = [abs(r.x - r.y) for r in tr.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        ks = [r.kappa for r in tr.rows if r.kappa is not None]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert not bound_violations(tr)

    def test_pinched_sequence(self):
        seq = MapSequence(lambda n: ZERO if n == 3 else HALF, 1.0, declared_beta=1.0)
        tr = iterate_pair(seq, 0.3, 0.9, 20)
        assert tr.reason == "pinched"
        assert tr.rows[-1].n == 3
        assert tr.rows[-1].x == 0.0 and tr.rows[-1].y == 0.0

    def test_merged_at_start(self):
        tr = iterate_pair(constant_sequence(HALF), 0.5, 0.5, 10)
        assert tr.reason == "merged"
        assert len(tr.rows) == 1 and tr.rows[0].kappa == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            iterate_pair(constant_sequence(HALF), 0.0, 0.5, 5)
        with pytest.raises(DomainError):
            iterate_pair(constant_sequence(HALF), 0.5, 1.5, 5)
        with pytest.raises(DomainError):
            iterate_pair(constant_sequence(HALF), 0.5, 0.7, -1)

    def test_coordinate_past_a_refused_before_the_next_step(self):
        # f(1) = 1 + 5e-13 passes the registry's range check, which allows
        # 1e-12 * a of slack, but a walk coordinate gets none: the image of
        # y0 = 1.0 is refused before the step that would map it, as in `orbits`
        seq = constant_sequence(build_fiber({"form": "poly", "coeffs": [1.0000000000005]}, 1.0))
        assert iterate_pair(seq, 0.5, 1.0, 1).rows[-1].y == 1.0000000000005
        with pytest.raises(DomainError,
                           match=r"^fiber coordinate 1\.0000000000005 outside \[0, 1\.0\]$"):
            iterate_pair(seq, 0.5, 1.0, 3)

    def test_sequence_index_starts_at_one(self):
        seq = constant_sequence(HALF)
        assert seq.map_at(1) is HALF
        with pytest.raises(DomainError, match=r"^sequence index must be >= 1, got 0$"):
            seq.map_at(0)

    @pytest.mark.parametrize("steps", [-1, -3])
    def test_steps_refused_with_the_value(self, steps):
        with pytest.raises(DomainError, match=rf"^steps must be >= 0, got {steps}$"):
            iterate_pair(constant_sequence(HALF), 0.5, 0.7, steps)

    def test_zero_steps_give_the_start_row(self):
        trace = iterate_pair(constant_sequence(HALF), 0.5, 0.7, 0)
        assert trace.rows == [nonauto.PairStep(0, 0.5, 0.7, 0.3999999999999999)]
        assert trace.reason == "completed"

    def test_repeated_map_profiled_once(self, monkeypatch):
        calls = []
        real = nonauto.map_profile

        def counting(fm):
            calls.append(fm)
            return real(fm)

        monkeypatch.setattr(nonauto, "map_profile", counting)
        trace = iterate_pair(constant_sequence(HALF), 0.2, 0.9, 30)
        assert len(trace.rows) == 31 and calls == [HALF]

    def test_records_are_exact_images(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 5)
        x, y = 0.2, 0.8
        for row in tr.rows[1:]:
            x, y = HALF(x), HALF(y)
            assert row.x == x and row.y == y

    def test_bounds_respected_across_generated_sequences(self):
        rng = random.Random(7)
        for trial in range(100):
            if trial % 2 == 0:
                seq = strong_monotone_sequence(rng)
                x0, y0 = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
            else:
                seq = scaled_hump_sequence(rng)
                x0, y0 = rng.uniform(0.1, 0.65), rng.uniform(0.1, 0.65)
            if x0 == y0:
                continue
            tr = iterate_pair(seq, x0, y0, 100)
            assert not bound_violations(tr)

    def test_recorded_bounds_are_the_fiber_bounds(self):
        # the bound a trace row records is the one ratio_bound_* returns
        rng = random.Random(11)
        cases = set()
        for _ in range(20):
            seq = scaled_hump_sequence(rng)
            x0, y0 = sorted(rng.uniform(0.1, 0.65) for _ in range(2))
            for r in iterate_pair(seq, x0, y0, 60).rows:
                if r.bound is None:
                    continue
                fm = seq.map_at(r.n + 1)
                alpha = seq.declared_beta * fm.gamma
                u, v = sorted((r.x, r.y))
                if r.case == "inc":
                    expected = ratio_bound_monotone(fm, alpha, u, v)
                else:
                    expected = ratio_bound_nonmonotone(fm, alpha, r.b, u, v)
                assert r.bound == expected.bound
                assert r.ratio is None or r.ratio == expected.ratio
                cases.add(r.case)
        assert cases == {"inc", "dec"}


class TestConvergenceCertificate:
    def test_per_step_cap_value(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 50)
        rep = convergence_certificate(tr, beta=1.0, eps=0.1)
        assert rep.per_step_cap == pytest.approx(1.0 / 1.01)
        assert rep.verdict == "consistent" and not rep.cap_violations

    def test_logistic_half_reaches_tolerance(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 4000)
        rep = convergence_certificate(tr, beta=1.0, eps=0.1, tol=1e-6)
        assert rep.first_within is not None
        assert rep.envelope_first is None or rep.first_within <= rep.envelope_first

    def test_envelope_dominates_gap(self):
        rng = random.Random(11)
        seq = strong_monotone_sequence(rng)
        tr = iterate_pair(seq, 0.2, 0.95, 400)
        rep = convergence_certificate(tr, beta=1.0, eps=0.1, tol=1e-6)
        for row, env in zip(tr.rows, rep.envelope):
            assert abs(row.x - row.y) <= env + 1e-12
        assert rep.first_within is not None and rep.envelope_first is not None
        assert rep.first_within <= rep.envelope_first

    def test_violation_is_named(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 30)
        tr.rows[4] = tr.rows[4]._replace(ratio=tr.rows[4].bound + 1e-3)  # doctored record
        rep = convergence_certificate(tr, beta=1.0, eps=0.1)
        assert rep.verdict == "violation" and rep.violation_step == 4

    def test_cap_violation_within_the_bounds(self):
        # cap 1/(1 + 0.01) < 0.995 <= each bound: only the cap is broken, at n = 1
        rows = [nonauto.PairStep(0, 0.3, 0.5, 0.4, ratio=0.98, bound=0.999, case="inc"),
                nonauto.PairStep(1, 0.31, 0.49, 0.39, ratio=0.995, bound=0.999, case="inc"),
                nonauto.PairStep(2, 0.32, 0.48, 0.38)]
        trace = nonauto.OrbitPairTrace(rows, "completed", 1.0, 1.0)
        assert bound_violations(trace) == []
        rep = convergence_certificate(trace, beta=1.0, eps=0.1)
        assert (rep.verdict, rep.violation_step, rep.cap_violations) == ("violation", 1, [1])

    def test_needs_bounds(self):
        tr = iterate_pair(constant_sequence(HALF), 0.5, 0.5, 5)
        with pytest.raises(PreconditionError):
            convergence_certificate(tr, beta=1.0, eps=0.1)

    @pytest.mark.parametrize("beta, eps, message", [
        (float("nan"), 0.1, "beta: must be a positive number, got nan"),
        (1.0, float("nan"), "eps: must be a positive number, got nan"),
        (0.0, 0.1, "beta: must be a positive number, got 0.0"),
        (1.0, -0.1, "eps: must be a positive number, got -0.1"),
    ])
    def test_bad_beta_or_eps_named(self, beta, eps, message):
        # a NaN once passed as verdict "consistent" with per_step_cap nan
        tr = iterate_pair(constant_sequence(HALF, beta=1.0), 0.2, 0.8, 50)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            convergence_certificate(tr, beta=beta, eps=eps)

    @pytest.mark.parametrize("tol, message", [
        (float("nan"), "tol: must be a positive number, got nan"),
        (-1.0, "tol: must be a positive number, got -1.0"),
        (0.0, "tol: must be a positive number, got 0.0"),
        (float("inf"), "tol: must be a positive number, got inf"),
    ])
    def test_bad_tol_named(self, tol, message):
        # a NaN or negative tol once passed as verdict "consistent", never within it
        keller = CATALOG["keller"]()
        tr = iterate_pair(nonauto.along_orbit(keller, 0.1), 0.2, 0.8, 30)
        assert convergence_certificate(tr, beta=1.0, eps=0.1).verdict == "consistent"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            convergence_certificate(tr, beta=1.0, eps=0.1, tol=tol)


def test_black_box_map_profiled_by_certification():
    # the cubic declares no analytic data, so its profile is its certificate
    cubic = build_fiber({"form": "poly", "coeffs": [2.4, -1.2, -0.6]}, 1.0)
    assert (cubic.gamma, cubic.alpha, cubic.monotone) == (None, None, None)
    cert = certify(cubic, 4096)  # certify --grid's default
    prof = nonauto.map_profile(cubic)
    assert (prof.gamma, prof.alpha, prof.b, prof.monotone) == (
        cert.gamma, cert.alpha_star, cert.b, cert.monotone
    )
    assert (prof.a, prof.f, prof.form) == (cubic.a, cubic.f, cubic.form)
    # a map with analytic data is read as given
    assert nonauto.map_profile(HALF) is HALF
    assert cert.gamma == pytest.approx(8 / 9) and not cert.monotone


class TestIsoclinicGuard:
    def test_scaled_humps_pass_with_flips(self):
        rng = random.Random(3)
        seq = scaled_hump_sequence(rng)
        tr = iterate_pair(seq, 0.3, 0.62, 120)
        rep = isoclinic_guard(tr)
        assert rep.hypothesis_ok and not rep.flip_violations
        assert rep.flips > 0
        assert abs(tr.rows[-1].x - tr.rows[-1].y) < 1e-6

    def test_full_hump_violates_hypothesis(self):
        full = FiberMap(
            1.0, lambda x: 4.0 * x * (1.0 - x),
            gamma=1.0, alpha=4.0, b=2.0 / 3.0, monotone=False,
        )
        seq = constant_sequence(full, beta=4.0)
        tr = iterate_pair(seq, 0.2, 0.21, 30)
        rep = isoclinic_guard(tr)
        assert not rep.hypothesis_ok
        n, value, b = rep.first_violation
        assert (value, b) == (max(tr.rows[n].x, tr.rows[n].y), 2.0 / 3.0) and value >= b
        assert all(max(r.x, r.y) < b for r in tr.rows[:n])

    def test_product_hump_demo_traces(self):
        # the demo's two traces; the guard reads beta off the trace
        scaled = CATALOG["product-hump"]()
        unscaled = make_product(
            {"form": "quadratic-hump", "k": 4.0}, {"form": "constant", "c": 1.0},
            CircleRotation(GOLDEN_ROTATION),
        )
        tr = iterate_pair(nonauto.along_orbit(scaled, 0.1), 0.3, 0.62, 80)
        assert tr.beta == 4.0
        assert isoclinic_guard(tr) == (True, None, 36, [], [])
        tr = iterate_pair(nonauto.along_orbit(unscaled, 0.1), 0.2, 0.21, 40)
        assert tr.beta == 4.0
        violation = (2, 0.9215999999999999, 0.6666666666666666)
        assert isoclinic_guard(tr) == (False, violation, 18, [], [])

    def test_monotone_trivially_passes(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 40)
        rep = isoclinic_guard(tr)
        assert rep.hypothesis_ok and rep.flips == 0 and not rep.unverifiable

    def test_steps_without_b_unverifiable(self):
        # a nonmonotone map that declares no isoclinic point: no step can be checked
        hump = FiberMap(1.0, lambda x: 2.0 * x * (1.0 - x),
                        gamma=0.5, alpha=2.0, b=None, monotone=False)
        tr = iterate_pair(constant_sequence(hump, beta=4.0), 0.2, 0.7, 6)
        rep = isoclinic_guard(tr)
        assert rep.unverifiable == [r.n for r in tr.rows[:-1]]
        assert rep == (True, None, 0, [], rep.unverifiable)

    def test_pinched_step_skipped(self):
        # the step into a zero map records no transition: nothing to check there,
        # and nothing unverifiable either
        hump = FiberMap(1.0, lambda x: 2.0 * x * (1.0 - x),
                        gamma=0.5, alpha=2.0, b=2.0 / 3.0, monotone=False)
        seq = MapSequence(lambda n: hump if n == 1 else ZERO, 1.0, declared_beta=4.0)
        tr = iterate_pair(seq, 0.2, 0.3, 5)
        assert tr.reason == "pinched" and [r.case for r in tr.rows] == ["inc", None, None]
        rep = isoclinic_guard(tr)
        assert rep.hypothesis_ok and rep.unverifiable == [] and rep.flips == 0

    def test_flip_ratio_over_normalized_bound_reported(self):
        # 1 - beta * a * (b - min(x, y)) / 2 = 1 - (0.8 - 0.3) / 2 = 0.75 < 0.9
        rows = [nonauto.PairStep(0, 0.3, 0.5, None, ratio=0.9, b=0.8, case="dec"),
                nonauto.PairStep(1, 0.4, 0.35, None)]
        rep = isoclinic_guard(nonauto.OrbitPairTrace(rows, "completed", 1.0, 1.0))
        assert rep == (True, None, 1, [0], [])


# A trace cell: x, y, kappa, ratio, bound or b.
CELL = st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1.0 / 3.0]) | st.floats(
    allow_nan=False, allow_infinity=False)


class TestTraceCsv:
    def test_columns_and_blanks(self):
        seq = constant_sequence(HALF, beta=1.0)
        tr = iterate_pair(seq, 0.2, 0.8, 5)
        buf = io.StringIO()
        trace_to_csv(tr, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == ["n", "x", "y", "kappa", "ratio", "bound", "b"]
        assert len(rows) == len(tr.rows) + 1
        # last row has no transition data
        assert rows[-1][4] == "" and rows[-1][5] == ""
        # values round-trip through repr
        assert float(rows[1][1]) == 0.2 and float(rows[1][2]) == 0.8
        assert float(rows[1][5]) == tr.rows[0].bound

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(CELL, CELL, *[st.none() | CELL] * 4), min_size=1, max_size=30))
    def test_rows_match_csv_writer(self, steps):
        """Every row is what `csv.writer` writes for the same cells, blanks
        included: a cell that needed quoting would fail here."""
        rows = [nonauto.PairStep(n, *cells) for n, cells in enumerate(steps)]
        buf = io.StringIO()
        trace_to_csv(nonauto.OrbitPairTrace(rows, "completed", 1.0, None), buf)
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(nonauto.TRACE_COLUMNS)
        for r in rows:
            writer.writerow([r.n] + ["" if v is None else repr(v) for v in r[1:7]])
        assert buf.getvalue() == ref.getvalue()
