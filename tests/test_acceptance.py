"""Acceptance suite: one test per criterion; no stated tolerance is widened.

Each test prints a single PASS/FAIL line (visible with -rA or on failure)
and then asserts.  Two criteria are checked in the form their stated
tolerance allows: criterion 3 asserts an exact identity between the
depth-8 local densities and the closed form (the stated 0.08 window is out
of reach at the stated depths, whose errors are still reported), and
criterion 8b asserts its 3x speedup only where the process can use at least
4 CPUs (the count equality is asserted everywhere).
"""

import os
import random
import time
from fractions import Fraction
from math import gcd, pi

import numpy as np
import pytest

from delpezzo import arith as A
from delpezzo import cli
from delpezzo import constants as C
from delpezzo import surface as S
from delpezzo import torsor as T
from delpezzo import zeta as Z


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_bijection_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for B in (1, 2, 10, 100, 1000, 10**4):
        n_t = T.count_torsor(B)
        if B == 10**4:
            # stream the oracle points once, checking the height identity
            # max|x_i| = max(x1, x4) on every enumerated point up to 10^4
            n_o = 0
            for x in S.iter_positive_solutions(B):
                assert max(abs(c) for c in x) == max(x[1], x[4])
                n_o += 1
        else:
            n_o = S.count_positive_oracle(B)
        if n_t != n_o:
            mismatches.append((B, n_t, n_o))
    round_trip_ok = True
    pts = list(S.iter_positive_solutions(1000))
    tps = list(T.iter_torsor_points(1000))
    for t in tps:
        if T.from_surface(T.to_surface(t)) != t:
            round_trip_ok = False
            break
    for x in pts:
        if T.to_surface(T.from_surface(x)).x != x:
            round_trip_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = not mismatches and round_trip_ok and elapsed < 300
    report(1, ok, f"count equality on 6 bounds, {len(tps)} round trips, {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert round_trip_ok
    assert elapsed < 300, f"runtime target 5 min exceeded: {elapsed:.1f}s"


def test_criterion_2_reduc1_identities():
    bad = []
    for B in range(1, 21):
        b = S.count_naive(B)
        if not (
            b.s_total == 4 * b.s_pp
            and b.s_pp == 2 * b.n_pos
            and 2 * b.n_uh == b.s_total + b.z_degenerate
        ):
            bad.append(B)
    n1 = S.count_naive(1).n_uh
    ok = not bad and n1 == 5
    report(2, ok, f"exact sign identities for B <= 20; N(1) = {n1}")
    assert not bad, bad
    assert n1 == 5


# exact d_r = N(p^r)/p^(3r) at the criterion's stated depths (p, r_max)
STATED_DEPTH_DENSITIES = {
    (2, 5): Fraction(3, 2),
    (3, 3): Fraction(31, 27),
    (5, 2): Fraction(37, 25),
    (7, 2): Fraction(55, 49),
}
N_7_8 = 244_791_274_105_888_245_925  # N(7^8), past 2^63


def test_criterion_3_local_densities():
    """The exact modular counts confirm the closed form omega_p at
    p = 2, 3, 5, 7, 11, 13.

    The truncations d_r = N(p^r)/p^(3r) reach omega_p only like p^(-r/6),
    and not monotonically, so the stated tolerance 0.08 at (p, r_max) is out
    of reach (err(r_max) is still reported).  Their series sum d_r T^r has
    denominator (1 - T)(1 - T^2/p)(1 - T^6/p): the vertex of the cone gives
    the factor in T^2, the D4 point [0:0:0:0:1] the factor in T^6.  Hence,
    with d_0 = 1, for r >= 8
        (1 - 1/p)^2 omega_p = d_r - d_{r-2}/p - d_{r-6}/p + d_{r-8}/p^2,
    asserted here as an exact equality of rationals at every r from 8 to 40,
    through the table count, which has no cap of its own.
    """
    assert C.local_density_closed(2) == Fraction(5, 2)
    assert C.local_density_closed(3) == Fraction(16, 9)
    assert C.local_density_closed(5) == Fraction(56, 25)
    t0 = time.perf_counter()
    failures = []
    details = []
    for (p, rmax), expected in STATED_DEPTH_DENSITIES.items():
        d_rmax = C.local_density_brute(p, rmax)
        if d_rmax != expected:
            failures.append((p, rmax, d_rmax, expected))
        details.append(f"p={p}: err(r_max)={abs(float(d_rmax - C.local_density_closed(p))):.3f}")
    if C.local_density_brute(7, 8) * 7**24 != N_7_8:
        failures.append((7, "N(7^8)", C.local_density_brute(7, 8) * 7**24))
    for p in (2, 3, 5, 7, 11, 13):
        d = [Fraction(1)] + [Fraction(C._density_count_tables(p, r), p ** (3 * r)) for r in range(1, 41)]
        lhs = (1 - Fraction(1, p)) ** 2 * C.local_density_closed(p)
        for r in range(8, 41):
            rhs = d[r] - d[r - 2] / p - d[r - 6] / p + d[r - 8] / p**2
            if lhs != rhs:
                failures.append((p, r, "identity", lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    report(3, ok, "; ".join(details) + f"; identity exact for r = 8..40, p <= 13 ({elapsed:.1f}s)")
    assert elapsed < 600
    assert not failures, failures


def test_criterion_4_constants():
    alpha = C.peyre_alpha()
    c, c_err = C.real_density_integral()
    oracle = C.real_density_beta_oracle()
    tau4, tail4 = C.tamagawa_euler_product(10**4)
    tau6, _ = C.tamagawa_euler_product(10**6)
    om, _ = C.archimedean_density()
    lead = C.leading_coefficient(c, tau6)
    peyre = float(alpha) * C.tamagawa_measure(om, tau6)
    ok = (
        alpha == Fraction(1, 288)
        and abs(c - oracle) <= 1e-10
        and abs(lead - peyre) <= 1e-6 * abs(lead)
        and abs(tau4 - tau6) <= tail4
    )
    report(4, ok, f"alpha={alpha}, |c-oracle|={abs(c-oracle):.1e}, "
                  f"|lead-peyre|/lead={abs(lead-peyre)/lead:.1e}, "
                  f"|tau4-tau6|={abs(tau4-tau6):.1e} <= {tail4:.1e}")
    assert alpha == Fraction(1, 288)
    assert abs(c - oracle) <= 1e-10
    assert abs(lead - peyre) <= 1e-6 * abs(lead)
    assert abs(tau4 - tau6) <= tail4


def test_criterion_5_series_layer():
    h0, _ = Z.residual_product_at_zero(10**6)
    tau, _ = C.tamagawa_euler_product(10**6)
    dp_err = {}
    from test_zeta import euler_factor_direct

    for p in (2, 3, 5):
        dp_err[p] = abs(Z.euler_factor(p, 2.0) - euler_factor_direct(p, 2.0))
    z2 = abs(Z.zeta_real(2.0).value - pi**2 / 6)
    l1 = abs(Z.l_chi_real(1.0).value - pi / 4)
    l3 = abs(Z.l_chi_real(3.0).value - pi**3 / 32)
    g1, _ = Z.leading_factor_at_one(Z.residual_product_at_zero(10**5))
    ok = (
        abs(h0 - tau) <= 1e-6
        and all(e <= 1e-8 for e in dp_err.values())
        and z2 <= 1e-10 and l1 <= 1e-10 and l3 <= 1e-10
        and g1 > 0
    )
    report(5, ok, f"|H(0)-tau|={abs(h0-tau):.1e}, max Dp err={max(dp_err.values()):.1e}, "
                  f"zeta/L errs=({z2:.1e},{l1:.1e},{l3:.1e}), G1(1)={g1:.4f}")
    assert abs(h0 - tau) <= 1e-6
    for p, e in dp_err.items():
        assert e <= 1e-8, (p, e)
    assert z2 <= 1e-10 and l1 <= 1e-10 and l3 <= 1e-10
    assert g1 > 0


def test_criterion_6_arithmetic_suite():
    t0 = time.perf_counter()
    # eta equals brute force for every q <= 10^4, and the divisor-sum bound
    for q in range(1, 10**4 + 1):
        r = np.arange(1, q + 1, dtype=np.int64)
        brute = int(np.count_nonzero((r * r + 1) % q == 0))
        eta = A.sqrt_minus_one_count(q)
        assert eta == brute, q
        dsum = 1
        for p, _ in A.factorize(q).items():
            dsum *= 1 + A.chi(p)
        assert eta <= dsum <= 2 ** len(A.factorize(q)), q

    # multiplicativity on 10^4 random coprime pairs
    rng = random.Random(1729)
    done = 0
    while done < 10**4:
        a = rng.randrange(1, 3000)
        b = rng.randrange(1, 3000)
        if gcd(a, b) != 1:
            continue
        assert A.sqrt_minus_one_count(a * b) == \
            A.sqrt_minus_one_count(a) * A.sqrt_minus_one_count(b)
        done += 1

    # closed form = Mobius double sum for every admissible input <= 30
    checked = 0
    for v2 in range(1, 31):
        if not A.is_squarefree(v2):
            continue
        for y1 in range(1, 31):
            v2y1 = v2 * y1
            for y2 in range(1, 31):
                if gcd(y2, v2y1) != 1:
                    continue
                for v1 in range(1, 31):
                    assert A.residue_density(v1, v2, y1, y2) == \
                        A.residue_density_mobius(v1, v2, y1, y2)
                    checked += 1

    # progression-count identity on 10^5 random triples
    for _ in range(10**5):
        t = rng.randrange(0, 10**6) + rng.choice((0.0, 0.5))
        q = rng.randrange(1, 10**4 + 1)
        a = rng.randrange(-q, q + 1)
        count, r = A.progression_count_and_remainder(t, a, q)
        assert abs(count - (t / q + r)) <= 1e-12 * max(1.0, t / q)

    # rational-approximation postconditions on 10^3 random (q, rho, b);
    # admissible q (eta > 0) are those with no prime factor = 3 (mod 4)
    # and not divisible by 4
    lim = 10**6
    valid = np.ones(lim + 1, dtype=bool)
    valid[:2] = False
    valid[4::4] = False
    sieve = np.ones(lim + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(lim**0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    for p in np.nonzero(sieve)[0]:
        if p % 4 == 3:
            valid[p::p] = False
    qs = np.nonzero(valid)[0]
    qs = qs[qs >= 2]
    tested = 0
    while tested < 10**3:
        q = int(qs[rng.randrange(len(qs))])
        roots = A.sqrts_minus_one(q)
        assert roots, q
        b = rng.randrange(1, q + 1) * rng.choice((1, -1))
        for rho in roots:
            u, v = A.best_rational_approx(b, q, rho)
            assert v * v <= 2 * q
            assert 2 * v * v * b * b >= q
            assert 2 * (b * rho * v - u * q) ** 2 <= q
            tested += 1
    elapsed = time.perf_counter() - t0
    report(6, True, f"eta brute+bound to 1e4, {checked} density identities, "
                    f"1e5 progression triples, {tested} approximations ({elapsed:.0f}s)")


def test_criterion_7_decomposition_diagnostic(tmp_path):
    t0 = time.perf_counter()
    rows = Z.count_decomposition([10**3, 10**4, 10**5], beta_cutoff=100)
    scaled = [abs(r["residual_scaled"]) for r in rows]
    csv_text = cli.render_report(rows, "csv", None, cli._SCHEMAS["decompose"])
    out = tmp_path / "decomposition.csv"
    out.write_text(csv_text)
    elapsed = time.perf_counter() - t0
    ok = scaled.index(max(scaled)) != len(scaled) - 1 and elapsed < 1200
    report(7, ok, "residual/B^0.9 = " + ", ".join(f"{r['residual_scaled']:+.4f}" for r in rows)
           + f"; csv rows={len(rows)} ({elapsed:.0f}s)")
    assert csv_text.splitlines()[0] == \
        "B,n_uh,main_delta,main_linear,residual,residual_scaled"
    assert len(rows) == 3
    assert scaled.index(max(scaled)) != len(scaled) - 1, scaled
    assert elapsed < 1200


def test_criterion_8a_single_thread_time():
    t0 = time.perf_counter()
    n = T.count_torsor(10**6, workers=1)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report("8a", ok, f"count_torsor(1e6) = {n} in {elapsed:.2f}s single-threaded")
    assert elapsed < 60


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_criterion_8b_parallel_scaling():
    """>= 3x speedup on 4 workers with byte-identical count.  The speedup
    needs at least 4 usable CPUs, so on fewer it is measured and reported
    but not asserted; the count equality is asserted on every machine."""
    t0 = time.perf_counter()
    n1 = T.count_torsor(10**6, workers=1)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    n4 = T.count_torsor(10**6, workers=4)
    t4 = time.perf_counter() - t0
    speedup = t1 / t4
    cpus = _usable_cpus()
    ok = n1 == n4 and (cpus < 4 or speedup >= 3.0)
    gate = "" if cpus >= 4 else " (not asserted below 4 usable cpus)"
    report("8b", ok, f"speedup {speedup:.2f}x on 4 workers{gate}, "
                     f"{cpus} usable cpus, counts equal: {n1 == n4}")
    assert n1 == n4
    if cpus < 4:
        pytest.skip(f"speedup {speedup:.2f}x not asserted: 3x on 4 workers "
                    f"needs >= 4 usable CPUs, this process has {cpus}")
    assert speedup >= 3.0, (
        f"measured {speedup:.2f}x on a machine with {cpus} usable cpus"
    )
