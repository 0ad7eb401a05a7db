import math
from fractions import Fraction
from math import gcd, pi

import numpy as np
import pytest

from delpezzo import arith as A
from delpezzo import torsor as T
from delpezzo.errors import DelPezzoError, SizeCapError


def brute_eta(q):
    r = np.arange(1, q + 1, dtype=np.int64)
    return int(np.count_nonzero((r * r + 1) % q == 0))


def trial_division(n):
    """{prime: exponent} of n by trial division; the reference for factorize."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestProfiles:
    def test_examples(self):
        mu = A.mobius_sieve(12)
        for n, values in ((12, (0, 4, 2, 0)), (5, (-1, 4, 1, 1)), (1, (1, 1, 0, 1))):
            assert (mu[n], A.euler_phi(n), len(A.factorize(n)), A.chi(n)) == values
        assert A.mobius_sieve(0).tolist() == [0] and A.mobius_sieve(1).tolist() == [0, 1]

    def test_mobius_and_phi_by_brute_force(self):
        mu = A.mobius_sieve(2000)
        for n in range(1, 2001):
            fac = trial_division(n)
            squarefree = all(n % (d * d) for d in range(2, math.isqrt(n) + 1))
            assert mu[n] == ((-1) ** len(fac) if squarefree else 0), n
            assert A.euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n

    def test_factorization_reconstructs(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 10**6)
            prod = 1
            for p, e in A.factorize(n).items():
                prod *= p**e
            assert prod == n

    def test_is_prime(self):
        for n in range(-2, 5000):
            assert A.is_prime(n) == (n >= 2 and A.factorize(n) == {n: 1})
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37
        assert not A.is_prime(3215031751)
        assert not A.is_prime(318665857834031151167461)
        assert A.is_prime(2**61 - 1) and A.is_prime(10**18 + 9)

    @pytest.mark.parametrize("n", [
        2**16, 65521 * 65519, 65521**2, 2**32 - 5, 2**32 - 1,  # 2^32-5: the largest prime
        2**32, 2**32 + 15, 3 * (2**32 - 5), 2**40 + 1,  # past the vectorized range
    ])
    def test_factorize_edges(self, n):
        assert A.factorize(n) == trial_division(n)

    def test_factorize_above_the_sieve(self, rng):
        # a product of ascending primes equal to n is its factorization
        ns = list(range(2**16 - 10, 2**16 + 20000))
        ns += [rng.randrange(2**16, 2**32) for _ in range(300)]
        for n in ns:
            fac = A.factorize(n)
            assert list(fac) == sorted(fac) and all(A.is_prime(p) for p in fac)
            assert math.prod(p**e for p, e in fac.items()) == n
        for n in ns[-300:]:
            assert A.factorize(n) == trial_division(n)

    def test_primes_up_to(self):
        import tracemalloc

        tracemalloc.start()
        try:
            primes = A.primes_up_to(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(primes), int(primes[-1]), primes.dtype) == (664579, 9999991, np.int64)
        # the 10 MB sieve and the 5.3 MB result, and no copy of the result
        assert peak < 16e6

    def test_squarefree_part(self):
        assert A.squarefree_part(72) == 2
        assert A.squarefree_part(8) == 2
        assert A.squarefree_part(1) == 1
        for n in range(1, 500):
            s = A.squarefree_part(n)
            assert A.is_squarefree(s)
            q = n // s
            assert math.isqrt(q) ** 2 == q


class TestSqrtMinusOne:
    def test_count_table(self):
        assert A.sqrt_minus_one_count(5) == 2
        assert A.sqrt_minus_one_count(2) == 1
        assert A.sqrt_minus_one_count(4) == 0
        assert A.sqrt_minus_one_count(65) == 4
        assert A.sqrt_minus_one_count(1) == 1

    def test_lists_match_brute_force(self):
        for q in range(1, 400):
            roots = A.sqrts_minus_one(q)
            assert roots == [r for r in range(1, q + 1) if (r * r + 1) % q == 0]
            assert len(roots) == A.sqrt_minus_one_count(q)

    def test_examples(self):
        assert A.sqrts_minus_one(5) == [2, 3]
        assert A.sqrts_minus_one(13) == [5, 8]
        assert A.sqrts_minus_one(3) == []

    def test_large_prime_power(self):
        q = 5**6
        for r in A.sqrts_minus_one(q):
            assert (r * r + 1) % q == 0

    def test_product_form(self):
        assert A.sqrt_minus_one_count_of_product(((10, 1), (5, 2))) == A.sqrt_minus_one_count(250)
        assert A.sqrt_minus_one_count_of_product(((6, 1),)) == 0


class TestSawtooth:
    def test_examples(self):
        assert A.sawtooth(0.25) == -0.25
        assert A.sawtooth(-0.75) == -0.25
        assert A.sawtooth(3.0) == -0.5

    def test_range(self, rng):
        for _ in range(1000):
            t = rng.uniform(-50, 50)
            v = A.sawtooth(t)
            assert -0.5 <= v < 0.5

    def test_progression_examples(self):
        assert A.progression_count_and_remainder(10, 3, 4) == (2, -0.5)
        count, r = A.progression_count_and_remainder(8, 0, 2)
        assert count == 4 and r == 0.0
        count, r = A.progression_count_and_remainder(7.5, 1, 3)
        assert count == 3 and abs(r - 0.5) < 1e-12

    def test_progression_identity_random(self, rng):
        for _ in range(5000):
            t = rng.randrange(0, 10**6) + rng.choice((0, 0.5))
            q = rng.randrange(1, 10**4)
            a = rng.randrange(-q, q + 1)
            count, r = A.progression_count_and_remainder(t, a, q)
            assert count == sum(1 for n in range(1, int(t) + 1) if (n - a) % q == 0) \
                if t < 2000 else True
            assert abs(count - (t / q + r)) <= 1e-12 * max(1.0, t / q)


class TestBestRationalApprox:
    def test_examples(self):
        assert A.best_rational_approx(1, 5, 2) == (1, 2)
        u, v = A.best_rational_approx(1, 13, 5)
        assert math.isqrt(2 * 13) >= v >= 1
        assert 2 * (1 * 5 * v - u * 13) ** 2 <= 13
        u, v = A.best_rational_approx(2, 5, 3)
        assert 2 * (2 * 3 * v - u * 5) ** 2 <= 5

    def test_postconditions_random(self, rng):
        for _ in range(300):
            q = rng.randrange(2, 10**5)
            roots = A.sqrts_minus_one(q)
            if not roots:
                continue
            rho = rng.choice(roots)
            b = rng.randrange(1, q + 1) * rng.choice((1, -1))
            u, v = A.best_rational_approx(b, q, rho)
            assert gcd(u, v) == 1 or (u == 0 and v == 1)
            assert v * v <= 2 * q
            assert 2 * v * v * b * b >= q
            assert 2 * (b * rho * v - u * q) ** 2 <= q

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            A.best_rational_approx(1, 7, 2)


class TestDensityWeights:
    def test_closed_form_examples(self):
        assert A.residue_density(1, 1, 1, 1) == 1
        assert A.residue_density(2, 1, 1, 1) == Fraction(1, 2)
        assert A.residue_density(1, 5, 1, 1) == Fraction(8, 5)

    def test_mobius_form_examples(self):
        assert A.residue_density_mobius(2, 1, 1, 1) == Fraction(1, 2)
        assert A.residue_density_mobius(1, 5, 1, 1) == Fraction(8, 5)

    def test_zero_conventions(self):
        # v2 not squarefree, or gcd(y2, v2 y1) > 1
        assert A.residue_density(1, 4, 1, 1) == 0
        assert A.residue_density(1, 1, 2, 2) == 0
        assert A.cell_density(1, 1, 2, 1) == 0  # eta(4) = 0

    def test_cell_density_examples(self):
        assert A.cell_density(1, 1, 1, 1) == 1
        assert A.cell_density(1, 1, 1, 2) == Fraction(1, 2)

    def test_identity_small_grid(self):
        for v1 in range(1, 13):
            for v2 in range(1, 13):
                if not A.is_squarefree(v2):
                    continue
                for y1 in range(1, 13):
                    for y2 in range(1, 13):
                        if gcd(y2, v2 * y1) != 1:
                            continue
                        assert A.residue_density(v1, v2, y1, y2) == \
                            A.residue_density_mobius(v1, v2, y1, y2)

    def test_main_term_coefficient(self):
        assert A.main_term_coefficient(1) == 1.0
        assert A.main_term_coefficient(2) == 0.0
        assert abs(A.main_term_coefficient(4) - 1 / (2 * math.sqrt(2))) < 1e-15

    def test_delta_nonnegative(self):
        for n in range(1, 300):
            assert A.main_term_coefficient(n) >= 0.0

    def test_partial_sum_matches_termwise(self):
        direct = sum(A.main_term_coefficient(n) for n in range(1, 201))
        assert abs(T.main_term_partial_sum(200) - direct) < 1e-10


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def scalar_dint_direct(C):
    """dint(C) by the direct path one Gauss-Legendre piece at a time: the
    reference for the grouped pass."""
    def gl(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.dot(_GL_W, f(mid + half * _GL_X)))

    def head(x):
        return A._I_inner(C * x) * 4 * x**3 / np.sqrt(1 - x**4)

    pieces = [(0.0, 0.6)] if C == 1 else [(j / C, (j + 1) / C) for j in range(C - 1)]
    xs = pieces[-1][1]
    total = 0.0
    for a, b in pieces:
        total += gl(head, a, b)
    w1 = math.sqrt(1 - xs**4)
    return total + 2 * gl(lambda w: A._I_inner(C * (1 - w * w) ** 0.25), 0.0, w1)


def oracle_frac_tail(a, mp):
    """F(A) = int_A^inf frac(s) s^-3 ds in mpmath, with its tail from the Hurwitz zeta:
    F(A) = int_A^(M+1) (s - M) s^-3 ds + 1/(2(M+1)) - zeta(2, M+2)/2, M = floor(A)."""
    a = mp.mpf(a)
    M = mp.floor(a)
    head = (1 / a - 1 / (M + 1)) - M / 2 * (1 / a**2 - 1 / (M + 1) ** 2)
    return head + 1 / (2 * (M + 1)) - mp.zeta(2, M + 2) / 2


def oracle_inner(a, mp):
    """I(A) = 2 A^2 F(A) in mpmath."""
    a = mp.mpf(a)
    return 2 * a * a * oracle_frac_tail(a, mp)


def assert_T_tail(tau, got, mp):
    """got is T(tau) = F(tau) - 1/(4 tau^2) within the series' truncation
    bound tau^-9/60 plus 1e-13 / tau^3 for rounding."""
    exact = float(oracle_frac_tail(tau, mp) - 1 / (4 * mp.mpf(tau) ** 2))
    t = float(tau)
    assert abs(got - exact) <= t**-9 / 60 + 1e-13 / t**3, tau


class TestDoubleIntegral:
    def test_inner_integral_against_brute(self):
        # the Riemann oracle is the weak side here: the integrand's jumps
        # cluster at v -> 0, so 2e6 midpoints only give ~1e-5
        v = (np.arange(2_000_000) + 0.5) / 2_000_000
        for a in (0.3, 1.7, 9.4):
            brute = float(np.mean(np.mod(a / np.sqrt(v), 1.0)))
            assert abs(A._I_inner(np.array([a]))[0] - brute) < 5e-5

    def test_inner_integral_against_mpmath(self):
        # the range the direct path evaluates: A = C x with C <= 256, x <= 1;
        # and past it, where the tail of zeta(2) switches to its series
        mp = pytest.importorskip("mpmath")
        A_values = [1e-6, 0.01, 0.3, 0.999, 1.0, 1.0 + 2**-40, 1.5, 2.0, 9.4]
        A_values += [k + d for k in range(250, 257) for d in (-2**-30, 0.0, 0.5)]
        A_values += np.linspace(0.0, 256.0, 1001)[1:].tolist()
        A_values += [257.0, 257.5, 258.0, 300.25, 1000.5, 4000.75, 8185.5, 8192.0]
        got = A._I_inner(np.array(A_values))
        with mp.workdps(40):
            for a, v in zip(A_values, got):
                assert abs(v - float(oracle_inner(a, mp))) < 1e-10, a

    def test_T_tail_at_computed_fractions(self):
        # the last interval of the endpoint expansion: float nodes, B_j at
        # their computed fractional parts
        mp = pytest.importorskip("mpmath")
        taus = np.concatenate((np.geomspace(16.0, 1e6, 301), [16.25, 31.999, 257.5, 999999.75]))
        got = A._T_tail(taus, A._bern_rows(taus - np.floor(taus)))
        with mp.workdps(50):
            for tau, v in zip(taus.tolist(), got.tolist()):
                assert_T_tail(tau, v, mp)

    def test_T_tail_from_the_table(self):
        # the tail band: integer plus a fixed Gauss-Legendre offset, B_j from
        # the table at the offsets, so the oracle takes the exact node
        # n + offset (the float node can be 1e-10 off near 10^6)
        mp = pytest.importorskip("mpmath")
        ns = [16, 17, 100, 240, 255, 256, 1000, 4095, 65536, 999983, 999999]
        got = A._T_tail(np.array(ns, dtype=np.float64)[:, None] + A._GL12_OFFSETS, A._GL12_BERN)
        with mp.workdps(50):
            for n, row in zip(ns, got.tolist()):
                for offset, v in zip(A._GL12_OFFSETS.tolist(), row):
                    assert_T_tail(n + mp.mpf(offset), v, mp)

    def test_grouped_direct_matches_scalar(self):
        Cs = np.arange(1, A._DINT_CROSSOVER + 1)
        grouped = A._dint_direct_batch(Cs)
        for C, v in zip(Cs.tolist(), grouped):
            assert abs(v - scalar_dint_direct(C)) < 1e-14, C

    def test_grouping_leaves_values_unchanged(self):
        # every C alone against the same C inside many groups, and a C with
        # more pieces than a group on its own
        Cs = list(range(1, A._DINT_CROSSOVER + 1)) + [2 * A._DINT_GROUP]
        alone = [A._dint_direct_batch(np.array([C]))[0] for C in Cs]
        assert A._dint_direct_batch(np.array(Cs)).tolist() == alone
        assert A._dint_direct_batch(np.array(Cs[::-1])).tolist() == alone[::-1]

    def test_em_slices_leave_values_unchanged(self):
        # warm_dint_cache hands large C to the endpoint expansion in slices of
        # _DINT_GROUP; over more than three slices each value must equal the
        # one from a single batch, bit for bit
        Cs = list(range(10**6, 10**6 + 3 * A._DINT_GROUP + 77))
        for C in Cs:
            A._DINT_CACHE.pop(C, None)
        A.warm_dint_cache(Cs)
        assert [A._DINT_CACHE[C] for C in Cs] == A._dint_em_batch(np.array(Cs)).tolist()

    def test_analytic_value_at_one(self):
        c = math.gamma(1.25) * math.gamma(0.5) / (2 * math.gamma(1.75))
        assert abs(A.fractional_part_double_integral(1) - (4 * c - pi**3 / 12)) < 1e-10

    def test_em_matches_direct_on_overlap(self):
        for C in (260, 300, 400, 512, 777, 1024):
            em = float(A._dint_em_batch(np.array([C]))[0])
            direct = A._dint_direct_batch(np.array([C]))[0]
            assert abs(em - direct) < 5e-8, C

    def test_values_approach_one(self):
        vals = [A.fractional_part_double_integral(C) for C in (10, 100, 1000, 10000)]
        assert all(abs(v - 1) < 0.05 for v in vals[1:])
        assert abs(vals[-1] - 1) < abs(vals[0] - 1)

    def test_bernoulli_numbers(self):
        B = A.BERNOULLI
        assert B[:3] == (1, Fraction(-1, 2), Fraction(1, 6))
        assert B[12] == Fraction(-691, 2730) and B[20] == Fraction(-174611, 330)
        assert all(b == 0 for b in B[3::2])
        # B_k(x + 1) - B_k(x) = k x^(k-1), checked at x = 1/3 on the tables' floats
        for k, coeffs in A._BERN_POLY.items():
            diff = np.polyval(coeffs[::-1], 4 / 3) - np.polyval(coeffs[::-1], 1 / 3)
            assert abs(diff - k * (1 / 3) ** (k - 1)) < 1e-13, k


def scalar_prefactor(v1, v2, y1):
    """The prefactor pref(v1, v2, y1) of a term of beta, as a scalar product
    over the primes in ascending order."""
    eta = A.sqrt_minus_one_count(v2 * y1 * y1)
    p_v1v2 = sorted(set(trial_division(v1)) | set(trial_division(v2)))
    p_m = sorted(set(p_v1v2) | set(trial_division(y1)))
    pref = -(3 / pi**2) * eta
    for p in p_v1v2:
        pref *= 1 - A.chi(p) / p
    for p in p_m:
        pref *= p / (p + 1)
    return pref


def scalar_mobius_dint_sum(m):
    """S(m) = sum over squarefree k0 | m of mu(k0) dint(m/k0), added in the
    order of the subsets of the ascending primes of m read as binary numbers."""
    primes = sorted(trial_division(m))
    total = 0.0
    for j in range(1 << len(primes)):
        k0 = math.prod(p for i, p in enumerate(primes) if j >> i & 1)
        total += (-1) ** bin(j).count("1") * A.fractional_part_double_integral(m // k0)
    return total


def box_moduli(V):
    """The sorted moduli v1*v2*y1 of the terms of linear_term_constant(V)."""
    return sorted({
        v1 * v2 * y1
        for v2 in range(1, V + 1) if A.is_squarefree(v2)
        for y1 in range(1, V + 1) if A.sqrt_minus_one_count(v2 * y1 * y1)
        for v1 in range(1, V + 1)
    })


class TestSecondaryDensity:
    def test_vanishing(self):
        # eta(v2 y1^2) = 0 at (v2, y1) = (1, 2) and (3, 1), so their prefactors vanish
        for v2, y1 in ((1, 2), (3, 1)):
            eta = A._eta_grid([v2], [y1], [2, 3])[0]
            assert A._prefactors(eta, [v2], [y1], [1], [2, 3])[0, 0] == 0.0

    def test_base_value_matches_oracle(self):
        c = math.gamma(1.25) * math.gamma(0.5) / (2 * math.gamma(1.75))
        oracle = -(3 / pi**2) * (4 * c - pi**3 / 12)
        assert abs(A.linear_term_constant(1)[0] - oracle) < 1e-9

    def test_constant_single_term(self):
        v, tail = A.linear_term_constant(1)
        assert v == scalar_prefactor(1, 1, 1) * scalar_mobius_dint_sum(1)
        assert tail > 0

    @pytest.mark.parametrize("cutoff, beta", [
        (1, -0.27728173652016697),
        (20, -0.2885320098259146),
        (40, -0.28861933526529954),
        (100, -0.28871324218933553),
    ])
    def test_constant_pinned(self, cutoff, beta):
        assert abs(A.linear_term_constant(cutoff)[0] - beta) <= 1e-12 * abs(beta)

    def test_eta_grid(self):
        n = np.arange(1, 101)
        grid = A._eta_grid(n, n, A.primes_up_to(100).tolist())
        ref = [[A.sqrt_minus_one_count(v2 * y1 * y1) for y1 in range(1, 101)]
               for v2 in range(1, 101)]
        assert grid.tolist() == ref

    def test_prefactors_on_the_box(self):
        V = 40
        n = np.arange(1, V + 1)
        eta = A._eta_grid(n, n, A.primes_up_to(V).tolist())
        v2, y1 = np.nonzero(eta)
        pref = A._prefactors(eta[v2, y1], v2 + 1, y1 + 1, n, A.primes_up_to(V).tolist())
        ref = [[scalar_prefactor(v1, a + 1, b + 1) for v1 in range(1, V + 1)]
               for a, b in zip(v2.tolist(), y1.tolist())]
        assert pref.tolist() == ref

    @pytest.mark.parametrize("v1, v2, y1", [(10**6 + 3, 1, 1), (1, 97 * 101, 5), (2, 1, 13**3)])
    def test_triples_past_the_cutoff(self, v1, v2, y1):
        primes = sorted(trial_division(v1 * v2 * y1))
        eta = A._eta_grid([v2], [y1], primes)[0]
        pref = A._prefactors(eta, [v2], [y1], [v1], primes)[0, 0]
        assert pref == scalar_prefactor(v1, v2, y1) != 0
        m = v1 * v2 * y1
        keys = sorted(m // k0 for k0, _ in A.squarefree_divisors(m))
        s = A._mobius_dint_sums(np.array([m]), primes, np.array(keys), A._dints(keys))
        assert s.tolist() == [scalar_mobius_dint_sum(m)]

    def test_mobius_dint_sums(self):
        keys = np.array(box_moduli(100))
        assert len(keys) == 11405
        dints = A._dints(keys.tolist())
        sums = A._mobius_dint_sums(keys, A.primes_up_to(100).tolist(), keys, dints)
        assert sums.tolist() == [scalar_mobius_dint_sum(m) for m in keys.tolist()]

    def test_constant_is_the_scalar_loop(self):
        V = 30
        total = 0.0
        for v2 in range(1, V + 1):
            if not A.is_squarefree(v2):
                continue
            for y1 in range(1, V + 1):
                if A.sqrt_minus_one_count(v2 * y1 * y1) == 0:
                    continue
                for v1 in range(1, V + 1):
                    m = v1 * v2 * y1
                    total += scalar_prefactor(v1, v2, y1) * scalar_mobius_dint_sum(m) / (m * m)
        assert A.linear_term_constant(V)[0] == total

    def test_constant_consistency(self):
        b20, tail20 = A.linear_term_constant(20)
        b40, _ = A.linear_term_constant(40)
        assert abs(b20 - b40) <= tail20

    def test_constant_consistency_at_stated_cutoffs(self):
        b100, tail100 = A.linear_term_constant(100)
        b200, _ = A.linear_term_constant(200)
        assert abs(b100 - b200) <= tail100
        # the partial sums have long since settled to ~1e-4
        assert abs(b100 - b200) < 1e-3

    def test_cutoff_cap(self, monkeypatch):
        # the cap is checked before the sieve is built
        def no_sieve(n):
            raise AssertionError("sieved past the cap")

        monkeypatch.setattr(A, "primes_up_to", no_sieve)
        with pytest.raises(SizeCapError):
            A.linear_term_constant(A.BETA_CUTOFF_CAP + 1)

    def test_tail_monotone(self):
        tails = [A.linear_term_constant(V)[1] for V in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(tails, tails[1:]))


class TestErrors:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            A.sqrt_minus_one_count(0)
        with pytest.raises(ValueError):
            A.factorize(0)
        with pytest.raises(ValueError):
            A.best_rational_approx(0, 5, 2)
        with pytest.raises((ValueError, DelPezzoError)):
            A.fractional_part_double_integral(0)

    def test_dint_needs_an_integer(self):
        # the cache is keyed by int, so a non-integral C must not reach it
        for bad in (2.5, 0, -3, "7"):
            with pytest.raises(ValueError):
                A.fractional_part_double_integral(bad)
            with pytest.raises(ValueError):
                A.warm_dint_cache([5, bad])
        assert A.fractional_part_double_integral(np.int64(3)) == A.fractional_part_double_integral(3)
        A.warm_dint_cache(np.array([4, 300]))
        assert A._DINT_CACHE[300] == A.fractional_part_double_integral(np.int64(300))
