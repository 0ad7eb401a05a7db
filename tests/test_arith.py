import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from math import gcd, pi

import numpy as np
import pytest

from delpezzo import arith as A
from delpezzo import constants as C
from delpezzo import surface as S
from delpezzo import torsor as T
from delpezzo import zeta as Z
from delpezzo.errors import DelPezzoError, SizeCapError


def brute_eta(q):
    r = np.arange(1, q + 1, dtype=np.int64)
    return int(np.count_nonzero((r * r + 1) % q == 0))


# the least strong pseudoprime to the 13 bases of is_prime
PSI_13 = 3317044064679887385961981


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
        assert A.is_prime(PSI_13 - 168)  # the largest prime below the proof limit
        # psi_13 = 1287836182261 * 2575672364521 passes all 13 bases, so the
        # test answers nothing from it on
        for n in (PSI_13, PSI_13 + 2, 10**30 + 57):
            with pytest.raises(ValueError):
                A.is_prime(n)

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

    def test_factorize_matches_trial_division_to_2_40(self, rng):
        # trial division by the primes up to 2^20 factors every n < 2^40: what
        # is left has no prime <= its square root.  The n are log-uniform, and
        # products of two numbers from [2^16, 2^20), whose cofactor past the
        # sieve is often composite or a square
        primes = A.primes_up_to(2**20)

        def reference(n):
            out = {}
            ps = primes[: np.searchsorted(primes, math.isqrt(n), "right")]
            for p in ps[n % ps == 0].tolist():
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
            return out | ({n: 1} if n > 1 else {})

        ns = [rng.randrange(2 ** (b - 1), 2**b) for b in range(17, 41) for _ in range(90)]
        ns += [rng.randrange(2**16, 2**20) * rng.randrange(2**16, 2**20) for _ in range(1000)]
        ns += [rng.randrange(2**16, 2**20) ** 2 for _ in range(100)]
        for n in ns:
            assert list(A.factorize(n).items()) == sorted(reference(n).items()), n

    def test_factorize_stops_at_a_prime_cofactor(self, rng):
        # n up to 2^128 from known primes: the small ones below 1000, a large
        # one, squared at times, that trial division to its square root would
        # take minutes to reach, and at times a second from [2^16, 2^20],
        # which the rho step splits off in about 1000 steps
        small = A.primes_up_to(1000).tolist()
        large = [65537, 2**31 - 1, 2**32 + 15, 2**38 - 45, 10**9 + 7, 10**12 + 39,
                 10**18 + 9, 2**61 - 1]
        second = [65539, 2**17 - 1, 1000003, 2**20 - 3]
        cases = 0
        while cases < 300:
            fac = {p: rng.randint(1, 3) for p in rng.sample(small, rng.randint(0, 4))}
            fac[rng.choice(large)] = rng.randint(1, 2)
            if rng.random() < 0.3:
                fac.setdefault(rng.choice(second), 1)
            n = math.prod(p**e for p, e in fac.items())
            if n < 2**32:
                fac[2] = fac.get(2, 0) + 33 - n.bit_length()
                n = math.prod(p**e for p, e in fac.items())
            if n >= 2**128:
                continue
            cases += 1
            assert list(A.factorize(n).items()) == sorted(fac.items()), n
        # products of two primes between 2^30 and 2^40, n >= 2^63, and two n
        # on which rho's first sequence meets itself modulo n and a second runs
        for fac in ({2**30 + 3: 1, 2**40 - 87: 1}, {2**31 - 1: 1, 2**39 - 7: 1},
                    {2**32 - 5: 1, 2**36 - 5: 1}, {2**33 - 9: 1, 2**34 - 41: 1},
                    {2**31 - 1: 1, 2**61 - 1: 1}, {2**31 - 1: 3}, {2**61 - 1: 2},
                    {3: 1, 2**32 - 5: 2, 2**61 - 1: 1}, {PSI_13 - 168: 1, 2**20 - 3: 2},
                    {65537: 3}, {65837: 1, 66029: 1}):
            n = math.prod(p**e for p, e in fac.items())
            assert A.factorize(n) == fac, n

    def test_factorize_past_trial_division(self):
        # trial division by 6k +- 1 did not find this square of a prime above
        # 2^32 within a minute
        t0 = time.perf_counter()
        assert A.factorize(12 * 7 * (2**61 - 1) ** 2) == {2: 2, 3: 1, 7: 1, 2**61 - 1: 2}
        assert time.perf_counter() - t0 < 1
        # a cofactor at the proof limit that no base shows composite: psi_13,
        # and the prime 10^30 + 57
        for n in (PSI_13, 10**30 + 57, 5 * (10**30 + 57)):
            t0 = time.perf_counter()
            with pytest.raises(SizeCapError):
                A.factorize(n)
            assert time.perf_counter() - t0 < 1

    def test_rho_step_limit(self, monkeypatch):
        # with the limit low, factorize gives up at once
        monkeypatch.setattr(A, "_RHO_STEPS", 10)
        for n in ((2**31 - 1) * (2**32 + 15), (2**31 - 1) ** 3):
            t0 = time.perf_counter()
            with pytest.raises(SizeCapError):
                A.factorize(n)
            assert time.perf_counter() - t0 < 1
        # the steps of every c count together: rho's first c meets itself
        # modulo 65837 * 66029 at step 443, and the second c splits it at
        # step 922 of both
        n = 65837 * 66029
        monkeypatch.setattr(A, "_RHO_STEPS", 921)
        with pytest.raises(SizeCapError):
            A.factorize(n)
        monkeypatch.setattr(A, "_RHO_STEPS", 922)
        assert A.factorize(n) == {65837: 1, 66029: 1}

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

    def test_walk_moduli(self):
        # each of the 626 moduli m of the counter's walk at 10^7: distinct
        # roots in [1, m] that square to -1, eta(m) of them, are all of them
        moduli = list(dict.fromkeys(g[3] for g in T._groups(10**7)))
        assert len(moduli) == 626
        for m in moduli:
            roots = A.sqrts_minus_one(m)
            assert roots == sorted(set(roots)) and 1 <= roots[0] and roots[-1] <= m
            assert all((r * r + 1) % m == 0 for r in roots)
            assert len(roots) == A.sqrt_minus_one_count(m), m

    def test_prime_powers_match_a_residue_scan(self):
        # the roots mod p come from a scan of the p residues, and each root
        # mod p^k from a scan of its p candidate lifts r + t p^k to p^(k+1)
        for p in [p for p in A.primes_up_to(2000).tolist() if p % 4 == 1]:
            pk, roots = p, [r for r in range(p) if (r * r + 1) % p == 0]
            for e in range(1, 7):
                assert A.sqrts_minus_one(pk) == sorted(roots), (p, e)
                if e < 6:
                    lifts = [[r + t * pk for t in range(p) if ((r + t * pk) ** 2 + 1) % (pk * p) == 0]
                             for r in roots]
                    assert [len(lift) for lift in lifts] == [1, 1]
                    roots, pk = [lift[0] for lift in lifts], pk * p

    def test_cell_moduli_match_brute_force(self):
        # the moduli v2 y1^2 of the density weights: 4 | v2, even y1 and
        # primes = 3 (mod 4) all occur
        for v2 in range(1, 61):
            for y1 in range(1, 26):
                q = v2 * y1 * y1
                assert A.sqrt_minus_one_count(q) == brute_eta(q), (v2, y1)


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


def inner(a):
    """I(A) = int_0^1 frac(A / sqrt(v)) dv = 2 A^2 F(A), as the direct path forms it."""
    a = np.asarray(a, dtype=np.float64)
    return 2 * a**2 * A._F_on_piece(a, np.floor(a))


def scalar_dint_direct(C):
    """dint(C) by the direct path one Gauss-Legendre piece at a time: the
    reference for the grouped pass."""
    def gl(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.dot(_GL_W, f(mid + half * _GL_X)))

    def head(x):
        return inner(C * x) * 4 * x**3 / np.sqrt(1 - x**4)

    xs = max((C - 1) / C, 0.75)
    pieces = [(j / C, min((j + 1) / C, xs)) for j in range(C) if j / C < xs]
    total = 0.0
    for a, b in pieces:
        total += gl(head, a, b)
    w1 = math.sqrt(1 - xs**4)
    return total + 2 * gl(lambda w: inner(C * (1 - w * w) ** 0.25), 0.0, w1)


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


# The endpoint expansion's tail band by quadrature, as arith integrated it
# before the band became one polynomial in 1/C: 12-point Gauss-Legendre on
# each unit interval of sigma = C - tau in [1, edge], with B_j(frac(tau))
# from a table at the nodes' fixed offsets, and the last interval [C-1, C]
# regularized by 1 - (tau/C)^4 = w^2.  The oracle of _tail_coefficients.
_GL12_X, _GL12_W = A._gauss_legendre(
    (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
     0.9041172563704748, 0.9815606342467192),
    (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
     0.10693932599531907, 0.04717533638651141),
)

# B_k(x) = sum_j C(k, j) B_(k-j) x^j, coefficients by ascending power of x
_BERN_POLY = {
    k: tuple(float(math.comb(k, j) * A.BERNOULLI[k - j]) for j in range(k + 1))
    for k in range(2, A._T_SERIES_J + 1)
}


def _bern_rows(fr):
    """B_j(fr) for j = 2 .. _T_SERIES_J on a new first axis, by Horner in fr."""
    out = np.empty((A._T_SERIES_J - 1, *fr.shape))
    for k, row in enumerate(out, 2):
        coeffs = _BERN_POLY[k]
        row[...] = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            row *= fr
            row += c
    return out


def _T_tail(tau, bern):
    """T(tau) = F(tau) - 1/(4 tau^2) by its asymptotic series; needs tau >= 16.

    -(u^3 / 2) sum_j B_j(frac(tau)) u^(j-2) by Horner in u = 1/tau, with
    ``bern`` the rows B_j(frac(tau)), broadcasting against tau.  Truncation
    error is below tau^-9 / 60 (~3e-16 at tau = 32).
    """
    u = 1 / tau
    s = bern[-1] * u
    for b in bern[-2:0:-1]:
        s += b
        s *= u
    s += bern[0]
    return -0.5 * u * u * u * s


_GL12_OFFSETS = 0.5 * (_GL12_X + 1.0)  # the nodes on [0, 1]
_GL12_BERN = _bern_rows(_GL12_OFFSETS)


def quadrature_tail_band(C):
    """int_(C-edge)^C tau^5 (1-(tau/C)^4)^(-1/2) T(tau) dtau for a float array C."""
    tail = np.zeros_like(C)
    for k in range(1, A._EM_EDGE):
        nodes = (C - k - 1)[:, None] + _GL12_OFFSETS
        n2, r2 = nodes * nodes, (nodes / C[:, None]) ** 2
        vals = n2 * n2 * nodes / np.sqrt(1 - r2 * r2) * _T_tail(nodes, _GL12_BERN)
        tail += 0.5 * (vals @ _GL12_W)
    # last interval [C-1, C]: 1 - z = w^2 gives (C^6/2) sqrt(1-w^2) dw
    w1 = np.sqrt(-np.expm1(4 * np.log1p(-1.0 / C)))
    half = 0.5 * w1
    wn = w1[:, None] * _GL12_OFFSETS
    taun = C[:, None] * (1 - wn * wn) ** 0.25
    vals = np.sqrt(1 - wn * wn) * _T_tail(taun, _bern_rows(taun - np.floor(taun)))
    return tail + (C**6 / 2) * half * (vals @ _GL12_W)


def quadrature_dint_em(Cs):
    """_dint_em_batch with the tail band by quadrature."""
    C = np.asarray(Cs, dtype=np.float64)
    Q = A._head_moments()
    head = Q[0] + 0.5 * Q[1] / C**4 + 0.375 * Q[2] / C**8 + 0.3125 * Q[3] / C**12
    mid = A._em_eval_terms(C - A._EM_EDGE, C) - A._em_eval_terms(float(A._EM_EDGE), C)
    return 1.0 + (8 / C**4) * (head + mid + quadrature_tail_band(C))


def oracle_tail_coefficients(mp):
    """The c_N of the tail band in mpmath at 50 digits: h_(j,n) by mp.taylor,
    M_(j,n) from int_i^(i+1) (sigma - i)^k sigma^(n-1/2) dsigma in closed form."""
    J, N, edge = A._T_SERIES_J, A._TAIL_N, A._EM_EDGE
    with mp.workdps(50):
        half = mp.mpf(1) / 2
        root = [[mp.mpf(i) ** (m + half) for m in range(J + N + 1)] for i in range(edge + 1)]

        def rest(k, n):  # sum_(1 <= i < edge) int_0^1 x^k (i + x)^(n - 1/2) dx
            return mp.fsum(mp.binomial(k, l) * (-i) ** (k - l)
                           * (root[i + 1][n + l] - root[i][n + l]) / (n + l + half)
                           for i in range(1, edge) for l in range(k + 1))

        S = [[1 / (k + n + half) + rest(k, n) for n in range(N)] for k in range(J + 1)]
        q = lambda s: 1 - 1.5 * s + s * s - s**3 / 4
        c = [mp.mpf(0)] * (J + N - 2)
        for j in range(2, J + 1):
            h = mp.taylor(lambda s: (1 - s) ** (4 - j) * q(s) ** -half, 0, N - 1)
            bern = [mp.binomial(j, k) * mp.bernoulli(j - k) for k in range(j + 1)]
            for n in range(N):
                c[j + n - 2] += (-1) ** j * h[n] * mp.fsum(b * S[k][n] for k, b in enumerate(bern))
        return c


def oracle_quad(mp, f, a, b):
    """int_a^b f by mpmath's Gauss-Legendre at up to 24 nodes.  Each f given
    is analytic on a neighbourhood of [a, b] whose nearest singularity lies at
    least b - a beyond an end, so 24 nodes converge to about 1e-36 relative."""
    return mp.quad(f, [a, b], method="gauss-legendre", maxdegree=4)


def oracle_tail_band(C, mp):
    """(8/C^4) int_(C-edge)^C tau^5 (1-(tau/C)^4)^(-1/2) T(tau) dtau in mpmath
    at 30 digits, T from the same truncated series.  Unit intervals in tau up
    to C - 1, then [C-1, C] in w = sqrt(1-(tau/C)^4), where the integrand is
    smooth (a node rounded onto tau = C would divide by zero in tau)."""
    def T(tau):
        fr = tau - mp.floor(tau)
        js = range(2, A._T_SERIES_J + 1)
        return -mp.fsum(mp.bernpoly(j, fr) * tau ** -(j + 1) for j in js) / 2

    with mp.workdps(30):
        C = mp.mpf(C)
        f = lambda t: t**5 / mp.sqrt(1 - (t / C) ** 4) * T(t)
        parts = [oracle_quad(mp, f, C - k - 1, C - k) for k in range(1, A._EM_EDGE)]
        w1 = mp.sqrt(1 - (1 - 1 / C) ** 4)
        last = oracle_quad(mp, lambda w: mp.sqrt(1 - w * w) * T(C * (1 - w * w) ** 0.25), 0, w1)
        parts.append(C**6 / 2 * last)
        return 8 / C**4 * mp.fsum(parts)


def oracle_dint(C, mp):
    """dint(C) = int_0^1 I(C x) 4 x^3 (1-x^4)^(-1/2) dx in mpmath at 20 digits:
    one piece per integer part M of C x, I(A) = 2 A^2 F(A) with F's
    zeta(2, M + 2) taken once per piece, the pieces split at
    xs = max((C-1)/C, 3/4), and the last piece [xs, 1] in w = sqrt(1 - x^4),
    where it is 2 I(C x) dw.  That piece's nearest singularity, w = 1, lies
    at least 0.2 of its length beyond it, so 24 nodes leave about 1e-18
    there (the error measured at C = 1 is 1e-20)."""
    with mp.workdps(20):
        xs = max(mp.mpf(C - 1) / C, mp.mpf(3) / 4)
        parts = []
        for M in range(C):
            M1 = mp.mpf(M + 1)
            FM1 = 1 / (2 * M1) - mp.zeta(2, M + 2) / 2
            I = lambda a: 2 * a * a * ((1 / a - 1 / M1) - M / 2 * (1 / a**2 - 1 / M1**2) + FM1)
            if M / C < xs:
                f = lambda x: I(C * x) * 4 * x**3 / mp.sqrt(1 - x**4)
                parts.append(oracle_quad(mp, f, mp.mpf(M) / C, min(M1 / C, xs)))
            if M == C - 1:
                w1 = mp.sqrt(1 - xs**4)
                parts.append(oracle_quad(mp, lambda w: 2 * I(C * (1 - w * w) ** 0.25), 0, w1))
        return mp.fsum(parts)


class TestDoubleIntegral:
    def test_inner_integral_against_brute(self):
        # the Riemann oracle is the weak side here: the integrand's jumps
        # cluster at v -> 0, so 2e6 midpoints only give ~1e-5
        v = (np.arange(2_000_000) + 0.5) / 2_000_000
        for a in (0.3, 1.7, 9.4):
            brute = float(np.mean(np.mod(a / np.sqrt(v), 1.0)))
            assert abs(inner(np.array([a]))[0] - brute) < 5e-5

    def test_inner_integral_against_mpmath(self):
        # the range the direct path evaluates: A = C x with C <= the
        # crossover, x <= 1, and the head moments' A < 16.  The largest error
        # measured is 2.2e-16, one ulp of I near 1/2
        mp = pytest.importorskip("mpmath")
        top = A._DINT_CROSSOVER
        A_values = [1e-6, 0.01, 0.3, 0.999, 1.0, 1.0 + 2**-40, 1.5, 2.0, 9.4]
        A_values += [k + d for k in range(top - 6, top + 1) for d in (-2**-30, 0.0, 0.5)]
        A_values += np.linspace(0.0, float(top), 1001)[1:].tolist()
        got = inner(np.array(A_values))
        with mp.workdps(40):
            for a, v in zip(A_values, got):
                assert abs(v - float(oracle_inner(a, mp))) <= 4.5e-16, a

    def test_T_tail_at_computed_fractions(self):
        # the last interval of the quadrature tail band: float nodes, B_j at
        # their computed fractional parts
        mp = pytest.importorskip("mpmath")
        taus = np.concatenate((np.geomspace(16.0, 1e6, 301), [16.25, 31.999, 257.5, 999999.75]))
        got = _T_tail(taus, _bern_rows(taus - np.floor(taus)))
        with mp.workdps(50):
            for tau, v in zip(taus.tolist(), got.tolist()):
                assert_T_tail(tau, v, mp)

    def test_T_tail_from_the_table(self):
        # the quadrature tail band: integer plus a fixed Gauss-Legendre
        # offset, B_j from the table at the offsets, so the oracle takes the
        # exact node n + offset (the float node can be 1e-10 off near 10^6)
        mp = pytest.importorskip("mpmath")
        ns = [16, 17, 100, 240, 255, 256, 1000, 4095, 65536, 999983, 999999]
        got = _T_tail(np.array(ns, dtype=np.float64)[:, None] + _GL12_OFFSETS, _GL12_BERN)
        with mp.workdps(50):
            for n, row in zip(ns, got.tolist()):
                for offset, v in zip(_GL12_OFFSETS.tolist(), row):
                    assert_T_tail(n + mp.mpf(offset), v, mp)

    def test_grouped_direct_matches_scalar(self):
        Cs = np.arange(1, A._DINT_CROSSOVER + 1)
        grouped = A._dint_direct_batch(Cs)
        for C, v in zip(Cs.tolist(), grouped):
            assert abs(v - scalar_dint_direct(C)) < 1e-14, C

    def test_grouping_leaves_values_unchanged(self):
        # every C alone against the same C inside one batch and inside the
        # slices of warm_dint_cache
        Cs = list(range(1, A._DINT_CROSSOVER + 1))
        alone = [A._dint_direct_batch(np.array([C]))[0] for C in Cs]
        assert A._dint_direct_batch(np.array(Cs)).tolist() == alone
        assert A.warm_dint_cache(Cs).tolist() == alone
        assert A.warm_dint_cache(Cs[::-1]).tolist() == alone[::-1]

    def test_em_slices_leave_values_unchanged(self):
        # warm_dint_cache hands large C to the endpoint expansion in slices of
        # _DINT_GROUP; over more than three slices each value must equal the
        # one from a single batch, bit for bit
        Cs = np.arange(10**6, 10**6 + 3 * A._DINT_GROUP + 77)
        assert A.warm_dint_cache(Cs).tolist() == A._dint_em_batch(Cs).tolist()

    def test_tail_band_matches_the_quadrature(self):
        # every C past the crossover of the cutoff-100 beta box and a spread
        # up to 8e6, the largest modulus of the cutoff-200 box, against the
        # band integrated by quadrature
        box = [C for C in box_moduli(100) if C > A._DINT_CROSSOVER]
        spread = np.unique(np.geomspace(A._DINT_CROSSOVER + 1, 8e6, 2000).astype(np.int64))
        for Cs in (np.array(box), spread):
            got = np.concatenate([A._dint_em_batch(Cs[i:i + A._DINT_GROUP])
                                  for i in range(0, len(Cs), A._DINT_GROUP)])
            err = np.abs(got - quadrature_dint_em(Cs))
            assert err.max() <= 4e-16, Cs[err.argmax()]

    def test_tail_coefficients_against_mpmath(self):
        # each c_N enters dint as -2 sqrt(C) c_N C^-N: its error moves dint
        # by less than 1e-19 at the smallest C, and is below 1e-12 relative
        mp = pytest.importorskip("mpmath")
        got = A._tail_coefficients()
        want = oracle_tail_coefficients(mp)
        assert len(got) == len(want) == A._T_SERIES_J + A._TAIL_N - 2
        C0 = A._DINT_CROSSOVER + 1
        for N, (g, w) in enumerate(zip(got.tolist(), want), 2):
            err = abs(g - w)
            assert 2 * math.sqrt(C0) * err * float(C0) ** -N <= 1e-19, N
            assert err <= 1e-12 * abs(w), N

    @pytest.mark.parametrize("C", [A._DINT_CROSSOVER + 1, 257, 1000, 65537, 10**6])
    def test_tail_band_against_mpmath(self, C):
        # the band's share of dint, -2 sqrt(C) sum_N c_N C^-N, summed here
        # term by term
        mp = pytest.importorskip("mpmath")
        c = A._tail_coefficients()
        got = -2 * math.sqrt(C) * sum(cN * float(C) ** -N for N, cN in enumerate(c.tolist(), 2))
        want = oracle_tail_band(C, mp)
        assert abs(got - float(want)) <= 1e-14 * abs(want), (got, want)

    @pytest.mark.parametrize("C, tol", [
        (1, 2e-15), (2, 2e-15), (3, 2e-15), (4, 2e-15),
        (48, 4e-16), (A._DINT_CROSSOVER, 4e-16), (A._DINT_CROSSOVER + 1, 1.4e-15),
        (256, 4.5e-16), (257, 4.5e-16), (1000, 4.5e-16),
    ])
    def test_dint_against_mpmath_across_the_crossover(self, C, tol):
        # the direct path up to the crossover, from C = 1, where the last
        # piece starts at 3/4, the endpoint expansion from there on; the
        # errors measured are 7.4e-16, 7e-17, 1.4e-16 and 1.1e-16 at C = 1
        # to 4, bound by 2e-15, and each other bound is the error measured,
        # 1.1e-16 at 48, 0 at 82, 1.1e-15 at 83, 1.1e-16 at 256 and 2.2e-16
        # at 257 and 1000, plus one ulp of 1, rounded up
        mp = pytest.importorskip("mpmath")
        want = oracle_dint(C, mp)
        assert abs(A.warm_dint_cache([C])[0] - float(want)) <= tol

    def test_quadrature_tables_are_leggauss(self):
        for (x, w), n in (((A._GL_X, A._GL_W), 20), ((_GL12_X, _GL12_W), 12)):
            want_x, want_w = np.polynomial.legendre.leggauss(n)
            assert x.tolist() == want_x.tolist() and w.tolist() == want_w.tolist(), n

    def test_head_moments_bit_for_bit(self):
        # one 20-point Gauss-Legendre sum per unit interval and k, each with
        # its own evaluation of F, added from 0 in interval order
        def gl(f, a, b):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            return half * float(np.dot(_GL_W, f(mid + half * _GL_X)))

        want = [
            sum(gl(lambda t: t ** (5 + 4 * k) * (A._F_on_piece(t, np.floor(t)) - 0.25 / t**2),
                   n, n + 1)
                for n in range(A._EM_EDGE))
            for k in range(4)
        ]
        assert A._head_moments().tolist() == want

    def test_em_terms_bit_for_bit(self):
        # every term takes its own powers, as in the sum the table stands for
        Cs = np.array([257.0, 300.0, 1024.0, 4097.0, 99991.0, 1e6, 1e8])
        for tau in (16.0, Cs - 16.0, np.full(len(Cs), 100.5)):
            z = (tau / Cs) ** 4
            om = 1.0 - z
            want = np.zeros_like(Cs)
            for (e, h), cf in A._EM_TERMS.items():
                want += cf * tau**e * (z / om) ** h
            assert A._em_eval_terms(tau, Cs).tolist() == (want / np.sqrt(om)).tolist()

    def test_analytic_value_at_one(self):
        c = math.gamma(1.25) * math.gamma(0.5) / (2 * math.gamma(1.75))
        # 1.1e-15 measured, the rounding of 4c - pi^3/12 included
        assert abs(A.warm_dint_cache([1])[0] - (4 * c - pi**3 / 12)) <= 2e-15

    def test_em_matches_direct_on_overlap(self):
        # both paths are defined from C = 48 up to the crossover; the
        # expansion is 2.3e-7 off the direct path at C = 20 and 1e-15 at 47
        Cs = np.arange(48, A._DINT_CROSSOVER + 1)
        diff = np.abs(A._dint_em_batch(Cs) - A._dint_direct_batch(Cs))
        assert diff.max() <= 4e-15, Cs[diff.argmax()]

    def test_values_approach_one(self):
        vals = A.warm_dint_cache([10, 100, 1000, 10000]).tolist()
        assert all(abs(v - 1) < 0.05 for v in vals[1:])
        assert abs(vals[-1] - 1) < abs(vals[0] - 1)

    def test_bernoulli_numbers(self):
        B = A.BERNOULLI
        assert B[:3] == (1, Fraction(-1, 2), Fraction(1, 6))
        assert B[12] == Fraction(-691, 2730) and B[20] == Fraction(-174611, 330)
        assert all(b == 0 for b in B[3::2])
        # B_k(x + 1) - B_k(x) = k x^(k-1), checked at x = 1/3 on the tables' floats
        for k, coeffs in _BERN_POLY.items():
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


# dint values of the scalar oracles, keyed by C: one dint pass per scalar
# term would cost about 60k passes in this module
_DINT: dict[int, float] = {}


def oracle_dints(Cs):
    """dint at each C of ``Cs``, the C not yet in _DINT from one
    warm_dint_cache call."""
    missing = sorted(set(Cs).difference(_DINT))
    if missing:
        _DINT.update(zip(missing, A.warm_dint_cache(missing).tolist()))
    return [_DINT[C] for C in Cs]


def scalar_mobius_dint_sum(m):
    """S(m) = sum over squarefree k0 | m of mu(k0) dint(m/k0), added in the
    order of the subsets of the ascending primes of m read as binary numbers."""
    primes = sorted(trial_division(m))
    divisors = [m // math.prod(p for i, p in enumerate(primes) if j >> i & 1)
                for j in range(1 << len(primes))]
    total = 0.0
    for j, d in enumerate(oracle_dints(divisors)):
        total += (-1) ** bin(j).count("1") * d
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
            eta = np.array([A.sqrt_minus_one_count(v2 * y1 * y1)])
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
        (1, -0.27728173651939514),
        (20, -0.2885320096103791),
        (40, -0.2886193350542006),
        (100, -0.28871324197935977),
        (200, -0.28874762932394094),
    ])
    def test_constant_pinned(self, cutoff, beta):
        assert abs(A.linear_term_constant(cutoff)[0] - beta) <= 1e-12 * abs(beta)

    def test_base_pair_lists(self):
        # the sieve's pairs are those of the definition, in row order, and
        # the box's eta is sqrt_minus_one_count on each
        n = 300
        ref = [(v2, y1) for v2 in range(1, n + 1) if A.is_squarefree(v2)
               for y1 in range(1, n + 1) if A.sqrt_minus_one_count(v2 * y1 * y1)]
        v2s, y1s = A._base_pair_lists(n)
        assert [(v2, y1) for v2 in v2s.tolist() for y1 in y1s.tolist()] == ref
        v2, y1, eta = A._box_pairs(n, A.primes_up_to(n).tolist())
        assert list(zip(v2.tolist(), y1.tolist())) == ref
        assert eta.tolist() == [A.sqrt_minus_one_count(v2 * y1 * y1) for v2, y1 in ref]

    def test_prefactors_on_the_box(self):
        V = 40
        pairs = [(v2, y1) for v2 in range(1, V + 1) for y1 in range(1, V + 1)
                 if A.sqrt_minus_one_count(v2 * y1 * y1)]
        v2, y1 = np.array(pairs).T
        eta = np.array([A.sqrt_minus_one_count(a * b * b) for a, b in pairs])
        pref = A._prefactors(eta, v2, y1, np.arange(1, V + 1), A.primes_up_to(V).tolist())
        ref = [[scalar_prefactor(v1, a, b) for v1 in range(1, V + 1)] for a, b in pairs]
        assert pref.tolist() == ref

    @pytest.mark.parametrize("v1, v2, y1", [(10**6 + 3, 1, 1), (1, 97 * 101, 5), (2, 1, 13**3)])
    def test_triples_past_the_cutoff(self, v1, v2, y1):
        primes = sorted(trial_division(v1 * v2 * y1))
        eta = np.array([A.sqrt_minus_one_count(v2 * y1 * y1)])
        pref = A._prefactors(eta, [v2], [y1], [v1], primes)[0, 0]
        assert pref == scalar_prefactor(v1, v2, y1) != 0
        m = v1 * v2 * y1
        keys = sorted(m // k0 for k0, _ in A.squarefree_divisors(m))
        s = A._mobius_dint_sums(np.array([m]), primes, np.array(keys), A.warm_dint_cache(keys))
        assert s.tolist() == [scalar_mobius_dint_sum(m)]

    def test_mobius_dint_sums(self):
        keys = np.array(box_moduli(100))
        assert len(keys) == 11405
        dints = A.warm_dint_cache(keys)
        sums = A._mobius_dint_sums(keys, A.primes_up_to(100).tolist(), keys, dints)
        oracle_dints(keys.tolist())  # the moduli are closed under m -> m/k0
        assert sums.tolist() == [scalar_mobius_dint_sum(m) for m in keys.tolist()]

    def test_constant_is_the_scalar_loop(self):
        V = 30
        oracle_dints(box_moduli(V))
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

    def test_beta_keeps_no_memory(self):
        # in a fresh process, so no earlier test has asked for these dint
        # values; the tables built on first use are built before the
        # measurement.  A process-wide dint cache held 1.2 MB after the call.
        probe = (
            "import tracemalloc\n"
            "from delpezzo import arith as A\n"
            "A._head_moments(), A._tail_coefficients()\n"
            "tracemalloc.start()\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "A.linear_term_constant(100)\n"
            "print(tracemalloc.get_traced_memory()[0] - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 0.1e6

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
            A.warm_dint_cache([0])

    def test_dint_needs_an_integer(self):
        # past 2^53 the float64 C of the formulas is no longer the integer C
        # (from about 10^18 they gave nan); 2^63 makes the array uint64,
        # which a cast to int64 would wrap
        for bad in (2.5, 0, -3, "7", 2**53 + 1, 10**18, 2**63 - 1, 2**63):
            for values in ([bad], [5, bad]):
                with pytest.raises(ValueError):
                    A.warm_dint_cache(values)
        assert A.warm_dint_cache(np.array([4, 300]))[1] == A.warm_dint_cache([np.int64(300)])[0]

    def test_dint_at_the_float_limit(self):
        # the largest C: no "divide by zero" or "invalid value" warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert A.warm_dint_cache([2**53])[0] == 1.0
            assert A.warm_dint_cache([5, 2**53])[1] == 1.0

    @pytest.mark.parametrize("call,error", [
        (lambda: A.sqrts_minus_one(0), ValueError),
        (lambda: A.progression_count_and_remainder(5, 1, 0), ValueError),
        (lambda: A.progression_count_and_remainder(-1, 1, 3), ValueError),
        (lambda: A.residue_density(0, 1, 1, 1), ValueError),
        (lambda: A.residue_density_mobius(1, 1, 1, 0), ValueError),
        (lambda: A.main_term_coefficient(0), ValueError),
        (lambda: A.linear_term_constant(0), ValueError),
        (lambda: C.local_density_brute(2, 0), ValueError),
        (lambda: C.local_density_brute(2, 1, mode="fast"), ValueError),
        (lambda: C.local_density_brute(2, 1, mode="auto"), ValueError),
        (lambda: S.count_naive(0), SizeCapError),
        (lambda: S.count_degenerate(0), SizeCapError),
        (lambda: next(T.iter_torsor_points(T.TORSOR_CAP + 1)), SizeCapError),
        (lambda: Z.leading_factor_at_one((-1.0, 0.0)), DelPezzoError),
        pytest.param(lambda: A.best_rational_approx(1, -5, 2), ValueError, id="q<0"),
        pytest.param(lambda: A.best_rational_approx(1, 0, 2), ValueError, id="q=0"),
        pytest.param(lambda: Z.leading_factor_at_one((0.0, 0.0)), DelPezzoError, id="H(0)=0"),
    ])
    def test_library_rejections(self, call, error):
        # each public function refuses input outside its domain itself
        with pytest.raises(error):
            call()
