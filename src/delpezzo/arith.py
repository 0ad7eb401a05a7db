"""Multiplicative arithmetic, congruence lemmas and the secondary-term constant.

Everything here is elementary number theory used by the counting and
constant modules: factorization against a shared sieve, the character mod 4,
the count of square roots of -1, sawtooth remainders for arithmetic
progressions, best rational approximations from continued fractions, and the
exact-rational local densities that weight the fast point counter.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import DelPezzoError, SizeCapError

# ---------------------------------------------------------------------------
# sieve and factorization

_SPF_LIMIT = 1 << 16
_SPF = None
_SPF_PRIMES = None  # the primes below _SPF_LIMIT, read off the SPF table
# below this bound every prime <= isqrt(n) is in _SPF_PRIMES, so factorize
# finds all of them with one vectorized remainder
_TRIAL_LIMIT = _SPF_LIMIT * _SPF_LIMIT


def _spf_table() -> np.ndarray:
    """Smallest-prime-factor table below ``_SPF_LIMIT``, built on first use;
    ``_SPF_PRIMES`` is built with it."""
    global _SPF, _SPF_PRIMES
    if _SPF is None:
        primes = primes_up_to(_SPF_LIMIT - 1)
        spf = np.arange(_SPF_LIMIT, dtype=np.int64)  # primes (and 0, 1) map to themselves
        # every composite n has a prime p <= sqrt(n) in the slice from p*p;
        # descending order lets the smallest such p write last
        for p in primes[primes * primes < _SPF_LIMIT][::-1].tolist():
            spf[p * p::p] = p
        _SPF, _SPF_PRIMES = spf, primes
    return _SPF


def primes_up_to(n: int) -> np.ndarray:
    """Ascending array of primes ``<= n``."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve)


def mobius_sieve(n: int) -> np.ndarray:
    """mu[j] = mu(j) for 0 <= j <= n, with mu[0] = 0."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_up_to(n).tolist():
        mu[::p] *= -1
        mu[::p * p] = 0
    return mu


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as ``{prime: exponent}``, primes ascending."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    if n < _SPF_LIMIT:
        spf = _spf_table()
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
    if n < _TRIAL_LIMIT:
        # one remainder over the sieve's primes <= isqrt(n); what is left
        # after dividing them out has no factor <= sqrt(n), so it is 1 or prime
        _spf_table()
        ps = _SPF_PRIMES[: np.searchsorted(_SPF_PRIMES, isqrt(n), "right")]
        for p in ps[n % ps == 0].tolist():
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        if n > 1:
            out[n] = 1
        return out
    # trial division by 6k +- 1 beyond the sieve's reach
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin over the primes up to 41 as bases, which
    is deterministic for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot4(n: int) -> int:
    """Largest r >= 0 with r^4 <= n, and -1 for negative n."""
    if n < 0:
        return -1
    return isqrt(isqrt(n))


def chi(n: int) -> int:
    """Real non-principal character mod 4: +1, -1, 0 for n = 1, 3, even (mod 4)."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


@lru_cache(maxsize=1 << 17)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorize(n).items()))


@lru_cache(maxsize=1 << 17)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factor_pairs(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=1 << 17)
def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _factor_pairs(n))


def squarefree_part(n: int) -> int:
    """The unique squarefree ``s`` with ``n / s`` a perfect square."""
    s = 1
    for p, e in _factor_pairs(n):
        if e % 2:
            s *= p
    return s


def _squarefree_divisors_of_primes(primes) -> list[tuple[int, int]]:
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -m) for d, m in divs]
    return divs


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """All squarefree divisors of ``n`` with their Mobius signs, as (d, mu(d))."""
    return _squarefree_divisors_of_primes([p for p, _ in _factor_pairs(n)])


# ---------------------------------------------------------------------------
# square roots of -1

def _eta_from_factorization(fac: dict[int, int]) -> int:
    out = 1
    for p, e in fac.items():
        if e == 0:
            continue
        if p == 2:
            if e >= 2:
                return 0
        elif p % 4 == 3:
            return 0
        else:
            out *= 2
    return out


def sqrt_minus_one_count(q: int) -> int:
    """Number of solutions of ``r^2 = -1 (mod q)``; multiplicative in q.

    Prime-power values: 2 at p = 1 (mod 4); 0 at p = 3 (mod 4);
    1 at 2^1 and 0 at 2^nu for nu >= 2.
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    return _eta_from_factorization(factorize(q))


def sqrt_minus_one_count_of_product(parts) -> int:
    """Count for a product given as (base, exponent) pairs; factorizes the
    small bases instead of their (possibly huge) product."""
    merged: dict[int, int] = {}
    for base, exp in parts:
        if base == 1 or exp == 0:
            continue
        for p, e in _factor_pairs(base):
            merged[p] = merged.get(p, 0) + e * exp
    return _eta_from_factorization(merged)


def _tonelli_sqrt_minus_one(p: int) -> int:
    """One square root of -1 modulo a prime p = 1 (mod 4) (Tonelli-Shanks on -1)."""
    # for p = 1 (mod 4) the general algorithm reduces to a^((p-1)/4) with a
    # any quadratic non-residue
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    r = pow(a, (p - 1) // 4, p)
    assert (r * r + 1) % p == 0
    return r


def _lift_sqrt_minus_one(p: int, e: int) -> int:
    """Hensel lift of a root of x^2 + 1 from mod p to mod p^e (p odd)."""
    r = _tonelli_sqrt_minus_one(p)
    pk = p
    while pk < p ** e:
        pk2 = min(pk * pk, p ** e)
        # Newton step: r <- r - (r^2+1) / (2r) mod pk2
        inv = pow((2 * r) % pk2, -1, pk2)
        r = (r - (r * r + 1) * inv) % pk2
        pk = pk2
    assert (r * r + 1) % p ** e == 0
    return r


def sqrts_minus_one(q: int) -> list[int]:
    """Sorted list of every r in [1, q] with ``r^2 = -1 (mod q)``."""
    if q < 1:
        raise ValueError("q >= 1 required")
    if q == 1:
        return [1]
    roots = [0]
    modulus = 1
    for p, e in factorize(q).items():
        pe = p ** e
        if p == 2:
            if e >= 2:
                return []
            local = [1]
        elif p % 4 == 3:
            return []
        else:
            r = _lift_sqrt_minus_one(p, e)
            local = [r, pe - r]
        # CRT merge
        inv = pow(modulus % pe, -1, pe) if modulus % pe else None
        new = []
        for x in roots:
            for y in local:
                # solve z = x (mod modulus), z = y (mod pe)
                t = ((y - x) * inv) % pe
                new.append(x + modulus * t)
        roots = new
        modulus *= pe
    roots = sorted(r if r != 0 else q for r in roots)
    for r in roots:
        assert (r * r + 1) % q == 0
    return roots


# ---------------------------------------------------------------------------
# sawtooth and progression counts

def sawtooth(t: float) -> float:
    """{t} - 1/2, periodic with period 1, values in [-1/2, 1/2)."""
    return (t - math.floor(t)) - 0.5


def progression_count_and_remainder(t, a: int, q: int) -> tuple[int, float]:
    """Count of ``0 < n <= t`` with ``n = a (mod q)`` and its sawtooth remainder.

    The count is computed directly on integers; the remainder is
    ``sawtooth(-a/q) - sawtooth((t-a)/q)`` and satisfies
    ``count = t/q + r`` exactly.
    """
    if q <= 0:
        raise ValueError("q > 0 required")
    if t < 0:
        raise ValueError("t >= 0 required")
    # n = a + kq in (0, t]; floor((t-a)/q) = (floor(t)-a)//q exactly since the
    # fractional part of t can never push the quotient across an integer
    count = (math.floor(t) - a) // q - (-a) // q
    r = sawtooth(-a / q) - sawtooth((t - a) / q)
    return count, r


# ---------------------------------------------------------------------------
# best rational approximation to b*rho/q (continued fractions)

def _convergents(num: int, den: int):
    """Continued-fraction convergents (u, v) of num/den, v > 0, gcd(u,v)=1."""
    h0, k0, h1, k1 = 0, 1, 1, 0  # (p_{-2}, q_{-2}), (p_{-1}, q_{-1})
    while den:
        a = num // den
        num, den = den, num - a * den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        yield h1, k1


def best_rational_approx(b: int, q: int, rho: int) -> tuple[int, int]:
    """Coprime (u, v) with |b*rho/q - u/v| <= 1/(v*sqrt(2q)) and
    sqrt(q/2)/|b| <= v <= sqrt(2q).

    ``rho`` must satisfy rho^2 = -1 (mod q).  The pair is found among the
    continued-fraction convergents of b*rho/q; all three inequalities are
    checked in exact integer arithmetic.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    if (rho * rho + 1) % q != 0:
        raise ValueError("rho is not a square root of -1 mod q")
    num, den = b * rho, q
    best = None
    for u, v in _convergents(num, den):
        if 2 * v * v > 4 * q * q:  # way past sqrt(2q); stop
            break
        if v * v <= 2 * q:
            # |b rho v - u q| * sqrt(2q) <= q  <=>  2*(b rho v - u q)^2 <= q
            x = b * rho * v - u * q
            if 2 * x * x <= q:
                best = (u, v)
    if best is None:
        raise DelPezzoError(
            "no convergent satisfies the approximation bounds; "
            "this contradicts Dirichlet's theorem and signals a bug"
        )
    u, v = best
    # the lower bound on v is automatic; check it anyway
    if 2 * v * v * b * b < q:
        raise DelPezzoError("approximation denominator below the provable range")
    return u, v


# ---------------------------------------------------------------------------
# local density weights for the fast counter

def residue_density(v1: int, v2: int, y1: int, y2: int) -> Fraction:
    """Exact density weight of admissible residues for fixed (v1, v2, y1, y2).

    Closed form: eta(v2*y1^2) * phi(y2)/y2
    * prod over p | v1, p not dividing v2*y1*y2 of (1 - (1+chi(p))/p)
    * prod over p | v2*gcd(v1, y1) of (1 - chi(p)/p).

    Returns 0 when v2 is not squarefree or gcd(y2, v2*y1) > 1.
    """
    if min(v1, v2, y1, y2) < 1:
        raise ValueError("arguments must be positive")
    if not (is_squarefree(v2) and gcd(y2, v2 * y1) == 1):
        return Fraction(0)
    eta = sqrt_minus_one_count_of_product(((v2, 1), (y1, 2)))
    if eta == 0:
        return Fraction(0)
    out = Fraction(eta) * Fraction(euler_phi(y2), y2)
    for p, _ in _factor_pairs(v1):
        if v2 % p and y1 % p and y2 % p:
            out *= Fraction(p - 1 - chi(p), p)
    for p, _ in _factor_pairs(v2 * gcd(v1, y1)):
        out *= Fraction(p - chi(p), p)
    return out


def residue_density_mobius(v1: int, v2: int, y1: int, y2: int) -> Fraction:
    """The same weight as a double Mobius sum (independent cross-check path).

    phi(y2)/y2 * sum over squarefree k4 | v1*v2 with gcd(k4, y2) = 1 of
    mu(k4) * eta(k4 * v2 * y1^2) / k4.
    """
    if min(v1, v2, y1, y2) < 1:
        raise ValueError("arguments must be positive")
    num = 0
    d = v1 * v2
    # integer accumulation over the common denominator d
    for k4, mu in squarefree_divisors(d):
        if gcd(k4, y2) != 1:
            continue
        num += mu * sqrt_minus_one_count_of_product(((k4, 1), (v2, 1), (y1, 2))) * (d // k4)
    return Fraction(euler_phi(y2), y2) * Fraction(num, d)


def cell_density(v1: int, v2: int, y1: int, y2: int) -> Fraction:
    """Complete density weight: phi(v1*v2*y1)/(v1*v2*y1) * residue_density.

    Zero when the side conditions (squarefree v2, gcd(y2, v2*y1) = 1) fail.
    """
    theta = residue_density(v1, v2, y1, y2)
    if theta == 0:
        return Fraction(0)
    m = v1 * v2 * y1
    return Fraction(euler_phi(m), m) * theta


def main_term_coefficient(n: int) -> float:
    """Coefficient Delta(n): sum over factorizations n = v1^4 v2^3 y1^2 y2^2 of
    cell_density / (v2^(1/4) * y1^(1/2) * y2^(1/2)).

    The rational part of each term is exact; the quarter-power denominators
    are combined in floating point only at the final summation.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    total = 0.0
    v1 = 1
    while v1 ** 4 <= n:
        if n % v1 ** 4 == 0:
            m1 = n // v1 ** 4
            v2 = 1
            while v2 ** 3 <= m1:
                if m1 % v2 ** 3 == 0:
                    m2 = m1 // v2 ** 3
                    y1 = 1
                    while y1 * y1 <= m2:
                        if m2 % (y1 * y1) == 0:
                            m3 = m2 // (y1 * y1)
                            y2 = isqrt(m3)
                            if y2 * y2 == m3:
                                w = cell_density(v1, v2, y1, y2)
                                if w:
                                    total += float(w) / (
                                        v2 ** 0.25 * math.sqrt(y1) * math.sqrt(y2)
                                    )
                        y1 += 1
                v2 += 1
        v1 += 1
    return total


# ---------------------------------------------------------------------------
# the double fractional-part integral
#
#   dint(C) = int_0^1 int_0^1 frac(C u^(1/4) / sqrt(v)) du dv / sqrt(1-u)
#
# for positive integers C.  The inner v-integral has the closed form
# I(A) = 2 A^2 F(A) with F(A) = int_A^inf frac(s) s^-3 ds, which is exact
# piecewise-rational between consecutive integers, so only the u-direction is
# quadrature.  For large C the oscillatory middle range is reduced to
# endpoint terms by repeated integration by parts against periodic Bernoulli
# polynomials (the integrand's unit-period mean structure), leaving O(1) work
# per evaluation instead of O(C).  Below the crossover the direct path
# evaluates the O(C) pieces between the kinks of many C at once, in groups of
# bounded size (see _DINT_GROUP).

_ZETA2 = math.pi * math.pi / 6
# Partial sums H2[M] = sum_{n <= M} 1/n^2 for M < _H2_N.  The direct path
# reads M <= 257 (A = C x < 257); beyond that zeta(2) - H2[M] cancels (an
# error of about 1e-7 in I(A) at A = 4000), so the tail takes the series.
_H2_N = 258
_H2 = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, _H2_N) ** 2)))

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _zeta2_tail(M):
    """sum_{n > M} 1/n^2 for integer array M >= 1 (vectorized)."""
    M = np.asarray(M, dtype=np.float64)
    small = M < _H2_N
    out = np.empty_like(M)
    idx = M[small].astype(np.int64)
    out[small] = _ZETA2 - _H2[idx]
    Mb = M[~small]
    out[~small] = 1 / Mb - 0.5 / Mb**2 + 1 / (6 * Mb**3) - 1 / (30 * Mb**5) + 1 / (42 * Mb**7)
    return out


def _F_frac_tail(t):
    """F(t) = int_t^inf frac(s) s^-3 ds, vectorized, t > 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    lo = t < 1
    F1 = 0.5 - 0.5 * (_ZETA2 - 1.0)
    out[lo] = 1.0 / t[lo] - 1.0 + F1
    th = t[~lo]
    M = np.floor(th)
    FM1 = 0.5 / (M + 1) - 0.5 * _zeta2_tail(M + 1)
    out[~lo] = (1 / th - 1 / (M + 1)) - 0.5 * M * (1 / th**2 - 1 / (M + 1) ** 2) + FM1
    return out


def _I_inner(A):
    """I(A) = int_0^1 frac(A / sqrt(v)) dv = 2 A^2 F(A), vectorized, A >= 0."""
    A = np.asarray(A, dtype=np.float64)
    out = np.zeros_like(A)
    pos = A > 0
    out[pos] = 2 * A[pos] ** 2 * _F_frac_tail(A[pos])
    return out


def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0, ..., B_n exactly (B_1 = -1/2), by sum_{j <= k} C(k+1, j) B_j = 0."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(-sum(math.comb(k + 1, j) * b for j, b in enumerate(out)) / (k + 1))
    return tuple(out)


# B_0, ..., B_20: the endpoint expansion reads up to B_13, ``zeta`` up to B_20
BERNOULLI = _bernoulli_numbers(20)

_T_SERIES_J = 8

# B_k(x) = sum_j C(k, j) B_(k-j) x^j, coefficients by ascending power of x
_BERN_POLY = {
    k: tuple(float(math.comb(k, j) * BERNOULLI[k - j]) for j in range(k + 1))
    for k in range(2, _T_SERIES_J + 1)
}


def _bern_rows(fr):
    """B_j(fr) for j = 2 .. _T_SERIES_J on a new first axis, by Horner in fr."""
    out = np.empty((_T_SERIES_J - 1, *fr.shape))
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


def _gl_sum(f, a, b):
    """20-point Gauss-Legendre of a vectorized integrand over scalar [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid + half * _GL_X
    return half * float(np.dot(_GL_W, f(nodes)))


# The direct path lays the pieces of many C out as one (pieces, 20) array of
# quadrature nodes.  Whole C are packed into groups of at most _DINT_GROUP
# pieces (a C with more pieces forms a group of its own); each group is one
# pass over the integrand, summed per C with np.add.reduceat.  The group size
# bounds memory: a pass keeps about a dozen temporaries of 20 * 2^9 floats,
# about 1.3 MB at its peak, where a single pass over every C <= 256 (33k
# pieces) takes about 80 MB.  Groups of 2^7 to 2^10 pieces take the same time
# per C.  A value does not depend on its group: the per-piece sums are row
# sums, which numpy evaluates the same way in any array.
_DINT_GROUP = 1 << 9


def _dint_direct_group(C: np.ndarray) -> np.ndarray:
    """dint for one group of C by the direct path; see _dint_direct_batch."""
    n = np.maximum(C, 2)  # pieces per C: the head pieces, then the tail
    starts = np.cumsum(n) - n
    k = np.repeat(np.arange(len(C)), n)  # the C each piece belongs to
    j = np.arange(len(k)) - starts[k]  # index of the piece within its C
    Ck = C[k]
    tail = j == n[k] - 1
    xs = np.where(C == 1, 0.6, (C - 1) / C)[k]
    a = np.where(tail, 0.0, j / Ck)
    b = np.where(tail, np.sqrt(1 - xs**4), np.minimum((j + 1) / Ck, xs))
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    Cf = Ck[:, None].astype(np.float64)
    arg = Cf * x
    arg[tail] = Cf[tail] * (1 - x[tail] * x[tail]) ** 0.25
    weight = 4 * x**3 / np.sqrt(1 - x**4)
    weight[tail] = 2.0
    piece = half * (_I_inner(arg) * weight * _GL_W).sum(axis=1)
    return np.add.reduceat(piece, starts)


def _dint_direct_batch(Cs: np.ndarray) -> np.ndarray:
    """Direct evaluation for an array of C, O(C) pieces each: valid for any C,
    used below the crossover.

    x-space form: dint = int_0^1 I(Cx) 4x^3 (1-x^4)^(-1/2) dx with kinks at
    j/C.  The head pieces [j/C, (j+1)/C] run up to the split xs = (C-1)/C
    (at C = 1, which has no kink, a single head piece [0, 0.6]); the last
    piece [xs, 1] is regularized by x = (1-w^2)^(1/4), w in [0, sqrt(1-xs^4)].
    Every piece is 20-point Gauss-Legendre.
    """
    Cs = np.asarray(Cs, dtype=np.int64)
    out = np.empty(len(Cs))
    ends = np.cumsum(np.maximum(Cs, 2))
    lo = 0
    while lo < len(Cs):
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _DINT_GROUP, "right")))
        out[lo:hi] = _dint_direct_group(Cs[lo:hi])
        lo = hi
    return out


_EM_EDGE = 16  # integer margin kept away from both ends in the endpoint expansion
_EM_DEPTH = 5  # integration-by-parts depth


def _em_boundary_terms() -> dict:
    """The middle's boundary terms as {(q, h): coef}, meaning coef * tau^q *
    (1-z)^(-(h+1/2)) / C^(4h) with z = (tau/C)^4: the sum over j = 2 ..
    _T_SERIES_J and d < _EM_DEPTH of -(-1)^d B_(j+1+d) / (2 (j+1)...(j+1+d))
    times the d-th derivative of G_j(tau) = tau^(4-j) (1-z)^(-1/2).
    """
    out: dict = {}
    for j in range(2, _T_SERIES_J + 1):
        terms, scale = {(4 - j, 0): 1.0}, -0.5
        for d in range(_EM_DEPTH):
            scale /= j + 1 + d
            for key, cf in terms.items():
                out[key] = out.get(key, 0.0) + scale * float(BERNOULLI[j + 1 + d]) * cf
            scale = -scale
            nxt: dict = {}
            for (q, h), cf in terms.items():
                nxt[q - 1, h] = nxt.get((q - 1, h), 0.0) + cf * q
                nxt[q + 3, h + 1] = nxt.get((q + 3, h + 1), 0.0) + cf * (4 * h + 2)
            terms = nxt
    return {key: cf for key, cf in out.items() if cf}


_EM_TERMS = _em_boundary_terms()


def _em_eval_terms(tau, C):
    """The merged boundary terms at tau (array or scalar), elementwise in C."""
    om = 1.0 - (tau / C) ** 4
    total = np.zeros_like(C)
    for (q, h), cf in _EM_TERMS.items():
        total += cf * tau**q * om ** -(h + 0.5) * C ** (-4.0 * h)
    return total


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)
_GL12_OFFSETS = 0.5 * (_GL12_X + 1.0)  # the nodes on [0, 1]
_GL12_BERN = _bern_rows(_GL12_OFFSETS)

_Q_HEAD = None  # moments int_0^edge tau^(5+4k) T(tau) dtau, k = 0..3


def _head_moments():
    global _Q_HEAD
    if _Q_HEAD is None:
        _Q_HEAD = np.array([
            sum(_gl_sum(lambda t: t ** (5 + 4 * k) * (_F_frac_tail(t) - 0.25 / t**2), n, n + 1)
                for n in range(_EM_EDGE))
            for k in range(4)
        ])
    return _Q_HEAD


def _dint_em_batch(Cs: np.ndarray) -> np.ndarray:
    """Endpoint-expansion evaluation for an array of large C; O(1) pieces each.

    dint = 1 + (8/C^4) * int_0^C tau^5 (1-(tau/C)^4)^(-1/2) T(tau) dtau.
    Head [0, edge]: (1-z)^(-1/2) expanded in z, leaving C-independent moments.
    Middle [edge, C-edge]: repeated integration by parts against periodic
    Bernoulli polynomials; only boundary terms survive at machine level
    (_EM_TERMS).  Tail band [C-edge, C]: unit-interval quadrature, B_j(frac)
    from the table at the nodes' fixed offsets; the last interval is
    regularized and computes its fractional parts.
    """
    C = Cs.astype(np.float64)
    a = float(_EM_EDGE)
    # head: sum_k binom(-1/2, k) (-1)^k Q_k / C^(4k); z <= (16/C)^4 so 4 terms suffice
    Q = _head_moments()
    head = Q[0] + 0.5 * Q[1] / C**4 + 0.375 * Q[2] / C**8 + 0.3125 * Q[3] / C**12

    # tail band: sigma = C - tau in [1, edge] by unit intervals
    tail = np.zeros_like(C)
    for k in range(1, _EM_EDGE):
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
    tail += (C**6 / 2) * half * (vals @ _GL12_W)

    # middle: boundary terms at tau = edge and tau = C - edge
    mid = _em_eval_terms(C - a, C) - _em_eval_terms(a, C)
    return 1.0 + (8 / C**4) * (head + mid + tail)


_DINT_CROSSOVER = 256
_DINT_CACHE: dict[int, float] = {}


def _dint_arguments(values) -> set[int]:
    """The C of ``values`` as Python ints; ValueError unless each is an
    integer (int or numpy integer) C >= 1."""
    try:
        Cs = set(map(operator.index, values))
    except TypeError:
        raise ValueError("dint needs integer C >= 1") from None
    if Cs and min(Cs) < 1:
        raise ValueError("dint needs integer C >= 1")
    return Cs


def warm_dint_cache(values) -> None:
    """Pre-compute dint for many integers C >= 1 at once: every C up to the
    crossover in grouped direct passes (at most _DINT_GROUP pieces per pass),
    every larger C in endpoint-expansion batches of at most _DINT_GROUP C, so
    memory stays bounded however many C are asked for.  A value does not
    depend on its batch."""
    missing = sorted(_dint_arguments(values).difference(_DINT_CACHE))
    small = [C for C in missing if C <= _DINT_CROSSOVER]
    large = [C for C in missing if C > _DINT_CROSSOVER]
    batches = [(small, _dint_direct_batch)] + [
        (large[i:i + _DINT_GROUP], _dint_em_batch) for i in range(0, len(large), _DINT_GROUP)
    ]
    for Cs, batch in batches:
        if Cs:
            _DINT_CACHE.update(zip(Cs, batch(np.array(Cs, dtype=np.int64)).tolist()))


def fractional_part_double_integral(C: int) -> float:
    """dint(C) for integer C >= 1; absolute accuracy around 1e-8 or better."""
    (C,) = _dint_arguments([C])
    if C not in _DINT_CACHE:
        warm_dint_cache([C])
    return _DINT_CACHE[C]


# ---------------------------------------------------------------------------
# the secondary-term density and its summed constant
#
# A term of beta is pref(v1, v2, y1) * S(m) / m^2 with m = v1 v2 y1 and
# S(m) = sum over squarefree k0 | m of mu(k0) dint(m/k0).  The box of terms
# with v1, v2, y1 <= cutoff and v2 squarefree is summed in numpy passes, with
# the roundings of the scalar loop over (v2, y1, v1) and every term's product
# in ascending order of its primes:
#
#   eta    eta(v2 y1^2) over the (v2, y1) grid, exact int64 from the primes
#          up to the cutoff (_eta_grid).
#   pref   one float64 per term, in (v2, y1, v1) order: -(3/pi^2) eta, times
#          1 - chi(p)/p for each p | v1 v2 ascending, then p/(p+1) for each
#          p | m ascending, one masked multiply per prime (_prefactors).
#   S(m)   all sorted moduli at once, slot by slot: slot j divides m by the
#          product k0 of its primes at the set bits of j and adds
#          (-1)^popcount(j) dint(m/k0), the order of
#          _squarefree_divisors_of_primes; dint(m/k0) is found by searchsorted
#          in the moduli, which are closed under m -> m/k0 (_mobius_dint_sums).
#   sum    pref * S(m) / m^2, added strictly left to right by
#          np.add.accumulate (np.sum would add pairwise), in blocks of whole
#          (v2, y1) rows of at most _BETA_BLOCK terms, so no temporary
#          exceeds about 128 KB however large the box.

# Largest cutoff of the beta box.  Its time grows about like cutoff^2.7 and
# its memory with the number of moduli: at the cap it takes 9-10 s and a
# peak RSS of 172 MB on a shared 2-CPU Xeon.
BETA_CUTOFF_CAP = 400
_BETA_BLOCK = 1 << 14  # terms per block of the beta sum: 128 KB of float64


def _eta_grid(v2, y1, primes) -> np.ndarray:
    """eta(v2 * y1^2) as int64 over the grid v2[:, None], y1[None, :];
    ``primes`` must hold every odd prime of the v2 and y1."""
    v2 = np.asarray(v2, dtype=np.int64)[:, None]
    y1 = np.asarray(y1, dtype=np.int64)[None, :]
    zero = (v2 % 4 == 0) | (y1 % 2 == 0)  # 4 | v2 y1^2
    k = np.zeros(zero.shape, dtype=np.int64)  # primes = 1 (mod 4) of v2 y1
    for p in primes:
        if p % 2:
            hit = (v2 % p == 0) | (y1 % p == 0)
            if p % 4 == 3:
                zero |= hit
            else:
                k += hit
    return np.where(zero, 0, np.left_shift(1, k))


def _prefactors(eta, v2, y1, v1, primes) -> np.ndarray:
    """The prefactor pref(v1, v2, y1) of a beta term, as a
    (pairs, len(v1)) float64 array: row i is the pair (v2[i], y1[i]) with
    eta[i] = eta(v2 y1^2), column j is v1[j].  ``primes`` ascending, holding
    every prime of each v1 v2 y1."""
    v2 = np.asarray(v2, dtype=np.int64)[:, None]
    y1 = np.asarray(y1, dtype=np.int64)[:, None]
    v1 = np.asarray(v1, dtype=np.int64)[None, :]
    pref = np.empty((v2.shape[0], v1.shape[1]))
    pref[:] = (-(3 / math.pi**2) * eta)[:, None]
    for p in primes:
        if chi(p):  # the factor at p = 2 is 1
            np.multiply(pref, 1 - chi(p) / p, out=pref, where=(v2 % p == 0) | (v1 % p == 0))
    for p in primes:
        hit = (v2 % p == 0) | (y1 % p == 0) | (v1 % p == 0)
        np.multiply(pref, p / (p + 1), out=pref, where=hit)
    return pref


def _mobius_dint_sums(ms, primes, keys, dints) -> np.ndarray:
    """S(m) = sum over squarefree k0 | m of mu(k0) * dint(m/k0) for every m
    of the int64 array ``ms``, added in the order of
    _squarefree_divisors_of_primes.  ``primes`` ascending, holding every
    prime of each m; ``dints[i]`` is dint(keys[i]) for the sorted ``keys``,
    which must contain every m/k0."""
    hits = [(p, np.flatnonzero(ms % p == 0)) for p in primes]
    omega = np.zeros(len(ms), dtype=np.int64)
    for _, rows in hits:
        omega[rows] += 1
    # factors[r] holds the primes of ms[r] ascending, then ones
    factors = np.ones((len(ms), int(omega.max(initial=0))), dtype=np.int64)
    omega[:] = 0
    for p, rows in hits:
        factors[rows, omega[rows]] = p
        omega[rows] += 1
    sums = np.zeros(len(ms))
    for j in range(1 << factors.shape[1]):
        rows = np.flatnonzero(omega >= j.bit_length())
        k0 = np.ones(len(rows), dtype=np.int64)
        for i in range(j.bit_length()):
            if j >> i & 1:
                k0 *= factors[rows, i]
        d = dints[np.searchsorted(keys, ms[rows] // k0)]
        sums[rows] += -d if j.bit_count() % 2 else d
    return sums


def _dints(keys: list[int]) -> np.ndarray:
    """dint at every key, through the cache."""
    warm_dint_cache(keys)
    return np.fromiter(map(_DINT_CACHE.__getitem__, keys), dtype=np.float64, count=len(keys))


def linear_term_constant(cutoff: int) -> tuple[float, float]:
    """Partial sum of the secondary linear-term constant with a crude tail bound.

    Sums |mu(v2)| * pref(v1, v2, y1) * S(m) / m^2, m = v1*v2*y1, over
    v1, v2, y1 <= cutoff in the numpy passes of the section comment above:
    S(m) once per distinct m = v1*v2*y1, and the terms added left to right
    in the order (v2, y1, v1), bit for bit as a scalar loop would.  The tail
    estimate uses the termwise bound
    |pref * S(m)| <= (6/pi^2) * 2^omega(v2*y1) * 2^omega(v1*v2*y1)
    (eta and the divisor sum bounded crudely, each dint factor by 2), summed
    outside the box via sum_{n>V} d(n)/n^2 <= (ln V + 3)/V and
    sum_n 4^omega(n)/n^2 = prod_p (1 + 4/(p^2-1)) <= 5.1.
    """
    if cutoff < 1:
        raise ValueError("cutoff >= 1 required")
    if cutoff > BETA_CUTOFF_CAP:
        raise SizeCapError(f"beta cutoff exceeds the cap {BETA_CUTOFF_CAP}")
    primes = primes_up_to(cutoff).tolist()
    n = np.arange(1, cutoff + 1, dtype=np.int64)
    eta = _eta_grid(n, n, primes)
    for p in primes:  # |mu(v2)|
        eta[n % (p * p) == 0] = 0
    v2, y1 = np.nonzero(eta)  # the pairs (v2, y1) with a term, in row order
    eta = eta[v2, y1]
    v2 += 1
    y1 += 1
    step = max(1, _BETA_BLOCK // cutoff)
    blocks = [slice(lo, lo + step) for lo in range(0, len(v2), step)]

    def moduli(b):
        return (v2[b] * y1[b])[:, None] * n

    # a prime p | m divides v1, v2 or y1, and dividing that factor by p
    # leaves a term of the box, so the moduli are closed under m -> m/k0:
    # they are exactly the arguments of dint that the sum needs
    keys = np.unique(np.concatenate([np.unique(moduli(b)) for b in blocks]))
    sums = _mobius_dint_sums(keys, primes, keys, _dints(keys.tolist()))
    total = 0.0
    for b in blocks:
        m = moduli(b)
        terms = _prefactors(eta[b], v2[b], y1[b], n, primes)
        terms *= sums[np.searchsorted(keys, m)]
        m = m.astype(np.float64)  # exact below 2^53, so m * m rounds once
        terms /= m * m
        terms = terms.ravel()
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    K4 = 5.1
    tail = (18 / math.pi**2) * K4 * K4 * (math.log(cutoff) + 3) / cutoff
    return total, tail
