"""Multiplicative arithmetic, congruence lemmas and the secondary-term constant.

Everything here is elementary number theory used by the counting and
constant modules: factorization against a shared sieve, the character mod 4,
the count of square roots of -1, sawtooth remainders for arithmetic
progressions, best rational approximations from continued fractions, and the
exact-rational local densities that weight the fast point counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import DelPezzoError, ToleranceError

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
        n = _SPF_LIMIT
        spf = np.zeros(n, dtype=np.int64)
        spf[1] = 1
        small = []
        for p in range(2, isqrt(n - 1) + 1):
            if spf[p] == 0:
                spf[p * p:n:p][spf[p * p:n:p] == 0] = p
                spf[p] = p
                small.append(p)
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest  # remaining entries are prime
        spf[0] = 0
        _SPF = spf
        _SPF_PRIMES = np.concatenate((np.array(small, dtype=np.int64), rest[1:]))  # rest[0] = 0
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
    return np.nonzero(sieve)[0].astype(np.int64)


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


@dataclass(frozen=True)
class MultiplicativeProfile:
    n: int
    factorization: tuple[tuple[int, int], ...]
    mu: int
    phi: int
    omega: int
    chi: int


def profile(n: int) -> MultiplicativeProfile:
    """Factorization of ``n`` with the derived multiplicative values."""
    fac = factorize(n)
    mu = 0 if any(e >= 2 for e in fac.values()) else (-1) ** len(fac)
    phi = 1
    for p, e in fac.items():
        phi *= (p - 1) * p ** (e - 1)
    return MultiplicativeProfile(
        n=n,
        factorization=tuple(sorted(fac.items())),
        mu=mu,
        phi=phi,
        omega=len(fac),
        chi=chi(n),
    )


def mobius(n: int) -> int:
    fac = _factor_pairs(n)
    return 0 if any(e >= 2 for _, e in fac) else (-1) ** len(fac)


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

def _check_side_conditions(v2: int, y1: int, y2: int) -> bool:
    """Squarefree v2 and gcd(y2, v2*y1) = 1; weights vanish otherwise."""
    return is_squarefree(v2) and gcd(y2, v2 * y1) == 1


def residue_density(v1: int, v2: int, y1: int, y2: int) -> Fraction:
    """Exact density weight of admissible residues for fixed (v1, v2, y1, y2).

    Closed form: eta(v2*y1^2) * phi(y2)/y2
    * prod over p | v1, p not dividing v2*y1*y2 of (1 - (1+chi(p))/p)
    * prod over p | v2*gcd(v1, y1) of (1 - chi(p)/p).

    Returns 0 when v2 is not squarefree or gcd(y2, v2*y1) > 1.
    """
    if min(v1, v2, y1, y2) < 1:
        raise ValueError("arguments must be positive")
    if not _check_side_conditions(v2, y1, y2):
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


# B_0, ..., B_20: the endpoint expansion below reads them up to B_13, the
# Euler-Maclaurin tails of ``zeta`` up to B_20
BERNOULLI = _bernoulli_numbers(20)

_T_SERIES_J = 8

# B_k(x) = sum_j C(k, j) B_(k-j) x^j, coefficients by ascending power of x
_BERN_POLY = {
    k: tuple(float(math.comb(k, j) * BERNOULLI[k - j]) for j in range(k + 1))
    for k in range(2, _T_SERIES_J + 1)
}


def _bern_frac(k, t):
    """Periodic Bernoulli polynomial B_k(frac(t)), vectorized."""
    fr = t - np.floor(t)
    coeffs = _BERN_POLY[k]
    out = np.zeros_like(fr) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * fr + c
    return out


def _T_tail(tau):
    """T(tau) = F(tau) - 1/(4 tau^2) by its asymptotic series; needs tau >= 16.

    Truncation error is below tau^-9 / 60 (~3e-16 at tau = 32).
    """
    s = np.zeros_like(tau)
    for j in range(2, _T_SERIES_J + 1):
        s += _bern_frac(j, tau) / tau ** (j + 1)
    return -0.5 * s


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


def _em_boundary_terms(j: int):
    """Symbolic d-th derivatives of G_j(tau) = tau^(4-j) (1-(tau/C)^4)^(-1/2).

    Terms are dicts {(q, h, e): coef} meaning coef * tau^q * (1-z)^(-(h+1/2))
    / C^(4e) with z = (tau/C)^4.  Returns the list of term-dicts for
    d = 0 .. _EM_DEPTH-1.
    """
    terms = {(4 - j, 0, 0): 1.0}
    out = [terms]
    for _ in range(_EM_DEPTH - 1):
        nxt: dict = {}
        for (q, h, e), cf in terms.items():
            if q != 0:
                key = (q - 1, h, e)
                nxt[key] = nxt.get(key, 0.0) + cf * q
            key = (q + 3, h + 1, e + 1)
            nxt[key] = nxt.get(key, 0.0) + cf * 4 * (h + 0.5)
        out.append(nxt)
        terms = nxt
    return out


_EM_TERMS = {j: _em_boundary_terms(j) for j in range(2, _T_SERIES_J + 1)}


def _em_eval_terms(terms, tau, C):
    """Evaluate a symbolic derivative term list elementwise (tau, C arrays)."""
    z = (tau / C) ** 4
    om = 1.0 - z
    total = np.zeros_like(np.asarray(tau, dtype=np.float64) * np.asarray(C, dtype=np.float64))
    for (q, h, e), cf in terms.items():
        total += cf * tau**q * om ** -(h + 0.5) * C ** (-4.0 * e)
    return total


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)

_Q_HEAD = None  # moments int_0^edge tau^(5+4k) T(tau) dtau, k = 0..3


def _head_moments():
    global _Q_HEAD
    if _Q_HEAD is None:
        qs = []
        for k in range(4):
            acc = 0.0
            for n in range(_EM_EDGE):
                acc += _gl_sum(
                    lambda t, k=k: t ** (5 + 4 * k) * (_F_frac_tail(t) - 0.25 / t**2),
                    n, n + 1,
                )
            qs.append(acc)
        _Q_HEAD = np.array(qs)
    return _Q_HEAD


def _dint_em_batch(Cs: np.ndarray) -> np.ndarray:
    """Endpoint-expansion evaluation for an array of large C; O(1) pieces each.

    dint = 1 + (8/C^4) * int_0^C tau^5 (1-(tau/C)^4)^(-1/2) T(tau) dtau.
    Head [0, edge]: (1-z)^(-1/2) expanded in z, leaving C-independent moments.
    Middle [edge, C-edge]: repeated integration by parts against periodic
    Bernoulli polynomials; only boundary terms survive at machine level.
    Tail band [C-edge, C]: unit-interval quadrature, last interval regularized.
    """
    C = Cs.astype(np.float64)
    a = float(_EM_EDGE)
    # head: sum_k binom(-1/2, k) (-1)^k Q_k / C^(4k); z <= (16/C)^4 so 4 terms suffice
    Q = _head_moments()
    head = Q[0] + 0.5 * Q[1] / C**4 + 0.375 * Q[2] / C**8 + 0.3125 * Q[3] / C**12

    # tail band: sigma = C - tau in [1, edge] by unit intervals
    tail = np.zeros_like(C)
    for k in range(1, _EM_EDGE):
        lo = C - k - 1
        nodes = lo[:, None] + 0.5 * (_GL12_X[None, :] + 1.0)
        z = (nodes / C[:, None]) ** 4
        vals = nodes**5 / np.sqrt(1 - z) * _T_tail(nodes)
        tail += 0.5 * vals @ _GL12_W
    # last interval [C-1, C]: 1 - z = w^2 gives (C^6/2) sqrt(1-w^2) dw
    w1 = np.sqrt(-np.expm1(4 * np.log1p(-1.0 / C)))
    half = 0.5 * w1
    wn = half[:, None] * (_GL12_X[None, :] + 1.0)
    taun = C[:, None] * (1 - wn * wn) ** 0.25
    vals = np.sqrt(1 - wn * wn) * _T_tail(taun)
    tail += (C**6 / 2) * half * (vals @ _GL12_W)

    # middle: boundary terms at tau = edge and tau = C - edge
    b = C - a
    mid = np.zeros_like(C)
    for j in range(2, _T_SERIES_J + 1):
        val = np.zeros_like(C)
        den = 1.0
        sign = 1.0
        for d in range(_EM_DEPTH):
            den *= j + 1 + d
            Bk = float(BERNOULLI[j + 1 + d])
            if Bk:
                terms = _EM_TERMS[j][d]
                val += (sign / den * Bk) * (
                    _em_eval_terms(terms, b, C) - _em_eval_terms(terms, np.full_like(C, a), C)
                )
            sign = -sign
        mid += -0.5 * val
    return 1.0 + (8 / C**4) * (head + mid + tail)


_DINT_CROSSOVER = 256
_DINT_CACHE: dict[int, float] = {}


def warm_dint_cache(values) -> None:
    """Pre-compute dint for many C at once: every C up to the crossover in
    grouped direct passes (at most _DINT_GROUP pieces per pass, so memory
    stays bounded however many C are asked for), every larger C in one
    endpoint-expansion batch."""
    missing = sorted({int(C) for C in values if int(C) not in _DINT_CACHE})
    small = [C for C in missing if C <= _DINT_CROSSOVER]
    large = [C for C in missing if C > _DINT_CROSSOVER]
    for Cs, batch in ((small, _dint_direct_batch), (large, _dint_em_batch)):
        if Cs:
            _DINT_CACHE.update(zip(Cs, batch(np.array(Cs, dtype=np.int64)).tolist()))


def fractional_part_double_integral(C: int) -> float:
    """dint(C) for integer C >= 1; absolute accuracy around 1e-8 or better."""
    if C < 1:
        raise ValueError("C >= 1 required")
    if C not in _DINT_CACHE:
        warm_dint_cache([C])
    return _DINT_CACHE[C]


def _dint_error_bound(C: int) -> float:
    """Conservative absolute error estimate for fractional_part_double_integral."""
    return 5e-8 if C > _DINT_CROSSOVER else 1e-9 * max(1, C // 16 + 1)


# ---------------------------------------------------------------------------
# the secondary-term density and its summed constant

def linear_term_density(v1: int, v2: int, y1: int, tol: float = 1e-6) -> float:
    """The integrated remainder density attached to (v1, v2, y1).

    -(3/pi^2) * eta(v2*y1^2)
      * prod over p | v1*v2 of (1 - chi(p)/p)
      * prod over p | v1*v2*y1 of (1 + 1/p)^(-1)
      * sum over squarefree k0 | v1*v2*y1 of mu(k0) * dint(v1*v2*y1/k0).

    Returns 0 whenever eta(v2*y1^2) = 0.
    """
    val, err = linear_term_density_with_error(v1, v2, y1)
    if err > tol:
        raise ToleranceError(
            f"secondary density quadrature reached {err:.2e} > {tol:.2e}", achieved=err
        )
    return val


def _linear_term_prefactor(v1: int, v2: int, y1: int) -> tuple[float, list[int]]:
    """The factor of linear_term_density before its Mobius-dint sum, and the
    sorted primes of m = v1*v2*y1; (0.0, []) when eta(v2*y1^2) = 0, and
    nonzero otherwise."""
    eta = sqrt_minus_one_count_of_product(((v2, 1), (y1, 2)))
    if eta == 0:
        return 0.0, []
    primes_v1v2 = {p for n in (v1, v2) for p, _ in _factor_pairs(n)}
    primes_m = primes_v1v2 | {p for p, _ in _factor_pairs(y1)}
    pref = -(3 / math.pi**2) * eta
    for p in primes_v1v2:
        pref *= 1 - chi(p) / p
    for p in primes_m:
        pref *= p / (p + 1)
    return pref, sorted(primes_m)


def _mobius_dint_sum(m: int, primes: list[int]) -> float:
    """S(m) = sum over squarefree k0 | m of mu(k0) * dint(m/k0), given the
    sorted primes of m; it depends on m alone."""
    total = 0.0
    for k0, mu in _squarefree_divisors_of_primes(primes):
        total += mu * fractional_part_double_integral(m // k0)
    return total


def linear_term_density_with_error(v1: int, v2: int, y1: int) -> tuple[float, float]:
    if min(v1, v2, y1) < 1:
        raise ValueError("arguments must be positive")
    pref, primes = _linear_term_prefactor(v1, v2, y1)
    if pref == 0.0:
        return 0.0, 0.0
    m = v1 * v2 * y1
    err = sum(_dint_error_bound(m // k0) for k0, _ in _squarefree_divisors_of_primes(primes))
    return pref * _mobius_dint_sum(m, primes), abs(pref) * err


def linear_term_constant(cutoff: int) -> tuple[float, float]:
    """Partial sum of the secondary linear-term constant with a crude tail bound.

    Sums |mu(v2)| * linear_term_density(v1, v2, y1) / (v1 v2 y1)^2 over
    v1, v2, y1 <= cutoff.  The Mobius-dint sum of each term depends only on
    m = v1*v2*y1 and is computed once per distinct m.  The tail estimate uses
    the termwise bound
    |density| <= (6/pi^2) * 2^omega(v2*y1) * 2^omega(v1*v2*y1)
    (eta and the divisor sum bounded crudely, each dint factor by 2), summed
    outside the box via sum_{n>V} d(n)/n^2 <= (ln V + 3)/V and
    sum_n 4^omega(n)/n^2 = prod_p (1 + 4/(p^2-1)) <= 5.1.
    """
    if cutoff < 1:
        raise ValueError("cutoff >= 1 required")
    pairs = [
        (v2, y1)
        for v2 in range(1, cutoff + 1)
        if is_squarefree(v2)
        for y1 in range(1, cutoff + 1)
        if sqrt_minus_one_count(v2 * y1 * y1) > 0
    ]
    # a prime p | m divides v1, v2 or y1, and dividing that factor by p
    # leaves a term of the box, so the moduli are closed under m -> m/k0:
    # they are exactly the arguments of dint that the sum needs
    warm_dint_cache({v1 * v2 * y1 for v2, y1 in pairs for v1 in range(1, cutoff + 1)})
    sums: dict[int, float] = {}  # S(m), one float per modulus
    total = 0.0
    for v2, y1 in pairs:
        for v1 in range(1, cutoff + 1):
            pref, primes = _linear_term_prefactor(v1, v2, y1)
            m = v1 * v2 * y1
            s = sums.get(m)
            if s is None:
                s = sums[m] = _mobius_dint_sum(m, primes)
            total += pref * s / (v1 * v1 * v2 * v2 * y1 * y1)
    K4 = 5.1
    tail = (18 / math.pi**2) * K4 * K4 * (math.log(cutoff) + 3) / cutoff
    return total, tail
