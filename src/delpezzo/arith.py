"""Multiplicative arithmetic, congruence lemmas and the secondary-term constant.

Everything here is elementary number theory used by the counting and
constant modules: factorization against a shared sieve, the character mod 4,
the count of square roots of -1, sawtooth remainders for arithmetic
progressions, best rational approximations from continued fractions, and the
exact-rational local densities that weight the fast point counter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, isqrt, prod

import numpy as np

from .errors import DelPezzoError, SizeCapError

# ---------------------------------------------------------------------------
# sieve and factorization

_SPF_LIMIT = 1 << 16
# the least strong pseudoprime to all 13 bases (Sorenson and Webster, Math. Comp. 86 (2017))
_PRIME_PROOF_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Steps of Pollard's rho before factorize gives up with SizeCapError.  Rho
# splits off the smallest prime p of a cofactor in about 1.9 sqrt(p) steps
# (the median of 300 trials; 7.2 sqrt(p) at most), so this admits every p
# below about 2^36, 9 in 10 below 2^38 and half of those near 2^40.  Reaching
# it took 1.9 s on a cofactor of 90 bits and 2.6 s on one of 122 bits (a
# shared 2-CPU Xeon); a step's cost grows with the cofactor's size.
_RHO_STEPS = 1 << 21


@cache
def _spf_table() -> tuple[np.ndarray, np.ndarray]:
    """Smallest-prime-factor table below ``_SPF_LIMIT`` and the primes below
    it, built on first use."""
    primes = primes_up_to(_SPF_LIMIT - 1)
    spf = np.arange(_SPF_LIMIT, dtype=np.int64)  # primes (and 0, 1) map to themselves
    # every composite n has a prime p <= sqrt(n) in the slice from p*p;
    # descending order lets the smallest such p write last
    for p in primes[primes * primes < _SPF_LIMIT][::-1].tolist():
        spf[p * p::p] = p
    return spf, primes


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


def _base_pair_lists(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (v2, y1) with v2 squarefree and -1 a square modulo
    v2 y1^2, as the product of two int64 lists, both ascending: the
    squarefree v2 <= n and the odd y1 <= n, neither with a prime = 3
    (mod 4).  One sieve to n finds both."""
    good = np.ones(n + 1, dtype=bool)  # no prime = 3 (mod 4)
    good[0] = False
    square = np.zeros(n + 1, dtype=bool)  # p^2 | j for a prime p != 3 (mod 4)
    for p in primes_up_to(n).tolist():
        if p % 4 == 3:
            good[p::p] = False
        else:
            square[p * p::p * p] = True
    return np.flatnonzero(good & ~square), np.flatnonzero(good[1::2]) * 2 + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as ``{prime: exponent}``, primes ascending.

    Below 2^16 the smallest-prime-factor table walks n down.  Above, one
    remainder over the sieve's primes <= min(isqrt(n), 2^16) divides them
    out, and ``_cofactor_primes`` splits the rest or raises SizeCapError.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    spf, primes = _spf_table()
    found = []  # the primes of n with multiplicity, ascending
    if n < _SPF_LIMIT:
        while n > 1:
            found.append(int(spf[n]))
            n //= found[-1]
    else:
        ps = primes[: np.searchsorted(primes, isqrt(n), "right")]
        # numpy's remainder takes n as an int64
        for p in ps[n % ps == 0].tolist() if n < 1 << 63 else ps.tolist():
            while n % p == 0:
                found.append(p)
                n //= p
        found += sorted(_cofactor_primes(n))
    out: dict[int, int] = {}
    for p in found:
        out[p] = out.get(p, 0) + 1
    return out


def _cofactor_primes(n: int) -> list[int]:
    """The primes of ``n``, with multiplicity, where no prime p < 2^16 with
    p^2 <= n divides n.  Raises SizeCapError for an n >= ``_PRIME_PROOF_LIMIT``
    that Miller-Rabin neither proves prime nor composite, and for a composite
    that Pollard's rho does not split within ``_RHO_STEPS`` steps."""
    if n < _SPF_LIMIT * _SPF_LIMIT:
        return [n] if n > 1 else []  # no prime <= sqrt(n), so n is 1 or prime
    r = isqrt(n)
    if r * r == n:
        return _cofactor_primes(r) * 2
    if _proven_composite(n):
        d = _pollard_brent(n)
        return _cofactor_primes(d) + _cofactor_primes(n // d)
    if n < _PRIME_PROOF_LIMIT:
        return [n]
    raise SizeCapError(f"factorize can neither prove {n} prime (only below 3.3e24) nor composite")


def _proven_composite(n: int) -> bool:
    """True when a base witnesses by Miller-Rabin that ``n`` (>= 2, not a base)
    is composite; False proves n prime only below ``_PRIME_PROOF_LIMIT``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A divisor 1 < d < n of the odd composite ``n`` by Pollard's rho with
    Brent's cycle search (Brent, BIT 20 (1980)): y -> y^2 + c from y = 2,
    compared with the y at each power of two of the steps.  Raises
    SizeCapError once the sequences of every c tried have taken
    ``_RHO_STEPS`` steps together."""
    left, c = _RHO_STEPS, 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            if not left:
                raise SizeCapError(f"Pollard's rho split nothing off {n} in {_RHO_STEPS} steps")
            x = y
            for i in range(min(r, left)):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            left -= i + 1
            r *= 2
        if g != n:  # else the cycle closed modulo n itself: try the next c
            return g


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin over the primes up to 41 as bases, which is
    a proof for n < ``_PRIME_PROOF_LIMIT`` (3.3 * 10^24).  Raises ValueError
    for larger n, where the test proves only that a number is composite."""
    if n >= _PRIME_PROOF_LIMIT:
        raise ValueError(f"is_prime is a proof only below {_PRIME_PROOF_LIMIT}")
    return n >= 2 and (n in _MR_BASES or not _proven_composite(n))


def chi(n: int) -> int:
    """Real non-principal character mod 4: +1, -1, 0 for n = 1, 3, even (mod 4)."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


@lru_cache(maxsize=1 << 17)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(factorize(n).items())


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factor_pairs(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _factor_pairs(n))


def squarefree_part(n: int) -> int:
    """The unique squarefree ``s`` with ``n / s`` a perfect square."""
    s = 1
    for p, e in _factor_pairs(n):
        if e % 2:
            s *= p
    return s


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """All squarefree divisors of ``n`` with their Mobius signs, as (d, mu(d))."""
    divs = [(1, 1)]
    for p, _ in _factor_pairs(n):
        divs += [(d * p, -m) for d, m in divs]
    return divs


# ---------------------------------------------------------------------------
# square roots of -1

def sqrt_minus_one_count(q: int) -> int:
    """Number of solutions of ``r^2 = -1 (mod q)``; multiplicative in q.

    Prime-power values: 2 at p = 1 (mod 4); 0 at p = 3 (mod 4);
    1 at 2^1 and 0 at 2^nu for nu >= 2.
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    out = 1
    for p, e in _factor_pairs(q):
        if p == 2:
            if e >= 2:
                return 0
        elif p % 4 == 3:
            return 0
        else:
            out *= 2
    return out


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
            # a root t mod p has t^2 = -1 + xp, and (1 + yp)^(p^(e-1)) = 1
            # (mod p^e) for odd p, so t^(p^(e-1)) squares to -1 (mod p^e)
            r = pow(_tonelli_sqrt_minus_one(p), p ** (e - 1), pe)
            local = [r, pe - r]
        # CRT merge: z = x (mod modulus) and z = y (mod pe), coprime moduli
        inv = pow(modulus, -1, pe)
        roots = [x + modulus * ((y - x) * inv % pe) for x in roots for y in local]
        modulus *= pe
    roots = sorted(roots)  # none is 0, as q > 1
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
    if q < 1:
        raise ValueError("q >= 1 required")
    if (rho * rho + 1) % q != 0:
        raise ValueError("rho is not a square root of -1 mod q")
    num, den = b * rho, q
    best = None
    for u, v in _convergents(num, den):  # every v <= q
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
    assert 2 * v * v * b * b >= q, "the lower bound on v is automatic"
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
    if gcd(y2, v2 * y1) != 1:
        return Fraction(0)
    return _cell_factor(*_group_factors(v1, v2, y1), y2)


def _group_factors(v1: int, v2: int, y1: int) -> tuple[Fraction, tuple]:
    """The factors of residue_density(v1, v2, y1, y2) common to every y2
    prime to v2 y1: (theta, rest) with theta = eta(v2 y1^2) times the
    product over p | v2 gcd(v1, y1), and rest the (p, 1 - (1+chi(p))/p) for
    the p | v1 prime to v2 y1, of which ``_cell_factor`` keeps those prime to
    y2.  theta is 0 when v2 is not squarefree."""
    if not is_squarefree(v2):
        return Fraction(0), ()
    theta = Fraction(sqrt_minus_one_count(v2 * y1 * y1))
    for p, _ in _factor_pairs(v2 * gcd(v1, y1)):
        theta *= Fraction(p - chi(p), p)
    rest = tuple((p, Fraction(p - 1 - chi(p), p)) for p, _ in _factor_pairs(v1)
                 if v2 % p and y1 % p)
    return theta, rest


def _cell_factor(theta: Fraction, rest: tuple, y2: int) -> Fraction:
    """residue_density(v1, v2, y1, y2) from _group_factors(v1, v2, y1), for
    y2 prime to v2 y1."""
    return theta * Fraction(euler_phi(y2), y2) * prod(f for p, f in rest if y2 % p)


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
        num += mu * sqrt_minus_one_count(k4 * v2 * y1 * y1) * (d // k4)
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
# polynomials, and the band next to C is a polynomial in 1/C, exact to 1e-23
# (see _dint_em_batch): O(1) work per C, not O(C).  Up to the crossover the
# direct path evaluates the O(C) pieces between the kinks of many C at once,
# in slices of bounded size (see _DINT_GROUP).  The kinks are where C x
# crosses an integer, so the integer part M of A = C x is known on each
# piece and F is exact there with no floor: F(M + 1) is read from a table,
# once per piece, not once per node.
#
# The crossover is the smallest C0 - 1 at which the tail band's coefficients,
# 1e-12 relative of their 50-digit values, move dint(C0) by less than 1e-19
# each (c_2 and c_3 are about 4e-17 off): it fails at 81 on c_2.  On either
# side of it both paths are within about 1e-15 of a 20-digit oracle.
_DINT_CROSSOVER = 82

# F(M + 1) for M = 0 .. _DINT_CROSSOVER: F(K) = sum_{n >= K} 1/(2 n (n+1)^2),
# added from the far end down, so nothing cancels (1/(2K) - (1/2) sum_{n > K}
# 1/n^2 cancels about 2K-fold).  Its start, F(K) ~ 1/(4K^2) - 1/(12K^3) +
# 1/(60K^5) - 1/(84K^7) + 1/(60K^9), is truncated 1e-18 relative off.
_F_TOP = float(_DINT_CROSSOVER + 1)
_F_INT = np.cumsum(np.append(
    0.5 / (np.arange(1.0, _F_TOP) * np.arange(2.0, _F_TOP + 1) ** 2),  # F(K) - F(K + 1)
    1 / (4 * _F_TOP**2) - 1 / (12 * _F_TOP**3) + 1 / (60 * _F_TOP**5)
    - 1 / (84 * _F_TOP**7) + 1 / (60 * _F_TOP**9))[::-1])[::-1]


def _gauss_legendre(nodes, weights):
    """A symmetric Gauss-Legendre rule on [-1, 1], nodes ascending, from its
    positive nodes ascending and their weights."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# the 20-point rule, bit for bit that of numpy.polynomial.legendre.leggauss,
# written out so that no command imports numpy.polynomial
_GL_X, _GL_W = _gauss_legendre(
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095),
    (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893),
)


def _F_on_piece(t, M):
    """F(t) = int_t^inf frac(s) s^-3 ds for t in [M, M + 1], with M the integer
    part of t as a float array broadcasting against t and M <= the crossover.
    With r = t - M (exact), int_t^(M+1) (s - M) s^-3 ds is
    (1 - r) (M (1 + r) + 2r) / (2 t^2 (M + 1)^2), whose factors are positive,
    so nothing cancels."""
    r = t - M
    piece = (1 - r) * (M * (1 + r) + 2 * r) / (2 * t * t * (M + 1) ** 2)
    return piece + _F_INT[M.astype(np.int64)]


def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0, ..., B_n exactly (B_1 = -1/2), by sum_{j <= k} C(k+1, j) B_j = 0."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(-sum(math.comb(k + 1, j) * b for j, b in enumerate(out)) / (k + 1))
    return tuple(out)


# B_0, ..., B_20: the endpoint expansion reads up to B_14, ``zeta`` up to B_20
BERNOULLI = _bernoulli_numbers(20)

_T_SERIES_J = 8


# warm_dint_cache hands each path slices of the C asked for: the direct path
# _DINT_GROUP // _DINT_CROSSOVER = 6 C at a time, so at most 2^9 pieces, the
# endpoint expansion 2^9 C.  The direct path lays the pieces of a slice out
# as one (pieces, 20) array of quadrature nodes, one pass over the integrand
# summed per C with np.add.reduceat, which keeps about a dozen temporaries of
# 20 * 2^9 floats, about 1.3 MB at its peak, however many C are asked for.
# A value does not depend on its slice: the per-piece sums are row sums,
# which numpy evaluates the same way in any array.
_DINT_GROUP = 1 << 9


def _dint_direct_batch(C: np.ndarray) -> np.ndarray:
    """dint for an int64 array of C by the direct path, O(C) pieces each:
    valid for 1 <= C <= crossover + 1, the reach of the table of F.

    x-space form: dint = int_0^1 I(Cx) 4x^3 (1-x^4)^(-1/2) dx with kinks at
    j/C.  The head pieces [j/C, (j+1)/C] run up to the split
    xs = max((C-1)/C, 3/4); the last piece [xs, 1] is regularized by
    x = (1-w^2)^(1/4), w in [0, sqrt(1-xs^4)], whose branch point w = 1 the
    split 3/4 keeps a fifth of the piece's length past its end.  Every piece
    is 20-point Gauss-Legendre.
    """
    n = C + (C < 4)  # pieces per C: the head pieces, then the tail
    starts = np.cumsum(n) - n
    k = np.repeat(np.arange(len(C)), n)  # the C each piece belongs to
    j = np.arange(len(k)) - starts[k]  # index of the piece within its C
    Ck = C[k]
    tail = j == n[k] - 1
    xs = np.maximum((C - 1) / C, 0.75)[k]
    a = np.where(tail, 0.0, j / Ck)
    b = np.where(tail, np.sqrt(1 - xs**4), np.minimum((j + 1) / Ck, xs))
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    Cf = Ck[:, None].astype(np.float64)
    arg = Cf * x
    arg[tail] = Cf[tail] * (1 - x[tail] * x[tail]) ** 0.25
    weight = 4 * x**3 / np.sqrt(1 - x**4)
    weight[tail] = 2.0
    # the integer part of arg is known on each piece: j on head piece j
    # (arg in (j, j + 1)), C - 1 on the tail piece (arg in (C - 1, C))
    M = np.where(tail, Ck - 1, j).astype(np.float64)[:, None]
    inner = 2 * arg**2 * _F_on_piece(arg, M)  # I(arg) = int_0^1 frac(arg / sqrt(v)) dv
    piece = half * (inner * weight * _GL_W).sum(axis=1)
    return np.add.reduceat(piece, starts)


_EM_EDGE = 16  # integer margin kept away from both ends in the endpoint expansion
_EM_DEPTH = 6  # integration-by-parts depth: 5 left 5.7e-15 on dint(257), 6 leaves 2.2e-16


def _em_boundary_terms() -> dict:
    """The middle's boundary terms as {(e, h): coef}, meaning coef * tau^e *
    (z/(1-z))^h (1-z)^(-1/2) with z = (tau/C)^4: the sum over j = 2 ..
    _T_SERIES_J and d < _EM_DEPTH of -(-1)^d B_(j+1+d) / (2 (j+1)...(j+1+d))
    times the d-th derivative of G_j(tau) = tau^(4-j) (1-z)^(-1/2).  With
    w = z/(1-z), d/dtau takes the term (e, h) to (e + 4h) (e-1, h) + (4h + 2) (e-1, h+1).
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
            for (e, h), cf in terms.items():
                nxt[e - 1, h] = nxt.get((e - 1, h), 0.0) + cf * (e + 4 * h)
                nxt[e - 1, h + 1] = nxt.get((e - 1, h + 1), 0.0) + cf * (4 * h + 2)
            terms = nxt
    return {key: cf for key, cf in out.items() if cf}


_EM_TERMS = _em_boundary_terms()
_EM_E = sorted({e for e, _ in _EM_TERMS})  # the 6 powers of tau among the 30 terms
_EM_H = sorted({h for _, h in _EM_TERMS})  # the 6 powers of z/(1-z)


def _em_eval_terms(tau, C):
    """The merged boundary terms at tau (array or scalar), elementwise in C;
    each distinct power is computed once and shared by its terms.  Every
    factor stays in range up to C = 2^53: tau^e has |e| <= 9, and z/(1-z)
    grows only like C/64 at tau = C - 16."""
    z = (tau / C) ** 4
    om = 1.0 - z
    w = z / om
    tau_e = {e: tau**e for e in _EM_E}
    w_h = {h: w**h for h in _EM_H}
    total = np.zeros_like(C)
    for (e, h), cf in _EM_TERMS.items():
        total += cf * tau_e[e] * w_h[h]
    return total / np.sqrt(om)


@cache
def _head_moments():
    """The moments int_0^edge tau^(5+4k) T(tau) dtau, k = 0..3, built on
    first use by 20-point Gauss-Legendre on each [n, n + 1], n < edge: T once
    on all the nodes, then one dot product per interval and k."""
    n = np.arange(_EM_EDGE, dtype=np.float64)[:, None]
    nodes = (n + 0.5) + 0.5 * _GL_X  # row n: [n, n + 1]
    T = _F_on_piece(nodes, n) - 0.25 / nodes**2
    return np.array([
        sum(0.5 * float(np.dot(_GL_W, row)) for row in nodes ** (5 + 4 * k) * T)
        for k in range(4)
    ])


_TAIL_N = 19  # n = 0..18 in h_(j,n)


@cache
def _tail_coefficients():
    """c_2 .. c_26 of the tail band (see _dint_em_batch), built on first use:
    f_n of q^(-1/2) from q f' = -(1/2) q' f, h_(j,n) by partial sums from
    j = 2, M_(j,n) in closed form on [0, 1], by the 20-point rule on
    [i, i + 1].  Within 1e-12 relative of mpmath."""
    J, N = _T_SERIES_J, _TAIL_N
    q = (1.0, -1.5, 1.0, -0.25)
    f = [1.0]
    for n in range(1, N):
        f.append(sum((-0.5 * k - n + k) * q[k] * f[n - k] for k in range(1, min(3, n) + 1)) / n)
    h = [np.convolve(f, (1.0, -2.0, 1.0))[:N]]  # h_(j+1) = h_j / (1 - s)
    for _ in range(J - 2):
        h.append(np.cumsum(h[-1]))
    k, n = np.arange(J + 1), np.arange(N)
    bern = np.array([[math.comb(j, i) * float(BERNOULLI[j - i]) if i <= j else 0.0
                      for i in k] for j in range(2, J + 1)])
    # frac(sigma)^k moments, less (i + 1/2)^(n-1/2) / (k + 1) on [i, i + 1]
    # (B_j cancels it, but the rule sums B_j to 0 only within 4e-16);
    # einsum, as BLAS matmul would touch 0.3 MB of buffers
    x = 0.5 * (_GL_X + 1.0)
    i = np.arange(1, _EM_EDGE)[:, None, None]
    g = ((i + x[:, None]) ** (n - 0.5) - (i + 0.5) ** (n - 0.5)).sum(axis=0)
    S = 1 / (k[:, None] + n + 0.5) + np.einsum("kx,xn", x ** k[:, None] * (0.5 * _GL_W), g)
    M = np.einsum("jk,kn", bern, S)
    c = np.zeros(J + N - 2)
    for r, row in enumerate(M * np.array(h)):
        c[r:r + N] += (-1) ** r * row
    return c


def _dint_em_batch(Cs: np.ndarray) -> np.ndarray:
    """Endpoint-expansion evaluation for an array of large C; O(1) pieces each.

    dint = 1 + (8/C^4) * int_0^C tau^5 (1-(tau/C)^4)^(-1/2) T(tau) dtau.
    Head [0, edge]: (1-z)^(-1/2) expanded in z, leaving C-independent moments.
    Middle [edge, C-edge]: repeated integration by parts against periodic
    Bernoulli polynomials; only boundary terms survive at machine level
    (_EM_TERMS).  Tail band [C-edge, C]: with sigma = C - tau, s = sigma/C,
    B_j(frac(tau)) = (-1)^j B_j(frac(sigma)) and 1 - (1-s)^4 = 4 s q(s),
    q = 1 - 3s/2 + s^2 - s^3/4, so (8/C^4) band = -2 sqrt(C) sum_N c_N C^-N,
    c_N = sum_(j+n=N) (-1)^j h_(j,n) M_(j,n), h_(j,n) the Taylor coefficients
    of (1-s)^(4-j) q(s)^(-1/2), M_(j,n) = int_0^edge B_j(frac(sigma))
    sigma^(n-1/2) dsigma.  As s <= 16/83, the terms n > 18 add about 2e-24
    to dint.
    """
    C = Cs.astype(np.float64)
    a = float(_EM_EDGE)
    # head: sum_k binom(-1/2, k) (-1)^k Q_k / C^(4k); z <= (16/C)^4 so 4 terms suffice
    Q = _head_moments()
    head = Q[0] + 0.5 * Q[1] / C**4 + 0.375 * Q[2] / C**8 + 0.3125 * Q[3] / C**12

    # tail band: Horner in 1/C
    c = _tail_coefficients()
    x = 1 / C
    band = np.full_like(C, c[-1])
    for cN in c[-2::-1]:
        band *= x
        band += cN
    tail = -0.25 * C**2.5 * band

    # middle: boundary terms at tau = edge and tau = C - edge
    mid = _em_eval_terms(C - a, C) - _em_eval_terms(a, C)
    return 1.0 + (8 / C**4) * (head + mid + tail)


def _dint_arguments(values) -> np.ndarray:
    """The C of the sequence ``values`` as an int64 array; ValueError unless
    each is an integer (int or numpy integer) with 1 <= C <= 2^53."""
    Cs = np.asarray(values)
    # every formula uses C as a float64, which is the integer C only up to
    # 2^53; a C >= 2^63 makes the array uint64 or object, so it is bounded
    # before the cast to int64.  An empty list is a float64 array.
    if Cs.ndim != 1 or (Cs.size and (Cs.dtype.kind not in "iu" or Cs.min() < 1
                                     or Cs.max() > 1 << 53)):
        raise ValueError("dint needs integer C with 1 <= C <= 2^53")
    return Cs.astype(np.int64, copy=False)


def warm_dint_cache(values) -> np.ndarray:
    """dint(C) for each C of ``values``, in their order: dint's one entry
    point.  Each C is an integer with 1 <= C <= 2^53, else ValueError.  Every
    C up to the crossover goes by the direct path, every larger C by the
    endpoint expansion, each in slices (see _DINT_GROUP), so memory stays
    bounded however many C are asked for.  A value does not depend on its
    slice.  Against a 20-digit oracle the error measured is at most 7.4e-16
    from C = 1 to the crossover (7.4e-16, 7.0e-17 and 1.4e-16 at C = 1, 2
    and 3) and at most 1.1e-15 from the crossover to C = 4097.

    Nothing is cached.  The name stays, and every caller in this module
    looks it up as a module global, because bench/tracer.py patches this
    attribute to time the dint pass."""
    Cs = _dint_arguments(values)
    out = np.empty(len(Cs))
    small = Cs <= _DINT_CROSSOVER
    slices = ((np.flatnonzero(small), _dint_direct_batch, _DINT_GROUP // _DINT_CROSSOVER),
              (np.flatnonzero(~small), _dint_em_batch, _DINT_GROUP))
    for rows, path, size in slices:
        for i in range(0, len(rows), size):
            out[rows[i:i + size]] = path(Cs[rows[i:i + size]])
    return out


# ---------------------------------------------------------------------------
# the secondary-term density and its summed constant
#
# A term of beta is pref(v1, v2, y1) * S(m) / m^2 with m = v1 v2 y1 and
# S(m) = sum over squarefree k0 | m of mu(k0) dint(m/k0).  The box of terms
# with v1, v2, y1 <= cutoff and v2 squarefree is summed in numpy passes, with
# the roundings of the scalar loop over (v2, y1, v1) and every term's product
# in ascending order of its primes:
#
#   eta    eta(v2 y1^2) = 2^(odd primes of v2 y1), exact int64, on the pairs
#          (v2, y1) of _base_pair_lists; the other pairs have no term
#          (_box_pairs).
#   pref   one float64 per term, in (v2, y1, v1) order: -(3/pi^2) eta, times
#          1 - chi(p)/p for each p | v1 v2 ascending, then p/(p+1) for each
#          p | m ascending, one masked multiply per prime (_prefactors).
#   S(m)   all sorted moduli at once, slot by slot: slot j divides m by the
#          product k0 of its primes at the set bits of j and adds
#          (-1)^popcount(j) dint(m/k0), the order of
#          squarefree_divisors; dint(m/k0) is found by searchsorted
#          in the moduli, which are closed under m -> m/k0 (_mobius_dint_sums).
#   sum    pref * S(m) / m^2, added strictly left to right by
#          np.add.accumulate (np.sum would add pairwise), in blocks of whole
#          (v2, y1) rows of at most _BETA_BLOCK terms, so no temporary
#          exceeds about 128 KB however large the box.

# Largest cutoff of the beta box.  Its time grows about like cutoff^2.7 and
# its memory with the number of moduli (529,151 at the cap): at the cap it
# takes 3.6-3.9 s at a peak RSS of 117 MB (5 fresh processes on a shared
# 2-CPU Xeon).
BETA_CUTOFF_CAP = 400
_BETA_BLOCK = 1 << 14  # terms per block of the beta sum: 128 KB of float64


def _box_pairs(cutoff: int, primes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v2, y1, eta): the pairs of ``_base_pair_lists(cutoff)`` in row order
    and eta(v2 y1^2) on each, as int64 arrays.  Every odd prime of v2 y1 is
    1 (mod 4), so eta = 2^(odd primes of v2 y1).  ``primes`` ascending, the
    primes up to the cutoff."""
    v2s, y1s = _base_pair_lists(cutoff)
    v2, y1 = np.repeat(v2s, len(y1s)), np.tile(y1s, len(v2s))
    odd = np.zeros(cutoff + 1, dtype=np.int64)  # odd primes of each j
    for p in primes[1:]:
        odd[p::p] += 1
    return v2, y1, np.left_shift(1, odd[v2] + odd[y1] - odd[np.gcd(v2, y1)])


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
    squarefree_divisors.  ``primes`` ascending, holding every
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


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending: np.unique, which imports
    numpy.ma, by a sort and an adjacent-difference mask."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
    v2, y1, eta = _box_pairs(cutoff, primes)
    step = max(1, _BETA_BLOCK // cutoff)
    blocks = [slice(lo, lo + step) for lo in range(0, len(v2), step)]

    def moduli(b):
        return (v2[b] * y1[b])[:, None] * n

    # a prime p | m divides v1, v2 or y1, and dividing that factor by p
    # leaves a term of the box, so the moduli are closed under m -> m/k0:
    # they are exactly the arguments of dint that the sum needs
    keys = _distinct(np.concatenate([_distinct(moduli(b)) for b in blocks]))
    sums = _mobius_dint_sums(keys, primes, keys, warm_dint_cache(keys))
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
