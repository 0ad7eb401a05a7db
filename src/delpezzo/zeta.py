"""Real-argument evaluation of the Dirichlet-series layer.

Certified Euler-Maclaurin evaluation of the zeta and mod-4 L functions, the
two composite zeta/L products attached to the height series, the local Euler
factors of the height series itself, the residual Euler product at 0 (which
equals the finite Tamagawa product), the nonvanishing combination at 1, and
the exact decomposition diagnostic

    N_U(B) = 4c B^(3/4) * sum_{n <= B} Delta(n) + (12/pi^2 + 4 beta) B + R(B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import BERNOULLI, chi, primes_up_to
from .errors import DelPezzoError, SizeCapError

# Bernoulli numbers B_2, B_4, ..., B_20
_BERNOULLI = tuple(float(b) for b in BERNOULLI[2::2])


@dataclass(frozen=True)
class SeriesEval:
    argument: float
    value: float
    error: float
    terms_or_primes: int


def _hurwitz_tail_terms(s: float, Na: float, J: int):
    """Bernoulli correction terms and the first-omitted-term bound for
    sum_{n >= N} (n+a)^(-s) handled by Euler-Maclaurin."""
    terms = []
    poch = s  # s (s+1) ... ascending
    power = Na ** (-s - 1)
    for j in range(1, J + 1):
        terms.append(_BERNOULLI[j - 1] / math.factorial(2 * j) * poch * power)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power /= Na * Na
    bound = abs(_BERNOULLI[J] / math.factorial(2 * J + 2) * poch * power * Na * Na)
    return terms, bound


def hurwitz_zeta(s: float, a: float, tol: float = 1e-13) -> SeriesEval:
    """zeta(s, a) = sum_{n >= 0} (n+a)^(-s) for real s > 1, 0 < a <= 1.

    Euler-Maclaurin with the remainder bounded by the first omitted
    correction term (valid for the completely monotone integrand).
    """
    if s <= 1:
        raise DelPezzoError("hurwitz_zeta requires s > 1")
    J = 6
    for N in (16, 32, 64, 128, 256, 512):
        Na = N + a
        _, bound = _hurwitz_tail_terms(s, Na, J)
        if bound <= tol / 2:
            break
    head = sum((n + a) ** (-s) for n in range(N))
    mid = Na ** (1 - s) / (s - 1) + 0.5 * Na ** (-s)
    terms, bound = _hurwitz_tail_terms(s, Na, J)
    return SeriesEval(s, head + mid + sum(terms), bound + 1e-15, N)


def zeta_real(s: float, tol: float = 1e-13) -> SeriesEval:
    """Riemann zeta at real s > 1 with a certified error bound."""
    return hurwitz_zeta(s, 1.0, tol)


def l_chi_real(s: float, tol: float = 1e-13) -> SeriesEval:
    """L(s, chi) for the character mod 4, real s > 0.

    4^(-s) (zeta(s, 1/4) - zeta(s, 3/4)) with the two pole terms combined
    analytically, so the evaluation is stable through s = 1.
    """
    if s <= 0:
        raise DelPezzoError("l_chi_real requires s > 0")
    J = 6
    N = 16
    for N in (16, 32, 64, 128, 256, 512):
        _, b1 = _hurwitz_tail_terms(s, N + 0.25, J)
        _, b2 = _hurwitz_tail_terms(s, N + 0.75, J)
        if b1 + b2 <= tol / 2:
            break
    head = sum((n + 0.25) ** (-s) - (n + 0.75) ** (-s) for n in range(N))
    na, nb = N + 0.25, N + 0.75
    if s == 1:
        pole_diff = math.log(nb / na)
    else:
        pole_diff = nb ** (1 - s) * math.expm1((1 - s) * math.log(na / nb)) / (s - 1)
    mid = pole_diff + 0.5 * (na ** (-s) - nb ** (-s))
    t1, b1 = _hurwitz_tail_terms(s, na, J)
    t2, b2 = _hurwitz_tail_terms(s, nb, J)
    val = 4.0 ** (-s) * (head + mid + sum(t1) - sum(t2))
    return SeriesEval(s, val, 4.0 ** (-s) * (b1 + b2) + 1e-15, N)


def main_zeta_product(s: float, tol: float = 1e-13) -> SeriesEval:
    """The pole-carrying product
    zeta(2s-1)^2 zeta(3s-2) zeta(4s-3) L(2s-1, chi) L(3s-2, chi), real s > 1.
    """
    if s <= 1:
        raise DelPezzoError("main product requires s > 1 (pole at s = 1)")
    z1 = zeta_real(2 * s - 1, tol)
    z2 = zeta_real(3 * s - 2, tol)
    z3 = zeta_real(4 * s - 3, tol)
    l1 = l_chi_real(2 * s - 1, tol)
    l2 = l_chi_real(3 * s - 2, tol)
    parts = (z1, z1, z2, z3, l1, l2)
    val = 1.0
    rel = 0.0
    for p in parts:
        val *= p.value
        rel += p.error / abs(p.value)
    return SeriesEval(s, val, abs(val) * rel, max(p.terms_or_primes for p in parts))


def correction_zeta_product(s: float, tol: float = 1e-13) -> SeriesEval:
    """The bounded correction product
    zeta(9s-6) L(9s-6, chi) / (zeta(5s-3)^2 zeta(6s-4)^2 L(5s-3, chi) L(6s-4, chi)^2),
    defined for real s > 5/6.
    """
    if s <= 5 / 6:
        raise DelPezzoError("correction product requires s > 5/6")
    num = (zeta_real(9 * s - 6, tol), l_chi_real(9 * s - 6, tol))
    den = (
        zeta_real(5 * s - 3, tol), zeta_real(5 * s - 3, tol),
        zeta_real(6 * s - 4, tol), zeta_real(6 * s - 4, tol),
        l_chi_real(5 * s - 3, tol),
        l_chi_real(6 * s - 4, tol), l_chi_real(6 * s - 4, tol),
    )
    val = 1.0
    rel = 0.0
    for p in num:
        val *= p.value
        rel += p.error / abs(p.value)
    for p in den:
        val /= p.value
        rel += p.error / abs(p.value)
    return SeriesEval(s, val, abs(val) * rel, max(p.terms_or_primes for p in num + den))


# ---------------------------------------------------------------------------
# local factors of the height series

def euler_factor(p: int, s: float) -> float:
    """The local factor of the height series at shifted argument s + 1/4,
    exactly as displayed (separate expression at p = 2).

    Convergence needs the exponents positive: s > -1/4.
    """
    if s <= -0.25:
        raise DelPezzoError("euler_factor requires s > -1/4")
    if p == 2:
        a = 2.0 ** (1 + 2 * s) - 1
        b = 2.0 ** (1 + 4 * s) - 1
        return (
            1
            + (0.5 + 1 / (4 * b)) / a
            + (1 + 2.0 ** (-3 * s)) / (4 * b)
            + 2.0 ** (-(2 + 3 * s))
        )
    x = chi(p)
    pa = float(p) ** (1 + 2 * s) - 1
    pb = float(p) ** (1 + 4 * s) - 1
    one = 1 - 1 / p
    return (
        1
        + one * (2 + x) / pa * (1 + one / pb)
        + one * (1 - (1 + x) / p) / pb
        + one**2 * (1 + x)
        / (float(p) ** (1 + 3 * s) * (1 - float(p) ** (-1 - 4 * s)) * (1 - float(p) ** (-1 - 2 * s)))
    )


def euler_product_truncated(s: float, prime_cutoff: int) -> float:
    """prod_{p <= cutoff} euler_factor(p, s), ascending and deterministic."""
    total = 1.0
    for p in primes_up_to(prime_cutoff):
        total *= euler_factor(int(p), s)
    return total


def dirichlet_sum_truncated(s: float, n_max: int) -> float:
    """sum_{n <= n_max} Delta(n) / n^(s + 1/4): the direct-series side of the
    Euler-product identity at shifted argument s + 1/4."""
    from .arith import main_term_coefficient

    total = 0.0
    for n in range(1, n_max + 1):
        d = main_term_coefficient(n)
        if d:
            total += d / n ** (s + 0.25)
    return total


def _residual_factor(p: int) -> float:
    x = chi(p)
    return (1 - 1 / p) ** 4 * (1 - x / p) ** 2 * (1 + (4 + 2 * x) / p + 1 / (p * p))


def residual_product_at_zero(prime_cutoff: int = 10**6) -> tuple[float, float]:
    """H(0) = (5/2^5) prod_{p > 2} (1-1/p)^4 (1-chi/p)^2 (1 + (4+2chi)/p + 1/p^2).

    Equals the finite Tamagawa product (chi^2 = 1 collapses the factors for
    odd p); evaluated as its own code path and compared in tests.
    """
    if prime_cutoff < 100:
        raise ValueError("prime_cutoff >= 100 required")
    total = 5 / 32
    for p in primes_up_to(prime_cutoff)[1:]:
        total *= _residual_factor(int(p))
    return total, abs(total) * math.expm1(11 / prime_cutoff)


def leading_factor_at_one(
    prime_cutoff: int = 10**6, quad_tol: float = 1e-12
) -> tuple[float, float]:
    """G1(1) = 16 c H(0) / E2(1); necessarily nonzero (asserted positive)."""
    from .constants import real_density_integral

    c, c_err = real_density_integral(quad_tol)
    h0, h0_err = residual_product_at_zero(prime_cutoff)
    e2 = correction_zeta_product(1.0)
    val = 16 * c * h0 / e2.value
    rel = c_err / c + h0_err / h0 + e2.error / abs(e2.value)
    if not val > 0:
        raise DelPezzoError("leading factor at 1 must be positive")
    return val, abs(val) * rel


# ---------------------------------------------------------------------------
# decomposition diagnostic

def count_decomposition(
    grid,
    workers: Optional[int] = None,
    beta_cutoff: int = 100,
    quad_tol: float = 1e-12,
) -> list[dict]:
    """Exact-count decomposition rows for each bound B in ``grid``.

    Row fields: B, n_uh (exact point count on U), main_delta
    (4 c B^(3/4) sum_{n<=B} Delta(n)), main_linear ((12/pi^2 + 4 beta) B),
    residual, residual_scaled (residual / B^0.9).
    """
    from .arith import linear_term_constant
    from .constants import real_density_integral
    from .surface import count_degenerate
    from .torsor import TORSOR_CAP, count_torsor, main_term_partial_sum

    grid = sorted(int(B) for B in grid)
    if grid and grid[-1] > TORSOR_CAP:
        raise SizeCapError(f"grid exceeds the counting cap {TORSOR_CAP}")
    c, _ = real_density_integral(quad_tol)
    beta, _ = linear_term_constant(beta_cutoff)
    linear_coeff = 12 / math.pi**2 + 4 * beta
    rows = []
    for B in grid:
        n_uh = 4 * count_torsor(B, workers=workers) + count_degenerate(B).points
        main_delta = 4 * c * B**0.75 * main_term_partial_sum(B)
        main_linear = linear_coeff * B
        residual = n_uh - main_delta - main_linear
        rows.append(
            {
                "B": B,
                "n_uh": n_uh,
                "main_delta": main_delta,
                "main_linear": main_linear,
                "residual": residual,
                "residual_scaled": residual / B**0.9,
            }
        )
    return rows
