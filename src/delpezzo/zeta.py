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

import numpy as np

from .arith import BERNOULLI, chi, linear_term_constant
from .constants import euler_primes, ordered_product, real_density_integral
from .errors import DelPezzoError, SizeCapError

# Bernoulli numbers B_2, B_4, ..., B_20
_BERNOULLI = tuple(float(b) for b in BERNOULLI[2::2])

# Target error of each Euler-Maclaurin evaluation; the certified bound of
# the result is reported whether or not it is met.
_SERIES_TOL = 1e-13
_EM_ORDER = 6  # Bernoulli correction terms in each Euler-Maclaurin tail


@dataclass(frozen=True)
class SeriesEval:
    argument: float
    value: float
    error: float


def _hurwitz_tail_terms(s: float, Na: float):
    """Bernoulli correction terms and the first-omitted-term bound for
    sum_{n >= N} (n+a)^(-s) handled by Euler-Maclaurin."""
    power = Na ** (-s - 1)
    if not power:  # every term underflows; poch might overflow to inf
        return [], 0.0
    terms = []
    poch = s  # s (s+1) ... ascending
    for j in range(1, _EM_ORDER + 1):
        terms.append(_BERNOULLI[j - 1] / math.factorial(2 * j) * poch * power)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power /= Na * Na
    bound = abs(_BERNOULLI[_EM_ORDER] / math.factorial(2 * _EM_ORDER + 2) * poch * power * Na * Na)
    return terms, bound


def _tails(s: float, offsets):
    """The first N in 16, 32, ..., 512 whose tails on the bases N + a, a in
    ``offsets``, have bounds summing to at most _SERIES_TOL / 2 (else 512),
    with the (terms, bound) of each base."""
    for N in (16, 32, 64, 128, 256, 512):
        tails = [_hurwitz_tail_terms(s, N + a) for a in offsets]
        if sum(bound for _, bound in tails) <= _SERIES_TOL / 2:
            break
    return N, tails


def zeta_real(s: float) -> SeriesEval:
    """Riemann zeta at real s > 1 with a certified error bound.

    Euler-Maclaurin with the remainder bounded by the first omitted
    correction term (valid for the completely monotone integrand).
    """
    if s <= 1:
        raise DelPezzoError("zeta_real requires s > 1")
    N, [(terms, bound)] = _tails(s, (1.0,))
    Na = N + 1.0
    head = sum((n + 1.0) ** (-s) for n in range(N))
    mid = Na ** (1 - s) / (s - 1) + 0.5 * Na ** (-s)
    return SeriesEval(s, head + mid + sum(terms), bound + 1e-15)


def l_chi_real(s: float) -> SeriesEval:
    """L(s, chi) for the character mod 4, real s > 0.

    4^(-s) (zeta(s, 1/4) - zeta(s, 3/4)) with the two pole terms combined
    analytically, so the evaluation is stable through s = 1.  The head
    sums (4n+1)^(-s) - (4n+3)^(-s), which is 4^(-s) times the head of that
    difference, and the pole terms sit on base N + 1/4 with expm1 of a
    negative argument for s > 1: at large s every power underflows to 0
    instead of overflowing.
    """
    if s <= 0:
        raise DelPezzoError("l_chi_real requires s > 0")
    N, [(t1, b1), (t2, b2)] = _tails(s, (0.25, 0.75))
    head = sum((4 * n + 1) ** (-s) - (4 * n + 3) ** (-s) for n in range(N))
    na, nb = N + 0.25, N + 0.75
    gap = math.log1p(0.5 / na)  # log(nb / na), exact to rounding
    if s == 1:
        pole_diff = gap
    else:
        pole_diff = -na ** (1 - s) * math.expm1((1 - s) * gap) / (s - 1)
    mid = pole_diff + 0.5 * (na ** (-s) - nb ** (-s))
    val = head + 4.0 ** (-s) * (mid + sum(t1) - sum(t2))
    return SeriesEval(s, val, 4.0 ** (-s) * (b1 + b2) + 1e-15)


def _product(s: float, factors) -> SeriesEval:
    """prod f(x)^e over the (f, x, e) of ``factors``, multiplying by f(x)
    e times for e > 0 and dividing -e times for e < 0, strictly in the order
    given; each distinct f(x) is evaluated once, and the relative errors of
    all the factors add up."""
    evals = {}
    val = 1.0
    rel = 0.0
    for f, x, e in factors:
        if (f, x) not in evals:
            evals[f, x] = f(x)
        ev = evals[f, x]
        for _ in range(abs(e)):
            val = val * ev.value if e > 0 else val / ev.value
            rel += ev.error / abs(ev.value)
    return SeriesEval(s, val, abs(val) * rel)


def main_zeta_product(s: float) -> SeriesEval:
    """The pole-carrying product
    zeta(2s-1)^2 zeta(3s-2) zeta(4s-3) L(2s-1, chi) L(3s-2, chi), real s > 1.
    """
    if s <= 1:
        raise DelPezzoError("main product requires s > 1 (pole at s = 1)")
    z, L = zeta_real, l_chi_real
    return _product(s, (
        (z, 2 * s - 1, 2), (z, 3 * s - 2, 1), (z, 4 * s - 3, 1),
        (L, 2 * s - 1, 1), (L, 3 * s - 2, 1),
    ))


def correction_zeta_product(s: float) -> SeriesEval:
    """The bounded correction product
    zeta(9s-6) L(9s-6, chi) / (zeta(5s-3)^2 zeta(6s-4)^2 L(5s-3, chi) L(6s-4, chi)^2),
    defined for real s > 5/6.
    """
    if s <= 5 / 6:
        raise DelPezzoError("correction product requires s > 5/6")
    z, L = zeta_real, l_chi_real
    return _product(s, (
        (z, 9 * s - 6, 1), (L, 9 * s - 6, 1),
        (z, 5 * s - 3, -2), (z, 6 * s - 4, -2),
        (L, 5 * s - 3, -1), (L, 6 * s - 4, -2),
    ))


# ---------------------------------------------------------------------------
# local factors of the height series

def _inv_pm1(p: float, x: float) -> float:
    """1 / (p^x - 1) for p > 1, x > 0, as p^-x / (1 - p^-x): it underflows to
    0 where p^x would overflow."""
    q = p ** (-x)
    return q / (1 - q)


def euler_factor(p: int, s: float) -> float:
    """The local factor of the height series at shifted argument s + 1/4,
    as displayed (separate expression at p = 2), with every 1/(p^x - 1) and
    1/p^x taken through p^-x so that large s underflow instead of overflow.

    Convergence needs the exponents positive: s > -1/4.
    """
    if s <= -0.25:
        raise DelPezzoError("euler_factor requires s > -1/4")
    if p == 2:
        ia = _inv_pm1(2.0, 1 + 2 * s)
        ib = _inv_pm1(2.0, 1 + 4 * s)
        return (
            1
            + (0.5 + ib / 4) * ia
            + (1 + 2.0 ** (-3 * s)) * ib / 4
            + 2.0 ** (-(2 + 3 * s))
        )
    x = chi(p)
    ia = _inv_pm1(float(p), 1 + 2 * s)
    ib = _inv_pm1(float(p), 1 + 4 * s)
    one = 1 - 1 / p
    return (
        1
        + one * (2 + x) * ia * (1 + one * ib)
        + one * (1 - (1 + x) / p) * ib
        + one**2 * (1 + x) * float(p) ** (-1 - 3 * s)
        / ((1 - float(p) ** (-1 - 4 * s)) * (1 - float(p) ** (-1 - 2 * s)))
    )


def _residual_factors(p: np.ndarray) -> np.ndarray:
    """The factors of H(0) at a float64 array of odd primes, each rounded as
    the scalar float expression would be."""
    x = 2 - p % 4  # chi(p)
    return (
        np.float_power(1 - 1 / p, 4)
        * np.float_power(1 - x / p, 2)
        * (1 + (4 + 2 * x) / p + 1 / (p * p))
    )


def residual_product_at_zero(prime_cutoff: int) -> tuple[float, float]:
    """H(0) = (5/2^5) prod_{p > 2} (1-1/p)^4 (1-chi/p)^2 (1 + (4+2chi)/p + 1/p^2).

    Equals the finite Tamagawa product (chi^2 = 1 collapses the factors for
    odd p); evaluated as its own code path and compared in tests.  The
    factors are computed in numpy blocks of 2^13 primes and multiplied left
    to right by the shared ordered_product, so H(0) is the scalar loop
    ``total *= factor(p)`` bit for bit.  The powers use np.float_power,
    which calls the libm pow of Python's float ** int, where numpy's ** and
    np.power may round differently (on 13% of the primes below 10^6 with
    AVX-512).  The cutoff is checked by euler_primes.
    """
    total = ordered_product(_residual_factors, euler_primes(prime_cutoff)[1:], 5 / 32)
    return total, abs(total) * math.expm1(11 / prime_cutoff)


def leading_factor_at_one(residual: tuple[float, float]) -> tuple[float, float]:
    """G1(1) = 16 c H(0) / E2(1), from the pair (H(0), error) that
    residual_product_at_zero returns; necessarily nonzero (asserted positive)."""
    h0, h0_err = residual
    if not h0 > 0:
        raise DelPezzoError("H(0) must be positive")
    c, c_err = real_density_integral()
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
    *,
    beta_cutoff: int,
) -> list[dict]:
    """Exact-count decomposition rows for each bound B in ``grid``.

    Row fields: B, n_uh (exact point count on U), main_delta
    (4 c B^(3/4) sum_{n<=B} Delta(n)), main_linear ((12/pi^2 + 4 beta) B),
    residual, residual_scaled (residual / B^0.9).
    """
    # lazy: the zeta command does not load the counter
    from .surface import count_degenerate
    from .torsor import TORSOR_CAP, count_torsor, main_term_partial_sum

    grid = sorted(int(B) for B in grid)
    if grid and grid[-1] > TORSOR_CAP:
        raise SizeCapError(f"grid exceeds the counting cap {TORSOR_CAP}")
    c, _ = real_density_integral()
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
