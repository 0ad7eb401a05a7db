"""Archimedean and p-adic densities, the Euler product, and the expected
leading coefficient.

The real-density integral c, the archimedean density (16c by an exact
identity, computed by an independent quadrature here), the rational polytope
volume alpha = 1/288, the finite Euler product tau, the p-adic densities
omega_p (exact modular counts against the closed form), and the divisor
lattice of the minimal desingularisation with its consistency identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .arith import chi, primes_up_to, sqrt_minus_one_count
from .errors import DataIntegrityError, SizeCapError

# ---------------------------------------------------------------------------
# archimedean quantities

# Nodes of the midpoint rule on [0, pi/2].  Both integrands are even and
# pi-periodic, so this is the periodic trapezoidal rule, and analytic in the
# strip |Im theta| < asinh(1), so its error falls like exp(-4 asinh(1) n):
# 1e-12 at n = 8, 1e-25 at n = 16, which leaves 32 nodes only the rounding
# (Trefethen and Weideman, SIAM Review 56 (2014) 385-458).
_MIDPOINT_NODES = 32


def _midpoint_quarter_period(f) -> tuple[float, float]:
    """int_0^(pi/2) f by the midpoint rule on _MIDPOINT_NODES nodes, as
    (value, error).  The error is the change from half as many nodes plus
    n eps h sum |f|, which bounds the rounding: the float sum of n terms errs
    by at most (n - 1) (eps/2) sum |f|, and the few roundings of each term
    add less than the rest."""
    def rule(n):
        h = math.pi / (2 * n)
        y = f((np.arange(n) + 0.5) * h)
        return h * float(y.sum()), n * np.finfo(float).eps * h * float(np.abs(y).sum())

    value, rounding = rule(_MIDPOINT_NODES)
    return value, abs(value - rule(_MIDPOINT_NODES // 2)[0]) + rounding


def real_density_integral() -> tuple[float, float]:
    """c = int_0^1 u^(1/4) du / (2 sqrt(1-u)).

    Both endpoint singularities are removed analytically by u = sin^4(theta):
    c = int_0^{pi/2} 2 sin^4(theta) / sqrt(1 + sin^2(theta)) d(theta),
    a periodic analytic integrand handed to the midpoint rule.
    """
    return _midpoint_quarter_period(lambda t: 2 * np.sin(t) ** 4 / np.sqrt(1 + np.sin(t) ** 2))


def archimedean_density() -> tuple[float, float]:
    """Archimedean density 8 int_0^1 u^(1/4) (1-u)^(-1/2) du = 16 c.

    Quadrated independently of ``real_density_integral`` through the
    pre-integration-by-parts form 4 int_0^1 sqrt(1-u) u^(-3/4) du, smoothed
    by u = sin^4(psi): 16 int_0^{pi/2} cos^2(psi) sqrt(1 + sin^2(psi)) d(psi).
    """
    val, err = _midpoint_quarter_period(lambda t: np.cos(t) ** 2 * np.sqrt(1 + np.sin(t) ** 2))
    return 16 * val, 16 * err


def real_density_beta_oracle() -> float:
    """Closed form of c through the Beta function (test oracle):
    Gamma(5/4) Gamma(1/2) / (2 Gamma(7/4))."""
    return math.gamma(1.25) * math.gamma(0.5) / (2 * math.gamma(1.75))


# ---------------------------------------------------------------------------
# polytope volume

def simplex_volume(weights) -> Fraction:
    """Exact volume of {t >= 0 : sum_i a_i t_i <= 1} = 1 / (n! prod a_i)."""
    n = len(weights)
    denom = math.factorial(n)
    for a in weights:
        denom *= a
    return Fraction(1, denom)


def peyre_alpha() -> Fraction:
    """alpha = (1/2) vol{t in R^3_{>=0} : 4 t1 + 2 t2 + 3 t3 <= 1} = 1/288."""
    return Fraction(1, 2) * simplex_volume((4, 2, 3))


# ---------------------------------------------------------------------------
# Euler product

# Largest prime cutoff of an Euler product: at 10^8 tau takes 2.2-2.4 s and
# a peak RSS of 214 MB on a shared 2-CPU Xeon, most of it the sieve's 10^8
# bytes.
PRIME_CUTOFF_CAP = 10**8


def euler_primes(prime_cutoff: int) -> np.ndarray:
    """The primes up to the cutoff of an Euler product: ValueError below 100,
    SizeCapError above PRIME_CUTOFF_CAP, both before the sieve."""
    if prime_cutoff < 100:
        raise ValueError("prime_cutoff >= 100 required")
    if prime_cutoff > PRIME_CUTOFF_CAP:
        raise SizeCapError(f"prime cutoff exceeds the Euler product cap {PRIME_CUTOFF_CAP}")
    return primes_up_to(prime_cutoff)


# Primes per block of an Euler product.  One pass over all 78,498 primes
# below 10^6 raises the peak RSS of ``constants`` by about 1.2 MB; blocks of
# 2^13 leave it where the scalar loop had it.
_EULER_BLOCK = 1 << 13


def ordered_product(factors, primes, total: float = 1.0) -> float:
    """total * factors(p) * ... over the ascending int array ``primes``,
    multiplied strictly left to right as the scalar loop ``total *= f(p)``
    would, in numpy blocks of _EULER_BLOCK primes: np.multiply.accumulate
    is sequential, and each block's first factor carries the running total.
    ``factors`` maps a float64 block of primes to its float64 factors."""
    for lo in range(0, len(primes), _EULER_BLOCK):
        f = factors(primes[lo:lo + _EULER_BLOCK].astype(np.float64))
        f[0] *= total
        total = float(np.multiply.accumulate(f, out=f)[-1])
    return total


def _tau_factors(p: np.ndarray) -> np.ndarray:
    """The local factors of tau at a float64 array of primes, each rounded
    as the scalar float expression of tau_factor_exact would be."""
    x = np.where(p == 2, 0.0, 2 - p % 4)  # chi(p)
    return (
        np.float_power(1 - 1 / p, 4)
        * np.float_power(1 - x / p, 2)
        * (1 + (3 + 2 * x + x * x) / p + (x * x) / (p * p))
    )


def tamagawa_euler_product(prime_cutoff: int) -> tuple[float, float]:
    """prod over p <= cutoff of the local factor, with a crude tail bound.

    The factors are computed in numpy blocks of 2^13 primes and multiplied
    left to right by ordered_product, so tau is the scalar loop
    ``total *= factor(p)`` bit for bit.  The powers use np.float_power,
    which calls the libm pow of Python's float ** int, where numpy's ** and
    np.power may round differently (on 13% of the primes below 10^6 with
    AVX-512).

    Each log-factor for p > cutoff is below 11/p^2 in absolute value
    (coarse expansion of the factor), so the tail of the log-product is at
    most 11/cutoff, giving |true/partial - 1| <= exp(11/cutoff) - 1.  The
    cutoff is checked by euler_primes.
    """
    total = ordered_product(_tau_factors, euler_primes(prime_cutoff))
    tail = total * math.expm1(11 / prime_cutoff)
    return total, abs(tail)


def tau_factor_exact(p: int) -> Fraction:
    """The same local factor as an exact rational (used by tests)."""
    x = chi(p)
    return (
        Fraction(p - 1, p) ** 4
        * Fraction(p - x, p) ** 2
        * (1 + Fraction(3 + 2 * x + x * x, p) + Fraction(x * x, p * p))
    )


# ---------------------------------------------------------------------------
# p-adic densities

NAIVE_DENSITY_CAP = 10**8
# `densities --p 2 --rmax 160`, the slowest this admits, ran 1.3-2.4 s on a shared 2-CPU Xeon
FAST_DENSITY_CAP = 2**160


def _density_count_naive(p: int, r: int) -> int:
    """Literal count over all q^5 residue tuples (q = p^r), blockwise."""
    q = p**r
    t = np.arange(q, dtype=np.int64)
    x3sq = (t * t) % q
    count = 0
    for x0 in range(q):
        for x1 in range(q):
            n2 = int(np.count_nonzero((t * t - x0 * x1) % q == 0))
            if n2 == 0:
                continue
            # x3 runs the row, x4 the column of an implicit q x q grid
            lhs = (x3sq + x0 * x0) % q
            n34 = int(np.count_nonzero((lhs[:, None] - (x1 * t)[None, :]) % q == 0))
            count += n2 * n34
    return count


def _roots_of_minus_square(p: int, v: int, w: int) -> int:
    """#{x mod p^w : x^2 = -p^(2v)}.  For 2v >= w that is x^2 = 0, true
    exactly when v_p(x) >= w/2: p^(w // 2) roots.  For 2v < w, x = p^v u
    with u^2 = -1 (mod p^(w-2v)), and each of its eta(p^(w-2v)) roots
    lifts to p^v residues u mod p^(w-v): p^v eta(p^(w-2v)) roots.  By
    Hensel, eta(p^e) = eta(p^min(e, 2)), which spares factoring p^e."""
    if 2 * v >= w:
        return p ** (w // 2)
    return p**v * sqrt_minus_one_count(p ** min(w - 2 * v, 2))


def _density_count_tables(p: int, r: int) -> int:
    """Exact count by valuation classes in O(r^2) integer steps.

    Both forms are homogeneous quadrics, so x -> lambda x (lambda a unit)
    maps solutions to solutions and the fibre over x0 depends only on
    v = v_p(x0): the representatives x0 = p^v carry weight phi(p^(r-v)).
    Over a fixed x0 the count is
    sum over x1 of #{x2 : x2^2 = x0 x1} * #{(x3, x4) : x3^2 + x0^2 = x1 x4},
    and for w = v_p(x1) the second factor is q * #{x3 mod p^w : x3^2 = -x0^2}.
    Summing the first factor over p^w | x1 gives p^(r-w) * #{x2 mod p^s :
    p^s | x2^2} = p^(r-w) p^(s // 2) with s = min(v + w, r); differences of
    consecutive w isolate v_p(x1) = w exactly.  Products and sums are Python
    ints: N(p^r) passes 2^63 already at p^r = 7^8.
    """
    q = p**r
    total = 0
    for v in range(r + 1):
        weight = p ** (r - v) - p ** (r - v - 1) if v < r else 1
        # x1-sums of the x2 count over p^w | x1, for w = 0..r, then 0
        divisible = [p ** (r - w + min(v + w, r) // 2) for w in range(r + 1)] + [0]
        fibre = sum(
            _roots_of_minus_square(p, v, w) * (divisible[w] - divisible[w + 1])
            for w in range(r + 1)
        )
        total += weight * q * fibre
    return total


def local_density_brute(p: int, r: int, mode: str = "tables") -> Fraction:
    """Exact N(p^r) / p^(3r) with N(p^r) the number of residue 5-tuples
    modulo p^r solving both forms.

    ``mode``: 'tables' counts by valuation classes of (x0, x1) in
    O(r^2) integer steps (cap p^r <= 2^160); 'naive' scans all p^(5r) tuples
    (cap 10^8) and is the oracle of 'tables'.
    """
    if r < 1:
        raise ValueError("r >= 1 required")
    if mode == "naive":
        if p ** (5 * r) > NAIVE_DENSITY_CAP:
            raise SizeCapError(f"naive density count needs p^(5r) <= {NAIVE_DENSITY_CAP}")
        n = _density_count_naive(p, r)
    elif mode == "tables":
        if p**r > FAST_DENSITY_CAP:
            raise SizeCapError("table density count needs p^r <= "
                               f"2^{FAST_DENSITY_CAP.bit_length() - 1}")
        n = _density_count_tables(p, r)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Fraction(n, p ** (3 * r))


def local_density_closed(p: int) -> Fraction:
    """Limit density: 5/2 at p = 2, else 1 + (4 + 2 chi(p))/p + 1/p^2."""
    if p == 2:
        return Fraction(5, 2)
    return 1 + Fraction(4 + 2 * chi(p), p) + Fraction(1, p * p)


# ---------------------------------------------------------------------------
# lattice data

INTERSECTION_BASIS = ("E1", "E2", "E3", "E4", "L1", "L2")
INTERSECTION_MATRIX = (
    (-2, 1, 1, 1, 0, 0),
    (1, -2, 0, 0, 0, 0),
    (1, 0, -2, 0, 1, 0),
    (1, 0, 0, -2, 0, 1),
    (0, 0, 1, 0, -1, 0),
    (0, 0, 0, 1, 0, -1),
)
ANTICANONICAL = (4, 2, 3, 3, 2, 2)
PICARD_RANK = 4  # invariant sublattice basis: E1, E2, E3 + E4, L1 + L2


def picard_lattice_checks() -> dict:
    """Verify the divisor-lattice identities; raises on any failure.

    Checks: symmetry, the diagonal (-2,-2,-2,-2,-1,-1), (-K)^2 = 4 (the
    degree), (-K).E_i = 0, (-K).L_j = 1, and the rank-4 invariant basis.
    """
    M = np.array(INTERSECTION_MATRIX, dtype=np.int64)
    K = np.array(ANTICANONICAL, dtype=np.int64)
    report = {}
    if not np.array_equal(M, M.T):
        raise DataIntegrityError("intersection matrix is not symmetric")
    if tuple(np.diag(M)) != (-2, -2, -2, -2, -1, -1):
        raise DataIntegrityError("unexpected self-intersections")
    MK = M @ K
    report["deg"] = int(K @ MK)
    report["K_dot_E"] = [int(v) for v in MK[:4]]
    report["K_dot_L"] = [int(v) for v in MK[4:]]
    report["picard_rank"] = PICARD_RANK
    if report["deg"] != 4:
        raise DataIntegrityError("(-K)^2 != 4")
    if report["K_dot_E"] != [0, 0, 0, 0]:
        raise DataIntegrityError("(-K).E_i != 0")
    if report["K_dot_L"] != [1, 1]:
        raise DataIntegrityError("(-K).L_j != 1")
    return report


# ---------------------------------------------------------------------------
# the assembled bundle

def tamagawa_measure(omega_inf: float, tau: float) -> float:
    """pi^2 * omega_inf * tau / 16 (the L(1,chi)^2 = pi^2/16 limit folded in)."""
    return math.pi**2 * omega_inf * tau / 16


def leading_coefficient(c: float, tau: float) -> float:
    """(pi^2 / 576) * (2c) * tau: the expected leading coefficient of the
    degree-3 polynomial in log B multiplying B."""
    return math.pi**2 / 576 * (2 * c) * tau


@dataclass(frozen=True)
class ConstantBundle:
    c: float
    c_error: float
    omega_inf: float
    omega_inf_error: float
    alpha: Fraction
    tau: float
    tau_tail: float
    beta: float
    beta_tail: float
    tau_H: float
    tau_H_error: float
    peyre: float
    peyre_error: float
    leading_coeff: float
    prime_cutoff: int
    beta_cutoff: int


def constant_bundle(prime_cutoff: int, beta_cutoff: int) -> ConstantBundle:
    """Compute every constant with propagated error estimates.

    Cross-identity enforced: omega_inf = 16 c within the two quadratures'
    declared errors, else DataIntegrityError.  peyre = alpha * tau_H is not
    compared with the leading coefficient here; criterion 4
    (tests/test_acceptance.py) and tests/test_cli.py check that they agree.
    """
    # lazy, so the linear_term_constant that bench/tracer.py patches is the one called
    from .arith import linear_term_constant

    c, c_err = real_density_integral()
    om, om_err = archimedean_density()
    if abs(om - 16 * c) > om_err + 16 * c_err:
        raise DataIntegrityError("omega_inf != 16c beyond quadrature error")
    alpha = peyre_alpha()
    tau, tau_tail = tamagawa_euler_product(prime_cutoff)
    beta, beta_tail = linear_term_constant(beta_cutoff)
    tau_H = tamagawa_measure(om, tau)
    rel = tau_tail / tau + om_err / om
    lead = leading_coefficient(c, tau)
    return ConstantBundle(
        c=c, c_error=c_err,
        omega_inf=om, omega_inf_error=om_err,
        alpha=alpha,
        tau=tau, tau_tail=tau_tail,
        beta=beta, beta_tail=beta_tail,
        tau_H=tau_H, tau_H_error=abs(tau_H) * rel,
        peyre=float(alpha) * tau_H, peyre_error=float(alpha) * abs(tau_H) * rel,
        leading_coeff=lead,
        prime_cutoff=prime_cutoff, beta_cutoff=beta_cutoff,
    )
