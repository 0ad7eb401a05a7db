"""The surface, its height, and the slow-but-independent counting oracles.

The surface X in P^4 is cut out by

    Q1(x) = x0*x1 - x2^2,        Q2(x) = x0^2 - x1*x4 + x3^2.

Its only singular point is [0,0,0,0,1], which is also the only rational
point on the two (conjugate complex) lines of X; the open subset U is X
minus those lines.  Heights use the max norm on coprime integer coordinates.

Counting here is deliberately elementary: a cube scan for tiny bounds and a
one-equation parametrization for moderate bounds.  Both serve as oracles for
the fast counter in :mod:`delpezzo.torsor` and share none of its machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

import numpy as np

from .arith import iroot4, mobius_sieve
from .errors import InvalidPointError, NotInDomainError, SizeCapError

NAIVE_CAP = 30
ORACLE_CAP = 10**4
DEGENERATE_CAP = 10**9


def eval_forms(x) -> tuple[int, int]:
    """Exact values (Q1(x), Q2(x)) of the two defining quadrics."""
    x0, x1, x2, x3, x4 = (int(v) for v in x)
    return x0 * x1 - x2 * x2, x0 * x0 - x1 * x4 + x3 * x3


@dataclass(frozen=True, order=True)
class SurfacePoint:
    """Primitive integer 5-tuple, first nonzero coordinate positive, on X."""

    x: tuple[int, int, int, int, int]

    def __post_init__(self):
        if eval_forms(self.x) != (0, 0):
            raise NotInDomainError(f"{self.x} does not satisfy Q1 = Q2 = 0")

    @property
    def coords(self):
        return self.x


def canonicalize(x) -> SurfacePoint:
    """Projective normal form: divide by the gcd, then flip the global sign
    so the first nonzero coordinate is positive."""
    v = [int(c) for c in x]
    if all(c == 0 for c in v):
        raise InvalidPointError("the zero vector does not define a projective point")
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    v = [c // g for c in v]
    for c in v:
        if c != 0:
            if c < 0:
                v = [-c2 for c2 in v]
            break
    return SurfacePoint(tuple(v))


def height(p: SurfacePoint) -> int:
    """max_i |x_i|; on X this equals max(|x1|, |x4|), which is asserted."""
    h = max(abs(c) for c in p.x)
    assert h == max(abs(p.x[1]), abs(p.x[4])), "height identity violated on X"
    return h


def classify(p: SurfacePoint) -> str:
    """'on_line' for the singular point, 'off_surface' if the forms fail,
    'on_U' otherwise.  The only rational point on the lines is [0,0,0,0,1]."""
    if eval_forms(p.x) != (0, 0):
        return "off_surface"
    if p.x == (0, 0, 0, 0, 1):
        return "on_line"
    return "on_U"


@dataclass(frozen=True)
class CountBreakdown:
    """All counters of the sign-splitting reduction at one bound B.

    Exact identities (not asymptotics):
        s_total = 4 * s_pp
        s_pp    = 2 * n_pos
        n_uh    = s_total/2 + z_degenerate/2
    """

    B: int
    n_uh: int
    n_pos: int
    s_total: int
    s_pp: int
    z_degenerate: int


def count_naive(B: int) -> CountBreakdown:
    """Exhaustive scan of the cube [-B, B]^5 (every solution tuple visited).

    Solutions of Q1 = 0 force x2^2 = x0*x1, and Q2 = 0 then determines x4
    from (x0, x1, x3) by an exact division, so the scan walks (x0, x1, x3)
    and the finitely many x2 / x4 candidates; no tuple in the cube is missed
    because coordinates of points on X with height <= B are bounded by B.
    """
    if B < 1:
        raise SizeCapError("B >= 1 required")
    if B > NAIVE_CAP:
        raise SizeCapError(f"count_naive is capped at B = {NAIVE_CAP}")
    n_pos = s_total = s_pp = z_deg = 0
    canon: set = set()
    for x0 in range(-B, B + 1):
        for x1 in range(-B, B + 1):
            t = x0 * x1
            if t < 0:
                continue
            r = isqrt(t)
            if r * r != t:
                continue
            if x1 == 0:
                # Q2 forces x0 = x3 = 0; only +-[0,0,0,0,1] survive, on the lines
                continue
            for x2 in ({0} if r == 0 else {r, -r}):
                for x3 in range(-B, B + 1):
                    s = x0 * x0 + x3 * x3
                    if s % x1:
                        continue
                    x4 = s // x1
                    if abs(x4) > B:
                        continue
                    v = (x0, x1, x2, x3, x4)
                    g = 0
                    for c in v:
                        g = gcd(g, abs(c))
                    if g != 1:
                        continue
                    if 0 not in v:
                        s_total += 1
                        if x2 > 0 and x3 > 0:
                            s_pp += 1
                            if x0 > 0 and x1 > 0 and x4 > 0:
                                n_pos += 1
                    else:
                        z_deg += 1
                    canon.add(canonicalize(v).x)
    return CountBreakdown(
        B=B, n_uh=len(canon), n_pos=n_pos, s_total=s_total, s_pp=s_pp,
        z_degenerate=z_deg,
    )


def iter_positive_solutions(B: int) -> Iterator[tuple[int, int, int, int, int]]:
    """All-positive primitive solutions with max(x1, x4) <= B.

    Parametrizes Q1 = 0 by x0 = z0^2 z2, x1 = z1^2 z2, x2 = z0 z1 z2 with
    coprime z0, z1, then walks x3 and accepts when z1^2 z2 divides
    z0^4 z2^2 + x3^2 with quotient x4 <= B.  Independent of the fast counter.
    """
    if B < 1:
        return
    if B > ORACLE_CAP:
        raise SizeCapError(f"count_positive_oracle is capped at B = {ORACLE_CAP}")
    for z2 in range(1, B + 1):
        for z1 in range(1, isqrt(B // z2) + 1):
            m = z1 * z1 * z2
            x1 = m
            z0_cap = iroot4((B * m - 1) // (z2 * z2))
            for z0 in range(1, z0_cap + 1):
                if gcd(z0, z1) != 1:
                    continue
                c = z0**4 * z2 * z2
                x0 = z0 * z0 * z2
                x2 = z0 * z1 * z2
                x3_cap = isqrt(B * m - c)
                if x3_cap < 1:
                    continue
                x3s = np.arange(1, x3_cap + 1, dtype=np.int64)
                for x3 in x3s[(c + x3s * x3s) % m == 0].tolist():
                    x4 = (c + x3 * x3) // m
                    if gcd(gcd(gcd(x0, x1), gcd(x2, x3)), x4) == 1:
                        yield (x0, x1, x2, x3, x4)


def count_positive_oracle(B: int) -> int:
    """#{x in N^5 primitive: max(x1, x4) <= B, Q1(x) = Q2(x) = 0}."""
    return sum(1 for _ in iter_positive_solutions(B))


def _coprime_pairs(n: int) -> int:
    """#{(a, b) in [1, n]^2 : gcd(a, b) = 1} by Mobius inversion."""
    if n <= 0:
        return 0
    return int((mobius_sieve(n)[1:] * (n // np.arange(1, n + 1)) ** 2).sum())


@dataclass(frozen=True)
class DegenerateCount:
    B: int
    vectors: int
    points: int
    conic_ratio: float  # points / ((12/pi^2) * B)


def count_degenerate(B: int) -> DegenerateCount:
    """Primitive vectors on U of height <= B with some zero coordinate.

    Any zero coordinate forces x0 = 0 or x3 = 0.  The three families are
    enumerated exactly:
      * x0 = 0, x3 = 0: the two vectors +-(0,1,0,0,0);
      * x0 = 0, x3 != 0: +-(0,a^2,0,+-ab,b^2) for coprime a,b <= sqrt(B);
      * x3 = 0, x0 != 0: +-(z0^2 z1^2, z1^4, +-z0 z1^3, 0, z0^4) for coprime
        z0, z1 <= B^(1/4) (the exact divisibility-forced form of
        x1 x4 = x0^2, x2^2 = x0 x1).
    """
    if B < 1:
        raise SizeCapError("B >= 1 required")
    if B > DEGENERATE_CAP:
        raise SizeCapError(f"count_degenerate is capped at B = {DEGENERATE_CAP}")
    vectors = 2 + 4 * _coprime_pairs(isqrt(B)) + 4 * _coprime_pairs(iroot4(B))
    points = vectors // 2
    return DegenerateCount(
        B=B, vectors=vectors, points=points,
        conic_ratio=points / ((12 / math.pi**2) * B),
    )
