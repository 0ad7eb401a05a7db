"""Bijection between positive primitive solutions and the auxiliary variety.

A positive primitive solution of Q1 = Q2 = 0 factors uniquely through seven
positive integers (v1, v2, y0, y1, y2, y3, y4) satisfying

    y0^4 y2^2 - v2 y1^2 y4 + y3^2 = 0                       (the equation)
    gcd(y0, v1 v2 y1) = gcd(y3, y1 y2) = gcd(y4, v1 v2 y2) = 1
    v2 squarefree,  gcd(y2, v2 y1) = 1

via x0 = v1^2 v2 y0^2 y2^2, x1 = v1^4 v2^3 y1^2 y2^2, x2 = v1^3 v2^2 y0 y1 y2^2,
x3 = v1^2 v2 y2 y3, x4 = y4.  Height <= B becomes the pair of inequalities
v1^4 v2^3 y1^2 y2^2 <= B and y0^4 y2^2 + y3^2 <= B v2 y1^2, which the counter
enumerates directly.  The map and its inverse are implemented exactly.

The counter walks the cells (v1, v2, y1, y2) in the order (v1, v2, y1, y2);
counting, enumeration and the partial sum of the main-term coefficients
Delta(n) share that one walk, and the parallel count hands out chunks of
the walk, in walk order, to its workers.  In a cell, with m = v2 y1^2 and
w = y0^2 y2, the equation reads w^2 + y3^2 = m y4, so y3 = rho w (mod m)
for a square root rho of -1 modulo m: for each y0 and rho the y3 form one
arithmetic progression of difference m.  One numpy kernel lays all
progressions of a cell out as a ragged arange (``np.repeat`` with ``cumsum``
offsets), in blocks of about 2^14 candidates so that memory stays bounded,
and tests both coprimality conditions by lookup in masks over the radicals
rad(y2) and rad(v1 v2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import gcd, isqrt, prod
from typing import Iterator, Optional

import numpy as np

from .arith import (
    cell_density, factorize, iroot4, is_squarefree, sqrt_minus_one_count, sqrts_minus_one,
    squarefree_part,
)
from .errors import NotInDomainError, SizeCapError, TorsorValidationError

TORSOR_CAP = 10**9


@dataclass(frozen=True, order=True)
class TorsorPoint:
    v1: int
    v2: int
    y0: int
    y1: int
    y2: int
    y3: int
    y4: int

    def as_tuple(self):
        return (self.v1, self.v2, self.y0, self.y1, self.y2, self.y3, self.y4)


def validate(t) -> TorsorPoint:
    """Check all membership conditions; failures are reported by name."""
    v1, v2, y0, y1, y2, y3, y4 = (int(c) for c in t)
    failures = []
    if min(v1, v2, y0, y1, y2, y3, y4) < 1:
        failures.append("positivity")
    else:
        if y0**4 * y2**2 - v2 * y1**2 * y4 + y3**2 != 0:
            failures.append("equation")
        if not is_squarefree(v2):
            failures.append("squarefree")
        if (
            gcd(y0, v1 * v2 * y1) != 1
            or gcd(y3, y1 * y2) != 1
            or gcd(y4, v1 * v2 * y2) != 1
            or gcd(y2, v2 * y1) != 1
        ):
            failures.append("coprimality")
    if failures:
        raise TorsorValidationError(failures)
    return TorsorPoint(v1, v2, y0, y1, y2, y3, y4)


def to_surface(t: TorsorPoint):
    """The forward substitution; the image is primitive, positive and on X."""
    from .surface import SurfacePoint, eval_forms

    v1, v2, y0, y1, y2, y3, y4 = t.as_tuple()
    x = (
        v1**2 * v2 * y0**2 * y2**2,
        v1**4 * v2**3 * y1**2 * y2**2,
        v1**3 * v2**2 * y0 * y1 * y2**2,
        v1**2 * v2 * y2 * y3,
        y4,
    )
    assert eval_forms(x) == (0, 0), "forward image left the surface (bug)"
    g = 0
    for c in x:
        g = gcd(g, c)
    assert g == 1, "forward image is not primitive (bug)"
    return SurfacePoint(x)


def _exact_sqrt(n: int, what: str) -> int:
    r = isqrt(n)
    if r * r != n:
        raise NotInDomainError(f"{what} = {n} is not a perfect square")
    return r


def from_surface(p) -> TorsorPoint:
    """Invert the substitution for an all-positive primitive point on X.

    Chain: z2 = gcd(x0, x1) splits Q1; v2 is the squarefree part of z2;
    then x3 = v2 y2' y3', z1 = v2 y1', v1 = gcd(y1', y3'), y2' = v1 y2.
    Any failed exactness step means the input violates the preconditions.
    """
    from .surface import eval_forms

    coords = p.x if hasattr(p, "x") else tuple(p)
    x0, x1, x2, x3, x4 = (int(c) for c in coords)
    if min(x0, x1, x2, x3, x4) < 1:
        raise NotInDomainError("all coordinates must be positive")
    if eval_forms((x0, x1, x2, x3, x4)) != (0, 0):
        raise NotInDomainError("point is not on the surface")
    if gcd(gcd(gcd(x0, x1), gcd(x2, x3)), x4) != 1:
        raise NotInDomainError("point is not primitive")

    z2 = gcd(x0, x1)
    z0 = _exact_sqrt(x0 // z2, "x0/gcd(x0,x1)")
    z1 = _exact_sqrt(x1 // z2, "x1/gcd(x0,x1)")
    v2 = squarefree_part(z2)
    y2p = _exact_sqrt(z2 // v2, "square part of gcd(x0,x1)")
    if x3 % (v2 * y2p):
        raise NotInDomainError("v2*y2' does not divide x3")
    y3p = x3 // (v2 * y2p)
    if z1 % v2:
        raise NotInDomainError("v2 does not divide z1")
    y1p = z1 // v2
    v1 = gcd(y1p, y3p)
    if y2p % v1:
        raise NotInDomainError("v1 does not divide y2'")
    return validate((v1, v2, z0, y1p // v1, y2p // v1, y3p // v1, x4))


# ---------------------------------------------------------------------------
# the cell kernel

# Candidates per block of the kernel; bounds its memory whatever the cell.
_BLOCK = 1 << 14

# int64 headroom of the kernel.  In every cell m = v2 y1^2 <= B (as
# v2^3 y1^2 <= B), lim = B m <= B^2, w = y0^2 y2 < sqrt(lim) <= B and
# y3 <= isqrt(lim) <= B.  So w^2 + y3^2 <= lim, rho w < m B, and the squares
# (s + 1)^2 in _isqrt are at most (B + 1)^2.  The offsets i m of the n
# candidates of a block stay below n m <= _BLOCK B + 2 B^2: a block holds at
# most _BLOCK candidates plus one y0 row, and a row has at most Y3/m + 1
# candidates for each of fewer than m roots.
assert _BLOCK * TORSOR_CAP + 2 * TORSOR_CAP**2 < 2**63


def _coprime_mask(n: int) -> tuple[int, np.ndarray]:
    """(r, mask): r = rad(n), and mask[j] is true iff gcd(j, n) = 1 (0 <= j < r)."""
    primes = factorize(n)
    r = prod(primes)
    mask = np.ones(r, dtype=bool)
    for p in primes:
        mask[::p] = False
    return r, mask


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of an int64 array with values in [0, 10^18]:
    the float root is off by at most one there, so one correction step each
    way makes it exact."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _mod(a: np.ndarray, r: int) -> np.ndarray:
    """a % r for a non-negative int64 array.  numpy's floor division by a
    scalar is much faster than its remainder (1.2 against 4.7 ns per value
    with numpy 2.4 on a 2-CPU Xeon), so this takes about half the time of
    ``a % r``."""
    return a - a // r * r


def _cell_blocks(B: int, v1: int, v2: int, y1: int, y2: int, m: int, roots):
    """Every candidate (y0, y3) of the cell (v1, v2, y1, y2), in blocks.

    The rows are the y0 with gcd(y0, v1 v2 y1) = 1 and w^2 < lim = B m,
    where w = y0^2 y2.  For each row and each root rho of -1 mod m, the
    y3 = rho w (mod m) with 1 <= y3 <= isqrt(lim - w^2) form one
    progression.  Yields arrays (y0, y3, ok) ordered by y0 and then by root;
    ok marks the candidates with gcd(y3, y1 y2) = gcd(y4, v1 v2 y2) = 1,
    where y4 = (w^2 + y3^2) / m.  A block holds whole rows: at most _BLOCK
    candidates plus one row.

    The masks need only rad(y2) and rad(v1 v2).  y3 is a unit mod y1, as
    rho, y0 and y2 are.  A prime of y2 dividing y4 would divide
    y3^2 = m y4 - w^2, so gcd(y3, y2) = 1 already gives gcd(y4, y2) = 1.
    Hence y4 is computed only when rad(v1 v2) > 1.
    """
    lim = B * m
    y0 = np.arange(1, iroot4((lim - 1) // (y2 * y2)) + 1, dtype=np.int64)
    y0 = y0[np.gcd(y0, v1 * v2 * y1) == 1]
    if not len(y0):
        return
    w = y0 * y0 * y2  # w^2 + y3^2 = m y4, and y3 = rho w (mod m)
    c = w * w
    Y3 = _isqrt(lim - c)
    start = _mod(w[:, None] * np.asarray(roots, dtype=np.int64), m)
    start[start == 0] = m
    K = (Y3[:, None] - start) // m + 1  # >= 0, as 1 <= start <= m and Y3 >= 1
    T = K.sum(axis=1)
    ends = np.cumsum(T)
    bid = (ends - T) // _BLOCK
    cuts = (np.flatnonzero(bid[1:] != bid[:-1]) + 1).tolist()
    r3, mask3 = _coprime_mask(y2)
    r4, mask4 = _coprime_mask(v1 * v2)
    for a, b in zip([0, *cuts], [*cuts, len(y0)]):
        k = K[a:b].ravel()
        off = np.cumsum(k) - k
        n = int(off[-1] + k[-1])
        y3 = np.repeat(start[a:b].ravel() - off * m, k) + np.arange(0, n * m, m)
        ok = np.ones(n, dtype=bool)
        if r3 > 1:
            ok &= mask3[_mod(y3, r3)]
        if r4 > 1:
            y4 = (np.repeat(c[a:b], T[a:b]) + y3 * y3) // m
            ok &= mask4[_mod(y4, r4)]
        yield np.repeat(y0[a:b], T[a:b]), y3, ok


def _count_cell(B: int, cell) -> int:
    """Number of points of one cell (v1, v2, y1, y2, m, roots) of the walk."""
    return sum(int(np.count_nonzero(ok)) for *_, ok in _cell_blocks(B, *cell))


# ---------------------------------------------------------------------------
# the cell walk

def _base_pairs(B: int):
    """(v2, [(y1, m, roots), ...]) by ascending v2 and y1: squarefree v2,
    v2^3 y1^2 <= B, and -1 a square modulo m = v2 y1^2."""
    out = []
    v2 = 1
    while v2**3 <= B:
        if is_squarefree(v2):
            row = []
            for y1 in range(1, isqrt(B // v2**3) + 1):
                m = v2 * y1 * y1
                if sqrt_minus_one_count(m):
                    row.append((y1, m, tuple(sqrts_minus_one(m))))
            out.append((v2, row))
        v2 += 1
    return out


def _cells(B: int):
    """Every cell (v1, v2, y1, y2, m, roots) with v1^4 v2^3 y1^2 y2^2 <= B,
    squarefree v2, a root of -1 modulo m = v2 y1^2 and gcd(y2, v2 y1) = 1,
    in the order (v1, v2, y1, y2)."""
    pairs = _base_pairs(B)
    v1 = 1
    while v1**4 <= B:
        b1 = B // v1**4
        for v2, row in pairs:
            if v2**3 > b1:
                break
            for y1, m, roots in row:
                y2_cap = isqrt(b1 // (v2**3 * y1 * y1))
                if not y2_cap:
                    break
                for y2 in range(1, y2_cap + 1):
                    if gcd(y2, v2 * y1) == 1:
                        yield v1, v2, y1, y2, m, roots
        v1 += 1


# Cells per task of the fork pool, which takes its tasks in walk order.  A
# cell has about B^(3/4) m^(-1/4) y2^(-1/2) candidates per root, whatever
# v1, and the blocks of large v1 hold only cells of small m and y2, so the
# costliest chunks come last: at B = 10^7 the 180 chunks of the walk hold
# 28% of the candidates in their first half and at most 3.4% each, which
# bounds the time a worker waits for the last one.
_CHUNK = 64


def count_torsor(B: int, workers: Optional[int] = None) -> int:
    """N(Q1, Q2; B) computed on the auxiliary side.

    ``workers`` > 1 hands out chunks of the walk, in walk order, to a fork
    pool; the result is an exact integer sum and therefore identical for
    every partition.
    """
    if B < 1:
        return 0
    if B > TORSOR_CAP:
        raise SizeCapError(f"count_torsor is capped at B = {TORSOR_CAP}")
    workers = workers or 1
    count = partial(_count_cell, B)
    if workers == 1:
        return sum(map(count, _cells(B)))
    import multiprocessing as mp

    # imap feeds the walk to the workers through a pipe, so the parent holds
    # at most a pipe's worth of it, never the whole walk
    with mp.get_context("fork").Pool(workers) as pool:
        return sum(pool.imap(count, _cells(B), chunksize=_CHUNK))


def iter_torsor_points(B: int) -> Iterator[TorsorPoint]:
    """Every point counted by ``count_torsor`` exactly once, ordered
    lexicographically by (v1, v2, y1, y2, y0, y3).  Streams: besides the
    root lists of the walk, memory stays bounded by one block of the kernel."""
    if B > TORSOR_CAP:
        raise SizeCapError(f"enumeration is capped at B = {TORSOR_CAP}")
    for v1, v2, y1, y2, m, roots in _cells(B):
        for y0, y3, ok in _cell_blocks(B, v1, v2, y1, y2, m, roots):
            order = np.lexsort((y3, y0))
            order = order[ok[order]]
            y0, y3 = y0[order], y3[order]
            w = y0 * y0 * y2
            y4 = (w * w + y3 * y3) // m
            for a, b, d in zip(y0.tolist(), y3.tolist(), y4.tolist()):
                yield TorsorPoint(v1, v2, a, y1, y2, b, d)


def main_term_partial_sum(bound: int) -> float:
    """sum of Delta(n) for n <= bound: every cell of the walk weighted by
    cell_density / (v2^(1/4) y1^(1/2) y2^(1/2)), summed in the walk's order.
    The per-n divisor walk ``arith.main_term_coefficient`` is its oracle."""
    total = 0.0
    for v1, v2, y1, y2, _, _ in _cells(bound):
        w = cell_density(v1, v2, y1, y2)
        total += float(w) / (v2 ** 0.25 * math.sqrt(y1) * math.sqrt(y2))
    return total
