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

The counter walks the cells (v1, v2, y1, y2) in that order, grouped by
(v1, v2, y1); counting, enumeration and the partial sum of the main-term
coefficients Delta(n) share the walk.  A cell needs a root of -1 modulo
m = v2 y1^2: v2 squarefree and y1 odd, neither with a prime = 3 (mod 4),
which sieves to isqrt(B) list.  The parallel count deals every W-th
group to each of W shares, and the roots of -1 mod m are looked up once per
group.  With w = y0^2 y2 the equation reads w^2 + y3^2 = m y4, so
y3 = rho w (mod m) for a root rho, and each pair rho, m - rho gives one
progression y3 = s + k m, 0 <= k < K, over -Y3 <= y3 <= Y3
(``_progressions``).  Every coprimality condition on y3 and y4 is a
congruence on k, so the counter visits no candidate: it counts each
progression by floor sums, a Mobius sum over the squarefree d | y2 from one
divisor table per count, less one or two classes of k per prime of v1 v2,
merged by the CRT into k = c (mod Q), which holds (K - c + Q - 1) // Q of
the k.  One numpy pass counts all cells of a group, its terms ordered by
cell, then by d, then by progression.  The enumeration kernel
``_cell_blocks``, the counter's oracle, lays a cell's progressions out in
blocks of about 2^14 candidates and tests both conditions by lookup in
masks over rad(y2) and rad(v1 v2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, isqrt, prod
from typing import Iterator, Optional

import numpy as np

from .arith import (
    _tonelli_sqrt_minus_one, cell_density, factorize, is_squarefree, mobius_sieve, primes_up_to,
    sqrt_minus_one_count,  # noqa: F401  unused, but bench/tracer.py patches this name
    sqrts_minus_one, squarefree_part,
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

# int64 headroom of the kernels.  In every cell m = v2 y1^2 <= B (as
# v2^3 y1^2 <= B), lim = B m <= B^2, w = y0^2 y2 < sqrt(lim) <= B and
# Y3 = isqrt(lim - w^2) <= B.  So w^2 + y3^2 <= lim for |y3| <= Y3,
# rho w < m B, and the squares (s + 1)^2 in _isqrt are at most (B + 1)^2.
# A start lies in [-Y3, m], so |start| <= max(Y3, m) <= B.  The offsets i m
# of the n candidates of a block stay below n m <= _BLOCK B + 2 B^2: a block
# holds at most _BLOCK candidates plus one y0 row, and a row has at most
# 2 Y3/m + 1 candidates for each of fewer than m/2 kept roots (m > 2), or
# Y3 + 1 (m <= 2).  So every y3 of a block, before its absolute value, lies
# within B + _BLOCK B + 2 B^2 of 0.
assert (1 + _BLOCK) * TORSOR_CAP + 2 * TORSOR_CAP**2 < 2**63

# The floor sums stay lower.  The modulus Q of a term divides
# rad(y2) rad(v1 v2), so Q <= v1 v2 y2 <= sqrt(B), as (v1 v2 y2)^2 <= B, and
# so do the primes p of the cell.  A CRT step takes a class c (mod Q) to
# c + Q j < Q p, where j = (e + p - c mod p) u mod p comes from residues
# e, u < p through a product below 2 p^2 <= 2 B; the other products of two
# residues mod p are smaller.  K <= 2 Y3/m + 1 <= 2 B + 1, so the
# numerators K + Q - 1 - c stay below 2 B + 2 sqrt(B); t = (rho w - s) / m
# lies in [0, (m B + B) / m] and so below 2 B; and y4(0) = (w^2 + s^2) / m
# has w^2 + s^2 <= lim + m^2 <= 2 B^2, as |s| <= max(Y3, m) and
# w^2 + Y3^2 <= lim.
assert 2 * TORSOR_CAP + 2 * isqrt(TORSOR_CAP) < 2**63 and 2 * TORSOR_CAP**2 < 2**63


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


def _mod(a: np.ndarray, r) -> np.ndarray:
    """a % r, in [0, r), for an int64 array a of either sign and a positive
    modulus r (an int or an int64 array).  numpy's floor division by a
    scalar is much faster than its remainder (1.2 against 4.7 ns per value
    with numpy 2.4 on a 2-CPU Xeon), so this takes about half the time of
    ``a % r``."""
    return a - a // r * r


def _progressions(B: int, v1: int, v2: int, y1: int, m: int, roots, y2s):
    """The progressions of the cells (v1, v2, y1, y2), y2 in ``y2s``
    ascending: arrays (rows, y0, w, rw, start, K).

    The rows of a cell are the y0 with gcd(y0, v1 v2 y1) = 1 and
    w^2 < lim = B m, where w = y0^2 y2; rows[j] counts those of the j-th
    cell, and y0, w, rw, start and K hold the rows of every cell, cell
    after cell.  In a row the y3 are the 1 <= y3 <= Y3 = isqrt(lim - w^2)
    with y3 = rho w (mod m) for a root rho in ``roots``.  For m > 2 the
    roots come in pairs rho, m - rho, and y3 -> -y3 swaps their classes
    while it keeps the equation and every coprimality condition: so one
    rho of each pair, the one with 2 rho < m, stands for both, and its
    progression runs over -Y3 <= y3 <= Y3, where y3 = 0 never lies, as rho w
    is a unit mod m.  For m <= 2 the single root is its own negative and
    its progression runs over 1 <= y3 <= Y3.  Each is y3 = start + k m,
    0 <= k < K; rw = rho w, start and K have one column per kept root.
    """
    lim = B * m
    y2 = np.asarray(y2s, dtype=np.int64)
    top = _isqrt(_isqrt((lim - 1) // (y2 * y2)))  # fourth roots, non-increasing
    keep = np.ones(int(top[0]), dtype=bool)
    for p in factorize(v1 * v2 * y1):
        keep[p - 1::p] = False
    y0 = np.flatnonzero(keep) + 1
    # the rows of each cell are a prefix of those of the first
    rows = np.searchsorted(y0, top, side="right")
    ends = np.cumsum(rows)
    y0 = y0[np.arange(ends[-1]) - np.repeat(ends - rows, rows)]
    w = y0 * y0 * np.repeat(y2, rows)  # w^2 + y3^2 = m y4, and y3 = rho w (mod m)
    Y3 = _isqrt(lim - w * w)[:, None]  # >= 1, as w^2 < lim
    rw = w[:, None] * np.array([r for r in roots if m <= 2 or 2 * r < m], dtype=np.int64)
    low = -Y3 if m > 2 else 1
    start = low + _mod(rw - low, m)  # the least y3 >= low with y3 = rho w (mod m)
    K = (Y3 - start) // m + 1  # >= 0, as start < low + m
    return rows, y0, w, rw, start, K


def _cell_blocks(B: int, v1: int, v2: int, y1: int, y2: int, m: int, roots):
    """Every candidate (y0, y3) of the cell (v1, v2, y1, y2), in blocks.

    Yields arrays (y0, y3, ok) over the progressions of ``_progressions``,
    ordered by y0 and then by root, with y3 = |start + k m|, so that a
    progression over -Y3 <= y3 <= Y3 gives the y3 of both roots of its
    pair; ok marks the candidates with gcd(y3, y1 y2) = gcd(y4, v1 v2 y2) = 1,
    where y4 = (w^2 + y3^2) / m.  A block holds whole rows: at most _BLOCK
    candidates plus one row.  This is the enumeration kernel, and the
    counting kernel's oracle.

    The masks need only rad(y2) and rad(v1 v2).  y3 is a unit mod y1, as
    rho, y0 and y2 are.  A prime of y2 dividing y4 would divide
    y3^2 = m y4 - w^2, so gcd(y3, y2) = 1 already gives gcd(y4, y2) = 1.
    Hence y4 is computed only when rad(v1 v2) > 1.
    """
    _, y0, w, _, start, K = _progressions(B, v1, v2, y1, m, roots, [y2])
    if not len(y0):
        return
    c = w * w
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
        y3 = np.abs(np.repeat(start[a:b].ravel() - off * m, k) + np.arange(0, n * m, m))
        ok = np.ones(n, dtype=bool)
        if r3 > 1:
            ok &= mask3[_mod(y3, r3)]
        if r4 > 1:
            y4 = (np.repeat(c[a:b], T[a:b]) + y3 * y3) // m
            ok &= mask4[_mod(y4, r4)]
        yield np.repeat(y0[a:b], T[a:b]), y3, ok


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod the prime p, and inv[0] = 0."""
    return np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)


@lru_cache(maxsize=1)
def _divisor_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, d, mu): d[first[j]:first[j + 1]] are the squarefree divisors of
    j in [1, n], ascending, and mu their Mobius signs; from one Mobius sieve."""
    mu = mobius_sieve(n)
    d = np.flatnonzero(mu)
    k = n // d  # multiples of each d
    d, mu = np.repeat(d, k), np.repeat(mu[d], k)
    j = d * (np.arange(len(d)) - np.repeat(np.cumsum(k) - k, k) + 1)
    order = np.argsort(j, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(j, minlength=n + 1))))
    return first, d[order], mu[order]


def _y4_classes(v1: int, v2: int, m: int, y2, s, w):
    """The classes of k that gcd(y4, v1 v2) = 1 excludes from the
    progressions y3 = s + k m (s and w per progression, y2 per cell), as
    [(p, [e, ...], alive), ...].

    Each e has one entry per progression; alive (None for every cell)
    marks the cells where the classes of p apply.  p | y4 reads
    p | w^2 + y3^2 where p does not divide m, and
    y4(k) = y4(0) + 2 s k + m k^2 = 0 (mod p) where it does:
      - p | y2: nothing, as gcd(y3, y2) = 1 already keeps p from y4;
      - p = 3 (mod 4), p not dividing m: nothing, as p would divide w;
      - p = 1 (mod 4), p not dividing m: the two classes y3 = +-i w;
      - p = 2, not dividing m: the class y3 odd (w is odd);
      - odd p | m: the class k = -y4(0) (2 s)^-1, as s is a unit mod p;
      - p = 2 | m: nothing, as w and y3 = rho w (mod 2) are odd, so
        w^2 + y3^2 = 2 (mod 8) and y4 is odd.
    Every prime of m is 2 or 1 mod 4, as -1 is a square mod m, and divides
    no y2, as gcd(y2, v2 y1) = 1.
    """
    out = []
    for p in factorize(v1 * v2):
        if m % p:
            alive = y2 % p != 0
            alive = None if alive.all() else alive
            if p == 2:
                out.append((2, [(s + 1) & 1], alive))
            elif p % 4 == 1:
                u = pow(m, -1, p)
                iw = _mod(w * _tonelli_sqrt_minus_one(p), p)
                sp = _mod(s, p)
                out.append((p, [_mod((iw + p - sp) * u, p), _mod((2 * p - iw - sp) * u, p)],
                            alive))
        elif p > 2:
            y4 = (w * w + s * s) // m
            out.append((p, [_mod((p - _mod(y4, p)) * _inverses(p)[_mod(2 * s, p)], p)], None))
    return out


def _cell_counts(B: int, v1: int, v2: int, y1: int, m: int, roots, y2s) -> np.ndarray:
    """The number of points of each cell (v1, v2, y1, y2), y2 in ``y2s``.

    Counts the k in [0, K) of every progression y3 = s + k m of
    ``_progressions`` by inclusion-exclusion over classes of k, all cells in
    one pass; a progression over -Y3 <= y3 <= Y3 counts the points of both
    roots of its pair, as every condition depends on |y3| only.
    gcd(y3, y2) = 1 is a Mobius sum over the squarefree d | y2 of
    ``_divisor_table``: d | y3 iff k = t (mod d), where t = (rho w - s) / m
    >= 0, as s <= rho w is the least y3 = rho w (mod m) in the range.  Each
    term then takes at most one class of ``_y4_classes`` per prime, merged
    by CRT into one class k = c (mod Q), which holds (K - c + Q - 1) // Q of
    the k.  The terms run by cell, then by d, then by progression.
    """
    rows, y0, w, rw, s, K = _progressions(B, v1, v2, y1, m, roots, y2s)
    nroots = rw.shape[1]
    y2 = np.asarray(y2s, dtype=np.int64)
    # y3 = s + k m = m (k - t) (mod w), so d | y3 iff k = t (mod d), as d | w
    t = ((rw - s) // m).ravel()
    s, K, w = s.ravel(), K.ravel(), np.repeat(w, nroots)
    classes = _y4_classes(v1, v2, m, y2, s, w)
    first, dtab, mutab = _divisor_table(isqrt(B))
    nd = first[y2 + 1] - first[y2]  # divisors of each cell
    npc = rows * nroots  # progressions of each cell
    ne = np.repeat(npc, nd)  # progressions of each (cell, d)
    ent = np.arange(nd.sum()) + np.repeat(first[y2] - nd.cumsum() + nd, nd)  # table entries
    prog = np.arange(ne.sum()) + np.repeat(np.repeat(npc.cumsum() - npc, nd) - ne.cumsum() + ne, ne)
    d = np.repeat(dtab[ent], ne)
    nt = npc * nd  # terms of each cell
    # row i of the terms: the classes C[i] (mod Q[i]) with signs S[i]
    C, Q, S = _mod(t[prog], d)[None, :], d[None, :], np.repeat(mutab[ent], ne)[None, :]
    for p, E, alive in classes:
        u = _inverses(p)[_mod(Q, p)]
        cp = p - _mod(C, p)
        C = np.concatenate([C] + [C + Q * _mod((e[prog] + cp) * u, p) for e in E])
        Q = np.concatenate([Q] + [Q * p] * len(E))
        S = np.concatenate([S] + [-S if alive is None else -S * np.repeat(alive, nt)] * len(E))
    n = np.cumsum((S * ((K[prog] + Q - 1 - C) // Q)).sum(axis=0))
    return np.diff(np.concatenate(([0], n))[np.concatenate(([0], np.cumsum(nt)))])


def _count_groups(B: int, groups) -> int:
    """Number of points of the cells of the given groups of ``_groups``."""
    return sum(int(_cell_counts(B, v1, v2, y1, m, sqrts_minus_one(m),
                                _y2s(v2 * y1, y2_cap)).sum())
               for v1, v2, y1, m, y2_cap in groups)


# ---------------------------------------------------------------------------
# the cell walk

def _base_pairs(B: int):
    """(v2, [y1, ...]) by ascending v2 and y1: squarefree v2, v2^3 y1^2 <= B
    and -1 a square mod v2 y1^2, that is, y1 odd and neither v2 nor y1 with
    a prime = 3 (mod 4); two sieves to isqrt(B) find both."""
    n = isqrt(B)
    primes = primes_up_to(n)
    good = np.ones(n + 1, dtype=bool)  # no prime = 3 (mod 4)
    for p in primes[primes % 4 == 3].tolist():
        good[p::p] = False
    y1s = (np.flatnonzero(good[1::2]) * 2 + 1).tolist()
    v2s = [v2 for v2 in np.flatnonzero(good & (mobius_sieve(n) != 0)).tolist() if v2**3 <= B]
    return [(v2, y1s[:bisect_right(y1s, isqrt(B // v2**3))]) for v2 in v2s]


def _groups(B: int):
    """The cells of the walk grouped by (v1, v2, y1): every (v1, v2, y1, m,
    y2_cap) with squarefree v2, a root of -1 modulo m = v2 y1^2 and
    y2_cap >= 1 the largest y2 with v1^4 v2^3 y1^2 y2^2 <= B; in the order
    (v1, v2, y1).  The y2 of its cells are ``_y2s(v2 y1, y2_cap)``; the
    roots, ``sqrts_minus_one(m)``, are looked up by the process counting it."""
    pairs = _base_pairs(B)
    v1 = 1
    while v1**4 <= B:
        b1 = B // v1**4
        for v2, y1s in pairs:
            if v2**3 > b1:
                break
            for y1 in y1s:
                y2_cap = isqrt(b1 // (v2**3 * y1 * y1))
                if not y2_cap:
                    break
                yield v1, v2, y1, v2 * y1 * y1, y2_cap
        v1 += 1


def _y2s(n: int, y2_cap: int) -> list[int]:
    """The y2 in [1, y2_cap] with gcd(y2, n) = 1, ascending."""
    return [y2 for y2 in range(1, y2_cap + 1) if gcd(y2, n) == 1]


def _cells(B: int):
    """Every cell (v1, v2, y1, y2, m) with v1^4 v2^3 y1^2 y2^2 <= B,
    squarefree v2, a root of -1 modulo m = v2 y1^2 and gcd(y2, v2 y1) = 1,
    in the order (v1, v2, y1, y2)."""
    return ((v1, v2, y1, y2, m) for v1, v2, y1, m, y2_cap in _groups(B)
            for y2 in _y2s(v2 * y1, y2_cap))


def count_torsor(B: int, workers: Optional[int] = None) -> int:
    """N(Q1, Q2; B) computed on the auxiliary side.

    ``workers`` = W > 1 deals the groups of the walk out once, every W-th
    group to each of W shares: the calling process counts the last share
    while a fork pool of W - 1 processes counts the others.  The result is
    an exact integer sum and therefore identical for every partition.
    """
    if B < 1:
        return 0
    if B > TORSOR_CAP:
        raise SizeCapError(f"count_torsor is capped at B = {TORSOR_CAP}")
    workers = workers or 1
    groups = list(_groups(B))
    if workers == 1:
        return _count_groups(B, groups)
    import multiprocessing as mp

    # the costliest groups (small v1 and y1, many y2) come first in the walk,
    # so dealing them out in turn evens the shares (at B = 10^7 the first half
    # of the 1,145 groups takes 66-69% of the time).  A worker counts the first
    # group, (1, 1, 1), whose arrays are the largest (2.7 MB at 10^7).
    shares = [groups[i::workers] for i in range(workers)]
    _divisor_table(isqrt(B))  # built before the fork, so every worker inherits it
    with mp.get_context("fork").Pool(workers - 1) as pool:
        rest = pool.map_async(partial(_count_groups, B), shares[:-1])
        return _count_groups(B, shares[-1]) + sum(rest.get())


def iter_torsor_points(B: int) -> Iterator[TorsorPoint]:
    """Every point counted by ``count_torsor`` exactly once, ordered
    lexicographically by (v1, v2, y1, y2, y0, y3).  Streams: besides the
    groups of the walk, memory stays bounded by one block of the kernel."""
    if B > TORSOR_CAP:
        raise SizeCapError(f"enumeration is capped at B = {TORSOR_CAP}")
    for v1, v2, y1, m, y2_cap in _groups(B):
        roots = sqrts_minus_one(m)
        for y2 in _y2s(v2 * y1, y2_cap):
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
    for v1, v2, y1, y2, _ in _cells(bound):
        w = cell_density(v1, v2, y1, y2)
        total += float(w) / (v2 ** 0.25 * math.sqrt(y1) * math.sqrt(y2))
    return total
