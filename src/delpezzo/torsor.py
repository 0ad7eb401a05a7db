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
which one sieve to isqrt(B) lists (``arith._base_pair_lists``; the beta
box of ``arith.linear_term_constant`` takes its pairs from it too).  The
parallel count deals every W-th group to each of W shares; a share finds the
roots of -1 mod m once per m, and prepares each group once for both kernels
(``_prepare``).  With w = y0^2 y2 the equation reads w^2 + y3^2 = m y4, so
y3 = rho w (mod m) for a root rho, and each pair rho, m - rho gives one
progression y3 = rho w + (k - t) m, 0 <= k < K, over -Y3 <= y3 <= Y3
(``_progressions``).  Every coprimality condition on y3 and y4 is a
congruence on k, so the counter visits no candidate: it counts each
progression by floor sums, a Mobius sum over the squarefree d | y2
(k = t mod d) from one divisor table per count, less one or two classes
k = t + a + b w (mod p) per prime p of v1 v2, a and b fixed by p and rho
and found once per group, merged by the CRT into k = c (mod Q), which holds
(K - c + Q - 1) // Q of the k.  The term of d = 1 with no class holds all K
of the k, so it is added as the sum of K and never built (58% of the terms
at B = 10^7 and 10^8).  One numpy pass counts all cells of a group and returns their exact
total.  The enumeration kernel ``_cell_blocks``, the counter's oracle, lays
a cell's progressions out in blocks of about 2^14 candidates and tests both
conditions by lookup in masks over rad(y2) and rad(v1 v2).
"""

from __future__ import annotations

import math
import operator
import os
import signal
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Iterator, Optional

import numpy as np

from .arith import (
    _base_pair_lists, _cell_factor, _group_factors, _spf_table, _tonelli_sqrt_minus_one,
    euler_phi, factorize, is_squarefree, mobius_sieve, sqrts_minus_one, squarefree_part,
    sqrt_minus_one_count,  # noqa: F401  unused, but bench/tracer.py patches this name
)
from .errors import DelPezzoError, NotInDomainError, SizeCapError, TorsorValidationError
from .surface import SurfacePoint, eval_forms

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
    """Check all membership conditions; failures are reported by name.  A
    coordinate that is not an integer (int or numpy integer) fails
    "integrality" before any other condition is checked.  A v2 that cannot be
    factored raises its SizeCapError only if no other condition fails."""
    try:
        v1, v2, y0, y1, y2, y3, y4 = map(operator.index, t)
    except TypeError:
        raise TorsorValidationError(["integrality"]) from None
    failures, undecided = [], None
    if min(v1, v2, y0, y1, y2, y3, y4) < 1:
        failures.append("positivity")
    else:
        if y0**4 * y2**2 - v2 * y1**2 * y4 + y3**2 != 0:
            failures.append("equation")
        try:
            if not is_squarefree(v2):
                failures.append("squarefree")
        except SizeCapError as exc:
            undecided = exc
        if (
            gcd(y0, v1 * v2 * y1) != 1
            or gcd(y3, y1 * y2) != 1
            or gcd(y4, v1 * v2 * y2) != 1
            or gcd(y2, v2 * y1) != 1
        ):
            failures.append("coprimality")
    if failures or undecided:
        raise TorsorValidationError(failures) if failures else undecided
    return TorsorPoint(v1, v2, y0, y1, y2, y3, y4)


def to_surface(t: TorsorPoint):
    """The forward substitution; the image is primitive, positive and on X."""
    v1, v2, y0, y1, y2, y3, y4 = t.as_tuple()
    x = (
        v1**2 * v2 * y0**2 * y2**2,
        v1**4 * v2**3 * y1**2 * y2**2,
        v1**3 * v2**2 * y0 * y1 * y2**2,
        v1**2 * v2 * y2 * y3,
        y4,
    )
    assert eval_forms(x) == (0, 0), "forward image left the surface (bug)"
    assert gcd(*x) == 1, "forward image is not primitive (bug)"
    return SurfacePoint(x)


def from_surface(p) -> TorsorPoint:
    """Invert the substitution for an all-positive primitive point on X.

    Chain: z2 = gcd(x0, x1) splits Q1; v2 is the squarefree part of z2;
    then x3 = v2 y2' y3', z1 = v2 y1', v1 = gcd(y1', y3'), y2' = v1 y2.
    A point that passes the three checks makes every step exact (asserted):
    x0 x1 = x2^2 makes x0/z2 and x1/z2 coprime squares; Q2 gives
    v2 y2'^2 | x3^2, so v2 y2' | x3; a prime of v2 not dividing z1 would
    divide every coordinate; and p^a | v1 gives p^a | y2' through
    v2 y1'^2 x4 = z0^4 y2'^2 + y3'^2, as p divides z1 and so not z0.
    """
    coords = p.x if hasattr(p, "x") else tuple(p)
    try:
        x0, x1, x2, x3, x4 = map(operator.index, coords)
    except TypeError:
        raise NotInDomainError("coordinates must be integers") from None
    if min(x0, x1, x2, x3, x4) < 1:
        raise NotInDomainError("all coordinates must be positive")
    if eval_forms((x0, x1, x2, x3, x4)) != (0, 0):
        raise NotInDomainError("point is not on the surface")
    if gcd(x0, x1, x2, x3, x4) != 1:
        raise NotInDomainError("point is not primitive")

    z2 = gcd(x0, x1)
    z0, z1 = isqrt(x0 // z2), isqrt(x1 // z2)
    v2 = squarefree_part(z2)
    y2p = isqrt(z2 // v2)
    assert z0 * z0 * z2 == x0 and z1 * z1 * z2 == x1 and v2 * y2p * y2p == z2
    assert x3 % (v2 * y2p) == 0 and z1 % v2 == 0
    y3p = x3 // (v2 * y2p)
    y1p = z1 // v2
    v1 = gcd(y1p, y3p)
    assert y2p % v1 == 0
    return validate((v1, v2, z0, y1p // v1, y2p // v1, y3p // v1, x4))


# ---------------------------------------------------------------------------
# the cell kernel

# Candidates per block of the kernel; bounds its memory whatever the cell.
_BLOCK = 1 << 14

# int64 headroom of the kernels.  In every cell m = v2 y1^2 <= B (as
# v2^3 y1^2 <= B), lim = B m <= B^2, w = y0^2 y2 < sqrt(lim) <= B and
# Y3 = isqrt(lim - w^2) <= B.  So w^2 + y3^2 <= lim for |y3| <= Y3, the
# fourth powers y0^4 of _progressions are below lim, rho w < m B, and the
# squares s^2 in _isqrt are at most (B + 1)^2.
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
# residues mod p are smaller.  K <= 2 Y3/m + 1 <= 2 B + 1, so the numerators
# K + Q - 1 - c stay below 2 B + 2 sqrt(B).  t = (rho w - start) / m lies in
# [0, (m B + B) / m] and so below 2 B, and a class k = t + a + b w (mod p)
# of _y4_classes has a <= 1 and b < p <= isqrt(B), so with w < B,
# a + b w + t < B^(3/2) + 2 B + 1, the largest of these bounds.
assert TORSOR_CAP * isqrt(TORSOR_CAP) + 2 * TORSOR_CAP + 1 < 2**63

# So do the sums of a group's terms.  A term counts at most the K of its
# progression, and a progression has at most 3^6 = 729 terms: each prime of
# y2 doubles them, each of v1 v2 at most triples them, and
# rad(y2) rad(v1 v2) <= v1 v2 y2 <= sqrt(B) < 2*3*5*7*11*13*17 leaves room
# for at most 6 primes, a shared one counted twice (2 * 3 <= 3^2).  A row
# has at most 4 kept roots, as at most 3 odd primes = 1 (mod 4) divide
# v2 y1 <= sqrt(B), and so K summed over the row is at most
# 4 (2 Y3/m + 1) <= 12 sqrt(B/m).  The rows y0^4 y2^2 < B m of a group
# number at most (B m)^(1/4) sum_{y2 <= sqrt(B)} y2^(-1/2) <= 2 B^(1/2) m^(1/4).
# Together K sums to at most 24 B over a group, and the terms to 729 times
# that.
assert 729 * 24 * TORSOR_CAP < 2**63


def _coprime_mask(primes) -> tuple[int, np.ndarray]:
    """(r, mask): r = prod(primes), and mask[j] is true iff j is prime to r (0 <= j < r)."""
    r = prod(primes)
    mask = np.ones(r, dtype=bool)
    for p in primes:
        mask[::p] = False
    return r, mask


def _isqrt(n: np.ndarray, top: int = 10**18) -> np.ndarray:
    """Exact floor square roots of an int64 array with values in [0, top <= 10^18]:
    below 2^52 the float root floors exactly, as sqrt(s^2 - 1) lies 1/(2s) below
    s, farther than s 2^-53; above, one correction step each way makes it exact."""
    s = np.sqrt(n).astype(np.int64)
    if top < 2**52:
        return s
    r = n - s * s
    s -= r < 0
    s += r > 2 * s  # n >= (s + 1)^2
    return s


def _mod(a: np.ndarray, r: int) -> np.ndarray:
    """a % r, in [0, r), for an int64 array a of either sign and a positive
    int r.  numpy's floor division by a scalar is much faster than its
    remainder (1.2 against 4.7 ns per value with numpy 2.4 on a 2-CPU Xeon),
    so this takes about half the time of ``a % r``.  (By an array of moduli,
    ``%`` is the faster.)"""
    return a - a // r * r


def _runs(T) -> list[tuple[int, int]]:
    """The runs [a, b) that cut the counts T, in order, into blocks of whole
    entries: a block opens where the running count before an entry passes a
    multiple of _BLOCK (read at call time), so it holds at most _BLOCK plus
    one entry's count, the bound the headroom asserts above rely on."""
    bid = (np.cumsum(T) - T) // _BLOCK
    cuts = (np.flatnonzero(bid[1:] != bid[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(T)]))


_Group = namedtuple("_Group", "m primes classed kept")


def _prepare(v1: int, v2: int, y1: int, m: int, roots) -> _Group:
    """The group (v1, v2, y1) as both kernels use it, once for all its cells:
    m = v2 y1^2, the primes of v1 v2 y1, those of v1 v2 (classed, as
    gcd(y4, v1 v2) = 1 excludes classes of k for them) and the kept roots of
    -1 mod m, from ``roots``.  For m > 2 the roots pair up as rho, m - rho,
    which y3 -> -y3 swaps while it keeps every condition, so the rho with
    2 rho < m is kept for both; for m <= 2 the single root is kept."""
    primes = list(factorize(v1 * v2 * y1))
    return _Group(m, primes, [p for p in primes if v1 * v2 % p == 0],
                  [r for r in roots if m <= 2 or 2 * r < m])


def _rows(B: int, primes, m: int, y2s):
    """(y0, rows): the y0 >= 1 prime to ``primes`` with y0^4 y2^2 < B m for the
    first y2 of the ascending int64 array ``y2s``, and rows[j] the number of
    them, the first ones, that hold it for the j-th."""
    lim = B * m
    keep = np.ones(isqrt(isqrt((lim - 1) // y2s[0]**2)), dtype=bool)
    for p in primes:
        keep[p - 1::p] = False
    y0 = keep.nonzero()[0] + 1
    if len(y2s) == 1:
        return y0, np.array(y0.shape)
    return y0, (y0**4).searchsorted((lim - 1) // (y2s * y2s), side="right")


def _progressions(B: int, g: _Group, y2s):
    """The progressions of the cells (v1, v2, y1, y2) of the group g, y2 in
    ``y2s`` ascending: (rows, y0, w, t, start, K).

    The rows of a cell are the y0 with gcd(y0, v1 v2 y1) = 1 and
    w^2 < lim = B m, where w = y0^2 y2; rows[j] counts those of the j-th
    cell, and y0, w, t, start and K hold the rows of every cell, cell
    after cell.  In a row the y3 are the 1 <= y3 <= Y3 = isqrt(lim - w^2)
    with y3 = rho w (mod m) for a root rho of -1.  The progression of a kept
    root (``_prepare``) runs over -Y3 <= y3 <= Y3 for m > 2, standing for its
    pair (y3 = 0 never lies there, as rho w is a unit mod m), and over
    1 <= y3 <= Y3 for m <= 2.  Each is y3 = start + k m, 0 <= k < K, and
    rho w = start + t m; t, start and K have a row per kept root and a column per y0 row.
    """
    lim, m, y2 = B * g.m, g.m, np.array(y2s)
    y0, rows = _rows(B, g.primes, m, y2)
    if len(y2s) > 1:
        y0 = y0.take(np.arange(rows.sum()) - (rows.cumsum() - rows).repeat(rows))
    w = y0 * y0 * y2.repeat(rows)
    # w^2 + y3^2 = m y4, and y3 = rho w (mod m); one row per kept root, so
    # that the arrays of a row broadcast along the last axis
    Y3 = _isqrt(lim - w * w, lim)  # >= 1, as w^2 < lim
    rw = np.multiply.outer(g.kept, w)
    t = (rw + Y3) // m if m > 2 else (rw - 1) // m
    start = rw - t * m  # the least y3 >= low = -Y3 (1 if m <= 2) with y3 = rho w (mod m)
    K = (Y3 - start) // m + 1  # >= 0, as start < low + m
    return rows, y0, w, t, start, K


def _cell_blocks(B: int, g: _Group, y2s):
    """Every candidate (y0, y3) of the cells (v1, v2, y1, y2), y2 in ``y2s``,
    of the group g, by cell and in blocks of whole rows (``_runs``).

    Yields (y2, y0, y3, y4, ok) over the progressions of ``_progressions``,
    ordered by y0 and then by root, with y3 = |start + k m|, so that a
    progression over -Y3 <= y3 <= Y3 gives the y3 of both roots of its
    pair, and y4 = (w^2 + y3^2) / m; ok marks the candidates with
    gcd(y3, y1 y2) = gcd(y4, v1 v2 y2) = 1.  This is the enumeration kernel,
    and the counting kernel's oracle: it tests y4 itself, without ``_y4_classes``.

    The masks need only rad(y2) and rad(v1 v2).  y3 is a unit mod y1, as
    rho, y0 and y2 are.  A prime of y2 dividing y4 would divide
    y3^2 = m y4 - w^2, so gcd(y3, y2) = 1 already gives gcd(y4, y2) = 1.
    """
    m, (r4, mask4) = g.m, _coprime_mask(g.classed)
    for y2 in y2s:
        _, y0, w, _, start, K = _progressions(B, g, [y2])
        if not len(y0):
            continue
        start, K, T = start.T, K.T, K.sum(axis=0)  # one row per y0 row
        r3, mask3 = _coprime_mask(factorize(y2))
        for a, b in _runs(T):
            k = K[a:b].ravel()
            off = np.cumsum(k) - k
            n = int(off[-1] + k[-1])
            y3 = np.abs(np.repeat(start[a:b].ravel() - off * m, k) + np.arange(0, n * m, m))
            y4 = (np.repeat(w[a:b] * w[a:b], T[a:b]) + y3 * y3) // m
            yield y2, np.repeat(y0[a:b], T[a:b]), y3, y4, mask3[_mod(y3, r3)] & mask4[_mod(y4, r4)]


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod the prime p, and inv[0] = 0.  Unbounded, but only
    primes of v1 v2 reach it: 15 in a count at 10^7, 29 (up to 281) at 10^8."""
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


@lru_cache(maxsize=1)
def _cell_weights(n: int) -> tuple[list, list]:
    """The sums of 2^omega(j) / sqrt(j) (2^omega(j) squarefree d | j) and of
    1 / sqrt(j) over j in [1, J], as lists indexed by J in [0, n]."""
    first, j = _divisor_table(n)[0], np.arange(n + 1)
    root = np.sqrt(np.maximum(j, 1))
    return np.cumsum(np.diff(first) / root).tolist(), np.cumsum((j > 0) / root).tolist()


def _y4_classes(g: _Group) -> list:
    """The classes of k that gcd(y4, v1 v2) = 1 excludes from the
    progressions of the group g, as [(p, a, b), ...] over the primes p of
    v1 v2 that have any: each class is k = t + a + b w (mod p), and a and b,
    (classes of p, kept roots, 1) arrays, depend only on p, m and the root.

    As y3 = rho w + (k - t) m, y4(k) = w^2 (1 + rho^2)/m + 2 rho w (k - t)
    + m (k - t)^2, and p | y4 reads p | w^2 + y3^2 where p does not divide m:
      - p | y2: nothing, as gcd(y3, y2) = 1 already keeps p from y4
        (so the classes apply only to the cells whose y2 p does not divide);
      - p = 3 (mod 4), p not dividing m: nothing, as p would divide w;
      - p = 1 (mod 4), p not dividing m: y3 = +-i w with i^2 = -1 (mod p),
        so (a, b) = (0, (+-i - rho) / m mod p);
      - p = 2, not dividing m: y3 odd (w is odd), so (a, b) = (1, rho mod 2);
      - odd p | m: y4(k) = y4(t) + 2 rho w (k - t) (mod p), rho and w units,
        so (a, b) = (0, -((1 + rho^2)/m) / (2 rho) mod p);
      - p = 2 | m: nothing, as w and y3 = rho w (mod 2) are odd, so
        w^2 + y3^2 = 2 (mod 8) and y4 is odd.
    Every prime of m is 2 or 1 mod 4, as -1 is a square mod m, and divides
    no y2, as gcd(y2, v2 y1) = 1.  At t = 0 the classes are anchored at y3 = rho w.
    """
    m, out = g.m, []
    for p in g.classed:
        if p % 4 == 3 or p == 2 and m % 2 == 0:
            continue
        if m % p == 0:
            ab = [[(0, -((1 + r * r) // m) * pow(2 * r, -1, p) % p) for r in g.kept]]
        elif p == 2:
            ab = [[(1, r % 2) for r in g.kept]]
        else:
            i, u = _tonelli_sqrt_minus_one(p), pow(m, -1, p)
            ab = [[(0, (e - r) * u % p) for r in g.kept] for e in (i, p - i)]
        out.append((p, *np.array(ab).transpose(2, 0, 1)[..., None]))
    return out


def _slice_classes(classes, y2s, t, w) -> list:
    """``_y4_classes`` on the progressions (t, w) of the cells ``y2s``: [(p, E, alive), ...],
    E[i] the i-th class of p on each, shaped as t; alive marks the y2 prime to p (None: all)."""
    return [(p, _mod(a + b * w + t, p), None if all(y2 % p for y2 in y2s) else
             np.array(y2s) % p != 0) for p, a, b in classes]


def _merge(p: int, E, C, Q, u):
    """The CRT merges of the classes k = C (mod Q), one for each row of C,
    with each class k = e (mod p) of the rows of E, where u = Q^-1 (mod p):
    the classes mod Q p, class of E first (the shape (len(E), len(C), ...))."""
    return C + Q * _mod((E[:, None] + p - _mod(C, p)) * u, p)


def _cell_slices(B: int, g: _Group, classes, y2s) -> list:
    """``y2s`` cut into consecutive slices of at most _BLOCK terms of
    ``_slice_counts`` plus one cell's (``_runs``), counted before any is
    built, so that its memory stays bounded whatever B.  A cell with R rows
    has R (L 2^omega(y2) - 1) terms per kept root: one per choice of the
    ``classes`` of the primes of v1 v2 (L choices) and squarefree d | y2,
    less the one added as the sum of K.  As R < (B m)^(1/4) / sqrt(y2), the
    sums of ``_cell_weights`` bound a group's terms at once, and only past
    _BLOCK are its rows counted: at 10^8 in 444 of the 3,314 groups, 183 of
    which are cut, the first, (1, 1, 1), in 5; at 10^7 only the first, in 2."""
    if len(y2s) == 1:
        return [y2s]
    kept, L = len(g.kept), prod(1 + len(a) for _, a, _ in classes)
    sqfree, ones = _cell_weights(isqrt(B))
    lo, hi = y2s[0] - 1, y2s[-1]
    if kept * (B * g.m) ** 0.25 * (L * (sqfree[hi] - sqfree[lo]) - ones[hi] + ones[lo]) <= _BLOCK:
        return [y2s]
    first, y2 = _divisor_table(isqrt(B))[0], np.array(y2s)
    T = kept * _rows(B, g.primes, g.m, y2)[1] * (L * (first[y2 + 1] - first[y2]) - 1)
    return [y2s[a:b] for a, b in _runs(T)]


def _cell_counts(B: int, g: _Group, y2s) -> int:
    """The number of points in the cells of the group g, y2 in ``y2s``, slice by slice."""
    classes = _y4_classes(g)
    return sum(_slice_counts(B, g, classes, part) for part in _cell_slices(B, g, classes, y2s))


def _slice_counts(B: int, g: _Group, classes, y2s) -> int:
    """The number of points in the cells (v1, v2, y1, y2) of the group g, y2
    in ``y2s``, together, where ``classes`` are the group's ``_y4_classes``.

    Counts the k in [0, K) of every progression y3 = s + k m of
    ``_progressions`` by inclusion-exclusion over classes of k, all cells in
    one pass; a progression over -Y3 <= y3 <= Y3 counts the points of both
    roots of its pair, as every condition depends on |y3| only.
    gcd(y3, y2) = 1 is a Mobius sum over the squarefree d | y2 of
    ``_divisor_table``: d | y3 iff k = t (mod d), where t = (rho w - s) / m
    >= 0, as s <= rho w is the least y3 = rho w (mod m) in the range.  Each
    term then takes at most one class per prime (``_slice_classes``), merged
    by CRT into one class k = c (mod Q), which holds (K - c + Q - 1) // Q of
    the k.  The term of d = 1 with no class holds all K of the k, so it is
    added as the sum of K and never built.  The terms form one row per
    choice of classes, the choice of none first, each with the product q of
    its primes and the sign (-1)^(number of classes).  In a row, the terms
    of d = 1 (c = e, Q = q) have one entry per progression; those of d > 1
    (Q = d q) run by root, then by cell, then by d, then by y0 row.
    """
    rows, _, w, t, _, K = _progressions(B, g, y2s)
    total = int(K.sum())
    some_d = y2s[-1] > 1  # a divisor d > 1 of some y2, as y2s ascend
    if not (classes or some_d):
        return total
    classes = _slice_classes(classes, y2s, t, w)
    Km1 = K - 1
    if some_d:
        # y3 = rho w + (k - t) m = (k - t) m (mod w), so d | y3 iff k = t (mod d), as d | w
        y2 = np.array(y2s)
        first, dtab, mutab = _divisor_table(isqrt(B))
        f = first.take(y2) + 1
        nd = first.take(y2 + 1) - f  # divisors d > 1 of each cell, from table entry f on
        ent = np.arange(nd.sum()) + (f - nd.cumsum() + nd).repeat(nd)
        ne, r0 = rows.repeat(nd), (rows.cumsum() - rows).repeat(nd)  # rows of each (cell, d)
        row = np.arange(ne.sum()) + (r0 - ne.cumsum() + ne).repeat(ne)
        d, mu = dtab.take(ent).repeat(ne), mutab.take(ent).repeat(ne)
        C = (t.take(row, axis=1) % d)[None]
        if not classes:
            return total + int((((Km1.take(row, axis=1) + d - C) // d) * mu).sum())
    qs, signs, C1 = [1], [1], None
    for p, E, _ in classes:
        if some_d:
            Q = d * np.array(qs)[:, None, None]
            M = _merge(p, E.take(row, axis=2), C, Q, _inverses(p).take(_mod(Q, p)))
            C = np.concatenate([C, M.reshape(-1, *C.shape[1:])])
        # the merges into d = 1: k = e (mod p) itself, then the rows after the first
        if C1 is None:
            C1 = E
        else:
            u = np.array([pow(q, -1, p) for q in qs[1:]])[:, None, None]
            M = _merge(p, E, C1, np.array(qs[1:])[:, None, None], u)
            C1 = np.concatenate([C1, np.concatenate([E[:, None], M], 1).reshape(-1, *E.shape[1:])])
        qs += [q * p for _ in E for q in qs]
        signs += [-s for _ in E for s in signs]
    # the weights of the rows: their signs, where each prime p | q applies its classes
    q, wt = np.array(qs)[:, None, None], np.array(signs)[:, None, None]
    if alive := [(p, a) for p, _, a in classes if a is not None]:  # so some y2 > 1: some_d
        P, A = np.array([p for p, _ in alive]), np.array([a for _, a in alive])
        wt = wt * ((q % P != 0)[..., None] | A).all(axis=2)
    W1 = wt[1:] if not alive else wt[1:].repeat(rows, axis=2)
    total += int((((Km1 + q[1:] - C1) // q[1:]) * W1).sum())
    if some_d:
        Q, W = d * q, mu * (wt if not alive else wt.repeat(rows * nd, axis=2))
        total += int((((Km1.take(row, axis=1) + Q - C) // Q) * W).sum())
    return total


def _count_groups(B: int, groups) -> int:
    """Number of points of the cells of the given groups of ``_groups``.  The
    roots of -1 are found once per modulus m = v2 y1^2, which recurs for
    every v1, and each group is prepared once for all its cells."""
    roots = {m: sqrts_minus_one(m) for m in dict.fromkeys(g[3] for g in groups)}
    return sum(_cell_counts(B, _prepare(v1, v2, y1, m, roots[m]), _y2s(v2 * y1, y2_cap))
               for v1, v2, y1, m, y2_cap in groups)


# ---------------------------------------------------------------------------
# the cell walk

def _base_pairs(B: int):
    """(v2, [y1, ...]) by ascending v2 and y1: squarefree v2, v2^3 y1^2 <= B
    and -1 a square mod v2 y1^2, from ``_base_pair_lists(isqrt(B))``."""
    v2s, y1s = _base_pair_lists(isqrt(B))
    y1s = y1s.tolist()
    return [(v2, y1s[:bisect_right(y1s, isqrt(B // v2**3))])
            for v2 in v2s.tolist() if v2**3 <= B]


def _groups(B: int):
    """The cells of the walk grouped by (v1, v2, y1): every (v1, v2, y1, m,
    y2_cap) with squarefree v2, a root of -1 modulo m = v2 y1^2 and
    y2_cap >= 1 the largest y2 with v1^4 v2^3 y1^2 y2^2 <= B; in the order
    (v1, v2, y1).  The y2 of its cells are ``_y2s(v2 y1, y2_cap)``; the
    roots, ``sqrts_minus_one(m)``, are looked up by the process counting it.
    There are none for B < 1."""
    pairs = _base_pairs(max(B, 0))
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


def _count_forked(B: int, shares) -> int:
    """The sum of ``_count_groups`` over the shares: a forked child counts
    each share but the last and writes its count to a pipe, while this
    process counts the last.  Every child is reaped before this returns; a
    child that fails raises a DelPezzoError here."""
    children = []
    try:
        for share in shares[:-1]:
            r, w = os.pipe()
            if not (pid := os.fork()):  # the child sends its count, or its error, and exits
                try:
                    os.write(w, b"%d" % _count_groups(B, share))
                    os._exit(0)
                except BaseException as exc:
                    os.write(w, repr(exc).encode()[:512])
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        counts = [_count_groups(B, shares[-1])] + [f.read() for _, f in children]
    finally:
        # a child whose pipe has ended has sent all it will, and one still
        # running is not wanted (this process's share raised, or it was
        # interrupted), so each is killed before it is reaped
        for pid, f in children:
            os.kill(pid, signal.SIGKILL)
            f.close()
            os.waitpid(pid, 0)
    if failed := [c for c in counts[1:] if not c.isdigit()]:
        raise DelPezzoError(f"a counting process failed: {failed[0].decode() or 'no count'}")
    return sum(map(int, counts))


def count_torsor(B: int, workers: Optional[int] = None) -> int:
    """N(Q1, Q2; B) computed on the auxiliary side.

    ``workers`` = W deals the groups of the walk out once, every W-th group
    to each of W shares: the calling process counts the last share while
    W - 1 forked children count the others (``_count_forked``), so W = 1
    forks none.  W is lowered to the number of groups, but not below 1, so
    no share is empty unless there are no groups.  The result is an exact
    integer sum and therefore identical for every partition.
    """
    if B > TORSOR_CAP:
        raise SizeCapError(f"count_torsor is capped at B = {TORSOR_CAP}")
    groups = list(_groups(B))
    workers = max(1, min(workers or 1, len(groups)))
    # the costliest groups (small v1 and y1, many y2) come first in the walk,
    # so dealing them out in turn evens the shares (at B = 10^7 the first half
    # of the 1,145 groups takes 55-56% of the time, and each of 2 shares
    # 49-51%).  A child counts the first group, (1, 1, 1), whose arrays are
    # the largest (a tracemalloc peak of 1.3 MB at 10^7, in two slices).
    _cell_weights(isqrt(max(B, 0)))  # built before the fork, so every child inherits them
    _spf_table()
    return _count_forked(B, [groups[i::workers] for i in range(workers)])


def iter_torsor_points(B: int) -> Iterator[TorsorPoint]:
    """Every point counted by ``count_torsor`` exactly once, ordered
    lexicographically by (v1, v2, y1, y2, y0, y3).  Streams: besides the
    groups of the walk, memory stays bounded by one block of the kernel."""
    if B > TORSOR_CAP:
        raise SizeCapError(f"enumeration is capped at B = {TORSOR_CAP}")
    for v1, v2, y1, m, y2_cap in _groups(B):
        g = _prepare(v1, v2, y1, m, sqrts_minus_one(m))
        for y2, y0, y3, y4, ok in _cell_blocks(B, g, _y2s(v2 * y1, y2_cap)):
            order = np.lexsort((y3, y0))
            order = order[ok[order]]
            for a, b, d in zip(y0[order].tolist(), y3[order].tolist(), y4[order].tolist()):
                yield TorsorPoint(v1, v2, a, y1, y2, b, d)


def main_term_partial_sum(bound: int) -> float:
    """sum of Delta(n) for n <= bound: every cell of the walk weighted by
    cell_density / (v2^(1/4) y1^(1/2) y2^(1/2)), summed in the walk's order.
    The per-n divisor walk ``arith.main_term_coefficient`` is its oracle."""
    total = 0.0
    for v1, v2, y1, _, y2_cap in _groups(bound):
        theta, rest = _group_factors(v1, v2, y1)
        theta *= Fraction(euler_phi(v1 * v2 * y1), v1 * v2 * y1)
        scale = v2 ** 0.25 * math.sqrt(y1)
        for y2 in _y2s(v2 * y1, y2_cap):
            total += float(_cell_factor(theta, rest, y2)) / (scale * math.sqrt(y2))
    return total
