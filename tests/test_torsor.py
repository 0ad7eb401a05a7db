from math import gcd, isqrt

import numpy as np
import pytest

from delpezzo import surface as S
from delpezzo import torsor as T
from delpezzo.arith import (
    factorize, is_squarefree, sqrt_minus_one_count, sqrts_minus_one, squarefree_divisors,
)
from delpezzo.errors import NotInDomainError, SizeCapError, TorsorValidationError


class TestValidate:
    def test_valid_examples(self):
        assert T.validate((1, 1, 1, 1, 1, 1, 2)).as_tuple() == (1, 1, 1, 1, 1, 1, 2)
        assert T.validate((1, 1, 1, 1, 1, 2, 5)).y4 == 5

    def test_squarefree_failure_named(self):
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 4, 1, 1, 1, 1, 1))
        assert "squarefree" in exc.value.failures

    def test_equation_failure_named(self):
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 1, 1, 1, 1, 1, 3))
        assert exc.value.failures == ["equation"]

    def test_coprimality_failure_named(self):
        # y0 = y1 = 2 shares a factor; adjust y4 so the equation holds:
        # y0^4 y2^2 + y3^2 = 16 + 9 = 25 is not divisible by v2 y1^2 = 4 -> pick
        # (v1,v2,y0,y1,y2,y3,y4) = (1,1,2,2,1,2,5): 16 - 20 + 4 = 0
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 1, 2, 2, 1, 2, 5))
        assert "coprimality" in exc.value.failures

    def test_positivity(self):
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 1, 0, 1, 1, 1, 1))
        assert exc.value.failures == ["positivity"]


class TestMaps:
    def test_forward_examples(self):
        assert T.to_surface(T.validate((1, 1, 1, 1, 1, 1, 2))).x == (1, 1, 1, 1, 2)
        assert T.to_surface(T.validate((1, 1, 1, 1, 1, 2, 5))).x == (1, 1, 1, 2, 5)
        assert T.to_surface(T.validate((1, 2, 1, 1, 1, 1, 1))).x == (2, 8, 4, 2, 1)

    def test_inverse_examples(self):
        assert T.from_surface((1, 1, 1, 1, 2)).as_tuple() == (1, 1, 1, 1, 1, 1, 2)
        assert T.from_surface((1, 1, 1, 2, 5)).as_tuple() == (1, 1, 1, 1, 1, 2, 5)
        assert T.from_surface((2, 8, 4, 2, 1)).as_tuple() == (1, 2, 1, 1, 1, 1, 1)

    def test_inverse_rejects_bad_input(self):
        with pytest.raises(NotInDomainError):
            T.from_surface((1, 1, 1, 1, 1))  # not on the surface
        with pytest.raises(NotInDomainError):
            T.from_surface((2, 2, 2, 2, 4))  # not primitive
        with pytest.raises(NotInDomainError):
            T.from_surface((-1, 1, 1, 1, 2))  # not positive

    def test_round_trip_torsor_side(self):
        for t in T.iter_torsor_points(300):
            assert T.from_surface(T.to_surface(t)) == t

    def test_round_trip_surface_side(self):
        pts = list(S.iter_positive_solutions(300))
        assert pts
        for x in pts:
            assert T.to_surface(T.from_surface(x)).x == x

    def test_bijection_is_onto(self):
        lhs = sorted(T.to_surface(t).x for t in T.iter_torsor_points(300))
        rhs = sorted(S.iter_positive_solutions(300))
        assert lhs == rhs


class TestCounting:
    @pytest.mark.parametrize("B", [1, 2, 10, 100, 500])
    def test_matches_oracle(self, B):
        assert T.count_torsor(B) == S.count_positive_oracle(B)

    def test_enumeration_matches_count(self):
        assert sum(1 for _ in T.iter_torsor_points(100)) == T.count_torsor(100)

    def test_enumeration_order(self):
        pts = [(t.v1, t.v2, t.y1, t.y2, t.y0, t.y3) for t in T.iter_torsor_points(200)]
        assert pts == sorted(pts)

    def test_single_visit_at_2(self):
        assert [t.as_tuple() for t in T.iter_torsor_points(2)] == [(1, 1, 1, 1, 1, 1, 2)]
        assert list(T.iter_torsor_points(1)) == []

    def test_height_equivalence_on_points(self):
        for t in T.iter_torsor_points(200):
            lhs = t.y4 <= 200
            rhs = t.y0**4 * t.y2**2 + t.y3**2 <= 200 * t.v2 * t.y1**2
            assert lhs == rhs

    @pytest.mark.parametrize("B, n", [(10**5, 479470), (10**6, 6513969), (10**7, 84525002)])
    def test_golden_counts(self, B, n):
        assert T.count_torsor(B) == n

    def test_golden_count_parallel(self):
        assert T.count_torsor(10**5, workers=2) == 479470

    def test_golden_count_parallel_1e7(self):
        assert T.count_torsor(10**7, workers=2) == 84525002

    def test_golden_count_parallel_1e8(self):
        assert T.count_torsor(10**8, workers=2) == 1070253416

    def test_enumeration_streams(self):
        # the whole enumeration at 1e8 would be about 1.07e9 points
        first = next(iter(T.iter_torsor_points(10**8)))
        assert first.as_tuple() == (1, 1, 1, 1, 1, 1, 2)

    # B = 2 has one group and B = 10 two, so some of the workers get no groups
    @pytest.mark.parametrize("B", [2, 10, 100, 10**4])
    def test_parallel_partition_invariance(self, B):
        ref = T.count_torsor(B)
        assert T.count_torsor(B, workers=2) == ref
        assert T.count_torsor(B, workers=3) == ref

    def test_cap(self):
        with pytest.raises(SizeCapError):
            T.count_torsor(10**9 + 1)


def brute_cells(B):
    """The cells of the walk from their definition: every (v1, v2, y1, y2)
    with v1^4 v2^3 y1^2 y2^2 <= B, squarefree v2, gcd(y2, v2 y1) = 1 and a
    root of -1 modulo m = v2 y1^2, with the roots in [1, m] found by a scan;
    sorted lexicographically."""
    out = []
    for v1 in range(1, B + 1):
        if v1**4 > B:
            break
        for v2 in range(1, B + 1):
            if v1**4 * v2**3 > B:
                break
            if any(v2 % (p * p) == 0 for p in range(2, isqrt(v2) + 1)):
                continue
            for y1 in range(1, B + 1):
                if v1**4 * v2**3 * y1**2 > B:
                    break
                m = v2 * y1 * y1
                r = np.arange(1, m + 1, dtype=np.int64)
                roots = tuple(r[(r * r + 1) % m == 0].tolist())
                for y2 in range(1, B + 1):
                    if v1**4 * v2**3 * y1**2 * y2**2 > B:
                        break
                    if roots and gcd(y2, v2 * y1) == 1:
                        out.append((v1, v2, y1, y2, m, roots))
    return sorted(out)


def factored_base_pairs(B):
    """The (v2, [y1, ...]) of ``_base_pairs`` from their definition: squarefree
    v2, v2^3 y1^2 <= B and sqrt_minus_one_count(v2 y1^2) > 0, for every v2
    with some such y1."""
    out = []
    v2 = 1
    while v2**3 <= B:
        if is_squarefree(v2):
            y1s = [y1 for y1 in range(1, isqrt(B // v2**3) + 1)
                   if sqrt_minus_one_count(v2 * y1 * y1)]
            if y1s:
                out.append((v2, y1s))
        v2 += 1
    return out


class TestWalk:
    @pytest.mark.parametrize("B", [1, 2, 10**3, 10**7, T.TORSOR_CAP])
    def test_base_pairs_match_their_definition(self, B):
        assert T._base_pairs(B) == factored_base_pairs(B)

    def test_divisor_table(self):
        n = isqrt(T.TORSOR_CAP)
        first, d, mu = T._divisor_table(n)
        assert len(first) == n + 2 and first[1] == 0
        for j in range(1, n + 1):
            a, b = first[j], first[j + 1]
            assert set(zip(d[a:b].tolist(), mu[a:b].tolist())) == set(squarefree_divisors(j)), j

    @pytest.mark.parametrize("B", [1, 2, 10**3, 10**5])
    def test_cells_match_their_definition(self, B):
        cells = brute_cells(B)
        assert list(T._cells(B)) == [cell[:5] for cell in cells]
        # the roots the kernels look up per group
        assert all(roots == tuple(sqrts_minus_one(m)) for *_, m, roots in cells)


class TestPairing:
    def test_progressions_give_every_y3_once(self):
        """In every cell for B = 10^4 the y3 of a row, 1 <= y3 <= Y3 with
        y3^2 = -w^2 (mod m) found by a scan, are exactly the |s + k m| of the
        row's progressions: a multiset, so no y3 is missed or given twice.
        The roots come from the scan of ``brute_cells``."""
        B = 10**4
        ms, sides = set(), set()
        for v1, v2, y1, y2, m, roots in brute_cells(B):
            lim = B * m
            y0s = [a for a in range(1, isqrt(lim) + 1)
                   if (a * a * y2) ** 2 < lim and gcd(a, v1 * v2 * y1) == 1]
            rows, y0, _, _, start, K = T._progressions(B, v1, v2, y1, m, roots, [y2])
            assert rows.tolist() == [len(y0s)] and y0.tolist() == y0s
            ms.add(min(m, 3))
            for a, starts, ks in zip(y0s, start.tolist(), K.tolist()):
                w = a * a * y2
                y3 = np.arange(1, isqrt(lim - w * w) + 1)
                want = y3[(y3 * y3 + w * w) % m == 0].tolist()
                got = sorted(abs(s + k * m) for s, n in zip(starts, ks) for k in range(n))
                assert got == want, (v1, v2, y1, y2, a)
                for s, n in zip(starts, ks):
                    if n:
                        sides.add((s < 0, s + (n - 1) * m > 0))
        assert ms == {1, 2, 3}  # m = 1, m = 2 and m > 2
        # progressions with y3 < 0 only, y3 > 0 only and both
        assert sides == {(True, False), (False, True), (True, True)}


class TestPartialSum:
    # pinned bit for bit: a change of the cells or of the order of summation
    # shows here
    @pytest.mark.parametrize("B, total", [
        (10**3, 16.200090686587608),
        (10**4, 42.0852019608994),
        (10**5, 103.4547206350975),
        (10**6, 246.1131338634169),
    ])
    def test_main_term_partial_sum(self, B, total):
        assert T.main_term_partial_sum(B) == total


def scalar_points(B, v1, v2, y1, y2, y0s):
    """The points (y0, y3) of the cell (v1, v2, y1, y2) with y0 in ``y0s``,
    sorted; the reference for the kernel, in Python ints with a gcd per
    candidate."""
    m = v2 * y1 * y1
    lim = B * m
    roots = sqrts_minus_one(m)
    assert all((r * r + 1) % m == 0 for r in roots)
    out = []
    for y0 in y0s:
        w = y0 * y0 * y2
        for rho in roots:
            for y3 in range((rho * w - 1) % m + 1, isqrt(lim - w * w) + 1, m):
                y4, rem = divmod(w * w + y3 * y3, m)
                assert rem == 0
                if gcd(y3, y1 * y2) == 1 and gcd(y4, v1 * v2 * y2) == 1:
                    out.append((y0, y3))
    return sorted(out)


class TestKernel:
    @pytest.mark.parametrize("v2, y1, rows", [
        (1, 1, 8),  # v1 = v2 = y1 = y2 = 1: the cell with the longest progressions
        (1, 31613, None),  # the largest y1 with a root of -1 mod y1^2: lim ~ 10^18
        (997, 1, 8),  # the largest squarefree v2 with a root of -1 mod v2
    ])
    def test_extreme_cells_at_cap(self, v2, y1, rows):
        """At B = 10^9 the kernel's points equal the scalar reference's, on
        every y0 row (rows=None) or on the first and last ``rows`` rows."""
        B, v1, y2 = T.TORSOR_CAP, 1, 1
        m = v2 * y1 * y1
        y0s = [y0 for y0 in range(1, isqrt(isqrt(B * m)) + 1)
               if (y0 * y0 * y2) ** 2 < B * m and gcd(y0, v1 * v2 * y1) == 1]
        if rows is not None:
            y0s = y0s[:rows] + y0s[-rows:]
        got = []
        for y0, y3, ok in T._cell_blocks(B, v1, v2, y1, y2, m, tuple(sqrts_minus_one(m))):
            keep = ok & np.isin(y0, y0s)
            got += zip(y0[keep].tolist(), y3[keep].tolist())
        assert sorted(got) == scalar_points(B, v1, v2, y1, y2, y0s)

    def test_isqrt_exact_near_squares(self):
        k = np.array([1, 2, 10**9 - 1, 10**9], dtype=np.int64)
        for d in (-1, 0, 1):
            n = k * k + d
            assert T._isqrt(n).tolist() == [isqrt(int(v)) for v in n]


def oracle_counts(B, v1, v2, y1, m, roots, y2s):
    """The points of each cell (v1, v2, y1, y2), y2 in ``y2s``, counted as
    sum(ok) of the enumeration kernel."""
    return [sum(int(np.count_nonzero(ok)) for *_, ok in T._cell_blocks(B, v1, v2, y1, y2, m, roots))
            for y2 in y2s]


def _primes(n):
    return list(factorize(n))


# The rules of the floor sums, each as a predicate on a cell (v1, v2, y1, y2)
# with m = v2 y1^2 that holds where the rule applies: the Mobius sum over
# y2, and the classes that gcd(y4, v1 v2) = 1 excludes for a prime p | v1 v2.
RULES = {
    "q | y2": lambda v1, v2, y1, y2, m: y2 > 1,
    "p | v1 v2 and p | y2": lambda v1, v2, y1, y2, m: any(
        y2 % p == 0 for p in _primes(v1 * v2)),
    "p = 3 mod 4, p not dividing m": lambda v1, v2, y1, y2, m: any(
        p % 4 == 3 and m % p for p in _primes(v1 * v2)),
    "p = 1 mod 4, p not dividing m": lambda v1, v2, y1, y2, m: any(
        p % 4 == 1 and m % p and y2 % p for p in _primes(v1 * v2)),
    "p = 2, not dividing m": lambda v1, v2, y1, y2, m: v1 % 2 == 0 and m % 2 and y2 % 2,
    "odd p | m": lambda v1, v2, y1, y2, m: any(p > 2 and m % p == 0 for p in _primes(v1 * v2)),
    "p = 2 | m": lambda v1, v2, y1, y2, m: m % 2 == 0,
}

# cells at the cap B = 10^9, one for each rule
RULE_CELLS = {
    "q | y2": (1, 1, 1, 105),
    "p | v1 v2 and p | y2": (5, 1, 1, 10),
    "p = 3 mod 4, p not dividing m": (3, 1, 1, 2),
    "p = 1 mod 4, p not dividing m": (5, 1, 1, 3),
    "p = 2, not dividing m": (2, 1, 5, 1),
    "odd p | m": (5, 1, 5, 1),
    "p = 2 | m": (1, 2, 1, 3),
}

# further cells at the cap: the extremes of m and of K
EXTREME_CELLS = {
    "the largest m, y1 = 31613 = 101 * 313": (1, 1, 31613, 1),
    "m = 31525^2, eight roots": (1, 1, 31525, 1),
    "the longest progressions": (1, 1, 1, 1),
}


class TestFloorSums:
    """The floor-sum counter against the enumeration kernel, cell by cell."""

    def test_every_cell_at_1e5(self):
        B = 10**5
        for v1, v2, y1, m, y2_cap in T._groups(B):
            roots = tuple(sqrts_minus_one(m))
            y2s = T._y2s(v2 * y1, y2_cap)
            got = T._cell_counts(B, v1, v2, y1, m, roots, y2s).tolist()
            assert got == oracle_counts(B, v1, v2, y1, m, roots, y2s), (v1, v2, y1)

    def test_rule_cells_cover_every_rule(self):
        assert RULE_CELLS.keys() == RULES.keys()

    @pytest.mark.parametrize("rule", list(RULE_CELLS))
    def test_rule_cells_at_cap(self, rule):
        v1, v2, y1, y2 = RULE_CELLS[rule]
        assert RULES[rule](v1, v2, y1, y2, v2 * y1 * y1)
        self.check_at_cap(v1, v2, y1, [y2])

    @pytest.mark.parametrize("which", list(EXTREME_CELLS))
    def test_extremes_at_cap(self, which):
        v1, v2, y1, y2 = EXTREME_CELLS[which]
        self.check_at_cap(v1, v2, y1, [y2])

    @pytest.mark.parametrize("v1, v2, y1, y2s", [
        (5, 1, 1, [1, 2, 3, 5, 10]),  # p = 5 | v1 applies to some cells of the pass only
        (6, 10, 1, [1, 3, 7, 9]),  # p = 2 | m, odd p = 5 | m, p = 3 mod 4 not dividing m
        (1, 1, 1, [1, 2310, 30030]),  # 1, 32 and 64 squarefree divisors of y2
    ])
    def test_batches_at_cap(self, v1, v2, y1, y2s):
        self.check_at_cap(v1, v2, y1, y2s)

    @staticmethod
    def check_at_cap(v1, v2, y1, y2s):
        B, m = T.TORSOR_CAP, v2 * y1 * y1
        roots = tuple(sqrts_minus_one(m))
        assert T._cell_counts(B, v1, v2, y1, m, roots, y2s).tolist() == \
            oracle_counts(B, v1, v2, y1, m, roots, y2s)
