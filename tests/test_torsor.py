from math import gcd, isqrt

import numpy as np
import pytest

from delpezzo import surface as S
from delpezzo import torsor as T
from delpezzo.arith import sqrts_minus_one
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

    @pytest.mark.parametrize("B, n", [(10**5, 479470), (10**6, 6513969)])
    def test_golden_counts(self, B, n):
        assert T.count_torsor(B) == n

    def test_golden_count_parallel(self):
        assert T.count_torsor(10**5, workers=2) == 479470

    def test_enumeration_streams(self):
        # the whole enumeration at 1e8 would be about 1.07e9 points
        first = next(iter(T.iter_torsor_points(10**8)))
        assert first.as_tuple() == (1, 1, 1, 1, 1, 1, 2)

    @pytest.mark.parametrize("B", [100, 10**4])  # at 100 the walk is shorter than a chunk
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


class TestWalk:
    @pytest.mark.parametrize("B", [1, 2, 10**3, 10**5])
    def test_cells_match_their_definition(self, B):
        cells = list(T._cells(B))
        assert cells == brute_cells(B)
        assert all(roots == tuple(sqrts_minus_one(m)) for *_, m, roots in cells)


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
