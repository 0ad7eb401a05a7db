import os
import time
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from delpezzo import arith as A
from delpezzo import surface as S
from delpezzo import torsor as T
from delpezzo.arith import (
    factorize, is_squarefree, sqrt_minus_one_count, sqrts_minus_one, squarefree_divisors,
)
from delpezzo.errors import DelPezzoError, NotInDomainError, SizeCapError, TorsorValidationError


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

    def test_equation_failure_with_a_large_prime_v2(self):
        # is_squarefree(2^61 - 1) stops at its prime cofactor, not at 2^30.5
        t0 = time.perf_counter()
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 2**61 - 1, 1, 1, 1, 1, 1))
        assert exc.value.failures == ["equation"]
        assert time.perf_counter() - t0 < 1

    def test_equation_failure_with_an_unproven_prime_v2(self):
        # 10^30 + 57 lies past the primality proof limit, so whether it is
        # squarefree is undecided; the equation fails all the same
        t0 = time.perf_counter()
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, 10**30 + 57, 1, 1, 1, 1, 1))
        assert exc.value.failures == ["equation"]
        assert time.perf_counter() - t0 < 1

    def test_equation_failure_with_an_unsplit_v2(self, monkeypatch):
        # with rho's step limit low, v2 = p q cannot be factored
        monkeypatch.setattr(A, "_RHO_STEPS", 10)
        p, q = 4294967311, 4294967357  # the first two primes past 2^32
        t0 = time.perf_counter()
        with pytest.raises(SizeCapError):
            A.factorize(p * q)
        with pytest.raises(TorsorValidationError) as exc:
            T.validate((1, p * q, 1, 1, 1, 1, 1))
        assert exc.value.failures == ["equation"]
        assert time.perf_counter() - t0 < 1

    def test_undecided_squarefree_raises_the_cap(self):
        # every other condition holds: y0 = y1 = y2 = 1 and
        # v2 y4 = y3^2 + 1 with y3 a root of -1 mod the prime v2, so y4 < v2
        v2 = 10**30 + 57
        y3 = next(r for c in range(2, 100) if (r := pow(c, (v2 - 1) // 4, v2)) ** 2 % v2 == v2 - 1)
        y4, rem = divmod(y3 * y3 + 1, v2)
        assert rem == 0 and 1 <= y4 < v2
        with pytest.raises(SizeCapError):
            T.validate((1, v2, 1, 1, 1, y3, y4))

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

    def test_integrality(self):
        # a fractional coordinate is not truncated to a valid point
        for t in ((1.9, 1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1, 2.0), (1, 1, 1, 1, 1, Fraction(1), 2)):
            with pytest.raises(TorsorValidationError) as exc:
                T.validate(t)
            assert exc.value.failures == ["integrality"], t
        assert T.validate(np.array([1, 1, 1, 1, 1, 1, 2])).as_tuple() == (1, 1, 1, 1, 1, 1, 2)


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
        for x in ((1.0, 1, 1, 0.5, 2), (Fraction(1), 1, 1, 1, 2)):
            with pytest.raises(NotInDomainError, match="integers"):
                T.from_surface(x)

    def test_inverse_accepts_numpy_integers(self):
        assert T.from_surface(np.array([2, 8, 4, 2, 1])).as_tuple() == (1, 2, 1, 1, 1, 1, 1)

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

    def test_enumeration_factors_once_per_group(self, monkeypatch):
        """At 10^4 the enumeration factors v1 v2 y1 once per group (47) and
        y2 once per cell with rows (257 of the 258; (1, 1, 1, 100) has none):
        304 calls, in the order of the walk, not three per cell."""
        calls = []
        factorize = T.factorize
        monkeypatch.setattr(T, "factorize", lambda n: calls.append(n) or factorize(n))
        B = 10**4
        assert len(list(T.iter_torsor_points(B))) == 33754
        want, cells = [], 0
        for v1, v2, y1, m, y2_cap in T._groups(B):
            y2s = T._y2s(v2 * y1, y2_cap)
            want += [v1 * v2 * y1] + [y2 for y2 in y2s if y2 * y2 < B * m]  # y0 = 1 is a row
            cells += len(y2s)
        assert calls == want
        assert (cells, len(calls)) == (258, 304)

    def test_enumeration_without_the_classes(self, monkeypatch):
        """The enumeration kernel, the counter's oracle, never uses the y4
        classes it checks."""
        def no_classes(g):
            raise AssertionError("the enumeration used the y4 classes")

        monkeypatch.setattr(T, "_y4_classes", no_classes)
        assert len(list(T.iter_torsor_points(3 * 10**4))) == 122189

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

    def test_no_more_workers_than_groups(self, monkeypatch):
        """One child per non-empty share but the caller's: B = 10 has two
        groups and B = 2 one, so B = 2 hands the fork helper one share and
        starts no child.  The fork helper is a stand-in that counts the
        shares in this process, so no process starts."""
        children = []

        def count_forked(B, shares):
            assert all(shares)
            children.append(len(shares) - 1)
            return sum(T._count_groups(B, share) for share in shares)

        monkeypatch.setattr(T, "_count_forked", count_forked)
        assert T.count_torsor(10, workers=100000) == S.count_positive_oracle(10)
        assert T.count_torsor(2, workers=5) == 1
        assert children == [1, 0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("B, n", [(10**5, 479470), (10**7, 84525002), (10**8, 1070253416)])
    def test_roots_once_per_modulus(self, monkeypatch, B, n, workers):
        """Each share finds the roots of -1 once per distinct modulus
        m = v2 y1^2 of its groups, through the module global that
        bench/tracer.py patches.  A stand-in for the fork helper counts the
        shares in this process, so the counter sees every call."""
        seen = []
        roots = T.sqrts_minus_one

        def counted(m):
            seen[-1].append(m)
            return roots(m)

        def count_forked(B, shares):
            total = 0
            for share in shares:
                seen.append([])
                total += T._count_groups(B, share)
                assert sorted(seen[-1]) == sorted({m for _, _, _, m, _ in share})
            return total

        monkeypatch.setattr(T, "sqrts_minus_one", counted)
        monkeypatch.setattr(T, "_count_forked", count_forked)
        assert T.count_torsor(B, workers=workers) == n
        assert len(seen) == workers

    @pytest.mark.parametrize("who", ["child", "caller"])
    def test_failed_share(self, monkeypatch, who):
        """A share that raises, in a child or in the calling process, raises
        in the caller and leaves no child unreaped."""
        caller = os.getpid()
        count_groups = T._count_groups

        def failing(B, groups):
            if (os.getpid() == caller) == (who == "caller"):
                raise ValueError("share failed")
            return count_groups(B, groups)

        monkeypatch.setattr(T, "_count_groups", failing)
        with pytest.raises(DelPezzoError if who == "child" else ValueError, match="share failed"):
            T.count_torsor(10**5, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("B", [-10**6, -1, 0])
    def test_below_one(self, B):
        assert T.count_torsor(B) == 0 and T.count_torsor(B, workers=2) == 0
        assert list(T.iter_torsor_points(B)) == []
        assert T.main_term_partial_sum(B) == 0.0


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
        # ascending, so each j's entries start with (1, +1): the counter adds
        # that term as the sum of K and builds only the others
        assert (d[first[1:-1]] == 1).all() and (mu[first[1:-1]] == 1).all()
        ends = np.zeros(len(d), dtype=bool)
        ends[first[2:] - 1] = True  # the last entry of each j
        assert (np.diff(d)[~ends[:-1]] > 0).all()

    @pytest.mark.parametrize("B", [1, 2, 10**3, 10**5])
    def test_cells_match_their_definition(self, B):
        cells = brute_cells(B)
        walk = [(v1, v2, y1, y2, m) for v1, v2, y1, m, y2_cap in T._groups(B)
                for y2 in T._y2s(v2 * y1, y2_cap)]
        assert walk == [cell[:5] for cell in cells]
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
            rows, y0, _, _, start, K = T._progressions(B, T._prepare(v1, v2, y1, m, roots), [y2])
            assert rows.tolist() == [len(y0s)] and y0.tolist() == y0s
            ms.add(min(m, 3))
            for a, starts, ks in zip(y0s, start.T.tolist(), K.T.tolist()):
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

    def test_group_factors_once_per_group(self, monkeypatch):
        """euler_phi(v1 v2 y1), is_squarefree(v2) and eta(v2 y1^2) are
        taken once per group of the walk; only phi(y2) is taken per cell."""
        B = 10**5
        groups = list(T._groups(B))
        cells = sum(len(T._y2s(v2 * y1, y2_cap)) for _, v2, y1, _, y2_cap in groups)
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(n):
                calls[module.__name__, name] += 1
                return fn(n)
            monkeypatch.setattr(module, name, counted)

        for module, name in ((A, "is_squarefree"), (A, "sqrt_minus_one_count"),
                             (T, "euler_phi"), (A, "euler_phi")):
            count(module, name)
        assert T.main_term_partial_sum(B) == 103.4547206350975
        assert calls == {
            ("delpezzo.arith", "is_squarefree"): len(groups),
            ("delpezzo.arith", "sqrt_minus_one_count"): len(groups),
            ("delpezzo.torsor", "euler_phi"): len(groups),  # of v1 v2 y1
            ("delpezzo.arith", "euler_phi"): cells,  # of y2
        }


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
        g = T._prepare(v1, v2, y1, m, sqrts_minus_one(m))
        for _, y0, y3, _, ok in T._cell_blocks(B, g, [y2]):
            keep = ok & np.isin(y0, y0s)
            got += zip(y0[keep].tolist(), y3[keep].tolist())
        assert sorted(got) == scalar_points(B, v1, v2, y1, y2, y0s)

    def test_isqrt_exact_near_squares(self):
        k = np.array([1, 2, 10**9 - 1, 10**9], dtype=np.int64)
        for d in (-1, 0, 1):
            n = k * k + d
            assert T._isqrt(n).tolist() == [isqrt(int(v)) for v in n]
        # below 2^52 the float root alone, up to the largest square below
        k = np.array([1, 2, 3, 2**25, 2**26 - 3, 2**26 - 1], dtype=np.int64)
        for d in (-1, 0, 1):
            n = k * k + d
            assert n.max() < 2**52
            assert T._isqrt(n, 2**52 - 1).tolist() == [isqrt(int(v)) for v in n]


def oracle_counts(B, v1, v2, y1, m, roots, y2s):
    """The points of each cell (v1, v2, y1, y2), y2 in ``y2s``, counted as
    sum(ok) of the enumeration kernel."""
    counts = Counter()
    for y2, *_, ok in T._cell_blocks(B, T._prepare(v1, v2, y1, m, roots), y2s):
        counts[y2] += int(np.count_nonzero(ok))
    return [counts[y2] for y2 in y2s]


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


def check_y4_classes(B, v1, v2, y1, y2s):
    """The classes of ``_y4_classes`` against y4 in Python ints: for each
    prime p of v1 v2, on every kept root and every row of a cell with p not
    dividing its y2, the k in [0, min(K, 3 p)) with p | y4(k) are exactly
    the k in one of the classes of p (none, for a prime with no class).
    Returns the number of (prime, root, row) checked."""
    m = v2 * y1 * y1
    g = T._prepare(v1, v2, y1, m, sqrts_minus_one(m))
    rows, _, w, t, start, K = T._progressions(B, g, y2s)
    kept = g.kept
    classes = {p: (E, alive) for p, E, alive in T._slice_classes(T._y4_classes(g), y2s, t, w)}
    y2_of_row = np.repeat(y2s, rows).tolist()
    checked = 0
    for p in _primes(v1 * v2):
        E, alive = classes.get(p, (np.zeros((0, len(kept), len(w)), dtype=np.int64), None))
        if alive is not None:
            assert alive.tolist() == [y2 % p != 0 for y2 in y2s]
        for j, (wj, y2) in enumerate(zip(w.tolist(), y2_of_row)):
            if y2 % p == 0:
                continue
            for r in range(len(kept)):
                s, n = int(start[r, j]), min(int(K[r, j]), 3 * p)
                y4 = [divmod(wj * wj + (s + k * m) ** 2, m) for k in range(n)]
                assert all(rem == 0 for _, rem in y4)
                want = [k for k, (q, _) in enumerate(y4) if q % p == 0]
                es = E[:, r, j].tolist()
                assert [k for k in range(n) if k % p in es] == want, (v1, v2, y1, y2, p, r, j)
                checked += 1
    return checked


class TestFloorSums:
    """The floor-sum counter against the enumeration kernel, cell by cell."""

    def test_every_cell_at_1e5(self):
        """Every cell, and every group as one pass of its cells."""
        B = 10**5
        for v1, v2, y1, m, y2_cap in T._groups(B):
            roots = tuple(sqrts_minus_one(m))
            y2s = T._y2s(v2 * y1, y2_cap)
            want = oracle_counts(B, v1, v2, y1, m, roots, y2s)
            g = T._prepare(v1, v2, y1, m, roots)
            got = [T._cell_counts(B, g, [y2]) for y2 in y2s]
            assert got == want, (v1, v2, y1)
            assert T._cell_counts(B, g, y2s) == sum(want), (v1, v2, y1)

    def test_groups_in_slices_at_1e5(self, monkeypatch):
        """With slices of at most 64 terms plus one cell's, 34 groups are
        cut, and the counts stay exact.  The classes of a group are found
        once, however many slices it has."""
        monkeypatch.setattr(T, "_BLOCK", 64)
        B, cut, groups = 10**5, 0, []
        for v1, v2, y1, m, y2_cap in T._groups(B):
            g = T._prepare(v1, v2, y1, m, sqrts_minus_one(m))
            groups.append(g)
            y2s = T._y2s(v2 * y1, y2_cap)
            parts = T._cell_slices(B, g, T._y4_classes(g), y2s)
            assert [y2 for part in parts for y2 in part] == y2s and all(parts)
            cut += len(parts) > 1
        assert cut >= 30
        seen, y4_classes = [], T._y4_classes
        monkeypatch.setattr(T, "_y4_classes", lambda g: seen.append(g) or y4_classes(g))
        assert T.count_torsor(B, workers=1) == 479470
        assert seen == groups  # one call per group, in the order of the walk
        assert T.count_torsor(B, workers=2) == 479470

    def test_first_group_memory_is_bounded(self):
        """The first group at 10^8, (1, 1, 1) with 10^4 cells, peaked at
        5.98 MB under tracemalloc when it was counted in one pass; in its
        slices it peaks at 1.47 MB (1.31 MB at 10^7, 1.63 MB at 10^9)."""
        tracemalloc = pytest.importorskip("tracemalloc")
        B = 10**8
        v1, v2, y1, m, y2_cap = next(T._groups(B))
        roots, y2s = tuple(sqrts_minus_one(m)), T._y2s(v2 * y1, y2_cap)
        T._cell_weights(isqrt(B))  # the tables, as count_torsor builds them first
        tracemalloc.start()
        try:
            n = T._cell_counts(B, T._prepare(v1, v2, y1, m, roots), y2s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 78048010
        assert peak < 2_000_000

    def test_single_cell_groups_at_1e6(self):
        """Every group whose only cell is y2 = 1, so that no d > 1 divides
        its y2: the kernel's shortcut for that case."""
        B, n = 10**6, 0
        for v1, v2, y1, m, y2_cap in T._groups(B):
            if T._y2s(v2 * y1, y2_cap) == [1]:
                roots = tuple(sqrts_minus_one(m))
                want = oracle_counts(B, v1, v2, y1, m, roots, [1])
                got = T._cell_counts(B, T._prepare(v1, v2, y1, m, roots), [1])
                assert [got] == want, (v1, v2, y1)
                n += 1
        assert n == 203

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
        want = self.check_at_cap(v1, v2, y1, y2s)
        # the same cells in one pass give their total
        B, m = T.TORSOR_CAP, v2 * y1 * y1
        assert T._cell_counts(B, T._prepare(v1, v2, y1, m, sqrts_minus_one(m)), y2s) == sum(want)

    def test_y4_classes_every_group_at_1e4(self):
        B = 10**4
        checked = sum(check_y4_classes(B, v1, v2, y1, T._y2s(v2 * y1, y2_cap))
                      for v1, v2, y1, _, y2_cap in T._groups(B))
        assert checked > 500

    @pytest.mark.parametrize("rule", list(RULE_CELLS))
    def test_y4_classes_rule_cells_at_cap(self, rule):
        v1, v2, y1, y2 = RULE_CELLS[rule]
        check_y4_classes(T.TORSOR_CAP, v1, v2, y1, [y2])

    @staticmethod
    def check_at_cap(v1, v2, y1, y2s):
        """Each cell on its own against the oracle; returns the oracle's counts."""
        B, m = T.TORSOR_CAP, v2 * y1 * y1
        roots = tuple(sqrts_minus_one(m))
        want = oracle_counts(B, v1, v2, y1, m, roots, y2s)
        g = T._prepare(v1, v2, y1, m, roots)
        assert [T._cell_counts(B, g, [y2]) for y2 in y2s] == want
        return want
