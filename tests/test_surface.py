import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from delpezzo import surface as S
from delpezzo.errors import InvalidPointError, NotInDomainError, SizeCapError

# frozen by independent runs of the enumeration oracles
NAIVE_TABLE = {
    1: (5, 0, 0, 0, 10),
    2: (9, 1, 8, 2, 10),
    5: (21, 3, 24, 6, 18),
    10: (45, 7, 56, 14, 34),
    20: (93, 16, 128, 32, 58),
}
ORACLE_100 = 135
ORACLE_1000 = 2214


class TestForms:
    def test_examples(self):
        assert S.eval_forms((0, 0, 0, 0, 1)) == (0, 0)  # the singular point
        assert S.eval_forms((1, 0, 0, 0, 0)) == (0, 1)
        assert S.eval_forms((1, 1, 1, 1, 2)) == (0, 0)

    def test_big_values_exact(self):
        x = (10**9, 10**9, 10**9, 10**9, 10**9)
        q1, q2 = S.eval_forms(x)
        assert q1 == 0 and q2 == 10**18

    def test_non_integers_rejected(self):
        # a fractional coordinate is not truncated onto the surface, and an
        # integral float is not an integer either
        for x in ((1.5, 1, 1, 1, 2), (1.0, 1, 1, 1, 2), (Fraction(1), 1, 1, 1, 2)):
            with pytest.raises(InvalidPointError, match="integers"):
                S.SurfacePoint(x)
            with pytest.raises(InvalidPointError, match="integers"):
                S.eval_forms(x)

    def test_numpy_integers_accepted(self):
        x = tuple(np.array([1, 1, 1, 1, 2], dtype=np.int64))
        assert S.eval_forms(x) == (0, 0)
        assert S.SurfacePoint(x).x == (1, 1, 1, 1, 2)


class TestCanonicalize:
    def test_examples(self):
        assert S.canonicalize((2, 2, 2, 2, 4)).x == (1, 1, 1, 1, 2)
        assert S.canonicalize((-1, -1, 1, 0, -1)).x == (1, 1, -1, 0, 1)
        assert S.canonicalize((-2, -2, 2, 0, -2)).x == (1, 1, -1, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(InvalidPointError):
            S.canonicalize((0, 0, 0, 0, 0))

    def test_off_surface_rejected(self):
        with pytest.raises(NotInDomainError):
            S.canonicalize((1, 1, 1, 1, 1))

    def test_non_integers_rejected(self):
        # a fractional coordinate is not truncated, and an integral float or
        # Fraction is not an integer either
        for x in ((1.5, 1, 1, 1, 2), (1.0, 1, 1, 1, 2), (Fraction(1), 1, 1, 1, 2)):
            with pytest.raises(InvalidPointError, match="integers"):
                S.canonicalize(x)

    def test_numpy_integers_accepted(self):
        assert S.canonicalize(np.array([2, 2, 2, 2, 4])).x == (1, 1, 1, 1, 2)


class TestHeightClassify:
    def test_height_examples(self):
        assert S.height(S.canonicalize((1, 1, 1, 1, 2))) == 2
        assert S.height(S.canonicalize((0, 0, 0, 0, 1))) == 1
        assert S.height(S.canonicalize((1, 1, 1, 2, 5))) == 5

    def test_classify(self):
        assert S.classify(S.canonicalize((0, 0, 0, 0, 1))) == "on_line"
        assert S.classify(S.canonicalize((1, 1, 1, 0, 1))) == "on_U"

    def test_height_equals_tail_coordinates(self):
        for x in S.iter_positive_solutions(500):
            assert max(abs(c) for c in x) == max(x[1], x[4])


class TestNaive:
    def test_frozen_table(self):
        for B, (n_uh, n_pos, s_total, s_pp, z) in NAIVE_TABLE.items():
            b = S.count_naive(B)
            assert (b.n_uh, b.n_pos, b.s_total, b.s_pp, b.z_degenerate) == \
                (n_uh, n_pos, s_total, s_pp, z), B

    def test_identities(self):
        for B in list(range(1, 13)) + [25, 30]:
            b = S.count_naive(B)
            assert b.s_total == 4 * b.s_pp
            assert b.s_pp == 2 * b.n_pos
            assert 2 * b.n_uh == b.s_total + b.z_degenerate

    def test_monotone(self):
        counts = [S.count_naive(B).n_uh for B in range(1, 16)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_cap(self):
        with pytest.raises(SizeCapError):
            S.count_naive(31)


class TestOracle:
    def test_small_values(self):
        assert S.count_positive_oracle(1) == 0
        assert S.count_positive_oracle(2) == 1
        assert list(S.iter_positive_solutions(2)) == [(1, 1, 1, 1, 2)]

    def test_frozen_regression(self):
        assert S.count_positive_oracle(100) == ORACLE_100
        assert S.count_positive_oracle(1000) == ORACLE_1000

    def test_matches_naive(self):
        for B in range(1, 21):
            assert S.count_positive_oracle(B) == S.count_naive(B).n_pos

    def test_points_are_valid(self):
        for x in S.iter_positive_solutions(100):
            assert S.eval_forms(x) == (0, 0)
            assert min(x) >= 1
            g = 0
            for c in x:
                g = math.gcd(g, c)
            assert g == 1
            assert max(x[1], x[4]) <= 100

    def test_cap(self):
        with pytest.raises(SizeCapError):
            S.count_positive_oracle(10**4 + 1)

    def test_shares_no_code_with_the_counter(self):
        # the oracles are independent of delpezzo.torsor: in a fresh
        # interpreter they load only these modules of the package
        probe = (
            "import json, sys\n"
            "from delpezzo import surface as S\n"
            "S.count_positive_oracle(2000), S.count_naive(10), S.count_degenerate(10**6)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('delpezzo.'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["delpezzo.arith", "delpezzo.errors", "delpezzo.surface"]


class TestDegenerate:
    def test_matches_naive_scan(self):
        for B in range(1, 13):
            assert S.count_degenerate(B).vectors == S.count_naive(B).z_degenerate

    def test_b4_family_member(self):
        # (0, 4, 0, +-2, 1) from the coprime pair (a, b) = (2, 1) enters at B = 4
        assert S.count_degenerate(4).vectors - S.count_degenerate(3).vectors > 0
        b4 = S.count_naive(4)
        assert b4.z_degenerate == S.count_degenerate(4).vectors == 18

    def test_asymptotic_ratio(self):
        # the conics x0 = 0 hold about (12/pi^2) B of the points
        r = S.count_degenerate(10**6).points / ((12 / math.pi**2) * 10**6)
        assert 0.95 < r < 1.05

    def test_cap(self):
        with pytest.raises(SizeCapError):
            S.count_degenerate(10**9 + 1)

    def test_at_the_torsor_cap(self):
        d = S.count_degenerate(10**9)
        assert (d.vectors, d.points) == (2431752410, 1215876205)
