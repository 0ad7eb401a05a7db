import math
import time
from fractions import Fraction

import numpy as np
import pytest

from delpezzo import constants as C
from delpezzo.arith import chi, primes_up_to
from delpezzo.errors import SizeCapError


class TestQuadrature:
    def test_real_density_vs_beta_oracle(self):
        c, err = C.real_density_integral()
        assert abs(c - C.real_density_beta_oracle()) <= 1e-10
        assert err < 1e-10
        # equal to the closed form, to the rounding of its Gamma values
        assert c == pytest.approx(C.real_density_beta_oracle(), rel=1e-15)

    def test_archimedean_is_sixteen_c(self):
        c, _ = C.real_density_integral()
        om, _ = C.archimedean_density()
        assert abs(om - 16 * c) < 1e-10

    def test_densities_against_mpmath(self):
        # c = int_0^1 u^(1/4) du / (2 sqrt(1-u)) by mpmath's tanh-sinh rule at
        # 30 digits, which needs no smoothing substitution: c and omega_inf / 16
        # are each within 2 ulp of it, and within the error each declares,
        # which is at most 1e-14 (6.3e-15 and 6.2e-15, against 1e-17 and 1e-16 measured)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = mp.quad(lambda u: u ** 0.25 / (2 * mp.sqrt(1 - u)), [0, 1])
        c, err = C.real_density_integral()
        om, om_err = C.archimedean_density()
        for value, declared in ((c, err), (om / 16, om_err / 16)):
            assert abs(value - want) <= 2 * math.ulp(float(want))
            assert abs(value - want) <= declared <= 1e-14

    def test_coarse_bracket(self):
        c, _ = C.real_density_integral()
        assert 0.5 < c < 1.0

    def test_midpoint_rule_declares_its_truncation(self):
        # cos(128 theta) integrates to 0 over the quarter period, but the rule
        # reads it as -1 on 32 nodes and +1 on 16: the change from 16 nodes
        # covers the error
        value, err = C._midpoint_quarter_period(lambda t: 1 + np.cos(128 * t))
        assert abs(value) <= 1e-14
        assert abs(value - math.pi / 2) <= err


class TestAlpha:
    def test_value(self):
        assert C.peyre_alpha() == Fraction(1, 288)

    def test_simplex_helper(self):
        assert C.simplex_volume((1, 1)) == Fraction(1, 2)
        assert C.simplex_volume((4, 2, 3)) == Fraction(1, 144)


def scalar_tau_factor(p: int) -> float:
    """The local factor of tau as a scalar float expression (the oracle
    of the numpy factors)."""
    x = chi(p)
    return (
        (1 - 1 / p) ** 4
        * (1 - x / p) ** 2
        * (1 + (3 + 2 * x + x * x) / p + (x * x) / (p * p))
    )


class TestEulerProduct:
    def test_factor_at_2(self):
        assert C.tau_factor_exact(2) == Fraction(5, 32)

    def test_factor_at_3(self):
        expect = Fraction(2, 3) ** 4 * Fraction(4, 3) ** 2 * (1 + Fraction(2, 3) + Fraction(1, 9))
        assert C.tau_factor_exact(3) == expect

    def test_cutoff_consistency(self):
        t4, tail4 = C.tamagawa_euler_product(10**4)
        t5, _ = C.tamagawa_euler_product(10**5)
        assert abs(t4 - t5) <= tail4

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            C.tamagawa_euler_product(10)

    def test_product_is_the_scalar_loop(self):
        # bit for bit; numpy's ** in place of np.float_power breaks this on
        # AVX-512 CPUs.  past_block has one prime past a block.
        past_block = int(primes_up_to(10**6)[C._EULER_BLOCK])
        assert len(primes_up_to(past_block)) == C._EULER_BLOCK + 1
        for cutoff in (100, 10**4, past_block, 10**6):
            total = 1.0
            for p in primes_up_to(cutoff).tolist():
                total *= scalar_tau_factor(p)
            assert C.tamagawa_euler_product(cutoff)[0] == total, cutoff


def searched_root_count(c, p, w):
    """#{x mod p^w : x^2 = c (mod p^w)} by exhaustive search.  Every root
    mod p^j reduces to a root mod p^(j-1), so checking the p residues
    x + k p^(j-1) over the roots x found mod p^(j-1) finds all of them: a
    residue scan that skips only the residues already ruled out below."""
    roots = np.zeros(1, dtype=np.int64)  # every x is a root mod p^0 = 1
    for j in range(1, w + 1):
        x = (roots[:, None] + p ** (j - 1) * np.arange(p)[None, :]).ravel()
        roots = x[(x * x - c) % p**j == 0]
    return len(roots)


class TestLocalDensities:
    def test_closed_values(self):
        assert C.local_density_closed(2) == Fraction(5, 2)
        assert C.local_density_closed(3) == Fraction(16, 9)
        assert C.local_density_closed(5) == Fraction(56, 25)

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3),
                                     (5, 1), (5, 2), (7, 1)])
    def test_naive_is_oracle_for_tables(self, p, r):
        assert C.local_density_brute(p, r, mode="naive") == \
            C.local_density_brute(p, r, mode="tables")

    def test_frozen_small_counts(self):
        assert C.local_density_brute(2, 1) == Fraction(8, 8)
        assert C.local_density_brute(2, 2) == Fraction(80, 64)
        assert C.local_density_brute(3, 1) == Fraction(21, 27)
        assert C.local_density_brute(3, 2) == Fraction(891, 729)

    def test_sequence_increases_toward_limit(self):
        vals = [C.local_density_brute(2, r, mode="tables") for r in range(1, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(v <= Fraction(5, 2) for v in vals)

    def test_parity_subsequences_monotone_p3(self):
        # at p = 3 the raw sequence oscillates with the parity of r, but each
        # parity subsequence increases from below toward the closed form
        vals = [C.local_density_brute(3, r, mode="tables") for r in range(1, 7)]
        closed = C.local_density_closed(3)
        assert all(v <= closed for v in vals)
        assert all(a <= b for a, b in zip(vals[0::2], vals[2::2]))
        assert all(a <= b for a, b in zip(vals[1::2], vals[3::2]))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_root_counts_against_a_search(self, p):
        for w in range(9):
            assert C._roots_of_minus_square(p, w, w) == searched_root_count(0, p, w), (p, w)
            for v in range(6):
                got = C._roots_of_minus_square(p, v, w)
                assert got == searched_root_count(-p ** (2 * v), p, w), (p, v, w)

    def test_tables_scan_no_residues(self):
        # O(r^2) integer steps, where a scan of the 2^23 residues takes seconds
        t0 = time.perf_counter()
        assert C.local_density_brute(2, 23) == Fraction(19, 8)
        assert time.perf_counter() - t0 < 0.5

    def test_caps(self):
        with pytest.raises(SizeCapError):
            C.local_density_brute(7, 2, mode="naive")
        # FAST_DENSITY_CAP = 2^160; the density at 2 nears 5/2 from below
        assert 0 < Fraction(5, 2) - C.local_density_brute(2, 160) < Fraction(1, 2**25)
        with pytest.raises(SizeCapError):
            C.local_density_brute(2, 161, mode="tables")


class TestLattice:
    def test_checks_pass(self):
        rep = C.picard_lattice_checks()
        assert rep["deg"] == 4
        assert rep["K_dot_E"] == [0, 0, 0, 0]
        assert rep["K_dot_L"] == [1, 1]
        assert rep["picard_rank"] == 4

    def test_pairing_examples(self):
        M = np.array(C.INTERSECTION_MATRIX)
        e1 = np.array((1, 0, 0, 0, 0, 0))
        e2 = np.array((0, 1, 0, 0, 0, 0))
        assert e1 @ M @ e2 == 1
        assert e1 @ M @ e1 == -2
        K = np.array(C.ANTICANONICAL)
        assert K @ M @ K == 4


class TestBundle:
    def test_leading_coefficient_identities(self):
        c, _ = C.real_density_integral()
        tau, _ = C.tamagawa_euler_product(10**4)
        lead = C.leading_coefficient(c, tau)
        om, _ = C.archimedean_density()
        peyre = float(C.peyre_alpha()) * C.tamagawa_measure(om, tau)
        assert abs(lead - peyre) <= 1e-12 * abs(lead) * 10
        assert lead > 0

    def test_bundle_cross_identities(self):
        b = C.constant_bundle(prime_cutoff=10**4, beta_cutoff=10)
        assert abs(b.omega_inf - 16 * b.c) <= b.omega_inf_error + 16 * b.c_error
        assert abs(b.peyre - b.leading_coeff) <= 1e-9 * abs(b.leading_coeff) + b.peyre_error
        assert b.alpha == Fraction(1, 288)
        assert b.tau_tail > 0 and b.beta_tail > 0
