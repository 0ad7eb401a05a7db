import math
from math import pi

import pytest

from delpezzo import arith as A
from delpezzo import constants as C
from delpezzo import torsor as T
from delpezzo import zeta as Z
from delpezzo.errors import DelPezzoError, SizeCapError

CATALAN = 0.9159655941772190150546


def euler_factor_direct(p: int, s: float, exp_budget: int = 30) -> float:
    """Direct-sum oracle: the local factor as a sum of the density weights
    over tuples of p-powers, truncated at v1^4 v2^3 y1^2 y2^2 <= p^budget."""
    sig = s + 0.25
    total = 0.0
    for a in range(exp_budget // 4 + 1):
        for b in (0, 1):
            if 4 * a + 3 * b > exp_budget:
                continue
            c_max = (exp_budget - 4 * a - 3 * b) // 2
            for c in range(c_max + 1):
                d_max = (exp_budget - 4 * a - 3 * b - 2 * c) // 2
                for d in range(d_max + 1):
                    w = A.cell_density(p**a, p**b, p**c, p**d)
                    if w:
                        total += float(w) / p ** (
                            4 * sig * a + (3 * sig + 0.25) * b
                            + (2 * sig + 0.5) * (c + d)
                        )
    return total


class TestClassicalValues:
    def test_zeta_two(self):
        assert abs(Z.zeta_real(2.0).value - pi**2 / 6) <= 1e-10

    def test_l_one(self):
        assert abs(Z.l_chi_real(1.0).value - pi / 4) <= 1e-10

    def test_l_three(self):
        assert abs(Z.l_chi_real(3.0).value - pi**3 / 32) <= 1e-10

    def test_l_two_catalan(self):
        assert abs(Z.l_chi_real(2.0).value - CATALAN) <= 1e-10

    def test_error_fields_honest(self):
        ev = Z.zeta_real(2.0)
        assert abs(ev.value - pi**2 / 6) <= ev.error * 10 + 1e-14
        assert ev.error > 0 and math.isfinite(ev.value)

    @pytest.mark.parametrize("s", [0.05, 0.5, 1.0, 2.0, 4.0, 7.25])
    def test_l_within_its_error(self, s):
        mp = pytest.importorskip("mpmath")
        ev = Z.l_chi_real(s)
        with mp.workdps(30):
            exact = mp.pi / 4 if s == 1 else (mp.zeta(s, 0.25) - mp.zeta(s, 0.75)) / mp.mpf(4) ** s
            assert abs(ev.value - exact) <= ev.error

    def test_large_arguments_underflow(self):
        # 4^s and p^(1 + 4 s) overflow a double here; the values tend to 1
        assert Z.l_chi_real(600.0).value == 1.0
        assert Z.zeta_real(1e300).value == Z.l_chi_real(1e300).value == 1.0
        assert Z.euler_factor(5, 111.0) == Z.euler_factor(2, 256.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DelPezzoError):
            Z.zeta_real(1.0)
        with pytest.raises(DelPezzoError):
            Z.l_chi_real(0.0)

    def test_bitwise_reproducible(self):
        assert Z.zeta_real(2.5).value == Z.zeta_real(2.5).value
        assert Z.l_chi_real(1.5).value == Z.l_chi_real(1.5).value


class TestCompositeProducts:
    def test_correction_at_one_closed_form(self):
        e2 = Z.correction_zeta_product(1.0)
        manual = (
            Z.zeta_real(3.0).value * Z.l_chi_real(3.0).value
            / (Z.zeta_real(2.0).value**4 * Z.l_chi_real(2.0).value**3)
        )
        assert abs(e2.value - manual) <= 1e-12

    def test_correction_finite_positive(self):
        assert Z.correction_zeta_product(2.0).value > 0

    def test_main_product_pole_order(self):
        # (s-1)^4 * E1(s) stabilizes to (1/48) L(1)^2 = pi^2/768
        target = pi**2 / 768
        ratios = [
            Z.main_zeta_product(1 + 10.0**-k).value * (10.0**-k) ** 4
            for k in (2, 3, 4)
        ]
        errs = [abs(r - target) / target for r in ratios]
        assert errs[-1] < 0.01
        assert errs[0] > errs[-1]

    def test_domain_guards(self):
        with pytest.raises(DelPezzoError):
            Z.main_zeta_product(1.0)
        with pytest.raises(DelPezzoError):
            Z.correction_zeta_product(0.8)

    @pytest.mark.parametrize("s", [0.9, 1.0, 1.5, 2.0, 58.0])
    def test_products_are_the_ordered_loops(self, s):
        # bit for bit the factors multiplied, then divided, in the stated order
        z, L = Z.zeta_real, Z.l_chi_real
        if s > 1:
            val = 1.0
            for f, x in ((z, 2 * s - 1), (z, 2 * s - 1), (z, 3 * s - 2), (z, 4 * s - 3),
                         (L, 2 * s - 1), (L, 3 * s - 2)):
                val *= f(x).value
            assert Z.main_zeta_product(s).value == val
        val = z(9 * s - 6).value * L(9 * s - 6).value
        for f, x in ((z, 5 * s - 3), (z, 5 * s - 3), (z, 6 * s - 4), (z, 6 * s - 4),
                     (L, 5 * s - 3), (L, 6 * s - 4), (L, 6 * s - 4)):
            val /= f(x).value
        assert Z.correction_zeta_product(s).value == val

    @pytest.mark.parametrize("s, calls", [(2.0, 6), (1.0, 4)])
    def test_each_distinct_factor_evaluated_once(self, s, calls, monkeypatch):
        # at s = 1, 5s - 3 = 6s - 4 = 2
        seen = []
        for name in ("zeta_real", "l_chi_real"):
            f = getattr(Z, name)
            monkeypatch.setattr(Z, name, lambda x, f=f: seen.append(x) or f(x))
        Z.correction_zeta_product(s)
        assert len(seen) == calls

    def test_relative_errors_propagate_subadditively(self):
        s = 2.0
        e1 = Z.main_zeta_product(s)
        parts = (Z.zeta_real(2 * s - 1), Z.zeta_real(2 * s - 1),
                 Z.zeta_real(3 * s - 2), Z.zeta_real(4 * s - 3),
                 Z.l_chi_real(2 * s - 1), Z.l_chi_real(3 * s - 2))
        budget = sum(p.error / abs(p.value) for p in parts)
        assert e1.error / abs(e1.value) <= budget * (1 + 1e-12)


class TestEulerFactors:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_direct_sum(self, p):
        assert abs(Z.euler_factor(p, 2.0) - euler_factor_direct(p, 2.0)) <= 1e-10

    def test_factors_approach_one(self):
        # monotone envelope within each character class (chi alternates the
        # leading coefficient, so adjacent primes need not be monotone)
        for chain in ((5, 13, 17, 29), (3, 7, 11, 19, 23)):
            vals = [abs(Z.euler_factor(p, 2.0) - 1) for p in chain]
            assert all(a > b for a, b in zip(vals, vals[1:])), chain

    def test_domain(self):
        with pytest.raises(DelPezzoError):
            Z.euler_factor(3, -0.3)

    def test_product_matches_dirichlet_sum(self):
        # at s = 2: prod_{p <= cutoff} euler_factor(p, s) against
        # sum_{n <= n_max} Delta(n) / n^(s + 1/4)
        def product(cutoff):
            return math.prod(Z.euler_factor(p, 2.0) for p in A.primes_up_to(cutoff).tolist())

        def series(n_max):
            return sum(A.main_term_coefficient(n) / n ** 2.25 for n in range(1, n_max + 1))

        coarse = abs(product(30) - series(300))
        fine = abs(product(200) - series(4000))
        assert fine <= 1e-6
        assert fine < coarse


def scalar_residual_factor(p: int) -> float:
    """The factor of H(0) at an odd prime as a scalar float expression (the
    oracle of the numpy factors)."""
    x = A.chi(p)
    return (1 - 1 / p) ** 4 * (1 - x / p) ** 2 * (1 + (4 + 2 * x) / p + 1 / (p * p))


class TestResidualProduct:
    def test_p2_factor(self):
        # H(0)'s factor at p = 2: euler_factor(2, 0) = 2.5 times E1's inverse
        # local factor (1 - 1/2)^4 (1 - chi(2)/2)^2 = 1/16
        assert Z.euler_factor(2, 0) * (1 - 1 / 2) ** 4 * (1 - A.chi(2) / 2) ** 2 == 5 / 32

    def test_product_is_the_scalar_loop(self):
        # bit for bit, as for tau; past_block has one odd prime past a block
        past_block = int(A.primes_up_to(10**6)[C._EULER_BLOCK + 1])
        assert len(A.primes_up_to(past_block)[1:]) == C._EULER_BLOCK + 1
        for cutoff in (100, 10**4, past_block, 10**6):
            total = 5 / 32
            for p in A.primes_up_to(cutoff)[1:].tolist():
                total *= scalar_residual_factor(p)
            assert Z.residual_product_at_zero(cutoff)[0] == total, cutoff

    def test_equals_euler_product(self):
        h0, _ = Z.residual_product_at_zero(10**5)
        tau, _ = C.tamagawa_euler_product(10**5)
        assert abs(h0 - tau) <= 1e-12

    def test_leading_factor_positive(self):
        g1, err = Z.leading_factor_at_one(Z.residual_product_at_zero(10**4))
        assert g1 > 0 and err > 0

    def test_rearranged_identity(self):
        h0 = Z.residual_product_at_zero(10**4)
        g1, _ = Z.leading_factor_at_one(h0)
        e2 = Z.correction_zeta_product(1.0).value
        c, _ = C.real_density_integral()
        assert abs(g1 * e2 - 16 * c * h0[0]) <= 1e-9

    def test_cutoff_cap(self, monkeypatch):
        # the cap is checked before the sieve is built
        def no_sieve(n):
            raise AssertionError("sieved past the cap")

        monkeypatch.setattr(C, "primes_up_to", no_sieve)
        for product in (Z.residual_product_at_zero, C.tamagawa_euler_product):
            with pytest.raises(SizeCapError):
                product(C.PRIME_CUTOFF_CAP + 1)


class TestDecomposition:
    def test_partial_sum_base(self):
        assert T.main_term_partial_sum(1) == 1.0

    def test_rows_schema_and_magnitude(self):
        rows = Z.count_decomposition([100, 1000], beta_cutoff=20)
        assert [r["B"] for r in rows] == [100, 1000]
        for r in rows:
            assert set(r) == {"B", "n_uh", "main_delta", "main_linear",
                              "residual", "residual_scaled"}
            assert r["n_uh"] > 0
            # main term captures the count to a few percent even this low
            assert abs(r["residual"]) < 0.1 * r["n_uh"]

    def test_cap_propagates(self):
        with pytest.raises(SizeCapError):
            Z.count_decomposition([10**9 + 1], beta_cutoff=100)
