import math

import numpy as np
import pytest

from rtkrylov.quadrature import QuadratureRule, gauss_legendre, legendre_basis, trapezoid


def analytic_monomial_moment(k, lo=-1.0, hi=1.0):
    # exact integral of x^k on [lo, hi]
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def two_recurrence_gauss_legendre(n, lo, hi):
    """Reference rule whose Newton step runs its own Bonnet recurrence (the
    form the library had before it read P_{n-1} and P_n off legendre_basis)."""
    def p_and_dp(x):
        p_prev = np.ones_like(x)
        p = x.copy()
        for k in range(1, n):
            p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    if n == 1:
        x, w = np.array([0.0]), np.array([2.0])
    else:
        i = np.arange(n)
        x = np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
        for _ in range(100):
            p, dp = p_and_dp(x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        _, dp = p_and_dp(x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        order = np.argsort(x)
        x, w = x[order], w[order]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(1, -1.0, 1.0)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_two_point_unit_interval(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        lo_node = 0.5 - 1.0 / (2.0 * math.sqrt(3.0))
        hi_node = 0.5 + 1.0 / (2.0 * math.sqrt(3.0))
        np.testing.assert_allclose(rule.nodes, [lo_node, hi_node], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)
        # independent oracle: rule must reproduce int_0^1 x^3 dx = 1/4
        approx = np.dot(rule.weights, rule.nodes**3)
        assert approx == pytest.approx(0.25, abs=1e-15)

    def test_second_moment_n12(self):
        rule = gauss_legendre(12, -1.0, 1.0)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 48, 64])
    def test_exact_for_degree_2n_minus_1(self, n):
        rule = gauss_legendre(n, -1.0, 1.0)
        for k in range(2 * n):
            approx = np.dot(rule.weights, rule.nodes ** k)
            assert approx == pytest.approx(analytic_monomial_moment(k), abs=1e-12), k

    @pytest.mark.parametrize("n", list(range(1, 16)))
    def test_error_at_degree_2n_matches_theory(self, n):
        # quadrature error for x^(2n) equals the squared norm of the monic
        # Legendre polynomial: 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^2)
        rule = gauss_legendre(n, -1.0, 1.0)
        approx = np.dot(rule.weights, rule.nodes ** (2 * n))
        err = analytic_monomial_moment(2 * n) - approx
        expected = (
            2.0 ** (2 * n + 1)
            * math.factorial(n) ** 4
            / ((2 * n + 1) * math.factorial(2 * n) ** 2)
        )
        assert err == pytest.approx(expected, rel=1e-8)
        assert err > 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    def test_rule_invariants(self, n):
        rule = gauss_legendre(n, -1.0, 1.0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0)
        assert math.fsum(rule.weights) == pytest.approx(2.0, abs=1e-13)

    def test_half_interval_mapping(self):
        rule = gauss_legendre(6, 0.0, 1.0)
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        assert math.fsum(rule.weights) == pytest.approx(1.0, abs=1e-13)

    def test_matches_numpy_leggauss(self):
        # independent mature implementation as oracle
        for n in (3, 10, 31, 64):
            rule = gauss_legendre(n, -1.0, 1.0)
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(rule.nodes, x_ref, atol=1e-14)
            np.testing.assert_allclose(rule.weights, w_ref, atol=1e-14)

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 1.0)])
    def test_bit_identical_to_two_recurrence_reference(self, lo, hi):
        for n in list(range(1, 65)) + [256]:
            rule = gauss_legendre(n, lo, hi)
            nodes, weights = two_recurrence_gauss_legendre(n, lo, hi)
            assert np.array_equal(rule.nodes, nodes), n
            assert np.array_equal(rule.weights, weights), n

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, -1.0)


class TestTrapezoid:
    def test_two_points(self):
        rule = trapezoid(2, 0.0, 1.0)
        np.testing.assert_allclose(rule.nodes, [0.0, 1.0])
        np.testing.assert_allclose(rule.weights, [0.5, 0.5])

    def test_three_points_wide(self):
        rule = trapezoid(3, -10.0, 10.0)
        np.testing.assert_allclose(rule.nodes, [-10.0, 0.0, 10.0])
        np.testing.assert_allclose(rule.weights, [5.0, 10.0, 5.0])

    def test_lorentzian_mass(self):
        # analytic oracle: int_{-10}^{10} dnu / (pi (nu^2+1)) = (2/pi) atan(10)
        rule = trapezoid(201, -10.0, 10.0)
        phi = 1.0 / (np.pi * (rule.nodes**2 + 1.0))
        expected = (2.0 / math.pi) * math.atan(10.0)
        assert np.dot(rule.weights, phi) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("n,lo,hi", [(2, 0.0, 1.0), (7, -3.0, 5.0), (201, -10.0, 10.0)])
    def test_weights_sum_to_length(self, n, lo, hi):
        rule = trapezoid(n, lo, hi)
        assert math.fsum(rule.weights) == pytest.approx(hi - lo, rel=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            trapezoid(1, 0.0, 1.0)


class TestLegendreEval:
    """Legendre polynomial values, read off the rows of legendre_basis."""

    def test_low_orders(self):
        basis = legendre_basis(1, [0.7])
        assert basis[0, 0] == 1.0
        assert basis[1, 0] == 0.7

    def test_order_seven_monomial_oracle(self):
        # P_7(x) = (429 x^7 - 693 x^5 + 315 x^3 - 35 x) / 16
        x = 0.3
        expected = (429 * x**7 - 693 * x**5 + 315 * x**3 - 35 * x) / 16.0
        assert legendre_basis(7, [x])[7, 0] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 1), (2, 5), (3, 3), (7, 7), (6, 4)])
    def test_orthogonality(self, l, m):
        rule = gauss_legendre(l + m + 2, -1.0, 1.0)
        basis = legendre_basis(max(l, m), rule.nodes)
        integral = np.dot(rule.weights, basis[l] * basis[m])
        expected = 2.0 / (2 * l + 1) if l == m else 0.0
        assert integral == pytest.approx(expected, abs=1e-12)

    def test_vector_input(self):
        x = np.linspace(-1.0, 1.0, 11)
        vals = legendre_basis(3, x)[3]
        np.testing.assert_allclose(vals, 0.5 * (5 * x**3 - 3 * x), atol=1e-14)


def test_rule_dataclass_fields():
    rule = gauss_legendre(3, 0.0, 2.0)
    assert isinstance(rule, QuadratureRule)
    assert rule.interval == (0.0, 2.0)
