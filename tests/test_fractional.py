"""Tests for the discrete fractional operators and their calculus identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subdiff_control.errors import DomainError
from subdiff_control.fractional import (
    SampledSignal,
    _kernel_convolve,
    _kernel_matrix,
    _kernel_weights,
    _lower_toeplitz,
    caputo_left,
    reflect,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral_left,
    rl_integral_right,
)
from subdiff_control.special import gamma_fn


def _signal(fn, n=129, t0=0.0, t1=1.0):
    t = np.linspace(t0, t1, n)
    return SampledSignal(fn(t), t0, t1)


def _rng_polys(seed, count, deg=5):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=deg + 1) for _ in range(count)]


def _poly_rl_left(coeffs, alpha, t):
    """Closed form of the left RL integral of a polynomial: term-wise Beta rule."""
    out = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        out += c * gamma_fn(k + 1) / gamma_fn(k + 1 + alpha) * t ** (k + alpha)
    return out


def _poly_rl_right(coeffs_in_Tmt, alpha, t, T):
    """Right RL integral of a polynomial written in powers of (T - t)."""
    out = np.zeros_like(t)
    for k, c in enumerate(coeffs_in_Tmt):
        out += c * gamma_fn(k + 1) / gamma_fn(k + 1 + alpha) * (T - t) ** (k + alpha)
    return out


class TestSignalType:
    def test_invariants(self):
        with pytest.raises(DomainError):
            SampledSignal(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            SampledSignal(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(DomainError):
            SampledSignal(np.zeros(5), 1.0, 0.5)

    def test_grid(self):
        sig = SampledSignal(np.zeros(5), 0.0, 2.0)
        assert sig.h == pytest.approx(0.5)
        assert np.allclose(sig.grid, [0.0, 0.5, 1.0, 1.5, 2.0])


class TestCaputo:
    def test_constant_maps_to_zero(self):
        sig = _signal(lambda t: 3.7 * np.ones_like(t))
        out = caputo_left(sig, 0.5)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_power_rule_t_squared(self):
        # Caputo of t^2 at order 1/2 is Gamma(3)/Gamma(2.5) t^{3/2}.
        sig = _signal(lambda t: t**2, n=257)
        out = caputo_left(sig, 0.5)
        exact = gamma_fn(3.0) / gamma_fn(2.5) * sig.grid**1.5
        assert np.max(np.abs(out.values - exact)) <= 5.0 * sig.h

    def test_power_rule_against_defining_integral(self):
        # Cross-check the analytic power rule by adaptive quadrature of the
        # defining integral at a few interior times.
        alpha = 0.5
        for t in (0.3, 0.7, 1.0):
            val, _ = quad(
                lambda s: (t - s) ** (-alpha) * 2.0 * s, 0.0, t, points=[t], limit=200
            )
            val /= gamma_fn(1.0 - alpha)
            assert val == pytest.approx(gamma_fn(3.0) / gamma_fn(2.5) * t**1.5, rel=1e-8)

    def test_order_near_one_gives_classical_derivative(self):
        sig = _signal(np.sin, n=257, t1=1.0)
        out = caputo_left(sig, 0.999)
        interior = slice(16, -1)
        err = np.abs(out.values[interior] - np.cos(sig.grid[interior]))
        assert np.max(err) <= 2e-2

    def test_exactness_on_t_squared(self):
        # The product quadrature integrates the kernel exactly against the
        # piecewise-linear derivative, and (t^2)' is linear: exact to rounding.
        for n in (65, 129, 257):
            sig = _signal(lambda t: t**2, n=n)
            out = caputo_left(sig, 0.5)
            exact = gamma_fn(3.0) / gamma_fn(2.5) * sig.grid**1.5
            assert np.max(np.abs(out.values - exact)) <= 1e-12

    def test_convergence_order_under_refinement(self):
        # t^{2.5} has a genuinely curved derivative, so the scheme error is
        # nonzero and must shrink at observed order >= 0.9 per grid doubling.
        errs = []
        for n in (65, 129, 257):
            sig = _signal(lambda t: t**2.5, n=n)
            out = caputo_left(sig, 0.5)
            exact = gamma_fn(3.5) / gamma_fn(3.0) * sig.grid**2.0
            errs.append(np.max(np.abs(out.values - exact)))
        order = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        assert min(order) >= 0.9

    def test_order_domain(self):
        sig = _signal(lambda t: t)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                caputo_left(sig, bad)


class TestKernelQuadrature:
    @pytest.mark.parametrize("gamma", [-0.7, -0.25, 0.4])
    def test_convolution_and_matrix_match_node_loop(self, gamma):
        # Reference: the product quadrature summed node by node.
        h = 0.05
        values = np.cos(np.arange(41) * h) + np.arange(41) * h
        w_left, w_right = _kernel_weights(values.size, h, gamma)
        loop = np.zeros(values.size)
        for k in range(1, values.size):
            loop[k] = np.dot(values[:k], w_left[k - 1 :: -1]) + np.dot(
                values[1 : k + 1], w_right[k - 1 :: -1]
            )
        assert np.allclose(_kernel_convolve(values, h, gamma), loop, rtol=1e-13, atol=0.0)
        matrix = _kernel_matrix(values.size, h, gamma)
        assert np.allclose(matrix @ values, loop, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rows", [9, 10])
    def test_lower_toeplitz_matches_scipy(self, rows):
        from scipy.linalg import toeplitz

        col = np.random.default_rng(rows).standard_normal(rows)
        np.testing.assert_array_equal(_lower_toeplitz(col, 9), toeplitz(col, np.zeros(9)))


class TestRLIntegral:
    def test_order_one_is_ordinary_integral(self):
        sig = _signal(lambda t: np.ones_like(t))
        out = rl_integral_left(sig, 1.0)
        assert np.allclose(out.values, sig.grid, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.4])
    def test_constant_closed_form(self, alpha):
        sig = _signal(lambda t: np.ones_like(t), n=257)
        out = rl_integral_left(sig, alpha)
        exact = sig.grid**alpha / gamma_fn(alpha + 1.0)
        assert np.max(np.abs(out.values - exact)) <= 10.0 * sig.h ** min(alpha, 1.0)

    def test_right_integral_constant_closed_form(self):
        alpha = 0.6
        sig = _signal(lambda t: np.ones_like(t), n=257)
        out = rl_integral_right(sig, alpha)
        exact = (1.0 - sig.grid) ** alpha / gamma_fn(alpha + 1.0)
        assert np.max(np.abs(out.values - exact)) <= 10.0 * sig.h**alpha

    def test_inversion_identity_on_linear(self):
        # Caputo after RL integral of the same order returns z for z(0) = 0.
        alpha = 0.5
        sig = _signal(lambda t: t, n=257)
        out = caputo_left(rl_integral_left(sig, alpha), alpha)
        assert np.max(np.abs(out.values - sig.values)) <= 10.0 * sig.h**0.5

    def test_deriv_left_power_rule(self):
        # RL derivative of t^alpha is the constant Gamma(alpha+1).
        for alpha in (0.3, 0.6):
            sig = _signal(lambda t: t**alpha, n=257)
            out = rl_deriv_left(sig, alpha)
            interior = slice(8, -1)
            err = np.abs(out.values[interior] - gamma_fn(alpha + 1.0))
            assert np.max(err) <= 20.0 * sig.h ** min(alpha, 1.0 - alpha)


class TestReflection:
    def test_definition(self):
        sig = SampledSignal(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(reflect(sig).values, [3.0, 2.0, 1.0])

    def test_involution(self):
        sig = _signal(np.cos, n=65)
        assert np.allclose(reflect(reflect(sig)).values, sig.values)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_reflection_identities_on_polynomials(self, alpha, n):
        # All four reflection identities, validated against the *continuous*
        # closed forms so the check is not circular with the implementation.
        T = 1.0
        tol = 10.0 * ((T / (n - 1)) ** min(alpha, 1.0 - alpha))
        for coeffs in _rng_polys(11, 3):
            t = np.linspace(0.0, T, n)
            vals = np.polynomial.polynomial.polyval(t, coeffs)
            sig = SampledSignal(vals, 0.0, T)
            # Q I_left = I_right Q: the reflected signal is the same
            # polynomial in (T - t), whose right integral has a closed form.
            lhs = reflect(rl_integral_left(sig, alpha)).values
            rhs = _poly_rl_right(coeffs, alpha, t, T)
            assert np.max(np.abs(lhs - rhs)) <= tol
            direct = rl_integral_right(reflect(sig), alpha).values
            assert np.max(np.abs(direct - rhs)) <= tol
            # Q I_right = I_left Q via the left-sided closed form.
            lhs2 = reflect(rl_integral_right(sig, alpha)).values
            sig_r = reflect(sig)
            rhs2_exact = _poly_rl_left(
                np.polynomial.polynomial.polyfit(t, sig_r.values, len(coeffs) - 1),
                alpha,
                t,
            )
            assert np.max(np.abs(lhs2 - rhs2_exact)) <= tol

    def test_reflection_identity_error_decreases(self):
        alpha = 0.3
        coeffs = _rng_polys(3, 1)[0]
        errs = []
        for n in (65, 129, 257):
            t = np.linspace(0.0, 1.0, n)
            sig = SampledSignal(np.polynomial.polynomial.polyval(t, coeffs), 0.0, 1.0)
            lhs = reflect(rl_integral_left(sig, alpha)).values
            rhs = _poly_rl_right(coeffs, alpha, t, 1.0)
            errs.append(np.max(np.abs(lhs - rhs)))
        assert errs[2] < errs[1] < errs[0]


class TestIntegrationByParts:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_residual_decreases_under_refinement(self, alpha):
        # integral f * (Caputo g) = [g * I_right^{1-a} f]_0^T + integral g * D_right^a f
        residuals = []
        for n in (65, 129, 257):
            t = np.linspace(0.0, 1.0, n)
            h = t[1] - t[0]
            trap = np.full(n, h)
            trap[0] = trap[-1] = h / 2.0
            resid_max = 0.0
            for cf, cg in zip(_rng_polys(5, 5), _rng_polys(17, 5)):
                f = np.polynomial.polynomial.polyval(t, cf)
                g = np.polynomial.polynomial.polyval(t, cg)
                sf = SampledSignal(f, 0.0, 1.0)
                sg = SampledSignal(g, 0.0, 1.0)
                lhs = float(np.dot(trap, f * caputo_left(sg, alpha).values))
                bdry = g * rl_integral_right(sf, 1.0 - alpha).values
                rhs = (bdry[-1] - bdry[0]) + float(
                    np.dot(trap, g * rl_deriv_right(sf, alpha).values)
                )
                resid_max = max(resid_max, abs(lhs - rhs))
            residuals.append(resid_max)
        assert residuals[2] < residuals[1] < residuals[0]
        assert residuals[2] <= 0.1


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_operators_are_linear(self, a, b):
        t = np.linspace(0.0, 1.0, 65)
        f = np.sin(3 * t)
        g = t**2 - t
        for op, order in [
            (caputo_left, 0.4),
            (rl_integral_left, 0.6),
            (rl_integral_right, 0.6),
            (rl_deriv_left, 0.4),
            (rl_deriv_right, 0.4),
        ]:
            combined = op(SampledSignal(a * f + b * g, 0.0, 1.0), order).values
            split = a * op(SampledSignal(f, 0.0, 1.0), order).values + b * op(
                SampledSignal(g, 0.0, 1.0), order
            ).values
            scale = max(1.0, np.max(np.abs(split)))
            assert np.max(np.abs(combined - split)) <= 1e-10 * scale

    def test_alpha_one_limit_of_integral(self):
        sig = _signal(lambda t: np.cos(2 * t), n=257)
        out = rl_integral_left(sig, 1.0)
        exact = np.sin(2 * sig.grid) / 2.0
        assert np.max(np.abs(out.values - exact)) <= 5.0 * sig.h


class TestOrderErrors:
    def test_rl_integral_needs_positive_order(self):
        with pytest.raises(DomainError):
            rl_integral_left(_signal(np.sin), 0.0)

    def test_rl_derivative_needs_order_below_one(self):
        with pytest.raises(DomainError):
            rl_deriv_left(_signal(np.sin), 1.0)
