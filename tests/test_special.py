"""Tests for gamma, Mittag-Leffler and the one-sided stable density."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, gammaln

from subdiff_control.errors import DomainError, EvaluationError, PoleError
from subdiff_control.special import (
    MLParams,
    StableDensityParams,
    gamma_fn,
    mittag_leffler,
    mittag_leffler_array,
    phi_alpha,
    phi_alpha_moment,
    psi_alpha,
)

# Lower integration cutoffs below which the density is certified negligible
# (stretched-exponential decay puts psi under ~1e-12 there).
_PSI_FLOOR = {0.25: 1.3e-6, 0.4: 8.0e-4, 0.5: 6.8e-3, 0.75: 1.7e-1}


def _psi_tail_mass(alpha: float, A: float) -> float:
    """integral_A^infinity of the density, term by term from its series.

    The break test uses the sin-free envelope: individual terms vanish at
    multiples of 1/alpha and must not stop the summation early.
    """
    s = 0.0
    for n in range(1, 400):
        env = (
            math.exp(gammaln(n * alpha + 1) - gammaln(n + 1.0))
            * A ** (-alpha * n)
            / (math.pi * alpha * n)
        )
        s += env * (-1) ** (n - 1) * math.sin(n * math.pi * alpha)
        if env < 1e-18:
            break
    return s


class TestGamma:
    def test_factorials(self):
        assert gamma_fn(5) == pytest.approx(24.0, rel=1e-14)
        assert gamma_fn(1) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_04_against_quadrature_oracle(self):
        with mp.workdps(40):
            oracle = float(mp.quad(lambda t: t ** mp.mpf("-0.6") * mp.e**-t, [0, mp.inf]))
        assert gamma_fn(0.4) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("x", [0, -1, -2, -7])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_accuracy_grid(self):
        with mp.workdps(40):
            for x in np.linspace(0.1, 50.0, 61):
                assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)


class TestMittagLeffler:
    def test_exp_identity_grid(self):
        for z in np.linspace(-20.0, 5.0, 76):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-10)

    def test_cos_identity(self):
        x = math.pi / 2.0
        assert abs(mittag_leffler(2.0, 1.0, -(x**2))) <= 1e-10
        for x in np.linspace(0.1, 5.0, 23):
            assert mittag_leffler(2.0, 1.0, -(x**2)) == pytest.approx(
                math.cos(x), abs=1e-10
            )

    def test_z_zero_is_reciprocal_gamma(self):
        for p in (0.1, 0.4, 1.0, 1.7):
            for q in (0.3, 0.4, 1.0, 2.0):
                assert mittag_leffler(p, q, 0.0) == pytest.approx(
                    1.0 / gamma_fn(q), rel=1e-13
                )

    def test_long_series_oracle(self):
        # E_{0.4,0.4}(-5) from a 600-term series summed at 80 digits; the
        # alternating terms peak near e^{5^{2.5}} so the sum needs both the
        # guard digits and enough terms to pass well beyond the peak.
        with mp.workdps(80):
            acc = mp.mpf(0)
            for k in range(600):
                acc += mp.mpf(-5) ** k / mp.gamma(mp.mpf("0.4") * k + mp.mpf("0.4"))
            oracle = float(acc)
        assert mittag_leffler(0.4, 0.4, -5.0) == pytest.approx(oracle, rel=1e-10)

    def test_deep_negative_against_high_precision(self):
        # Spot checks across both evaluation branches.
        # |z|^(1/p) sets the oracle cost (digits and terms), so each case keeps
        # it modest while still crossing into the asymptotic branch.
        cases = [(0.4, 0.4, -6.0), (0.7, 1.0, -30.0), (0.98, 1.7, -30.0), (0.3, 1.0, -4.9)]
        for p, q, z in cases:
            x = abs(z) ** (1.0 / p)
            with mp.workdps(80 + int(x)):
                acc = mp.mpf(0)
                pw = mp.mpf(1)
                pm, qm, zm = mp.mpf(p), mp.mpf(q), mp.mpf(z)
                for k in range(int(30 + 10 * x / p) + 400):
                    acc += pw * mp.rgamma(pm * k + qm)
                    pw *= zm
                oracle = float(acc)
            assert mittag_leffler(p, q, z) == pytest.approx(oracle, rel=1e-10)

    def test_peak_term_beyond_double_range(self):
        # For p near 1 the series runs at any |z|; at z = -700 its peak term
        # (~1e324) overflows a double although the sum is ~2e-8.
        p = q = 0.99
        z = -700.0
        with mp.workdps(400):
            acc = mp.mpf(0)
            pw = mp.mpf(1)
            pm, zm = mp.mpf(p), mp.mpf(z)
            for k in range(4000):
                term = pw * mp.rgamma(pm * k + pm)
                acc += term
                if k > 1000 and abs(term) < mp.mpf(10) ** -60:
                    break
                pw *= zm
            oracle = float(acc)
        assert mittag_leffler(p, q, z) == pytest.approx(oracle, rel=1e-12)

    def test_monotone_decay_in_time(self):
        lam = -(math.pi**2)
        for alpha in (0.3, 0.5, 0.8):
            prev = 1.0
            for t in np.linspace(0.05, 3.0, 30):
                val = mittag_leffler(alpha, 1.0, lam * t**alpha)
                assert 0.0 < val <= 1.0
                assert val <= prev + 1e-13
                prev = val

    def test_array_wrapper(self):
        z = np.array([[-1.0, 0.0], [2.0, -5.0]])
        out = mittag_leffler_array(1.0, 1.0, z)
        assert out.shape == z.shape
        assert np.allclose(out, np.exp(z), rtol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            MLParams(-0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 1.0)

    def test_overflow_raises(self):
        with pytest.raises(EvaluationError):
            mittag_leffler(0.3, 1.0, 1e3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=5.0))
    def test_exp_identity_property(self, z):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_zero_argument_property(self, p, q):
        assert mittag_leffler(p, q, 0.0) == pytest.approx(1.0 / gamma_fn(q), rel=1e-12)


class TestStableDensity:
    def test_domain_validation(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                psi_alpha(alpha, 1.0)
        with pytest.raises(DomainError):
            psi_alpha(0.5, 0.0)
        with pytest.raises(DomainError):
            StableDensityParams(0.5, -1.0)

    def test_levy_smirnov_closed_form(self):
        for th in (0.5, 1.0, 2.0):
            closed = th**-1.5 * math.exp(-1.0 / (4.0 * th)) / (2.0 * math.sqrt(math.pi))
            assert psi_alpha(0.5, th) == pytest.approx(closed, rel=1e-8)

    def test_tail_series_matches_erf_at_half(self):
        A = 40.0
        assert _psi_tail_mass(0.5, A) == pytest.approx(
            float(erf(1.0 / (2.0 * math.sqrt(A)))), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.5, 0.75])
    def test_normalization(self, alpha):
        floor = _PSI_FLOOR[alpha]
        A = 40.0
        v1, _ = quad(lambda x: psi_alpha(alpha, x), floor, 1.0, limit=400, epsabs=1e-11, epsrel=1e-11)
        v2, _ = quad(lambda x: psi_alpha(alpha, x), 1.0, A, limit=400, epsabs=1e-11, epsrel=1e-11)
        assert v1 + v2 + _psi_tail_mass(alpha, A) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.5, 0.75])
    def test_laplace_identity(self, alpha):
        # integral e^{-theta} psi_alpha(theta) dtheta = e^{-1}
        floor = _PSI_FLOOR[alpha]
        lap, _ = quad(
            lambda x: math.exp(-x) * psi_alpha(alpha, x),
            floor,
            60.0,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert lap == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_non_negative(self):
        for alpha in (0.25, 0.5, 0.75):
            for th in np.geomspace(max(_PSI_FLOOR[alpha], 1e-3), 20.0, 25):
                assert psi_alpha(alpha, th) >= 0.0


class TestPhiMoments:
    def test_trivial_zeroth_moment(self):
        for alpha in (0.25, 0.4, 0.75):
            assert phi_alpha_moment(alpha, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_first_moment_formula(self):
        assert phi_alpha_moment(0.4, 1.0) == pytest.approx(1.0 / gamma_fn(1.4), rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
    def test_moment_against_quadrature(self, nu):
        alpha = 0.4
        floor = _PSI_FLOOR[alpha]

        def integrand(t):
            if t ** (-1.0 / alpha) < floor:
                return 0.0
            return t**nu * phi_alpha(alpha, t)

        val, _ = quad(integrand, 0.0, floor**-alpha, limit=400, epsabs=1e-10, epsrel=1e-10)
        assert val == pytest.approx(phi_alpha_moment(alpha, nu), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_alpha_moment(1.2, 1.0)
        with pytest.raises(DomainError):
            phi_alpha_moment(0.4, -1.0)
