"""Tests for gamma, Mittag-Leffler and the one-sided stable density."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, gamma, gammaln, kv, rgamma

from subdiff_control import special
from subdiff_control.errors import DomainError, EvaluationError, PoleError
from subdiff_control.special import (
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


def _package_env() -> dict:
    """The environment with this package's source directory on PYTHONPATH, for subprocesses."""
    return dict(os.environ, PYTHONPATH=str(Path(special.__file__).parents[1]))


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

    @pytest.mark.parametrize("x", [-math.inf, math.inf, math.nan])
    def test_non_finite_argument_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    @pytest.mark.parametrize("x", [0, -1, -2, -7])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_accuracy_grid(self):
        with mp.workdps(40):
            for x in np.linspace(0.1, 50.0, 61):
                assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)

    def test_math_gamma_matches_scipy(self):
        xs = np.linspace(-29.99, 169.99, 2001)  # steps of 0.1, clear of the poles
        for ours, oracle in ((gamma_fn, gamma), (special._rgamma, rgamma)):
            got = np.array([ours(x) for x in xs.tolist()])
            np.testing.assert_allclose(got, oracle(xs), rtol=4e-15, atol=0.0)

    def test_limits_match_scipy(self):
        for x in (171.7, 200.0, 1e-320, -1e-320):
            assert gamma_fn(x) == gamma(x)  # inf, inf, inf, -inf
        for x in (171.7, 200.0, 1e-320):
            assert special._rgamma(x) == rgamma(x)  # 0, 0, 1e-320
        # 1/Gamma(x) = x (1 + O(x)) rounds to x itself; scipy flushes this one to -0.0
        assert special._rgamma(-1e-320) == -1e-320
        assert abs(rgamma(-1e-320) - -1e-320) <= 1e-320

    @pytest.mark.parametrize("x", [0.0, -3.0])
    def test_rgamma_vanishes_at_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)
        assert special._rgamma(x) == rgamma(x) == 0.0

    def test_rgamma_on_the_algebraic_expansion_arguments(self):
        # Every 1/Gamma(q - p j) the expansion can form (j <= 400), plus the two
        # arguments where 1/Gamma is finite but scipy's rgamma overflows to -inf.
        xs = [q - p * j for p in np.linspace(0.04, 0.98, 25).tolist() for q in (1.0, p)
              for j in range(401)] + [-170.8, -170.9]
        for x in xs:
            got, ref = special._rgamma(x), mp.rgamma(x)
            if abs(ref) < np.finfo(float).max:
                assert got == pytest.approx(float(ref), rel=8 * np.finfo(float).eps, abs=0.0), x
            else:
                assert got == math.copysign(math.inf, float(mp.sign(ref))), x


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

    def test_positive_asymptotic_branch(self):
        # x = z^(1/p) > 30 takes the exponential expansion.  Closed form:
        # E_{1/2,1}(z) = exp(z^2) erfc(-z).
        for z in (5.6, 6.0, 8.0, 12.0, 20.0):
            with mp.workdps(40):
                closed = float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z)))
            assert mittag_leffler(0.5, 1.0, z) == pytest.approx(closed, rel=1e-13)
        # General indices against the power series, summed past its peak
        # term (~e^x) with enough guard digits.
        for p, q, z in ((0.8, 1.0, 20.0), (0.7, 0.7, 15.0)):
            x = z ** (1.0 / p)
            with mp.workdps(60 + int(x)):
                acc = mp.mpf(0)
                pw = mp.mpf(1)
                pm, qm, zm = mp.mpf(p), mp.mpf(q), mp.mpf(z)
                for k in range(int(30 + 10 * x / p) + 400):
                    acc += pw * mp.rgamma(pm * k + qm)
                    pw *= zm
                oracle = float(acc)
            assert mittag_leffler(p, q, z) == pytest.approx(oracle, rel=1e-12)

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
            mittag_leffler(0.0, 1.0, 1.0)
        for p in (0.5, 0.99):
            for z in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    mittag_leffler(p, 1.0, z)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, math.nan, -1.0)

    def test_overflow_raises(self):
        with pytest.raises(EvaluationError):
            mittag_leffler(0.3, 1.0, 1e3)

    def test_argument_beyond_double_range_of_x(self):
        # |z|^(1/p) = 1e400 leaves the double range; the algebraic expansion still
        # holds: E_{1/2,1}(z) = e^{z^2} erfc(-z) ~ -1/(sqrt(pi) z)
        val = mittag_leffler(0.5, 1.0, -1e200)
        assert val == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e200), rel=1e-12)
        with pytest.raises(EvaluationError):
            mittag_leffler(0.5, 1.0, 1e200)

    def test_series_beyond_its_digit_cap_ends_at_once(self):
        # p > 0.98 always takes the series; at z = -1e200 its peak term needs ~6e132
        # digits, so the call is refused up front instead of summing ~1e134 terms
        code = (
            "from subdiff_control.errors import EvaluationError\n"
            "from subdiff_control.special import mittag_leffler\n"
            "try:\n"
            "    print(mittag_leffler(1.5, 1.0, -1e200))\n"
            "except EvaluationError as exc:\n"
            "    print('refused:', exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

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


def _neg_z(max_abs):
    """Arguments in [-max_abs, 0]: hypothesis' own floats plus a log-uniform spread."""
    log_top = math.log10(max_abs)
    return st.one_of(
        st.floats(min_value=-max_abs, max_value=0.0),
        st.floats(min_value=-8.0, max_value=log_top).map(lambda e: -(10.0**e)),
    )


class TestMittagLefflerArray:
    """The vectorized float64 contour path against the scalar mpmath path as oracle."""

    @settings(max_examples=60, deadline=3000)
    @given(
        st.floats(min_value=0.05, max_value=0.98),
        st.booleans(),
        st.lists(_neg_z(1e6), min_size=1, max_size=4),
    )
    def test_matches_scalar_oracle(self, alpha, beta_is_alpha, z):
        beta = alpha if beta_is_alpha else 1.0
        expected = [mittag_leffler(alpha, beta, zi) for zi in z]
        np.testing.assert_allclose(mittag_leffler_array(alpha, beta, z), expected,
                                   rtol=1e-10, atol=0.0)

    @settings(max_examples=20, deadline=3000)
    @given(
        st.floats(min_value=0.98, max_value=0.999, exclude_min=True),
        st.booleans(),
        _neg_z(200.0),
    )
    def test_matches_scalar_oracle_near_one(self, alpha, beta_is_alpha, z):
        # where the oracle's series is still affordable
        beta = alpha if beta_is_alpha else 1.0
        np.testing.assert_allclose(mittag_leffler_array(alpha, beta, [z]),
                                   [mittag_leffler(alpha, beta, z)], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("p, z", [(0.5, [2.0, 0.0, 25.0]), (1.2, [-3.0, 1.5])])
    def test_outside_the_contour_is_the_scalar_value(self, p, z):
        assert mittag_leffler_array(p, 1.0, z).tolist() == [mittag_leffler(p, 1.0, x) for x in z]

    def test_node_tables_certify_without_the_scalar_path(self, monkeypatch):
        # E_{a,1} and E_{a,a} at lambda_i t_k^a, N=12, n=256: the contour certifies every value
        def scalar(*args):
            raise AssertionError(f"scalar fallback at {args}")

        monkeypatch.setattr(special, "mittag_leffler", scalar)
        lam, t = -((np.pi * np.arange(1, 13)) ** 2), np.linspace(0.0, 1.0, 257)[1:]
        for alpha in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999):
            z = np.outer(lam, t**alpha)
            assert np.all(mittag_leffler_array(alpha, 1.0, z) > 0.0)
            if alpha < 0.999:
                assert np.all(mittag_leffler_array(alpha, alpha, z) > 0.0)

    def test_uncertified_values_fall_back_to_the_scalar(self, monkeypatch):
        monkeypatch.setattr(special, "_CONTOUR_RTOL", 0.0)  # no pass can certify
        z = np.array([[-0.5, -30.0], [-2e3, -7.0]])
        out = mittag_leffler_array(0.7, 0.7, z)
        assert out.tolist() == [[mittag_leffler(0.7, 0.7, x) for x in row] for row in z.tolist()]

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6, 0.9, 0.98])
    @pytest.mark.parametrize("q_is_p", [False, True])
    def test_algebraic_branch_against_the_series(self, p, q_is_p):
        # x = |z|^(1/p) from the expansion's threshold to 300: what it certifies
        # matches the mpmath series (an oracle that shares no code with it), and
        # the scalar bit for bit
        q = p if q_is_p else 1.0
        z = -np.geomspace(special._ALGEBRAIC_X_MIN, 300.0, 6) ** p
        done, alg = special._ml_algebraic(p, q, z)
        assert done.size >= z.size - 1  # all but, at most, the point on the threshold
        assert mittag_leffler_array(p, q, z)[done].tolist() == alg.tolist()
        assert [mittag_leffler(p, q, zi) for zi in z[done].tolist()] == alg.tolist()
        series = [special._ml_series(p, q, zi, abs(zi) ** (1.0 / p)) for zi in z[done].tolist()]
        np.testing.assert_allclose(alg, series, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("q_is_p", [False, True])
    def test_contour_rounding_estimate_bounds_the_error(self, monkeypatch, p, q_is_p):
        # the certificate rests on eps x the magnitude sum bounding the rounding error of
        # the real-part sum, cancellation included: check it against the same float
        # terms summed in 40 digits, for the first pass's near and far sums
        q = p if q_is_p else 1.0
        sums, contour_sum = [], special._contour_sum
        monkeypatch.setattr(special, "_contour_sum", lambda *args: sums.append(args) or contour_sum(*args))
        near, far = -np.geomspace(1e-6, 1.0, 25), -np.geomspace(1e4, 1.0, 25, endpoint=False)
        special._ml_contour(p, q, np.concatenate([near, far]), *special._CONTOUR_PASSES[0], estimate=True)
        assert [r.size for _, _, r, _ in sums] == [25, 25]
        for c, sigma, r, _ in sums:
            acc, mag = contour_sum(c, sigma, r, True)
            with mp.workdps(40):
                ref = [float(sum(mp.re(mp.mpc(ck) / (mp.mpc(sk) - ri))
                                 for ck, sk in zip(c.tolist(), sigma.tolist())))
                       for ri in r.tolist()]
            assert np.all(np.abs(acc - ref) <= np.finfo(float).eps * mag)

    def test_domain_errors(self):
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                mittag_leffler_array(0.5, 1.0, [-1.0, z])
        for p in (0.0, -0.5):
            with pytest.raises(DomainError):
                mittag_leffler_array(p, 1.0, [-1.0, -2.0])


class TestStableDensity:
    def test_domain_validation(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                psi_alpha(alpha, 1.0)
        with pytest.raises(DomainError):
            psi_alpha(0.5, 0.0)

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


def _rel(value, oracle):
    return abs(value / oracle - 1.0)


class TestKanterOracles:
    """psi_alpha and phi_alpha against oracles that share no code with Kanter's integral."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 0.99])
    def test_large_theta_series(self, alpha):
        # (1/pi) sum (-1)^{n+1} Gamma(n alpha+1)/n! sin(n pi alpha) theta^{-n alpha-1},
        # summed in float64 where theta^{-alpha} <= 0.05 (terms fall geometrically)
        for th in np.geomspace(0.05 ** (-1.0 / alpha), 1e4 * 0.05 ** (-1.0 / alpha), 25):
            series = sum(
                (-1) ** (n + 1)
                * math.exp(gammaln(n * alpha + 1) - gammaln(n + 1.0) - (n * alpha + 1) * math.log(th))
                * math.sin(n * math.pi * alpha)
                for n in range(1, 60)
            ) / math.pi
            assert _rel(psi_alpha(alpha, th), series) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_small_theta_wright_series(self, alpha):
        # phi_alpha(theta) = sum (-theta)^n / (n! Gamma(1 - alpha - alpha n))
        for th in np.geomspace(1e-12, 0.05, 25):
            series, term = 0.0, 1.0
            for n in range(30):
                series += term * rgamma(1.0 - alpha - alpha * n)
                term *= -th / (n + 1)
            assert _rel(phi_alpha(alpha, th), series) <= 1e-12

    def test_one_third_bessel_closed_form(self):
        # psi_{1/3}(x) = x^{-3/2} K_{1/3}(2 / sqrt(27 x)) / (3 pi)
        for x in np.geomspace(1e-3, 1e6, 40):
            closed = x**-1.5 * kv(1.0 / 3.0, 2.0 / math.sqrt(27.0 * x)) / (3.0 * math.pi)
            assert _rel(psi_alpha(1.0 / 3.0, x), closed) <= 1e-12

    @pytest.mark.parametrize("theta", [10.0, 30.0, 37.0])
    def test_half_gaussian_tail(self, theta):
        # phi_{1/2} is the half-Gaussian e^{-theta^2/4}/sqrt(pi); 37 gives ~1e-149
        closed = math.exp(-theta * theta / 4.0) / math.sqrt(math.pi)
        assert _rel(phi_alpha(0.5, theta), closed) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_subordination_laplace_transform(self, alpha, s):
        # the mode-wise propagator: int_0^inf phi_alpha(theta) e^{-s theta} = E_alpha(-s)
        def f(th):
            return phi_alpha(alpha, th) * math.exp(-s * th)

        head, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        tail, _ = quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert _rel(head + tail, mittag_leffler(alpha, 1.0, -s)) <= 1e-10

    def test_edge_arguments(self):
        for f in (psi_alpha, phi_alpha):
            for th in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(DomainError):
                    f(0.5, th)
        for th in (100.0, 1e3, 1e200):
            assert phi_alpha(0.5, th) == 0.0

    def test_certified_over_the_domain(self):
        for alpha in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            for th in np.geomspace(1e-8, 1e4, 40):
                for f in (psi_alpha, phi_alpha):
                    v = f(alpha, th)
                    assert math.isfinite(v) and v >= 0.0


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no scipy module, quad's included, is imported until a path needs it
    code = ("import subdiff_control.cli, sys\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert 'scipy.integrate' not in loaded and not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_synthesize_leaves_mpmath_unloaded(tmp_path):
    # the README config certifies every table value on the contour, so the scalar
    # series, and with it mpmath, is never imported
    cfg = {"alpha": 0.4, "T": 1.0, "n_modes": 5, "n_steps": 256, "y0": [1.0, 0.0, 0.0, 0.0, 0.0],
           "actuator": {"kind": "zone", "a": 0.2, "b": 0.5}, "target_modes": [2, 3, 4, 5]}
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = (
        "import sys\n"
        "from subdiff_control import cli\n"
        f"code = cli.main(['synthesize', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_run_loads_neither_scipy_nor_mpmath(tmp_path):
    # gamma is math.gamma, the Toeplitz maps are numpy, and the zone example's config
    # (configs/zone.json) certifies every table value on the contour, so a
    # synthesize and a verify reach neither the scalar series nor any scipy path
    cfg = {"alpha": 0.4, "T": 1.0, "n_modes": 5, "n_steps": 256, "y0": [1.0, 0.0, 0.0, 0.0, 0.0],
           "actuator": {"kind": "zone", "a": 0.2, "b": 0.5}, "target_modes": [2, 3, 4, 5],
           "tolerances": {"gramian_rank": 1e-10, "verify_distance": 1e-4}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = (
        "import sys\n"
        "from subdiff_control import cli\n"
        "for command in ('synthesize', 'verify'):\n"
        f"    code = cli.main([command, '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r}])\n"
        "    assert code == 0, (command, code)\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'})\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_penalization_loads_neither_scipy_nor_mpmath(tmp_path):
    # a CLI sweep (mild form) and an in-process caputo sweep and solve stay on numpy
    cfg = {"alpha": 0.4, "T": 1.0, "n_modes": 5, "n_steps": 128, "y0": [1.0, 0.0, 0.0, 0.0, 0.0],
           "actuator": {"kind": "zone", "a": 0.2, "b": 0.5}, "target_modes": [2, 3, 4, 5]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = (
        "import sys\n"
        "from subdiff_control import cli, config, penalized\n"
        f"code = cli.main(['sweep', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path)!r},"
        " '--eps', '1e-2,1e-4'])\n"
        "assert code == 0, code\n"
        f"cfg = config.ProblemConfig(**{cfg!r})\n"
        "penalized.epsilon_sweep(cfg, [1e-2, 1e-4], 'caputo')\n"
        "penalized.solve_penalized(penalized.PenalizedProblem(cfg, 1e-3, 'caputo'))\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'})\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env())
    assert proc.returncode == 0, proc.stderr
