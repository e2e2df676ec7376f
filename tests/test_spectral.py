"""Tests for the eigenmode solution operators and the mild solution."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subdiff_control import spectral
from subdiff_control.errors import DomainError, QuadratureError
from subdiff_control.spectral import (
    TimeGrid,
    apply_K,
    apply_R,
    convolution_matrix,
    eigenfunction,
    eigenvalues,
    kernel_step_integrals,
    mild_trajectory,
    propagator_factors,
    terminal_control_map,
)
from subdiff_control.special import mittag_leffler


def _unit(n, i):
    c = np.zeros(n)
    c[i - 1] = 1.0
    return c


class TestTypes:
    def test_field_invariants(self):
        # a state is a non-empty, finite 1-D coefficient array
        for apply in (apply_R, apply_K):
            for state in (np.array([1.0, np.inf]), np.zeros((2, 2)), np.array([])):
                with pytest.raises(DomainError):
                    apply(0.5, 1.0, state)

    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 10)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1)
        g = TimeGrid(2.0, 4)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.all(np.diff(g.nodes) > 0)

    def test_eigenvalues_and_functions(self):
        lam = eigenvalues(3)
        assert lam[0] == pytest.approx(-math.pi**2)
        assert lam[2] == pytest.approx(-9 * math.pi**2)
        # orthonormality of the sine basis on a fine grid
        x = np.linspace(0.0, 1.0, 20001)
        w1 = eigenfunction(1, x)
        w2 = eigenfunction(2, x)
        assert np.trapezoid(w1 * w1, x) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(w1 * w2, x) == pytest.approx(0.0, abs=1e-10)


class TestPropagators:
    def test_R_at_zero_is_identity(self):
        f = np.array([1.0, -2.0, 0.3])
        assert np.allclose(apply_R(0.4, 0.0, f), f)

    def test_R_single_mode_alpha_04(self):
        out = apply_R(0.4, 1.0, _unit(3, 1))
        assert out[0] == pytest.approx(
            mittag_leffler(0.4, 1.0, -math.pi**2), rel=1e-12
        )
        assert out[1] == 0.0

    def test_R_near_classical_limit(self):
        lam = eigenvalues(5)
        for t in (0.1, 0.5, 1.0):
            out = apply_R(0.999, t, np.ones(5))
            # Comparison is absolute at the scale of the (unit) initial data:
            # decayed modes differ enormously in relative terms because the
            # fractional decay is algebraic, not exponential.
            assert np.max(np.abs(out - np.exp(lam * t))) <= 1e-2

    def test_K_single_mode(self):
        alpha, t = 0.4, 0.7
        out = apply_K(alpha, t, _unit(4, 1))
        assert out[0] == pytest.approx(
            mittag_leffler(alpha, alpha, eigenvalues(1)[0] * t**alpha), rel=1e-12
        )

    def test_K_alpha_one_is_exponential(self):
        lam = eigenvalues(3)
        out = apply_K(1.0, 0.5, np.ones(3))
        assert np.allclose(out, np.exp(lam * 0.5), rtol=1e-10)

    def test_K_multiplier_against_series_route(self):
        # alpha * sum_j (j+1) z^j / Gamma(1 + alpha j + alpha) telescopes to
        # the second-kind Mittag-Leffler multiplier; check to 1e-9.
        import mpmath as mp

        alpha, t = 0.4, 0.25
        z = eigenvalues(1)[0] * t**alpha
        # The alternating terms peak around e^{|z|^{1/a}}, so the oracle sum
        # needs both many terms and high working precision.
        with mp.workdps(120):
            am, zm = mp.mpf(alpha), mp.mpf(z)
            acc = float(
                mp.fsum(
                    am * (j + 1) * zm**j / mp.gamma(1 + am * j + am) for j in range(1500)
                )
            )
        assert apply_K(alpha, t, _unit(1, 1))[0] == pytest.approx(acc, abs=1e-9)

    def test_node_table_is_read_only(self):
        grid = TimeGrid(1.0, 8)
        table = propagator_factors(0.5, grid, 2)
        assert table.shape == (2, 9)
        expected = mittag_leffler(0.5, 1.0, eigenvalues(2)[1] * grid.nodes[3] ** 0.5)
        np.testing.assert_allclose(table[1, 3], expected, rtol=1e-13, atol=0.0)
        with pytest.raises(ValueError):
            table[1, 3] = 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_node_table_matches_scalar_calls(self, alpha):
        grid = TimeGrid(1.5, 6)
        table = propagator_factors(alpha, grid, 3)
        lam = eigenvalues(3)
        expected = np.array([
            [mittag_leffler(alpha, 1.0, li * t**alpha) for t in grid.nodes] for li in lam
        ])
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0.0)

    def test_K_requires_positive_time(self):
        with pytest.raises(DomainError):
            apply_K(0.4, 0.0, _unit(2, 1))


class TestMildSolution:
    def test_zero_control_matches_propagator(self):
        grid = TimeGrid(1.0, 32)
        y0 = np.array([1.0, -0.5, 0.25])
        traj = mild_trajectory(0.4, grid, y0, np.ones(3), np.zeros(33))
        for k, t in enumerate(grid.nodes):
            expect = apply_R(0.4, t, y0)
            assert np.allclose(traj[k], expect, rtol=1e-12, atol=1e-15)

    def test_alpha_one_against_variation_of_constants(self):
        # alpha = 1, u = 1, y0 = 0: coefficient is b (e^{lam t} - 1)/lam.
        grid = TimeGrid(1.0, 256)
        b = np.array([0.8])
        traj = mild_trajectory(1.0, grid, np.zeros(1), b, np.ones(257))
        lam = eigenvalues(1)[0]
        exact = b[0] * (np.exp(lam * grid.nodes) - 1.0) / lam
        assert np.max(np.abs(traj[:, 0] - exact)) <= 1e-3

    def test_alpha_half_against_adaptive_quadrature(self):
        alpha = 0.5
        grid = TimeGrid(1.0, 256)
        b = np.array([1.3])
        lam = eigenvalues(1)[0]
        traj = mild_trajectory(alpha, grid, np.zeros(1), b, np.ones(257))
        ml = functools.lru_cache(maxsize=None)(mittag_leffler)  # both integrals share [0, 0.25]
        for t in (0.25, 1.0):
            # integrand already substituted to run from the singular end:
            # integral_0^t s^(a-1) E_{a,a}(lambda s^a) ds
            val, _ = quad(
                lambda s: ml(alpha, alpha, lam * s**alpha),
                0.0,
                t,
                weight="alg",
                wvar=(alpha - 1.0, 0.0),
                limit=200,
            )
            k = int(round(t / grid.h))
            assert traj[k, 0] == pytest.approx(b[0] * val, abs=1e-4)

    def test_grid_refinement_improves_accuracy(self):
        # With the kernel handled exactly, the only quadrature error comes
        # from the midpoint-frozen control, so use a non-constant control.
        alpha = 0.5
        lam = eigenvalues(1)[0]
        t_end = 1.0
        oracle, _ = quad(
            lambda s: mittag_leffler(alpha, alpha, lam * (t_end - s) ** alpha)
            * math.cos(2.0 * s),
            0.0,
            t_end,
            weight="alg",
            wvar=(0.0, alpha - 1.0),
            limit=200,
        )
        errs = []
        for n in (64, 128):
            grid = TimeGrid(t_end, n)
            u = np.cos(2.0 * grid.nodes)
            traj = mild_trajectory(alpha, grid, np.zeros(1), np.ones(1), u)
            errs.append(abs(traj[-1, 0] - oracle))
        assert errs[0] / errs[1] >= 1.5

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_linearity_in_initial_state_and_control(self, a, b):
        grid = TimeGrid(1.0, 24)
        rng = np.random.default_rng(5)
        y0a, y0b = rng.normal(size=3), rng.normal(size=3)
        ua, ub = rng.normal(size=25), rng.normal(size=25)
        infl = np.array([1.0, 0.5, -0.3])
        mixed = mild_trajectory(0.6, grid, a * y0a + b * y0b, infl, a * ua + b * ub)
        split = a * mild_trajectory(0.6, grid, y0a, infl, ua) + b * mild_trajectory(
            0.6, grid, y0b, infl, ub
        )
        assert np.allclose(mixed, split, rtol=1e-9, atol=1e-12)

    def test_zero_input_decay(self):
        grid = TimeGrid(2.0, 64)
        y0 = np.array([1.0, -0.7, 0.4])
        traj = mild_trajectory(0.35, grid, y0, np.ones(3), np.zeros(65))
        mags = np.abs(traj)
        assert np.all(np.diff(mags, axis=0) <= 1e-13)

    def test_mode_decoupling(self):
        grid = TimeGrid(1.0, 32)
        infl = np.array([0.0, 1.0, 0.0])  # loads only mode 2
        u = np.sin(np.linspace(0.0, 3.0, 33))
        traj = mild_trajectory(0.5, grid, np.zeros(3), infl, u)
        assert np.max(np.abs(traj[:, [0, 2]])) == 0.0
        assert np.max(np.abs(traj[:, 1])) > 0.0

    def test_control_shape_validation(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(DomainError):
            mild_trajectory(0.5, grid, np.zeros(2), np.ones(2), np.zeros(5))

    def test_convolution_matrix_matches_trajectory(self):
        grid = TimeGrid(1.0, 40)
        lam = eigenvalues(1)[0]
        u = np.cos(np.linspace(0.0, 2.0, 41))
        L = convolution_matrix(0.45, grid, lam)
        traj = mild_trajectory(0.45, grid, np.zeros(1), np.ones(1), u)
        assert np.allclose(L @ u, traj[:, 0], rtol=1e-12, atol=1e-14)


class TestFFTSimulator:
    """The batched real-FFT convolution against a per-mode direct convolution."""

    @staticmethod
    def _direct(alpha, grid, y0, influence, u):
        # the product quadrature written out: one np.convolve per mode
        g = kernel_step_integrals(alpha, grid, y0.size)
        free = propagator_factors(alpha, grid, y0.size)
        u_mid = 0.5 * (u[:-1] + u[1:])
        traj = np.empty((grid.n_steps + 1, y0.size))
        for i in range(y0.size):
            traj[:, i] = free[i] * y0[i]
            traj[1:, i] += influence[i] * np.convolve(g[i], u_mid)[: grid.n_steps]
        return traj

    @pytest.mark.parametrize("n", [2, 3, 1024])
    def test_matches_direct_convolution(self, n):
        rng = np.random.default_rng(n)
        grid = TimeGrid(1.0, n)
        y0, infl, u = rng.normal(size=8), rng.normal(size=8), rng.normal(size=n + 1)
        traj = mild_trajectory(0.6, grid, y0, infl, u)
        oracle = self._direct(0.6, grid, y0, infl, u)
        assert np.all(np.abs(traj - oracle) <= 1e-13 * np.abs(oracle).max(axis=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_control_is_a_quadrature_error(self, bad):
        u = np.ones(33)
        u[7] = bad
        with pytest.raises(QuadratureError):
            mild_trajectory(0.6, TimeGrid(1.0, 32), np.ones(3), np.ones(3), u)

    def test_memoized_spectrum_is_read_only_and_unchanged(self):
        grid = TimeGrid(1.0, 64)
        modes = spectral._modes(0.45, grid, 4)
        before = modes.spectrum.copy()
        assert modes.spectrum.shape == (4, grid.n_steps + 1)
        for arr in (modes.factors, modes.masses, modes.spectrum, modes.terminal):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        rng = np.random.default_rng(3)
        mild_trajectory(0.45, grid, rng.normal(size=4), rng.normal(size=4), rng.normal(size=65))
        terminal_control_map(0.45, grid, rng.normal(size=4))
        assert spectral._modes(0.45, grid, 4) is modes
        np.testing.assert_array_equal(modes.spectrum, before)


class TestKernelMasses:
    """kernel_step_integrals against quad, not against the table it differences.

    np.diff of the node table multiplies the table's relative error by about
    |E| / |Delta E| (~1e3 at n=1024), so the masses are checked directly: the
    oracle integrates tau^(a-1) E_{a,a}(lambda tau^a) over one step with quad,
    after v = tau^a, as (1/a) int E_{a,a}(lambda v) dv with the scalar mpmath
    E_{a,a}.  The first step holds the kernel's singularity, which v = tau^a removes
    for quad.
    """

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_first_middle_and_last_step(self, alpha):
        grid = TimeGrid(1.0, 1024)
        g = kernel_step_integrals(alpha, grid, 8)
        ml = functools.lru_cache(maxsize=None)(mittag_leffler)  # quad repeats about 1 in 5 nodes
        for i, lam in enumerate(eigenvalues(8)):
            for m in (0, grid.n_steps // 2, grid.n_steps - 1):
                lo, hi = grid.nodes[m] ** alpha, grid.nodes[m + 1] ** alpha
                mass = quad(lambda v: ml(alpha, alpha, lam * v), lo, hi,
                            epsabs=0.0, epsrel=1e-11, limit=100)[0] / alpha
                assert g[i, m] == pytest.approx(mass, rel=1e-10, abs=0.0), (i, m)


class TestTypedErrors:
    def test_apply_R_order_and_time(self):
        f = np.array([1.0, 0.5])
        with pytest.raises(DomainError):
            apply_R(1.5, 1.0, f)
        with pytest.raises(DomainError):
            apply_R(0.5, -1.0, f)

    def test_convolution_matrix_needs_a_model_eigenvalue(self):
        with pytest.raises(DomainError):
            convolution_matrix(0.5, TimeGrid(1.0, 16), -10.0)

    def test_nan_control_is_a_quadrature_error(self):
        u = np.zeros(17)
        u[5] = np.nan
        with pytest.raises(QuadratureError):
            mild_trajectory(0.5, TimeGrid(1.0, 16), np.ones(2), np.ones(2), u)

    @pytest.mark.parametrize("n_influence", [2, 4])
    def test_influence_length_mismatch_is_a_domain_error(self, n_influence):
        with pytest.raises(DomainError, match=f"3 modes .* {n_influence}"):
            mild_trajectory(0.5, TimeGrid(1.0, 16), np.ones(3), np.ones(n_influence), np.zeros(17))

    @pytest.mark.parametrize("n_steps", [2.5, 16.0, "16", None])
    def test_grid_needs_an_integer_step_count(self, n_steps):
        with pytest.raises(DomainError):
            TimeGrid(1.0, n_steps)

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, -1.0, 0.0, "1.0", None, True])
    def test_grid_needs_a_finite_positive_horizon(self, T):
        with pytest.raises(DomainError, match="horizon"):
            TimeGrid(T, 4)

    def test_numpy_integer_steps_share_the_mode_table(self):
        # _modes memoizes on the grid, so a numpy count must hash and compare as the int
        grid = TimeGrid(1.0, np.int64(16))
        assert grid == TimeGrid(1.0, 16) and hash(grid) == hash(TimeGrid(1.0, 16))
        assert spectral._modes(0.5, grid, 2) is spectral._modes(0.5, TimeGrid(1.0, 16), 2)
