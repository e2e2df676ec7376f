"""Tests for the penalization cross-check of the minimum-energy synthesis."""

import math
import tracemalloc

import numpy as np
import pytest

from subdiff_control.config import ProblemConfig
from subdiff_control.errors import DomainError, InfeasibleError
from subdiff_control.fractional import SampledSignal, _derivative, _kernel_matrix, caputo_left
from subdiff_control.penalized import (
    PenalizedProblem,
    _caputo_matrix,
    _caputo_system,
    dynamics_residual,
    epsilon_sweep,
    solve_penalized,
)
from subdiff_control.rhum import control_energy, solve_rhum, steering_system, verify_transfer
from subdiff_control.spectral import TimeGrid, eigenvalues
from subdiff_control.special import gamma_fn


def _small_config(**overrides):
    base = dict(
        alpha=0.6,
        T=1.0,
        n_modes=3,
        n_steps=32,
        y0=(1.0, 0.0, 0.0),
        actuator={"kind": "zone", "a": 0.2, "b": 0.5},
        target_modes=(2, 3),
    )
    base.update(overrides)
    return ProblemConfig(**base)


class TestBasics:
    def test_problem_validation(self):
        cfg = _small_config()
        with pytest.raises(DomainError):
            PenalizedProblem(cfg, 0.0)
        with pytest.raises(DomainError):
            PenalizedProblem(cfg, -1.0)
        with pytest.raises(DomainError):
            PenalizedProblem(cfg, math.inf)
        with pytest.raises(DomainError):
            PenalizedProblem(cfg, 1e-3, residual_form="weak")
        for eps in ("x", None, True, False, [1e-3], math.nan):  # a real, non-bool number
            with pytest.raises(DomainError):
                PenalizedProblem(cfg, eps)

    def test_caputo_matrix_applies_caputo_left(self):
        grid = TimeGrid(2.0, 40)
        v = np.cos(3.0 * grid.nodes) + grid.nodes**2
        expect = caputo_left(SampledSignal(v, 0.0, grid.T), 0.35).values
        assert np.allclose(_caputo_matrix(grid, 0.35) @ v, expect, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.05, 0.35, 0.5, 0.95])
    @pytest.mark.parametrize("n_steps", [2, 3, 40, 256])  # at 2 and 3 the end stencils overlap
    def test_caputo_matrix_is_kernel_times_derivative(self, n_steps, alpha):
        grid = TimeGrid(2.0, n_steps)
        n, h = n_steps + 1, grid.h
        oracle = _kernel_matrix(n, h, -alpha) @ _derivative(np.eye(n), h) / gamma_fn(1.0 - alpha)
        D = _caputo_matrix(grid, alpha)
        assert np.max(np.abs(D - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_mild_residual_vanishes_on_simulated_pair(self):
        cfg = _small_config()
        rng = np.random.default_rng(3)
        u = rng.normal(size=cfg.n_steps + 1)
        z = verify_transfer(cfg, u).trajectory
        res = dynamics_residual(cfg, u, z, form="mild")
        assert np.max(np.abs(res)) <= 1e-12

    def test_caputo_residual_of_mild_solution_shrinks_with_grid(self):
        # The strong-form defect of the exact mild solution is pure scheme
        # error away from t = 0 and must decrease under refinement.
        norms = []
        for n in (64, 128, 256):
            cfg = _small_config(n_steps=n)
            u = np.ones(n + 1)
            z = verify_transfer(cfg, u).trajectory
            res = dynamics_residual(cfg, u, z, form="caputo")
            w = np.full(n + 1, cfg.T / n)
            w[0] = 0.0  # the discrete operator is identically zero at t = 0
            w[-1] *= 0.5
            norms.append(float(np.sqrt(np.sum(w[:, None] * res * res))))
        assert norms[2] < norms[1] < norms[0]


class TestSolvePenalized:
    def test_nothing_to_do_gives_zero_control(self):
        # y0 = 0 with G the whole space: u = 0, z = 0, J = 0.
        cfg = _small_config(y0=(0.0, 0.0, 0.0), target_modes=(1, 2, 3))
        sol = solve_penalized(PenalizedProblem(cfg, 1e-4))
        assert np.max(np.abs(sol.u_eps)) <= 1e-10
        assert np.max(np.abs(sol.z_eps)) <= 1e-10
        assert sol.J_eps <= 1e-12

    def test_terminal_constraint_holds_exactly(self):
        cfg = _small_config()
        tgt = cfg.build_target()
        for eps in (1e-2, 1e-5):
            sol = solve_penalized(PenalizedProblem(cfg, eps))
            assert tgt.distance_to(sol.z_eps[-1]) <= 1e-9

    def test_small_eps_approaches_synthesis_control(self):
        cfg = _small_config()
        ref = solve_rhum(cfg).u_star
        sol = solve_penalized(PenalizedProblem(cfg, 1e-7))
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(sol.u_eps - ref)) <= 1e-3 * scale

    def test_objective_decreases_with_eps_and_residual_shrinks(self):
        cfg = _small_config()
        sols = [
            solve_penalized(PenalizedProblem(cfg, e)) for e in (1e-1, 1e-3, 1e-5)
        ]
        # J_eps grows toward the constrained optimum as the penalty tightens
        assert sols[0].J_eps <= sols[1].J_eps <= sols[2].J_eps
        assert sols[0].residual_norm > sols[1].residual_norm > sols[2].residual_norm

    def test_energy_never_exceeds_limit_energy_by_much(self):
        cfg = _small_config()
        ref_energy = control_energy(solve_rhum(cfg).u_star, cfg.grid())
        for eps in (1e-3, 1e-5, 1e-7):
            sol = solve_penalized(PenalizedProblem(cfg, eps))
            assert sol.energy <= ref_energy + 1e-9

    def test_caputo_form_runs_and_pins_initial_state(self):
        cfg = _small_config(n_steps=48)
        sol = solve_penalized(PenalizedProblem(cfg, 1e-3, residual_form="caputo"))
        assert np.allclose(sol.z_eps[0], cfg.y0_array(), atol=1e-9)
        tgt = cfg.build_target()
        assert tgt.distance_to(sol.z_eps[-1]) <= 1e-9

    # free state leaves mode 3 excited; 1e-13 leaves c = -5.1e-16 at T
    @pytest.mark.parametrize("y3", [1.0, 1e-13])
    def test_infeasible_configuration_raises_upfront(self, y3):
        cfg = _small_config(
            actuator={"kind": "pointwise", "b": 1.0 / 3.0},
            n_modes=3,
            y0=(0.0, 0.0, y3),
            target_modes=(1, 2),  # annihilator touches the dead mode 3
        )
        with pytest.raises(InfeasibleError):
            solve_penalized(PenalizedProblem(cfg, 1e-3))
        # the synthesis and the sweep refuse the same configurations
        with pytest.raises(InfeasibleError):
            solve_rhum(cfg)
        with pytest.raises(InfeasibleError):
            epsilon_sweep(cfg, [1e-3], "caputo")

    def test_dead_mode_harmless_when_state_already_compatible(self):
        # dead mode 3 but y0 has no mode-3 content: constraint reachable
        cfg = _small_config(
            actuator={"kind": "pointwise", "b": 1.0 / 3.0},
            y0=(1.0, 0.0, 0.0),
            target_modes=(1, 3),
        )
        sol = solve_penalized(PenalizedProblem(cfg, 1e-4))
        tgt = cfg.build_target()
        assert tgt.distance_to(sol.z_eps[-1]) <= 1e-9


class TestOptimality:
    """The penalized minimizer, checked against its objective alone.

    J(u, z) = control_energy(u) + (1/(2 eps)) * weighted squared ``dynamics_residual``
    is rebuilt from its definition; no solver algebra is reused.
    """

    EPS = 1e-3

    @staticmethod
    def _objective(cfg, u, z, form, eps):
        res = dynamics_residual(cfg, u, z, form=form)
        w = np.full(cfg.n_steps + 1, cfg.T / cfg.n_steps)
        w[[0, -1]] *= 0.5
        if form == "caputo":
            w[0] = 0.0  # the discrete Caputo operator is identically zero at t = 0
        return control_energy(u, cfg.grid()) + float(np.sum(w[:, None] * res * res)) / (2.0 * eps)

    CONFIGS = {
        "": {},
        # exact steering: every mode is annihilated, so P^T diag(s) P has full rank
        "exact-": {"target_modes": ()},
        # dead mode 3 excited by y0, which is compatible because G contains it
        "dead_mode-": {
            "actuator": {"kind": "pointwise", "b": 1.0 / 3.0},
            "y0": (1.0, 0.5, 1.0),
            "target_modes": (1, 3),
        },
    }

    @pytest.mark.parametrize(
        "overrides,form",
        [(o, f) for o in CONFIGS.values() for f in ("mild", "caputo")],
        ids=[k + f for k in CONFIGS for f in ("mild", "caputo")],
    )
    def test_objective_matches_and_feasible_perturbations_never_lower_it(self, overrides, form):
        cfg = _small_config(**overrides)
        tgt = cfg.build_target()
        sol = solve_penalized(PenalizedProblem(cfg, self.EPS, residual_form=form))
        J = self._objective(cfg, sol.u_eps, sol.z_eps, form, self.EPS)
        assert J == pytest.approx(sol.J_eps, rel=1e-9)
        assert tgt.distance_to(sol.z_eps[-1]) <= 1e-12
        rng = np.random.default_rng(17)
        # Down to 1e-9 relative, where a nonzero gradient outweighs the curvature.
        for scale in np.logspace(-2, -9, 20):
            du = scale * np.max(np.abs(sol.u_eps)) * rng.normal(size=sol.u_eps.shape)
            dz = scale * np.max(np.abs(sol.z_eps)) * rng.normal(size=sol.z_eps.shape)
            dz[-1, tgt.annihilator] = 0.0  # keep the terminal annihilator coordinates at 0
            if form == "caputo":
                dz[0] = 0.0  # keep z(0) = y0
            J_pert = self._objective(cfg, sol.u_eps + du, sol.z_eps + dz, form, self.EPS)
            assert J_pert >= J * (1.0 - 1e-12)


class TestSweep:
    def test_schedule_validation(self):
        cfg = _small_config()
        with pytest.raises(DomainError):
            epsilon_sweep(cfg, [])
        with pytest.raises(DomainError):
            epsilon_sweep(cfg, [1e-2, 1e-2])
        with pytest.raises(DomainError):
            epsilon_sweep(cfg, [1e-3, 1e-2])
        with pytest.raises(DomainError):
            epsilon_sweep(cfg, [1e-2, -1e-3])
        with pytest.raises(DomainError):
            epsilon_sweep(cfg, [1e-2], "strong")
        # one eps rule with PenalizedProblem: a schedule is an iterable of real, non-bool numbers
        for bad in (["a"], None, 1e-3, [True, 0.5], [1e-2, "1e-3"], [1e-2, math.inf]):
            with pytest.raises(DomainError):
                epsilon_sweep(cfg, bad)
        rows = epsilon_sweep(cfg, (e for e in (np.float64(1e-2), 1e-3)))
        assert [r.epsilon for r in rows] == [1e-2, 1e-3]
        # the form is checked before the synthesis could refuse the target
        unreachable = _small_config(
            actuator={"kind": "pointwise", "b": 1.0 / 3.0}, y0=(0.0, 0.0, 1.0), target_modes=(1, 2)
        )
        with pytest.raises(DomainError):
            epsilon_sweep(unreachable, [1e-3], "strong")

    @pytest.mark.parametrize("form", ["mild", "caputo"])
    def test_rows_match_single_solves(self, form):
        cfg = _small_config()
        eps = [1e-1, 1e-3, 1e-5]
        for row in epsilon_sweep(cfg, eps, form):
            sol = solve_penalized(PenalizedProblem(cfg, row.epsilon, form))
            assert row.J_eps == pytest.approx(sol.J_eps, rel=1e-12, abs=0.0)
            assert row.residual_norm == pytest.approx(sol.residual_norm, rel=1e-12, abs=0.0)

    def test_sweep_converges_to_synthesis(self):
        cfg = _small_config()
        rows = epsilon_sweep(cfg, [1e-2, 1e-4, 1e-6])
        errs = [r.rel_control_err for r in rows]
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-2
        assert rows[0].J_eps <= rows[1].J_eps <= rows[2].J_eps

    def test_sqrt_eps_stability(self):
        # distance to the limit control decays at least like sqrt(eps)
        cfg = _small_config()
        rows = epsilon_sweep(cfg, [1e-2, 1e-4, 1e-6])
        c = rows[0].rel_control_err / math.sqrt(1e-2)
        for r in rows[1:]:
            assert r.rel_control_err <= 10.0 * c * math.sqrt(r.epsilon)

    def test_singleton_schedule(self):
        cfg = _small_config()
        rows = epsilon_sweep(cfg, [1e-4])
        assert len(rows) == 1
        assert rows[0].epsilon == 1e-4


class TestFactorizations:
    """Each penalized path takes the thin SVDs it needs and no more."""

    @staticmethod
    def _count_svds(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    # mild reads the steering SVD; caputo adds one of its own whitened factor
    @pytest.mark.parametrize("form,expect", [("mild", 1), ("caputo", 2)])
    def test_svds_per_sweep_and_per_solve(self, monkeypatch, form, expect):
        cfg = _small_config()
        epsilon_sweep(cfg, [1e-2], form)  # warm the mode table outside the count
        calls = self._count_svds(monkeypatch)
        epsilon_sweep(cfg, [1e-1, 1e-3, 1e-5], form)
        assert len(calls) == expect
        calls.clear()
        solve_penalized(PenalizedProblem(cfg, 1e-3, form))
        assert len(calls) == expect


class TestCaputoSystem:
    """The caputo form's terminal rows, outputs and memory, pinned."""

    # one penalty_sweep-sized config: N=5, n=256, zone actuator, alpha 1/2
    PINNED = dict(
        alpha=0.5,
        n_modes=5,
        n_steps=256,
        y0=(1.0, -0.377513, 0.314403, -0.236791, 0.184267),
        actuator={"kind": "zone", "a": 0.4102, "b": 0.5415},
        target_modes=(2, 3, 4, 5),
    )

    def test_terminal_rows_solve_each_shifted_matrix(self):
        # exact steering puts every mode in the annihilator, in order, so row i of A is
        # b_i l_i scaled by 1/sqrt(s_i), s_i = l_i^T W_r^-1 l_i, with node 0 carrying no influence
        cfg = _small_config(n_modes=4, y0=(1.0, 0.5, 0.0, -0.25), target_modes=(), n_steps=64)
        system = steering_system(cfg)
        # the form's system holds A only as its Gramian's factor B = W^-1/2 A^T
        A = _caputo_system(cfg, system)[0].gramian.factor.T * np.sqrt(cfg.grid().weights)
        b = system.influence
        w_r = np.full(cfg.n_steps, cfg.T / cfg.n_steps)
        w_r[-1] *= 0.5
        Dr = _caputo_matrix(cfg.grid(), cfg.alpha)[1:, 1:]
        eye = np.eye(cfg.n_steps)
        assert np.all(A[:, 0] == 0.0)
        for i, li in enumerate(eigenvalues(cfg.n_modes)):
            l_i = np.linalg.solve((Dr - li * eye).T, eye[-1])
            expect = b[i] * l_i / np.sqrt(np.sum(l_i * l_i / w_r))
            assert np.max(np.abs(A[i, 1:] - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_outputs_pinned(self):
        # values of the dense O(n^3) build; the scheme must not move under a speed-up
        cfg = _small_config(**self.PINNED)
        rows = epsilon_sweep(cfg, [1e-1, 1e-3, 1e-5], "caputo")
        expect = [
            (0.022560402301988403, 0.7712425029626956, 0.05807158337173477),
            (0.08674461487016621, 0.2391649422816859, 0.0022328489833879873),
            (0.08928476110020454, 0.23377157972761717, 2.298233594708092e-05),
        ]
        got = [(r.J_eps, r.rel_control_err, r.residual_norm) for r in rows]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
        z = solve_penalized(PenalizedProblem(cfg, 1e-3, "caputo")).z_eps
        z_expect = {
            1: [0.6164078508407955, -0.10550590416115177, 0.04560329542848991,
                -0.020757468755540694, 0.010727620830045977],
            2: [0.5238101964165647, -0.0796731205825389, 0.03329015969317268,
                -0.014509390869504113, 0.007298773755754281],
            64: [0.12056359821084862, -0.012583576029273454, 0.004832253668833158,
                 -0.002075163519962959, 0.001040560737231463],
            128: [0.08591151377368501, -0.00888789885584442, 0.0034147284084907743,
                  -0.0014633373334848319, 0.0007326475479979825],
            255: [0.026535889764893583, -0.008639946178339401, 0.010041230267423089,
                  0.00029198683359931663, -0.002021162043419103],
            # mode 1 at T is annihilated: its exact value is 0, and roundoff sits in atol
            256: [0.0, -0.009906108734383372, 0.01362736052184352,
                  0.0008791173330103494, -0.0031035170258945292],
        }
        for k, zk in z_expect.items():
            np.testing.assert_allclose(z[k], zk, rtol=1e-12, atol=1e-12 * np.max(np.abs(z)))
        assert float(np.sum(z * z)) == pytest.approx(5.978000869129346, rel=1e-12, abs=0.0)

    def test_sweep_peak_memory_stays_near_two_matrices(self):
        cfg = _small_config(**self.PINNED)
        epsilon_sweep(cfg, [1e-1, 1e-3, 1e-5], "caputo")  # warm the mode table
        tracemalloc.start()
        try:
            epsilon_sweep(cfg, [1e-1, 1e-3, 1e-5], "caputo")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (cfg.n_steps + 1) ** 2 * 8


def test_dynamics_residual_rejects_unknown_form():
    cfg = _small_config()
    n = cfg.n_steps + 1
    with pytest.raises(DomainError):
        dynamics_residual(cfg, np.zeros(n), np.zeros((n, cfg.n_modes)), "weak")
