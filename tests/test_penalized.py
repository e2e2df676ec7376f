"""Tests for the penalization cross-check of the minimum-energy synthesis."""

import math

import numpy as np
import pytest

from subdiff_control.config import ProblemConfig
from subdiff_control.errors import DomainError, InfeasibleError
from subdiff_control.fractional import SampledSignal, caputo_left
from subdiff_control.penalized import (
    PenalizedProblem,
    _caputo_matrix,
    dynamics_residual,
    energy,
    epsilon_sweep,
    solve_penalized,
)
from subdiff_control.rhum import control_energy, solve_rhum, verify_transfer
from subdiff_control.spectral import TimeGrid


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

    def test_energy_examples(self):
        grid = TimeGrid(1.0, 64)
        assert energy(np.ones(65), grid) == pytest.approx(0.5)
        grid_pi = TimeGrid(math.pi, 512)
        assert energy(np.sin(grid_pi.nodes), grid_pi) == pytest.approx(
            math.pi / 4.0, rel=1e-4
        )

    def test_caputo_matrix_applies_caputo_left(self):
        grid = TimeGrid(2.0, 40)
        v = np.cos(3.0 * grid.nodes) + grid.nodes**2
        expect = caputo_left(SampledSignal(v, 0.0, grid.T), 0.35).values
        assert np.allclose(_caputo_matrix(grid, 0.35) @ v, expect, rtol=1e-12, atol=1e-13)

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

    J(u, z) = energy(u) + (1/(2 eps)) * weighted squared ``dynamics_residual``
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
        return energy(u, cfg.grid()) + float(np.sum(w[:, None] * res * res)) / (2.0 * eps)

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
            dz[-1] -= tgt.project(dz[-1])  # keep the terminal annihilator coordinates at 0
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


def test_dynamics_residual_rejects_unknown_form():
    cfg = _small_config()
    n = cfg.n_steps + 1
    with pytest.raises(DomainError):
        dynamics_residual(cfg, np.zeros(n), np.zeros((n, cfg.n_modes)), "weak")
