"""Tests for the adjoint-seed synthesis of minimum-energy steering controls."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from subdiff_control.actuators import make_pointwise, make_target, make_zone
from subdiff_control.cli import _analysis_payload, main
from subdiff_control.config import ProblemConfig, Tolerances, save_config
from subdiff_control.errors import (
    DomainError,
    NonStrategicError,
    QuadratureError,
    SingularGramianError,
    SubdiffError,
)
from subdiff_control.penalized import PenalizedProblem, solve_penalized
from subdiff_control.rhum import (
    AdjointState,
    Gramian,
    assemble_gramian,
    control_energy,
    discrete_gramian,
    final_free_state,
    observation,
    require_reachable,
    solve_rhum,
    steering_system,
    verify_transfer,
)
from subdiff_control.spectral import TimeGrid, eigenvalues, terminal_control_map
from subdiff_control.special import mittag_leffler


# the placement_scan benchmark's table: only the actuator varies
_PLACEMENT = dict(
    alpha=0.6,
    n_modes=8,
    n_steps=1024,
    y0=(1.0, 0.5, 0.333333, 0.25, 0.2, 0.166667, 0.142857, 0.125),
    target_modes=(3, 4, 5, 6, 7, 8),
)


def _zone_config(**overrides):
    base = dict(
        alpha=0.4,
        T=1.0,
        n_modes=5,
        n_steps=128,
        y0=(1.0, 0.0, 0.0, 0.0, 0.0),
        actuator={"kind": "zone", "a": 0.2, "b": 0.5},
        target_modes=(2, 3, 4, 5),
    )
    base.update(overrides)
    return ProblemConfig(**base)


class TestAdjointState:
    def test_coefficients_closed_form(self):
        alpha, T = 0.6, 1.0
        phi0 = np.array([0.0, 2.0, 0.0])
        adj = AdjointState(phi0, alpha, T)
        t = 0.3
        lam = eigenvalues(3)[1]
        expect = 2.0 * t ** (alpha - 1.0) * mittag_leffler(alpha, alpha, lam * t**alpha)
        out = adj.coeffs_at(t)
        assert out[1] == pytest.approx(expect, rel=1e-12)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_evaluation_domain(self):
        adj = AdjointState(np.ones(2), 0.5, 1.0)
        for t in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                adj.coeffs_at(t)

    def test_observation_is_influence_dot(self):
        act = make_zone(0.2, 0.5, 3)
        adj = AdjointState(np.array([1.0, -0.5, 0.25]), 0.7, 1.0)
        t = 0.4
        assert observation(act, adj, t) == pytest.approx(
            float(np.dot(act, adj.coeffs_at(t))), rel=1e-14
        )


class TestContinuousGramian:
    def test_rejects_small_alpha_and_bad_quad(self):
        act = make_zone(0.2, 0.5, 3)
        tgt = make_target([2, 3], 3)
        for alpha in (0.2, 0.5):
            with pytest.raises(QuadratureError):
                assemble_gramian(act, tgt, alpha, 1.0)
        with pytest.raises(DomainError):
            assemble_gramian(act, tgt, 1.2, 1.0)

    def test_entries_against_adaptive_quadrature(self):
        # Oracle: integral_0^T t^(2a-2) E_{a,a}(lam_i t^a) E_{a,a}(lam_l t^a) dt
        # with the algebraic endpoint weight handled by the quadrature rule.
        alpha, T = 0.7, 1.0
        b = make_zone(0.2, 0.5, 3)
        tgt = make_target([3], 3)  # annihilator spanned by e1, e2
        factor = assemble_gramian(b, tgt, alpha, T).factor
        gram = factor.T @ factor
        lam = eigenvalues(3)
        # annihilator coordinate r is mode tgt.annihilator[r]
        # quad's (i, l) and (l, i) integrands evaluate the same arguments
        ml = functools.lru_cache(maxsize=None)(mittag_leffler)
        for r, i in enumerate(tgt.annihilator):
            for s, l in enumerate(tgt.annihilator):
                val, _ = quad(
                    lambda t: ml(alpha, alpha, lam[i] * t**alpha)
                    * ml(alpha, alpha, lam[l] * t**alpha),
                    0.0,
                    T,
                    weight="alg",
                    wvar=(2.0 * alpha - 2.0, 0.0),
                    limit=200,
                )
                assert gram[r, s] == pytest.approx(b[i] * b[l] * val, rel=1e-6)

    def test_near_classical_limit_matches_heat_gramian(self):
        # As a -> 1 the diagonal tends to b_i^2 (e^{2 lam_i T} - 1)/(2 lam_i).
        alpha, T = 0.999, 0.5
        act = make_zone(0.2, 0.5, 3)
        tgt = make_target([], 3)
        factor = assemble_gramian(act, tgt, alpha, T).factor
        gram = factor.T @ factor
        lam = eigenvalues(3)
        for i in range(3):
            classical = act[i] ** 2 * (math.exp(2 * lam[i] * T) - 1.0) / (2 * lam[i])
            assert gram[i, i] == pytest.approx(classical, rel=1e-2)

    def test_positive_definite_when_strategic(self):
        act = make_zone(0.2, 0.5, 4)
        tgt = make_target([3, 4], 4)
        gram = assemble_gramian(act, tgt, 0.8, 1.0)
        assert gram.min_eigenvalue() > 0.0
        assert gram.condition_number() >= 1.0


class TestDiscreteGramian:
    def test_dead_mode_gives_zero_row_and_column(self):
        act = make_pointwise(1.0 / 3.0, 3)  # mode 3 uninfluenced
        tgt = make_target([], 3)
        gram = discrete_gramian(act, tgt, 0.5, TimeGrid(1.0, 64))
        G = gram.factor.T @ gram.factor
        assert np.max(np.abs(G[2, :])) <= 1e-12
        assert np.max(np.abs(G[:, 2])) <= 1e-12
        assert gram.min_eigenvalue() <= 1e-12

    def test_matches_continuous_gramian_on_fine_grids(self):
        alpha, T = 0.75, 1.0
        act = make_zone(0.2, 0.5, 3)
        tgt = make_target([3], 3)
        factor = assemble_gramian(act, tgt, alpha, T).factor
        cont = factor.T @ factor
        # the kernel-squared endpoint singularity limits the rate to h^(2a-1),
        # so check convergence toward the continuous values, not equality
        errs = []
        for n in (256, 1024):
            factor = discrete_gramian(act, tgt, alpha, TimeGrid(T, n)).factor
            disc = factor.T @ factor
            errs.append(np.max(np.abs(disc - cont)) / np.max(np.abs(cont)))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.1

    def test_shapes_and_weights(self):
        act = make_zone(0.2, 0.5, 4)
        tgt = make_target([3, 4], 4)
        grid = TimeGrid(2.0, 10)
        gram = discrete_gramian(act, tgt, 0.5, grid)
        w = grid.weights
        assert (gram.factor.T @ gram.factor).shape == (2, 2)
        assert gram.factor.shape == (11, 2)
        assert w.sum() == pytest.approx(2.0)
        assert w[0] == w[-1] == pytest.approx(0.1)


class TestGramianSolve:
    """``Gramian.solve`` against numpy's dense solve and pseudo-inverse of G = B^T B."""

    @staticmethod
    def _factor(kind):
        # Null vectors are coordinate vectors (zero columns, as a dead mode gives), so
        # fl(B^T B) and the oracle's LU keep them exact; a generic null space would
        # leave the dense oracle itself ~1e-6 off at delta = 1e-8.
        rng = np.random.default_rng({"tall": 11, "deficient": 12, "wide": 13}[kind])
        B = rng.normal(size=(4, 6) if kind == "wide" else (40, 6))
        B[:, {"tall": [], "deficient": [2], "wide": [1, 4]}[kind]] = 0.0
        return B

    @pytest.mark.parametrize("delta", [0.0, 1e-8, 1e-2])
    @pytest.mark.parametrize("kind", ["tall", "deficient", "wide"])
    def test_matches_dense_oracle(self, kind, delta):
        B = self._factor(kind)
        G = B.T @ B
        gram = Gramian(B)
        assert gram.rank == {"tall": 6, "deficient": 5, "wide": 4}[kind]
        rng = np.random.default_rng(7)
        if delta == 0.0:  # the rank-cut solve is least-norm only for c in G's range
            c = G @ rng.normal(size=6)
            oracle = np.linalg.pinv(G, hermitian=True) @ c
        else:  # c with a part along the null space, which the filter scales by 1/delta
            c = rng.normal(size=6)
            oracle = np.linalg.solve(G + delta * np.eye(6), c)
        v, phi = gram.solve(c, delta)
        assert np.linalg.norm(phi - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert v.shape == (B.shape[0],)
        assert np.linalg.norm(v - B @ phi) <= 1e-12 * np.linalg.norm(B, 2) * np.linalg.norm(phi)

    @staticmethod
    def _padded_solve(B, c, delta):
        """The filter on the SVD of B stacked over zero rows into a square m x m factor."""
        m = B.shape[1]
        U, sigma, Vt = np.linalg.svd(np.vstack([B, np.zeros((m - B.shape[0], m))]))
        k = int(np.sum(sigma > np.finfo(float).eps * m * sigma[0])) if delta == 0.0 else m
        d = (Vt[:k] @ c) / (sigma[:k] ** 2 + delta)
        return U[: B.shape[0], :k] @ (sigma[:k] * d), Vt[:k].T @ d

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-8])
    @pytest.mark.parametrize("shape", [(3, 8), (5, 40), (2, 6)])
    def test_wide_factor_is_factored_as_built(self, shape, delta):
        # fewer control samples than annihilator modes: G has m - rows zero
        # eigenvalues, which the filter at delta > 0 still scales by 1/delta
        rng = np.random.default_rng(shape[1])
        B, c = rng.normal(size=shape), rng.normal(size=shape[1])
        gram = Gramian(B)
        v, phi = gram.solve(c, delta)
        v_ref, phi_ref = self._padded_solve(B, c, delta)
        assert np.linalg.norm(v - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
        assert np.linalg.norm(phi - phi_ref) <= 1e-12 * np.linalg.norm(phi_ref)
        assert gram.rank == shape[0]
        assert gram.min_eigenvalue() == 0.0 and gram.condition_number() == math.inf

    def test_wide_factor_memory_is_a_multiple_of_the_factor(self):
        # 3 samples against 4000 annihilator modes: no m x m array is formed
        rng = np.random.default_rng(4000)
        B, c = rng.normal(size=(3, 4000)), rng.normal(size=4000)
        gram = Gramian(B)
        tracemalloc.start()
        try:
            gram.condition_number()
            gram.min_eigenvalue()
            gram.least_norm(c)
            gram.solve(c, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * B.nbytes, peak / B.nbytes


class TestSolve:
    def test_zero_annihilator_component_gives_zero_control(self):
        # y0 = e2 stays on mode 2, which lies inside G: nothing to steer.
        cfg = _zone_config(y0=(0.0, 1.0, 0.0, 0.0, 0.0))
        sol = solve_rhum(cfg)
        assert np.max(np.abs(sol.u_star)) == 0.0
        assert sol.residual == 0.0

    def test_whole_space_target_gives_zero_control(self):
        cfg = _zone_config(target_modes=(1, 2, 3, 4, 5))
        sol = solve_rhum(cfg)
        assert np.max(np.abs(sol.u_star)) == 0.0

    def test_single_mode_oracle(self):
        # N = 1, G = {0}: the synthesis reduces to scalars we can recompute.
        cfg = ProblemConfig(
            alpha=0.6,
            T=1.0,
            n_modes=1,
            n_steps=32,
            y0=(1.0,),
            actuator={"kind": "zone", "a": 0.2, "b": 0.5},
            target_modes=(),
        )
        sol = solve_rhum(cfg)
        act = cfg.build_actuator()
        tgt = cfg.build_target()
        gram = discrete_gramian(act, tgt, cfg.alpha, cfg.grid())
        A = terminal_control_map(cfg.alpha, cfg.grid(), act)[tgt.annihilator]
        w = cfg.grid().weights
        c = -float(final_free_state(cfg.alpha, cfg.T, cfg.y0_array())[0])
        phi = c / float(gram.factor[:, 0] @ gram.factor[:, 0])
        assert sol.phi_hat[0] == pytest.approx(phi, rel=1e-12)
        assert np.allclose(sol.u_star, phi * A[0] / w, rtol=1e-12)

    def test_control_scales_linearly_with_initial_state(self):
        cfg1 = _zone_config()
        cfg2 = _zone_config(y0=(2.0, 0.0, 0.0, 0.0, 0.0))
        u1 = solve_rhum(cfg1).u_star
        u2 = solve_rhum(cfg2).u_star
        assert np.allclose(u2, 2.0 * u1, rtol=1e-10, atol=1e-12)

    def test_control_scales_linearly_where_the_squares_underflow(self):
        # the free final state of y0 = 1e-200 e1 is nonzero, though its squares round to 0
        unit = solve_rhum(_zone_config())
        tiny = solve_rhum(_zone_config(y0=(1e-200, 0.0, 0.0, 0.0, 0.0)))
        scale = np.max(np.abs(unit.u_star))
        np.testing.assert_allclose(tiny.u_star / 1e-200, unit.u_star, rtol=1e-10, atol=1e-12 * scale)
        assert tiny.residual < 1e-12

    def test_solve_and_verify_end_to_end(self):
        cfg = _zone_config(n_steps=256)
        sol = solve_rhum(cfg)
        assert sol.residual <= 1e-10
        report = verify_transfer(cfg, sol.u_star)
        assert report.distance_to_G <= 1e-8
        # uncontrolled state misses by a visible margin
        free = verify_transfer(cfg, np.zeros(cfg.n_steps + 1))
        assert free.distance_to_G > 1e-3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_steps=256),  # the README's example
            dict(_PLACEMENT, actuator={"kind": "zone", "a": 0.5467, "b": 0.8194}),
            dict(_PLACEMENT, actuator={"kind": "pointwise", "b": 0.4673}),
        ],
        ids=["readme", "placement-zone", "placement-pointwise"],
    )
    def test_residual_against_the_terminal_map(self, overrides):
        # the solve measures its miss through the Gramian's factor; A and c
        # are taken afresh here from the terminal map and the propagator
        cfg = _zone_config(**overrides)
        sol = solve_rhum(cfg)
        ann = cfg.build_target().annihilator
        A = terminal_control_map(cfg.alpha, cfg.grid(), cfg.build_actuator())[ann]
        c = -final_free_state(cfg.alpha, cfg.T, cfg.y0_array())[ann]
        expect = np.linalg.norm(A @ sol.u_star - c) / np.linalg.norm(c)
        assert abs(sol.residual - expect) <= 1e-14

    def test_non_strategic_raises_typed_error(self):
        cfg = _zone_config(
            actuator={"kind": "pointwise", "b": 1.0 / 3.0},
            target_modes=(2, 4, 5),  # annihilator touches the dead mode 3
        )
        with pytest.raises(NonStrategicError) as exc:
            solve_rhum(cfg)
        assert exc.value.dead_modes == [3]

    def test_control_is_the_adjoint_observation(self):
        # u*(t) = b . phi(T - t): the control is read off the adjoint state
        # seeded with phi0.  Near t = T the observation blows up like
        # (T-t)^(a-1), which the discrete control only resolves in the limit.
        gaps = []
        for n in (128, 512):
            cfg = _zone_config(
                n_modes=4, n_steps=n, y0=(1.0, 0.0, 0.0, 0.0), target_modes=(2, 3, 4)
            )
            sol = solve_rhum(cfg)
            act = cfg.build_actuator()
            adj = AdjointState(cfg.build_target().embed(sol.phi_hat), cfg.alpha, cfg.T)
            nodes = cfg.grid().nodes
            keep = nodes <= 0.75 * cfg.T
            obs = np.array([observation(act, adj, cfg.T - t) for t in nodes[keep]])
            gaps.append(np.max(np.abs(sol.u_star[keep] - obs)) / np.max(np.abs(obs)))
        assert gaps[0] <= 2e-3
        assert gaps[1] <= gaps[0] / 3.0

    def test_ill_conditioned_gramian_warns_and_solves(self):
        cfg = _zone_config(
            alpha=0.5,
            n_modes=4,
            n_steps=64,
            y0=(1.0, 0.0, 0.0, 0.0),
            actuator={"kind": "zone", "a": 0.21, "b": 0.5},
            target_modes=(),
        )
        with pytest.warns(RuntimeWarning, match="condition number"):
            sol = solve_rhum(cfg)
        assert sol.condition_number > 1e12
        assert verify_transfer(cfg, sol.u_star).distance_to_G <= 1e-8

    @pytest.mark.filterwarnings("ignore:Gramian condition number")
    def test_rank_deficient_gramian_refuses_with_its_rank(self):
        # Exact steering at alpha ~ 0.14: W^-1/2 A^T has numerical rank 5 of
        # 10 on this grid and the least-norm control misses G by ~6e-4.
        cfg = ProblemConfig(
            alpha=0.137309,
            T=1.0,
            n_modes=10,
            n_steps=512,
            y0=(1.0, 0.464138, -0.26064, -0.123789, -0.169826, -0.139392,
                0.0766, 0.077662, 0.091744, -0.048108),
            actuator={"kind": "zone", "a": 0.4963, "b": 0.629},
            target_modes=(),
        )
        with pytest.raises(SingularGramianError, match=r"rank 5 of 10 at n_steps=512"):
            solve_rhum(cfg)
        # sigma_min is below the rank cut, so the condition number is not resolved
        gram = steering_system(cfg).gramian
        assert gram.rank == 5 and gram.condition_number() == math.inf

    def test_refusal_counts_samples_against_annihilator_conditions(self):
        # 4 control samples cannot steer 15 annihilator coordinates
        cfg = ProblemConfig(
            alpha=0.5,
            T=1.0,
            n_modes=20,
            n_steps=3,
            y0=(1.0,) * 20,
            actuator={"kind": "zone", "a": 0.21, "b": 0.5},
            target_modes=(1, 2, 3, 4, 5),
        )
        msg = r"rank 3 of 15 at n_steps=3; .*; 4 control samples cannot meet 15 annihilator"
        with pytest.raises(SingularGramianError, match=msg):
            solve_rhum(cfg)
        with pytest.raises(SingularGramianError, match=msg):
            require_reachable(steering_system(cfg), cfg.tolerances.verify_distance)

    @pytest.mark.filterwarnings("ignore:Gramian condition number")
    @pytest.mark.parametrize(
        "alpha,n_modes,n_steps", [(0.9, 12, 256), (0.4, 6, 256), (0.4, 6, 1024), (0.9, 16, 1024)]
    )
    def test_exact_steering_past_a_failed_cholesky(self, alpha, n_modes, n_steps):
        # Gramians that rounding makes indefinite once formed; the SVD of
        # their factor still steers exactly.
        cfg = ProblemConfig(
            alpha=alpha,
            T=1.0,
            n_modes=n_modes,
            n_steps=n_steps,
            y0=(1.0,) + (0.0,) * (n_modes - 1),
            actuator={"kind": "zone", "a": 0.21, "b": 0.5},
            target_modes=(),
        )
        sol = solve_rhum(cfg)
        assert verify_transfer(cfg, sol.u_star).distance_to_G <= cfg.tolerances.verify_distance
        assert (sol.condition_number == math.inf) == (sol.system.gramian.rank < n_modes)

    def test_minimum_energy_among_feasible_controls(self):
        # Any other control with the same annihilator image costs more energy.
        cfg = _zone_config(n_steps=64)
        sol = solve_rhum(cfg)
        act = cfg.build_actuator()
        tgt = cfg.build_target()
        A = terminal_control_map(cfg.alpha, cfg.grid(), act)[tgt.annihilator]
        w = cfg.grid().weights
        rng = np.random.default_rng(19)
        base_energy = control_energy(sol.u_star, cfg.grid())
        for _ in range(5):
            pert = rng.normal(size=cfg.n_steps + 1)
            # project the perturbation onto the null space of A in the
            # w-weighted geometry so feasibility is preserved exactly
            gram = (A / w) @ A.T
            coef = np.linalg.solve(gram, A @ pert)
            v = pert - (A.T @ coef) / w
            assert np.max(np.abs(A @ v)) <= 1e-10
            other = control_energy(sol.u_star + v, cfg.grid())
            assert other >= base_energy - 1e-12


def _random_config(rng):
    """A valid config: alpha in [0.05, 0.98], T log-uniform in [1e-2, 1e2]."""
    n_modes = int(rng.integers(1, 16))
    k = int(rng.integers(0, n_modes + 1))
    targets = sorted(rng.choice(np.arange(1, n_modes + 1), size=k, replace=False).tolist())
    if rng.random() < 0.5:
        a = float(rng.uniform(0.0, 0.9))
        actuator = {"kind": "zone", "a": a, "b": float(rng.uniform(a + 0.05, 1.0))}
    else:
        actuator = {"kind": "pointwise", "b": float(rng.uniform(0.01, 0.99))}
    return ProblemConfig(
        alpha=float(rng.uniform(0.05, 0.98)),
        T=float(10.0 ** rng.uniform(-2.0, 2.0)),
        n_modes=n_modes,
        n_steps=int(rng.integers(3, 1001)),
        y0=tuple(rng.normal(size=n_modes)),
        actuator=actuator,
        target_modes=tuple(targets),
    )


def _refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except SubdiffError:
        return True
    return False


def test_returned_controls_land_within_verify_distance():
    # Over the validator's domain, the synthesis either refuses with a typed
    # error or returns a control whose simulated miss is within tolerance;
    # analyze's eec is true exactly when it returns, and the penalization
    # refuses exactly when it refuses.
    rng = np.random.default_rng(20261019)
    returned = 0
    for _ in range(200):
        cfg = _random_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            eec = _analysis_payload(cfg, steering_system(cfg))["eec"]
            penalty_refused = _refuses(solve_penalized, PenalizedProblem(cfg, 1e-3, "mild"))
            try:
                sol = solve_rhum(cfg)
            except SubdiffError:
                assert not eec and penalty_refused, cfg
                continue
        assert eec and not penalty_refused, cfg
        returned += 1
        miss = verify_transfer(cfg, sol.u_star).distance_to_G
        assert miss <= cfg.tolerances.verify_distance, cfg
    assert returned >= 100


def test_one_verdict_at_every_tolerance(tmp_path):
    # Config #91 of ``_random_config`` at seed 20261019: its Gramian has full
    # numerical rank, so c has no part outside its range, yet the least-norm
    # control misses G through rounding in the ill-conditioned solve.  With
    # verify_distance below that miss, analyze, synthesis and both penalty
    # forms must all refuse.
    cfg = ProblemConfig(
        alpha=0.5015663439340503,
        T=11.299480681296696,
        n_modes=7,
        n_steps=91,
        y0=(1.5657356515820613, -0.007777014954568164, 0.9863546630250799, 1.3554816834705572,
            0.4289087475402883, -0.7894891324330596, -0.8761760043511858),
        actuator={"kind": "zone", "a": 0.08948958127671679, "b": 0.7639027045582212},
        target_modes=(3, 6),
    )
    system = steering_system(cfg)
    gram, c = system.gramian, system.c
    v, _ = gram.solve(c)
    miss = float(np.linalg.norm(gram.factor.T @ v - c))
    _, sigma, Vt = np.linalg.svd(gram.factor, full_matrices=True)
    rank = int(np.sum(sigma > np.finfo(float).eps * max(gram.factor.shape) * sigma[0]))
    tail = float(np.linalg.norm(Vt[rank:] @ c))
    assert rank == c.size and tail < miss / 2
    cfg = dataclasses.replace(cfg, tolerances=Tolerances(miss / 2))
    assert _analysis_payload(cfg, steering_system(cfg))["eec"] is False
    with pytest.raises(SingularGramianError, match="rank 5 of 5 at n_steps=91"):
        solve_rhum(cfg)
    for form in ("mild", "caputo"):
        with pytest.raises(SingularGramianError):
            solve_penalized(PenalizedProblem(cfg, 1e-3, form))
    save_config(cfg, tmp_path / "cfg.json")
    assert main(["synthesize", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 3


def _heat_control(cfg):
    """The alpha = 1 (heat) discrete model's least-norm control, from exp alone.

    The node table is e^{lambda t_k}, a step's mass is the integral of
    e^{lambda tau} over it, the terminal map shares each step's mass between
    its two end nodes, and the control minimizes the trapezoid energy among
    those that cancel the annihilator coordinates of e^{lambda T} y0.
    """
    n, h = cfg.n_steps, cfg.T / cfg.n_steps
    lam = -((np.arange(1, cfg.n_modes + 1) * np.pi) ** 2)
    t = np.arange(n + 1) * h
    masses = np.exp(np.outer(lam, t[:-1])) * (np.expm1(lam * h) / lam)[:, None]
    back = masses[:, ::-1]  # step j, looking back from T, has mass n - 1 - j
    terminal = np.zeros((cfg.n_modes, n + 1))
    terminal[:, :-1] += 0.5 * back
    terminal[:, 1:] += 0.5 * back
    w = np.full(n + 1, h)
    w[[0, -1]] = h / 2
    ann = cfg.build_target().annihilator
    A = terminal[ann] * cfg.build_actuator()[ann, None]
    c = -(np.exp(lam * cfg.T) * cfg.y0_array())[ann]
    v = np.linalg.lstsq(A / np.sqrt(w), c, rcond=None)[0]
    return v / np.sqrt(w), w


@pytest.mark.parametrize(
    "y0,target_modes", [((1.0, 0.0, 0.0), ()), ((1.0, 0.5, -0.25), (3,))], ids=["exact", "G3"]
)
def test_heat_limit_is_approached_at_first_order(y0, target_modes):
    # As alpha -> 1 the sub-diffusion model becomes the heat equation, so the
    # synthesis must approach the heat model's control, at O(1 - alpha): each
    # decade of 1 - alpha cuts the energy gap and the control distance ~10x.
    base = dict(T=1.0, n_modes=3, n_steps=256, y0=y0,
                actuator={"kind": "zone", "a": 0.2, "b": 0.5}, target_modes=target_modes)
    configs = [ProblemConfig(alpha=1.0 - gap, **base) for gap in (1e-4, 1e-5, 1e-6)]
    u_heat, w = _heat_control(configs[0])  # reads everything but alpha
    e_heat = 0.5 * float(w @ u_heat**2)
    energy_gaps, control_gaps = [], []
    for cfg in configs:
        sol = solve_rhum(cfg)
        assert verify_transfer(cfg, sol.u_star).distance_to_G <= cfg.tolerances.verify_distance
        energy_gaps.append(abs(control_energy(sol.u_star, cfg.grid()) - e_heat) / e_heat)
        du = sol.u_star - u_heat
        control_gaps.append(math.sqrt(float(w @ du**2) / float(w @ u_heat**2)))
    for gaps in (energy_gaps, control_gaps):
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 7.0 <= coarse / fine <= 14.0, gaps


class TestEnergy:
    def test_constant_control(self):
        grid = TimeGrid(1.0, 50)
        assert control_energy(np.ones(51), grid) == pytest.approx(0.5)

    def test_sine_control(self):
        grid = TimeGrid(math.pi, 400)
        u = np.sin(grid.nodes)
        # (1/2) integral_0^pi sin^2 = pi/4
        assert control_energy(u, grid) == pytest.approx(math.pi / 4.0, rel=1e-4)
