"""Acceptance suite: end-to-end numerical criteria for the whole pipeline.

Each test pins one advertised guarantee of the package at its stated
tolerance: special-function identities, discrete fractional calculus,
classical-limit consistency, the two worked steering examples, the Gramian
norm property, the penalization cross-validation, optimality of the
synthesized control, and deterministic artifacts.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from subdiff_control.actuators import (
    dead_modes,
    is_strategic,
    make_pointwise,
    make_target,
    make_zone,
)
from subdiff_control.cli import main
from subdiff_control.config import ProblemConfig, Tolerances, load_config, save_config
from subdiff_control.fractional import SampledSignal, caputo_left, reflect, rl_deriv_right, rl_integral_left, rl_integral_right
from subdiff_control.penalized import epsilon_sweep
from subdiff_control.rhum import (
    assemble_gramian,
    control_energy,
    discrete_gramian,
    solve_rhum,
    verify_transfer,
)
from subdiff_control.spectral import (
    SQRT2,
    TimeGrid,
    eigenvalues,
    mild_trajectory,
    terminal_control_map,
)
from subdiff_control.special import (
    gamma_fn,
    mittag_leffler,
    phi_alpha,
    phi_alpha_moment,
    psi_alpha,
)

# The shipped example configurations (the README's Examples section runs them).
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Lower cutoffs below which the one-sided stable density is certified
# negligible (stretched-exponential decay puts it under ~1e-12 there).
_PSI_FLOOR = {0.25: 1.3e-6, 0.4: 8.0e-4, 0.5: 6.8e-3, 0.75: 1.7e-1}


def _psi_tail_mass(alpha: float, A: float) -> float:
    """Tail integral of the density from A to infinity, term by term."""
    from scipy.special import gammaln

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


class TestCriterion1SpecialFunctions:
    def test_exponential_identity(self):
        for z in np.linspace(-20.0, 5.0, 101):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-10, abs=1e-10)

    def test_cosine_identity(self):
        for x in np.linspace(0.0, 5.0, 51):
            assert mittag_leffler(2.0, 1.0, -(x**2)) == pytest.approx(
                math.cos(x), abs=1e-10
            )

    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.5, 0.75])
    def test_density_normalization_and_laplace(self, alpha):
        floor = _PSI_FLOOR[alpha]
        A = 40.0
        v1, _ = quad(lambda x: psi_alpha(alpha, x), floor, 1.0, limit=300, epsabs=1e-10, epsrel=1e-10)
        v2, _ = quad(lambda x: psi_alpha(alpha, x), 1.0, A, limit=300, epsabs=1e-10, epsrel=1e-10)
        assert v1 + v2 + _psi_tail_mass(alpha, A) == pytest.approx(1.0, abs=1e-6)
        lap, _ = quad(
            lambda x: math.exp(-x) * psi_alpha(alpha, x),
            floor,
            60.0,
            limit=300,
            epsabs=1e-10,
            epsrel=1e-10,
        )
        assert lap == pytest.approx(math.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
    def test_moment_identity(self, nu):
        alpha = 0.4
        floor = _PSI_FLOOR[alpha]

        def integrand(t):
            if t ** (-1.0 / alpha) < floor:
                return 0.0
            return t**nu * phi_alpha(alpha, t)

        val, _ = quad(integrand, 0.0, floor**-alpha, limit=300, epsabs=1e-9, epsrel=1e-9)
        closed = gamma_fn(nu + 1.0) / gamma_fn(alpha * nu + 1.0)
        assert phi_alpha_moment(alpha, nu) == pytest.approx(closed, rel=1e-12)
        assert val == pytest.approx(closed, abs=1e-6)

    def test_levy_smirnov_pointwise(self):
        for th in (0.25, 0.5, 1.0, 2.0, 5.0):
            closed = th**-1.5 * math.exp(-1.0 / (4.0 * th)) / (2.0 * math.sqrt(math.pi))
            assert psi_alpha(0.5, th) == pytest.approx(closed, rel=1e-8)


class TestCriterion2FractionalOperators:
    def test_caputo_power_rule_with_observed_order(self):
        # The product quadrature is exact on t^2 (linear derivative); its
        # convergence order is measured on the genuinely curved t^2.5.
        errs_sq, errs_curved = [], []
        for n in (65, 129, 257):
            t = np.linspace(0.0, 1.0, n)
            out = caputo_left(SampledSignal(t**2, 0.0, 1.0), 0.5)
            errs_sq.append(np.max(np.abs(out.values - gamma_fn(3.0) / gamma_fn(2.5) * t**1.5)))
            out = caputo_left(SampledSignal(t**2.5, 0.0, 1.0), 0.5)
            errs_curved.append(
                np.max(np.abs(out.values - gamma_fn(3.5) / gamma_fn(3.0) * t**2.0))
            )
        assert max(errs_sq) <= 1e-12  # exact; order on t^2 is vacuous
        order = min(
            math.log2(errs_curved[0] / errs_curved[1]),
            math.log2(errs_curved[1] / errs_curved[2]),
        )
        assert order >= 0.9

    def test_reflection_identities_on_random_polynomials(self):
        rng = np.random.default_rng(42)
        alpha, T, n = 0.4, 1.0, 257
        t = np.linspace(0.0, T, n)
        tol = 10.0 * (T / (n - 1)) ** min(alpha, 1.0 - alpha)
        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, size=6)
            vals = np.polynomial.polynomial.polyval(t, coeffs)
            sig = SampledSignal(vals, 0.0, T)
            # closed form of the right integral of the same polynomial in (T-t)
            rhs = np.zeros_like(t)
            for k, c in enumerate(coeffs):
                rhs += c * gamma_fn(k + 1.0) / gamma_fn(k + 1.0 + alpha) * (T - t) ** (
                    k + alpha
                )
            assert np.max(np.abs(reflect(rl_integral_left(sig, alpha)).values - rhs)) <= tol
            assert np.max(np.abs(rl_integral_right(reflect(sig), alpha).values - rhs)) <= tol

    def test_integration_by_parts_residual_decreases(self):
        alpha = 0.5
        rng = np.random.default_rng(7)
        pairs = [(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)) for _ in range(5)]
        residuals = []
        for n in (65, 129, 257):
            t = np.linspace(0.0, 1.0, n)
            h = t[1] - t[0]
            trap = np.full(n, h)
            trap[0] = trap[-1] = h / 2.0
            worst = 0.0
            for cf, cg in pairs:
                f = np.polynomial.polynomial.polyval(t, cf)
                g = np.polynomial.polynomial.polyval(t, cg)
                sf = SampledSignal(f, 0.0, 1.0)
                sg = SampledSignal(g, 0.0, 1.0)
                lhs = float(np.dot(trap, f * caputo_left(sg, alpha).values))
                bdry = g * rl_integral_right(sf, 1.0 - alpha).values
                rhs = (bdry[-1] - bdry[0]) + float(
                    np.dot(trap, g * rl_deriv_right(sf, alpha).values)
                )
                worst = max(worst, abs(lhs - rhs))
            residuals.append(worst)
        assert residuals[2] < residuals[1] < residuals[0]


class TestCriterion3ClassicalLimit:
    def test_mild_solution_near_heat_semigroup(self):
        alpha = 0.999
        lam = eigenvalues(5)
        grid = TimeGrid(1.0, 100)
        y0 = np.ones(5)
        traj = mild_trajectory(alpha, grid, y0, np.ones(5), np.zeros(101))
        for t in (0.1, 0.5, 1.0):
            k = int(round(t / grid.h))
            # comparison at the 1% tolerance is absolute at the unit scale of
            # the initial data: strongly decayed modes carry an algebraic
            # Mittag-Leffler tail that dwarfs e^{lam t} in relative terms
            assert np.max(np.abs(traj[k] - np.exp(lam * t))) <= 1e-2


class TestCriterion4ZoneExample:
    CFG = dict(
        alpha=0.4,
        T=1.0,
        n_modes=5,
        n_steps=256,
        y0=(1.0, 0.0, 0.0, 0.0, 0.0),
        actuator={"kind": "zone", "a": 0.2, "b": 0.5},
        target_modes=(2, 3, 4, 5),
    )

    def test_shipped_config_is_this_example(self):
        assert load_config(CONFIGS / "zone.json") == ProblemConfig(**self.CFG)

    def test_influence_product_of_sines(self):
        a, b = 0.2, 0.5
        act = make_zone(a, b, 10)
        for i in range(1, 11):
            closed = (
                2.0
                * SQRT2
                / (i * math.pi)
                * math.sin(i * math.pi * (a + b) / 2.0)
                * math.sin(i * math.pi * (b - a) / 2.0)
            )
            assert abs(act[i - 1] - closed) <= 1e-12

    def test_steering_into_complement_of_first_mode(self):
        cfg = ProblemConfig(**self.CFG)
        sol = solve_rhum(cfg)
        assert sol.residual <= 1e-10
        report = verify_transfer(cfg, sol.u_star)
        y0_norm = float(np.linalg.norm(cfg.y0_array()))
        assert report.distance_to_G / y0_norm <= 1e-4


class TestCriterion5PointwiseExample:
    CFG = dict(
        alpha=0.4,
        T=1.0,
        n_modes=5,
        n_steps=256,
        y0=(1.0, 0.0, 0.0, 0.0, 0.0),
        actuator={"kind": "pointwise", "b": 1.0 / 3.0},
        target_modes=(2, 3, 4, 5),  # annihilator = span{e1}: avoids mode 3
    )

    def test_shipped_config_is_this_example(self):
        assert load_config(CONFIGS / "pointwise_reachable.json") == ProblemConfig(**self.CFG)

    def test_dead_mode_detected_exactly(self):
        act = make_pointwise(1.0 / 3.0, 6)
        assert abs(act[2]) <= 1e-12
        assert abs(act[5]) <= 1e-12
        tgt = make_target([], 6)
        assert dead_modes(act, tgt) == [3, 6]

    def test_transfer_when_annihilator_avoids_dead_mode(self):
        cfg = ProblemConfig(**self.CFG)
        sol = solve_rhum(cfg)
        report = verify_transfer(cfg, sol.u_star)
        assert report.distance_to_G <= 1e-4

    @pytest.mark.parametrize("shipped", [False, True], ids=["n64", "shipped"])
    def test_cli_exits_2_when_annihilator_contains_dead_mode(self, tmp_path, shipped):
        cfg_path = CONFIGS / "pointwise_dead_mode.json"  # the same problem at n = 256
        if not shipped:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(
                json.dumps(
                    {
                        "alpha": 0.4,
                        "T": 1.0,
                        "n_modes": 5,
                        "n_steps": 64,
                        "y0": [0.0, 0.0, 1.0, 0.0, 0.0],
                        "actuator": {"kind": "pointwise", "b": 1.0 / 3.0},
                        "target_modes": [1, 2, 4, 5],  # annihilator contains e3
                    }
                ),
                encoding="utf-8",
            )
        code = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2


# Trapezoid nodes in x = log(r t) for ``_ml_alpha_alpha``'s real-axis integral
_LAPLACE_X = np.linspace(-60.0, 6.0, 6001)
_LAPLACE_RT = np.exp(_LAPLACE_X)
_LAPLACE_DECAY = np.exp(-_LAPLACE_RT)


def _ml_alpha_alpha(alpha: float, lam: np.ndarray, t: float) -> np.ndarray:
    """E_{a,a}(lam_i t^a) for lam_i < 0, independently of the package's kernels.

    The real-axis Laplace form (Gorenflo, Kilbas, Mainardi & Rogosin,
    *Mittag-Leffler Functions*, Springer 2014) with mu = -lam_i > 0,
    t^(a-1) E_{a,a}(-mu t^a)
      = (1/pi) int_0^inf e^{-rt} r^a sin(a pi) / (r^{2a} + 2 mu r^a cos(a pi) + mu^2) dr,
    taken with r = e^x / t by a trapezoid rule in x.  At t = 0 the value is
    the limit E_{a,a}(0) = 1 / Gamma(a).
    """
    if t == 0.0:
        return np.full(lam.shape, 1.0 / math.gamma(alpha))
    r = _LAPLACE_RT / t
    ra = r**alpha
    mu = -lam[:, None]
    f = _LAPLACE_DECAY * r * ra * math.sin(alpha * math.pi) / (
        ra * ra + 2.0 * mu * ra * math.cos(alpha * math.pi) + mu * mu
    )
    return t ** (1.0 - alpha) * np.trapezoid(f, _LAPLACE_X, axis=1) / math.pi


class TestCriterion6GramianNorm:
    def _random_strategic_configs(self, count=10):
        rng = np.random.default_rng(2024)
        configs = []
        while len(configs) < count:
            alpha = float(rng.uniform(0.55, 0.95))
            T = float(rng.choice([0.5, 1.0]))
            n = int(rng.integers(3, 7))
            a = float(rng.uniform(0.05, 0.45))
            b = float(rng.uniform(a + 0.2, min(a + 0.7, 0.99)))
            act = make_zone(a, b, n)
            m = int(rng.integers(0, n))  # target dimension < n
            modes = sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
            tgt = make_target(modes, n)
            if not is_strategic(act, tgt)["strategic"]:
                continue
            configs.append((alpha, T, act, tgt, rng.normal(size=tgt.annihilator.size)))
        return configs

    def test_quadratic_form_matches_direct_quadrature(self):
        for alpha, T, act, tgt, seed in self._random_strategic_configs():
            gram = assemble_gramian(act, tgt, alpha, T)
            assert gram.min_eigenvalue() > 0.0
            phi_hat = seed / np.linalg.norm(seed)
            quad_form = float(phi_hat @ (gram.factor.T @ gram.factor) @ phi_hat)
            lam = eigenvalues(act.size)
            bphi = act * tgt.embed(phi_hat)

            def g_sq(t):
                obs = float(bphi @ _ml_alpha_alpha(alpha, lam, t))
                return obs * obs

            oracle, _ = quad(
                g_sq,
                0.0,
                T,
                weight="alg",
                wvar=(2.0 * alpha - 2.0, 0.0),
                limit=400,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert quad_form == pytest.approx(oracle, rel=1e-6)

    def test_dead_mode_gives_exact_null_vector(self):
        act = make_pointwise(1.0 / 3.0, 5)
        tgt = make_target([], 5)  # annihilator touches every mode, incl. dead 3
        gram = discrete_gramian(act, tgt, 0.6, TimeGrid(1.0, 128))
        # the annihilator coordinate aligned with the dead mode
        null = np.eye(5)[:, 2][tgt.annihilator]
        assert float(np.linalg.norm(gram.factor.T @ gram.factor @ null)) <= 1e-12


class TestCriterion7PenalizationSweep:
    CFG = dict(
        alpha=0.6,
        T=1.0,
        n_modes=5,
        n_steps=48,
        y0=(1.0, 0.0, 0.0, 0.0, 0.0),
        actuator={"kind": "pointwise", "b": 1.0 / 3.0},
        target_modes=(2, 3, 4, 5),
    )

    def test_shipped_config_is_this_example(self):
        assert load_config(CONFIGS / "sweep.json") == ProblemConfig(**self.CFG)

    def test_sweep_cross_validates_synthesis(self):
        cfg = ProblemConfig(**self.CFG)
        eps = [1e-1, 1e-3, 1e-5]
        rows = epsilon_sweep(cfg, eps)
        J = [r.J_eps for r in rows]
        assert J[0] <= J[1] + 1e-10 and J[1] <= J[2] + 1e-10
        sol = solve_rhum(cfg)
        J_ref = control_energy(sol.u_star, cfg.grid())
        assert abs(J[-1] - J_ref) / J_ref <= 1e-2
        assert rows[-1].rel_control_err <= 2e-2
        # residual <= C sqrt(eps) with a stable order-one constant
        C = [r.residual_norm / math.sqrt(r.epsilon) for r in rows]
        assert max(C) <= 1.0
        assert max(C) / min(C) <= 50.0


class TestCriterion8Optimality:
    def test_feasible_perturbations_never_reduce_energy(self):
        cfg = ProblemConfig(
            alpha=0.5,
            T=1.0,
            n_modes=4,
            n_steps=96,
            y0=(1.0, -0.5, 0.0, 0.25),
            actuator={"kind": "zone", "a": 0.2, "b": 0.5},
            target_modes=(3, 4),
        )
        sol = solve_rhum(cfg)
        grid = cfg.grid()
        act = cfg.build_actuator()
        tgt = cfg.build_target()
        gram = discrete_gramian(act, tgt, cfg.alpha, grid)
        A = terminal_control_map(cfg.alpha, grid, act)[tgt.annihilator]
        w = grid.weights
        J_star = control_energy(sol.u_star, grid)
        u_norm = float(np.linalg.norm(sol.u_star))
        rng = np.random.default_rng(88)
        for _ in range(20):
            pert = rng.normal(size=cfg.n_steps + 1)
            coef = np.linalg.solve(gram.factor.T @ gram.factor, A @ pert)
            v = pert - (A.T @ coef) / w  # w-weighted projection onto null(A)
            assert np.max(np.abs(A @ v)) <= 1e-10
            v *= 0.1 * u_norm / np.linalg.norm(v)
            assert control_energy(sol.u_star + v, grid) >= J_star - 1e-9


class TestCriterion9Determinism:
    def test_config_round_trip(self, tmp_path):
        cfg = ProblemConfig(
            alpha=0.45,
            T=2.0,
            n_modes=4,
            n_steps=40,
            y0=(0.5, 0.0, -0.25, 0.0),
            actuator={"kind": "zone", "a": 0.1, "b": 0.6},
            target_modes=(2, 4),
            tolerances=Tolerances(verify_distance=3e-5),
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "alpha": 0.6,
                    "T": 1.0,
                    "n_modes": 3,
                    "n_steps": 48,
                    "y0": [1.0, 0.0, 0.0],
                    "actuator": {"kind": "zone", "a": 0.2, "b": 0.5},
                    "target_modes": [2, 3],
                }
            ),
            encoding="utf-8",
        )
        digests = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
            digests.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        assert digests[0] == digests[1]
