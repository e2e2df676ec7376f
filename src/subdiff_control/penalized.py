"""Minimum-energy control by quadratic penalization, as a cross-check.

The control energy (1/2) integral u^2 is augmented with (1/(2 eps)) times the
squared dynamics residual of the trajectory, while the terminal condition
(final state in the target subspace) is kept as a hard linear constraint.
Letting eps -> 0 recovers the constrained minimum-energy control, which is
compared row by row against the adjoint-seed synthesis.

Eliminating z reduces both residual forms to one ridge solve,
(A W^-1 A^T + eps P^T diag(s) P) phi = c, u = A^T phi / w (``_ridge_solve``):
A maps control node samples to annihilator coordinates of the final state,
P is the annihilator basis and s_i the terminal sensitivity of mode i to its
residual.  The forms differ only in A, c, s and in how z is recovered:

* ``"mild"`` (default): residual = z - (free state + control convolution),
  the defect against the mild-solution simulator.  Before T the trajectory
  is unconstrained, so the optimal residual vanishes there; at T it shifts
  z(T) directly with the trapezoid end weight, s_i = 1 / w_T.  A is the
  spectral map of ``discrete_gramian``, so this is the ridge-regularized
  Gramian solve (G + (eps / w_T) I) phi = c.  As eps -> 0 it tends to the
  synthesis control; it checks the solve, not the discretization.
* ``"caputo"``: residual = (discrete Caputo derivative of z) - lambda z - b u
  using the L1-style product quadrature, the literal strong-form defect.
  Each mode of the scheme gives z from u and the residual, so A is the
  terminal map of the L1 scheme, not of the Mittag-Leffler table.  Its
  eps -> 0 limit is the minimum-energy control of the *L1-discretized*
  dynamics, which differs from the mild-solution control by the scheme gap;
  this is the independent cross-check of the synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuators import Actuator, TargetSubspace, is_strategic
from .config import ProblemConfig
from .errors import DomainError, InfeasibleError
from .fractional import _derivative, _kernel_matrix
from .rhum import (
    _trapezoid_weights,
    control_energy,
    discrete_gramian,
    solve_rhum,
    steering_rhs,
)
from .spectral import TimeGrid, eigenvalues, mild_trajectory
from .special import gamma_fn

RESIDUAL_FORMS = ("mild", "caputo")


@dataclass(frozen=True)
class PenalizedProblem:
    config: ProblemConfig
    epsilon: float
    residual_form: str = "mild"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError(f"penalty parameter must be positive, got {self.epsilon}")
        if self.residual_form not in RESIDUAL_FORMS:
            raise DomainError(
                f"residual_form must be one of {RESIDUAL_FORMS}, got {self.residual_form!r}"
            )


def energy(u: np.ndarray, grid: TimeGrid) -> float:
    """Trapezoid quadrature of (1/2) integral u(t)^2 dt."""
    return control_energy(u, grid)


def _caputo_matrix(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Dense matrix of the discrete Caputo operator (``caputo_left``) on grid node samples."""
    n = grid.n_steps + 1
    weights = _kernel_matrix(n, grid.h, -alpha)
    return weights @ _derivative(np.eye(n), grid.h) / gamma_fn(1.0 - alpha)


def dynamics_residual(
    config: ProblemConfig, u: np.ndarray, z: np.ndarray, form: str = "mild"
) -> np.ndarray:
    """Defect of (u, z) against the discrete dynamics; shape (n_steps+1, N)."""
    grid = config.grid()
    influence = config.build_actuator().influence
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    if form == "mild":
        return z - mild_trajectory(config.alpha, grid, config.y0_array(), influence, u)
    if form == "caputo":
        D = _caputo_matrix(grid, config.alpha)
        return D @ z - eigenvalues(config.n_modes) * z - np.outer(u, influence)
    raise DomainError(f"unknown residual form {form!r}")


@dataclass(frozen=True)
class PenalizedSolution:
    u_eps: np.ndarray
    z_eps: np.ndarray          # (n_steps+1, N)
    J_eps: float               # full penalized objective at the minimizer
    energy: float              # control-energy part alone
    residual_norm: float       # weighted L2 norm of the dynamics residual


def _check_feasible(config: ProblemConfig, actuator: Actuator, target: TargetSubspace) -> None:
    report = is_strategic(actuator, target, config.tolerances.gramian_rank)
    if report["strategic"]:
        return
    if float(np.linalg.norm(steering_rhs(config))) > 1e-14:
        raise InfeasibleError(
            "terminal constraint unreachable: actuator has dead modes "
            f"{report['dead_modes']} but the free final state leaves the target"
        )


def solve_penalized(problem: PenalizedProblem) -> PenalizedSolution:
    """Minimize the penalized quadratic subject to the hard terminal constraint."""
    config, eps = problem.config, problem.epsilon
    actuator = config.build_actuator()
    target = config.build_target()
    _check_feasible(config, actuator, target)
    solve = _solve_mild if problem.residual_form == "mild" else _solve_caputo
    u, z, res_norm = solve(config, actuator, target, eps)
    en = energy(u, config.grid())
    return PenalizedSolution(u, z, en + res_norm**2 / (2.0 * eps), en, res_norm)


def _ridge_solve(
    A: np.ndarray, w: np.ndarray, c: np.ndarray, P: np.ndarray, s: np.ndarray, eps: float
):
    """Minimize (1/2) u^T W u + (1/(2 eps)) sum_i t_i^2 / s_i subject to A u + P^T t = c.

    t_i is the shift of z_i(T) that the residual buys, at least weighted
    squared residual t_i^2 / s_i.  Returns (u, t, residual_norm).
    """
    gram = (A / w) @ A.T
    phi = np.linalg.solve(gram + eps * (P.T * s) @ P, c)
    t = eps * s * (P @ phi)
    return (A.T @ phi) / w, t, float(np.sqrt(np.sum(t * t / s)))


def _solve_mild(config: ProblemConfig, actuator: Actuator, target: TargetSubspace, eps: float):
    """Ridge solve on the spectral terminal map, s_i = 1 / w_T; returns (u, z, residual_norm)."""
    grid = config.grid()
    _, A, w = discrete_gramian(actuator, target, config.alpha, grid)
    s = np.full(config.n_modes, 1.0 / w[-1])
    u, _, res_norm = _ridge_solve(A, w, steering_rhs(config), target.polar_basis, s, eps)
    z = mild_trajectory(config.alpha, grid, config.y0_array(), actuator.influence, u)
    # the hard terminal constraint: the penalized z(T) lies in G
    z[-1] -= target.project(z[-1])
    return u, z, res_norm


def _solve_caputo(config: ProblemConfig, actuator: Actuator, target: TargetSubspace, eps: float):
    """Ridge solve on the terminal map of the L1 scheme; returns (u, z, residual_norm).

    Per mode, with z_i(0) = y0_i pinned and rho_i the residual on nodes 1..n,
    z_i[1:] = M_i^-1 (b_i u[1:] - m y0_i + rho_i), M_i = (D - lambda_i I)[1:, 1:],
    m = D[1:, 0].  So z_i(T) = l_i^T (...) with l_i = M_i^-T e_last, and the
    cheapest rho_i that shifts z_i(T) by t_i is (t_i / s_i) W_r^-1 l_i with
    s_i = l_i^T W_r^-1 l_i.
    """
    grid = config.grid()
    b = actuator.influence
    P = target.polar_basis
    y0 = config.y0_array()
    lam = eigenvalues(config.n_modes)
    w = _trapezoid_weights(grid)
    # The strong-form residual is meaningless at t = 0 (the discrete Caputo
    # operator vanishes there by construction), so node 0 carries no weight.
    w_r = w[1:]
    D = _caputo_matrix(grid, config.alpha)
    Dr, m = D[1:, 1:], D[1:, 0]
    eye = np.eye(grid.n_steps)
    L = np.stack([np.linalg.solve((Dr - li * eye).T, eye[-1]) for li in lam])
    s = np.sum(L * L / w_r, axis=1)
    A = np.zeros((target.polar_dim, grid.n_steps + 1))
    A[:, 1:] = P.T @ (b[:, None] * L)
    u, t, res_norm = _ridge_solve(A, w, P.T @ (y0 * (L @ m)), P, s, eps)
    z = np.empty((grid.n_steps + 1, config.n_modes))
    z[0] = y0
    for i, li in enumerate(lam):
        rho = (t[i] / s[i]) * L[i] / w_r
        z[1:, i] = np.linalg.solve(Dr - li * eye, b[i] * u[1:] - m * y0[i] + rho)
    return u, z, res_norm


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    J_eps: float
    rel_control_err: float
    residual_norm: float


def epsilon_sweep(
    config: ProblemConfig, eps_list, residual_form: str = "mild"
) -> list[SweepRow]:
    """Solve the penalized problem along a decreasing eps schedule.

    Each row reports the full objective and the weighted-L2 distance of the
    penalized control to the adjoint-seed synthesis control, relative to the
    latter's norm.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) == 0:
        raise DomainError("eps_list must not be empty")
    if any(e <= 0 for e in eps):
        raise DomainError(f"eps values must be positive, got {eps}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError(f"eps values must be strictly decreasing, got {eps}")
    grid = config.grid()
    w = _trapezoid_weights(grid)
    rhum = solve_rhum(config)
    u_ref = rhum.u_star
    ref_norm = float(np.sqrt(np.dot(w, u_ref * u_ref)))
    rows = []
    for e in eps:
        sol = solve_penalized(PenalizedProblem(config, e, residual_form))
        diff = sol.u_eps - u_ref
        dn = float(np.sqrt(np.dot(w, diff * diff)))
        rel = dn / ref_norm if ref_norm > 0 else dn
        rows.append(SweepRow(e, sol.J_eps, rel, sol.residual_norm))
    return rows
