"""Minimum-energy control by quadratic penalization, as a cross-check.

The control energy (1/2) integral u^2 is augmented with (1/(2 eps)) times the
squared dynamics residual of the trajectory, while the terminal condition
(final state in the target subspace) is kept as a hard linear constraint.
Letting eps -> 0 recovers the constrained minimum-energy control, which is
compared row by row against the adjoint-seed synthesis.

Eliminating z reduces both residual forms to one ridge solve,
(G + eps P^T diag(s) P) phi = c, u = A^T phi / w (``_ridge_solve``), with
G = A W^-1 A^T: the synthesis solve of ``rhum`` on a shifted Gramian, factored
with Cholesky as the synthesis factors G.  A maps control node samples to
annihilator coordinates of the final state, P is the annihilator basis and s_i
the terminal sensitivity of mode i to its residual.  The forms differ only in
G, A, c, s and in how z is recovered, so each has one builder of that system
on the problem's ``rhum.SteeringSystem``, and a sweep builds it once for all eps:

* ``"mild"`` (default): residual = z - (free state + control convolution),
  the defect against the mild-solution simulator.  Before T the trajectory
  is unconstrained, so the optimal residual vanishes there; at T it shifts
  z(T) directly with the trapezoid end weight, s_i = 1 / w_T.  G and A are
  the steering system's own, so this is the ridge-regularized Gramian solve
  (G + (eps / w_T) I) phi = c.  As eps -> 0 it tends to the synthesis
  control; it checks the solve, not the discretization.
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

from .config import ProblemConfig
from .errors import DomainError
from .fractional import _derivative, _kernel_matrix
from .rhum import (
    SteeringSystem,
    _cholesky_solve,
    control_energy,
    require_reachable,
    solve_rhum,
    steering_system,
)
from .spectral import TimeGrid, eigenvalues, mild_trajectory
from .special import gamma_fn

RESIDUAL_FORMS = ("mild", "caputo")


def _check_form(form: str) -> None:
    if form not in RESIDUAL_FORMS:
        raise DomainError(f"residual_form must be one of {RESIDUAL_FORMS}, got {form!r}")


@dataclass(frozen=True)
class PenalizedProblem:
    config: ProblemConfig
    epsilon: float
    residual_form: str = "mild"

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise DomainError(f"penalty parameter must be positive and finite, got {self.epsilon}")
        _check_form(self.residual_form)


energy = control_energy  # trapezoid quadrature of (1/2) integral u(t)^2 dt


def _caputo_matrix(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Dense matrix of the discrete Caputo operator (``caputo_left``) on grid node samples."""
    n = grid.n_steps + 1
    weights = _kernel_matrix(n, grid.h, -alpha)
    return weights @ _derivative(np.eye(n), grid.h) / gamma_fn(1.0 - alpha)


def dynamics_residual(
    config: ProblemConfig, u: np.ndarray, z: np.ndarray, form: str = "mild"
) -> np.ndarray:
    """Defect of (u, z) against the discrete dynamics; shape (n_steps+1, N)."""
    _check_form(form)
    grid = config.grid()
    influence = config.build_actuator().influence
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    if form == "mild":
        return z - mild_trajectory(config.alpha, grid, config.y0_array(), influence, u)
    D = _caputo_matrix(grid, config.alpha)
    return D @ z - eigenvalues(config.n_modes) * z - np.outer(u, influence)


@dataclass(frozen=True)
class PenalizedSolution:
    u_eps: np.ndarray
    z_eps: np.ndarray          # (n_steps+1, N)
    J_eps: float               # full penalized objective at the minimizer
    energy: float              # control-energy part alone
    residual_norm: float       # weighted L2 norm of the dynamics residual


def _ridge_solve(G, A, w, c, P, s, eps: float):
    """Minimize (1/2) u^T W u + (1/(2 eps)) sum_i t_i^2 / s_i subject to A u + P^T t = c.

    t_i is the shift of z_i(T) that the residual buys, at least weighted
    squared residual t_i^2 / s_i.  With G = A W^-1 A^T the shifted Gramian
    G + eps P^T diag(s) P is SPD for eps > 0.  Returns (u, t, residual_norm).
    """
    phi = _cholesky_solve(G + eps * (P.T * s) @ P, c)
    t = eps * s * (P @ phi)
    return (A.T @ phi) / w, t, float(np.sqrt(np.sum(t * t / s)))


def _mild_system(config: ProblemConfig, system: SteeringSystem):
    """The steering system itself with s_i = 1 / w_T; z is the simulated trajectory."""
    target, influence = system.target, system.actuator.influence
    w = system.grid.weights
    s = np.full(config.n_modes, 1.0 / w[-1])

    def recover(u, t):
        z = mild_trajectory(config.alpha, system.grid, config.y0_array(), influence, u)
        # the hard terminal constraint: the penalized z(T) lies in G
        z[-1] -= target.project(z[-1])
        return z

    return (system.gramian.matrix, system.A, w, system.c, target.polar_basis, s), recover


def _caputo_system(config: ProblemConfig, system: SteeringSystem):
    """Terminal map of the L1 scheme; z is recovered from u and the residual.

    Per mode, with z_i(0) = y0_i pinned and rho_i the residual on nodes 1..n,
    z_i[1:] = M_i^-1 (b_i u[1:] - m y0_i + rho_i), M_i = (D - lambda_i I)[1:, 1:],
    m = D[1:, 0].  So z_i(T) = l_i^T (...) with l_i = M_i^-T e_last, and the
    cheapest rho_i that shifts z_i(T) by t_i is (t_i / s_i) W_r^-1 l_i with
    s_i = l_i^T W_r^-1 l_i.  Recovering z solves each M_i again: keeping N dense
    factors would double a sweep's peak memory.
    """
    grid, w = system.grid, system.grid.weights
    b = system.actuator.influence
    P = system.target.polar_basis
    y0 = config.y0_array()
    lam = eigenvalues(config.n_modes)
    # The strong-form residual is meaningless at t = 0 (the discrete Caputo
    # operator vanishes there by construction), so node 0 carries no weight.
    w_r = w[1:]
    D = _caputo_matrix(grid, config.alpha)
    Dr, m = D[1:, 1:], D[1:, 0]
    eye = np.eye(grid.n_steps)
    L = np.stack([np.linalg.solve((Dr - li * eye).T, eye[-1]) for li in lam])
    s = np.sum(L * L / w_r, axis=1)
    A = np.pad(P.T @ (b[:, None] * L), ((0, 0), (1, 0)))  # node 0 has no influence

    def recover(u, t):
        z = np.empty((grid.n_steps + 1, config.n_modes))
        z[0] = y0
        for i, li in enumerate(lam):
            rho = (t[i] / s[i]) * L[i] / w_r
            z[1:, i] = np.linalg.solve(Dr - li * eye, b[i] * u[1:] - m * y0[i] + rho)
        return z

    return ((A / w) @ A.T, A, w, P.T @ (y0 * (L @ m)), P, s), recover


# Ridge system (G, A, w, c, P, s) of each residual form and its z(u, t) recovery
_BUILDERS = {"mild": _mild_system, "caputo": _caputo_system}


def solve_penalized(problem: PenalizedProblem) -> PenalizedSolution:
    """Minimize the penalized quadratic subject to the hard terminal constraint."""
    config, eps = problem.config, problem.epsilon
    system = steering_system(config)
    require_reachable(system)
    ridge, recover = _BUILDERS[problem.residual_form](config, system)
    u, t, res_norm = _ridge_solve(*ridge, eps)
    en = energy(u, system.grid)
    return PenalizedSolution(u, recover(u, t), en + res_norm**2 / (2.0 * eps), en, res_norm)


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

    The form's ridge system is built once, on the synthesis solve's steering
    system; each eps costs one small Cholesky solve and no trajectory.  Each
    row reports the full objective and the weighted-L2 distance of the
    penalized control to the adjoint-seed synthesis control, relative to the
    latter's norm.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) == 0:
        raise DomainError("eps_list must not be empty")
    if not all(0 < e < np.inf for e in eps):
        raise DomainError(f"eps values must be positive and finite, got {eps}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError(f"eps values must be strictly decreasing, got {eps}")
    _check_form(residual_form)
    ref = solve_rhum(config)
    ridge, _ = _BUILDERS[residual_form](config, ref.system)
    grid, u_ref = ref.system.grid, ref.u_star
    w = grid.weights
    ref_norm = float(np.sqrt(np.dot(w, u_ref * u_ref)))
    rows = []
    for e in eps:
        u, _, res_norm = _ridge_solve(*ridge, e)
        dn = float(np.sqrt(np.dot(w, (u - u_ref) ** 2)))
        rel = dn / ref_norm if ref_norm > 0 else dn
        rows.append(SweepRow(e, energy(u, grid) + res_norm**2 / (2.0 * e), rel, res_norm))
    return rows
