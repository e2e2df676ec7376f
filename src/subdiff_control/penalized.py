"""Minimum-energy control by quadratic penalization, as a cross-check.

The control energy (1/2) integral u^2 is augmented with (1/(2 eps)) times the
squared dynamics residual of the trajectory, while the terminal condition
(final state in the target subspace) is kept as a hard linear constraint.
Letting eps -> 0 recovers the constrained minimum-energy control, which is
compared row by row against the adjoint-seed synthesis.

Two residual forms are supported:

* ``"mild"`` (default): residual = z - (free state + control convolution),
  the defect against the mild-solution simulator.  Before T the trajectory
  is unconstrained, so the optimal residual vanishes there; at T it is the
  miss A u - c of the terminal map A from ``discrete_gramian``.  The
  minimizer is therefore the ridge-regularized Gramian solve, in closed form:
  (G + (eps / w_T) I) phi = c, u = A^T phi / w.  As eps -> 0 it tends to the
  synthesis control; it checks the solve, not the discretization.
* ``"caputo"``: residual = (discrete Caputo derivative of z) - lambda z - b u
  using the L1-style product quadrature, the literal strong-form defect,
  minimized through the dense KKT system of the constrained quadratic.  Its
  eps -> 0 limit is the minimum-energy control of the *L1-discretized*
  dynamics, which differs from the mild-solution control by the scheme gap;
  this is the independent cross-check of the synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .actuators import is_strategic
from .config import ProblemConfig
from .errors import DomainError, InfeasibleError
from .fractional import _derivative, _kernel_matrix
from .rhum import (
    _trapezoid_weights,
    control_energy,
    discrete_gramian,
    final_free_state,
    solve_rhum,
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


def _check_feasible(config: ProblemConfig) -> None:
    actuator = config.build_actuator()
    target = config.build_target()
    report = is_strategic(actuator, target, config.tolerances.gramian_rank)
    if report["strategic"]:
        return
    free = final_free_state(config.alpha, config.T, config.y0_array())
    c = target.polar_basis.T @ free.coeffs
    if float(np.linalg.norm(c)) > 1e-14:
        raise InfeasibleError(
            "terminal constraint unreachable: actuator has dead modes "
            f"{report['dead_modes']} but the free final state leaves the target"
        )


def solve_penalized(problem: PenalizedProblem) -> PenalizedSolution:
    """Minimize the penalized quadratic subject to the hard terminal constraint."""
    _check_feasible(problem.config)
    if problem.residual_form == "mild":
        return _solve_mild(problem.config, problem.epsilon)
    return _solve_caputo(problem.config, problem.epsilon)


def _solve_mild(config: ProblemConfig, eps: float) -> PenalizedSolution:
    """Ridge-regularized Gramian solve: (G + (eps / w_T) I) phi = c, u = A^T phi / w."""
    grid = config.grid()
    actuator = config.build_actuator()
    target = config.build_target()
    gram, A, w = discrete_gramian(actuator, target, config.alpha, grid)
    free = final_free_state(config.alpha, config.T, config.y0_array())
    c = -(target.polar_basis.T @ free.coeffs)
    phi = np.linalg.solve(gram.matrix + (eps / w[-1]) * np.eye(c.size), c)
    u = (A.T @ phi) / w
    z = mild_trajectory(config.alpha, grid, config.y0_array(), actuator.influence, u)
    # the hard terminal constraint: the penalized z(T) lies in G
    z[-1] -= target.project(z[-1])
    res_norm = float(np.sqrt(w[-1]) * np.linalg.norm(A @ u - c))
    en = energy(u, grid)
    return PenalizedSolution(u, z, en + res_norm**2 / (2.0 * eps), en, res_norm)


def _solve_caputo(config: ProblemConfig, eps: float) -> PenalizedSolution:
    """Dense KKT solve over x = [u; z_1; ...; z_N] with the L1-scheme residual R x."""
    grid = config.grid()
    actuator = config.build_actuator()
    target = config.build_target()
    lam = eigenvalues(config.n_modes)
    n = grid.n_steps + 1
    N = config.n_modes
    dim = (N + 1) * n
    w = _trapezoid_weights(grid)
    # The strong-form residual is meaningless at t = 0 (the discrete Caputo
    # operator vanishes there by construction), so that node is dropped from
    # the residual norm; the initial value is a hard constraint instead.
    w_res = w.copy()
    w_res[0] = 0.0

    D = _caputo_matrix(grid, config.alpha)
    R = np.zeros((N * n, dim))
    for i in range(N):
        rows = slice(i * n, (i + 1) * n)
        R[rows, 0:n] = -actuator.influence[i] * np.eye(n)
        R[rows, (i + 1) * n : (i + 2) * n] = D - lam[i] * np.eye(n)

    wfull = np.tile(w_res, N)
    Q = np.zeros((dim, dim))
    Q[np.arange(n), np.arange(n)] = w
    Q += (1.0 / eps) * (R.T * wfull) @ R

    # hard constraints: terminal annihilator coordinates of z vanish and the
    # initial samples are pinned, z_i(0) = y0_i.
    npolar = target.polar_dim
    z_start = np.arange(1, N + 1) * n
    C = np.zeros((npolar + N, dim))
    C[:npolar, z_start + n - 1] = target.polar_basis.T
    C[npolar + np.arange(N), z_start] = 1.0
    d = np.concatenate([np.zeros(npolar), config.y0_array()])

    kkt = np.zeros((dim + C.shape[0], dim + C.shape[0]))
    kkt[:dim, :dim] = Q
    kkt[:dim, dim:] = C.T
    kkt[dim:, :dim] = C
    sol = sla.solve(kkt, np.concatenate([np.zeros(dim), d]), assume_a="sym")
    x = sol[:dim]
    u = x[:n]
    z = x[n:].reshape(N, n).T
    res = (R @ x).reshape(N, n).T
    res_norm = float(np.sqrt(np.sum(w_res[:, None] * res * res)))
    en = energy(u, grid)
    return PenalizedSolution(u, z, en + res_norm**2 / (2.0 * eps), en, res_norm)


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
