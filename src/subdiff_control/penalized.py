"""Minimum-energy control by quadratic penalization, as a cross-check.

The control energy (1/2) integral u^2 is augmented with (1/(2 eps)) times the
squared dynamics residual of the trajectory, while the terminal condition
(final state in the target subspace) is kept as a hard linear constraint.
Letting eps -> 0 recovers the constrained minimum-energy control, which is
compared row by row against the adjoint-seed synthesis.

Eliminating z reduces both residual forms to one ridge solve,
(A W^-1 A^T + eps diag(s_a)) phi = c, u = A^T phi / w (``_ridge``), where A maps
control node samples to annihilator coordinates of the final state, s_i is the
terminal sensitivity of mode i to its residual and s_a its annihilator entries.
The target is a set of modes, so the shift is diagonal and its whitening a row
scale by r = 1/sqrt(s_a): one thin SVD of W^-1/2 A^T diag(r) = U diag(sigma) V^T
makes each eps the Tikhonov filter phi = r V diag(1/(sigma^2 + eps)) V^T (r c).
The forms differ only in A, c, s and in how z is recovered, so each has one
builder of that system on the problem's ``rhum.SteeringSystem``:

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
  this is the independent cross-check of the synthesis.  It costs one O(n^2)
  Caputo matrix and N LU solves of it, each shifted in place by lambda_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ProblemConfig
from .errors import DomainError
from .fractional import _kernel_matrix
from .rhum import (
    Gramian,
    SteeringSystem,
    control_energy,
    require_reachable,
    solve_rhum,
    steering_system,
)
from .spectral import TimeGrid, eigenvalues, mild_trajectory
from .special import gamma_fn


def _check_form(form: str) -> None:
    if form not in _BUILDERS:
        raise DomainError(f"residual_form must be one of {tuple(_BUILDERS)}, got {form!r}")


@dataclass(frozen=True)
class PenalizedProblem:
    config: ProblemConfig
    epsilon: float
    residual_form: str = "mild"

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise DomainError(f"penalty parameter must be positive and finite, got {self.epsilon}")
        _check_form(self.residual_form)


def _caputo_matrix(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Dense matrix of the discrete Caputo operator (``caputo_left``) on grid node samples."""
    K = _kernel_matrix(grid.n_steps + 1, grid.h, -alpha)
    # K @ _derivative(I) in O(n^2): centered rows shift K's columns, end rows add their stencils
    D = np.zeros_like(K)
    D[:, 2:] += K[:, 1:-1]
    D[:, :-2] -= K[:, 1:-1]
    D[:, :3] += np.outer(K[:, 0], [-3.0, 4.0, -1.0])
    D[:, -3:] += np.outer(K[:, -1], [1.0, -4.0, 3.0])
    D /= 2.0 * grid.h * gamma_fn(1.0 - alpha)
    return D


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


def _ridge(A, w, c, target, s):
    """``solve(eps)``: minimize (1/2) u^T W u + (1/(2 eps)) sum_i t_i^2 / s_i s.t. A u + t[ann] = c.

    t_i is the shift of z_i(T) that the residual buys, at least weighted
    squared residual t_i^2 / s_i; it vanishes on G.  ``solve`` returns
    (u, t, residual_norm).
    """
    r = 1.0 / np.sqrt(s[target.annihilator])
    _, sigma, Vt = Gramian((r[:, None] * (A / np.sqrt(w))).T).svd
    d = Vt @ (r * c)

    def solve(eps: float):
        phi = r * (Vt.T @ (d / (sigma**2 + eps)))
        t = eps * s * target.embed(phi)
        return (A.T @ phi) / w, t, float(np.sqrt(np.sum(t * t / s)))

    return solve


def _mild_system(config: ProblemConfig, system: SteeringSystem):
    """The steering system itself with s_i = 1 / w_T; z is the simulated trajectory."""
    target, influence = system.target, system.actuator.influence
    w = system.grid.weights
    s = np.full(config.n_modes, 1.0 / w[-1])

    def recover(u, t):
        z = mild_trajectory(config.alpha, system.grid, config.y0_array(), influence, u)
        # the hard terminal constraint: the penalized z(T) lies in G
        z[-1, target.annihilator] = 0.0
        return z

    return (system.A, w, system.c, target, s), recover


def _caputo_system(config: ProblemConfig, system: SteeringSystem):
    """Terminal map of the L1 scheme; z is recovered from u and the residual.

    Per mode, with z_i(0) = y0_i pinned and rho_i the residual on nodes 1..n,
    z_i[1:] = M_i^-1 (b_i u[1:] - m y0_i + rho_i), M_i = (D - lambda_i I)[1:, 1:],
    m = D[1:, 0].  So z_i(T) = l_i^T (...) with l_i = M_i^-T e_last, and the
    cheapest rho_i that shifts z_i(T) by t_i is (t_i / s_i) W_r^-1 l_i with
    s_i = l_i^T W_r^-1 l_i.  Each M_i is D's block with its diagonal assigned in
    place, and recovering z solves it again: N kept copies or factors would add
    N n^2 doubles to a sweep's peak of about 2 (n+1)^2.
    """
    grid, w = system.grid, system.grid.weights
    b = system.actuator.influence
    target = system.target
    y0 = config.y0_array()
    lam = eigenvalues(config.n_modes)
    # The strong-form residual is meaningless at t = 0 (the discrete Caputo
    # operator vanishes there by construction), so node 0 carries no weight.
    w_r = w[1:]
    D = _caputo_matrix(grid, config.alpha)
    Dr, m, diag = D[1:, 1:], D[1:, 0], D.diagonal()[1:].copy()
    e_last = np.zeros(grid.n_steps)
    e_last[-1] = 1.0
    L = np.empty((config.n_modes, grid.n_steps))
    for i, li in enumerate(lam):
        np.fill_diagonal(Dr, diag - li)  # M_i: every use assigns, never shifts back, so exact
        L[i] = np.linalg.solve(Dr.T, e_last)
    np.fill_diagonal(Dr, diag)
    s = np.sum(L * L / w_r, axis=1)
    A = np.pad((b[:, None] * L)[target.annihilator], ((0, 0), (1, 0)))  # node 0 has no influence

    def recover(u, t):
        z = np.empty((grid.n_steps + 1, config.n_modes))
        z[0] = y0
        for i, li in enumerate(lam):
            rho = (t[i] / s[i]) * L[i] / w_r
            np.fill_diagonal(Dr, diag - li)
            z[1:, i] = np.linalg.solve(Dr, b[i] * u[1:] - m * y0[i] + rho)
        return z

    return (A, w, (y0 * (L @ m))[target.annihilator], target, s), recover


# Ridge system (A, w, c, target, s) of each residual form and its z(u, t) recovery
_BUILDERS = {"mild": _mild_system, "caputo": _caputo_system}


def solve_penalized(problem: PenalizedProblem) -> PenalizedSolution:
    """Minimize the penalized quadratic subject to the hard terminal constraint."""
    config, eps = problem.config, problem.epsilon
    system = steering_system(config)
    require_reachable(system, config.tolerances.verify_distance)
    ridge, recover = _BUILDERS[problem.residual_form](config, system)
    u, t, res_norm = _ridge(*ridge)(eps)
    en = control_energy(u, system.grid)
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

    The form's ridge system is built and factored once, on the synthesis
    solve's steering system; each eps costs one diagonal filter and no
    trajectory.  Each row reports the full objective and the weighted-L2
    distance of the penalized control to the adjoint-seed synthesis control,
    relative to the latter's norm.
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
    solve = _ridge(*_BUILDERS[residual_form](config, ref.system)[0])
    grid, u_ref = ref.system.grid, ref.u_star
    w = grid.weights
    ref_norm = float(np.sqrt(np.dot(w, u_ref * u_ref)))
    rows = []
    for e in eps:
        u, _, res_norm = solve(e)
        dn = float(np.sqrt(np.dot(w, (u - u_ref) ** 2)))
        rel = dn / ref_norm if ref_norm > 0 else dn
        rows.append(SweepRow(e, control_energy(u, grid) + res_norm**2 / (2.0 * e), rel, res_norm))
    return rows
