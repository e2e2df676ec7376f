"""Minimum-energy control by quadratic penalization, as a cross-check.

The control energy (1/2) integral u^2 is augmented with (1/(2 eps)) times the
squared dynamics residual of the trajectory, while the terminal condition
(final state in the target subspace) is kept as a hard linear constraint.
Letting eps -> 0 recovers the constrained minimum-energy control, which is
compared row by row against the adjoint-seed synthesis.

Eliminating z reduces both residual forms to the synthesis solve on a shifted
Gramian, (G + eps shift I) phi = c with u = W^-1/2 B phi (``_penalized``), where
A maps control node samples to annihilator coordinates of the final state and
G = B^T B, B = W^-1/2 A^T: ``rhum.Gramian.solve`` at delta = eps shift, the
Tikhonov filter phi = V diag(1/(sigma^2 + eps shift)) V^T c.  The forms differ
only in A, c, the shift and in how z is recovered, so each form's builder
returns a ``rhum.SteeringSystem`` (its Gramian's factor B is the form's only
copy of A), its shift and its z recovery:

* ``"mild"`` (default): residual = z - (free state + control convolution),
  the defect against the mild-solution simulator.  Before T the trajectory
  is unconstrained, so the optimal residual vanishes there; at T it shifts
  z(T) directly with the trapezoid end weight, so shift = 1 / w_T.  Its
  system is the steering system itself: no second factorization.  As
  eps -> 0 it tends to the synthesis control; it checks the solve, not the
  discretization.
* ``"caputo"``: residual = (discrete Caputo derivative of z) - lambda z - b u
  using the L1-style product quadrature, the literal strong-form defect.
  Each mode of the scheme gives z from u and the residual, so A is the
  terminal map of the L1 scheme, not of the Mittag-Leffler table.  Its
  eps -> 0 limit is the minimum-energy control of the *L1-discretized*
  dynamics, which differs from the mild-solution control by the scheme gap;
  this is the independent cross-check of the synthesis.  It costs one O(n^2)
  Caputo matrix, N LU solves of it, each shifted in place by lambda_i, and
  the SVD of its own row-scaled Gramian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .spectral import TimeGrid, _is_real, eigenvalues, mild_trajectory
from .special import gamma_fn


def _check_form(form: str) -> None:
    if form not in _BUILDERS:
        raise DomainError(f"residual_form must be one of {tuple(_BUILDERS)}, got {form!r}")


def _check_eps(eps) -> float:
    if not (_is_real(eps) and 0 < eps < np.inf):
        raise DomainError(f"penalty parameter must be a positive finite number, got {eps!r}")
    return float(eps)


@dataclass(frozen=True)
class PenalizedProblem:
    config: ProblemConfig
    epsilon: float
    residual_form: str = "mild"

    def __post_init__(self):
        _check_eps(self.epsilon)
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
    influence = config.build_actuator()
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


def _penalized(system: SteeringSystem, shift: float, eps: float):
    """Minimize (1/2) u^T W u + |t|^2 / (2 eps shift) s.t. A u + t = c; (u, t, residual_norm).

    t, in annihilator coordinates, is the shift of z(T) that the residual
    buys, at weighted squared residual |t|^2 / shift.
    """
    v, phi = system.gramian.solve(system.c, eps * shift)
    t = (eps * shift) * phi
    return v / np.sqrt(system.grid.weights), t, float(np.sqrt(np.dot(t, t) / shift))


def _mild_system(config: ProblemConfig, system: SteeringSystem):
    """The steering system itself with shift 1 / w_T; z is the simulated trajectory."""
    target, influence = system.target, system.influence

    def recover(u, t):
        z = mild_trajectory(config.alpha, system.grid, config.y0_array(), influence, u)
        # the hard terminal constraint: the penalized z(T) lies in G
        z[-1, target.annihilator] = 0.0
        return z

    return system, 1.0 / system.grid.weights[-1], recover


def _caputo_system(config: ProblemConfig, system: SteeringSystem):
    """Terminal map of the L1 scheme, rows scaled to a unit shift; z is recovered from u and t.

    Per mode, with z_i(0) = y0_i pinned and rho_i the residual on nodes 1..n,
    z_i[1:] = M_i^-1 (b_i u[1:] - m y0_i + rho_i), M_i = (D - lambda_i I)[1:, 1:],
    m = D[1:, 0].  So z_i(T) = l_i^T (...) with l_i = M_i^-T e_last, and the
    cheapest rho_i that shifts z_i(T) by t_i is (t_i / s_i) W_r^-1 l_i with
    s_i = l_i^T W_r^-1 l_i; scaling row i of A and c by r_i = 1/sqrt(s_i) gives
    a unit shift in t' = r t, and t_i / s_i = r_i t'_i.  Each M_i is D's block
    with its diagonal assigned in place, and recovering z solves it again: N
    kept copies or factors would add N n^2 doubles to a sweep's peak of about
    2 (n+1)^2.
    """
    grid, w, b = system.grid, system.grid.weights, system.influence
    target, ann = system.target, system.target.annihilator
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
    r = 1.0 / np.sqrt(np.sum(L[ann] ** 2 / w_r, axis=1))
    A = np.pad(r[:, None] * b[ann, None] * L[ann], ((0, 0), (1, 0)))  # node 0 has no influence
    c = r * y0[ann] * (L[ann] @ m)

    def recover(u, t):
        tau = target.embed(r * t)  # t_i / s_i per mode
        z = np.empty((grid.n_steps + 1, config.n_modes))
        z[0] = y0
        for i, li in enumerate(lam):
            np.fill_diagonal(Dr, diag - li)
            z[1:, i] = np.linalg.solve(Dr, b[i] * u[1:] - m * y0[i] + tau[i] * L[i] / w_r)
        return z

    return replace(system, gramian=Gramian(A.T / np.sqrt(w)[:, None]), c=c), 1.0, recover


# (SteeringSystem, shift, z(u, t) recovery) of each residual form
_BUILDERS = {"mild": _mild_system, "caputo": _caputo_system}


def solve_penalized(problem: PenalizedProblem) -> PenalizedSolution:
    """Minimize the penalized quadratic subject to the hard terminal constraint."""
    config, eps = problem.config, problem.epsilon
    system = steering_system(config)
    require_reachable(system, config.tolerances.verify_distance)
    psys, shift, recover = _BUILDERS[problem.residual_form](config, system)
    u, t, res_norm = _penalized(psys, shift, eps)
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

    The form's system is built and factored once, on the synthesis solve's
    steering system; each eps costs one ``Gramian.solve`` filter and no
    trajectory.  Each row reports the full objective and the weighted-L2
    distance of the penalized control to the adjoint-seed synthesis control,
    relative to the latter's norm.
    """
    try:
        eps = [_check_eps(e) for e in eps_list]
    except TypeError:
        raise DomainError(f"eps_list must be an iterable of numbers, got {eps_list!r}") from None
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError(f"eps values must be non-empty and strictly decreasing, got {eps}")
    _check_form(residual_form)
    ref = solve_rhum(config)
    psys, shift, _ = _BUILDERS[residual_form](config, ref.system)
    grid, u_ref = ref.system.grid, ref.u_star
    w = grid.weights
    ref_norm = float(np.sqrt(np.dot(w, u_ref * u_ref)))
    rows = []
    for e in eps:
        u, _, res_norm = _penalized(psys, shift, e)
        dn = float(np.sqrt(np.dot(w, (u - u_ref) ** 2)))
        rel = dn / ref_norm if ref_norm > 0 else dn
        rows.append(SweepRow(e, control_energy(u, grid) + res_norm**2 / (2.0 * e), rel, res_norm))
    return rows
