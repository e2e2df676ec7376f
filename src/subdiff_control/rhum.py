"""Minimum-energy steering into a target subspace via the adjoint-seed route.

The synthesis seeds an adjoint state from the target's annihilator, forms the
quadratic observation form (the Gramian) on that annihilator, solves

    Gramian @ phi_hat = -(annihilator coordinates of the free final state),

and reads the steering control off the adjoint observation evaluated at T - t.

Two Gramian routes exist:

* ``assemble_gramian`` integrates the continuous observation products
  integral_0^T t^{2(a-1)} E_{a,a}(lambda_i t^a) E_{a,a}(lambda_l t^a) dt
  with a Gauss-Jacobi rule after the substitution v = t^a.  The squared
  kernel is integrable only for a > 1/2; smaller orders raise a typed error.
* ``discrete_gramian`` works in the discrete control space of the simulator:
  with H the (annihilator-projected) map from control node samples to the
  controlled final state and W the trapezoid weight matrix, it forms
  H W^{-1} H^T.  This is finite for every a in (0,1) and, crucially, is
  *exactly* consistent with the mild-solution simulator, so the synthesized
  control verifies to solver precision.  ``solve_rhum`` uses this route.

``steering_system`` assembles a problem's system (A, c, Gramian, dead modes;
w is ``grid.weights``) once; ``require_reachable`` is the one reachability
rule.  Penalization is this same Cholesky solve on the Gramian shifted by
eps P^T diag(s) P.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg as sla
from scipy.special import roots_jacobi

from .actuators import Actuator, TargetSubspace, is_strategic
from .config import ProblemConfig
from .errors import DomainError, NonStrategicError, QuadratureError, SingularGramianError
from .spectral import (
    SpectralField,
    TimeGrid,
    _table,
    apply_K,
    apply_R,
    eigenvalues,
    mild_trajectory,
    terminal_control_map,
)
from .special import mittag_leffler_array

COND_WARN_THRESHOLD = 1e12
GRAMIAN_QUAD_N = 128  # Gauss-Jacobi nodes of ``assemble_gramian``


@dataclass(frozen=True)
class AdjointState:
    """Adjoint seed phi0 with per-mode evolution factor t^(a-1) E_{a,a}(lambda_i t^a)."""

    phi0: np.ndarray
    alpha: float
    T: float

    def __post_init__(self):
        object.__setattr__(self, "phi0", np.asarray(self.phi0, dtype=float))

    def coeffs_at(self, t: float) -> np.ndarray:
        if not 0.0 < t <= self.T:
            raise DomainError(f"adjoint state is evaluated on (0, T], got t={t}")
        return t ** (self.alpha - 1.0) * apply_K(self.alpha, t, SpectralField(self.phi0)).coeffs


def observation(actuator: Actuator, adjoint: AdjointState, t: float) -> float:
    """Actuator reading of the adjoint state at time t in (0, T].

    Blows up like t^(a-1) as t -> 0+; quadratures must carry that weight.
    """
    return float(np.dot(actuator.influence, adjoint.coeffs_at(t)))


@dataclass(frozen=True)
class Gramian:
    """Quadratic observation form on the target's annihilator basis."""

    matrix: np.ndarray

    @cached_property
    def _spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def min_eigenvalue(self) -> float:
        if self.matrix.size == 0:
            return 0.0
        return float(np.min(self._spectrum))

    def condition_number(self) -> float:
        if self.matrix.size == 0:
            return 1.0
        ev = np.abs(self._spectrum)
        lo, hi = float(np.min(ev)), float(np.max(ev))
        return np.inf if lo == 0.0 else hi / lo


def assemble_gramian(
    actuator: Actuator,
    target: TargetSubspace,
    alpha: float,
    T: float,
) -> Gramian:
    """Continuous-time Gramian on the annihilator via weighted Gauss quadrature.

    Substituting v = t^a turns each entry into
    (1/a) integral_0^{T^a} v^beta E_{a,a}(lambda_i v) E_{a,a}(lambda_l v) dv
    with beta = (a-1)/a in (-1, 0), handled exactly by a Gauss-Jacobi rule.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"fractional order must lie in (0,1), got {alpha}")
    if alpha <= 0.5:
        raise QuadratureError(
            f"squared observation kernel t^(2a-2) is not integrable at 0 for "
            f"a = {alpha} <= 1/2; use the discrete-control-space Gramian"
        )
    beta = (alpha - 1.0) / alpha
    x, wq = roots_jacobi(GRAMIAN_QUAD_N, 0.0, beta)
    half = T**alpha / 2.0
    v = (x + 1.0) * half
    emat = mittag_leffler_array(alpha, alpha, np.outer(eigenvalues(actuator.n_modes), v))
    scale = (1.0 / alpha) * half ** (beta + 1.0)
    cmat = scale * (emat * wq) @ emat.T
    pb = actuator.influence[:, None] * target.polar_basis
    mat = pb.T @ cmat @ pb
    mat = 0.5 * (mat + mat.T)
    if not np.all(np.isfinite(mat)):
        raise QuadratureError("Gramian quadrature produced non-finite entries")
    return Gramian(mat)


def discrete_gramian(
    actuator: Actuator, target: TargetSubspace, alpha: float, grid: TimeGrid
):
    """Discrete-control-space Gramian consistent with the mild-solution quadrature.

    Returns (Gramian, A, w) where A maps control node samples to annihilator
    coordinates of the controlled final state and w = ``grid.weights``.
    """
    H = terminal_control_map(alpha, grid, actuator.influence)
    A = target.polar_basis.T @ H
    w = grid.weights
    mat = (A / w) @ A.T
    mat = 0.5 * (mat + mat.T)
    return Gramian(mat), A, w


def final_free_state(alpha: float, T: float, y0: np.ndarray) -> SpectralField:
    """Uncontrolled final state R(T) y0."""
    return apply_R(alpha, T, SpectralField(np.asarray(y0, dtype=float)))


@dataclass(frozen=True)
class SteeringSystem:
    """One problem's steering constraint A u = c, read by synthesis, penalization and analyze."""

    actuator: Actuator
    target: TargetSubspace
    grid: TimeGrid         # its ``weights`` are the trapezoid weights w
    gramian: Gramian
    A: np.ndarray          # control node samples -> annihilator coordinates of y(T)
    c: np.ndarray          # -P^T R(T) y0, the annihilator coordinates to cancel
    dead_modes: list       # 1-based modes the annihilator touches with no influence


def steering_system(config: ProblemConfig) -> SteeringSystem:
    """Assemble ``config``'s steering system; R(T) is the last column of the node table."""
    actuator = config.build_actuator()
    target = config.build_target()
    grid = config.grid()
    gram, A, _ = discrete_gramian(actuator, target, config.alpha, grid)
    free_T = _table(config.alpha, grid, config.n_modes)[:, -1] * config.y0_array()
    dead = is_strategic(actuator, target, config.tolerances.gramian_rank)["dead_modes"]
    c = -(target.polar_basis.T @ free_T)
    return SteeringSystem(actuator, target, grid, gram, A, c, dead)


def require_reachable(system: SteeringSystem) -> None:
    """Refuse iff the annihilator touches a dead mode and the free state leaves G (c != 0)."""
    if system.dead_modes and float(np.linalg.norm(system.c)) != 0.0:
        raise NonStrategicError(system.dead_modes)


def _cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD (shifted) Gramian system; a failed factorization is a singular Gramian."""
    try:
        return sla.cho_solve(sla.cho_factor(matrix), rhs)
    except sla.LinAlgError as exc:
        raise SingularGramianError(str(exc)) from exc


@dataclass(frozen=True)
class RhumSolution:
    phi0: np.ndarray          # adjoint seed in full mode coordinates (in the annihilator)
    phi_hat: np.ndarray       # its coordinates against the annihilator basis
    u_star: np.ndarray        # control node samples on the grid
    residual: float           # relative residual of the Gramian solve
    system: SteeringSystem

    @property
    def condition_number(self) -> float:
        return self.system.gramian.condition_number()


def solve_rhum(config: ProblemConfig) -> RhumSolution:
    """Synthesize the minimum-energy steering control for ``config``.

    Minimizes the trapezoid-weighted control energy subject to the terminal
    state landing in the target subspace, which is exactly the adjoint-seed
    normal-equation solve in the weighted geometry.
    """
    system = steering_system(config)
    require_reachable(system)
    gram, A, c = system.gramian, system.A, system.c
    if float(np.linalg.norm(c)) == 0.0:  # includes G = whole space (no annihilator)
        zero = np.zeros(system.grid.n_steps + 1)
        return RhumSolution(np.zeros(config.n_modes), np.zeros(c.size), zero, 0.0, system)
    cond = gram.condition_number()
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"Gramian condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
            "the steering control may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    phi_hat = _cholesky_solve(gram.matrix, c)
    resid = float(np.linalg.norm(gram.matrix @ phi_hat - c) / np.linalg.norm(c))
    u_star = (A.T @ phi_hat) / system.grid.weights
    return RhumSolution(system.target.polar_basis @ phi_hat, phi_hat, u_star, resid, system)


@dataclass(frozen=True)
class TransferReport:
    distance_to_G: float
    y_T: SpectralField
    trajectory: np.ndarray


def verify_transfer(config: ProblemConfig, u_star: np.ndarray) -> TransferReport:
    """Simulate the mild solution under ``u_star`` and measure the miss distance."""
    actuator = config.build_actuator()
    target = config.build_target()
    traj = mild_trajectory(
        config.alpha, config.grid(), config.y0_array(), actuator.influence, u_star
    )
    y_T = traj[-1]
    return TransferReport(target.distance_to(y_T), SpectralField(y_T), traj)


def control_energy(u: np.ndarray, grid: TimeGrid) -> float:
    """Trapezoid quadrature of (1/2) integral u(t)^2 dt."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * np.dot(grid.weights, u * u))
