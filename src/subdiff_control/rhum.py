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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
from .special import mittag_leffler

COND_WARN_THRESHOLD = 1e12


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

    def min_eigenvalue(self) -> float:
        if self.matrix.size == 0:
            return 0.0
        return float(np.min(np.linalg.eigvalsh(self.matrix)))

    def condition_number(self) -> float:
        if self.matrix.size == 0:
            return 1.0
        ev = np.linalg.eigvalsh(self.matrix)
        lo = float(np.min(np.abs(ev)))
        hi = float(np.max(np.abs(ev)))
        return np.inf if lo == 0.0 else hi / lo


def assemble_gramian(
    actuator: Actuator,
    target: TargetSubspace,
    alpha: float,
    T: float,
    quad_n: int = 128,
) -> Gramian:
    """Continuous-time Gramian on the annihilator via weighted Gauss quadrature.

    Substituting v = t^a turns each entry into
    (1/a) integral_0^{T^a} v^beta E_{a,a}(lambda_i v) E_{a,a}(lambda_l v) dv
    with beta = (a-1)/a in (-1, 0), handled exactly by a Gauss-Jacobi rule.
    """
    if quad_n < 32:
        raise DomainError(f"need quad_n >= 32, got {quad_n}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"fractional order must lie in (0,1), got {alpha}")
    if alpha <= 0.5:
        raise QuadratureError(
            f"squared observation kernel t^(2a-2) is not integrable at 0 for "
            f"a = {alpha} <= 1/2; use the discrete-control-space Gramian"
        )
    beta = (alpha - 1.0) / alpha
    x, wq = roots_jacobi(quad_n, 0.0, beta)
    half = T**alpha / 2.0
    v = (x + 1.0) * half
    lam = eigenvalues(actuator.n_modes)
    emat = np.empty((lam.size, quad_n))
    for i, li in enumerate(lam):
        for m, vm in enumerate(v):
            emat[i, m] = mittag_leffler(alpha, alpha, li * vm)
    scale = (1.0 / alpha) * half ** (beta + 1.0)
    cmat = scale * (emat * wq) @ emat.T
    pb = actuator.influence[:, None] * target.polar_basis
    mat = pb.T @ cmat @ pb
    mat = 0.5 * (mat + mat.T)
    if not np.all(np.isfinite(mat)):
        raise QuadratureError("Gramian quadrature produced non-finite entries")
    return Gramian(mat)


def _trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.n_steps + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def discrete_gramian(
    actuator: Actuator, target: TargetSubspace, alpha: float, grid: TimeGrid
):
    """Discrete-control-space Gramian consistent with the mild-solution quadrature.

    Returns (Gramian, A, w) where A maps control node samples to annihilator
    coordinates of the controlled final state and w holds trapezoid weights.
    """
    H = terminal_control_map(alpha, grid, actuator.influence)
    A = target.polar_basis.T @ H
    w = _trapezoid_weights(grid)
    mat = (A / w) @ A.T
    mat = 0.5 * (mat + mat.T)
    return Gramian(mat), A, w


def final_free_state(alpha: float, T: float, y0: np.ndarray) -> SpectralField:
    """Uncontrolled final state R(T) y0."""
    return apply_R(alpha, T, SpectralField(np.asarray(y0, dtype=float)))


def steering_rhs(config: ProblemConfig) -> np.ndarray:
    """c = -P^T R(T) y0, with R(T) read off the last column of the memoized node table."""
    free_T = _table(config.alpha, config.grid(), config.n_modes)[:, -1] * config.y0_array()
    return -(config.build_target().polar_basis.T @ free_T)


@dataclass(frozen=True)
class RhumSolution:
    phi0: np.ndarray          # adjoint seed in full mode coordinates (in the annihilator)
    phi_hat: np.ndarray       # its coordinates against the annihilator basis
    u_star: np.ndarray        # control node samples on the grid
    residual: float           # relative residual of the Gramian solve
    gramian: Gramian
    condition_number: float


def solve_rhum(config: ProblemConfig) -> RhumSolution:
    """Synthesize the minimum-energy steering control for ``config``.

    Minimizes the trapezoid-weighted control energy subject to the terminal
    state landing in the target subspace, which is exactly the adjoint-seed
    normal-equation solve in the weighted geometry.
    """
    actuator = config.build_actuator()
    target = config.build_target()
    grid = config.grid()
    report = is_strategic(actuator, target, config.tolerances.gramian_rank)
    c = steering_rhs(config)
    gram, A, w = discrete_gramian(actuator, target, config.alpha, grid)
    npolar = target.polar_dim
    if npolar == 0 or float(np.linalg.norm(c)) == 0.0:
        return RhumSolution(
            phi0=np.zeros(config.n_modes),
            phi_hat=np.zeros(npolar),
            u_star=np.zeros(grid.n_steps + 1),
            residual=0.0,
            gramian=gram,
            condition_number=1.0,
        )
    if not report["strategic"]:
        raise NonStrategicError(report["dead_modes"])
    cond = gram.condition_number()
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"Gramian condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
            "the steering control may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        cf = sla.cho_factor(gram.matrix)
        phi_hat = sla.cho_solve(cf, c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularGramianError(str(exc)) from exc
    except sla.LinAlgError as exc:
        raise SingularGramianError(
            f"Gramian is not positive definite: {exc}"
        ) from exc
    resid = float(np.linalg.norm(gram.matrix @ phi_hat - c) / np.linalg.norm(c))
    u_star = (A.T @ phi_hat) / w
    phi0 = target.polar_basis @ phi_hat
    return RhumSolution(phi0, phi_hat, u_star, resid, gram, cond)


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
    return float(0.5 * np.dot(_trapezoid_weights(grid), u * u))
