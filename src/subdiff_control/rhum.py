"""Minimum-energy steering into a target subspace via the adjoint-seed route.

The synthesis seeds an adjoint state from the target's annihilator, solves
G phi_hat = c with G the quadratic observation form (the Gramian) on that
annihilator and c = -(annihilator coordinates of the free final state), and
reads the steering control off the adjoint observation evaluated at T - t.
G is never formed to solve with: a ``Gramian`` holds a factor B, G = B^T B,
whose one thin SVD gives the solve, the spectrum and the null space (Hansen,
*Rank-Deficient and Discrete Ill-Posed Problems*, SIAM 1998).  Two routes:

* ``assemble_gramian`` integrates the continuous observation products
  integral_0^T t^{2(a-1)} E_{a,a}(lambda_i t^a) E_{a,a}(lambda_l t^a) dt
  with a Gauss-Jacobi rule after the substitution v = t^a.  The squared
  kernel is integrable only for a > 1/2; smaller orders raise a typed error.
* ``discrete_gramian`` works in the discrete control space of the simulator:
  with A the (annihilator-projected) map from control node samples to the
  controlled final state and W the trapezoid weight matrix, B = W^{-1/2} A^T.
  This is finite for every a in (0,1) and *exactly* consistent with the
  mild-solution simulator, so the synthesized control verifies to solver
  precision.  ``solve_rhum`` uses this route.

``steering_system`` assembles a problem's system (A, c, Gramian, dead modes;
w is ``grid.weights``) once; ``require_reachable`` is the one reachability
rule, for synthesis, penalization and ``analyze``'s ``eec``.  Penalization is
a Tikhonov filter on a factor of the same kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actuators import Actuator, TargetSubspace, dead_modes, eec_criterion
from .config import ProblemConfig
from .errors import DomainError, NonStrategicError, QuadratureError, SingularGramianError
from .spectral import (
    SpectralField,
    TimeGrid,
    _modes,
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
    """Quadratic observation form G = B^T B = V diag(sigma^2) V^T on the annihilator basis."""

    factor: np.ndarray  # B: a row per control sample or quadrature node

    @cached_property
    def svd(self) -> tuple:
        B = self.factor
        if B.shape[0] < B.shape[1]:  # zero rows make V square: sigma^2 is all of G's spectrum
            B = np.vstack([B, np.zeros((B.shape[1] - B.shape[0], B.shape[1]))])
        return np.linalg.svd(B, full_matrices=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.factor.T @ self.factor

    def min_eigenvalue(self) -> float:
        sigma = self.svd[1]
        return float(sigma[-1] ** 2) if sigma.size else 0.0

    @cached_property
    def rank(self) -> int:
        """Number of singular values above numpy's rank cut, eps * max(B.shape) * sigma_max."""
        sigma = self.svd[1]
        return int(np.sum(sigma > np.finfo(float).eps * max(self.factor.shape) * sigma[:1]))

    def range_miss(self, c: np.ndarray) -> float:
        """|A u - c| of the least-norm control: c's part past V's first ``rank`` columns."""
        return float(np.linalg.norm(self.svd[2][self.rank:] @ c))

    def condition_number(self) -> float:
        """(sigma_max / sigma_min)^2, or inf where sigma_min is below the rank cut."""
        sigma = self.svd[1]
        hi, lo = (sigma[0], sigma[-1]) if sigma.size else (1.0, 1.0)
        return np.inf if self.rank < sigma.size else float((hi / lo) ** 2)


def assemble_gramian(actuator: Actuator, target: TargetSubspace, alpha: float, T: float) -> Gramian:
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
    from scipy.special import roots_jacobi  # here, not at the top: no CLI command assembles this

    beta = (alpha - 1.0) / alpha
    x, wq = roots_jacobi(GRAMIAN_QUAD_N, 0.0, beta)
    half = T**alpha / 2.0
    v = (x + 1.0) * half
    emat = mittag_leffler_array(alpha, alpha, np.outer(eigenvalues(actuator.n_modes), v))
    scale = (1.0 / alpha) * half ** (beta + 1.0)
    pb = actuator.influence[:, None] * target.polar_basis
    factor = np.sqrt(scale * wq)[:, None] * (emat.T @ pb)
    if not np.all(np.isfinite(factor)):
        raise QuadratureError("Gramian quadrature produced non-finite entries")
    return Gramian(factor)


def discrete_gramian(actuator: Actuator, target: TargetSubspace, alpha: float, grid: TimeGrid):
    """Discrete-control-space Gramian consistent with the mild-solution quadrature.

    Returns (Gramian, A, w) where A maps control node samples to annihilator
    coordinates of the controlled final state and w = ``grid.weights``.
    """
    A = target.polar_basis.T @ terminal_control_map(alpha, grid, actuator.influence)
    w = grid.weights
    return Gramian(A.T / np.sqrt(w)[:, None]), A, w


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
    free_T = _modes(config.alpha, grid, config.n_modes).factors[:, -1] * config.y0_array()
    c = -(target.polar_basis.T @ free_T)
    return SteeringSystem(actuator, target, grid, gram, A, c, dead_modes(actuator, target))


def _rank_refusal(system: SteeringSystem, miss: float, verify_distance: float):
    """Refusal of a c outside the Gramian's numerical range: its rank, the grid and the miss."""
    m, n = system.c.size, system.grid.n_steps
    msg = (f"the Gramian has numerical rank {system.gramian.rank} of {m} at n_steps={n}; "
           f"its least-norm control misses G by {miss:.3e} > verify_distance={verify_distance:.1e}")
    if n + 1 < m:
        msg += f"; {n + 1} control samples cannot meet {m} annihilator conditions"
    return SingularGramianError(msg)


def require_reachable(system: SteeringSystem, verify_distance: float) -> None:
    """Raise unless some control steers the free final state into G within ``verify_distance``.

    ``NonStrategicError`` when the annihilator touches a dead mode and c != 0;
    ``SingularGramianError`` when the least-norm control at the Gramian's rank
    cut misses G by more than ``verify_distance`` (``eec_criterion`` fails).
    """
    gram, c = system.gramian, system.c
    if system.dead_modes and float(np.linalg.norm(c)) != 0.0:
        raise NonStrategicError(system.dead_modes)
    if not eec_criterion(gram, c, verify_distance):
        raise _rank_refusal(system, gram.range_miss(c), verify_distance)


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
    normal-equation solve in the weighted geometry: u = W^{-1/2} U_k sigma_k^-1 V_k^T c
    over the k singular values above numpy's rank cut.  Refuses through
    ``require_reachable``, and when |A u - c|, the simulated miss up to
    rounding, of the computed control exceeds ``tolerances.verify_distance``.
    """
    system = steering_system(config)
    vd = config.tolerances.verify_distance
    require_reachable(system, vd)
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
    U, sigma, Vt = gram.svd
    k = gram.rank
    coef = (Vt[:k] @ c) / sigma[:k]
    u_star = (U[: A.shape[1], :k] @ coef) / np.sqrt(system.grid.weights)
    miss = float(np.linalg.norm(A @ u_star - c))
    if not miss <= vd:
        raise _rank_refusal(system, miss, vd)
    phi_hat = Vt[:k].T @ (coef / sigma[:k])
    resid = miss / float(np.linalg.norm(c))  # = |G phi_hat - c| / |c|
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
