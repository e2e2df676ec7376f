"""Minimum-energy steering into a target subspace via the adjoint-seed route.

The synthesis seeds an adjoint state from the target's annihilator, solves
G phi_hat = c with G the quadratic observation form (the Gramian) on that
annihilator and c = -(annihilator coordinates of the free final state), and
reads the steering control off the adjoint observation evaluated at T - t.
G is never formed to solve with: a ``Gramian`` holds a factor B, G = B^T B,
whose one thin SVD, of B as built, gives the spectrum (zero past B's rows),
the null space and ``Gramian.solve`` of (G + delta I) phi = c (Hansen,
*Rank-Deficient and Discrete Ill-Posed Problems*, SIAM 1998).  Two routes build B:

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

B is the one stored copy of the control-to-state map: A u = B^T W^{1/2} u,
so a control u = W^{-1/2} v lands at A u = B^T v.  ``steering_system``
assembles a problem's system (b, c, Gramian; w is ``grid.weights``) once;
``require_reachable`` is the one reachability rule, for synthesis,
penalization and ``analyze``'s ``eec``: it makes the least-norm solve
(``Gramian.least_norm``, ``Gramian.solve`` at delta = 0), refuses when its
miss exceeds ``verify_distance`` and returns it, so the synthesis ships the
control the rule judged.  Penalization is ``Gramian.solve`` at delta > 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actuators import TargetSubspace, dead_modes
from .config import ProblemConfig
from .errors import DomainError, NonStrategicError, QuadratureError, SingularGramianError
from .spectral import (
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
        return t ** (self.alpha - 1.0) * apply_K(self.alpha, t, self.phi0)


def observation(b: np.ndarray, adjoint: AdjointState, t: float) -> float:
    """Reading of the adjoint state at time t in (0, T] by the actuator of influence b.

    Blows up like t^(a-1) as t -> 0+; quadratures must carry that weight.
    """
    return float(np.dot(b, adjoint.coeffs_at(t)))


@dataclass(frozen=True)
class Gramian:
    """Quadratic observation form G = B^T B = V diag(sigma^2) V^T in annihilator coordinates."""

    factor: np.ndarray  # B: a row per control sample or quadrature node

    @cached_property
    def svd(self) -> tuple:
        return np.linalg.svd(self.factor, full_matrices=False)

    def min_eigenvalue(self) -> float:
        sigma = self.svd[1]
        return float(sigma[-1] ** 2) if 0 < sigma.size == self.factor.shape[1] else 0.0

    @cached_property
    def rank(self) -> int:
        """Number of singular values above numpy's rank cut, eps * max(B.shape) * sigma_max."""
        sigma = self.svd[1]
        return int(np.sum(sigma > np.finfo(float).eps * max(self.factor.shape) * sigma[:1]))

    def solve(self, c: np.ndarray, delta: float = 0.0) -> tuple:
        """(v, phi) with phi = V diag(1/(sigma^2 + delta)) V^T c and v = B phi.

        At delta = 0 only the ``rank`` singular values above the cut are kept:
        phi is the least-norm solve of G phi = c.  delta > 0 keeps all of them,
        and G's zero eigenvalues past B's rows: the filter (G + delta I) phi = c.
        """
        U, sigma, Vt = self.svd
        k = self.rank if delta == 0.0 else sigma.size
        d = (Vt[:k] @ c) / (sigma[:k] ** 2 + delta)
        phi = Vt[:k].T @ d
        if delta and k < c.size:  # c's part outside B's row space, on G's zero eigenvalues
            phi += (c - Vt.T @ (Vt @ c)) / delta
        return U[:, :k] @ (sigma[:k] * d), phi

    def least_norm(self, c: np.ndarray) -> tuple:
        """(v, phi, miss): ``solve(c)`` at delta = 0 and its miss |B^T v - c| = |A u - c|."""
        v, phi = self.solve(c)
        return v, phi, float(np.linalg.norm(self.factor.T @ v - c))

    def condition_number(self) -> float:
        """(sigma_max / sigma_min)^2 over G's m eigenvalues, or inf where sigma_min is below the rank cut."""
        sigma = self.svd[1]
        hi, lo = (sigma[0], sigma[-1]) if sigma.size else (1.0, 1.0)
        return np.inf if self.rank < self.factor.shape[1] else float((hi / lo) ** 2)


def assemble_gramian(b: np.ndarray, target: TargetSubspace, alpha: float, T: float) -> Gramian:
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
    b = np.asarray(b, dtype=float)
    emat = mittag_leffler_array(alpha, alpha, np.outer(eigenvalues(b.size), v))
    scale = (1.0 / alpha) * half ** (beta + 1.0)
    ann = target.annihilator
    factor = np.sqrt(scale * wq)[:, None] * (emat.T[:, ann] * b[ann])
    if not np.all(np.isfinite(factor)):
        raise QuadratureError("Gramian quadrature produced non-finite entries")
    return Gramian(factor)


def discrete_gramian(
    b: np.ndarray, target: TargetSubspace, alpha: float, grid: TimeGrid
) -> Gramian:
    """Discrete-control-space Gramian consistent with the mild-solution quadrature.

    Its factor is W^{-1/2} A^T, w = ``grid.weights``, where A maps control node
    samples to annihilator coordinates of the controlled final state.
    """
    A = terminal_control_map(alpha, grid, b)[target.annihilator]
    return Gramian(A.T / np.sqrt(grid.weights)[:, None])


def final_free_state(alpha: float, T: float, y0: np.ndarray) -> np.ndarray:
    """Coefficients of the uncontrolled final state R(T) y0."""
    return apply_R(alpha, T, y0)


@dataclass(frozen=True)
class SteeringSystem:
    """One problem's steering constraint A u = c, read by synthesis, penalization and analyze."""

    influence: np.ndarray  # b: the actuator's per-mode influence
    target: TargetSubspace
    grid: TimeGrid         # its ``weights`` are the trapezoid weights w
    gramian: Gramian       # factor B = W^{-1/2} A^T holds the map A
    c: np.ndarray          # -(R(T) y0)[annihilator], the annihilator coordinates to cancel


def steering_system(config: ProblemConfig) -> SteeringSystem:
    """Assemble ``config``'s steering system; R(T) is the last column of the node table."""
    b = config.build_actuator()
    target = config.build_target()
    grid = config.grid()
    gram = discrete_gramian(b, target, config.alpha, grid)
    free_T = _modes(config.alpha, grid, config.n_modes).factors[:, -1] * config.y0_array()
    c = -free_T[target.annihilator]
    return SteeringSystem(b, target, grid, gram, c)


def require_reachable(system: SteeringSystem, verify_distance: float) -> tuple:
    """The least-norm solve (v, phi, miss) of G phi = c, if its control reaches G.

    Raises ``NonStrategicError`` when the annihilator touches a dead mode and
    c != 0, and ``SingularGramianError`` when the least-norm control at the
    Gramian's rank cut misses G, |A u - c| = |B^T v - c|, by more than
    ``verify_distance``; the message gives the rank, the grid and the miss.
    """
    gram, c = system.gramian, system.c
    dead = dead_modes(system.influence, system.target)
    if dead and float(np.linalg.norm(c)) != 0.0:
        raise NonStrategicError(dead)
    v, phi, miss = gram.least_norm(c)
    if not miss <= verify_distance:
        m, n = c.size, system.grid.n_steps
        msg = (f"the Gramian has numerical rank {gram.rank} of {m} at n_steps={n}; "
               f"its least-norm control misses G by {miss:.3e} > verify_distance={verify_distance:.1e}")
        if n + 1 < m:
            msg += f"; {n + 1} control samples cannot meet {m} annihilator conditions"
        raise SingularGramianError(msg)
    return v, phi, miss


@dataclass(frozen=True)
class RhumSolution:
    phi_hat: np.ndarray       # annihilator coordinates of the adjoint seed
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
    normal-equation solve in the weighted geometry: ``Gramian.solve`` at delta = 0,
    u = W^{-1/2} B phi over the singular values above numpy's rank cut.  That
    solve is ``require_reachable``'s, which refuses it when its miss |A u - c|,
    the simulated miss up to rounding, exceeds ``tolerances.verify_distance``.
    """
    system = steering_system(config)
    v, phi_hat, miss = require_reachable(system, config.tolerances.verify_distance)
    c = system.c
    if float(np.linalg.norm(c)) == 0.0:  # includes G = whole space (no annihilator)
        zero = np.zeros(system.grid.n_steps + 1)
        return RhumSolution(np.zeros(c.size), zero, 0.0, system)
    cond = system.gramian.condition_number()
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"Gramian condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.0e}; "
            "the steering control may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    resid = miss / float(np.linalg.norm(c))  # = |G phi_hat - c| / |c|
    return RhumSolution(phi_hat, v / np.sqrt(system.grid.weights), resid, system)


@dataclass(frozen=True)
class TransferReport:
    distance_to_G: float
    trajectory: np.ndarray  # (n_steps+1, N); the final state is its last row


def verify_transfer(config: ProblemConfig, u_star: np.ndarray) -> TransferReport:
    """Simulate the mild solution under ``u_star`` and measure the miss distance."""
    target = config.build_target()
    traj = mild_trajectory(
        config.alpha, config.grid(), config.y0_array(), config.build_actuator(), u_star
    )
    return TransferReport(target.distance_to(traj[-1]), traj)


def control_energy(u: np.ndarray, grid: TimeGrid) -> float:
    """Trapezoid quadrature of (1/2) integral u(t)^2 dt."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * np.dot(grid.weights, u * u))
