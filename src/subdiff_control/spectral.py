"""Truncated eigenmode model of sub-diffusion on [0,1] with Dirichlet ends.

Eigenpairs are lambda_i = -(i*pi)^2, w_i(x) = sqrt(2) sin(i*pi*x), i >= 1.
A state is the array of its N coefficients against the w_i.  The state
propagator R(t) (``apply_R``) multiplies coefficient i by E_{a,1}(lambda_i t^a)
and the control kernel K(t) (``apply_K``) by E_{a,a}(lambda_i t^a).  The mild
solution evaluates

    y_i(t_k) = E_{a,1}(lambda_i t_k^a) y0_i
             + b_i * integral_0^{t_k} (t_k - s)^(a-1) E_{a,a}(lambda_i (t_k-s)^a) u(s) ds

per mode with a product quadrature: the full weighted kernel
(t_k - s)^(a-1) E_{a,a}(lambda (t_k - s)^a) is integrated *exactly* over each
step through its closed-form antiderivative, so only the control is frozen at
the step midpoint (average of the adjacent node samples).  The quadrature is a
discrete convolution of the kernel masses with the midpoint control, evaluated
for all modes at once as one real-FFT product of length 2 n_steps.  None of
this depends on the actuator: ``_modes`` memoizes one ``_ModeTable`` per
(a, grid, N) with the node table, the masses, their spectrum and the
unit-influence terminal map, so a warm simulation is two transforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .fractional import _lower_toeplitz
from .special import mittag_leffler_array

SQRT2 = math.sqrt(2.0)

# Mode tables kept by ``_modes``: one per (a, grid, N).
TABLE_CACHE_SIZE = 8


def _is_real(v) -> bool:
    """A real number and not a bool: the package's one rule for a numeric input."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _trapezoid_split(steps: np.ndarray) -> np.ndarray:
    """Share each step's value half-and-half between its two end nodes (last axis)."""
    half = 0.5 * np.asarray(steps, dtype=float)
    nodes = np.zeros(half.shape[:-1] + (half.shape[-1] + 1,))
    nodes[..., :-1] += half
    nodes[..., 1:] += half
    return nodes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_k = k T / n_steps on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (_is_real(self.T) and 0.0 < self.T < math.inf):
            raise DomainError(f"horizon must be a finite positive number, got {self.T!r}")
        if not (isinstance(self.n_steps, numbers.Integral) and self.n_steps >= 2):
            raise DomainError(f"need an integer number of steps >= 2, got {self.n_steps!r}")

    @property
    def h(self) -> float:
        return self.T / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights of the nodes, read-only: h/2 at the ends, h inside."""
        w = _trapezoid_split(np.full(self.n_steps, self.h))
        w.setflags(write=False)
        return w


def eigenvalues(n_modes: int) -> np.ndarray:
    """lambda_i = -(i pi)^2 for i = 1..n_modes."""
    i = np.arange(1, n_modes + 1, dtype=float)
    return -((i * np.pi) ** 2)


def eigenfunction(i: int, x) -> np.ndarray:
    """w_i(x) = sqrt(2) sin(i pi x)."""
    return SQRT2 * np.sin(i * np.pi * np.asarray(x, dtype=float))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"fractional order must lie in (0,1], got {alpha}")


def _coeffs(state) -> np.ndarray:
    """A state as its N coefficients against the orthonormal eigenbasis: 1-D, non-empty, finite."""
    c = np.asarray(state, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise DomainError(f"coefficients must be a non-empty vector, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise DomainError("coefficients must be finite")
    return c


def apply_R(alpha: float, t: float, state: np.ndarray) -> np.ndarray:
    """State propagator: coefficient i scaled by E_{a,1}(lambda_i t^a)."""
    _check_alpha(alpha)
    c = _coeffs(state)
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if t == 0.0:
        return c
    return c * mittag_leffler_array(alpha, 1.0, eigenvalues(c.size) * t**alpha)


def apply_K(alpha: float, t: float, state: np.ndarray) -> np.ndarray:
    """Control kernel: coefficient i scaled by E_{a,a}(lambda_i t^a); t > 0 only."""
    _check_alpha(alpha)
    c = _coeffs(state)
    if not t > 0:
        raise DomainError(f"the control kernel requires t > 0, got {t}")
    return c * mittag_leffler_array(alpha, alpha, eigenvalues(c.size) * t**alpha)


def propagator_factors(alpha: float, grid: TimeGrid, n_modes: int) -> np.ndarray:
    """E_{a,1}(lambda_i * t_k^a) at the grid nodes; shape (N, n_steps+1), read-only.

    This is the only place the node table is evaluated.  Consumers read it
    as ``_modes(...).factors``, which memoizes it, so a warm problem builds nothing.
    """
    _check_alpha(alpha)
    # t^a by libm pow per node, as scalar callers form it (numpy's vectorized pow can
    # round one ulp apart); the whole table is then one contour-kernel array call
    z = np.outer(eigenvalues(n_modes), [t**alpha for t in grid.nodes[1:].tolist()])
    out = np.ones((n_modes, grid.n_steps + 1))
    out[:, 1:] = mittag_leffler_array(alpha, 1.0, z)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _ModeTable:
    """What one (a, grid, N) fixes for every actuator; all four arrays are read-only."""

    factors: np.ndarray   # (N, n_steps+1), see ``propagator_factors``
    masses: np.ndarray    # (N, n_steps), see ``kernel_step_integrals``
    spectrum: np.ndarray  # (N, n_steps+1): rfft of the masses at length 2 n_steps
    terminal: np.ndarray  # (N, n_steps+1): ``terminal_control_map`` at unit influence


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _modes(alpha: float, grid: TimeGrid, n_modes: int) -> _ModeTable:
    factors = propagator_factors(alpha, grid, n_modes)
    masses = np.diff(factors, axis=1) / eigenvalues(n_modes)[:, None]
    spectrum = np.fft.rfft(masses, n=2 * grid.n_steps, axis=1)
    terminal = _trapezoid_split(masses[:, ::-1])  # step j, looking back from T, has mass n-1-j
    for arr in (masses, spectrum, terminal):
        arr.setflags(write=False)
    return _ModeTable(factors, masses, spectrum, terminal)


def kernel_step_integrals(alpha: float, grid: TimeGrid, n_modes: int) -> np.ndarray:
    """Exact per-step mass of the weighted kernel; shape (N, n_steps), read-only.

    g[i, m] = integral over [mh, (m+1)h] of tau^(a-1) E_{a,a}(lambda_i tau^a),
    evaluated in closed form through the antiderivative E_{a,1}(lambda tau^a)
    (d/dt E_{a,1}(lambda t^a) = lambda t^(a-1) E_{a,a}(lambda t^a)), so the
    singular corner costs no quadrature error at all.
    """
    return _modes(alpha, grid, n_modes).masses


def mild_trajectory(
    alpha: float,
    grid: TimeGrid,
    y0: np.ndarray,
    influence: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """All grid snapshots of the mild solution; shape (n_steps+1, N).

    ``u`` holds node samples of the scalar control; the quadrature uses the
    per-step midpoint value, i.e. the average of adjacent node samples.  The
    controlled part at node k is sum_{m<k} g[:, k-1-m] u_mid[m]: the first
    n_steps terms of the linear convolution, which a transform length of
    2 n_steps (>= 2 n_steps - 1) keeps free of wrap-around.
    """
    _check_alpha(alpha)
    y0 = np.asarray(y0, dtype=float)
    influence = np.asarray(influence, dtype=float)
    u = np.asarray(u, dtype=float)
    n = grid.n_steps
    if u.shape != (n + 1,):
        raise DomainError(f"control must have {n + 1} node samples, got shape {u.shape}")
    n_modes = y0.size
    if influence.shape != (n_modes,):
        raise DomainError(f"y0 has {n_modes} modes but the influence has {influence.size}")
    traj = np.empty((n + 1, n_modes))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite u is the error below
        table = _modes(alpha, grid, n_modes)
        u_hat = np.fft.rfft(0.5 * (u[:-1] + u[1:]), n=2 * n)
        conv = np.fft.irfft(table.spectrum * u_hat, n=2 * n, axis=1)
        traj[:] = table.factors.T * y0
        traj[1:] += conv[:, :n].T * influence
    if not np.all(np.isfinite(traj)):
        raise QuadratureError("mild-solution convolution produced non-finite values")
    return traj


def terminal_control_map(alpha: float, grid: TimeGrid, influence: np.ndarray) -> np.ndarray:
    """Matrix H with y_controlled(T) = H @ u_nodes; shape (N, n_steps+1)."""
    influence = np.asarray(influence, dtype=float)
    return _modes(alpha, grid, influence.size).terminal * influence[:, None]


def convolution_matrix(alpha: float, grid: TimeGrid, lam_i: float) -> np.ndarray:
    """Matrix L with (L @ u_nodes)[k] = mode-i controlled response at t_k (unit influence).

    ``lam_i`` must be one of the model eigenvalues -(i pi)^2.
    """
    _check_alpha(alpha)
    mode = round(math.sqrt(max(-lam_i, 0.0)) / math.pi)
    if mode < 1 or eigenvalues(mode)[-1] != lam_i:
        raise DomainError(f"{lam_i} is not an eigenvalue -(i pi)^2 of the model")
    g = kernel_step_integrals(alpha, grid, mode)[-1]
    # step j of node k carries g[k-1-j], shared by the samples j and j+1
    return _trapezoid_split(_lower_toeplitz(np.concatenate([[0.0], g]), grid.n_steps))
