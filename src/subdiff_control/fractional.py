"""Discrete Caputo / Riemann-Liouville operators on uniformly sampled signals.

All operators share one product quadrature: the weakly singular kernel
tau^gamma (gamma in (-1, 0) or (alpha-1, 0)) is integrated *exactly* against
the piecewise-linear interpolant of the samples, interval by interval.  This
is the classical L1-scheme idea and gives predictable first-order accuracy
limited only by the kernel singularity.

Right-sided operators are obtained through the reflection operator
(Q h)(t) = h(T - t); on a uniform grid the reflected product quadrature is
algebraically identical to a direct right-sided discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import gamma_fn


@dataclass(frozen=True)
class SampledSignal:
    """Real-valued function samples on a uniform grid over [t0, t1]."""

    values: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 3:
            raise DomainError(f"signal needs >= 3 samples on a 1-d grid, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("signal samples must be finite")
        if not self.t1 > self.t0:
            raise DomainError(f"need t1 > t0, got [{self.t0}, {self.t1}]")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n)

    def with_values(self, values: np.ndarray) -> "SampledSignal":
        return SampledSignal(np.asarray(values, dtype=float), self.t0, self.t1)


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences: centered inside, one-sided at the ends."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def _kernel_weights(n: int, h: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodal weights of integral_{0}^{t_k} (t_k - s)^gamma * interp(values)(s) ds.

    interp is the piecewise-linear interpolant of n samples at spacing h; the
    kernel moments over each interval are exact, so the only error is
    interpolation error.  Requires gamma > -1.  The interval at distance m
    from t_k gives w_left[m] to its left sample and w_right[m] to its right.
    """
    m = np.arange(n)  # interval distances in units of h
    edge = (m * h) ** (gamma + 1.0)
    m0 = (edge[1:] - edge[:-1]) / (gamma + 1.0)
    edge2 = (m * h) ** (gamma + 2.0)
    m1 = (edge2[1:] - edge2[:-1]) / (gamma + 2.0)
    # On interval at distance m from t_k (tau in [mh,(m+1)h]) the interpolant
    # reads z_j + (z_{j+1}-z_j)((m+1) - tau/h), so the two nodal weights are:
    c_slope = (m[:-1] + 1.0) * m0 - m1 / h
    return m0 - c_slope, c_slope


def _kernel_convolve(values: np.ndarray, h: float, gamma: float) -> np.ndarray:
    """out[k] = integral_{0}^{t_k} (t_k - s)^gamma * interp(values)(s) ds."""
    n = values.size
    w_left, w_right = _kernel_weights(n, h, gamma)
    out = np.zeros(n)
    out[1:] = np.convolve(values[:-1], w_left)[: n - 1] + np.convolve(values[1:], w_right)[: n - 1]
    return out


def _lower_toeplitz(col: np.ndarray, m: int) -> np.ndarray:
    """T[i, j] = col[i - j] for i >= j and 0 above the diagonal; shape (col.size, m)."""
    padded = np.concatenate([col[::-1], np.zeros(m - 1)])
    return np.lib.stride_tricks.sliding_window_view(padded, m)[::-1].copy()


def _kernel_matrix(n: int, h: float, gamma: float) -> np.ndarray:
    """Matrix M with M @ values = _kernel_convolve(values, h, gamma) for n samples."""
    w_left, w_right = _kernel_weights(n, h, gamma)
    mat = _lower_toeplitz(np.concatenate([[0.0], w_left]), n)
    mat[1:, 1:] += _lower_toeplitz(w_right, n - 1)
    return mat


def caputo_left(sig: SampledSignal, alpha: float) -> SampledSignal:
    """Left-sided Caputo derivative of order alpha in (0,1).

    Samples of (1/Gamma(1-alpha)) * integral_0^t (t-s)^(-alpha) z'(s) ds,
    with z' from second-order finite differences.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"Caputo order must lie in (0,1), got {alpha}")
    d = _derivative(sig.values, sig.h)
    out = _kernel_convolve(d, sig.h, -alpha) / gamma_fn(1.0 - alpha)
    return sig.with_values(out)


def rl_integral_left(sig: SampledSignal, alpha: float) -> SampledSignal:
    """Left-sided Riemann-Liouville integral of order alpha > 0."""
    if not alpha > 0.0:
        raise DomainError(f"integral order must be positive, got {alpha}")
    out = _kernel_convolve(sig.values, sig.h, alpha - 1.0) / gamma_fn(alpha)
    return sig.with_values(out)


def rl_deriv_left(sig: SampledSignal, alpha: float) -> SampledSignal:
    """Left-sided Riemann-Liouville derivative: d/dt of the (1-alpha) integral."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"derivative order must lie in (0,1), got {alpha}")
    integ = rl_integral_left(sig, 1.0 - alpha)
    return sig.with_values(_derivative(integ.values, sig.h))


def reflect(sig: SampledSignal) -> SampledSignal:
    """Reflection (Q h)(t) = h(T - t): reversed sample array."""
    return sig.with_values(sig.values[::-1])


def rl_integral_right(sig: SampledSignal, alpha: float) -> SampledSignal:
    """Right-sided RL integral (1/Gamma(alpha)) * integral_t^T (s-t)^(alpha-1) z(s) ds."""
    return reflect(rl_integral_left(reflect(sig), alpha))


def rl_deriv_right(sig: SampledSignal, alpha: float) -> SampledSignal:
    """Right-sided RL derivative: (-d/dt) of the right-sided (1-alpha) integral."""
    return reflect(rl_deriv_left(reflect(sig), alpha))
