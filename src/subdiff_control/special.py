"""Gamma, Mittag-Leffler and one-sided stable density evaluation.

The two-parameter Mittag-Leffler function E_{p,q}(z) = sum_k z^k / Gamma(pk+q)
drives every eigenmode of the sub-diffusion model, so it must be accurate for
strongly negative real arguments.  Three regimes are used:

* adaptive-precision power series (mpmath) wherever the series converges in a
  manageable number of terms; precision is chosen from the predicted peak term
  so alternating cancellation never eats the answer,
* the algebraic asymptotic expansion -sum_{k>=1} z^{-k}/Gamma(q - pk) for
  deeply negative z and p bounded away from 1 (optimal truncation, with the
  first omitted term as a certified error bound and a series fallback),
* the exponential asymptotic form for large positive z.

The one-sided stable density psi_alpha is the alternating series
(1/pi) sum_n (-1)^{n-1} theta^{-alpha n - 1} Gamma(n alpha + 1)/n! sin(n pi alpha),
summed in adaptive precision with a hard 500-term cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import special as sp

from .errors import DomainError, EvaluationError, PoleError

_LOG10E = math.log10(math.e)

# Switch points between the power series and the asymptotic branches,
# expressed in x = |z|^(1/p).  At x = 25 the optimally truncated algebraic
# expansion certifies ~1e-11 and the series needs only a few hundred terms,
# so the two branches overlap safely.
_X_ASYMPTOTIC_NEG = 25.0
_X_ASYMPTOTIC_POS = 30.0


@dataclass(frozen=True)
class MLParams:
    """Arguments of the two-parameter Mittag-Leffler function."""

    p: float
    q: float
    z: float

    def __post_init__(self):
        if not self.p > 0:
            raise DomainError(f"first Mittag-Leffler index must be positive, got {self.p}")


@dataclass(frozen=True)
class StableDensityParams:
    """Arguments of the one-sided stable density psi_alpha."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie strictly in (0,1), got {self.alpha}")
        if not self.theta > 0:
            raise DomainError(f"theta must be positive, got {self.theta}")


def gamma_fn(x: float) -> float:
    """Euler's gamma function for real x away from the poles."""
    x = float(x)
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma function has a pole at {x}")
    return float(sp.gamma(x))


def _ml_series(p: float, q: float, z: float, x: float) -> float:
    """Power series with precision adapted to the peak-term magnitude."""
    # Peak term is roughly exp(x) in natural log scale for p <= 1.
    dps = 25 + int(x * _LOG10E) if x > 1 else 25
    n_cap = 400 + int(12.0 * max(x, 1.0) / min(p, 1.0))
    kstar = max(x, 1.0) / p
    for _ in range(6):
        dps = min(dps, 3000)
        with mp.workdps(dps):
            zm = mp.mpf(z)
            pm = mp.mpf(p)
            qm = mp.mpf(q)
            acc = mp.mpf(0)
            max_abs = mp.mpf(0)
            tiny = mp.mpf(10) ** (-dps - 5)
            term_pow = mp.mpf(1)
            k = 0
            while k <= n_cap:
                # The gamma argument must be formed in working precision:
                # double rounding in p*k+q gets amplified by the huge terms.
                term = term_pow * mp.rgamma(pm * k + qm)
                acc += term
                at = abs(term)
                if at > max_abs:
                    max_abs = at
                if k > kstar and at < tiny * (abs(acc) + 1):
                    break
                term_pow *= zm
                k += 1
            else:
                raise EvaluationError(
                    f"Mittag-Leffler series did not converge within {n_cap} terms "
                    f"(p={p}, q={q}, z={z})"
                )
            val = float(acc)
            log_peak = mp.log10(max_abs)  # in mpf: the peak term can overflow a double
            abs_err = float(mp.mpf(10) ** (log_peak + 2 - dps))
        if not math.isfinite(val):
            raise EvaluationError(f"Mittag-Leffler overflow (p={p}, q={q}, z={z})")
        if abs_err <= 1e-13 * max(abs(val), 1e-300):
            return val
        if abs_err <= 1e-40 and abs(val) <= 10.0 * abs_err:
            # Still indistinguishable from zero far below double precision:
            # the sum genuinely vanishes (e.g. E_{2,1} at a cosine zero).
            return 0.0
        # Not enough digits survived the cancellation; retry with more.
        dps = dps + int(max(log_peak, 1)) + 30
    raise EvaluationError(
        f"Mittag-Leffler series lost precision (p={p}, q={q}, z={z})"
    )


def _ml_asymptotic_neg(p: float, q: float, z: float):
    """Algebraic expansion for z << 0; returns None if it cannot certify.

    Individual terms z^{-k}/Gamma(q-pk) oscillate through gamma poles, so
    optimal truncation is driven by the smooth envelope
    |z|^{-k} Gamma(pk-q+1)/pi from the reflection formula, not by the raw
    term magnitudes.
    """
    kmax = 400
    k = np.arange(1, kmax + 1)
    log_abs_z = math.log(abs(z))
    refl = p * k - q + 1.0
    log_env = np.where(
        refl > 0.5,
        -k * log_abs_z + sp.gammaln(np.maximum(refl, 0.5)) - math.log(math.pi),
        # crude but safe bound for the first few sub-reflection indices
        -k * log_abs_z + math.log(10.0),
    )
    kmin = int(np.argmin(log_env))  # 0-based index of term k = kmin+1
    err = 2.0 * math.exp(min(log_env[min(kmin + 1, kmax - 1)], 700.0))
    acc = 0.0
    zi = 1.0
    for j in range(1, kmin + 2):
        zi /= z
        acc -= zi * float(sp.rgamma(q - p * j))
        if abs(zi) <= 1e-320:
            break
    if err <= 1e-12 * max(abs(acc), 1e-300):
        return acc
    return None


def _ml_asymptotic_pos(p: float, q: float, z: float, x: float) -> float:
    """Exponential expansion for z >> 0 (relative error ~ e^{-x})."""
    if x > 700.0:
        raise EvaluationError(
            f"Mittag-Leffler overflows double precision (p={p}, q={q}, z={z})"
        )
    lead = (1.0 / p) * z ** ((1.0 - q) / p) * math.exp(x)
    alg = _ml_asymptotic_neg(p, q, z)
    return lead + (alg if alg is not None else 0.0)


@lru_cache(maxsize=1 << 20)
def _ml_scalar(p: float, q: float, z: float) -> float:
    if z == 0.0:
        return float(sp.rgamma(q))
    x = abs(z) ** (1.0 / p)
    if z < 0.0:
        # For p near 1 the algebraic terms all sit on gamma poles and the
        # expansion degenerates, so stay on the (feasible) series there.
        if p <= 0.98 and x > _X_ASYMPTOTIC_NEG:
            val = _ml_asymptotic_neg(p, q, z)
            if val is not None:
                return val
        return _ml_series(p, q, z, x)
    if x <= _X_ASYMPTOTIC_POS:
        return _ml_series(p, q, z, x)
    return _ml_asymptotic_pos(p, q, z, x)


def mittag_leffler(p: float, q: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{p,q}(z) for real z.

    Raises EvaluationError when no branch can certify the target accuracy
    (in practice only for overflowing positive arguments).
    """
    params = MLParams(float(p), float(q), float(z))
    return _ml_scalar(params.p, params.q, params.z)


def mittag_leffler_array(p: float, q: float, z) -> np.ndarray:
    """Vectorized wrapper around :func:`mittag_leffler`."""
    zs = np.asarray(z, dtype=float)
    out = np.empty(zs.shape, dtype=float)
    flat = zs.ravel()
    dst = out.ravel()
    for i, zi in enumerate(flat):
        dst[i] = mittag_leffler(p, q, float(zi))
    return out


def _psi_log_terms(alpha: float, theta: float, n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1)
    s = np.abs(np.sin(n * np.pi * alpha))
    with np.errstate(divide="ignore"):
        log_s = np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
    return (
        -(alpha * n + 1) * math.log(theta)
        + sp.gammaln(n * alpha + 1)
        - sp.gammaln(n + 1.0)
        + log_s
        - math.log(math.pi)
    )


def _psi_small_theta_log(alpha: float, theta: float) -> float:
    # Stretched-exponential decay rate of the one-sided stable density
    # near the origin, used only to budget working precision.
    if theta >= 1.0:
        return 0.0
    c = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    return -c * theta ** (-alpha / (1.0 - alpha))


_PSI_CAP = 500


@lru_cache(maxsize=1 << 16)
def _psi_scalar(alpha: float, theta: float) -> float:
    logs = _psi_log_terms(alpha, theta, _PSI_CAP)
    peak = float(np.max(logs))
    # Expected magnitude of the answer, to size both precision and tail cuts.
    # (For theta < 1 the density is stretched-exponentially small; for
    # theta >= 1 the leading term already has the right scale.)
    scale_log = _psi_small_theta_log(alpha, theta) if theta < 1.0 else min(logs[0], 0.0)
    # Truncation: individual terms at exact multiples of 1/alpha vanish
    # (sin(n pi alpha) = 0), so a single-small-term test is unsafe; cut where
    # the *envelope* (suffix maximum of the log terms) is beyond the target.
    suffix_max = np.maximum.accumulate(logs[::-1])[::-1]
    below = np.nonzero(suffix_max <= scale_log - 42.0)[0]
    if below.size == 0:
        raise EvaluationError(
            f"psi series not converged within {_PSI_CAP} terms "
            f"(alpha={alpha}, theta={theta}); theta too close to 0"
        )
    n_terms = int(below[0]) + 1
    dps = 25 + max(0, int((peak - scale_log) * _LOG10E)) + 15
    for _ in range(3):
        if dps > 800:
            raise EvaluationError(
                f"psi evaluation needs more than 800 digits (alpha={alpha}, theta={theta})"
            )
        with mp.workdps(dps):
            th = mp.mpf(theta)
            a = mp.mpf(alpha)
            acc = mp.mpf(0)
            for n in range(1, n_terms + 1):
                acc += (
                    (-1) ** (n - 1)
                    * th ** (-a * n - 1)
                    * mp.gamma(n * a + 1)
                    / mp.factorial(n)
                    * mp.sin(n * mp.pi * a)
                ) / mp.pi
            val = float(acc)
        abs_err = 10.0 ** (peak * _LOG10E - dps + 3)
        if val > 0.0 and abs_err <= 1e-12 * val:
            return val
        if abs(val) <= max(abs_err, 1e-280):
            # Indistinguishable from zero at the certified precision and the
            # a-priori scale says the density is negligible there.
            if 10.0 ** (scale_log * _LOG10E) <= max(abs_err, 1e-280):
                return 0.0
        if val < 0.0 and abs(val) > abs_err:
            raise EvaluationError(
                f"psi series gave a certified negative value (alpha={alpha}, theta={theta})"
            )
        dps += 60
    raise EvaluationError(
        f"psi lost precision near theta=0 (alpha={alpha}, theta={theta})"
    )


def psi_alpha(alpha: float, theta: float) -> float:
    """One-sided stable probability density of index alpha at theta > 0."""
    params = StableDensityParams(float(alpha), float(theta))
    return _psi_scalar(params.alpha, params.theta)


def phi_alpha(alpha: float, theta: float) -> float:
    """Derived kernel phi_alpha(theta) = (1/alpha) theta^{-1-1/alpha} psi_alpha(theta^{-1/alpha})."""
    params = StableDensityParams(float(alpha), float(theta))
    a, th = params.alpha, params.theta
    return (1.0 / a) * th ** (-1.0 - 1.0 / a) * psi_alpha(a, th ** (-1.0 / a))


def phi_alpha_moment(alpha: float, nu: float) -> float:
    """Moment integral of phi_alpha: Gamma(1+nu)/Gamma(1+alpha*nu) for nu >= 0."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0,1), got {alpha}")
    if nu < 0:
        raise DomainError(f"moment order must be non-negative, got {nu}")
    return gamma_fn(1.0 + nu) / gamma_fn(1.0 + alpha * nu)
