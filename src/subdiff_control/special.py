"""Gamma, Mittag-Leffler and one-sided stable density evaluation.

The two-parameter Mittag-Leffler function E_{p,q}(z) = sum_k z^k / Gamma(pk+q)
drives every eigenmode of the sub-diffusion model, so it must be accurate for
strongly negative real arguments.  :func:`mittag_leffler_array` builds every
table; for 0 < p < 1 an element z < 0 takes the first regime that certifies it:

* algebraic (p <= 0.98, x = |z|^(1/p) >= 40): -sum_{k<=m} z^{-k}/Gamma(q - pk)
  by Horner's rule in 1/z, m per element, certified to 2^-53 relative,
* batched contour: the trapezoid rule for the inverse Laplace integral on a
  parabola, as (elements x nodes) complex128 blocks; certified when a second pass
  agrees with it and its rounding estimate holds, both to 1e-10 relative,
* scalar: one :func:`mittag_leffler` call, as is every element outside
  0 < p < 1, z < 0.  It tries the same algebraic expansion (so the two agree
  bit for bit wherever it certifies), then the adaptive-precision mpmath power
  series, whose precision follows the predicted peak term, or for large z > 0
  the exponential asymptotic form.

The stable density psi_alpha and the kernel phi_alpha come from Kanter's positive
integral (Ann. Probab. 3 (1975) 697-707): one quadrature, certified or EvaluationError.
Gamma, 1/Gamma, the algebraic expansion and the contour kernel need only math and
numpy; mpmath (the series) and scipy.integrate (Kanter) are imported on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError, PoleError

_LOG10E = math.log10(math.e)

# Switch point of the positive axis between the series and the exponential form, in x = |z|^(1/p).
_X_ASYMPTOTIC_POS = 30.0
# Working-precision cap of the series; a peak term needing more digits is refused up front.
_SERIES_MAX_DPS = 3000

# The algebraic expansion serves p <= 0.98 (nearer 1 its terms all sit near gamma
# poles) and x >= 40.  Its terms fall no lower than about e^{-x} (near k = x/p), so
# the 2^-53 certificate needs x of about 37 or more: on a scan of p in [0.05, 0.98],
# q in {1, p}, nothing certified below x = 38.6, so below 40 the contour is not delayed.
_ALGEBRAIC_P_MAX = 0.98
_ALGEBRAIC_X_MIN = 40.0
_ALGEBRAIC_KMAX = 400
_ALGEBRAIC_RTOL = 2.0**-53
# m is the first k whose 2 env_{k+1} is below this share of the leading term: 4 bits
# under the certificate, room for a value smaller than its leading term
_ALGEBRAIC_TARGET = 2.0**-57

# Trapezoid rule on the parabola s(u) = mu (1 + iu)^2, u = 0, h, ..., (n-1) h
# (Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356).  The first pass
# gives the value; the second, with other nodes and a longer reach, checks it.
_CONTOUR_MU = 32.0 * math.pi / 24.0
_CONTOUR_PASSES = ((3.0 / 32.0, 33), (3.5 / 40.0, 41))  # (h, nodes)
_CONTOUR_RTOL = 1e-10  # the passes must agree, and the rounding estimate hold, to this
_CONTOUR_CHUNK = 128  # elements per (elements x nodes) block: small temporaries, few calls


def gamma_fn(x: float) -> float:
    """Euler's gamma function for finite real x away from the poles; +-inf where it overflows."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma function needs a finite argument, got {x}")
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma function has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x: 0 at the poles and where Gamma overflows."""
    if abs(x) < 1e-300:  # 1/Gamma(x) = x (1 + O(x)), while Gamma(x) itself may overflow
        return x
    g = math.inf if x <= 0 and x == math.floor(x) else gamma_fn(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


def _ml_series(p: float, q: float, z: float, x: float) -> float:
    """Power series with precision adapted to the peak-term magnitude."""
    import mpmath as mp  # here, not at the top: only scalar fallbacks reach the series

    # Peak term is roughly exp(x) in natural log scale (its index is k ~ x/p).
    if 25.0 + x * _LOG10E > _SERIES_MAX_DPS:
        raise EvaluationError(
            f"Mittag-Leffler series needs more than {_SERIES_MAX_DPS} digits (p={p}, q={q}, z={z})"
        )
    dps = 25 + int(x * _LOG10E) if x > 1 else 25
    n_cap = 400 + int(12.0 * max(x, 1.0) / min(p, 1.0))
    kstar = max(x, 1.0) / p
    for _ in range(6):
        dps = min(dps, _SERIES_MAX_DPS)
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


@lru_cache(maxsize=16)
def _algebraic_terms(p: float, q: float):
    """Truncation table of -sum_k z^{-k}/Gamma(q - pk), k <= KMAX: (g, reach, k0).

    Term k is bounded by the smooth envelope env_k = |z|^{-k} Gamma(pk-q+1)/pi
    (reflection formula; a crude but safe 10 |z|^{-k} where pk-q+1 <= 1/2), and
    log env_k = g[k-1] - k log|z|.  k0 is the first k with 1/Gamma(q - pk) != 0
    (None if none).  An element's m is the first k >= k0 whose 2 env_{k+1} is
    below _ALGEBRAIC_TARGET of term k0's magnitude: m = k0 + i for the first i
    with reach[i] <= log|z|, as reach is the running minimum of the log|z| each k needs.
    """
    y = p * np.arange(1, _ALGEBRAIC_KMAX + 1) - q + 1.0
    g = np.array(list(map(math.lgamma, np.maximum(y, 0.5).tolist()))) - math.log(math.pi)
    g[y <= 0.5] = math.log(10.0)
    k0 = next((k for k in range(1, _ALGEBRAIC_KMAX) if _rgamma(q - p * k) != 0.0), None)
    if k0 is None:
        return g, np.empty(0), None
    log_target = math.log(abs(_rgamma(q - p * k0)) * _ALGEBRAIC_TARGET / 2.0)
    j = np.arange(k0 + 1, _ALGEBRAIC_KMAX + 1)
    reach = np.minimum.accumulate((g[j - 1] - log_target) / (j - k0))
    for arr in (g, reach):
        arr.setflags(write=False)
    return g, reach, k0


def _ml_algebraic(p: float, q: float, z: np.ndarray):
    """The algebraic expansion on a 1-D array of finite nonzero z: (indices, values) it certifies.

    -sum_{k<=m} z^{-k}/Gamma(q - pk) by Horner's rule in w = 1/z, m per element
    from ``_algebraic_terms``, for x = |z|^(1/p) >= _ALGEBRAIC_X_MIN.  An element
    is certified when 2 env_{m+1}, plus (2/p) x^{1-q} e^{x cos(pi/p)} for p > 2/3
    (the exponentially small pair of terms that reaches the negative axis
    there), is at most _ALGEBRAIC_RTOL |value|.  Each element's arithmetic is
    the same whatever the other elements, so a one-element call gives the same bits.
    """
    g, reach, k0 = _algebraic_terms(p, q)
    if k0 is None:
        return np.empty(0, dtype=np.intp), np.empty(0)
    log_z = np.abs(z)
    np.log(log_z, out=log_z)
    m = np.searchsorted(-reach, -log_z)  # reach is non-increasing
    sel = np.flatnonzero((log_z >= p * math.log(_ALGEBRAIC_X_MIN)) & (m < reach.size))
    # m falls as |z| grows, so in ascending |z| the elements with m >= k are a prefix
    sel = sel[np.argsort(log_z[sel], kind="stable")]
    log_z, m = log_z[sel], m[sel]
    m += k0
    k_top = int(m[0]) if sel.size else 0
    active = np.searchsorted(-m, -np.arange(k_top, 0, -1), side="right")  # elements with m >= k
    with np.errstate(over="ignore", under="ignore"):
        # 2 env_{m+1}, formed in place of log|z| (the tables are large), plus for
        # p > 2/3 the exponentially small pair of terms that reaches the negative axis
        tail = ((2.0 / p) * np.exp((1.0 - q) / p * log_z + np.exp(log_z / p) * math.cos(math.pi / p))
                if p > 2.0 / 3.0 else 0.0)
        err = log_z
        err *= -(m + 1)
        err += g[m]
        del m
        np.exp(err, out=err)
        err *= 2.0
        err += tail
    w = z[sel]
    np.reciprocal(w, out=w)
    acc = np.zeros(sel.size)
    c = [_rgamma(q - p * k) for k in range(1, k_top + 1)]
    for k, n in zip(range(k_top, 0, -1), active.tolist()):
        acc[:n] *= w[:n]
        acc[:n] += c[k - 1]
    acc *= w
    np.negative(acc, out=acc)
    good = err <= _ALGEBRAIC_RTOL * np.abs(acc, out=w)
    return sel[good], acc[good]


def mittag_leffler(p: float, q: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{p,q}(z) for real z.

    Raises EvaluationError when no branch can certify the target accuracy
    (in practice only for overflowing positive arguments).
    """
    p, q, z = float(p), float(q), float(z)
    if not (0.0 < p < math.inf and math.isfinite(q) and math.isfinite(z)):
        raise DomainError(f"Mittag-Leffler needs finite q, z and p > 0, got p={p}, q={q}, z={z}")
    if z == 0.0:
        return _rgamma(q)
    try:
        x = abs(z) ** (1.0 / p)
    except OverflowError:  # beyond the double range: every branch reads x = inf correctly
        x = math.inf
    if z < 0.0:
        if p <= _ALGEBRAIC_P_MAX:
            val = _ml_algebraic(p, q, np.array([z]))[1]
            if val.size:
                return float(val[0])
        return _ml_series(p, q, z, x)
    if x <= _X_ASYMPTOTIC_POS:
        return _ml_series(p, q, z, x)
    if x > 700.0:
        raise EvaluationError(f"Mittag-Leffler overflows double precision (p={p}, q={q}, z={z})")
    # the exponential expansion (relative error ~ e^{-x}) plus the algebraic one where it certifies
    alg = _ml_algebraic(p, q, np.array([z]))[1]
    return (1.0 / p) * z ** ((1.0 - q) / p) * math.exp(x) + (float(alg[0]) if alg.size else 0.0)


def _contour_sum(c: np.ndarray, sigma: np.ndarray, r: np.ndarray, estimate: bool):
    """Re sum_k c_k / (sigma_k - r) for each real r and, if ``estimate``, sum_k |c_k / (sigma_k - r)|.

    Batched as (elements x nodes) complex128 blocks of _CONTOUR_CHUNK elements.  Every term
    is formed to a few ulps, so the second sum times the machine epsilon
    estimates the rounding error of the first, cancellation included (None
    without ``estimate``).
    """
    acc, mag = np.empty(r.shape), (np.empty(r.shape) if estimate else None)
    for lo in range(0, r.size, _CONTOUR_CHUNK):
        block = slice(lo, lo + _CONTOUR_CHUNK)
        terms = c / (sigma - r[block, None])
        acc[block] = terms.real.sum(axis=1)
        if estimate:
            mag[block] = np.abs(terms).sum(axis=1)
    return acc, mag


def _ml_contour(p: float, q: float, z: np.ndarray, h: float, n_nodes: int, estimate: bool):
    """One trapezoid pass for E_{p,q}(z), 0 < p < 1, z < 0 finite: values and rounding estimates.

    E = (1/2 pi i) int e^s s^{p-q}/(s^p - z) ds over s(u) = mu (1 + iu)^2, which
    leaves the cut and the poles of the principal sheet on its left; z is real,
    so only u >= 0 is summed.  For z < -1 the leading tail term is split off
    exactly, E = (w T - 1/Gamma(q-p)) w with w = 1/z and
    T = (1/2 pi i) int e^s s^{p-q}/(w - s^{-p}) ds, so the sum no longer cancels
    down to it and no term overflows for any finite z.  The estimates are None,
    and never formed, without ``estimate``.
    """
    u = h * np.arange(n_nodes)
    s = _CONTOUR_MU * (1.0 + 1j * u) ** 2
    s_p = s**p
    num = (2.0 * _CONTOUR_MU * h / math.pi) * (1.0 + 1j * u) * np.exp(s) * s ** (p - q)
    num[0] *= 0.5
    val, err = np.empty_like(z), (np.empty_like(z) if estimate else None)
    far = z < -1.0
    near = ~far
    val[near], near_err = _contour_sum(num, s_p, z[near], estimate)
    w = 1.0 / z[far]
    t, t_err = _contour_sum(-num, 1.0 / s_p, w, estimate)
    val[far] = (w * t - _rgamma(q - p)) * w
    if estimate:
        eps = np.finfo(float).eps
        err[near], err[far] = near_err * eps, t_err * w * w * eps
    return val, err


def mittag_leffler_array(p: float, q: float, z) -> np.ndarray:
    """E_{p,q} elementwise; every table of Mittag-Leffler values in the package is built here.

    For 0 < p < 1 and z < 0 an element is the algebraic expansion where that
    certifies (p <= _ALGEBRAIC_P_MAX), else the first contour pass where it is
    certified: the second pass agrees with it, and its rounding estimate is
    met, to ``_CONTOUR_RTOL``.  Every other element, and every element that
    fails both certificates, is one :func:`mittag_leffler` call.
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    vals = np.empty_like(flat)
    todo = np.ones(flat.shape, dtype=bool)
    p, q = float(p), float(q)
    if 0.0 < p < 1.0 and math.isfinite(q):
        idx = np.flatnonzero((flat < 0.0) & np.isfinite(flat))
        if p <= _ALGEBRAIC_P_MAX:
            done, v = _ml_algebraic(p, q, flat[idx])
            vals[idx[done]] = v
            todo[idx[done]] = False
            idx = idx[todo[idx]]
        zc = flat[idx]
        with np.errstate(all="ignore"):
            (h1, n1), (h2, n2) = _CONTOUR_PASSES
            v1, e1 = _ml_contour(p, q, zc, h1, n1, estimate=True)
            v2, _ = _ml_contour(p, q, zc, h2, n2, estimate=False)
            ok = np.maximum(np.abs(v1 - v2), e1) <= _CONTOUR_RTOL * np.abs(v1)
        vals[idx[ok]] = v1[ok]
        todo[idx[ok]] = False
    for i in np.flatnonzero(todo).tolist():
        vals[i] = mittag_leffler(p, q, float(flat[i]))
    return vals.reshape(zs.shape)


_KANTER_QUAD_RTOL = 1e-12  # quad's target on Kanter's integral
_KANTER_CERTIFY_RTOL = 1e-10  # the bound its error estimate must meet, else EvaluationError


def _kanter(alpha: float, log_c: float, k: float) -> float:
    """c^k K(c), K(c) = (1/pi) int_0^pi A(u) e^{-c A(u)} du, c = e^{log_c}.

    Kanter's A(u) = (sin(alpha u)/sin u)^{1/(1-alpha)} sin((1-alpha)u)/sin(alpha u) rises
    from A(0) = (1-alpha) alpha^{alpha/(1-alpha)} to infinity on (0, pi): nothing cancels.
    The integral runs over s = log(pi - u), where sin u keeps its digits near pi, split at
    the peak (c A = 1, or u = 0 if c A(0) >= 1); c^k and the peak stay in the exponent.
    """
    from scipy.integrate import quad  # here, not at the top: no pipeline path reaches psi or phi

    b = 1.0 - alpha
    log_pi = math.log(math.pi)

    def log_ca(t: float, s0: float) -> float:
        # log(c A(u)) at pi - u = e^{s0 + t}; s0 leaves before t enters, so t keeps its digits.
        v = math.exp(s0 + t)
        u = math.pi - v
        log_sinc = math.log(math.sin(min(u, v)) / v) if v > 1e-8 else 0.0
        return ((log_c - s0 / b) - t / b + (alpha / b) * math.log(math.sin(alpha * u))
                + math.log(math.sin(b * u)) - log_sinc / b)

    def root(target: float) -> float:
        # Largest s found with log(c A) >= target; log(c A) decreases in s.
        lo, hi = log_pi - 1.0, log_pi
        while log_ca(lo, 0.0) < target:
            lo, hi = 2.0 * lo - hi, lo
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_ca(mid, 0.0) >= target else (lo, mid)
        return lo

    y0 = log_c + math.log(b) + (alpha / b) * math.log(alpha)  # log(c A(0))
    s0, m = (root(0.0), -1.0) if y0 < 0.0 else (0.0, y0 - math.exp(min(y0, 700.0)) + log_pi)
    log_scale = (k - 1.0) * log_c + s0 + m
    if log_scale < -800.0:  # the value underflows (always so when y0 > 700)
        return 0.0
    s_lo, t_pi = root(math.log(math.exp(y0) + 60.0)) - s0, log_pi - s0  # 60 e-folds down
    # Near pi the peak is ~(1 - alpha) wide in s; a cut 40 widths out spares quad the flat tail.
    cuts = (s_lo, 0.0, min(40.0 * b, 0.5 * t_pi), t_pi) if y0 < 0.0 else (s_lo, t_pi)

    def integrand(t: float) -> float:
        y = log_ca(t, s0)
        return math.exp(y - math.exp(y) + t - m)

    val, err = quad(integrand, cuts[0], cuts[-1], points=cuts[1:-1] or None, epsabs=0.0,
                    epsrel=_KANTER_QUAD_RTOL, limit=200, full_output=1)[:2]
    if not (val > 0.0 and err <= _KANTER_CERTIFY_RTOL * val and log_scale + math.log(val) < 709.0):
        raise EvaluationError(f"Kanter integral uncertified or too large (alpha={alpha}, log c={log_c})")
    return math.exp(log_scale + math.log(val)) / math.pi


def _check_stable(alpha: float, theta: float) -> tuple[float, float]:
    alpha, theta = float(alpha), float(theta)
    if not (0.0 < alpha < 1.0 and 0.0 < theta < math.inf):
        raise DomainError(f"need 0 < alpha < 1 and finite theta > 0, got {alpha}, {theta}")
    return alpha, theta


def psi_alpha(alpha: float, theta: float) -> float:
    """One-sided stable density of index alpha at theta > 0.

    Kanter: psi_alpha(theta) = alpha/(1-alpha) c^{1/alpha} K(c), c = theta^{-alpha/(1-alpha)}.
    """
    a, th = _check_stable(alpha, theta)
    return a / (1.0 - a) * _kanter(a, -a / (1.0 - a) * math.log(th), 1.0 / a)


def phi_alpha(alpha: float, theta: float) -> float:
    """Derived kernel phi_alpha(theta) = (1/alpha) theta^{-1-1/alpha} psi_alpha(theta^{-1/alpha}).

    Evaluated directly, not through psi: c^alpha K(c)/(1-alpha), c = theta^{1/(1-alpha)}.
    """
    a, th = _check_stable(alpha, theta)
    return _kanter(a, math.log(th) / (1.0 - a), a) / (1.0 - a)


def phi_alpha_moment(alpha: float, nu: float) -> float:
    """Moment integral of phi_alpha: Gamma(1+nu)/Gamma(1+alpha*nu) for nu >= 0."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0,1), got {alpha}")
    if nu < 0:
        raise DomainError(f"moment order must be non-negative, got {nu}")
    return gamma_fn(1.0 + nu) / gamma_fn(1.0 + alpha * nu)
