"""Gamma, Mittag-Leffler and one-sided stable density evaluation.

The two-parameter Mittag-Leffler function E_{p,q}(z) = sum_k z^k / Gamma(pk+q)
drives every eigenmode of the sub-diffusion model, so it must be accurate for
strongly negative real arguments.  Arrays of arguments go through
:func:`mittag_leffler_array`, which uses

* for 0 < p < 1 and z < 0: the trapezoid rule on a parabolic contour for the
  inverse Laplace integral, vectorized in float64; a value is certified when a
  second pass with other nodes agrees with it and its rounding estimate holds,
  both to 1e-10 relative,

and sends every other element, and every element that fails its
certificate, to the scalar :func:`mittag_leffler`, which has three regimes:

* adaptive-precision power series (mpmath) wherever the series converges in a
  manageable number of terms; precision is chosen from the predicted peak term
  so alternating cancellation never eats the answer,
* the algebraic asymptotic expansion -sum_{k>=1} z^{-k}/Gamma(q - pk) for
  deeply negative z and p bounded away from 1 (optimal truncation, with the
  first omitted term as a certified error bound and a series fallback),
* the exponential asymptotic form for large positive z.

The stable density psi_alpha and the kernel phi_alpha come from Kanter's positive
integral (Ann. Probab. 3 (1975) 697-707): one quadrature, certified or EvaluationError.
Gamma, 1/Gamma and the contour kernel need only math and numpy; scipy.special (gammaln in
the algebraic expansion's envelope), mpmath (the series) and scipy.integrate (Kanter) are
imported on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError, PoleError

_LOG10E = math.log10(math.e)

# Switch points between the power series and the asymptotic branches,
# expressed in x = |z|^(1/p).  At x = 25 the optimally truncated algebraic
# expansion certifies ~1e-11 and the series needs only a few hundred terms,
# so the two branches overlap safely.
_X_ASYMPTOTIC_NEG = 25.0
_X_ASYMPTOTIC_POS = 30.0
# Working-precision cap of the series; a peak term needing more digits is refused up front.
_SERIES_MAX_DPS = 3000

# Trapezoid rule on the parabola s(u) = mu (1 + iu)^2, u = 0, h, ..., (n-1) h
# (Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356).  The first pass
# gives the value; the second, with other nodes and a longer reach, checks it.
_CONTOUR_MU = 32.0 * math.pi / 24.0
_CONTOUR_PASSES = ((3.0 / 32.0, 33), (3.5 / 40.0, 41))  # (h, nodes)
_CONTOUR_RTOL = 1e-10  # the passes must agree, and the rounding estimate hold, to this


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


def _ml_asymptotic_neg(p: float, q: float, z: float):
    """Algebraic expansion for z << 0; returns None if it cannot certify.

    Individual terms z^{-k}/Gamma(q-pk) oscillate through gamma poles, so
    optimal truncation is driven by the smooth envelope
    |z|^{-k} Gamma(pk-q+1)/pi from the reflection formula, not by the raw
    term magnitudes.
    """
    from scipy import special as sp  # here, not at the top: only scalar fallbacks reach it

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
        acc -= zi * _rgamma(q - p * j)
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


def _contour_sum(num: np.ndarray, s_p: np.ndarray, m, r, estimate: bool):
    """Re sum_k num_k / (m s_p[k] - r) and, if ``estimate``, sum_k |num_k / (m s_p[k] - r)|.

    Node by node, so temporaries stay the size of m or r.  Every term is formed
    to a few ulps, so the second sum times the machine epsilon estimates the
    rounding error of the first, cancellation included (None without ``estimate``).
    """
    shape = np.broadcast_shapes(np.shape(m), np.shape(r))
    acc, mag = np.zeros(shape), (np.zeros(shape) if estimate else None)
    for nk, ak, bk in zip(num.tolist(), s_p.real.tolist(), s_p.imag.tolist()):
        d = ak * m - r
        e = bk * m
        den = d * d + e * e
        acc += (nk.real * d + nk.imag * e) / den
        if estimate:
            mag += abs(nk) / np.sqrt(den)
    return acc, mag


def _ml_contour(p: float, q: float, z: np.ndarray, h: float, n_nodes: int, estimate: bool):
    """One trapezoid pass for E_{p,q}(z), 0 < p < 1, z < 0 finite: values and rounding estimates.

    E = (1/2 pi i) int e^s s^{p-q}/(s^p - z) ds over s(u) = mu (1 + iu)^2, which
    leaves the cut and the poles of the principal sheet on its left; z is real,
    so only u >= 0 is summed.  For z < -1 the leading tail term is split off
    exactly, E = (w T - 1/Gamma(q-p)) w with w = 1/z and
    T = (1/2 pi i) int e^s s^{2p-q}/(s^p w - 1) ds, so the sum no longer cancels
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
    val[near], near_err = _contour_sum(num, s_p, 1.0, z[near], estimate)
    w = 1.0 / z[far]
    t, t_err = _contour_sum(num * s_p, s_p, w, 1.0, estimate)
    val[far] = (w * t - _rgamma(q - p)) * w
    if estimate:
        eps = np.finfo(float).eps
        err[near], err[far] = near_err * eps, t_err * w * w * eps
    return val, err


def mittag_leffler_array(p: float, q: float, z) -> np.ndarray:
    """E_{p,q} elementwise; every table of Mittag-Leffler values in the package is built here.

    For 0 < p < 1 and z < 0 the value is the first contour pass, vectorized in
    float64, where it is certified: the second pass agrees with it, and its
    rounding estimate is met, to ``_CONTOUR_RTOL``.  Every other element, and
    every element that fails its certificate, is one :func:`mittag_leffler`
    call, in row-major order.
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    vals = np.empty_like(flat)
    todo = np.ones(flat.shape, dtype=bool)
    p, q = float(p), float(q)
    if 0.0 < p < 1.0 and math.isfinite(q):
        idx = np.flatnonzero((flat < 0.0) & np.isfinite(flat))
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
