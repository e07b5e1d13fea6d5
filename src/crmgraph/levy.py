"""Levy-measure mathematics for the generalized gamma process family.

The GGP Levy intensity is rho(w) = w^(-1-sigma) exp(-tau w) / Gamma(1-sigma)
on (0, inf). Everything here is deterministic; samplers live in totalmass.py.
"""

import numpy as np
from scipy.special import exp1, exprel, gamma as gammafn, gammainc, gammaincc, gammaln

from .errors import DomainError, NotInvertibleError

_LOG_XMIN = -690.0  # ln-space bracket for tail-intensity inversion
_LOG_XMAX = 690.0


def _log_upper_gamma_asymptotic(a, x):
    # Gamma(a, x) ~ x^(a-1) e^-x [1 + (a-1)/x + (a-1)(a-2)/x^2 + ...] in logs;
    # four terms give relative error below |a-1|...|a-4| / x^4
    series = 1.0
    term = np.ones_like(x)
    for k in range(1, 4):
        term = term * (a - k) / x
        series = series + term
    return (a - 1.0) * np.log(x) - x + np.log(series)


def _log_upper_gamma(a, x):
    """log Gamma(a, x) for a in (-1, 1], x > 0, vectorized in x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 300.0
    xs = x[small]
    if a > 1e-10:
        out[small] = np.log(gammaincc(a, xs) * gammafn(a))
    elif a >= -1e-6:
        # Gamma(a, x) = E1(x) + O(a), off by about 7|a| in log; the recurrence
        # below cancels, off by 4e-6 at a = -1e-6 and 5e-2 at -1e-10
        out[small] = np.log(exp1(xs))
    else:
        # a in (-1, -1e-6): recurrence from Gamma(a+1, x); its cancellation grows
        # like eps * x / |a|
        out[small] = np.log(
            (gammaincc(a + 1.0, xs) * gammafn(a + 1.0) - xs**a * np.exp(-xs)) / a
        )
    # large x: the direct forms underflow to 0, so use the asymptotic series
    if np.any(~small):
        out[~small] = _log_upper_gamma_asymptotic(a, x[~small])
    return out


def levy_density(params, w):
    """GGP Levy density rho(w) = w^(-1-sigma) e^(-tau w) / Gamma(1-sigma)."""
    return np.exp(log_levy_density(params, w))


def log_levy_density(params, w):
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise DomainError("the Levy density requires w > 0")
    s, t = params.sigma, params.tau
    return (-1.0 - s) * np.log(w) - t * w - gammaln(1.0 - s)


def log_tail_intensity(params, x):
    """log of the tail Levy intensity log rhobar(x), rhobar(x) = int_x^inf rho."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("tail intensity requires x > 0")
    s, t = params.sigma, params.tau
    if t == 0.0:
        # region guarantees sigma in (0, 1) here
        return -s * np.log(x) - np.log(s) - gammaln(1.0 - s)
    return s * np.log(t) + _log_upper_gamma(-s, t * x) - gammaln(1.0 - s)


def tail_intensity(params, x):
    """Tail Levy intensity rhobar(x); decreasing, finite for all x > 0."""
    scalar = np.isscalar(x)
    out = np.exp(log_tail_intensity(params, x))
    return float(out) if scalar else out


def total_tail_mass(params):
    """rhobar(0+): tau^sigma / (-sigma) for sigma < 0, infinite otherwise."""
    if params.sigma < 0:
        return params.tau**params.sigma / (-params.sigma)
    return np.inf


def inv_tail_intensity(params, y):
    """Invert the tail intensity: x with rhobar(x) = y, y > 0.

    Closed form for tau = 0; otherwise 60 bisection steps on log x, which
    narrow the 1380-wide bracket to about 1e-15.
    """
    scalar = np.isscalar(y)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y <= 0):
        raise DomainError("inv_tail_intensity requires y > 0")
    s, t = params.sigma, params.tau
    if s < 0 and np.any(y >= total_tail_mass(params)):
        raise NotInvertibleError(
            "y exceeds the total Levy mass tau^sigma/(-sigma) of the finite-activity GGP"
        )
    if t == 0.0:
        x = (s * gammafn(1.0 - s) * y) ** (-1.0 / s)
        return float(x[0]) if scalar else x

    logy = np.log(y)
    lo = np.full_like(logy, _LOG_XMIN)
    hi = np.full_like(logy, _LOG_XMAX)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        too_big = log_tail_intensity(params, np.exp(mid)) < logy
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    x = np.exp(0.5 * (lo + hi))
    return float(x[0]) if scalar else x


def laplace_exponent(params, t):
    """Laplace exponent psi(t) per unit alpha: E[e^(-t W*)] = exp(-alpha psi(t)).

    psi(inf) is the total tail mass rhobar(0+). Where t / tau passes the
    largest double, psi is finite and no overflow warning is raised.
    """
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("laplace_exponent requires t >= 0")
    out = np.empty(t.shape)
    finite = t != np.inf    # NaN stays in, and gives NaN
    with np.errstate(over="ignore"):    # t / tau may overflow; _psi then uses log t - log tau
        out[finite] = _psi(params.sigma, params.tau, t[finite])
    if not finite.all():
        out[~finite] = total_tail_mass(params)
    return float(out) if scalar else out


def _psi(sigma, tau, t):
    """laplace_exponent's formula on unchecked floats or arrays, t >= 0.

    tau^sigma L exprel(sigma L) with L = log1p(t / tau) keeps every digit as
    sigma -> 0, on plain and numpy floats alike; for tau = 0, L is infinite
    and psi is t^sigma / sigma. It is inf where tau^sigma overflows, and nan
    there at t = 0 (numpy's inf * 0, with its warning). Where t / tau passes
    1.8e308, and only there, L is log t - log tau.
    """
    if tau == 0.0:
        return np.power(t, sigma) / sigma
    ratio = t / tau
    big_l = np.log1p(ratio)
    if isinstance(ratio, np.ndarray) or not ratio < np.inf:
        # an array, or a scalar (as samplers pass) where t / tau overflowed;
        # t > tau wherever it did, and the maximum spares log(0) elsewhere
        big_l = np.where(ratio < np.inf, big_l, np.log(np.maximum(t, tau)) - np.log(tau))
    return np.power(tau, sigma) * big_l * exprel(sigma * big_l)


def expected_truncation_mass(params, eps):
    """alpha * int_0^eps w rho(dw): mean weight mass lost below the threshold."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    s, tau, a = params.sigma, params.tau, params.alpha
    if tau == 0.0:
        return a * eps ** (1.0 - s) / ((1.0 - s) * gammafn(1.0 - s))
    return a * gammainc(1.0 - s, tau * eps) * tau ** (s - 1.0)
