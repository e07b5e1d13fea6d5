"""Exact samplers for GGP total masses and zero-truncated Poisson draws.

The total mass W*_alpha of a restricted GGP is gamma distributed for
sigma = 0, an exponentially tilted stable variable for sigma in (0, 1)
(sampled by Devroye's double-rejection scheme), and a compound Poisson sum
of gamma jumps for sigma < 0, drawn as one gamma variate given the number
of jumps. Exponential tilting by c is folded analytically into the rate:
the tilted law is the total-mass law with tau -> tau + c, for every sigma.
"""

import math
import sys

import numpy as np

from .errors import DomainError, OutOfRegionError
from .levy import total_tail_mass
from .params import MAX_POISSON_MEAN

_LOG_MAX_DOUBLE = math.log(sys.float_info.max)
# sample_truncated_poisson inverts the CDF at rates up to this; above it
# the inversion would take about lam passes.
_INVERSION_MAX_RATE = 10.0
# sample_truncated_poisson settles a draw as X = 1 without expm1 when its
# uniform lies this far below 1 - rate/2; see its docstring
_SURE_ONE_MARGIN = 2.0**-40
_SURE_ONE = 1.0 - _SURE_ONE_MARGIN      # exact in binary
# Its inversion blocks run vectorised while more draws than this are
# undecided. A numpy call has a fixed cost of a few microseconds, more than
# finishing a few dozen draws one by one in Python. Per-call medians of 300
# interleaved calls on the latent rates of a chain after 400 sweeps (2-CPU
# host, numpy 2.4), with 4-term blocks: sparsity-boundary 0: 314 us, 16:
# 275, 32: 255, 64: 252, 128: 249; fit-paper 0: 1247, 16: 1207, 32: 1194,
# 64: 1194, 128: 1208. 32 stays.
_VECTOR_MIN_DRAWS = 32
# Each inversion block tries this many consecutive terms. A draw that stops
# early wastes a few products, but the fixed cost of the block's numpy
# calls is paid once per block, not once per term. Per-call medians as
# above, at 1, 2, 3, 4, 5, 6 and 8 terms: sparsity-boundary 390, 291, 262,
# 247, 251, 258, 247 us; fit-paper 1345, 1163, 1130, 1147, 1150, 1187,
# 1269 us. One term per pass, without blocks, took 331 and 1208 us.
_BLOCK_TERMS = 4


def _log_stable_std(rng, alpha):
    """Log of one draw of the positive stable law with E[e^(-tS)] = exp(-t^alpha).

    Kanter's representation: S = (A(U)/E)^((1-alpha)/alpha) with U uniform
    on (0, pi), E unit exponential and A(U)^(1-alpha) = _zolotarev_a(U).
    As alpha -> 0 the draw itself leaves a double's range, but its log
    stays finite.
    """
    u = rng.uniform(0.0, math.pi)
    e = rng.exponential()
    return (math.log(_zolotarev_a(u, alpha)) - (1.0 - alpha) * math.log(e)) / alpha


def _sinc(x):
    if x == 0.0:
        return 1.0
    if abs(x) < 2e-4:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def _zolotarev_b(u, alpha):
    # sinc(u) / (sinc(alpha u)^alpha sinc((1-alpha) u)^(1-alpha))
    return _sinc(u) / (_sinc(alpha * u) ** alpha * _sinc((1.0 - alpha) * u) ** (1.0 - alpha))


def _zolotarev_a(u, alpha):
    return (
        ((1.0 - alpha) * _sinc((1.0 - alpha) * u)) ** (1.0 - alpha)
        * (alpha * _sinc(alpha * u)) ** alpha
        / _sinc(u)
    )


def _log_exp_tilted_stable_std(rng, alpha, lam_alpha):
    """Log of a draw from the standard positive stable law tilted by exp(-lam x).

    Devroye (2009) double-rejection algorithm; exact, O(1) expected cost
    uniformly in the tilt. Parameterized by lam_alpha = lam**alpha and
    returned in log space, since the caller's rescaling can make lam itself
    and the draw overflow or underflow a double.
    """
    if lam_alpha == 0.0:
        return _log_stable_std(rng, alpha)

    b = (1.0 - alpha) / alpha
    gamma = lam_alpha * alpha * (1.0 - alpha)
    sqrt_gamma = math.sqrt(gamma)
    c1 = math.sqrt(math.pi / 2.0)
    c2 = 2.0 + c1
    c3 = c2 * sqrt_gamma
    xi = (1.0 + math.sqrt(2.0) * c3) / math.pi
    psi = c3 * math.exp(-gamma * math.pi * math.pi / 8.0) / math.sqrt(math.pi)
    w1 = c1 * xi / sqrt_gamma if sqrt_gamma > 0 else math.inf
    w2 = 2.0 * math.sqrt(math.pi) * psi
    w3 = xi * math.pi

    while True:
        # outer rejection: sample the auxiliary angle U and uniform Z
        while True:
            v = rng.uniform()
            if gamma >= 1.0:
                if v < w1 / (w1 + w2):
                    u = abs(rng.standard_normal()) / sqrt_gamma
                else:
                    w = rng.uniform()
                    u = math.pi * (1.0 - w * w)
            else:
                w = rng.uniform()
                u = math.pi * w if v < w3 / (w2 + w3) else math.pi * (1.0 - w * w)
            if u >= math.pi:
                continue
            zeta = math.sqrt(_zolotarev_b(u, alpha))
            z = 1.0 / (1.0 - (1.0 + alpha * zeta / sqrt_gamma) ** (-1.0 / alpha))
            arg = -lam_alpha * (1.0 - 1.0 / (zeta * zeta))
            rho = (
                math.inf
                if arg > 700.0
                else math.pi * math.exp(arg) / ((1.0 + c1) * sqrt_gamma / zeta + z)
            )
            d = 0.0
            if gamma >= 1.0:
                d += xi * math.exp(-gamma * u * u / 2.0)
            if 0.0 < u < math.pi:
                d += psi / math.sqrt(math.pi - u)
            if gamma < 1.0:
                d += xi
            rho *= d
            big_z = rng.uniform() * rho
            if big_z <= 1.0:
                break

        # inner rejection in x
        a = _zolotarev_a(u, alpha) ** (1.0 / (1.0 - alpha))
        m = (b / a) ** alpha * lam_alpha
        delta = math.sqrt(m * alpha / a)
        a1 = delta * c1
        a3 = z / a
        s = a1 + delta + a3
        v2 = rng.uniform()
        n = 0.0
        e1 = 0.0
        if v2 < a1 / s:
            n = rng.standard_normal()
            x = m - delta * abs(n)
        elif v2 < (a1 + delta) / s:
            x = m + delta * rng.uniform()
        else:
            e1 = rng.exponential()
            x = m + delta + e1 * a3
        if x <= 0.0:
            continue
        e2 = -math.log(big_z)
        # log(lam_alpha)/alpha - b log(m) simplified to avoid huge intermediates
        arg = math.log(lam_alpha) - (1.0 - alpha) * math.log(b / a)
        blog = b * math.log(m / x)
        if blog < 30.0:
            tilt_term = math.exp(arg) * math.expm1(blog)
        elif arg + blog < 700.0:
            tilt_term = math.exp(arg + blog)
        else:
            tilt_term = math.inf
        c = a * (x - m) + tilt_term
        if x < m:
            c -= n * n / 2.0
        elif x > m + delta:
            c -= e1
        if c <= e2:
            return -b * math.log(x)


def sample_total_mass(params, rng):
    """One exact draw of the GGP total mass W*_alpha; DomainError if it exceeds a double."""
    a, s, t = params.alpha, params.sigma, params.tau
    if s == 0.0:
        return float(rng.gamma(a, 1.0 / t))
    if s < 0.0:
        # k i.i.d. Gamma(-sigma, tau) jumps sum to one Gamma(-k sigma, tau).
        # numpy's Poisson stops near 9.2e18; from 1e18 on, k is drawn from
        # its normal limit, whose CDF is within 1e-9 of Poisson(lam)'s.
        lam = a * total_tail_mass(params)
        k = rng.poisson(lam) if lam < 1e18 else rng.normal(lam, math.sqrt(lam))
        return float(rng.gamma(-k * s, 1.0 / t)) if k else 0.0
    # sigma in (0, 1): scaled, exponentially tilted stable with tilt t*scale;
    # (t*scale)^sigma = t^sigma (a/sigma) stays finite even when scale overflows
    log_scale = math.log(a / s) / s
    lam_alpha = t**s * (a / s) if t > 0.0 else 0.0
    log_w = log_scale + _log_exp_tilted_stable_std(rng, s, lam_alpha)
    if log_w > _LOG_MAX_DOUBLE:
        raise DomainError(f"total mass draw e^{log_w:.6g} exceeds the largest double")
    return math.exp(log_w)


def sample_tilted_total_mass(params, tilt, rng):
    """Draw from the density proportional to exp(-tilt * w) g*_{alpha,sigma,tau}(w)."""
    if not (np.isfinite(tilt) and tilt >= 0):
        raise OutOfRegionError(f"tilt must be >= 0, got {tilt}")
    return sample_total_mass(params.with_tilt(tilt), rng)


def _sure_one_bound(rate):
    """_SURE_ONE - rate/2, a lower bound on P(X = 1) = _p_one(rate)."""
    t = np.multiply(rate, -0.5)
    t += _SURE_ONE
    return t


def _p_one(rate, out=None):
    """P(X = 1) = lam / expm1(lam) of the zero-truncated Poisson law,
    written into out when given."""
    return np.divide(rate, np.expm1(rate, out=out), out=out)


def _invert_one_by_one(k, lam, p, left):
    """Finish the inversion of draws undecided after the term X = k.

    The same steps as an inversion block, on Python floats, which round
    each product and quotient as numpy's float64 does.
    """
    out = []
    for lam_i, p_i, left_i in zip(lam.tolist(), p.tolist(), left.tolist()):
        j = k
        while left_i >= 0.0 and p_i > 0.0:
            j += 1
            p_i = p_i * lam_i / j
            left_i -= p_i
        out.append(j)
    return out


def sample_truncated_poisson(rate, rng):
    """Zero-truncated Poisson draws, exact at every rate, one uniform per rate.

    P(X = k) = lam^k / (k! (e^lam - 1)) for k >= 1. Each draw takes one
    uniform u and inverts the CDF, so X = 1 exactly when
    u < p_1 = lam / expm1(lam).

    Most draws at a sparse graph's small latent rates are settled by a
    squeeze (Devroye 1986, ch. II.5) before p_1 is computed. Since
    e^x - 1 < x / (1 - x/2) for 0 < x < 2, p_1 > 1 - lam/2 at every
    lam > 0 (for lam >= 2 the bound is <= 0). A draw with
    u < t = _SURE_ONE - lam/2, where _SURE_ONE = 1 - _SURE_ONE_MARGIN, is
    therefore X = 1. The margin is far wider than the ulp by which t is
    rounded and the few by which the rounded expm1 and divide can stray,
    so the squeeze never decides a draw that the exact compare would
    decide otherwise, and the output is the same bit for bit as with the
    compare alone. The draws with u >= t, the candidates, go on by rate:

    - lam <= _INVERSION_MAX_RATE: X = 1 when u < p_1. Only the draws
      still undecided take the next term, p_k = p_{k-1} lam / k, so the
      work runs on a shrinking index set. A term that has underflowed to 0
      ends a draw (it can happen only for u within rounding of 1). Once at
      most _VECTOR_MIN_DRAWS draws are left, each finishes on its own in
      the same arithmetic.

      The passes work in blocks of _BLOCK_TERMS consecutive terms, since a
      numpy call has a fixed cost of several microseconds and a term only
      a few calls' work. A block fills one (2, _BLOCK_TERMS, n) array row
      by row with p_k and u - P(X <= k), by the same products, quotients
      and differences as one term at a time, so every draw is the same bit
      for bit. A draw goes on past term k while u - P(X <= k) >= 0 and
      p_k > 0. Both tests stay false once false, so the number of rows in
      which both hold, one sum over the block, gives the draw's value, and
      the draws that went on through the whole block take the next one.
      The first block starts at p_1.

      The blocks are index-compressed: each keeps its undecided draws by
      the positions nonzero() finds, with one take of their indices, their
      rates and the block's last row. A boolean-mask compress would cost
      several times as much, since an undecided draw is scattered at
      random and defeats branch prediction.
    - lam > _INVERSION_MAX_RATE: the number of inversion passes grows like
      lam, so these draws keep the one-pass form. X is one plus the
      arrivals of a unit-rate Poisson process on (T, lam], where T is its
      first arrival conditioned on T < lam: T = -log1p(u expm1(-lam)), and
      X = 1 + Poisson(lam - T).

    Every rate above _INVERSION_MAX_RATE has t < 0, so it is always a
    candidate, and all of these draws take the one-pass form. Splitting
    them off before the u < p_1 compare matters: applying that shortcut
    to the large rates too and drawing the rest by the one-pass form
    would double P(X = 1) there.

    A stage with no draws to work on is skipped. So when no rate exceeds
    _INVERSION_MAX_RATE, a call uses the generator exactly as
    rng.random(len(rate)) does.

    A rate outside (0, MAX_POISSON_MEAN], where numpy's Poisson stops, or
    NaN raises DomainError before anything is drawn.
    """
    scalar = np.isscalar(rate)
    rate = np.atleast_1d(np.asarray(rate, dtype=float))
    top = rate.max(initial=0.0)
    if rate.size and not (rate.min() > 0.0 and top <= MAX_POISSON_MEAN):     # NaN fails both
        raise DomainError(f"truncated Poisson requires rates in (0, {MAX_POISSON_MEAN:.6g}]")
    u = rng.random(rate.shape)
    out = np.ones(rate.shape, dtype=np.int64)
    bound = _sure_one_bound(rate)
    has_big = top > _INVERSION_MAX_RATE
    if has_big:
        # all candidates; a bound of 1, which no uniform reaches, keeps
        # them out of the inversion
        big = (rate > _INVERSION_MAX_RATE).nonzero()[0]
        bound[big] = 1.0
    idx = (u >= bound).nonzero()[0]
    lam = rate.take(idx)
    k = 0                               # terms tried by every undecided draw
    while idx.size > _VECTOR_MIN_DRAWS or (k == 0 and idx.size):
        block = np.empty((2, _BLOCK_TERMS, idx.size))
        terms, lefts = block            # P(X = k + 1 + j) and u - P(X <= k + 1 + j)
        start = 0
        if k == 0:                      # X = 1 has its own form
            p = _p_one(lam, out=terms[0])
            left = u.take(idx, out=lefts[0])
            left -= p
            start = 1
        for j in range(start, _BLOCK_TERMS):
            p = np.multiply(p, lam, out=terms[j])
            p /= k + 1 + j
            left = np.subtract(left, p, out=lefts[j])
        # a draw goes on past term k + 1 + j while lefts[j] >= 0 and
        # terms[j] > 0; both stay false once false, so the count of rows
        # where both hold is the count of leading ones
        going = lefts >= 0.0
        going &= terms > 0.0
        steps = going.sum(axis=0)
        steps += k + 1                  # the draws' values
        out[idx] = steps
        k += _BLOCK_TERMS
        keep = (steps > k).nonzero()[0]
        idx = idx.take(keep)
        lam = lam.take(keep)
        p, left = block[:, -1].take(keep, axis=1)
    if idx.size:
        out[idx] = _invert_one_by_one(k, lam, p, left)
    if has_big:
        lam = rate.take(big)
        first = -np.log1p(u.take(big) * np.expm1(-lam))
        out[big] = 1 + rng.poisson(np.maximum(lam - first, 0.0))
    if scalar:
        return int(out[0])
    return out
