import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import kstest, ks_2samp

from crmgraph import totalmass
from crmgraph.errors import DomainError, OutOfRegionError
from crmgraph.levy import laplace_exponent
from crmgraph.params import MAX_POISSON_MEAN, GgpParams, rng_stream
from crmgraph.totalmass import (
    _INVERSION_MAX_RATE,
    _SURE_ONE_MARGIN,
    _p_one,
    _sure_one_bound,
    sample_tilted_total_mass,
    sample_total_mass,
    sample_truncated_poisson,
)


def draw_many(params, n, seed=0):
    rng = rng_stream(seed, 0)
    return np.array([sample_total_mass(params, rng) for _ in range(n)])


def test_gamma_case_matches_gamma_distribution():
    # sigma = 0: W* ~ Gamma(alpha, tau) exactly
    p = GgpParams(3.0, 0.0, 2.0)
    x = draw_many(p, 20000, seed=1)
    from scipy.stats import gamma

    stat = kstest(x, gamma(3.0, scale=0.5).cdf)
    assert stat.pvalue > 0.01


@pytest.mark.parametrize(
    "params",
    [
        GgpParams(2.0, 0.0, 1.0),
        GgpParams(2.0, 0.5, 1.0),
        GgpParams(0.7, 0.8, 0.5),
        GgpParams(2.0, -0.5, 1.0),
        GgpParams(5.0, -1.5, 2.0),
        GgpParams(1.0, 0.5, 0.0),
        GgpParams(1.0, 0.3, 0.0),
    ],
)
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_laplace_transform_matches_exponent(params, t):
    # E[e^(-t W*)] = exp(-alpha psi(t)); 4 standard errors
    x = draw_many(params, 20000, seed=2)
    vals = np.exp(-t * x)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    expected = np.exp(-params.alpha * laplace_exponent(params, t))
    assert abs(vals.mean() - expected) <= 4.0 * se


def test_stable_case_mean():
    # sigma in (0,1), tau > 0: E[W*] = alpha (tau)^(sigma-1)
    p = GgpParams(4.0, 0.5, 2.0)
    x = draw_many(p, 40000, seed=3)
    expected = p.alpha * p.tau ** (p.sigma - 1.0)
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - expected) <= 4.0 * se


def test_compound_poisson_case_moments():
    # sigma < 0: Poisson(-(alpha/sigma) tau^sigma) many Gamma(-sigma, tau) jumps
    p = GgpParams(3.0, -0.5, 1.5)
    x = draw_many(p, 40000, seed=4)
    rate = -(p.alpha / p.sigma) * p.tau**p.sigma
    mean_jump = -p.sigma / p.tau
    expected = rate * mean_jump
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - expected) <= 4.0 * se
    assert np.any(x == 0.0)  # finite activity can produce an empty measure


def test_near_zero_negative_sigma_is_constant_cost():
    # about 1e7 jumps of Gamma(1e-5, tau): the sum is drawn without them
    p = GgpParams(100.0, -1e-5, 2.0)
    rng = rng_stream(6, 0)
    tracemalloc.start()
    try:
        sample_total_mass(p, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    start = time.perf_counter()
    x = draw_many(p, 4000, seed=6)
    assert time.perf_counter() - start < 10.0
    expected = p.alpha * p.tau ** (p.sigma - 1.0)
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - expected) <= 4.0 * se


def test_tiny_sigma_does_not_overflow():
    p = GgpParams(10.0, 1e-9, 1.0)
    rng = rng_stream(5, 0)
    x = np.array([sample_total_mass(p, rng) for _ in range(200)])
    assert np.all(np.isfinite(x)) and np.all(x > 0)
    # near sigma = 0 the law approaches Gamma(alpha, tau)
    assert abs(x.mean() - 10.0) < 4.0 * x.std(ddof=1) / np.sqrt(len(x)) + 0.5


@pytest.mark.parametrize(
    "base,tilt",
    [
        (GgpParams(2.0, 0.5, 1.0), 3.0),
        (GgpParams(2.0, 0.0, 1.0), 2.0),
        (GgpParams(2.0, -0.5, 1.0), 2.0),
        (GgpParams(1.5, 0.7, 0.0), 1.0),
    ],
)
def test_tilting_identity(base, tilt):
    # tilting by c is exactly a tau -> tau + c shift, for every sigma
    rng1 = rng_stream(6, 0)
    rng2 = rng_stream(6, 0)
    a = np.array([sample_tilted_total_mass(base, tilt, rng1) for _ in range(5000)])
    shifted = GgpParams(base.alpha, base.sigma, base.tau + tilt)
    b = np.array([sample_total_mass(shifted, rng2) for _ in range(5000)])
    np.testing.assert_array_equal(a, b)


def test_zero_tilt_is_identity_in_law():
    base = GgpParams(2.0, 0.5, 1.0)
    rng = rng_stream(7, 0)
    a = np.array([sample_tilted_total_mass(base, 0.0, rng) for _ in range(8000)])
    b = draw_many(base, 8000, seed=8)
    assert ks_2samp(a, b).pvalue > 0.01


def test_tilted_gamma_case_is_rate_shift():
    # sigma = 0 tilted by c: Gamma(alpha, tau + c)
    rng = rng_stream(15, 0)
    x = np.array([sample_tilted_total_mass(GgpParams(3.0, 0.0, 1.0), 4.0, rng)
                  for _ in range(20000)])
    from scipy.stats import gamma

    assert kstest(x, gamma(3.0, scale=0.2).cdf).pvalue > 0.01


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_alpha=st.floats(-1.0, 3.0),
    sigma=st.one_of(st.sampled_from([-1e-12, 0.0, 1e-12, -1.0, -3.0]),
                    st.floats(-0.9, 0.9).filter(lambda s: abs(s) >= 1e-12)),
    log_tau=st.one_of(st.just(None), st.floats(-6.0, 6.0)),
    log_tilt=st.one_of(st.just(None), st.floats(-6.0, 6.0)),
)
@example(log_alpha=3.0, sigma=-3.0, log_tau=-6.0, log_tilt=None)
@example(log_alpha=3.0, sigma=0.01, log_tau=None, log_tilt=None)
@example(log_alpha=0.0, sigma=1e-12, log_tau=None, log_tilt=None)
def test_tilted_total_mass_finite_over_the_region(log_alpha, sigma, log_tau, log_tilt):
    # |sigma| runs down to 1e-12, and alpha up to 1e3, where sigma = -3 and
    # tau = 1e-6 make the mean jump count exceed 1e20.
    # log_tau None stands for tau = 0, admissible only for sigma > 0;
    # log_tilt None for tilt = 0. With tau = tilt = 0 the draw is a stable
    # variable of scale (alpha/sigma)^(1/sigma), beyond a double's range
    # for sigma below about 0.05, so there a draw may raise DomainError.
    tau = 0.0 if log_tau is None else 10.0**log_tau
    tilt = 0.0 if log_tilt is None else 10.0**log_tilt
    if tau == 0.0 and sigma <= 0.0:
        return
    params = GgpParams(10.0**log_alpha, sigma, tau)
    rng = rng_stream(16, 0)
    start = time.perf_counter()
    x = []
    for _ in range(5):
        try:
            x.append(sample_tilted_total_mass(params, tilt, rng))
        except DomainError:
            if tau + tilt > 0.0:
                raise
    x = np.array(x)
    assert time.perf_counter() - start < 1.0
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    if sigma >= 0.0:
        assert np.all(x > 0.0)
    # a negative tilt is rejected, even where tau + tilt would stay >= 0
    with pytest.raises(OutOfRegionError):
        sample_tilted_total_mass(params, -min(tau, 1.0) if tau > 0 else -1.0, rng)


def test_truncated_poisson_mean_at_unit_rate():
    rng = rng_stream(9, 0)
    x = sample_truncated_poisson(np.ones(200000), rng)
    # E = lambda / (1 - e^-lambda) at lambda = 1
    expected = 1.5819767068693265
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - expected) <= 4.0 * se


def test_truncated_poisson_always_positive():
    rng = rng_stream(10, 0)
    rates = np.concatenate([np.full(1000, 1e-12), np.full(1000, 0.5),
                            np.full(1000, 5.0), np.full(1000, 50.0)])
    x = sample_truncated_poisson(rates, rng)
    assert np.all(x >= 1)
    assert np.all(x[:1000] == 1)  # vanishing rate degenerates to 1


def test_truncated_poisson_large_rate_matches_poisson_mean():
    rng = rng_stream(11, 0)
    lam = 30.0
    x = sample_truncated_poisson(np.full(50000, lam), rng)
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - lam / (1.0 - np.exp(-lam))) <= 4.0 * se


def ztp_pmf(k, lam):
    """lam^k / (k! (e^lam - 1)), in log space so that huge rates give 0."""
    return np.exp(k * np.log(lam) - gammaln(k + 1.0) - lam - np.log(-np.expm1(-lam)))


@pytest.mark.parametrize("lam", [
    1e-12, 0.05, 0.8, 3.0,
    np.nextafter(_INVERSION_MAX_RATE, 0.0), np.nextafter(_INVERSION_MAX_RATE, np.inf),
    30.0, 1e4,
])
def test_truncated_poisson_pmf(lam):
    # both sides of the split between CDF inversion and the one-pass form
    x = sample_truncated_poisson(np.full(200000, lam), rng_stream(16, 0))
    assert x.min() >= 1
    for k in (1, 2, 3, 4):
        pk = ztp_pmf(k, lam)
        se = np.sqrt(pk * (1.0 - pk) / len(x))
        assert abs(np.mean(x == k) - pk) <= 5.0 * se


def test_truncated_poisson_one_just_above_split():
    # above the split the u < lam/expm1(lam) shortcut must not apply on top
    # of the one-pass form, which already gives X = 1 at that rate
    lam = np.nextafter(_INVERSION_MAX_RATE, np.inf)
    x = sample_truncated_poisson(np.full(1_000_000, lam), rng_stream(17, 0))
    p1 = lam / np.expm1(lam)
    se = np.sqrt(p1 * (1.0 - p1) / len(x))
    assert abs(np.mean(x == 1) - p1) <= 5.0 * se


def test_sure_one_bound_is_below_p_one():
    # the squeeze that settles X = 1 without expm1 must never decide a draw
    # that the exact u < lam/expm1(lam) compare decides otherwise
    edges = [np.nextafter(x, d) for x in (2.0, _INVERSION_MAX_RATE) for d in (0.0, np.inf)]
    lam = np.unique(np.concatenate([
        np.geomspace(5e-324, 30.0, 2_000_001),
        np.linspace(0.0, 30.0, 2_000_001)[1:],
        [5e-324, 2.0, _INVERSION_MAX_RATE, 30.0], edges,
    ]))
    t = _sure_one_bound(lam)
    np.testing.assert_array_equal(t, 1.0 - 0.5 * lam - _SURE_ONE_MARGIN)
    assert np.all(t < _p_one(lam))
    assert np.all(t[lam > _INVERSION_MAX_RATE] < 0.0)   # big rates are always candidates


def test_truncated_poisson_draws_only_uniforms_below_the_split():
    # with no rate past the inversion limit a call advances the generator
    # exactly as drawing its uniforms does, whatever the rates need
    g = rng_stream(5, 0)
    chain_like = g.exponential(size=50_000) * 10.0 ** g.uniform(-3.0, 1.3, size=50_000)
    for rate in (np.minimum(chain_like, _INVERSION_MAX_RATE), np.full(3, 1e-12), np.zeros(0)):
        assert not np.any(rate > _INVERSION_MAX_RATE)
        rng, twin = rng_stream(5, 1), rng_stream(5, 1)
        sample_truncated_poisson(rate, rng)
        twin.random(len(rate))
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


class _GivenUniforms:
    """Generator whose uniforms are the given ones."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return self._u.copy()


def _inversion_edges(lams, ks, ulps=4):
    """Rates, and uniforms within ulps of the kernel's float64 P(X <= k).

    A run whose uniforms would reach 1 is left out, since a generator's
    uniforms lie below 1.
    """
    rate, u = [], []
    for lam in lams:
        p = cdf = float(_p_one(lam))
        for j in range(2, max(ks) + 1):
            p = p * lam / j
            cdf += p
            run = [cdf + d * np.spacing(cdf) for d in range(-ulps, ulps + 1)]
            if j in ks and run[-1] < 1.0:
                rate += [lam] * (2 * ulps + 1)
                u += run
    return np.array(rate), np.array(u)


def test_truncated_poisson_same_draws_whichever_pass_finishes(monkeypatch):
    # the vectorised passes and _invert_one_by_one round alike, so the
    # switch between them moves no draw, not even one whose uniform lies
    # a few ulps from where u - P(X <= k) changes sign
    g = rng_stream(5, 0)
    chain_like = g.exponential(size=200_000) * 10.0 ** g.uniform(-3.0, 1.3, size=200_000)
    edge_rate, edge_u = _inversion_edges(np.linspace(2.5, 9.5, 60), range(2, 7))
    cases = [(chain_like, lambda: rng_stream(5, 1)),
             (np.full(4000, 5.0), lambda: rng_stream(5, 1)),
             (edge_rate, lambda: _GivenUniforms(edge_u))]
    for rate, rng in cases:
        want = sample_truncated_poisson(rate, rng())
        # X >= 7 was undecided through the passes k = 2..6
        assert np.sum(want >= 7) > totalmass._VECTOR_MIN_DRAWS
        for least in (0, rate.size + 1):
            monkeypatch.setattr(totalmass, "_VECTOR_MIN_DRAWS", least)
            np.testing.assert_array_equal(sample_truncated_poisson(rate, rng()), want)
        monkeypatch.undo()
    # every run of 2 * ulps + 1 uniforms straddles its sign change
    assert np.all(np.ptp(want.reshape(-1, 9), axis=1) == 1)


def test_truncated_poisson_same_draws_whatever_the_block_depth(monkeypatch):
    # a block tries _BLOCK_TERMS terms per numpy call; neither its depth nor
    # the hand-off to _invert_one_by_one moves a draw or the generator state
    g = rng_stream(5, 0)
    chain_like = g.exponential(size=200_000) * 10.0 ** g.uniform(-3.0, 1.3, size=200_000)
    deep = rng_stream(6, 0).uniform(2.0, 10.0, size=20_000)     # X reaches 23
    edge_rate, edge_u = _inversion_edges(np.linspace(2.5, 9.5, 60), range(2, 15))
    assert edge_rate.size > 60 * 9 * 10
    cases = [(chain_like, lambda: rng_stream(5, 1)),
             (deep, lambda: rng_stream(6, 1)),
             (edge_rate, lambda: _GivenUniforms(edge_u)),
             # at the largest uniform, 118 of these draws end by a term
             # underflowing to 0, after 75 to 303 terms
             (np.geomspace(1e-3, 10.0, 2000), _LastUniform)]
    for rate, make_rng in cases:
        rng = make_rng()
        want = sample_truncated_poisson(rate, rng)
        want_next = rng.random(4)
        for depth in (1, 2, 3, 4, 5, 8):
            for least in (0, rate.size + 1):
                monkeypatch.setattr(totalmass, "_BLOCK_TERMS", depth)
                monkeypatch.setattr(totalmass, "_VECTOR_MIN_DRAWS", least)
                rng = make_rng()
                np.testing.assert_array_equal(sample_truncated_poisson(rate, rng), want)
                np.testing.assert_array_equal(rng.random(4), want_next)
        monkeypatch.undo()


class _LastUniform:
    """Generator whose uniforms are all the largest double below 1."""

    def __init__(self):
        self._rng = rng_stream(18, 0)

    def uniform(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))

    random = uniform

    def poisson(self, lam):
        return self._rng.poisson(lam)


def test_truncated_poisson_ends_at_largest_uniform():
    rates = np.concatenate([np.geomspace(1e-300, 1e4, 400),
                            [np.nextafter(_INVERSION_MAX_RATE, 0.0), _INVERSION_MAX_RATE]])
    x = sample_truncated_poisson(rates, _LastUniform())
    assert x.dtype == np.int64 and np.all(x >= 1)


def test_truncated_poisson_scalar_api():
    rng = rng_stream(13, 0)
    v = sample_truncated_poisson(2.0, rng)
    assert isinstance(v, int) and v >= 1


def test_truncated_poisson_rejects_bad_rate():
    rng = rng_stream(14, 0)
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            sample_truncated_poisson(bad, rng)
        with pytest.raises(DomainError):
            sample_truncated_poisson(np.array([1.0, bad, 2.0]), rng)


def test_truncated_poisson_rejects_a_rate_past_numpys_poisson_limit():
    # numpy's own Poisson raises ValueError here; the check comes before any draw
    rng = rng_stream(14, 1)
    for bad in (1e19, np.nextafter(MAX_POISSON_MEAN, np.inf)):
        with pytest.raises(DomainError):
            sample_truncated_poisson(np.array([1.0, bad]), rng)
    assert rng.random() == rng_stream(14, 1).random()
    x = sample_truncated_poisson(np.array([1.0, MAX_POISSON_MEAN]), rng)
    assert x[1] > MAX_POISSON_MEAN / 2


def test_truncated_poisson_empty_rate():
    x = sample_truncated_poisson(np.array([]), rng_stream(15, 0))
    assert x.shape == (0,) and x.dtype == np.int64
