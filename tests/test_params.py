import numpy as np
import pytest
from hypothesis import given, strategies as st

from crmgraph.errors import DomainError, NonPositiveAlphaError, OutOfRegionError
from crmgraph.params import GgpParams, rng_stream


@pytest.mark.parametrize(
    "alpha,sigma,tau",
    [
        (1.0, 0.5, 0.0),
        (1.0, 0.5, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, -2.0, 0.1),
        (100.0, 0.999, 0.0),
    ],
)
def test_admissible_region_accepts(alpha, sigma, tau):
    p = GgpParams(alpha, sigma, tau)
    assert (p.alpha, p.sigma, p.tau) == (alpha, sigma, tau)


@pytest.mark.parametrize(
    "alpha,sigma,tau,exc",
    [
        (0.0, 0.5, 1.0, NonPositiveAlphaError),
        (-1.0, 0.5, 1.0, NonPositiveAlphaError),
        (1.0, 1.0, 1.0, OutOfRegionError),
        (1.0, 1.5, 1.0, OutOfRegionError),
        (1.0, 0.0, 0.0, OutOfRegionError),
        (1.0, -0.5, 0.0, OutOfRegionError),
        (1.0, np.nan, 1.0, OutOfRegionError),
        (1.0, 0.5, -0.1, OutOfRegionError),
        (np.inf, 0.5, 1.0, NonPositiveAlphaError),
    ],
)
def test_inadmissible_region_rejects(alpha, sigma, tau, exc):
    with pytest.raises(exc):
        GgpParams(alpha, sigma, tau)


@given(
    alpha=st.floats(1e-3, 1e3),
    sigma=st.floats(-5.0, 0.999),
    tau=st.floats(0.0, 1e3),
)
def test_region_predicate_matches_constructor(alpha, sigma, tau):
    admissible = (sigma <= 0 and tau > 0) or (0 < sigma < 1 and tau >= 0)
    if admissible:
        GgpParams(alpha, sigma, tau)
    else:
        with pytest.raises(OutOfRegionError):
            GgpParams(alpha, sigma, tau)


def test_with_tilt_shifts_tau():
    p = GgpParams(2.0, 0.5, 0.0).with_tilt(3.0)
    assert p.tau == 3.0 and p.sigma == 0.5 and p.alpha == 2.0


def test_rng_stream_reproducible_and_distinct():
    a = rng_stream(42, 0).standard_normal(5)
    b = rng_stream(42, 0).standard_normal(5)
    c = rng_stream(42, 1).standard_normal(5)
    d = rng_stream(43, 0).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_rng_stream_keys_do_not_alias():
    # a packed key (seed << 64) + stream would make these two one stream
    a = rng_stream(0, 2**64).standard_normal(5)
    assert not np.allclose(a, rng_stream(1, 0).standard_normal(5))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (2**128, 0), (1.9, 0), (0, 1.5)])
def test_rng_stream_rejects_bad_keys(seed, stream):
    with pytest.raises(DomainError):
        rng_stream(seed, stream)
