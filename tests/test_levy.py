import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from crmgraph.errors import DomainError, NotInvertibleError
from crmgraph.levy import (
    _log_upper_gamma,
    _psi,
    expected_truncation_mass,
    inv_tail_intensity,
    laplace_exponent,
    levy_density,
    log_levy_density,
    log_tail_intensity,
    tail_intensity,
    total_tail_mass,
)
from crmgraph.params import GgpParams

PARAM_GRID = [
    GgpParams(1.0, -1.5, 2.0),
    GgpParams(1.0, -0.5, 1.0),
    GgpParams(1.0, 0.0, 1.0),
    GgpParams(1.0, 0.2, 0.5),
    GgpParams(1.0, 0.5, 1.0),
    GgpParams(1.0, 0.5, 0.0),
    GgpParams(1.0, 0.9, 3.0),
]


def quad_tail(params, x):
    val, _ = quad(lambda w: levy_density(params, w), x, np.inf, limit=200)
    return val


def test_density_closed_form_values():
    p = GgpParams(1.0, 0.5, 1.0)
    # w^(-1.5) e^(-w) / Gamma(0.5) at w = 1
    assert levy_density(p, 1.0) == pytest.approx(np.exp(-1.0) / np.sqrt(np.pi), rel=1e-14)
    p0 = GgpParams(1.0, 0.0, 2.0)
    assert levy_density(p0, 0.5) == pytest.approx(np.exp(-1.0) / 0.5, rel=1e-14)


def test_density_rejects_nonpositive_w():
    with pytest.raises(DomainError):
        levy_density(GgpParams(1, 0.5, 1), 0.0)
    with pytest.raises(DomainError):
        log_levy_density(GgpParams(1, 0.5, 1), np.array([1.0, -2.0]))


def test_tail_intensity_known_constants():
    # sigma = 0, tau = 1: rhobar(1) = E1(1)
    assert tail_intensity(GgpParams(1, 0.0, 1.0), 1.0) == pytest.approx(
        0.21938393439552026, rel=1e-12
    )
    # tau = 0, sigma = 0.5: rhobar(1) = 1 / (0.5 Gamma(0.5)) = 2 / sqrt(pi)
    assert tail_intensity(GgpParams(1, 0.5, 0.0), 1.0) == pytest.approx(
        1.1283791670955126, rel=1e-12
    )


@pytest.mark.parametrize("params", PARAM_GRID)
@pytest.mark.parametrize("x", [1e-4, 0.03, 0.7, 2.5, 15.0])
def test_tail_intensity_matches_quadrature(params, x):
    if params.tau == 0.0 and x < 1e-3:
        x = 1e-3  # quad struggles near the non-integrable origin
    expected = quad_tail(params, x)
    assert tail_intensity(params, x) == pytest.approx(expected, rel=1e-7)


def test_total_tail_mass():
    assert total_tail_mass(GgpParams(1, -0.5, 2.0)) == pytest.approx(np.sqrt(2.0) * 2 / 2)
    assert total_tail_mass(GgpParams(1, -0.5, 2.0)) == pytest.approx(2.0**-0.5 / 0.5)
    assert total_tail_mass(GgpParams(1, 0.0, 1.0)) == np.inf
    assert total_tail_mass(GgpParams(1, 0.5, 1.0)) == np.inf


@pytest.mark.parametrize("params", PARAM_GRID)
def test_inverse_round_trip(params):
    x = np.array([1e-5, 1e-3, 0.05, 0.8, 4.0, 30.0])
    y = tail_intensity(params, x)
    keep = y > 0
    back = inv_tail_intensity(params, y[keep])
    np.testing.assert_allclose(back, x[keep], rtol=1e-8)


def test_inverse_closed_form_tau_zero():
    p = GgpParams(1, 0.5, 0.0)
    # rhobar(x) = x^(-1/2) / (0.5 Gamma(0.5)); invert at y = 2/sqrt(pi) -> x = 1
    assert inv_tail_intensity(p, 2.0 / np.sqrt(np.pi)) == pytest.approx(1.0, rel=1e-12)


def test_inverse_not_invertible_beyond_total_mass():
    p = GgpParams(1, -0.5, 1.0)
    with pytest.raises(NotInvertibleError):
        inv_tail_intensity(p, total_tail_mass(p) * 1.01)


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(-2.0, 0.95),
    tau=st.floats(0.05, 20.0),
    x=st.floats(1e-4, 50.0),
    factor=st.floats(1.1, 10.0),
)
def test_tail_intensity_strictly_decreasing(sigma, tau, x, factor):
    # compared in log space: the linear value underflows to 0 past tau*x ~ 745
    p = GgpParams(1.0, sigma, tau)
    hi = log_tail_intensity(p, x)
    lo = log_tail_intensity(p, x * factor)
    assert np.isfinite(hi)
    assert lo < hi


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(-2.0, 0.95), tau=st.floats(0.05, 20.0), x=st.floats(1e-4, 50.0))
def test_log_tail_consistency(sigma, tau, x):
    p = GgpParams(1.0, sigma, tau)
    assert np.exp(log_tail_intensity(p, x)) == pytest.approx(
        tail_intensity(p, x), rel=1e-12
    )


@pytest.mark.parametrize("params", PARAM_GRID)
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 7.0])
def test_laplace_exponent_matches_quadrature(params, t):
    if t == 0.0:
        assert laplace_exponent(params, 0.0) == 0.0
        return
    if params.tau == 0.0 and params.sigma <= 0:
        return
    expected, _ = quad(
        lambda w: -np.expm1(-t * w) * levy_density(params, w), 0.0, np.inf, limit=300
    )
    assert laplace_exponent(params, t) == pytest.approx(expected, rel=1e-7)


def test_laplace_exponent_closed_forms():
    # sigma = 0: log(1 + t/tau)
    assert laplace_exponent(GgpParams(1, 0.0, 2.0), 4.0) == pytest.approx(np.log(3.0))
    # sigma = 0.5, tau = 0: psi(t) = 2 sqrt(t)
    assert laplace_exponent(GgpParams(1, 0.5, 0.0), 9.0) == pytest.approx(6.0)


def test_psi_is_laplace_exponent_bit_for_bit():
    # the hyper block calls _psi on floats; laplace_exponent passes it arrays
    grid = [(s, tau) for s in (-3.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 0.9)
            for tau in (1e-6, 1.0, 1e3)]
    grid += [(s, 0.0) for s in (1e-9, 0.5, 0.9)]
    for s, tau in grid:
        params = GgpParams(1.0, s, tau)
        for t in (0.0, 1e-8, 1.0, 1e4):
            got, want = np.float64(_psi(s, tau, t)), np.float64(laplace_exponent(params, t))
            assert got.tobytes() == want.tobytes(), (s, tau, t)
        for bad in (-1.0, -5e-324, [1.0, -1.0]):
            with pytest.raises(DomainError):
                laplace_exponent(params, bad)


def test_psi_overflows_to_inf_on_plain_floats():
    # tau**sigma leaves a double at tau = 1e-300 for sigma below about -1.03;
    # _psi takes its powers in numpy, so plain Python floats give inf there too
    with np.errstate(over="ignore", invalid="ignore"):
        for s in np.linspace(-5.0, -1.03, 60).tolist():
            params = GgpParams(1.0, s, 1e-300)
            for t in (0.0, 1e-8, 1.0, 1e4):
                got = np.float64(_psi(s, 1e-300, t))
                want = np.float64(_psi(np.float64(s), np.float64(1e-300), np.float64(t)))
                assert got.tobytes() == want.tobytes(), (s, t)
                assert got.tobytes() == np.float64(laplace_exponent(params, t)).tobytes()
                if t > 0.0:
                    assert got == np.inf, (s, t)


def test_laplace_exponent_matches_mpmath():
    # ((t + tau)^sigma - tau^sigma) / sigma cancels as sigma -> 0 from either
    # side: taken as written in doubles it is 0 at |sigma| = 1e-16
    mpmath = pytest.importorskip("mpmath")
    sigmas = [0.0, 1e-3, 0.5, 0.9, -0.5, -3.0]
    sigmas += [sign * s for s in (1e-16, 1e-14, 1e-12, 1e-9) for sign in (1.0, -1.0)]
    grid = [(s, tau) for s in sigmas for tau in (1e-6, 1.0, 1e3)]
    grid += [(s, 0.0) for s in (1e-3, 0.5, 0.9)]
    with mpmath.workdps(50):
        for s, tau in grid:
            for t in (1e-8, 1.0, 1e4):
                sm, taum, tm = mpmath.mpf(s), mpmath.mpf(tau), mpmath.mpf(t)
                if s == 0.0:
                    want = mpmath.log1p(tm / taum)
                else:
                    want = ((tm + taum) ** sm - taum**sm) / sm
                got = laplace_exponent(GgpParams(1.0, s, tau), t)
                assert abs(got - want) <= 4e-15 * want, (s, tau, t)


def test_log_upper_gamma_matches_mpmath():
    # a = -sigma: the recurrence from Gamma(a + 1, x) cancels for small
    # negative a, and E1(x) stands in for Gamma(a, x) down to a = -1e-6
    mpmath = pytest.importorskip("mpmath")
    x = np.geomspace(1e-6, 299.0, 40)
    with mpmath.workdps(40):
        for a in (-0.5, -1e-3, -1e-5, -1.01e-6, -1e-6, -1e-7, -1e-8, -1e-9, -1.01e-10,
                  0.0, 1e-10, 1e-6, 0.5):
            want = np.array([float(mpmath.log(mpmath.gammainc(a, xi))) for xi in x])
            assert np.max(np.abs(_log_upper_gamma(a, x) - want)) <= 1e-5, a


@pytest.mark.parametrize("params", PARAM_GRID)
@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.5])
def test_expected_truncation_mass_matches_quadrature(params, eps):
    expected, err = quad(lambda w: w * levy_density(params, w), 0.0, eps, limit=300)
    got = expected_truncation_mass(params, eps)
    # quad's own error estimate dominates near the origin singularity
    assert abs(got - expected) <= max(1e-8 * expected, 2.0 * err)


def test_truncation_mass_scales_with_alpha():
    lo = expected_truncation_mass(GgpParams(1.0, 0.5, 1.0), 1e-4)
    hi = expected_truncation_mass(GgpParams(10.0, 0.5, 1.0), 1e-4)
    assert hi == pytest.approx(10.0 * lo, rel=1e-12)
