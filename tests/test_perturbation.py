"""Derivatives of the utility in the couplings, against independent stencils.

The analytic chi', chi'', Laplacian, and Hessian kernel are all checked
against central differences of the determinant-route utility, and against
each other through the two contraction identities

    N sum_d h(d) = chi''        (shared shift)
    N h(0)       = laplacian    (independent shifts)

plus an exact Gauss-Hermite expectation that pins the quadratic response
as the true second-order Taylor coefficient.  The kernel and the Laplacian
sum the same pair weights, so the Laplacian is also held to a one-site
central difference N d^2 u / dg_0^2.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from parity_ising import free_fermion as ff
from parity_ising import oracle
from parity_ising import parity_game as pg
from parity_ising import perturbation as pt
from parity_ising.errors import NumericsError


def _chi(g: float, n: int) -> float:
    return ff.ghz_log_overlap_squared(np.full(n, g))


def test_mode_response_closed_form_at_criticality():
    # f_k(1) = (1 - sin(k/2)) / (2 sin(k/2)), from eps(1) = 2 sin(k/2)
    k = ff.allowed_wavenumbers(16)
    s = np.sin(k / 2.0)
    np.testing.assert_allclose(pt.f_k(1.0, k), (1.0 - s) / (2.0 * s), rtol=1e-13)


def test_chi_derivatives_against_finite_differences():
    n = 40
    for g in (0.5, 1.3):
        h = 1e-4
        fd1 = (_chi(g + h, n) - _chi(g - h, n)) / (2 * h)
        assert pt.chi_prime(g, n) == pytest.approx(fd1, rel=1e-4)
        h = 1e-3
        fd2 = (_chi(g + h, n) - 2 * _chi(g, n) + _chi(g - h, n)) / h**2
        assert pt.chi_double_prime(g, n) == pytest.approx(fd2, rel=1e-4)


def test_first_variation_is_mean_times_chi_prime():
    rng = np.random.default_rng(3)
    delta = rng.normal(0, 0.01, 20)
    value = pt.first_variation(1.1, 20, delta)
    assert value == pytest.approx(float(np.mean(delta)) * pt.chi_prime(1.1, 20), rel=1e-14)
    # and it is the actual first-order response to a uniform shift
    h = 1e-5
    assert pt.first_variation(1.1, 20, np.full(20, h)) == pytest.approx(
        _chi(1.1 + h, 20) - _chi(1.1, 20), abs=5e-9
    )


@pytest.mark.parametrize("g", [0.7, 1.0, 1.4])
def test_kernel_contraction_identities(g):
    n = 24
    kernel = pt.hessian_kernel(g, n)
    assert n * float(np.sum(kernel.values)) == pytest.approx(
        pt.chi_double_prime(g, n), rel=1e-8
    )
    assert n * float(kernel.values[0]) == pytest.approx(pt.laplacian_u(g, n), rel=1e-8)
    h, e0 = 1e-3, np.eye(n)[0]
    u = [pg.utility_from_log_overlap(ff.ghz_log_overlap_squared(g + side * h * e0), n)
         for side in (1.0, 0.0, -1.0)]
    stencil = n * (u[0] - 2.0 * u[1] + u[2]) / h**2
    assert pt.laplacian_u(g, n) == pytest.approx(stencil, rel=1e-4)


def test_kernel_matrix_is_symmetric_circulant():
    kernel = pt.hessian_kernel(0.9, 10)
    m = kernel.matrix()
    np.testing.assert_array_equal(m, m.T)
    for shift in range(1, 10):
        np.testing.assert_allclose(np.diag(m, shift), m[0, shift], rtol=0, atol=1e-15)


def test_kernel_matches_numerical_mixed_partials():
    """h(i - j) must be the actual Hessian of the utility at a uniform point."""
    n = 12

    def utility(g_vec):
        return pg.utility_from_log_overlap(ff.ghz_log_overlap_squared(g_vec), n)

    for g_bar in (0.8, 1.3):
        numeric = oracle.numerical_hessian(utility, np.full(n, g_bar), step=1e-3)
        analytic = pt.hessian_kernel(g_bar, n).matrix()
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-3


def test_covariance_constructors():
    perfect = pt.perfect_covariance(0.1, 6)
    np.testing.assert_allclose(perfect.entries, 0.01 * np.ones((6, 6)), rtol=1e-15)
    iid = pt.iid_covariance(0.2, 6)
    np.testing.assert_allclose(iid.entries, 0.04 * np.eye(6), rtol=1e-15)
    expo = pt.exponential_covariance(0.1, 2.0, 6)
    assert expo.entries[0, 0] == pytest.approx(0.01)
    assert expo.entries[0, 3] == pytest.approx(0.01 * math.exp(-1.5))
    assert expo.entries[0, 5] == pytest.approx(0.01 * math.exp(-2.5))
    ring = pt.exponential_covariance(0.1, 2.0, 6, distance_mode="ring")
    assert ring.entries[0, 5] == pytest.approx(0.01 * math.exp(-0.5))
    with pytest.raises(ValueError):
        pt.exponential_covariance(0.1, -1.0, 6)
    with pytest.raises(ValueError):
        pt.iid_covariance(-0.1, 6)


def test_exponential_covariance_limits_recover_iid_and_perfect():
    n = 8
    tiny = pt.exponential_covariance(0.3, 1e-8, n)
    np.testing.assert_allclose(tiny.entries, 0.09 * np.eye(n), atol=1e-20)
    huge = pt.exponential_covariance(0.3, 1e12, n)
    np.testing.assert_allclose(huge.entries, 0.09 * np.ones((n, n)), rtol=1e-10)


def test_second_variation_perfect_and_iid_routes():
    n, sigma = 30, 0.03
    for g in (0.6, 1.5):
        perfect = pt.second_variation(g, n, pt.perfect_covariance(sigma, n))
        assert perfect.value == pytest.approx(
            0.5 * sigma**2 * pt.chi_double_prime(g, n), rel=1e-10
        )
        assert perfect.rescaled == pytest.approx(
            pt.chi_double_prime(g, n) / (2 * n), rel=1e-10
        )
        iid = pt.second_variation(g, n, pt.iid_covariance(sigma, n))
        assert iid.value == pytest.approx(0.5 * sigma**2 * pt.laplacian_u(g, n), rel=1e-10)


def test_second_variation_matches_direct_contraction():
    # Reference: (1/2) sum_{jl} C_{jl} h((j - l) mod N) over the full matrices,
    # for covariances that are not circulant.
    n, sigma = 30, 0.03
    for g in (0.6, 1.5):
        matrix = pt.hessian_kernel(g, n).matrix()
        for mode in ("linear", "ring"):
            cov = pt.exponential_covariance(sigma, 4.0, n, distance_mode=mode)
            direct = 0.5 * float(np.sum(cov.entries * matrix))
            assert pt.second_variation(g, n, cov).value == pytest.approx(direct, rel=1e-12)


def test_second_variation_zero_sigma():
    report = pt.second_variation(1.2, 10, pt.iid_covariance(0.0, 10))
    assert report.value == 0.0
    assert math.isnan(report.rescaled)


def test_quadratic_response_is_the_taylor_coefficient():
    """E[chi(g + sigma Z)] - chi - sigma^2 chi''/2 must shrink like sigma^4.

    The expectation over the shared Gaussian shift is evaluated by 48-node
    Gauss-Hermite quadrature (exact for this analytic integrand far beyond
    the orders probed), so the residual is pure Taylor remainder: the
    log-log slope must exceed 2.5, and for this even kind it is close to 4.
    """
    n, g = 16, 0.8
    nodes, weights = np.polynomial.hermite_e.hermegauss(48)
    weights = weights / math.sqrt(2.0 * math.pi)
    base = _chi(g, n)
    curvature = pt.chi_double_prime(g, n)
    sigmas = np.array([0.01, 0.02, 0.04])
    residuals = []
    for sigma in sigmas:
        mean = sum(w * _chi(g + sigma * x, n) for x, w in zip(nodes, weights))
        residuals.append(abs(mean - base - 0.5 * sigma**2 * curvature))
    slope = np.polyfit(np.log(sigmas), np.log(residuals), 1)[0]
    assert slope > 2.5
    assert slope == pytest.approx(4.0, abs=0.5)


def test_laplacian_thermodynamic_limit_matches_finite_sums():
    for g in (0.8, 0.95, 0.99, 1.2):
        limit = pt.laplacian_density_limit(g)
        assert pt.laplacian_u(g, 4096) / 4096 == pytest.approx(limit, rel=1e-8)


def test_laplacian_crossover_band_and_finite_size_agreement():
    crossover = pt.laplacian_crossover_thermodynamic()
    assert abs(crossover - 0.9902) < 5e-4

    # independent route: the root of the finite-N momentum sum instead
    def density(g, n=4096):
        return pt.laplacian_u(g, n) / n

    assert density(0.95) < 0 < density(0.998)
    finite = brentq(density, 0.95, 0.998, xtol=1e-12)
    assert crossover == pytest.approx(finite, abs=1e-6)


def _finer_laplacian_limit(g, order=48, ratio=2.0):
    """The Laplacian density on twice as many nodes per panel, graded by 2, not 4."""
    edges = [0.0]
    scale = abs(1.0 - g)
    while scale < np.pi:
        edges.append(scale)
        scale *= ratio
    edges = np.array(edges + [np.pi])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    a_plus, a_minus = pt._pair_weights(nodes[:, None], nodes[None, :], g)
    return float(weights @ (a_plus + a_minus) @ weights) / (2.0 * np.pi**2)


@pytest.mark.parametrize("g", [1.0 - 1e-6, 1.0 + 1e-6, 1.0001, 1.001, 1.0015])
def test_laplacian_limit_converges_next_to_criticality(g):
    # The integrand peaks at k ~ |1 - g|, where the mode formulas must keep
    # their digits; two graded rules of different refinement then agree.
    assert pt.laplacian_density_limit(g) == pytest.approx(_finer_laplacian_limit(g), rel=1e-10)


def test_laplacian_quadrature_gate_catches_unresolved_bracket(monkeypatch):
    # Pair weights with a jump across the diagonal p1 + p2 = 1 defeat the
    # Gauss-Legendre panels: the two orders disagree and the gate fires.
    def discontinuous(p1, p2, g):
        step = np.where(p1 + p2 < 1.0, 1.0, 0.0)
        return step, np.zeros_like(step)

    monkeypatch.setattr(pt, "_pair_weights", discontinuous)
    with pytest.raises(NumericsError):
        pt.laplacian_density_limit(0.8)


def test_invalid_coupling_rejected():
    with pytest.raises(ValueError):
        pt.chi_prime(0.0, 12)
    with pytest.raises(ValueError):
        pt.hessian_kernel(-1.0, 12)
