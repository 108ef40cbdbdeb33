"""Derivatives of the utility in the couplings, against independent routes.

The analytic chi', chi'', Laplacian, and Hessian kernel are tied to each
other by the two contraction identities

    N sum_d h(d) = chi''        (shared shift)
    N h(0)       = laplacian    (independent shifts)

and pinned as true second-order Taylor coefficients by an exact
Gauss-Hermite expectation.  Their comparisons with central differences of
the determinant-route utility are computed by the `verify` registry and
judged here (`check_contractions`) and in release criterion 07
(`check_finite_differences`, `check_kernel_vs_stencil`).
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from parity_ising import free_fermion as ff
from parity_ising import perturbation as pt
from parity_ising import verify
from parity_ising.errors import NumericsError


def _chi(g: float, n: int) -> float:
    return ff.ghz_log_overlap_squared(np.full(n, g))


def test_mode_response_closed_form_at_criticality():
    # f_k(1) = (1 - sin(k/2)) / (2 sin(k/2)), from eps(1) = 2 sin(k/2)
    k = ff.allowed_wavenumbers(16)
    s = np.sin(k / 2.0)
    np.testing.assert_allclose(pt.f_k(1.0, k), (1.0 - s) / (2.0 * s), rtol=1e-13)


@pytest.mark.parametrize("g", [0.7, 1.0, 1.4])
def test_kernel_contraction_identities(g):
    n = 24
    kernel_sum, stencil = verify.check_contractions(n, (g,))
    assert kernel_sum.observed == pytest.approx(kernel_sum.expected, rel=1e-8)
    assert stencil.observed == pytest.approx(stencil.expected, rel=1e-4)
    assert n * float(pt.hessian_kernel(g, n).values[0]) == pytest.approx(
        pt.laplacian_u(g, n), rel=1e-8
    )


def test_blocked_pair_sums_match_one_block(monkeypatch):
    # Blocks of three rows, the last one short, against each sum in one block.
    n, g = 22, 1.3
    kernel = pt.hessian_kernel(g, n).values
    laplacian, limit = pt.laplacian_u(g, n), pt.laplacian_density_limit(g)
    monkeypatch.setattr(pt, "PAIR_BLOCK_ENTRIES", 3 * (n // 2))
    atol = 1e-14 * np.abs(kernel).max()
    np.testing.assert_allclose(pt.hessian_kernel(g, n).values, kernel, rtol=0, atol=atol)
    assert pt.laplacian_u(g, n) == pytest.approx(laplacian, rel=1e-14)
    assert pt.laplacian_density_limit(g) == pytest.approx(limit, rel=1e-13)


def test_kernel_matrix_is_symmetric_circulant():
    kernel = pt.hessian_kernel(0.9, 10)
    m = kernel.matrix()
    np.testing.assert_array_equal(m, m.T)
    for shift in range(1, 10):
        np.testing.assert_allclose(np.diag(m, shift), m[0, shift], rtol=0, atol=1e-15)


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
    for build in (
        lambda: pt.exponential_covariance(0.1, 2.0, 7),
        lambda: pt.iid_covariance(0.1, 3),
        lambda: pt.perfect_covariance(0.1, 0),
    ):
        with pytest.raises(ValueError, match="chain length must be even and >= 4"):
            build()


def test_profiles_give_the_dense_matrices_bit_for_bit():
    # Reference: the dense formulas over every site pair.  The correlated draws
    # factor these entries, so a bit that moved here would move every draw.
    for n in (4, 10, 40):
        idx = np.arange(n)
        linear = np.abs(idx[:, None] - idx[None, :]).astype(float)
        ring = np.minimum(linear, n - linear)
        for sigma in (0.04, 0.1, 0.3, 1.0):
            var = sigma * sigma
            np.testing.assert_array_equal(pt.perfect_covariance(sigma, n).entries, var * np.ones((n, n)))
            np.testing.assert_array_equal(pt.iid_covariance(sigma, n).entries, var * np.eye(n))
            for xi in (1e-8, 0.3, 5.0, 1e12):
                for mode, dist in (("linear", linear), ("ring", ring)):
                    np.testing.assert_array_equal(
                        pt.exponential_covariance(sigma, xi, n, mode).entries, var * np.exp(-dist / xi)
                    )


def test_no_response_path_holds_an_n_by_n_array():
    # One 1600 x 1600 float array is 19.5 MiB; the kernel sums bounded blocks
    # of mode pairs and a covariance is its 1600-entry profile.
    n, limit = 1600, 8 * 2**20
    tracemalloc.start()
    try:
        kernel = pt.hessian_kernel(1.3, n)
        _, kernel_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kernel.contract(pt.exponential_covariance(1.0, 5.0, n, "ring"))
        _, contract_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel_peak < limit, kernel_peak
    assert contract_peak < limit, contract_peak


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


def test_one_kernel_contracts_every_covariance():
    n = 20
    kernel = pt.hessian_kernel(1.3, n)
    for cov in (
        pt.perfect_covariance(0.1, n),
        pt.iid_covariance(0.1, n),
        pt.exponential_covariance(0.1, 3.0, n, distance_mode="ring"),
        pt.exponential_covariance(0.1, 3.0, n),  # linear distance: not circulant
    ):
        assert kernel.contract(cov) == pt.second_variation(1.3, n, cov)
        assert cov.wrapped is cov.wrapped  # formed once per covariance
        np.testing.assert_allclose(
            cov.wrapped, [np.trace(np.roll(cov.entries, d, axis=1)) for d in range(n)], rtol=1e-14
        )
    with pytest.raises(ValueError):
        kernel.contract(pt.iid_covariance(0.1, n + 2))


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
    # independent route: the root of the finite-N momentum sum, which at
    # N = 2048 lies 3e-12 from the thermodynamic crossover
    def density(g, n=2048):
        return pt.laplacian_u(g, n) / n

    assert density(0.95) < 0 < density(0.998)
    finite = brentq(density, 0.95, 0.998, xtol=1e-12)
    assert pt.laplacian_crossover_thermodynamic() == pytest.approx(finite, abs=1e-9)


def test_crossover_requires_bracketing():
    with pytest.raises(NumericsError):
        pt.laplacian_crossover_thermodynamic(bracket=(0.5, 0.9))


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
    modes = pt._pair_modes(g, nodes)
    a_plus, a_minus = pt._pair_weights([m[:, None] for m in modes], modes)
    return float(weights @ (a_plus + a_minus) @ weights) / (2.0 * np.pi**2)


@pytest.mark.parametrize("g", [1.0 - 1e-6, 1.0 + 1e-6, 1.0001, 1.001, 1.0015])
def test_laplacian_limit_converges_next_to_criticality(g):
    # The integrand peaks at k ~ |1 - g|, where the mode formulas must keep
    # their digits; two graded rules of different refinement then agree.
    assert pt.laplacian_density_limit(g) == pytest.approx(_finer_laplacian_limit(g), rel=1e-10)


def test_laplacian_quadrature_gate_catches_unresolved_bracket(monkeypatch):
    # Pair weights with a jump across the curve eps(p1) + eps(p2) = 1 defeat
    # the Gauss-Legendre panels: the two orders disagree and the gate fires.
    def discontinuous(modes1, modes2):
        step = np.where(modes1[0] + modes2[0] < 1.0, 1.0, 0.0)
        return step, np.zeros_like(step)

    monkeypatch.setattr(pt, "_pair_weights", discontinuous)
    with pytest.raises(NumericsError):
        pt.laplacian_density_limit(0.8)


def test_invalid_coupling_rejected():
    with pytest.raises(ValueError):
        pt.chi_prime(0.0, 12)
    with pytest.raises(ValueError):
        pt.hessian_kernel(-1.0, 12)
