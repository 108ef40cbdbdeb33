"""Top-level acceptance runs: one test per release criterion.

Each test uses frozen seeds, asserts the stated numeric tolerance, and
checks its own runtime budget.  Where a criterion is a cross-route
comparison that the `verify` registry already makes, the test calls the
registry check at the criterion's sizes and judges every returned
(observed, expected) pair against its own tolerance, never the check's
`passed` flag.  `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion; the print() in each test adds the observed numbers to
the captured output.
"""

import math
import time

import numpy as np
import pytest

from parity_ising import asymptotics as asy
from parity_ising import disorder as dis
from parity_ising import parity_game as pg
from parity_ising import perturbation as pt
from parity_ising import verify


def test_criterion_01_protocol_equals_overlap_formula():
    # >= 50 states at N in {4,6,8,10,12}, ground and random in turn,
    # |simulated p - (1 + o+ - o-)/2| <= 1e-10
    started = time.perf_counter()
    results = [r for n in (4, 6, 8, 10, 12) for r in verify.check_game_theorem(n, draws=13)]
    worst = max(abs(r.observed - r.expected) for r in results)
    elapsed = time.perf_counter() - started
    print(f"criterion 01: {len(results)} states, worst gap {worst:.2e} ({elapsed:.1f}s)")
    assert len(results) >= 50
    assert worst <= 1e-10
    assert elapsed < 120.0


def test_criterion_02_determinant_matches_dense_overlap():
    started = time.perf_counter()
    pairs = ((4, 4), (6, 4), (8, 4), (10, 4), (12, 2))
    results = [r for n, draws in pairs for r in verify.check_dense_overlap(n, draws)]
    worst = max(abs(r.observed - r.expected) for r in results)
    elapsed = time.perf_counter() - started
    print(f"criterion 02: {len(results)} overlaps, worst log o+ gap {worst:.2e} ({elapsed:.1f}s)")
    assert len(results) == 18
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_criterion_03_advantage_boundary_location():
    started = time.perf_counter()
    boundary = pg.find_advantage_boundary()
    elapsed = time.perf_counter() - started
    print(f"criterion 03: boundary {boundary:.6f} ({elapsed:.2f}s)")
    assert boundary == pytest.approx(1.506, abs=1e-3)
    assert elapsed < 1.0


def test_criterion_04_strong_advantage_limit():
    value = pg.advantage_density(1e-4)
    print(f"criterion 04: b(1e-4) = {value:.9f}")
    assert value == pytest.approx(0.5 * math.log(2.0), abs=1e-6)


def test_criterion_05_critical_scaling_bands():
    started = time.perf_counter()
    report = asy.critical_scaling(200)
    chi2_ratio = report.chi2_critical_exact / (-(200**2) / 8.0)
    sv_ratio = report.rescaled_sv_critical / (-200 / 16.0)
    elapsed = time.perf_counter() - started
    print(
        f"criterion 05: chi''(1)/( -N^2/8) = {chi2_ratio:.4f}, "
        f"rescaled/( -N/16) = {sv_ratio:.4f} ({elapsed:.2f}s)"
    )
    assert abs(chi2_ratio - 1.0) < 0.10
    assert abs(sv_ratio - 1.0) < 0.10
    assert elapsed < 5.0


def test_criterion_06_laplacian_crossover():
    started = time.perf_counter()
    crossing = pt.laplacian_crossover_thermodynamic()
    elapsed = time.perf_counter() - started
    print(f"criterion 06: crossover g = {crossing:.6f} ({elapsed:.1f}s)")
    assert crossing == pytest.approx(0.9902, abs=5e-4)
    assert elapsed < 30.0


def test_criterion_07_derivatives_against_finite_differences():
    started = time.perf_counter()
    derivatives = verify.check_finite_differences(40, (0.5, 0.8, 1.3, 2.0))
    assert len(derivatives) == 8
    for r in derivatives:
        assert r.observed == pytest.approx(r.expected, rel=1e-4), r.name
    stencil = [r for g in (0.8, 1.3) for r in verify.check_kernel_vs_stencil(12, g)]
    worst = max(abs(r.observed - r.expected) for r in stencil)
    elapsed = time.perf_counter() - started
    print(f"criterion 07: kernel vs stencil Frobenius rel {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-3
    assert elapsed < 180.0


def test_criterion_08_monte_carlo_matches_quadratic_response():
    started = time.perf_counter()
    sigmas = (0.01, 0.02, 0.04)
    ensembles = {
        "perfect": [dis.gaussian_perfect(0.5, sigma, 40) for sigma in sigmas],
        "iid": [dis.gaussian_iid(1.6, sigma, 40) for sigma in sigmas],
    }
    rows = []
    for kind, scan in ensembles.items():
        for position, ens in enumerate(scan):
            result = dis.expected_utility(ens, 20_000, seed=100 + position)
            shift = result.mean_utility - result.clean_utility
            rows.append((kind, ens.sigma, shift, result.stderr, dis.predicted_shift(ens)))
    elapsed = time.perf_counter() - started
    for kind, sigma, shift, stderr, prediction in rows:
        z = (shift - prediction) / stderr
        print(
            f"criterion 08: {kind} sigma={sigma} shift={shift:.3e} "
            f"prediction={prediction:.3e} z={z:+.2f}"
        )
        assert abs(shift - prediction) <= 3.0 * stderr
    print(f"criterion 08: ({elapsed:.1f}s)")
    assert elapsed < 600.0


def test_criterion_09_disorder_induced_advantage():
    started = time.perf_counter()
    n = 40
    clean_b = pg.utility_clean(1.6, n) / n
    assert clean_b == pytest.approx(-0.022, abs=1e-3)
    assert pg.advantage_density(1.6) == pytest.approx(-0.022, abs=1e-3)

    strong = dis.expected_utility(dis.uniform_iid(1.6, 2.0, n), 50_000, seed=20260814)
    e_b = strong.mean_density
    print(
        f"criterion 09: g=1.6 clean b {clean_b:.6f}, E[b] {e_b:.6f} "
        f"+- {dis.density_stderr(strong, n):.6f}"
    )
    assert e_b == pytest.approx(0.001, abs=2e-3)
    assert clean_b < 0.0 < e_b  # noise flips the sign of the advantage

    companion = dis.expected_utility(dis.uniform_iid(1.55, 2.0, n), 50_000, seed=20260815)
    print(
        f"criterion 09: g=1.55 E[b] {companion.mean_density:.6f} "
        f"+- {dis.density_stderr(companion, n):.6f}"
    )
    assert companion.mean_density == pytest.approx(0.015, abs=3e-3)
    elapsed = time.perf_counter() - started
    print(f"criterion 09: ({elapsed:.1f}s)")
    assert elapsed < 300.0


def test_criterion_10_correlated_response_interpolates():
    started = time.perf_counter()
    n = 40
    g_grid = [g for g in np.linspace(0.5, 2.0, 16) if abs(g - 1.0) >= 0.05]
    log_ratios = np.linspace(-3.0, 3.0, 13)
    assert len(g_grid) == 15

    for g in g_grid:
        iid_limit = pt.laplacian_u(g, n) / (2.0 * n)
        perfect_limit = pt.chi_double_prime(g, n) / (2.0 * n)
        low, high = sorted((iid_limit, perfect_limit))
        values = []
        for log_ratio in log_ratios:
            xi = n * math.exp(log_ratio)
            report = pt.second_variation(g, n, pt.exponential_covariance(1.0, xi, n))
            values.append(report.rescaled)
            assert low - 1e-12 <= report.rescaled <= high + 1e-12
        steps = np.diff(values)
        assert np.all(steps >= -1e-13) or np.all(steps <= 1e-13)

        scale = max(abs(iid_limit), abs(perfect_limit))
        at_short = pt.second_variation(
            g, n, pt.exponential_covariance(1.0, n * math.exp(-6.0), n)
        ).rescaled
        at_long = pt.second_variation(
            g, n, pt.exponential_covariance(1.0, n * math.exp(6.0), n)
        ).rescaled
        assert abs(at_short - iid_limit) <= 1e-3 * scale
        assert abs(at_long - perfect_limit) <= 1e-3 * scale
    elapsed = time.perf_counter() - started
    print(f"criterion 10: 15 couplings x 13 correlation lengths, monotone ({elapsed:.1f}s)")
    assert elapsed < 600.0
