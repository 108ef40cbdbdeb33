"""Coupling ensembles, reproducible sampling, and Monte Carlo utility averages.

Statistical assertions use frozen seeds and tolerances set several standard
errors wide from the estimator variance, so they are deterministic in
practice.  Exactness claims (sigma = 0, reproducibility across calls) are
asserted with ==.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from parity_ising import disorder as dis
from parity_ising import free_fermion as ff
from parity_ising import parity_game as pg
from parity_ising import perturbation as pt
from parity_ising.errors import NumericsError


def test_ensemble_validation():
    with pytest.raises(ValueError):
        dis.DisorderEnsemble(1.0, 8, "lognormal", 0.1)
    with pytest.raises(ValueError):
        dis.gaussian_iid(1.0, -0.1, 8)
    with pytest.raises(ValueError):
        dis.gaussian_iid(-1.0, 0.1, 8)
    with pytest.raises(ValueError):
        dis.gaussian_iid(1.0, 0.1, 7)
    with pytest.raises(ValueError):
        dis.gaussian_iid(1.0, 0.1, 2)
    with pytest.raises(ValueError):
        dis.DisorderEnsemble(1.0, 8, "gaussian_correlated", 0.1)  # no xi
    with pytest.raises(ValueError):
        dis.gaussian_correlated(1.0, 0.1, 2.0, 8, distance_mode="taxicab")
    with pytest.raises(ValueError):
        # sigma inconsistent with width
        dis.DisorderEnsemble(1.0, 8, "uniform_iid", 0.3, width=0.4)
    with pytest.raises(ValueError):
        # width is a uniform-only field
        dis.DisorderEnsemble(1.0, 8, "gaussian_iid", 0.1, width=0.4)


def test_uniform_factory_sets_matching_sigma():
    ens = dis.uniform_iid(1.0, 0.4, 8)
    assert ens.sigma == pytest.approx(0.4 / (2.0 * math.sqrt(3.0)), rel=1e-15)


def test_sample_streams_reproducible_and_disjoint():
    a = dis.sample_stream(7, 3).standard_normal(5)
    b = dis.sample_stream(7, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = dis.sample_stream(7, 4).standard_normal(5)
    d = dis.sample_stream(8, 3).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        dis.sample_stream(-1, 0)
    with pytest.raises(ValueError):
        dis.sample_stream(0, -1)


def test_sample_couplings_pure_in_seed_and_index():
    ens = dis.gaussian_iid(1.2, 0.05, 8)
    # Index 5 drawn cold must equal index 5 drawn after 0..4: streams are
    # keyed by (seed, index), not by call order.
    cold, redraws_cold = dis.sample_couplings(ens, 42, 5)
    for i in range(5):
        dis.sample_couplings(ens, 42, i)
    warm, redraws_warm = dis.sample_couplings(ens, 42, 5)
    np.testing.assert_array_equal(cold, warm)
    assert redraws_cold == redraws_warm == 0


def test_gaussian_iid_moments():
    ens = dis.gaussian_iid(1.2, 0.05, 8)
    draws = np.stack([dis.sample_couplings(ens, 11, i)[0] for i in range(2000)])
    # 16000 draws: stderr of the mean ~ 4e-4, of the std ~ 2.8e-4.
    assert abs(draws.mean() - 1.2) < 2e-3
    assert abs(draws.std(ddof=1) - 0.05) < 2e-3
    cov = np.cov(draws.T)
    off = cov[~np.eye(8, dtype=bool)]
    assert np.abs(off).max() < 6e-4


def test_perfect_kind_shares_one_shift_per_sample():
    ens = dis.gaussian_perfect(0.9, 0.1, 10)
    firsts = []
    for i in range(50):
        g, _ = dis.sample_couplings(ens, 21, i)
        assert np.ptp(g) == 0.0
        firsts.append(g[0])
    assert np.std(firsts) > 0.05  # the shared shift does vary across samples


def test_uniform_draws_respect_bounds():
    ens = dis.uniform_iid(1.0, 0.4, 8)
    draws = np.stack([dis.sample_couplings(ens, 12, i)[0] for i in range(2000)])
    assert draws.min() >= 0.8
    assert draws.max() <= 1.2
    assert abs(draws.std(ddof=1) - 0.4 / math.sqrt(12.0)) < 5e-3


def test_correlated_draws_match_requested_covariance():
    ens = dis.gaussian_correlated(1.0, 0.1, 2.0, 12)
    draws = np.stack([dis.sample_couplings(ens, 13, i)[0] for i in range(8000)])
    target = dis.covariance_matrix(ens).entries
    # Entries are at most sigma^2 = 1e-2; the covariance estimator's stderr
    # at 8000 samples is ~1.6e-4.
    assert np.abs(np.cov(draws.T) - target).max() < 1e-3


def test_covariance_matrix_per_kind():
    n = 8
    np.testing.assert_allclose(
        dis.covariance_matrix(dis.gaussian_iid(1.0, 0.2, n)).entries,
        0.04 * np.eye(n), atol=0.0,
    )
    np.testing.assert_allclose(
        dis.covariance_matrix(dis.gaussian_perfect(1.0, 0.2, n)).entries,
        np.full((n, n), 0.04), atol=0.0,
    )
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    np.testing.assert_allclose(
        dis.covariance_matrix(dis.gaussian_correlated(1.0, 0.2, 1.5, n)).entries,
        0.04 * np.exp(-d / 1.5), rtol=1e-15,
    )
    ens = dis.uniform_iid(1.0, 0.4, n)
    np.testing.assert_allclose(
        dis.covariance_matrix(ens).entries, ens.sigma**2 * np.eye(n), rtol=1e-15
    )


def test_predicted_shift_ordering_and_limits():
    # Same sigma, g_bar = 0.8 (ferromagnet): all shifts negative, and the
    # correlated prediction interpolates between iid (xi -> 0) and perfect
    # (xi -> inf).
    n, sigma = (16, 0.05)
    iid = dis.predicted_shift(dis.gaussian_iid(0.8, sigma, n))
    perfect = dis.predicted_shift(dis.gaussian_perfect(0.8, sigma, n))
    mid = dis.predicted_shift(dis.gaussian_correlated(0.8, sigma, 3.0, n))
    assert perfect < mid < iid < 0.0
    assert iid == pytest.approx(0.5 * sigma**2 * pt.laplacian_u(0.8, n), rel=1e-12)
    assert perfect == pytest.approx(0.5 * sigma**2 * pt.chi_double_prime(0.8, n), rel=1e-12)


def test_positivity_redraws_counted_and_respected():
    # mean well inside the noise: most raw draws contain a nonpositive entry
    ens = dis.gaussian_iid(0.05, 0.5, 4)
    total_redraws = 0
    for i in range(30):
        g, redraws = dis.sample_couplings(ens, 3, i)
        assert np.all(g > 0.0)
        total_redraws += redraws
    assert total_redraws > 0


def test_redraw_cap_exhaustion_raises():
    # mean 1e-4 standard deviations above zero: a positive 40-site draw has
    # probability ~2^-40, so every one of the MAX_REDRAWS attempts fails
    ens = dis.gaussian_iid(0.001, 10.0, 40)
    with pytest.raises(NumericsError, match="positivity redraws"):
        dis.expected_utility(ens, 1, 0)


@pytest.mark.parametrize("mode, xi", [("ring", 1e12), ("linear", 1e16)])
def test_correlated_factor_falls_back_to_eigh_near_rank_one(mode, xi):
    # xi >> N makes the covariance numerically rank one, where Cholesky fails
    cov = pt.exponential_covariance(0.1, xi, 8, distance_mode=mode).entries
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    factor = dis._correlated_factor(0.1, xi, 8, mode)
    np.testing.assert_allclose(factor @ factor.T, cov, rtol=1e-13, atol=0.0)


def _stream_draw(ensemble, seed, index):
    """Sample `index` drawn from a fresh sample_stream, redraws included."""
    rng = dis.sample_stream(seed, index)
    for attempt in range(dis.MAX_REDRAWS):
        g = dis._draw(ensemble, rng)
        if np.all(g > 0.0):
            return g, attempt
    raise AssertionError("no positive draw")


@pytest.mark.parametrize(
    "ens",
    [
        dis.gaussian_iid(1.2, 0.3, 8),
        dis.gaussian_perfect(1.0, 0.2, 8),
        dis.gaussian_correlated(1.0, 0.3, 2.0, 8),
        dis.uniform_iid(1.0, 0.8, 8),
        dis.gaussian_iid(0.05, 0.5, 4),  # most raw draws need a redraw
    ],
    ids=dis.KINDS + ("redraws",),
)
def test_rekeyed_generator_draws_what_sample_stream_draws(ens):
    draws = dis._RunDraws(ens, 23)
    redraws = 0
    for index in (4, 0, 7, 7, 1, 2**40):
        g, extra = draws.draw(index)
        expected, expected_extra = _stream_draw(ens, 23, index)
        np.testing.assert_array_equal(g, expected)
        assert extra == expected_extra
        redraws += extra
    if ens.mean == 0.05:
        assert redraws > 0
    with pytest.raises(ValueError):
        draws.draw(-1)


@pytest.mark.parametrize(
    "ens",
    [dis.uniform_iid(1.6, 2.0, 40), dis.gaussian_iid(1.3, 0.1, 40), dis.gaussian_correlated(1.6, 0.04, 5.0, 200)],
    ids=("uniform-40", "iid-40", "correlated-200"),
)
def test_run_matches_per_sample_route(ens):
    """One kernel and one re-keyed generator per run give the one-shot route's numbers."""
    _assert_run_matches_per_sample_route(ens, 20 if ens.n_sites == 200 else 150)


def _assert_run_matches_per_sample_route(ens, n_samples):
    result = dis.expected_utility(ens, n_samples, seed=41)
    utilities, redraws, ratios = [], 0, []
    for index in range(n_samples):
        g, extra = dis.sample_couplings(ens, 41, index)
        redraws += extra
        utilities.append(pg.utility_from_log_overlap(ff.ghz_log_overlap_squared(g), ens.n_sites))
        s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
        ratios.append(s[-1] / s[0])
    assert result.n_samples == n_samples
    assert result.n_redraws == redraws
    assert result.mean_utility == pytest.approx(np.mean(utilities), rel=1e-12, abs=0.0)
    assert result.min_singular_ratio == pytest.approx(min(ratios), rel=1e-10)
    assert 0.0 < result.max_orthogonality_defect <= ff.UNITARITY_TOL


_STACK_40 = ff.ChainOverlap(40).stack


@pytest.mark.parametrize("n_samples", [1, _STACK_40 - 1, _STACK_40 + 1], ids=("one", "stack-1", "stack+1"))
def test_run_matches_per_sample_route_at_stack_edges(n_samples):
    """A run shorter than one kernel stack, or one sample into a second, still scores each sample as alone."""
    _assert_run_matches_per_sample_route(dis.uniform_iid(1.6, 2.0, 40), n_samples)


@pytest.mark.parametrize(
    "ens",
    [dis.gaussian_perfect(1.3, 0.1, 40), dis.gaussian_perfect(0.2, 0.15, 8)],
    ids=("perfect-40", "perfect-redraws-8"),
)
def test_uniform_chain_run_matches_per_sample_route(ens):
    """One vectorized scoring gives what sample_couplings -> utility_clean gives, bit for bit."""
    result = dis.expected_utility(ens, 400, seed=17)
    utilities, redraws = [], 0
    for index in range(400):
        g, extra = dis.sample_couplings(ens, 17, index)
        redraws += extra
        utilities.append(pg.utility_clean(float(g[0]), ens.n_sites))
    utilities = np.array(utilities)
    assert result.n_samples == 400
    assert result.n_redraws == redraws
    assert result.mean_utility == float(np.mean(utilities))
    edges, counts = dis._shift_histogram((utilities - result.clean_utility) / ens.n_sites)
    np.testing.assert_array_equal(result.histogram_edges, edges)
    np.testing.assert_array_equal(result.histogram_counts, counts)
    assert result.max_orthogonality_defect is None
    if ens.mean == 0.2:
        assert redraws > 0


def test_run_telemetry_is_one_debug_record(caplog):
    ens = dis.gaussian_iid(0.05, 0.5, 4)
    with caplog.at_level("DEBUG", logger="parity_ising"):
        result = dis.expected_utility(ens, 30, seed=3)
    records = [r for r in caplog.records if r.name == "parity_ising.disorder"]
    assert len(records) == 1
    assert records[0].levelname == "DEBUG"
    message = records[0].getMessage()
    assert f"30 samples, {result.n_redraws} redraws, 0 degenerate" in message
    assert "evaluations/s" in message
    assert " s drawing, " in message and " s scoring), " in message
    assert f", stack {ff.ChainOverlap(4).stack}, " in message
    assert ", 0 by Newton-Schulz (at most 0 steps), 30 by the band route, 0 SVD fallbacks" in message


def test_run_reports_its_overlap_routes(monkeypatch, caplog):
    """Newton-Schulz scores an N = 40 run; with an empty window the band route gives the same moments."""
    ens = dis.uniform_iid(1.6, 2.0, 40)
    with caplog.at_level("DEBUG", logger="parity_ising"):
        newton = dis.expected_utility(ens, 45, seed=8)
        monkeypatch.setattr(ff, "NEWTON_SCHULZ_SITES", (0, 0))
        band = dis.expected_utility(ens, 45, seed=8)
    first, second = (r.getMessage() for r in caplog.records if r.name == "parity_ising.disorder")
    steps = int(first.split("(at most ")[1].split(" ")[0])
    assert 0 < steps <= ff.NEWTON_SCHULZ_STEPS
    assert first.endswith(", 45 by Newton-Schulz (at most %d steps), 0 by the band route, 0 SVD fallbacks" % steps)
    assert second.endswith(", 0 by Newton-Schulz (at most 0 steps), 45 by the band route, 0 SVD fallbacks")
    assert newton.mean_utility == pytest.approx(band.mean_utility, rel=0.0, abs=1e-12)
    assert newton.min_singular_ratio == pytest.approx(band.min_singular_ratio, rel=1e-10)
    assert 0.0 < newton.max_orthogonality_defect <= ff.NEWTON_SCHULZ_TOL * 40 * np.finfo(float).eps
    assert (newton.svd_fallbacks, newton.n_redraws) == (band.svd_fallbacks, band.n_redraws)


def test_run_counts_svd_fallbacks(monkeypatch, caplog):
    """The band route scores a weak-disorder run; a gate no chain passes sends every sample to the SVD."""
    monkeypatch.setattr(ff, "NEWTON_SCHULZ_SITES", (0, 0))
    ens = dis.uniform_iid(1.6, 2.0, 12)
    with caplog.at_level("DEBUG", logger="parity_ising"):
        banded = dis.expected_utility(ens, 40, seed=8)
    assert banded.svd_fallbacks == 0
    assert caplog.records[-1].getMessage().endswith(", 0 SVD fallbacks")
    monkeypatch.setattr(ff, "BAND_GATE", -1.0)
    dense = dis.expected_utility(ens, 40, seed=8)
    assert dense.svd_fallbacks == 40
    assert dense.mean_utility == pytest.approx(banded.mean_utility, rel=1e-12, abs=0.0)
    assert dense.min_singular_ratio == pytest.approx(banded.min_singular_ratio, rel=1e-10)


def test_redraws_and_degenerate_samples_are_counted_apart():
    ens = dis.gaussian_iid(0.05, 0.5, 4)
    result = dis.expected_utility(ens, 30, seed=3)
    assert result.n_redraws == sum(dis.sample_couplings(ens, 3, i)[1] for i in range(30)) > 0
    assert result.n_degenerate == 0
    assert result.n_samples == 30


def test_monte_carlo_import_path_leaves_scipy_solvers_unloaded():
    """Importing the sampler loads no scipy quadrature, root finder, special function or sparse code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dis.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, parity_ising.disorder; "
        "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.sparse') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "ens",
    [
        dis.gaussian_iid(1.6, 0.0, 8),
        dis.gaussian_perfect(1.6, 0.0, 8),
        dis.gaussian_correlated(1.6, 0.0, 2.0, 8),
        dis.uniform_iid(1.6, 0.0, 8),
    ],
    ids=dis.KINDS,
)
def test_sigma_zero_collapses_to_clean_value(ens):
    result = dis.expected_utility(ens, 5, seed=99)
    assert result.mean_utility == pg.utility_clean(1.6, 8)
    assert result.stderr == 0.0
    assert result.n_redraws == result.n_degenerate == 0
    # a uniform chain is scored by the mode product, so no SVD ran
    assert result.max_orthogonality_defect is None
    assert result.min_singular_ratio is None
    assert result.svd_fallbacks is None
    assert result.histogram_counts.sum() == 5
    assert result.histogram_counts[dis.HISTOGRAM_BINS // 2] == 5


def test_monte_carlo_bookkeeping():
    ens = dis.gaussian_iid(1.1, 0.02, 8)
    result = dis.expected_utility(ens, 200, seed=6)
    assert result.n_samples == 200
    assert result.histogram_counts.sum() == 200
    assert result.histogram_edges.shape == (dis.HISTOGRAM_BINS + 1,)
    assert np.all(np.diff(result.histogram_edges) > 0)
    assert result.mean_density == pytest.approx(result.mean_utility / 8, rel=1e-15)
    assert dis.density_stderr(result, 8) == pytest.approx(result.stderr / 8, rel=1e-15)
    assert result.clean_utility == pg.utility_clean(1.1, 8)
    assert result.seed == 6


def test_monte_carlo_is_reproducible():
    ens = dis.gaussian_iid(1.1, 0.02, 8)
    a = dis.expected_utility(ens, 100, seed=7)
    b = dis.expected_utility(ens, 100, seed=7)
    assert a.mean_utility == b.mean_utility
    assert a.stderr == b.stderr
    np.testing.assert_array_equal(a.histogram_counts, b.histogram_counts)
    c = dis.expected_utility(ens, 100, seed=8)
    assert a.mean_utility != c.mean_utility


def test_degenerate_utilities_excluded_from_moments(monkeypatch):
    real = dis._stack_utilities
    calls = {"n": 0}

    def flaky(ensemble, fields, overlap):
        utilities = real(ensemble, fields, overlap)
        index = calls["n"] + np.arange(1, len(fields) + 1)
        calls["n"] += len(fields)
        utilities[index % 3 == 0] = -math.inf
        return utilities

    monkeypatch.setattr(dis, "_stack_utilities", flaky)
    ens = dis.gaussian_iid(1.1, 0.02, 8)
    result = dis.expected_utility(ens, 30, seed=14)
    assert result.n_samples == 20
    assert result.n_degenerate == 10
    assert result.n_redraws == 0
    assert math.isfinite(result.mean_utility)
    assert result.histogram_counts.sum() == 20


def test_all_degenerate_raises(monkeypatch):
    monkeypatch.setattr(
        dis, "_stack_utilities", lambda ensemble, fields, overlap: np.full(len(fields), -math.inf)
    )
    with pytest.raises(NumericsError):
        dis.expected_utility(dis.gaussian_iid(1.1, 0.02, 8), 10, seed=15)


def test_scan_matches_quadratic_response():
    # Shared shift at g_bar = 0.8: the sampled shift E[u] - u(g_bar) must sit
    # on the (sigma^2 / 2) chi'' prediction within Monte Carlo error, and
    # scale quadratically.  At sigma = 0.08 the quartic term contributes
    # ~2 stderr, so the agreement band is 4 stderr.
    ens = dis.gaussian_perfect(0.8, 0.02, 16)
    rows = dis.second_variation_scan(ens, (0.02, 0.04, 0.08), 50_000, seed=314)
    for row in rows:
        assert abs(row.shift - row.prediction) <= 4.0 * row.stderr
    slope = np.polyfit(
        np.log([row.sigma for row in rows]), np.log([abs(row.shift) for row in rows]), 1
    )[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_scan_uniform_kind_converts_sigma_to_width():
    ens = dis.uniform_iid(1.6, 0.1, 8)
    rows = dis.second_variation_scan(ens, (0.01, 0.02), 50, seed=31)
    for row, sigma in zip(rows, (0.01, 0.02)):
        assert row.sigma == sigma
        assert row.prediction == pytest.approx(
            0.5 * sigma**2 * pt.laplacian_u(1.6, 8), rel=1e-12
        )
        assert math.isfinite(row.shift)


def test_histogram_experiment_keys_and_sizing():
    ens = dis.gaussian_iid(1.6, 0.02, 8)
    results = dis.histogram_experiment(ens, [8, 12], 100, seed=5)
    assert sorted(results) == [8, 12]
    for n, result in results.items():
        assert result.clean_utility == pg.utility_clean(1.6, n)
        assert result.histogram_counts.sum() == result.n_samples == 100
    # Different sizes must not share streams
    assert results[8].mean_utility != results[12].mean_utility


def test_correlated_factor_reproduces_after_replace():
    # dataclasses.replace round-trips validation; a replaced ensemble samples
    # identically to a freshly constructed one.
    base = dis.gaussian_correlated(1.0, 0.1, 2.0, 8)
    again = replace(base, sigma=0.2)
    fresh = dis.gaussian_correlated(1.0, 0.2, 2.0, 8)
    np.testing.assert_array_equal(
        dis.sample_couplings(again, 17, 0)[0], dis.sample_couplings(fresh, 17, 0)[0]
    )
