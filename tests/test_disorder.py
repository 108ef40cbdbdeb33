"""Coupling ensembles, reproducible sampling, and Monte Carlo utility averages.

Statistical assertions use frozen seeds and tolerances set several standard
errors wide from the estimator variance, so they are deterministic in
practice.  Exactness claims (sigma = 0, reproducibility across calls) are
asserted with ==.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from parity_ising import asymptotics as asy
from parity_ising import cli
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
        dis.gaussian_iid(1.0, 0.1, 8.0)  # a float length fails later, deep in numpy
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
    with pytest.raises(ValueError):
        # xi and the distance mode belong to the correlated kind
        dis.DisorderEnsemble(1.6, 40, "gaussian_iid", 0.1, xi=5.0, distance_mode="ring")
    with pytest.raises(ValueError):
        replace(dis.gaussian_iid(1.6, 0.1, 40), xi=3.0)
    with pytest.raises(ValueError):
        replace(dis.uniform_iid(1.6, 2.0, 40), distance_mode="ring")


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
    # each is one 64-bit half of the Philox key
    dis.sample_stream(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError, match="below 2"):
        dis.sample_stream(2**64, 0)


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
    utilities, redraws, ratios, bounds = [], 0, [], []
    for index in range(n_samples):
        g, extra = dis.sample_couplings(ens, 41, index)
        redraws += extra
        utilities.append(pg.utility_from_log_overlap(ff.ghz_log_overlap_squared(g), ens.n_sites))
        s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
        ratios.append(s[-1] / s[0])
        bounds.append(ff._singular_ratio_bound(g[None])[0])
        assert 0.0 < bounds[-1] <= ratios[-1] * (1.0 + 1e-12)  # a proven lower bound, from the fields alone
    assert result.n_samples == n_samples
    assert result.n_redraws == redraws
    assert result.mean_utility == pytest.approx(np.mean(utilities), rel=1e-12, abs=0.0)
    assert result.singular_ratio_bound == min(bounds)
    assert min(ratios) / 5.0 <= result.singular_ratio_bound <= min(ratios) * (1.0 + 1e-12)
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
    assert message.startswith(f"expected_utility gaussian_iid N=4: 30 samples, {result.n_redraws} redraws, ")
    assert "evaluations/s" in message
    assert " s drawing, " in message and " s scoring), " in message
    assert f", stack {ff.ChainOverlap(4).stack}, " in message
    steps = int(message.split("(at most ")[1].split(" ")[0])
    assert 0 < steps <= ff.NEWTON_SCHULZ_STEPS
    assert message.endswith(", 30 by Newton-Schulz (at most %d steps), 0 by the band route, 0 SVD fallbacks" % steps)


def test_run_reports_its_overlap_routes(band_route, caplog):
    """Newton-Schulz scores an N = 40 run; handed every chain, the band route gives the same moments."""
    ens = dis.uniform_iid(1.6, 2.0, 40)
    with caplog.at_level("DEBUG", logger="parity_ising"):
        newton = dis.expected_utility(ens, 45, seed=8)
        with band_route():
            band = dis.expected_utility(ens, 45, seed=8)
    first, second = (r.getMessage() for r in caplog.records if r.name == "parity_ising.disorder")
    steps = int(first.split("(at most ")[1].split(" ")[0])
    assert 0 < steps <= ff.NEWTON_SCHULZ_STEPS
    assert first.endswith(", 45 by Newton-Schulz (at most %d steps), 0 by the band route, 0 SVD fallbacks" % steps)
    assert second.endswith(", 0 by Newton-Schulz (at most 0 steps), 45 by the band route, 0 SVD fallbacks")
    assert newton.mean_utility == pytest.approx(band.mean_utility, rel=0.0, abs=1e-12)
    assert newton.singular_ratio_bound == band.singular_ratio_bound
    assert 0.0 < newton.max_orthogonality_defect <= ff.NEWTON_SCHULZ_TOL * 40 * np.finfo(float).eps
    assert (newton.svd_fallbacks, newton.n_redraws) == (band.svd_fallbacks, band.n_redraws)


def test_run_counts_svd_fallbacks(monkeypatch, band_only, caplog):
    """The band route scores a weak-disorder run; a gate no chain passes sends every sample to the SVD."""
    ens = dis.uniform_iid(1.6, 2.0, 12)
    with caplog.at_level("DEBUG", logger="parity_ising"):
        banded = dis.expected_utility(ens, 40, seed=8)
        assert caplog.records[-1].getMessage().endswith(", 40 by the band route, 0 SVD fallbacks")
        monkeypatch.setattr(ff, "BAND_GATE", -1.0)
        dense = dis.expected_utility(ens, 40, seed=8)
        # each sample counted once, by the route that gave its polar factor
        assert caplog.records[-1].getMessage().endswith(", 0 by the band route, 40 SVD fallbacks")
    assert (banded.svd_fallbacks, dense.svd_fallbacks) == (0, 40)
    assert dense.mean_utility == pytest.approx(banded.mean_utility, rel=1e-12, abs=0.0)
    assert dense.singular_ratio_bound == banded.singular_ratio_bound


def test_run_ratio_bound_is_the_closed_form_over_its_draws(monkeypatch, band_route):
    """Newton-Schulz, the band route and the SVD report one bound: the least closed-form bound over the run's draws."""
    ens = dis.uniform_iid(1.6, 2.0, 40)
    draws = np.array([dis.sample_couplings(ens, 8, i)[0] for i in range(45)])
    monkeypatch.setattr(dis, "STACK_ENTRIES", 400)  # ten draws at a time, so the run takes the least over five
    newton = dis.expected_utility(ens, 45, seed=8)
    with band_route():
        band = dis.expected_utility(ens, 45, seed=8)
        monkeypatch.setattr(ff, "BAND_GATE", -1.0)
        dense = dis.expected_utility(ens, 45, seed=8)
    assert (newton.svd_fallbacks, band.svd_fallbacks, dense.svd_fallbacks) == (0, 0, 45)
    bound = float(ff._singular_ratio_bound(draws).min())
    assert newton.singular_ratio_bound == band.singular_ratio_bound == dense.singular_ratio_bound == bound


def test_redraws_are_counted():
    ens = dis.gaussian_iid(0.05, 0.5, 4)
    result = dis.expected_utility(ens, 30, seed=3)
    assert result.n_redraws == sum(dis.sample_couplings(ens, 3, i)[1] for i in range(30)) > 0
    assert result.n_samples == 30


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
    assert result.n_redraws == 0
    # a uniform chain is scored by the mode product, so no SVD ran
    assert result.max_orthogonality_defect is None
    assert result.singular_ratio_bound is None
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


def test_nan_overlap_fails_the_run_and_writes_nothing(monkeypatch, tmp_path):
    """A NaN log|det| for one sample of each kernel stack fails the whole run; no sample is dropped."""
    slogdet = np.linalg.slogdet

    def third_nan(a):
        sign, logabs = slogdet(a)
        logabs[2] = np.nan
        return sign, logabs

    monkeypatch.setattr(np.linalg, "slogdet", third_nan)
    with pytest.raises(NumericsError, match="zero or not finite"):
        dis.expected_utility(dis.uniform_iid(1.6, 2.0, 40), 40, seed=7)
    out = tmp_path / "mc.json"
    argv = ["montecarlo", "--kind", "uniform_iid", "--width", "2", "--n", "40", "--g", "1.6",
            "--samples", "40", "--seed", "7", "--out", str(out)]
    assert cli.main(argv) == 3
    assert list(tmp_path.iterdir()) == []


def test_scan_matches_quadratic_response():
    # Shared shift at g_bar = 0.8: the sampled shift E[u] - u(g_bar) must sit
    # on the (sigma^2 / 2) chi'' prediction within Monte Carlo error, and
    # scale quadratically.  At sigma = 0.08 the quartic term contributes
    # ~2 stderr, so the agreement band is 4 stderr.
    sigmas = (0.02, 0.04, 0.08)
    shifts = []
    for position, sigma in enumerate(sigmas):
        ens = dis.gaussian_perfect(0.8, sigma, 16)
        result = dis.expected_utility(ens, 50_000, seed=314 + position)
        shifts.append(result.mean_utility - result.clean_utility)
        assert abs(shifts[-1] - dis.predicted_shift(ens)) <= 4.0 * result.stderr
    slope = np.polyfit(np.log(sigmas), np.log(np.abs(shifts)), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_histogram_experiment_keys_and_sizing():
    ens = dis.gaussian_iid(1.6, 0.02, 8)
    results = dis.histogram_experiment(ens, [8, 12], 100, seed=5)
    assert sorted(results) == [8, 12]
    for n, result in results.items():
        assert result.clean_utility == pg.utility_clean(1.6, n)
        assert result.histogram_counts.sum() == result.n_samples == 100
    # Different sizes must not share streams
    assert results[8].mean_utility != results[12].mean_utility
    # a repeated N would keep only its last run under its key
    with pytest.raises(ValueError, match="must not repeat"):
        dis.histogram_experiment(ens, (8, 8), 10, seed=5)


def test_correlated_factor_reproduces_after_replace():
    # dataclasses.replace round-trips validation; a replaced ensemble samples
    # identically to a freshly constructed one.
    base = dis.gaussian_correlated(1.0, 0.1, 2.0, 8)
    again = replace(base, sigma=0.2)
    fresh = dis.gaussian_correlated(1.0, 0.2, 2.0, 8)
    np.testing.assert_array_equal(
        dis.sample_couplings(again, 17, 0)[0], dis.sample_couplings(fresh, 17, 0)[0]
    )


def _messages(*calls):
    """The distinct ValueError messages of the calls, each of which must raise one."""
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as error:
            call()
        messages.add(str(error.value))
    return messages


@pytest.mark.parametrize("sigma", [-0.1, -math.inf, math.inf, math.nan])
def test_sigma_rule_has_one_message(sigma):
    assert len(_messages(
        lambda: dis.gaussian_iid(1.2, sigma, 8),
        lambda: dis.gaussian_correlated(1.2, sigma, 2.0, 8),
        lambda: dis.DisorderEnsemble(1.2, 8, "uniform_iid", sigma, width=0.2),
        lambda: pt.iid_covariance(sigma, 8),
        lambda: pt.perfect_covariance(sigma, 8),
        lambda: pt.exponential_covariance(sigma, 2.0, 8),
    )) == 1


@pytest.mark.parametrize("xi", [0.0, -1.0, math.inf, math.nan])
def test_correlation_length_rule_has_one_message(xi):
    assert len(_messages(
        lambda: dis.gaussian_correlated(1.2, 0.1, xi, 8),
        lambda: dis.gaussian_correlated(1.2, 0.1, xi, 8, distance_mode="ring"),
        lambda: pt.exponential_covariance(0.1, xi, 8),
    )) == 1


@pytest.mark.parametrize("mode", ["taxicab", "Ring", ""])
def test_distance_mode_rule_has_one_message(mode):
    assert len(_messages(
        lambda: dis.gaussian_correlated(1.2, 0.1, 2.0, 8, distance_mode=mode),
        lambda: pt.exponential_covariance(0.1, 2.0, 8, distance_mode=mode),
    )) == 1


@pytest.mark.parametrize("n", [7, 5, 2, 0])
def test_chain_length_rule_has_one_message(n):
    assert len(_messages(
        lambda: dis.gaussian_iid(1.2, 0.1, n),
        lambda: dis.uniform_iid(1.2, 0.3, n),
        lambda: ff.ChainOverlap(n),
        lambda: ff.as_couplings(np.ones(n)),
        lambda: ff.allowed_wavenumbers(n),
        lambda: asy.s1_exact(n),
    )) == 1


@pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_coupling_rule_has_one_message(g):
    kernel = ff.ChainOverlap(8)
    one_bad_site = np.full((2, 8), 1.2)
    one_bad_site[1, 3] = g
    assert len(_messages(
        lambda: dis.gaussian_iid(g, 0.1, 8),
        lambda: pg.advantage_density(g),
        lambda: pt.laplacian_density_limit(g),
        lambda: kernel(np.full(8, g)),
        lambda: kernel(one_bad_site),
        lambda: pg.utility_clean(g, 8),
        lambda: pt.chi_prime(g, 8),
        lambda: asy.dchi_dg_thermodynamic(g),
    )) == 1
    assert kernel.evaluations == 0


def test_kind_parameters_are_required_and_exclusive():
    """Each kind needs the parameters the table gives it and keeps the rest at their defaults."""
    sigma = 0.4 / dis.UNIFORM_WIDTH_PER_SIGMA
    required = {"gaussian_correlated": {"xi": 2.0}, "uniform_iid": {"width": 0.4}}
    for kind, takes in dis.KIND_PARAMETERS.items():
        given = required.get(kind, {})
        assert dis.DisorderEnsemble(1.2, 8, kind, sigma, **given).kind == kind
        for name, value in (("xi", 2.0), ("distance_mode", "ring"), ("width", 0.4)):
            if name not in takes:
                with pytest.raises(ValueError, match=f"{name} does not apply"):
                    dis.DisorderEnsemble(1.2, 8, kind, sigma, **given, **{name: value})
    for kind, name in (("gaussian_correlated", "xi"), ("uniform_iid", "width")):
        with pytest.raises(ValueError, match=f"needs {name}"):
            dis.DisorderEnsemble(1.2, 8, kind, 0.1)
    for width in (-0.4, math.inf, math.nan, 0.5):
        with pytest.raises(ValueError, match="width"):
            dis.DisorderEnsemble(1.2, 8, "uniform_iid", 0.4 / dis.UNIFORM_WIDTH_PER_SIGMA, width=width)
