"""Random-coupling ensembles and Monte Carlo averaging of the game utility.

An ensemble fixes the distribution of the coupling vector g = g_bar + delta_g
with E[delta_g] = 0.  Four kinds are supported, named by their covariance:

    gaussian_iid         C = sigma^2 I
    gaussian_perfect     C = sigma^2 (all ones), a single shared shift
    gaussian_correlated  C_jl = sigma^2 exp(-d(j,l)/xi)
    uniform_iid          independent uniform on [g_bar - W/2, g_bar + W/2],
                         reported with sigma = W / (2 sqrt 3)

Sampling is reproducible and order-independent: sample number `index` of a
run with seed `seed` is drawn from its own counter-based stream keyed by
(seed, index), so a run's values do not depend on the order or stacking of
its samples (tested against the one-sample-at-a-time route).
A run re-keys one Philox generator per sample instead of building a new one,
and scores its samples in stacks with one ``free_fermion.ChainOverlap``;
both give exactly what the one-shot ``sample_couplings`` and
``ghz_log_overlap_squared`` give (the README gives what a sample costs).  Where
every draw is a uniform chain (the shared shift, or sigma = 0) the run
scores all its samples with one vectorized ``utility_clean`` call instead.

Couplings must stay positive.  A draw with a nonpositive field is redrawn
from the same per-sample stream, and every redraw is counted; there is no
other policy.  In the parameter regimes of interest a violation is many
standard deviations out, so the truncation bias is far below statistical
resolution.
A run uses every sample: for positive fields the GHZ overlap is positive, and
the kernel raises where it is not.  It reports its positivity redraws, the
worst orthogonality defect and the number of dense-SVD fallbacks of its overlap
kernel, and a lower bound on the smallest singular-value ratio of its draws.
"""

import logging
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericsError
from .free_fermion import STACK_ENTRIES, ChainOverlap, _check_couplings, _check_length
from .parity_game import utility_clean, utility_from_log_overlap
from .perturbation import (
    CovarianceMatrix,
    _check_disorder,
    exponential_covariance,
    iid_covariance,
    perfect_covariance,
    second_variation,
)

# The parameters each kind takes besides mean, n_sites and sigma; a kind leaves
# every other one at its default.
KIND_PARAMETERS = {
    "gaussian_iid": (),
    "gaussian_perfect": (),
    "gaussian_correlated": ("xi", "distance_mode"),
    "uniform_iid": ("width",),
}
KINDS = tuple(KIND_PARAMETERS)
# Uniform noise of width W has standard deviation W / UNIFORM_WIDTH_PER_SIGMA.
UNIFORM_WIDTH_PER_SIGMA = 2.0 * math.sqrt(3.0)

HISTOGRAM_BINS = 101
HISTOGRAM_SPAN_STDS = 5.0
MAX_REDRAWS = 1000
COVARIANCE_EIGENVALUE_FLOOR = -1e-10

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DisorderEnsemble:
    """Distribution of the coupling vector; immutable and hashable."""

    mean: float
    n_sites: int
    kind: str
    sigma: float
    xi: float | None = None
    distance_mode: str = "linear"
    width: float | None = None

    def __post_init__(self):
        if self.kind not in KIND_PARAMETERS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        _check_couplings(self.mean)
        _check_length(self.n_sites)
        takes = KIND_PARAMETERS[self.kind]
        for name in ("xi", "distance_mode", "width"):
            value = getattr(self, name)
            if name not in takes and value != getattr(DisorderEnsemble, name):
                raise ValueError(f"{name} does not apply to kind {self.kind}")
            if name in takes and value is None:
                raise ValueError(f"kind {self.kind} needs {name}")
        _check_disorder(self.sigma, self.xi, self.distance_mode)
        if "width" in takes and not (
            math.isfinite(self.width)
            and self.width >= 0.0
            and abs(self.sigma - self.width / UNIFORM_WIDTH_PER_SIGMA) <= 1e-12 * (1.0 + self.width)
        ):
            raise ValueError("width must be finite, nonnegative and equal to 2 sqrt(3) sigma")


def gaussian_iid(mean: float, sigma: float, n_sites: int) -> DisorderEnsemble:
    return DisorderEnsemble(mean, n_sites, "gaussian_iid", sigma)


def gaussian_perfect(mean: float, sigma: float, n_sites: int) -> DisorderEnsemble:
    return DisorderEnsemble(mean, n_sites, "gaussian_perfect", sigma)


def gaussian_correlated(
    mean: float, sigma: float, xi: float, n_sites: int, distance_mode: str = "linear"
) -> DisorderEnsemble:
    return DisorderEnsemble(
        mean, n_sites, "gaussian_correlated", sigma, xi=xi, distance_mode=distance_mode
    )


def uniform_iid(mean: float, width: float, n_sites: int) -> DisorderEnsemble:
    return DisorderEnsemble(mean, n_sites, "uniform_iid", width / UNIFORM_WIDTH_PER_SIGMA, width=width)


def covariance_matrix(ensemble: DisorderEnsemble) -> CovarianceMatrix:
    """The coupling covariance implied by the ensemble (exact for all kinds)."""
    if ensemble.kind == "gaussian_perfect":
        return perfect_covariance(ensemble.sigma, ensemble.n_sites)
    if ensemble.kind == "gaussian_correlated":
        return exponential_covariance(
            ensemble.sigma, ensemble.xi, ensemble.n_sites, distance_mode=ensemble.distance_mode
        )
    return iid_covariance(ensemble.sigma, ensemble.n_sites)


def predicted_shift(ensemble: DisorderEnsemble) -> float:
    """Quadratic-response prediction for E[u] - u(g_bar)."""
    return second_variation(ensemble.mean, ensemble.n_sites, covariance_matrix(ensemble)).value


@lru_cache(maxsize=8)
def _correlated_factor(sigma: float, xi: float, n_sites: int, distance_mode: str) -> np.ndarray:
    """A matrix L with L L^T equal to the exponential covariance.

    Cholesky when the matrix is numerically positive definite; otherwise an
    eigenvalue factorization with small negative eigenvalues (roundoff from
    a positive-semidefinite limit) truncated to zero.  Eigenvalues below the
    floor mean the requested covariance is genuinely invalid.
    """
    cov = exponential_covariance(sigma, xi, n_sites, distance_mode=distance_mode).entries
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(cov)
        if evals.min() < COVARIANCE_EIGENVALUE_FLOOR * max(1.0, sigma**2):
            raise NumericsError(
                f"covariance not positive semidefinite: min eigenvalue {evals.min():.3e}"
            ) from None
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    factor.setflags(write=False)
    return factor


def _check_key(seed: int, index: int) -> None:
    """Raise ValueError unless seed and index each fit their 64-bit half of a Philox key."""
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError("seed and sample index must be nonnegative and below 2**64")


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The dedicated generator for sample `index` of a run seeded with `seed`.

    Both are 64-bit halves of the Philox key, so each must lie in [0, 2**64).
    """
    _check_key(seed, index)
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(index)))


def _draw(ensemble: DisorderEnsemble, rng: np.random.Generator) -> np.ndarray:
    n = ensemble.n_sites
    if ensemble.sigma == 0.0:
        return np.full(n, ensemble.mean)
    if ensemble.kind == "gaussian_iid":
        return ensemble.mean + ensemble.sigma * rng.standard_normal(n)
    if ensemble.kind == "gaussian_perfect":
        return np.full(n, ensemble.mean + ensemble.sigma * rng.standard_normal())
    if ensemble.kind == "gaussian_correlated":
        factor = _correlated_factor(ensemble.sigma, ensemble.xi, n, ensemble.distance_mode)
        return ensemble.mean + factor @ rng.standard_normal(n)
    half = ensemble.width / 2.0
    return rng.uniform(ensemble.mean - half, ensemble.mean + half, n)


class _RunDraws:
    """The coupling draws of one run: one Philox generator, re-keyed per sample.

    ``draw(index)`` points the generator at the start of the stream that
    ``sample_stream(seed, index)`` opens, so it returns the same fields at
    a fraction of the cost of a new generator.
    """

    def __init__(self, ensemble: DisorderEnsemble, seed: int):
        self.ensemble = ensemble
        self._seed = seed
        self._rng = sample_stream(seed, 0)
        self._start = self._rng.bit_generator.state

    def draw(self, index: int) -> tuple[np.ndarray, int]:
        """Fields of sample `index` and the number of positivity redraws they took."""
        _check_key(self._seed, index)
        self._start["state"]["key"][0] = index
        self._rng.bit_generator.state = self._start
        for attempt in range(MAX_REDRAWS):
            g = _draw(self.ensemble, self._rng)
            if (g > 0.0).all():
                return g, attempt
        raise NumericsError(
            f"exceeded {MAX_REDRAWS} positivity redraws; ensemble is misconfigured"
        )


def sample_couplings(ensemble: DisorderEnsemble, seed: int, index: int) -> tuple[np.ndarray, int]:
    """One coupling realization and the number of positivity redraws it took.

    Redraws come from the same per-sample stream, so the result is a pure
    function of (ensemble, seed, index).
    """
    return _RunDraws(ensemble, seed).draw(index)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample statistics of the utility under one ensemble and seed.

    `n_samples` counts the realizations, each of which enters the moments;
    `n_redraws` counts positivity redraws.  The histogram bins the per-site
    shift (u(g) - u(g_bar)) / N over `n_samples` values, with outliers
    clipped into the edge bins.  `max_orthogonality_defect` (the kernel's
    ``max_defect``: the worst max|W^T W - I| of a polar factor it formed, or
    where it folded a chain's last Newton-Schulz step into the determinant,
    the bound on what the fold leaves out) and `singular_ratio_bound` (a
    proven lower bound on the smallest s_min / s_max of the chain matrices,
    from the fields alone, whatever route scored them) report the numerics
    of the overlap kernel, and `svd_fallbacks` counts the samples it scored
    by the dense SVD, past Newton-Schulz and the band route; all three are
    None when no sample needed the kernel.
    """

    n_samples: int
    mean_utility: float
    stderr: float
    mean_density: float
    clean_utility: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    n_redraws: int
    seed: int
    max_orthogonality_defect: float | None
    singular_ratio_bound: float | None
    svd_fallbacks: int | None


def density_stderr(result: MonteCarloResult, n_sites: int) -> float:
    """Standard error of the density mean: the utility stderr scaled by 1/N."""
    return result.stderr / n_sites


def _shift_histogram(shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = float(np.mean(shifts))
    spread = float(np.std(shifts))
    span = HISTOGRAM_SPAN_STDS * spread
    if span == 0.0:
        span = max(abs(center) * 1e-12, 1e-15)
    edges = np.linspace(center - span, center + span, HISTOGRAM_BINS + 1)
    clipped = np.clip(shifts, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return edges, counts


def expected_utility(
    ensemble: DisorderEnsemble, n_samples: int, seed: int
) -> MonteCarloResult:
    """Monte Carlo estimate of the expected utility under the ensemble.

    Draws `n_samples` coupling realizations from per-sample streams and
    evaluates the exact utility of each.  The run keeps one re-keyed
    generator and one ``ChainOverlap``: it draws max(1, STACK_ENTRIES // N)
    samples at a time (819 at N = 40, 256 KiB of fields), in index order
    with each sample's own redraws, and scores them in one kernel call,
    which bounds their singular-value ratios once and works through them
    stack by stack; the run reports the kernel's least bound.  The kernel scores
    each chain as it would alone, so the same (ensemble, seed) gives the
    same draws and values as the per-sample route ``sample_couplings`` ->
    ``ghz_log_overlap_squared``.  Where every draw is a uniform chain
    (``gaussian_perfect``, or sigma = 0) the run only collects each
    sample's coupling, and one ``utility_clean`` call scores them all, each
    value equal to the per-sample call bit for bit.  Every sample enters
    the moments; a zero or non-finite overlap raises NumericsError from the
    kernel.  The clean value u(g_bar) is reported alongside for shift and
    histogram construction.  One DEBUG record on the ``parity_ising.disorder``
    logger gives the run's sample and redraw counts, its seconds split into
    drawing and scoring, its evaluations per second, the kernel's stack
    size, and the chains it scored by Newton-Schulz (with how many of its
    chains were seeded from the closed-form Z^-T, and the most Newton-Schulz
    steps one took before its last, folded into the determinant), by the
    band route and by the SVD fallback, each counted once.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    started = time.perf_counter()
    clean = utility_clean(ensemble.mean, ensemble.n_sites)
    draws = _RunDraws(ensemble, seed)
    overlap = ChainOverlap(ensemble.n_sites)
    # A perfect-correlation draw is a uniform chain, where the momentum-space
    # product form of the utility is exact and much cheaper than the general
    # determinant route.  The two routes agree to machine precision (tested).
    # Covers sigma = 0 for every kind, making E[u] = u(g_bar) bit-exact there.
    uniform = ensemble.kind == "gaussian_perfect" or ensemble.sigma == 0.0
    utilities = np.empty(n_samples)
    fields = np.empty((max(1, STACK_ENTRIES // ensemble.n_sites), ensemble.n_sites))
    n_redraws = 0
    draw_s = score_s = 0.0
    for start in range(0, n_samples, len(fields)):
        batch = fields[: min(len(fields), n_samples - start)]
        drawn = time.perf_counter()
        for row in range(len(batch)):
            batch[row], redraws = draws.draw(start + row)
            n_redraws += redraws
        scored = time.perf_counter()
        draw_s += scored - drawn
        if uniform:
            utilities[start : start + len(batch)] = batch[:, 0]
        else:
            utilities[start : start + len(batch)] = utility_from_log_overlap(overlap(batch), ensemble.n_sites)
            score_s += time.perf_counter() - scored
    if uniform:
        scored = time.perf_counter()
        utilities = utility_clean(utilities, ensemble.n_sites)
        score_s = time.perf_counter() - scored

    mean_u = float(np.mean(utilities))
    stderr = float(np.std(utilities, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    edges, counts = _shift_histogram((utilities - clean) / ensemble.n_sites)
    measured = overlap.evaluations > 0
    seconds = time.perf_counter() - started
    _log.debug(
        "expected_utility %s N=%d: %d samples, %d redraws, %.3f s "
        "(%.4f s drawing, %.4f s scoring), %.0f evaluations/s, stack %d, "
        "%d by Newton-Schulz (%d seeded, at most %d steps), %d by the band route, %d SVD fallbacks",
        ensemble.kind, ensemble.n_sites, n_samples, n_redraws,
        seconds, draw_s, score_s, n_samples / seconds, overlap.stack,
        overlap.newton_schulz_chains, overlap.newton_seeded_chains, overlap.max_newton_schulz_steps,
        overlap.band_chains - overlap.svd_fallbacks, overlap.svd_fallbacks,
    )
    return MonteCarloResult(
        n_samples=n_samples,
        mean_utility=mean_u,
        stderr=stderr,
        mean_density=mean_u / ensemble.n_sites,
        clean_utility=clean,
        histogram_edges=edges,
        histogram_counts=counts,
        n_redraws=n_redraws,
        seed=seed,
        max_orthogonality_defect=overlap.max_defect if measured else None,
        singular_ratio_bound=overlap.singular_ratio_bound if measured else None,
        svd_fallbacks=overlap.svd_fallbacks if measured else None,
    )


def histogram_experiment(
    ensemble: DisorderEnsemble, n_list, n_samples: int, seed: int
) -> dict[int, MonteCarloResult]:
    """The utility-shift distribution at several chain lengths, same ensemble.

    Returns one MonteCarloResult per requested N, keyed by N; each run uses
    seed + its position in the list, so run j of seed s shares its streams
    with run j - 1 of seed s + 1.  A length may appear only once, since its
    key would hold only the last of its runs.
    """
    lengths = [int(n) for n in n_list]
    if len(set(lengths)) != len(lengths):
        raise ValueError(f"chain lengths must not repeat, got {lengths}")
    results: dict[int, MonteCarloResult] = {}
    for position, n in enumerate(lengths):
        results[n] = expected_utility(replace(ensemble, n_sites=n), n_samples, seed + position)
    return results
