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
(seed, index), so serial and parallel execution produce identical results.
A run re-keys one Philox generator per sample instead of building a new one,
and scores its samples in stacks with one ``free_fermion.ChainOverlap``;
both give exactly what the one-shot ``sample_couplings`` and
``ghz_log_overlap_squared`` give.  With one BLAS thread on a 2-core x86
host, a ``uniform_iid`` sample at N = 40 takes ~12 us to draw and
~130 us to score, most of it in the kernel's 8-12 Newton-Schulz steps of
two stacked 40 x 40 matrix products each; at N = 12, on the band route,
the split is ~12 and ~35 us, and at N = 200 ~50 us and ~6-7 ms.  Where
every draw is a uniform chain (the shared shift, or sigma = 0) the run
scores all its samples with one vectorized ``utility_clean`` call instead.

Couplings must stay positive.  A draw with a nonpositive field is redrawn
from the same per-sample stream, and every redraw is counted; there is no
other policy.  In the parameter regimes of interest a violation is many
standard deviations out, so the truncation bias is far below statistical
resolution.
A run reports its positivity redraws, its zero-overlap (-inf) samples, and
the worst orthogonality defect, smallest singular-value ratio and number of
dense-SVD fallbacks of its overlap kernel.
"""

import logging
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericsError
from .free_fermion import ChainOverlap
from .parity_game import utility_clean, utility_from_log_overlap
from .perturbation import (
    CovarianceMatrix,
    exponential_covariance,
    iid_covariance,
    perfect_covariance,
    second_variation,
)

GAUSSIAN_KINDS = ("gaussian_iid", "gaussian_perfect", "gaussian_correlated")
KINDS = GAUSSIAN_KINDS + ("uniform_iid",)

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError("mean coupling must be positive and finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be nonnegative and finite")
        if self.n_sites < 4 or self.n_sites % 2:
            raise ValueError("n_sites must be an even integer >= 4")
        if self.kind == "gaussian_correlated":
            if self.xi is None or not (math.isfinite(self.xi) and self.xi > 0.0):
                raise ValueError("gaussian_correlated needs a positive correlation length")
            if self.distance_mode not in ("linear", "ring"):
                raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.kind == "uniform_iid":
            if self.width is None or not (math.isfinite(self.width) and self.width >= 0.0):
                raise ValueError("uniform_iid needs a nonnegative width")
            if abs(self.sigma - self.width / (2.0 * math.sqrt(3.0))) > 1e-12 * (1.0 + self.width):
                raise ValueError("sigma must equal width / (2 sqrt 3) for uniform_iid")
        elif self.width is not None:
            raise ValueError("width is only meaningful for uniform_iid")


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
    sigma = width / (2.0 * math.sqrt(3.0))
    return DisorderEnsemble(mean, n_sites, "uniform_iid", sigma, width=width)


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


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The dedicated generator for sample `index` of a run seeded with `seed`."""
    if seed < 0 or index < 0:
        raise ValueError("seed and sample index must be nonnegative")
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
        self._rng = sample_stream(seed, 0)
        self._start = self._rng.bit_generator.state

    def draw(self, index: int) -> tuple[np.ndarray, int]:
        """Fields of sample `index` and the number of positivity redraws they took."""
        if not 0 <= index < 2**64:
            raise ValueError("sample index must be nonnegative and below 2**64")
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


def _stack_utilities(
    ensemble: DisorderEnsemble, fields: np.ndarray, overlap: ChainOverlap
) -> np.ndarray:
    """Utilities of a (k, N) stack of field draws, one per row."""
    return utility_from_log_overlap(overlap(fields), ensemble.n_sites)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample statistics of the utility under one ensemble and seed.

    `n_samples` counts the realizations that entered the moments.  Draws
    whose utility is -inf (zero overlap) are excluded and counted in
    `n_degenerate`; `n_redraws` counts positivity redraws.  The histogram
    bins the per-site shift (u(g) - u(g_bar)) / N over `n_samples` values,
    with outliers clipped into the edge bins.  `max_orthogonality_defect`
    (worst max|W^T W - I|) and `min_singular_ratio` (smallest s_min / s_max
    of the chain matrix) report the numerics of the overlap kernel, and
    `svd_fallbacks` counts the samples it scored by the dense SVD instead of
    its band route; all three are None when no sample needed the kernel.
    """

    n_samples: int
    mean_utility: float
    stderr: float
    mean_density: float
    clean_utility: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    n_redraws: int
    n_degenerate: int
    seed: int
    max_orthogonality_defect: float | None
    min_singular_ratio: float | None
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
    generator and one ``ChainOverlap``: it draws the samples of one kernel
    stack into a (stack, N) field buffer, in index order with each sample's
    own redraws, and scores the buffer in one kernel call.  The kernel
    scores each chain as it would alone, so the same (ensemble, seed) gives
    the same draws and values as the per-sample route ``sample_couplings``
    -> ``ghz_log_overlap_squared``.  Where every draw is a uniform chain
    (``gaussian_perfect``, or sigma = 0) the run only collects each
    sample's coupling, and one ``utility_clean`` call scores them all, each
    value equal to the per-sample call bit for bit.  The clean value
    u(g_bar) is reported alongside for shift and histogram construction.
    One DEBUG record on the ``parity_ising.disorder`` logger gives the
    run's sample, redraw and degenerate counts, its seconds split into
    drawing and scoring, its evaluations per second, the kernel's stack
    size, and the chains it scored by Newton-Schulz (with the most steps one
    took), by the band route and by the SVD fallback.
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
    fields = np.empty((overlap.stack, ensemble.n_sites))
    n_redraws = 0
    draw_s = score_s = 0.0
    for start in range(0, n_samples, overlap.stack):
        stack = fields[: min(overlap.stack, n_samples - start)]
        drawn = time.perf_counter()
        for row in range(len(stack)):
            stack[row], redraws = draws.draw(start + row)
            n_redraws += redraws
        scored = time.perf_counter()
        draw_s += scored - drawn
        if uniform:
            utilities[start : start + len(stack)] = stack[:, 0]
        else:
            utilities[start : start + len(stack)] = _stack_utilities(ensemble, stack, overlap)
            score_s += time.perf_counter() - scored
    if uniform:
        scored = time.perf_counter()
        utilities = utility_clean(utilities, ensemble.n_sites)
        score_s = time.perf_counter() - scored

    finite = np.isfinite(utilities)
    kept = utilities[finite]
    if kept.size == 0:
        raise NumericsError("every sample produced a degenerate (-inf) utility")

    mean_u = float(np.mean(kept))
    stderr = float(np.std(kept, ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    edges, counts = _shift_histogram((kept - clean) / ensemble.n_sites)
    measured = overlap.evaluations > 0
    seconds = time.perf_counter() - started
    _log.debug(
        "expected_utility %s N=%d: %d samples, %d redraws, %d degenerate, %.3f s "
        "(%.4f s drawing, %.4f s scoring), %.0f evaluations/s, stack %d, "
        "%d by Newton-Schulz (at most %d steps), %d by the band route, %d SVD fallbacks",
        ensemble.kind, ensemble.n_sites, kept.size, n_redraws, n_samples - kept.size,
        seconds, draw_s, score_s, n_samples / seconds, overlap.stack,
        overlap.newton_schulz_chains, overlap.max_newton_schulz_steps, overlap.band_chains,
        overlap.svd_fallbacks,
    )
    return MonteCarloResult(
        n_samples=int(kept.size),
        mean_utility=mean_u,
        stderr=stderr,
        mean_density=mean_u / ensemble.n_sites,
        clean_utility=clean,
        histogram_edges=edges,
        histogram_counts=counts,
        n_redraws=n_redraws,
        n_degenerate=int(n_samples - kept.size),
        seed=seed,
        max_orthogonality_defect=overlap.max_defect if measured else None,
        min_singular_ratio=overlap.min_singular_ratio if measured else None,
        svd_fallbacks=overlap.svd_fallbacks if measured else None,
    )


@dataclass(frozen=True)
class ScanRow:
    sigma: float
    shift: float
    stderr: float
    prediction: float


def second_variation_scan(
    ensemble: DisorderEnsemble, sigmas, n_samples: int, seed: int
) -> tuple[ScanRow, ...]:
    """Sampled E[u] - u(g_bar) against the quadratic prediction on a sigma grid.

    Each sigma runs under seed + its grid position, keeping all streams
    disjoint.  For the uniform kind the grid values are interpreted as the
    standard deviation and converted back to a width.
    """
    rows = []
    for offset, sigma in enumerate(sigmas):
        if ensemble.kind == "uniform_iid":
            scaled = replace(ensemble, sigma=float(sigma), width=float(sigma) * 2.0 * math.sqrt(3.0))
        else:
            scaled = replace(ensemble, sigma=float(sigma))
        result = expected_utility(scaled, n_samples, seed + offset)
        rows.append(
            ScanRow(
                sigma=float(sigma),
                shift=result.mean_utility - result.clean_utility,
                stderr=result.stderr,
                prediction=predicted_shift(scaled),
            )
        )
    return tuple(rows)


def histogram_experiment(
    ensemble: DisorderEnsemble, n_list, n_samples: int, seed: int
) -> dict[int, MonteCarloResult]:
    """The utility-shift distribution at several chain lengths, same ensemble.

    Returns one MonteCarloResult per requested N, keyed by N; each run uses
    seed + its position in the list.
    """
    results: dict[int, MonteCarloResult] = {}
    for offset, n in enumerate(n_list):
        sized = replace(ensemble, n_sites=int(n))
        results[int(n)] = expected_utility(sized, n_samples, seed + offset)
    return results
