"""Self-check registry: cross-route consistency tests run by `cli verify`.

Every check compares two independent computations of the same quantity
(determinant vs sector diagonalization, analytic derivative vs finite
difference, kernel contraction vs direct formula, finite-N sum vs closed
form) and returns a CheckResult carrying the observed and expected values,
the tolerance, and enough input detail to rerun by hand.  The fast level
finishes in seconds; the full level adds the N=12 overlap comparisons, the
N=10 protocol simulation, the full Hessian kernel against a numerical
Hessian stencil, the thermodynamic crossover, and a short Monte Carlo run.
Each check builds its results through one recorder, which judges every
comparison against its tolerance and times it.  A check that draws
random inputs keys its stream by (check constant, N), so its draws at
different N are independent.

Checks call library functions through their module namespaces on purpose:
a monkeypatched (or genuinely broken) implementation must be the one that
gets checked.
"""

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import asymptotics, disorder, free_fermion, oracle, parity_game, perturbation

LEVELS = ("fast", "full")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckResult:
    """One comparison of two routes to the same number.

    ``elapsed`` is the wall time in seconds from the check's previous
    comparison (or from the start of the check, for its first) to this
    one, so it covers the work that produced ``observed`` and ``expected``.
    """

    name: str
    module: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    inputs: str
    elapsed: float

    def as_dict(self) -> dict:
        return asdict(self)


class _Recorder:
    """The results of one check, each judged and timed where it is added."""

    def __init__(self, module: str):
        self.module = module
        self.results: list[CheckResult] = []
        self._last = time.perf_counter()

    def add(self, name, observed, expected, tol, inputs, relative=False):
        """Judge |observed - expected| <= tol (times max(1, |expected|) if relative)."""
        now = time.perf_counter()
        scale = max(1.0, abs(expected)) if relative else 1.0
        self.results.append(
            CheckResult(
                name=name,
                module=self.module,
                passed=bool(abs(observed - expected) <= tol * scale),
                observed=float(observed),
                expected=float(expected),
                tolerance=float(tol),
                inputs=inputs,
                elapsed=now - self._last,
            )
        )
        self._last = now


def _utility_free_fermion(g: np.ndarray):
    """Utility of one chain, or of each chain of an (M, N) stack."""
    return parity_game.utility_from_log_overlap(
        free_fermion.ghz_log_overlap_squared(g), g.shape[-1]
    )


def check_dense_overlap(n_sites=8, draws=3):
    """log o+, determinant route vs the oracle's even-sector Lanczos, random couplings.

    A gap in log o+ bounds the relative gap in o+ <= 1, so 1e-9 is as strict as on o+.
    """
    rng = np.random.default_rng((813250, n_sites))
    rec = _Recorder("free_fermion")
    for rep in range(draws):
        g = rng.uniform(0.2, 3.0, n_sites)
        dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
        rec.add(
            f"log overlap determinant vs dense #{rep}",
            free_fermion.ghz_log_overlap_squared(g),
            math.log(dense_plus),
            1e-9,
            f"N={n_sites}, g~U[0.2,3] seeded",
        )
    return rec.results


def check_game_theorem(n_sites=6, draws=4):
    """Protocol simulation vs the overlap formula for the win probability."""
    rng = np.random.default_rng((271828, n_sites))
    rec = _Recorder("oracle")
    for rep in range(draws):
        if rep % 2 == 0:
            state = oracle.dense_ground_state(rng.uniform(0.2, 3.0, n_sites))
        else:
            amps = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
            amps /= np.linalg.norm(amps)
            state = oracle.DenseState(amplitudes=amps, n_qubits=n_sites)
        o_plus, o_minus = oracle.ghz_overlaps(state)
        rec.add(
            f"win probability protocol vs overlaps #{rep}",
            oracle.simulate_bbt(state),
            0.5 * (1.0 + o_plus - o_minus),
            1e-10,
            f"N={n_sites}, {'ground state' if rep % 2 == 0 else 'random state'}",
        )
    return rec.results


def check_finite_differences(n_sites=40, couplings=(0.8, 1.3)):
    """chi' and chi'' against central differences of the determinant route."""

    def chi(g_scalar: float) -> float:
        return free_fermion.ghz_log_overlap_squared(np.full(n_sites, g_scalar))

    rec = _Recorder("perturbation")
    for g in couplings:
        h = 1e-4
        rec.add(
            f"chi_prime vs finite difference at g={g}",
            perturbation.chi_prime(g, n_sites),
            (chi(g + h) - chi(g - h)) / (2.0 * h),
            1e-4,
            f"N={n_sites}, step={h}",
            relative=True,
        )
        h = 1e-3
        rec.add(
            f"chi_double_prime vs finite difference at g={g}",
            perturbation.chi_double_prime(g, n_sites),
            (chi(g + h) - 2.0 * chi(g) + chi(g - h)) / h**2,
            1e-4,
            f"N={n_sites}, step={h}",
            relative=True,
        )
    return rec.results


def check_contractions(n_sites=24, couplings=(0.7, 1.4)):
    """N sum_d h(d) against chi'', and laplacian_u against N d^2u/dg_0^2 by differences."""
    rec = _Recorder("perturbation")
    for g in couplings:
        rec.add(
            f"N*sum(kernel) vs chi_double_prime at g={g}",
            n_sites * float(np.sum(perturbation.hessian_kernel(g, n_sites).values)),
            perturbation.chi_double_prime(g, n_sites),
            1e-8,
            f"N={n_sites}",
            relative=True,
        )
        h, e0 = 1e-3, np.eye(n_sites)[0]
        u = _utility_free_fermion(g + np.outer((1.0, 0.0, -1.0), h * e0))
        rec.add(
            f"laplacian_u vs one-site finite difference at g={g}",
            perturbation.laplacian_u(g, n_sites),
            n_sites * (u[0] - 2.0 * u[1] + u[2]) / h**2,
            1e-4,
            f"N={n_sites}, step={h}",
            relative=True,
        )
    return rec.results


def check_asymptotics():
    """Critical assembly vs direct momentum sum, and thermodynamic derivatives."""
    rec = _Recorder("asymptotics")
    rec.add(
        "critical chi'' assembly vs momentum sum",
        asymptotics.critical_scaling(40).chi2_critical_exact,
        perturbation.chi_double_prime(1.0, 40),
        1e-8,
        "N=40",
        relative=True,
    )
    for g in (0.5, 1.5):
        rec.add(
            f"thermodynamic dchi/dg vs finite N at g={g}",
            asymptotics.dchi_dg_thermodynamic(g),
            perturbation.chi_prime(g, 2000) / 2000.0,
            1e-3,
            f"g={g}, N=2000",
            relative=True,
        )
    return rec.results


def check_advantage_boundary():
    rec = _Recorder("parity_game")
    rec.add(
        "advantage boundary location",
        parity_game.find_advantage_boundary(),
        1.506,
        1e-3,
        "bracket (1.4, 1.6)",
    )
    rec.add(
        "strong-advantage limit g->0",
        parity_game.advantage_density(1e-4),
        0.5 * math.log(2.0),
        1e-6,
        "g=1e-4",
    )
    return rec.results


def check_dense_overlap_large():
    return check_dense_overlap(n_sites=12, draws=2)


def check_game_theorem_large():
    return check_game_theorem(n_sites=10, draws=2)


def check_kernel_vs_stencil(n_sites=12, g_bar=1.3):
    """Full Hessian kernel against a numerical Hessian of the utility."""
    rec = _Recorder("perturbation")
    numeric = oracle.numerical_hessian(_utility_free_fermion, np.full(n_sites, g_bar), step=1e-3)
    kernel_matrix = perturbation.hessian_kernel(g_bar, n_sites).matrix()
    rec.add(
        "hessian kernel vs numerical Hessian (Frobenius)",
        np.linalg.norm(numeric - kernel_matrix) / np.linalg.norm(kernel_matrix),
        0.0,
        1e-3,
        f"N={n_sites}, g_bar={g_bar}, step=1e-3",
    )
    return rec.results


def check_crossover():
    rec = _Recorder("perturbation")
    rec.add(
        "iid response sign change (thermodynamic)",
        perturbation.laplacian_crossover_thermodynamic(),
        0.9902,
        5e-4,
        "bracket (0.95, 0.998)",
    )
    return rec.results


def check_monte_carlo(n_sites=40, sigma=0.02, n_samples=2000, seed=90210):
    """Sampled utility shift vs the quadratic prediction, shared-shift kind."""
    rec = _Recorder("disorder")
    ensemble = disorder.gaussian_perfect(0.5, sigma, n_sites)
    result = disorder.expected_utility(ensemble, n_samples, seed)
    rec.add(
        "monte carlo shift vs quadratic response",
        result.mean_utility - result.clean_utility,
        disorder.predicted_shift(ensemble),
        max(4.0 * result.stderr, 1e-12),
        f"N={n_sites}, sigma={sigma}, samples={n_samples}, seed={seed}",
    )
    return rec.results


FAST_CHECKS = (
    check_dense_overlap,
    check_game_theorem,
    check_finite_differences,
    check_contractions,
    check_asymptotics,
    check_advantage_boundary,
)

FULL_CHECKS = FAST_CHECKS + (
    check_dense_overlap_large,
    check_game_theorem_large,
    check_kernel_vs_stencil,
    check_crossover,
    check_monte_carlo,
)


def run_checks(level: str = "fast") -> tuple[CheckResult, ...]:
    """Run the registry at the given level and return every CheckResult.

    Each check's elapsed time also goes to a DEBUG record on the
    ``parity_ising.verify`` logger.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown verification level {level!r}")
    registry = FAST_CHECKS if level == "fast" else FULL_CHECKS
    results: list[CheckResult] = []
    for check in registry:
        started = time.perf_counter()
        results.extend(check())
        _log.debug("%s: %.3f s", check.__name__, time.perf_counter() - started)
    return tuple(results)


def failures(results) -> tuple[CheckResult, ...]:
    return tuple(r for r in results if not r.passed)
