"""Self-check registry: cross-route consistency tests run by `cli verify`.

Every check compares two independent computations of the same quantity
(determinant vs sector diagonalization, analytic derivative vs finite
difference, kernel contraction vs direct formula, finite-N sum vs closed
form) and returns a CheckResult carrying the observed and expected values,
the tolerance, and enough input detail to rerun by hand.  The fast level
finishes in seconds; the full level adds the N=12 oracle comparisons, the
thermodynamic crossover, and a short Monte Carlo run.  A check that draws
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


def _result(name, module, observed, expected, tol, inputs, started, relative=False):
    scale = max(1.0, abs(expected)) if relative else 1.0
    passed = bool(abs(observed - expected) <= tol * scale)
    return CheckResult(
        name=name,
        module=module,
        passed=passed,
        observed=float(observed),
        expected=float(expected),
        tolerance=float(tol),
        inputs=inputs,
        elapsed=time.perf_counter() - started,
    )


def _utility_free_fermion(g: np.ndarray) -> float:
    return parity_game.utility_from_log_overlap(
        free_fermion.ghz_log_overlap_squared(g), g.size
    )


def check_dense_overlap(n_sites=8, draws=3):
    """log o+, determinant route vs the oracle's even-sector Lanczos, random couplings.

    A gap in log o+ bounds the relative gap in o+ <= 1, so 1e-9 is as strict as on o+.
    """
    rng = np.random.default_rng((813250, n_sites))
    out = []
    for rep in range(draws):
        started = time.perf_counter()
        g = rng.uniform(0.2, 3.0, n_sites)
        dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
        out.append(
            _result(
                f"log overlap determinant vs dense #{rep}",
                "free_fermion",
                free_fermion.ghz_log_overlap_squared(g),
                math.log(dense_plus),
                1e-9,
                f"N={n_sites}, g~U[0.2,3] seeded",
                started,
            )
        )
    return out


def check_game_theorem(n_sites=6, draws=4):
    """Protocol simulation vs the overlap formula for the win probability."""
    rng = np.random.default_rng((271828, n_sites))
    out = []
    for rep in range(draws):
        started = time.perf_counter()
        if rep % 2 == 0:
            state = oracle.dense_ground_state(rng.uniform(0.2, 3.0, n_sites))
        else:
            amps = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
            amps /= np.linalg.norm(amps)
            state = oracle.DenseState(amplitudes=amps, n_qubits=n_sites)
        o_plus, o_minus = oracle.ghz_overlaps(state)
        simulated = oracle.simulate_bbt(state)
        out.append(
            _result(
                f"win probability protocol vs overlaps #{rep}",
                "oracle",
                simulated,
                0.5 * (1.0 + o_plus - o_minus),
                1e-10,
                f"N={n_sites}, {'ground state' if rep % 2 == 0 else 'random state'}",
                started,
            )
        )
    return out


def check_finite_differences(n_sites=40, couplings=(0.8, 1.3)):
    """chi' and chi'' against central differences of the determinant route."""

    def chi(g_scalar: float) -> float:
        return free_fermion.ghz_log_overlap_squared(np.full(n_sites, g_scalar))

    out = []
    for g in couplings:
        started = time.perf_counter()
        h = 1e-4
        fd_first = (chi(g + h) - chi(g - h)) / (2.0 * h)
        out.append(
            _result(
                f"chi_prime vs finite difference at g={g}",
                "perturbation",
                perturbation.chi_prime(g, n_sites),
                fd_first,
                1e-4,
                f"N={n_sites}, step={h}",
                started,
                relative=True,
            )
        )
        started = time.perf_counter()
        h = 1e-3
        fd_second = (chi(g + h) - 2.0 * chi(g) + chi(g - h)) / h**2
        out.append(
            _result(
                f"chi_double_prime vs finite difference at g={g}",
                "perturbation",
                perturbation.chi_double_prime(g, n_sites),
                fd_second,
                1e-4,
                f"N={n_sites}, step={h}",
                started,
                relative=True,
            )
        )
    return out


def check_contractions(n_sites=24, couplings=(0.7, 1.4)):
    """N sum_d h(d) against chi'', and laplacian_u against N d^2u/dg_0^2 by differences."""
    out = []
    for g in couplings:
        started = time.perf_counter()
        kernel = perturbation.hessian_kernel(g, n_sites)
        out.append(
            _result(
                f"N*sum(kernel) vs chi_double_prime at g={g}",
                "perturbation",
                n_sites * float(np.sum(kernel.values)),
                perturbation.chi_double_prime(g, n_sites),
                1e-8,
                f"N={n_sites}",
                started,
                relative=True,
            )
        )
        started = time.perf_counter()
        h, e0 = 1e-3, np.eye(n_sites)[0]
        u = [_utility_free_fermion(g + side * h * e0) for side in (1.0, 0.0, -1.0)]
        out.append(
            _result(
                f"laplacian_u vs one-site finite difference at g={g}",
                "perturbation",
                perturbation.laplacian_u(g, n_sites),
                n_sites * (u[0] - 2.0 * u[1] + u[2]) / h**2,
                1e-4,
                f"N={n_sites}, step={h}",
                started,
                relative=True,
            )
        )
    return out


def check_asymptotics():
    """Critical assembly vs direct momentum sum, and thermodynamic derivatives."""
    out = []
    started = time.perf_counter()
    report = asymptotics.critical_scaling(40)
    out.append(
        _result(
            "critical chi'' assembly vs momentum sum",
            "asymptotics",
            report.chi2_critical_exact,
            perturbation.chi_double_prime(1.0, 40),
            1e-8,
            "N=40",
            started,
            relative=True,
        )
    )
    for g in (0.5, 1.5):
        started = time.perf_counter()
        out.append(
            _result(
                f"thermodynamic dchi/dg vs finite N at g={g}",
                "asymptotics",
                asymptotics.dchi_dg_thermodynamic(g),
                perturbation.chi_prime(g, 2000) / 2000.0,
                1e-3,
                f"g={g}, N=2000",
                started,
                relative=True,
            )
        )
    return out


def check_advantage_boundary():
    started = time.perf_counter()
    boundary = _result(
        "advantage boundary location",
        "parity_game",
        parity_game.find_advantage_boundary(),
        1.506,
        1e-3,
        "bracket (1.4, 1.6)",
        started,
    )
    started = time.perf_counter()
    limit = _result(
        "strong-advantage limit g->0",
        "parity_game",
        parity_game.advantage_density(1e-4),
        0.5 * math.log(2.0),
        1e-6,
        "g=1e-4",
        started,
    )
    return [boundary, limit]


def check_dense_overlap_large():
    return check_dense_overlap(n_sites=12, draws=2)


def check_game_theorem_large():
    return check_game_theorem(n_sites=10, draws=2)


def check_kernel_vs_stencil(n_sites=12, g_bar=1.3):
    """Full Hessian kernel against a numerical Hessian of the utility."""
    started = time.perf_counter()
    g0 = np.full(n_sites, g_bar)
    numeric = oracle.numerical_hessian(_utility_free_fermion, g0, step=1e-3)
    kernel_matrix = perturbation.hessian_kernel(g_bar, n_sites).matrix()
    rel = float(
        np.linalg.norm(numeric - kernel_matrix) / np.linalg.norm(kernel_matrix)
    )
    return [
        _result(
            "hessian kernel vs numerical Hessian (Frobenius)",
            "perturbation",
            rel,
            0.0,
            1e-3,
            f"N={n_sites}, g_bar={g_bar}, step=1e-3",
            started,
        )
    ]


def check_crossover():
    started = time.perf_counter()
    return [
        _result(
            "iid response sign change (thermodynamic)",
            "perturbation",
            perturbation.laplacian_crossover_thermodynamic(),
            0.9902,
            5e-4,
            "bracket (0.95, 0.998)",
            started,
        )
    ]


def check_monte_carlo(n_sites=40, sigma=0.02, n_samples=2000, seed=90210):
    """Sampled utility shift vs the quadratic prediction, shared-shift kind."""
    started = time.perf_counter()
    ensemble = disorder.gaussian_perfect(0.5, sigma, n_sites)
    result = disorder.expected_utility(ensemble, n_samples, seed)
    shift = result.mean_utility - result.clean_utility
    prediction = disorder.predicted_shift(ensemble)
    return [
        _result(
            "monte carlo shift vs quadratic response",
            "disorder",
            shift,
            prediction,
            max(4.0 * result.stderr, 1e-12),
            f"N={n_sites}, sigma={sigma}, samples={n_samples}, seed={seed}",
            started,
        )
    ]


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
