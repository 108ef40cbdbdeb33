"""Quantum parity game played with transverse-field Ising ground states.

The package computes the winning probability and expected utility of the
N-player parity game when the shared resource is the ground state of a
ferromagnetic Ising ring in a transverse field, clean or with random
couplings: exact free-fermion evaluation, quadratic disorder response,
Monte Carlo averaging, critical-point asymptotics, and a brute-force
oracle for small systems.

Submodules (also re-exported lazily at package level, see below):

    free_fermion   chain matrix, polar-factor ground-state overlaps, spectra
    parity_game    win probability, utility, advantage density b(g)
    perturbation   derivatives of the utility in the couplings
    disorder       random-coupling ensembles and Monte Carlo averaging
    asymptotics    critical scaling and thermodynamic closed forms
    oracle         small-N ground truth (sector Lanczos), protocol simulation
    verify         cross-route consistency checks
    cli            command-line interface

Importing the package does not import numpy/scipy; submodules load on first
attribute access.  The CLI relies on this to apply its thread-count setting
before the numeric stack initializes.

Run telemetry (Monte Carlo counts and rates, per-check verify times, the
error estimate of each thermodynamic integral) goes to
DEBUG records on the ``parity_ising`` logger, which has only a NullHandler:
nothing prints unless the application configures logging, for example
``logging.basicConfig(level=logging.DEBUG)``.
"""

import logging
from importlib import import_module

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

_SUBMODULES = (
    "asymptotics",
    "cli",
    "disorder",
    "errors",
    "free_fermion",
    "oracle",
    "parity_game",
    "perturbation",
    "verify",
)

_EXPORTS = {
    "NumericsError": "errors",
    "ghz_log_overlap_squared": "free_fermion",
    "bogoliubov_spectrum": "free_fermion",
    "classical_bound": "parity_game",
    "quantum_win_probability": "parity_game",
    "utility_clean": "parity_game",
    "utility_report": "parity_game",
    "advantage_density": "parity_game",
    "find_advantage_boundary": "parity_game",
    "chi_prime": "perturbation",
    "chi_double_prime": "perturbation",
    "laplacian_u": "perturbation",
    "hessian_kernel": "perturbation",
    "second_variation": "perturbation",
    "DisorderEnsemble": "disorder",
    "MonteCarloResult": "disorder",
    "expected_utility": "disorder",
    "critical_scaling": "asymptotics",
    "dense_ground_state": "oracle",
    "ghz_overlaps": "oracle",
    "simulate_bbt": "oracle",
    "run_checks": "verify",
}

__all__ = ["__version__", *_SUBMODULES, *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(globals()))
