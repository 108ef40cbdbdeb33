"""Scoring of the N-player parity game and its Ising-chain utility.

In the parity game each player j receives a bit a_j (with sum a_j promised
even) and answers a bit b_j; the team wins when sum b_j = (sum a_j)/2 mod 2.
Shared GHZ entanglement wins with certainty, classical strategies are capped
at p_cl* = 1/2 + 2^{-ceil(N/2)}, and random guessing gives 1/2.  A shared
state with even/odd GHZ weights o+ and o- wins with probability
p = (1 + o+ - o-)/2 under the standard measurement protocol.

The utility

    u = log[(p - 1/2) / (p_cl* - 1/2)]

measures quantum advantage on a log scale: u > 0 beats every classical
strategy, u = 0 ties the bound.  For even-sector Ising ground states
(o- = 0) it reduces to u = (ceil(N/2) - 1) log 2 + log o+.  Its clean-chain
value chi(g) and the per-site density b(g) = lim u/N quantify how much
advantage survives at coupling g; b crosses zero at g ~ 1.506, where the
chain stops beating the classical bound.  Both read the modes of
``free_fermion._modes``: chi sums them over the allowed wavenumbers, and b
integrates them by ``free_fermion.wavenumber_integral``.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .free_fermion import _modes, allowed_wavenumbers, bracketed_root, wavenumber_integral

LOG2 = math.log(2.0)
STRONG_DENSITY = 0.5 * LOG2
# Advantage classification bands on the utility density.
STRONG_BAND = 1e-9
# Absolute error budget for the advantage-density quadrature.
QUAD_TOL = 1e-10
# Smallest panel breakpoint of the advantage-density rule.
DENSITY_FLOOR = 1e-12
# Chains times modes that utility_clean holds in one block (64 KiB per array).
CLEAN_BLOCK_MODES = 1 << 13


def _check_players(n_players: int):
    if n_players < 3:
        raise ValueError(f"the parity game needs at least 3 players, got {n_players}")


def classical_bound(n_players: int) -> float:
    """Optimal classical winning probability 1/2 + 2^{-ceil(N/2)}."""
    _check_players(n_players)
    return 0.5 + 2.0 ** (-math.ceil(n_players / 2))


def quantum_win_probability(overlap_plus_sq: float, overlap_minus_sq: float) -> float:
    """Winning probability (1 + o+ - o-)/2 of a shared state with GHZ weights o+-."""
    for name, value in (("o+", overlap_plus_sq), ("o-", overlap_minus_sq)):
        if not -1e-12 <= value <= 1.0 + 1e-9:
            raise ValueError(f"{name} = {value} is not a squared overlap")
    if overlap_plus_sq + overlap_minus_sq > 1.0 + 1e-9:
        raise ValueError("GHZ weights exceed unit norm")
    return 0.5 * (1.0 + overlap_plus_sq - overlap_minus_sq)


def utility_from_log_overlap(log_overlap_plus_sq: float, n_players: int) -> float:
    """Utility of an even-parity state from the log of its GHZ+ weight.

    Returns -inf at zero overlap (log o+ = -inf); the upper bound
    (ceil(N/2) - 1) log 2 is reached only by the GHZ state itself.
    """
    _check_players(n_players)
    if log_overlap_plus_sq > 1e-9:
        raise ValueError("log squared overlap must be <= 0")
    return (math.ceil(n_players / 2) - 1) * LOG2 + log_overlap_plus_sq


def utility_clean(g, n_sites: int):
    """Utility chi(g) of the clean chain at uniform coupling g.

    Evaluated by summing the per-mode angle differences against the g -> 0+
    reference,

        chi = (ceil(N/2) - 1) log 2 + sum_{k>0} log cos^2((theta_k - theta_k^0)/2),

    where 2 cos^2((theta_k - theta_k^0)/2) = q_k / eps_k with
    q_k = eps_k + 1 - g cos k from ``free_fermion._modes``, so no
    determinant is involved and the clean baseline is cheap at any N.

    g may be a float or a one-dimensional array of couplings, one chain
    each, which returns an array.  A float is the one-element case, so an
    array entry equals the float call bit for bit.  Chains are scored in
    row blocks of at most CLEAN_BLOCK_MODES modes, which bounds the memory
    at any N and array length.
    """
    if np.ndim(g) == 0:
        return float(utility_clean(np.array([g], dtype=float), n_sites)[0])
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("couplings must be a float or a one-dimensional array")
    k = allowed_wavenumbers(n_sites)
    out = np.empty(g.size)
    rows = max(1, CLEAN_BLOCK_MODES // k.size)
    for start in range(0, g.size, rows):
        eps, q, _, _ = _modes(g[start : start + rows, None], k)
        out[start : start + rows] = np.sum(np.log(q / eps), axis=1) - k.size * LOG2
    return (math.ceil(n_sites / 2) - 1) * LOG2 + out


def advantage_density(g: float) -> float:
    """Thermodynamic utility density b(g) = lim_N chi(g)/N.

    The (N/2 - 1) log 2 prefactor of chi cancels the -log 2 per mode, so
    b = (1/2 pi) integral over k in (0, pi) of log(q_k/eps_k), with q and eps
    from ``free_fermion._modes``, by ``free_fermion.wavenumber_integral``.
    For g > 1 the integrand goes as 2 log k at k -> 0 whatever the
    coupling, so its panels are graded down to the fixed DENSITY_FLOOR.
    Absolute accuracy QUAD_TOL on b or a NumericsError.
    """
    if g <= 0.0 or not math.isfinite(g):
        raise ValueError("coupling must be positive and finite")
    if g == 1.0:
        warnings.warn(
            "advantage density is continuous but not smooth at g = 1",
            stacklevel=2,
        )

    def rule(k, w):
        eps, q, _, _ = _modes(g, k)
        return w @ np.log(q / eps) / (2.0 * np.pi)

    return wavenumber_integral(rule, DENSITY_FLOOR, QUAD_TOL, "advantage density")[0]


def find_advantage_boundary(bracket=(1.4, 1.6)) -> float:
    """Coupling g* where b(g) changes sign, by Brent's method to 1e-12 in g.

    The advantage density is positive below g* and negative above; g* is
    where the chain stops beating the best classical strategy in the
    thermodynamic limit.
    """
    return bracketed_root(advantage_density, bracket, "advantage boundary")


def classify(density: float) -> str:
    """Advantage class of a utility density: 'strong', 'weak' or 'none'.

    'strong' means the GHZ plateau (log 2)/2 within 1e-9, 'weak' any
    positive density below it, 'none' zero or negative.
    """
    if density >= STRONG_DENSITY - STRONG_BAND:
        return "strong"
    if density > 0.0:
        return "weak"
    return "none"


@dataclass(frozen=True)
class UtilityReport:
    """Scoring summary for one shared state of the N-player game."""

    n_players: int
    p_quantum: float
    p_classical_opt: float
    p_random: float
    utility: float
    density: float
    advantage_class: str


def utility_report(
    n_players: int, log_overlap_plus_sq: float, log_overlap_minus_sq: float = -math.inf
) -> UtilityReport:
    """Full scoring of a state given the logs of its GHZ weights.

    The utility is taken as log(o+ - o-) + (ceil(N/2) - 1) log 2, the
    closed form of log[(p - 1/2) / (p_cl* - 1/2)], with
    log(o+ - o-) = log o+ + log1p(-exp(log o- - log o+)).  Working from the
    logs keeps the utility exact where o+ underflows (clean chains at
    g = 1.6 from N ~ 2200); forming p - 1/2 and p_cl* - 1/2 first would
    cancel once o+ or 2^{-ceil(N/2)} drops below the float resolution of 1/2.
    """
    p = quantum_win_probability(math.exp(log_overlap_plus_sq), math.exp(log_overlap_minus_sq))
    if log_overlap_minus_sq >= log_overlap_plus_sq:
        u = -math.inf
    else:
        log_bias = log_overlap_plus_sq + math.log1p(
            -math.exp(log_overlap_minus_sq - log_overlap_plus_sq)
        )
        u = log_bias + (math.ceil(n_players / 2) - 1) * LOG2
    density = u / n_players
    return UtilityReport(
        n_players=n_players,
        p_quantum=p,
        p_classical_opt=classical_bound(n_players),
        p_random=0.5,
        utility=u,
        density=density,
        advantage_class=classify(density),
    )
