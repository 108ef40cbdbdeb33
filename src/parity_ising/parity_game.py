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
chain stops beating the classical bound.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .errors import NumericsError
from .free_fermion import _modes, allowed_wavenumbers

LOG2 = math.log(2.0)
STRONG_DENSITY = 0.5 * LOG2
# Advantage classification bands on the utility density.
STRONG_BAND = 1e-9
# Absolute error budget for the advantage-density quadrature.
QUAD_TOL = 1e-10


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


def utility_from_overlap(overlap_plus_sq: float, n_players: int) -> float:
    """Utility of an even-parity state from its GHZ+ weight.

    Returns -inf at zero overlap; the upper bound (ceil(N/2) - 1) log 2 is
    reached only by the GHZ state itself.
    """
    _check_players(n_players)
    if not -1e-12 <= overlap_plus_sq <= 1.0 + 1e-9:
        raise ValueError(f"squared overlap {overlap_plus_sq} outside [0, 1]")
    if overlap_plus_sq <= 0.0:
        return -math.inf
    return utility_from_log_overlap(math.log(overlap_plus_sq), n_players)


def utility_from_log_overlap(log_overlap_plus_sq: float, n_players: int) -> float:
    """Utility from log o+; the log-domain companion of utility_from_overlap."""
    _check_players(n_players)
    if log_overlap_plus_sq > 1e-9:
        raise ValueError("log squared overlap must be <= 0")
    return (math.ceil(n_players / 2) - 1) * LOG2 + log_overlap_plus_sq


def utility_clean(g: float, n_sites: int) -> float:
    """Utility chi(g) of the clean chain at uniform coupling g.

    Evaluated by summing the per-mode angle differences against the g -> 0+
    reference,

        chi = (ceil(N/2) - 1) log 2 + sum_{k>0} log cos^2((theta_k - theta_k^0)/2),

    where 2 cos^2((theta_k - theta_k^0)/2) = q_k / eps_k with
    q_k = eps_k + 1 - g cos k from ``free_fermion._modes``, so no
    determinant is involved and the clean baseline is cheap at any N.
    """
    eps, q, _, _ = _modes(g, allowed_wavenumbers(n_sites))
    return (math.ceil(n_sites / 2) - 1) * LOG2 + float(np.sum(np.log(q / eps)) - eps.size * LOG2)


def _density_integrand(k: float, g: float) -> float:
    # Per-site limit of chi/N: the (N/2 - 1) log 2 prefactor cancels the
    # -log 2 per mode, leaving log(q/eps).  Scalar twin of free_fermion._modes,
    # since a numpy call per node would dominate quad.
    versine = 2.0 * math.sin(0.5 * k) ** 2
    eps = math.sqrt((1.0 - g) ** 2 + 2.0 * g * versine)
    rest = (1.0 - g) + g * versine
    outer = eps + abs(rest)
    return math.log((outer if rest >= 0.0 else (g * math.sin(k)) ** 2 / outer) / eps)


def advantage_density(g: float) -> float:
    """Thermodynamic utility density b(g) = lim_N chi(g)/N.

    Adaptive quadrature of (1/2 pi) log(1 + (1 - g cos k)/eps_k) over
    k in (0, pi).  The integrand develops a sharp feature (for g > 1 an
    integrable log singularity) at k -> 0 when g is near 1, so the interval
    is split there.  Absolute accuracy 1e-10 or a NumericsError.
    """
    if g <= 0.0 or not math.isfinite(g):
        raise ValueError("coupling must be positive and finite")
    if g == 1.0:
        warnings.warn(
            "advantage density is continuous but not smooth at g = 1",
            stacklevel=2,
        )
    gap = abs(1.0 - g)
    if 1e-12 < gap < 0.3:
        cuts = [0.0, min(0.3, 8.0 * gap), np.pi]
    else:
        cuts = [0.0, np.pi]
    total = 0.0
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        with warnings.catch_warnings():
            # the returned abserr is gated below; the advisory warning about
            # the k -> 0 log singularity (g > 1) is expected and harmless
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, abserr = integrate.quad(
                _density_integrand, lo, hi, args=(g,), epsabs=1e-11, epsrel=1e-11, limit=400
            )
        total += val
        err += abserr
    if err > QUAD_TOL:
        raise NumericsError(
            f"advantage-density quadrature did not converge (error {err:.3e})"
        )
    return total / (2.0 * np.pi)


def find_advantage_boundary(bracket=(1.4, 1.6)) -> float:
    """Coupling g* where b(g) changes sign, by Brent's method to 1e-12 in g.

    The advantage density is positive below g* and negative above; g* is
    where the chain stops beating the best classical strategy in the
    thermodynamic limit.
    """
    lo, hi = bracket
    b_lo = advantage_density(lo)
    b_hi = advantage_density(hi)
    if not (b_lo > 0.0 > b_hi):
        raise NumericsError(
            f"advantage boundary not bracketed by ({lo}, {hi}): b = ({b_lo:.3e}, {b_hi:.3e})"
        )
    return optimize.brentq(advantage_density, lo, hi, xtol=1e-12)


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
