"""Exact free-fermion solution of transverse-field Ising chains on a ring.

The chain

    H = -sum_j Z_j Z_{j+1} - sum_j g_j X_j        (periodic, all g_j > 0)

maps under a Jordan-Wigner transformation to quadratic fermions.  Everything
here works in the even fermion-parity sector, which contains the ground state
for positive fields, so the fermions obey antiperiodic boundary conditions and
only even chain lengths are supported.

Following Lieb, Schultz & Mattis (Ann. Phys. 16, 407 (1961)), the hopping
block A (symmetric) and pairing block B (antisymmetric) of the quadratic form
enter only through one real N x N matrix,

    Z = A - B:   Z_jj = g_j,   Z_{j+1,j} = -1,   Z_{0,N-1} = +1,

where the flipped wrap-around bond is the antiperiodic boundary condition
(``chain_matrix``).  The singular values of Z are the quasiparticle
energies, and its orthogonal polar factor W = U V^T (Z = U diag(s) V^T)
fixes the ground state: up to a convention-dependent sign, W is the
off-diagonal block of its Majorana covariance matrix.  The
squared overlap of two such Gaussian states follows from their covariances
(Bravyi, QIC 5, 216 (2005)),

    |<psi_a|psi_b>|^2 = |det((W_a + W_b) / 2)|,

evaluated in log space so that exponentially small GHZ overlaps survive to
large N.  The GHZ reference is the g -> 0+ limit, whose factor W0 = Z(g = 0)
is a signed cyclic shift, so W0^T W is a row roll of W with one sign flip.

Z is never singular: its only permutation terms are the diagonal and the
N-cycle, so det Z = prod_j g_j + 1 > 0 and W is unique.  ``ChainOverlap``
is the one overlap route, and ``ghz_log_overlap_squared`` is a single call
of a fresh one.  It avoids the SVD of Z where it can, and takes each
chain's W by one of two routes:

- Newton-Schulz, for every chain with no field above NEWTON_SCHULZ_FIELD_MAX,
  whatever its length or gap: W is the limit of
  X <- alpha X (3I - alpha^2 X^T X) / 2
  (Higham, *Functions of Matrices*, SIAM 2008, ch. 8).  Z^-1 has a closed
  form with no cancellation, which bounds s_min(Z) from below in O(N)
  (``_singular_ratio_bound``), and |Z|_2 <= max g + 1.  With
  Y = Z / (max g + 1), where every prefix product of the fields stays
  within e^+-230, X_0 = Y phi(Y^T Y), phi(h) = a + c h + b / h, has the
  polar factor of Z: a three-term seed fitted to each of a few bounds,
  whose Y Y^T Y has four cyclic diagonals, or below them one scaled Newton
  step (c = 0), with Y^-T written from the closed form; elsewhere X_0 = Y.
  Z is diag(g) plus an orthogonal signed shift, so by Weyl's inequality
  s_min(Z) >= max(g_min - 1, 1 - g_max), positive on a gapped chain
  (``_newton_start``).  The scalings alpha follow a Chen-Chow schedule for
  the highest of a few fixed lower ends at or below that of X_0, or for
  NEWTON_SCHULZ_FLOOR if it is lower or unknown, and each step is two
  matrix products.  The last step is folded into the overlap determinant:
  with E = X^T X - I, W = X (I + E)^(-1/2), so
  log o+ = log|det(((I + E)^(1/2) + W0^T X) / 2)| - log det(I + E) / 2,
  and once I + E/2 stands in for the square root to NEWTON_SCHULZ_TOL, from
  one step before the schedule closes, tr E / 2 - |E|_F^2 / 4 stands in for
  the second term.  A chain not converged after NEWTON_SCHULZ_STEPS steps
  takes the SVD.
- The dense SVD Z = U diag(s) V^T, for those chains and for every chain
  with a field above NEWTON_SCHULZ_FIELD_MAX.  Fields of strong
  contrast can push one domain wall's singular value below the floor
  N eps s_max; its singular pair then fixes W only up to the relative sign
  of u_N and v_N, and since det W = sign(det Z) = +1, the last column of U
  is flipped when det U det V^T < 0.  Two unresolved singular values
  (separate ferromagnetic domains) raise.

Both routes are numpy's; no part of scipy is used.

Conventions: sites are indexed 0..N-1, positive wavenumbers are the odd
multiples k = (2m+1) pi/N in (0, pi), and the Bogoliubov angle satisfies
sin(theta_k) = sin(k)/eps_k, cos(theta_k) = (g - cos k)/eps_k with
eps_k^2 = (1 - g)^2 + 4 g sin^2(k/2), and q_k = eps_k + 1 - g cos k =
2 eps_k cos^2((theta_k - theta_k^0)/2) against the g -> 0+ angle pi - k.
``_modes`` writes them once, without subtraction near g = 1 and k = 0.
In the N -> oo limit a mode sum (1/N) sum_k becomes (1/2 pi) times an
integral over (0, pi), which ``wavenumber_integral`` evaluates by one
graded Gauss-Legendre rule for every thermodynamic quantity.
"""

import functools
import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError

UNITARITY_TOL = 1e-10
# Raw determinants may exceed 1 by roundoff; anything worse than this slack
# indicates a genuine numerical failure rather than noise.
OVERLAP_SLACK = 1e-8
# Largest field of a chain that ChainOverlap starts on Newton-Schulz: it keeps the
# scale max g + 1, and 1 / (max g + 1) and its square in the X_0 that _write_start
# writes, far from overflow and underflow.  A chain with a larger field takes the SVD.
NEWTON_SCHULZ_FIELD_MAX = 1e150
# Newton-Schulz steps a chain may take; one that has not converged by then takes the SVD.
NEWTON_SCHULZ_STEPS = 20
# Lowest l of the singular-value interval (l, 1] of a Newton-Schulz start that a
# Chen-Chow scaling schedule is built for: the whole schedule of every unseeded
# chain that straddles 1, and of every start whose own lower end is lower.
NEWTON_SCHULZ_FLOOR = 3e-2
# Shortest chain on which a Newton-Schulz step forms X^T X by matmul's
# shared-operand product (syrk) rather than a copy and gemm.  Per chain, one
# BLAS thread, copy + gemm against shared: N = 40 3.0 / 5.9 us, 80 21.5 / 24.1,
# 96 37 / 37, 120 96 / 63, 200 395 / 224.
SHARED_GRAM_SITES = 96
# A Newton-Schulz iterate X, E = X^T X - I, has converged once delta^2 / (8 (1 - delta)^(3/2)),
# delta = |E|_F, which bounds what I + E/2 leaves out of (I + E)^(1/2) when its last step is
# folded into the overlap determinant, is at most this times N eps, or for a gapped chain this
# times sqrt(N) eps, about where the rounding of a converged Gram lies: log o+ moves by up to
# ~N times it, 6e-12 at 4 N eps and N = 200.
NEWTON_SCHULZ_TOL = 4.0
# Matrix entries (chains x N x N) in each stack-sized scratch array of
# ChainOverlap, 256 KiB apiece: a stack holds max(1, STACK_ENTRIES // N^2) chains.
STACK_ENTRIES = 1 << 15
# Gauss-Legendre orders of wavenumber_integral: the value, then its error gauge.
LEGENDRE_ORDERS = (24, 12)
# Bracket width at which bracketed_root stops, and the steps it may take to get there.
ROOT_TOL = 1e-12
ROOT_STEPS = 100

_log = logging.getLogger(__name__)


def _check_length(n_sites: int) -> None:
    """Raise ValueError unless ``n_sites`` is an even integer chain length of at least 4."""
    if not isinstance(n_sites, numbers.Integral) or n_sites < 4 or n_sites % 2:
        raise ValueError(f"chain length must be even and >= 4, got {n_sites!r}")


def _check_couplings(g) -> None:
    """Raise ValueError unless every coupling in g, a float or an array, is positive and finite."""
    if not np.all((np.asarray(g) > 0.0) & np.isfinite(g)):
        raise ValueError("coupling must be positive and finite")


def as_couplings(values, stacked: bool = False) -> np.ndarray:
    """The fields g_j of one chain, or of an (M, N) stack of chains if ``stacked``, as float64.

    Each chain is held to ``_check_length`` and every field to ``_check_couplings``.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 + stacked:
        raise ValueError(
            "a stack of couplings must be two-dimensional, one chain per row"
            if stacked
            else "couplings must be a one-dimensional sequence"
        )
    _check_length(g.shape[-1])
    _check_couplings(g)
    return g


@dataclass(frozen=True)
class BogoliubovSpectrum:
    """Single-particle data of a clean chain at uniform coupling."""

    coupling: float
    wavenumbers: np.ndarray
    energies: np.ndarray
    sin_theta: np.ndarray
    cos_theta: np.ndarray


def allowed_wavenumbers(n_sites: int) -> np.ndarray:
    """Positive antiperiodic wavenumbers (2m+1) pi/N, m = 0..N/2-1."""
    _check_length(n_sites)
    return np.pi * (2.0 * np.arange(n_sites // 2) + 1.0) / n_sites


@functools.lru_cache(maxsize=len(LEGENDRE_ORDERS))
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def wavenumber_integral(rule, floor: float, tol: float, label: str) -> tuple:
    """The N -> oo counterpart of ``allowed_wavenumbers``: an integral over k in (0, pi).

    ``rule(k, w)`` applies one quadrature rule, nodes k and weights w, to the
    integrand: ``w @ f(k)`` in one dimension, ``w @ F(k, k) @ w`` for a
    tensor rule in two.  It may also return one value per coupling of a
    grid, an array, evaluated on the same nodes.  The rule is Gauss-Legendre
    on panels graded toward k = 0, where the modes vary on the scale |1 - g|:
    the breakpoints are pi 4^-j for j = 0, 1, ... down to the first at or
    below ``floor``, then 0.  Returns the value of the 24-node rule and, as
    its error, the distance from the 12-node rule on the same panels: floats
    for a scalar rule, arrays for an array rule.  An error above ``tol``,
    anywhere on a grid, is a NumericsError.  Each call logs one DEBUG record
    with the label, the largest error, the node count per axis and its seconds.
    """
    started = time.perf_counter()
    edges = [np.pi]
    while edges[-1] > floor:
        edges.append(edges[-1] / 4.0)
    edges = np.array([0.0, *reversed(edges)])
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    value, coarse = (
        np.asarray(rule((lo + half * (x + 1.0)).ravel(), (half * w).ravel()), dtype=float)
        for x, w in map(_legendre, LEGENDRE_ORDERS)
    )
    error = np.abs(value - coarse)
    worst = float(np.max(error, initial=0.0))
    _log.debug("%s: error %.3e over %d nodes in %.3g s", label, worst, half.size * LEGENDRE_ORDERS[0], time.perf_counter() - started)
    if not worst <= tol:
        raise NumericsError(f"{label} quadrature did not converge (error {worst:.3e} > {tol:.1e})")
    return (float(value), float(error)) if value.ndim == 0 else (value, error)


def bracketed_root(f, bracket, label: str) -> float:
    """Root of f between the ends of ``bracket`` to ROOT_TOL, by the Illinois method.

    Regula falsi that halves the value held at an end each further time the
    same end is kept (Dowell & Jarratt, BIT 11, 168 (1971)), so both ends
    close in on the root.  Each new point lies at least ROOT_TOL / 2 inside
    the ends, so once one end has converged the next step lands across it
    and the bracket closes.  Returns the point of least |f| evaluated.  f
    must take strictly opposite signs at the two ends, in either order, and
    a finite value at every point; otherwise, or if the bracket is still
    wider than ROOT_TOL after ROOT_STEPS steps, NumericsError.  Logs one
    DEBUG record with the label, the root, the evaluation count and the
    final bracket width.
    """

    def value(x):
        y = float(f(x))
        if not math.isfinite(y):
            raise NumericsError(f"{label} is {y} at {x!r}")
        return y

    lo, hi = bracket
    a, b = sorted((float(lo), float(hi)))
    fa, fb = value(a), value(b)
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise NumericsError(f"{label} not bracketed by ({lo}, {hi}): ({fa:.3e}, {fb:.3e})")
    root, f_root = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    kept, steps = 0, 0  # kept: +1 after a step that kept b, -1 after one that kept a
    while b - a > ROOT_TOL and f_root != 0.0:
        if steps == ROOT_STEPS:
            raise NumericsError(f"{label} bracket still {b - a:.1e} wide after {steps} steps")
        steps += 1
        x = min(max(a - fa * (b - a) / (fb - fa), a + 0.5 * ROOT_TOL), b - 0.5 * ROOT_TOL)
        fx = value(x)
        if abs(fx) <= abs(f_root):
            root, f_root = x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if kept > 0:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept < 0:
                fa *= 0.5
            kept = -1
    _log.debug("%s: root %.17g after %d evaluations, bracket %.1e", label, root, steps + 2, b - a)
    return root


def _modes(g, k):
    """(eps, q, cos theta, sin theta) of the clean chain at couplings g and wavenumbers k.

    g is a float or an array that broadcasts against k (a column of
    couplings against a row of wavenumbers gives one chain per row); k has
    any shape.  q = eps + 1 - g cos k, or g^2 sin^2 k / (eps - 1 + g cos k)
    where g cos k > 1.
    """
    _check_couplings(g)
    k = np.asarray(k, dtype=float)
    versine = 2.0 * np.sin(0.5 * k) ** 2  # 1 - cos k
    sk = np.sin(k)
    eps = np.sqrt((1.0 - g) ** 2 + 2.0 * g * versine)
    rest = (1.0 - g) + g * versine  # 1 - g cos k
    outer = eps + np.abs(rest)
    q = np.where(rest >= 0.0, outer, (g * sk) ** 2 / outer)
    return eps, q, ((g - 1.0) + versine) / eps, sk / eps


def bogoliubov_spectrum(g: float, n_sites: int) -> BogoliubovSpectrum:
    """Dispersion and Bogoliubov angle of the clean chain over k > 0.

    The g -> 0+ limit is reached smoothly: eps_k -> 1, cos(theta_k) -> -cos k,
    sin(theta_k) -> sin k.
    """
    k = allowed_wavenumbers(n_sites)
    eps, _, cos_theta, sin_theta = _modes(g, k)
    return BogoliubovSpectrum(g, k, eps, sin_theta, cos_theta)


def _chen_chow_schedule(low: float) -> tuple[tuple, int]:
    """Newton-Schulz coefficients (c_I, c_E) for singular values in (low, 1], and the steps that close it.

    A step X <- alpha X (3I - alpha^2 X^T X) / 2 maps a singular value s to
    p(alpha s) with p(x) = x (3 - x^2) / 2.  alpha_k = sqrt(3 / (1 + l + l^2))
    makes p(alpha l) = p(alpha), so (l, 1] maps into (l', 1] with
    l' = p(alpha l) (Chen & Chow, SIAM J. Sci. Comput. 36, A2680 (2014)).
    The schedule ends once alpha is within 1e-3 of 1, where the plain step
    takes over.  In terms of E = X^T X - I a step is X (c_I I + c_E E) with
    c_I = (3 alpha - alpha^3) / 2 and c_E = -alpha^3 / 2.  The interval
    closes at the step after which its lower end is within eps of 1.
    """
    steps = []
    while (alpha := math.sqrt(3.0 / (1.0 + low + low * low))) > 1.0 + 1e-3:
        steps.append((1.5 * alpha - 0.5 * alpha**3, -0.5 * alpha**3))
        low = 0.5 * alpha * low * (3.0 - (alpha * low) ** 2)
    closing = len(steps)
    while low < 1.0 - np.finfo(float).eps and closing < NEWTON_SCHULZ_STEPS:
        low, closing = 0.5 * low * (3.0 - low**2), closing + 1
    return tuple(steps), closing


@functools.lru_cache(maxsize=1)
def _schedule_grid(floor: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The Newton-Schulz schedules: ascending interval ends, (coefficients, closing step) of each, and its first check.

    A start whose singular values lie in (l, 1] takes schedule
    ``searchsorted(ends, l, "right")``.  Schedule 0 is the one for ``floor``,
    run on from its end: it serves the unseeded chains that straddle 1
    (l <= 0) and every start whose l lies below the floor.  A start with
    l >= ``floor`` takes schedule j >= 1, built for ends[j - 1]: ``floor``
    itself, then for each step count s below the floor's the lowest end (to
    ~1e-12) whose interval closes within s steps.  The interval (l, 1] lies
    inside that end's, so its schedule serves l and closes it as fast as l's
    own would.  A chain is checked from one step before its schedule closes
    (schedule 0: one before its end), where the last step can be folded into
    the overlap determinant.  (The closing test meets the last ulp below 1, so
    some ends up to ~2% below a grid end close a step sooner on their own:
    0.4% of them.)
    """
    steps, closing = _chen_chow_schedule(floor)
    ends = [floor]
    for bound in range(closing - 1, -1, -1):  # the lowest end that closes within bound steps, by bisection
        lo, hi = ends[-1], 1.0
        for _ in range(40):
            lo, hi = (lo, mid) if _chen_chow_schedule(mid := 0.5 * (lo + hi))[1] <= bound else (mid, hi)
        ends.append(hi)
    schedules = ((steps, len(steps)), *map(_chen_chow_schedule, ends))
    return np.array(ends), schedules, np.array([closes - 1 for _, closes in schedules])


def _groups(entry: np.ndarray, grid: tuple) -> list:
    """(slice, coefficients) of each run of one schedule in a sorted ``entry``."""
    return [(slice(*entry.searchsorted((j, j + 1))), grid[j][0]) for j in dict.fromkeys(entry.tolist())]


def _reach(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l = max|log g| of each chain of an (M, N) stack, and whether it lies in the direct range N l <= 230.

    There every |log G_t| <= N l, G_t = g_0 ... g_{t-1}, so no product of three
    G_t, nor N of those summed, leaves the normal range.
    """
    reach = np.maximum(np.log(g.max(axis=1)), -np.log(g.min(axis=1)))
    return reach, g.shape[1] * reach <= 230.0


def _in_range(g: np.ndarray) -> np.ndarray:
    """Whether every |log G_t| <= 230, G_t = g_0 ... g_{t-1}, for each chain of an (M, N) stack.

    There no product of three G_t leaves the normal range, so ``_write_start``
    can write Z^-T from them directly.  It holds on the direct range of ``_reach``.
    """
    return np.abs(np.cumsum(np.log(g), axis=1)).max(axis=1) <= 230.0


def _prefix_products(g: np.ndarray) -> np.ndarray:
    """G_t = g_0 ... g_{t-1}, t = 0..N, of each chain of an (M, N) stack ``_in_range``, one chain per column.

    Z^-1 is written in them, with no cancellation:
    (Z^-1)_{r, c} = G_c / G_{r+1} G_N / (G_N + 1) for r >= c and
    -G_c / (G_{r+1} (G_N + 1)) for r < c, the entries whose path crosses the
    wrap bond.
    """
    products = np.ones((g.shape[1] + 1, len(g)))
    np.cumprod(g.T, axis=0, out=products[1:])
    return products


def _singular_ratio_bound(g: np.ndarray) -> np.ndarray:
    """A proven lower bound on s_min / s_max of Z for each chain of an (M, N) stack, in O(N) per chain.

    By ``_prefix_products``, column c of |Z^-1| sums to G_c
    (G_N sum_{c<t<=N} 1/G_t + sum_{0<t<=c} 1/G_t) / (G_N + 1), in logs outside
    the direct range N l <= 230, l = max|log g| (``_reach``), and the rows
    are the columns for the reversed fields (Z^T reindexed).
    s_min >= 1 / sqrt(|Z^-1|_1 |Z^-1|_oo) (Golub & Van Loan, *Matrix
    Computations*, sec. 2.3) and s_max <= max g + 1.  With
    log, exp and log1p within 4 ulps, sums of logs are off by (4 + N/2) N l
    eps and sums over them add (N/2) eps (N l + log N) + 6 N eps: the result
    is lowered by 3 N (N + 10)(1 + l) eps.  Before rounding it is never below
    Weyl's bound max(g_min - 1, 1 - g_max) / (max g + 1), as on a gapped chain
    each sum is at most 1 / (g_min - 1) or 1 / (1 - g_max); Weyl's, less 4 eps
    for its three roundings, is taken where the margin pulls the result below.
    """
    m, n = g.shape
    top = g.max(axis=1)
    reach, direct = _reach(g)
    log_norm = np.empty((2, m))  # log of the largest column sum, of the chains and of them reversed
    for side, chains in enumerate((g, g[:, ::-1])):
        if direct.any():
            products = _prefix_products(chains[direct])
            after = 1.0 / products[1:]  # 1/G_t, t = 1..N, summed in place from the end below
            before = np.zeros_like(after)
            np.cumsum(after[:-1], axis=0, out=before[1:])
            np.cumsum(after[::-1], axis=0, out=after[::-1])
            after *= products[-1]
            after += before
            after *= products[:-1]
            log_norm[side, direct] = np.log(after.max(axis=0) / (products[-1] + 1.0))
            del products, after, before  # freed before the reversed chains' are made: a call's peak memory
        if not direct.all():
            falling = np.zeros((n + 1, np.count_nonzero(~direct)))  # -log G_t
            np.cumsum(-np.log(chains[~direct].T), axis=0, out=falling[1:])
            before = np.full((n, falling.shape[1]), -np.inf)
            np.logaddexp.accumulate(falling[1:-1], axis=0, out=before[1:])
            after = np.logaddexp.accumulate(falling[:0:-1], axis=0)[::-1] - falling[-1]
            log_norm[side, ~direct] = (np.logaddexp(after, before) - falling[:-1] - np.logaddexp(0.0, -falling[-1])).max(axis=0)
    eps = np.finfo(float).eps
    weyl = np.maximum(g.min(axis=1) - 1.0, 1.0 - top) / (top + 1.0) * (1.0 - 4.0 * eps)
    closed = np.exp(-0.5 * log_norm.sum(axis=0)) / (top + 1.0) * (1.0 - 3.0 * n * (n + 10) * (1.0 + reach) * eps)
    return np.maximum(closed, weyl)


# The three-term Newton-Schulz starts, one row (r_k, a, c, b, l) per schedule end of
# _schedule_grid above the floor.  f(x) = a x + c x^3 + b / x maps [r_k, 1] into [l, 1]:
# its interior extrema solve 3 c x^4 + a x^2 - b = 0, and tests check the bounds there and
# on a dense grid.  l enters the schedule that closes in 8, 7, ..., 2 steps.  Fitted by a
# linear program on a 20 000-point grid with a 1% margin on r_k, then normalized by the
# closed-form maximum (less 1e-11); never solved for at run time.
_SEED_ROWS = np.array([
    (1.05655e-4, 2.58098646943, -2.54807035991, 1.05626188501e-4, 0.033021),
    (7.07907e-4, 2.55177112018, -2.46756200049, 7.06628225629e-4, 0.084915),
    (4.49257e-3, 2.46961974464, -2.26474277532, 4.44272612983e-3, 0.209319),
    (2.63363e-2, 2.23590561605, -1.79199844852, 2.47863364025e-2, 0.468693),
    (0.129191, 1.71025474633, -0.995859328617, 0.100923626702, 0.815319),
    (0.450171, 1.0971418756, -0.354591050468, 0.242393451318, 0.984944),
    (0.873163, 0.802364141221, -0.152538252804, 0.350096246709, 0.999922),
])


def _newton_start(g: np.ndarray, low: np.ndarray, bound: np.ndarray) -> tuple:
    """(a, c, b, l) of each chain of a (k, N) stack: X_0 = a Y + c Y Y^T Y + b Y^-T, Y = Z / (max g + 1), has its singular values in [l, 1].

    X_0 = Y phi(Y^T Y) with phi(h) = a + c h + b / h > 0 on the spectrum, so
    it has the polar factor of Z and maps each singular value x of Y to
    f(x) = a x + c x^3 + b / x, and x lies in [r, 1] for r the ``bound`` of
    ``_singular_ratio_bound``.  A chain ``_in_range`` takes the highest row
    of _SEED_ROWS with r_k <= r, and below the lowest one scaled Newton step,
    c = 0, a = 1 / (2 ell sqrt r) and b = sqrt r / (2 ell), which maps
    [r, 1] into [1 / ell, 1] for ell = (sqrt r + 1 / sqrt r) / 2 (Higham,
    *Functions of Matrices*, ch. 8).  Elsewhere X_0 = Y, b = c = 0 and
    l = ``low``, Weyl's bound max(g_min - 1, 1 - g_max) / (max g + 1).
    """
    k = len(g)
    a, c, b, lower = np.ones(k), np.zeros(k), np.zeros(k), low.copy()
    seeded = _in_range(g)
    row = np.searchsorted(_SEED_ROWS[:, 0], bound, side="right") - 1
    fitted, newton = seeded & (row >= 0), seeded & (row < 0)
    a[fitted], c[fitted], b[fitted], lower[fitted] = _SEED_ROWS[row[fitted], 1:].T
    root = np.sqrt(bound[newton])
    ell = 0.5 * (root + 1.0 / root)
    a[newton], b[newton], lower[newton] = 0.5 / (ell * root), 0.5 * root / ell, 1.0 / ell
    return a, c, b, lower


def _write_start(g, scale, a, c, b, out, below=None) -> None:
    """X_0 = a Y + c Y Y^T Y + b Y^-T, Y = Z / scale, of each chain of a (k, N) stack into ``out``, (k, N, N).

    b Y^-T = b scale Z^-T comes from ``_prefix_products`` as one outer
    product, b scale G_c G_N / (G_N + 1) times 1 / G_{r+1} at [c, r], whose
    entries below the diagonal (``below``, ``np.tri(N, k=-1, dtype=bool)``,
    needed where some b > 0), the paths across the wrap bond, are then
    scaled by -1 / G_N in place.  Strided adds put in the rest.  Y has
    u = g / scale on its diagonal and t = 1 / scale on the signed shift,
    and Y Y^T Y has four cyclic diagonals, [j, j] = u_j^3 + 2 t^2 u_j,
    [j, j+1] = -t u_j u_{j+1}, [j, j-1] = -t (u_j^2 + u_{j-1}^2 + t^2) and
    [j, j-2] = t^2 u_{j-1}, each with its sign flipped where it wraps, at
    [N-1, 0], [0, N-1], [0, N-2] and [1, N-1]; it is only formed where
    c != 0, from u <= 1 and t <= 1, so no power of a field overflows.  A
    chain with b = 0 needs no prefix products, and scale = a = 1, b = c = 0
    give exactly Z.
    """
    k, n = g.shape
    seeded = b > 0.0
    if seeded.any():
        by_row, by_column, crossing = np.zeros((k, n)), np.ones((k, n)), np.ones(k)
        products = _prefix_products(g[seeded])
        total = products[-1]
        by_row[seeded] = (products[:-1] * (b[seeded] * scale[seeded] * total / (total + 1.0))).T
        by_column[seeded] = (1.0 / products[1:]).T
        crossing[seeded] = -1.0 / total
        np.multiply(by_row[:, :, None], by_column[:, None, :], out=out)
        np.multiply(out, crossing[:, None, None], out=out, where=below)
    else:
        out.fill(0.0)
    flat = out.reshape(k, n * n)
    u, t = g / scale[:, None], 1.0 / scale
    flat[:, :: n + 1] += a[:, None] * u
    flat[:, n :: n + 1] -= (a * t)[:, None]
    out[:, 0, -1] += a * t
    if not c.any():
        return
    ct, tt = (c * t)[:, None], (t * t)[:, None]
    square = u * u
    flat[:, :: n + 1] += c[:, None] * u * (square + 2.0 * tt)
    flat[:, 1 :: n + 1] -= ct * u[:, :-1] * u[:, 1:]
    out[:, -1, 0] += ct[:, 0] * u[:, -1] * u[:, 0]
    flat[:, n :: n + 1] -= ct * (square[:, 1:] + square[:, :-1] + tt)
    out[:, 0, -1] += ct[:, 0] * (square[:, 0] + square[:, -1] + tt[:, 0])
    ctu = c[:, None] * tt * u  # c t^2 u_j
    flat[:, 2 * n :: n + 1] += ctu[:, 1:-1]
    out[:, 0, -2] -= ctu[:, -1]
    out[:, 1, -1] -= ctu[:, 0]


def chain_matrix(couplings) -> np.ndarray:
    """The even-sector chain matrix Z = A - B at fields g_j.

    Fields on the diagonal, -1 on the subdiagonal, and +1 in the corner
    (0, N-1) for the antiperiodic wrap-around bond.
    """
    g = as_couplings(couplings)[None]
    z = np.empty((1, g.size, g.size))
    one, zero = np.ones(1), np.zeros(1)
    _write_start(g, one, one, zero, zero, z)
    return z[0]


class _Plan(NamedTuple):
    """Per chain of a call: max g, the seed (a, c, b), the schedule and the tolerance.

    ``entry`` is the ``_schedule_grid`` schedule of a chain that starts on
    Newton-Schulz, and -1 for one that takes the SVD; ``tolerance`` is its
    freeze tolerance.
    """

    top: np.ndarray
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray
    entry: np.ndarray
    tolerance: np.ndarray

    def part(self, chains) -> "_Plan":
        """The plan of the chains an index or slice picks."""
        return _Plan(*(field[chains] for field in self))


class ChainOverlap:
    """The GHZ-overlap kernel for chains of one length, scoring stacks of chains.

    Calling the object with an (M, N) array of fields, one chain per row,
    returns the M values of log o+; a field vector is the stack of one and
    returns a float.  ``polar`` returns W of one chain.  A call works
    through its chains ``stack`` = max(1, STACK_ENTRIES // N^2) at a time,
    on (stack, N, N) scratch that the object keeps between calls, so its
    scratch is bounded at any N and any call size.  A call bounds, seeds
    and orders its chains once (``_plan``, with ``_singular_ratio_bound``'s
    few (N + 1) x M arrays) and stable-sorts them, SVD first, then
    Newton-Schulz by schedule, unless they are in order already; each
    stack is a run of that order, and its values go back to the chains'
    places.  Every chain starts on Newton-Schulz, whatever its length or
    gap, except one with a field above NEWTON_SCHULZ_FIELD_MAX, which goes
    to the SVD, as does a chain that Newton-Schulz does not converge.  Only
    the SVD runs once per chain; every other step is one numpy operation
    over the stack.
    Each chain takes the route, and gets the value, that it would alone,
    whatever stack it is scored in.  The constructor checks the length and
    allocates scratch for one chain, growing to the largest stack a call has
    scored, so a fresh object for one chain is cheap and calls no LAPACK.

    Every check applies to every chain of a stack: field validation, a
    solver failure (NumericsError), the SVD's floor, UNITARITY_TOL on each
    W it forms, and a finite overlap, log o+ <= OVERLAP_SLACK.  A chain that
    fails one raises for its whole call.  Over its calls the object counts
    its chains by route, ``newton_schulz_chains`` and ``svd_fallbacks``,
    whose sum is ``evaluations``, and of the Newton-Schulz chains those it
    started from a seed written with Z^-T (``newton_seeded_chains``).  It records the
    most Newton-Schulz steps a converged chain took, not counting the seed
    (``max_newton_schulz_steps``), the worst defect (``max_defect``:
    max|W^T W - I| of each W it formed, and for a chain whose last
    Newton-Schulz step it folded into the determinant the bound on what the
    fold leaves out), and the least ``_singular_ratio_bound`` of its chains
    (``singular_ratio_bound``, 1 before the first).
    The scratch is reused, so one object must not be shared between threads.
    """

    def __init__(self, n_sites: int):
        _check_length(n_sites)
        self.n_sites = n_sites
        self.stack = max(1, STACK_ENTRIES // n_sites**2)
        self._floor = n_sites * np.finfo(float).eps  # s_min <= _floor * s_max is unresolved
        self._below = np.tri(n_sites, k=-1, dtype=bool)  # for _write_start
        self._allocate(1)
        self.newton_schulz_chains = self.newton_seeded_chains = self.max_newton_schulz_steps = 0
        self.svd_fallbacks = 0
        self.max_defect = 0.0
        self.singular_ratio_bound = 1.0

    @property
    def evaluations(self) -> int:
        """Chains scored over the object's calls, on every route."""
        return self.newton_schulz_chains + self.svd_fallbacks

    def _allocate(self, rows: int) -> None:
        """Scratch for stacks of up to ``rows`` chains."""
        n = self.n_sites
        self._x, self._spare, self._gram, self._squares, self._w, self._m = (
            np.empty((rows, n, n)) for _ in range(6)
        )
        self._gram_diagonal, self._m_diagonal = (a.reshape(rows, -1)[:, :: n + 1] for a in (self._gram, self._m))

    def _fields(self, couplings) -> np.ndarray:
        """Validated fields as an (M, N) stack."""
        g = as_couplings(couplings, stacked=True)
        if g.shape[1] != self.n_sites:
            raise ValueError(f"expected {self.n_sites} couplings, got {g.shape[1]}")
        return g

    def polar(self, couplings) -> np.ndarray:
        """The orthogonal polar factor W of Z at fields g, one chain.

        A Newton-Schulz chain takes the last step that an overlap call folds
        away, and its W is held to UNITARITY_TOL like the SVD's.

        The result is scratch that the object's next call overwrites.
        """
        g = self._fields(np.asarray(couplings, dtype=float)[None])
        return self._polar(g, self._plan(g), None)[0]

    def _plan(self, g: np.ndarray) -> _Plan:
        """The ``_Plan`` of each chain of a call's fields g, by the routes of the class docstring; keeps the least bound."""
        bound = _singular_ratio_bound(g)
        self.singular_ratio_bound = min(self.singular_ratio_bound, float(bound.min()))
        n = self.n_sites
        top = g.max(axis=1)
        newton = top <= NEWTON_SCHULZ_FIELD_MAX
        # s_min(Z) >= low (max g + 1) by Weyl, and |Z|_2 <= max g + 1
        low = np.maximum(g.min(axis=1) - 1.0, 1.0 - top) / (top + 1.0)
        a, c, b, lower = _newton_start(g, low, bound)  # of every chain: only those in range are seeded
        entry = np.where(newton, np.searchsorted(_schedule_grid(NEWTON_SCHULZ_FLOOR)[0], lower, side="right"), -1)
        tolerance = NEWTON_SCHULZ_TOL * np.finfo(float).eps * np.where(low > 0.0, math.sqrt(n), n)
        return _Plan(top, a, c, b, entry, tolerance)

    def _polar(self, g: np.ndarray, plan: _Plan, correction) -> np.ndarray:
        """The (k, N, N) polar factors of k <= stack chains, each by the route of its ``plan``.

        Newton-Schulz takes the chains that its plan starts on it, which
        must come last and in order of schedule, as a call sorts them, and
        checks those it converges; the SVD takes the rest, and every W it
        forms is then held to UNITARITY_TOL, its chain counted in
        ``svd_fallbacks``.  With a (k,) ``correction`` of NaN, Newton-Schulz
        folds its last step into the overlap determinant: a chain it
        converges holds its overlap matrix M in place of W, and its entry of
        ``correction`` turns finite (see ``_newton_schulz_polar``).  With
        None it takes that step, and its W is held to UNITARITY_TOL too.
        """
        k = len(g)
        if k > len(self._w):
            self._allocate(k)
        w = self._w[:k]
        svd = plan.entry < 0
        svd[self._newton_schulz_polar(g, np.flatnonzero(~svd), plan, w, correction)] = True
        held = np.flatnonzero(svd)
        self.svd_fallbacks += held.size
        for row in held:
            self._svd_polar(g[row], w[row])
        if correction is None:
            held = np.arange(k)
        if not held.size:
            return w
        # gathered into warm scratch: a fresh array pays its page faults
        checked = w if held.size == k else np.take(w, held, axis=0, out=self._m[: held.size], mode="wrap")
        gram = np.matmul(checked.transpose(0, 2, 1), checked, out=self._gram[: held.size])
        self._gram_diagonal[: held.size] -= 1.0
        defect = float(np.abs(gram, out=gram).max())
        self.max_defect = max(self.max_defect, defect)
        if not defect <= UNITARITY_TOL:
            raise NumericsError(f"polar factor is not orthogonal (defect {defect:.3e} > {UNITARITY_TOL:.1e})")
        return w

    def _newton_schulz_polar(self, g, rows, plan, w, correction) -> np.ndarray:
        """W into w for the chains ``rows`` of g, in order of schedule, by Newton-Schulz; returns those left to the SVD.

        Each chain starts from the X_0 of its ``plan`` seed, built in the
        scratch by ``_write_start``.
        Each step computes E = X^T X - I and X <- X (c_I I + c_E E), by the
        schedule the plan gives the lower end of X_0.  From one
        step before the schedule closes, W = X (I + E)^(-1/2) is in reach:
        with delta = |E|_F >= |E|_2, |(I + E)^(1/2) - I - E/2| <=
        delta^2 / (8 (1 - delta)^(3/2)), and a chain whose bound is within
        its plan's tolerance, NEWTON_SCHULZ_TOL N eps (sqrt(N) eps if it is
        gapped), leaves the iteration, with that bound as its defect.  As
        det((I + W0^T W) / 2) = det(((I + E)^(1/2) + W0^T X) / 2) / det(I + E)^(1/2),
        its slot of w gets M = (I + W0^T X + E / 2) / 2, and its entry of
        ``correction`` (1/2) log det(I + E) to second order, tr E / 2 - |E|_F^2 / 4;
        with ``correction`` None it takes the plain step instead, W = X (I - E / 2).
        The rest go on compacted in the scratch, so every chain takes the same
        steps wherever it is scored.  Each chain that leaves is counted, and
        apart each seeded one; those still iterating after NEWTON_SCHULZ_STEPS
        steps are returned.
        """
        _, schedules, first = _schedule_grid(NEWTON_SCHULZ_FLOOR)
        if rows.size < len(g):
            g, plan = g[rows], plan.part(rows)
        # the chains of one schedule lie side by side, so that each step scales them by scalars
        entry, tolerance, seeded = plan.entry, plan.tolerance, plan.b > 0.0
        a, n = rows.size, self.n_sites
        x, spare = self._x[:a], self._spare[:a]
        _write_start(g, plan.top + 1.0, plan.a, plan.c, plan.b, x, self._below)
        groups = _groups(entry, schedules)
        for step in range(NEWTON_SCHULZ_STEPS + 1):
            if a == 0:
                break
            if n < SHARED_GRAM_SITES:  # a copy keeps matmul off its shared-operand product
                np.copyto(spare[:a], x[:a])
            left = (spare if n < SHARED_GRAM_SITES else x)[:a]
            e = np.matmul(left.transpose(0, 2, 1), x[:a], out=self._gram[:a])
            self._gram_diagonal[:a] -= 1.0
            if step >= first[entry].min():
                frobenius = np.square(e, out=self._squares[:a]).sum(axis=(1, 2))
                # above delta = 1/2 the bound exceeds any tolerance; the clip keeps 1 - delta positive
                defect = frobenius / (8.0 * (1.0 - np.minimum(np.sqrt(frobenius), 0.5)) ** 1.5)
                done = (step >= first[entry]) & (defect <= tolerance)
                if done.any():
                    self._leave(x[:a], e, done, rows, defect, frobenius, w, correction)
                    self.newton_schulz_chains += int(done.sum())
                    self.newton_seeded_chains += int(seeded[done].sum())
                    self.max_newton_schulz_steps = max(self.max_newton_schulz_steps, step + (correction is None))
                    keep = ~done
                    rows, entry, seeded, tolerance = rows[keep], entry[keep], seeded[keep], tolerance[keep]
                    groups, a = _groups(entry, schedules), rows.size
                    moved = int(done.argmax())  # the chains that stay move down from the first that left on
                    x[moved:a], e[moved:a] = x[moved : keep.size][keep[moved:]], e[moved : keep.size][keep[moved:]]
                    e = e[:a]
                if step == NEWTON_SCHULZ_STEPS or a == 0:
                    break
            for chains, steps in groups:
                c_i, c_e = steps[step] if step < len(steps) else (1.0, -0.5)
                e[chains] *= c_e
                self._gram_diagonal[chains] += c_i
            np.matmul(x[:a], e, out=spare[:a])
            x, spare = spare, x
        return rows

    def _leave(self, x, e, done, rows, defect, frobenius, w, correction) -> None:
        """Write the ``done`` chains of a Newton-Schulz stack, iterates x and Grams E = e, into their slots of w.

        M = (I + W0^T X + E / 2) / 2 and its ``correction`` where that is an
        array, recording the defect, and otherwise W = X (I - E / 2).  The
        chains that leave together are most often one run of the scratch,
        read in place, and when they fill a run of w's slots in order they
        are written there directly; otherwise each is formed in its Gram's
        place and scattered.
        """
        index = np.flatnonzero(done)
        leaving = rows[index]
        count, n = leaving.size, self.n_sites
        run = slice(index[0], index[-1] + 1) if index[-1] - index[0] == count - 1 else index
        x_done, e_done = x[run], e[run]
        direct = bool((np.diff(leaving) == 1).all())
        target = w[leaving[0] : leaving[-1] + 1] if direct else e_done
        if correction is None:
            e_done *= -0.5
            e_done.reshape(count, -1)[:, :: n + 1] += 1.0
            target = np.matmul(x_done, e_done, out=target if direct else None)
        else:
            trace = e_done.reshape(count, -1)[:, :: n + 1].sum(axis=1)
            correction[leaving] = 0.5 * trace - 0.25 * frobenius[index]
            self.max_defect = max(self.max_defect, float(defect[index].max()))
            e_done *= 0.5
            # W0^T X moves row j+1 of X to row j with a minus sign and row 0 to row N-1
            np.subtract(e_done[:, :-1], x_done[:, 1:], out=target[:, :-1])
            np.add(e_done[:, -1], x_done[:, 0], out=target[:, -1])
            target.reshape(count, -1)[:, :: n + 1] += 1.0
            target *= 0.5
        if not direct:
            w[leaving] = target

    def _svd_polar(self, g: np.ndarray, w: np.ndarray) -> None:
        """W = U V^T into w from numpy's SVD of Z, with the s_min floor and the det Z orientation.

        A solver failure is a NumericsError.  Where s_min is below the floor,
        a second such singular value raises, and otherwise the last column of
        U is flipped if det U det V^T < 0.
        """
        try:
            u, s, vt = np.linalg.svd(chain_matrix(g))
        except np.linalg.LinAlgError as error:
            raise NumericsError(f"SVD failed on a {self.n_sites}-site chain ({error})") from error
        floor = self._floor * s[0]
        if s[-1] <= floor:
            if s[-2] <= floor:
                raise NumericsError(
                    f"chain matrix has two or more unresolved singular values "
                    f"({s[-2]:.3e}, {s[-1]:.3e} / {s[0]:.3e})"
                )
            if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
                u[:, -1] *= -1.0
        np.matmul(u, vt, out=w)

    def __call__(self, couplings):
        """log |<GHZ+|psi(g)>|^2 = log|det((I + W0^T W)/2)| of each chain.

        One chain (a field vector) gives a float, an (M, N) stack M values.
        """
        g = np.asarray(couplings, dtype=float)
        if g.ndim == 1:
            return float(self(g[None])[0])
        g = self._fields(g)
        if not len(g):
            return np.empty(0)
        plan = self._plan(g)
        # SVD chains first, then Newton-Schulz by schedule: a stack is a run of that order
        order = np.argsort(plan.entry, kind="stable") if (plan.entry[1:] < plan.entry[:-1]).any() else None
        if order is None and len(g) <= self.stack:
            return self._log_overlaps(g, plan)
        out = np.empty(len(g))
        for start in range(0, len(g), self.stack):
            chains = slice(start, start + self.stack) if order is None else order[start : start + self.stack]
            out[chains] = self._log_overlaps(g[chains], plan.part(chains))
        return out

    def _log_overlaps(self, g: np.ndarray, plan: _Plan) -> np.ndarray:
        """log o+ of k <= stack chains, with their ``_Plan``.

        A chain whose last Newton-Schulz step is folded holds its M in place
        of W, and its (1/2) log det(I + E) comes off the log determinant.
        """
        k = len(g)
        correction = np.full(k, np.nan)
        w = self._polar(g, plan, correction)
        folded = ~np.isnan(correction)
        m = w
        if not folded.all():
            m = self._m[:k]
            # W0^T W moves row j+1 of W to row j with a minus sign and row 0 to row N-1.
            np.negative(w[:, 1:], out=m[:, :-1])
            m[:, -1] = w[:, 0]
            self._m_diagonal[:k] += 1.0
            m *= 0.5
            if folded.any():
                m[folded] = w[folded]
        _, logabs = np.linalg.slogdet(m)
        np.subtract(logabs, correction, out=logabs, where=folded)
        if not np.isfinite(logabs).all():
            raise NumericsError(f"overlap determinant is zero or not finite on a {self.n_sites}-site chain")
        worst = float(logabs.max())
        if not worst <= OVERLAP_SLACK:
            raise NumericsError(f"overlap determinant exceeds 1 beyond roundoff (log value {worst:.3e})")
        return np.minimum(logabs, 0.0)


def ghz_log_overlap_squared(couplings):
    """log |<GHZ+|psi(g)>|^2 for the chain at fields g_j, or for each chain of a stack.

    Computed as log|det((I + W0^T W)/2)| from the polar factor W of the
    chain matrix, through an LU factorization, so overlaps far below the
    smallest positive float are still meaningful.  A field vector gives a
    float and an (M, N) stack of fields M values, from one fresh
    ``ChainOverlap``; loops over many fields of one length should keep one
    object instead.

    Raises
    ------
    NumericsError
        If a polar factor fails the checks of ``ChainOverlap``, or a
        determinant is zero, not finite or above 1 beyond roundoff.
    """
    g = np.asarray(couplings, dtype=float)
    if g.ndim == 0:
        as_couplings(g)  # raises: a chain is a sequence of fields
    return ChainOverlap(g.shape[-1])(g)
