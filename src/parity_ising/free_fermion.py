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
chain's W by one of three routes:

- Newton-Schulz, for every chain of up to NEWTON_SCHULZ_SITES sites, where
  it measured faster than the band route on the Monte Carlo ensembles, and
  for every gapped chain (all fields on one side of 1) at any length: W is
  the limit of X <- alpha X (3I - alpha^2 X^T X) / 2
  (Higham, *Functions of Matrices*, SIAM 2008, ch. 8) from
  X_0 = Z / (max g + 1), whose singular values lie in (0, 1] since
  |Z|_2 <= max g + 1.  Z is diag(g) plus an orthogonal signed shift, so by
  Weyl's inequality s_min(Z) >= max(g_min - 1, 1 - g_max), which is
  positive on a gapped chain.  The scalings alpha follow a Chen-Chow
  schedule for the highest of a few fixed lower ends at or below the
  chain's bound, or for NEWTON_SCHULZ_FLOOR if the bound is lower, and
  each step is two matrix products.  A chain not converged after
  NEWTON_SCHULZ_STEPS steps takes the band route.
- The band route, for every other chain: Z^T Z is cyclic tridiagonal, and
  one stacked ``numpy.linalg.eigh`` diagonalizes it for all of a stack's
  chains.  Its eigenvectors V serve only as an orthogonal basis:
  polar(Z) = polar(Z V) V^T for any orthogonal V, and the columns of
  Y = Z V, formed from Z itself, carry the singular values d (their norms)
  and directions Q = Y / d, so small singular directions are read from Z,
  never from Z^T Z.  The polar factor of Y is Q (I - T) to first order in
  E = Q^T Q - I (Higham, SIAM J. Sci. Stat. Comput. 7, 1160 (1986)).
  Squaring Z blurs the directions of nearly degenerate small singular
  values, which is what max|E| measures: above BAND_GATE, or where d_min
  falls to the resolvable floor N eps d_max, the chain takes the SVD.
- The dense SVD Z = U diag(s) V^T, for those chains and for every chain
  with a field above BAND_FIELD_MAX, too large to square.  Fields of strong
  contrast can push one domain wall's singular value below the floor; its
  singular pair then fixes W only up to the relative sign of u_N and v_N,
  and since det W = sign(det Z) = +1, the last column of U is flipped when
  det U det V^T < 0.  Two unresolved singular values (separate
  ferromagnetic domains) raise.

All three routes are numpy's; no part of scipy is used.

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

import numpy as np

from .errors import NumericsError

UNITARITY_TOL = 1e-10
# Raw determinants may exceed 1 by roundoff; anything worse than this slack
# indicates a genuine numerical failure rather than noise.
OVERLAP_SLACK = 1e-8
# Largest max|Q^T Q - I| at which ChainOverlap takes W from the band route's
# first-order correction, which leaves an error of order its square; above
# it the call takes the dense SVD.
BAND_GATE = 1e-8
# Largest field ChainOverlap squares or scales, so that Z^T Z and the column
# norms of Z V stay far from overflow; a chain with a larger one takes the SVD.
BAND_FIELD_MAX = 1e150
# Longest chain on which ChainOverlap takes the polar factor of a chain that straddles
# 1 by the scaled Newton-Schulz iteration before the band route; a gapped chain (all
# fields on one side of 1) takes it at every length, a longer straddling chain starts on
# the band route.  Per chain, thread CPU time, one BLAS thread of a 2-core x86 VM, numpy
# 2.4, band route against Newton-Schulz in stacks of U[0.2, 3] chains: N = 4 3.6 / 2.5 us,
# 8 12.8 / 6.3, 20 52 / 25, 40 188 / 103, 80 707 / 566.  Above it, Newton-Schulz / band
# is 0.60, 0.73, 0.86, 0.90 and 1.23 at N = 96, 130, 160, 200 and 320 for U[0.6, 2.6], and
# 1.6-2.9 for U[0.2, 2.2], where most chains miss the step budget and are handed on.
NEWTON_SCHULZ_SITES = 80
# Newton-Schulz steps a chain may take; one that has not converged by then takes the band route.
NEWTON_SCHULZ_STEPS = 20
# Lowest l of the singular-value interval (l, 1] of Z / (max g + 1) that a
# Chen-Chow scaling schedule is built for: the whole schedule of every chain
# that straddles 1, and of every gapped chain whose own bound is lower.
NEWTON_SCHULZ_FLOOR = 3e-2
# Shortest chain on which a Newton-Schulz step forms X^T X by matmul's
# shared-operand product (syrk) rather than a copy and gemm.  Per chain, one
# BLAS thread, copy + gemm against shared: N = 40 3.0 / 5.9 us, 80 21.5 / 24.1,
# 96 37 / 37, 120 96 / 63, 200 395 / 224.
SHARED_GRAM_SITES = 96
# A Newton-Schulz iterate X has converged once max|X^T X - I| <= this times N eps,
# or for a gapped chain this times sqrt(N) eps, about where the rounding of a converged
# Gram lies: log o+ moves by up to ~N times the defect, 6e-12 at 4 N eps and N = 200.
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


def _bonds(n_sites: int) -> np.ndarray:
    """Z without its diagonal: -1 below it and +1 in the corner (0, N-1)."""
    z = np.zeros((n_sites, n_sites))
    z[np.arange(1, n_sites), np.arange(n_sites - 1)] = -1.0
    z[0, n_sites - 1] = 1.0
    return z


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
def _schedule_grid(floor: float) -> tuple[np.ndarray, tuple]:
    """The Newton-Schulz schedules: ascending interval ends, and (coefficients, first check) of each.

    A chain with lower end l takes schedule ``searchsorted(ends, l, "right")``.
    Schedule 0 is the one for ``floor``, checked from its end on, for the
    chains that straddle 1 (l <= 0), and schedule 1 the same for gapped
    chains whose l lies below the floor.  A chain with l >= ``floor`` takes
    schedule j >= 2, built for ends[j - 1]:
    ``floor`` itself, then for each step count s below the floor's the
    lowest end (to ~1e-12) whose interval closes within s steps.  The
    interval (l, 1] lies inside that end's, so its schedule serves l and
    closes it as fast as l's own would, and the chain is checked from the
    step at which it closes, where its iterate is orthogonal to rounding.
    (The closing test meets the last ulp below 1, so some ends up to ~2%
    below a grid end close a step sooner on their own: 0.4% of them.)
    """
    steps, closing = _chen_chow_schedule(floor)
    ends = [np.nextafter(0.0, 1.0), floor]  # below the first end a chain straddles 1
    for bound in range(closing - 1, -1, -1):  # the lowest end that closes within bound steps, by bisection
        lo, hi = ends[-1], 1.0
        for _ in range(40):
            lo, hi = (lo, mid) if _chen_chow_schedule(mid := 0.5 * (lo + hi))[1] <= bound else (mid, hi)
        ends.append(hi)
    return np.array(ends), ((steps, len(steps)),) * 2 + tuple(map(_chen_chow_schedule, ends[1:]))


def _groups(entry: np.ndarray, grid: tuple) -> list:
    """(slice, coefficients) of each run of one schedule in a sorted ``entry``."""
    return [(slice(*entry.searchsorted((j, j + 1))), grid[j][0]) for j in dict.fromkeys(entry.tolist())]


def _singular_ratio_bound(g: np.ndarray) -> np.ndarray:
    """A proven lower bound on s_min / s_max of Z for each chain of an (M, N) stack, in O(N) per chain.

    |Z^-1|_{c+m, c} = (h_c ... h_{c+m}) / (1 + P), h = 1/g, P the product of
    all h, indices mod N: with G_t = g_0 ... g_{t-1}, column c sums to G_c
    (G_N sum_{c<t<=N} 1/G_t + sum_{0<t<=c} 1/G_t) / (G_N + 1), in logs unless
    N l <= 230, l = max|log g|, and the rows are the columns for the reversed
    fields (Z^T reindexed).  s_min >= 1 / sqrt(|Z^-1|_1 |Z^-1|_oo) (Golub &
    Van Loan, *Matrix Computations*, sec. 2.3) and s_max <= max g + 1.  With
    log, exp and log1p within 4 ulps, sums of logs are off by (4 + N/2) N l
    eps and sums over them add (N/2) eps (N l + log N) + 6 N eps: the result
    is lowered by 3 N (N + 10)(1 + l) eps.  Before rounding it is never below
    Weyl's bound max(g_min - 1, 1 - g_max) / (max g + 1), as on a gapped chain
    each sum is at most 1 / (g_min - 1) or 1 / (1 - g_max); Weyl's, less 4 eps
    for its three roundings, is taken where the margin pulls the result below.
    """
    m, n = g.shape
    top = g.max(axis=1)
    reach = np.maximum(np.log(top), -np.log(g.min(axis=1)))  # l: every |log G_t| <= N l
    direct = n * reach <= 230.0  # no product of three G_t, nor N of those summed, leaves the normal range
    log_norm = np.empty((2, m))  # log of the largest column sum, of the chains and of them reversed
    for side, chains in enumerate((g, g[:, ::-1])):
        if direct.any():
            products = np.ones((n + 1, np.count_nonzero(direct)))  # G_t, one chain per column
            np.cumprod(chains[direct].T, axis=0, out=products[1:])
            after = 1.0 / products[1:]  # 1/G_t, t = 1..N, summed in place from the end below
            before = np.zeros_like(after)
            np.cumsum(after[:-1], axis=0, out=before[1:])
            np.cumsum(after[::-1], axis=0, out=after[::-1])
            after *= products[-1]
            after += before
            after *= products[:-1]
            log_norm[side, direct] = np.log(after.max(axis=0) / (products[-1] + 1.0))
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


def chain_matrix(couplings) -> np.ndarray:
    """The even-sector chain matrix Z = A - B at fields g_j.

    Fields on the diagonal, -1 on the subdiagonal, and +1 in the corner
    (0, N-1) for the antiperiodic wrap-around bond.
    """
    g = as_couplings(couplings)
    z = _bonds(g.size)
    np.fill_diagonal(z, g)
    return z


class ChainOverlap:
    """The GHZ-overlap kernel for chains of one length, scoring stacks of chains.

    Calling the object with an (M, N) array of fields, one chain per row,
    returns the M values of log o+; a field vector is the stack of one and
    returns a float.  ``polar`` returns W of one chain.  A call works
    through its chains ``stack`` = max(1, STACK_ENTRIES // N^2) at a time,
    on (stack, N, N) scratch that the object keeps between calls, so its
    memory is bounded at any N and any call size.  A chain starts on
    Newton-Schulz when it has at most NEWTON_SCHULZ_SITES sites, or when it
    is gapped (all fields on one side of 1); every other chain starts on the
    band route, and a chain with a field above BAND_FIELD_MAX goes to the
    SVD.  Only the SVD runs once per chain; every other step, the band
    route's eigensolver among them, is one numpy operation over the stack.
    Each chain takes the route, and gets the value, that it would alone,
    whatever stack it is scored in.  The constructor checks the length and
    allocates scratch for one chain, growing to the largest stack a call has
    scored, so a fresh object for one chain is cheap and calls no LAPACK.

    Every check applies to every chain of a stack: field validation, a
    solver failure (NumericsError), the band route's gate and floor,
    UNITARITY_TOL on W, and a finite overlap, log o+ <= OVERLAP_SLACK.  A
    chain that fails one raises for its whole call.  Over its calls the
    object counts its chains by route, ``newton_schulz_chains`` and
    ``band_chains`` (which include the SVD's, ``svd_fallbacks``), whose sum
    is ``evaluations``.  It records the most steps a converged Newton-Schulz
    chain took (``max_newton_schulz_steps``) and the worst orthogonality
    defect max|W^T W - I| (``max_defect``).
    The scratch is reused, so one object must not be shared between threads.
    """

    def __init__(self, n_sites: int):
        _check_length(n_sites)
        self.n_sites = n_sites
        self.stack = max(1, STACK_ENTRIES // n_sites**2)
        self._floor = n_sites * np.finfo(float).eps  # s_min <= _floor * s_max is unresolved
        self._straddling_newton_schulz = n_sites <= NEWTON_SCHULZ_SITES
        self._bonds = _bonds(n_sites)
        self._allocate(1)
        self.newton_schulz_chains = self.max_newton_schulz_steps = self.band_chains = self.svd_fallbacks = 0
        self.max_defect = 0.0

    @property
    def evaluations(self) -> int:
        """Chains scored over the object's calls, on every route."""
        return self.newton_schulz_chains + self.band_chains

    def _allocate(self, rows: int) -> None:
        """Scratch for stacks of up to ``rows`` chains."""
        n = self.n_sites
        self._v, self._y, self._gram, self._r, self._w, self._m = (
            np.empty((rows, n, n)) for _ in range(6)
        )
        self._gram_diagonal, self._r_diagonal, self._m_diagonal = (
            a.reshape(rows, -1)[:, :: n + 1] for a in (self._gram, self._r, self._m)
        )

    def _fields(self, couplings) -> np.ndarray:
        """Validated fields as an (M, N) stack."""
        g = as_couplings(couplings, stacked=True)
        if g.shape[1] != self.n_sites:
            raise ValueError(f"expected {self.n_sites} couplings, got {g.shape[1]}")
        return g

    def polar(self, couplings) -> np.ndarray:
        """The orthogonal polar factor W of Z at fields g, one chain.

        The result is scratch that the object's next call overwrites.
        """
        return self._polar(self._fields(np.asarray(couplings, dtype=float)[None]))[0]

    def _polar(self, g: np.ndarray) -> np.ndarray:
        """The (k, N, N) polar factors of k <= stack chains, each by its route.

        A chain with a field above BAND_FIELD_MAX goes to the SVD.  Of the
        others, those the class docstring names start on Newton-Schulz, which
        checks the chains it converges; the band route takes the rest, and its
        gate sends some on to the SVD.  Every W of the band route or the SVD
        is then held to UNITARITY_TOL, and its chain counts in ``band_chains``.
        """
        k = len(g)
        if k > len(self._w):
            self._allocate(k)
        w = self._w[:k]
        top = g.max(axis=1)
        svd = top > BAND_FIELD_MAX
        # s_min(Z) >= low (max g + 1) by Weyl, and |Z|_2 <= max g + 1
        low = np.maximum(g.min(axis=1) - 1.0, 1.0 - top) / (top + 1.0)
        newton = ~svd & (self._straddling_newton_schulz | (low > 0.0))
        band = ~svd & ~newton
        band[self._newton_schulz_polar(g, np.flatnonzero(newton), top, low, w)] = True
        rows = np.flatnonzero(band)
        if rows.size:
            # a whole stack is solved, and checked below, in place: at large N each copy costs ~1%
            solved = w if rows.size == k else self._m[: rows.size]
            svd[rows] = self._band_polar(g[rows], solved)
            if solved is not w:
                w[rows] = solved
        held, fallbacks = np.flatnonzero(svd | band), np.flatnonzero(svd)
        self.band_chains += held.size
        self.svd_fallbacks += fallbacks.size
        for row in fallbacks:
            self._svd_polar(g[row], w[row])
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

    def _newton_schulz_polar(self, g, rows, top, low, w) -> np.ndarray:
        """W into w for the chains ``rows`` of g by Newton-Schulz; returns those left to the band route.

        X_0 = Z / (max g + 1), with max g in ``top``, has its singular values
        in (``low``, 1] on a gapped chain.  Each step computes E = X^T X - I and
        X <- X (c_I I + c_E E), by the schedule ``_schedule_grid`` gives the
        chain and by the plain step after it.  From the schedule's first
        check on, a chain whose max|E| is within NEWTON_SCHULZ_TOL N eps
        (sqrt(N) eps if it is gapped), far inside UNITARITY_TOL, leaves the
        iteration with X as its W and that max|E| as its defect; the rest go
        on compacted in the scratch, so every chain takes the same steps
        wherever it is scored.  Each chain that leaves is counted; those still
        iterating after NEWTON_SCHULZ_STEPS steps are returned.
        """
        ends, schedules = _schedule_grid(NEWTON_SCHULZ_FLOOR)
        entry = np.searchsorted(ends, low[rows], side="right")
        # the chains of one schedule side by side, so that each step scales them by scalars
        rows, entry = rows[np.argsort(entry, kind="stable")], np.sort(entry)
        groups = _groups(entry, schedules)
        a, n = rows.size, self.n_sites
        x, spare = self._v[:a], self._y[:a]
        np.divide(self._bonds, top[rows, None, None] + 1.0, out=x)
        x.reshape(a, n * n)[:, :: n + 1] = g[rows] / (top[rows, None] + 1.0)
        tol, gapped_tol = (NEWTON_SCHULZ_TOL * size * np.finfo(float).eps for size in (n, math.sqrt(n)))
        checks = np.array([check for _, check in schedules])
        for step in range(NEWTON_SCHULZ_STEPS + 1):
            if a == 0:
                break
            if n < SHARED_GRAM_SITES:  # a copy keeps matmul off its shared-operand product
                np.copyto(spare[:a], x[:a])
            left = (spare if n < SHARED_GRAM_SITES else x)[:a]
            e = np.matmul(left.transpose(0, 2, 1), x[:a], out=self._gram[:a])
            self._gram_diagonal[:a] -= 1.0
            if step >= checks[entry].min():
                defect = np.abs(e, out=self._r[:a]).max(axis=(1, 2))
                done = (step >= checks[entry]) & (defect <= np.where(entry > 0, gapped_tol, tol))
                if done.any():
                    w[rows[done]] = x[:a][done]
                    self.newton_schulz_chains += int(done.sum())
                    self.max_newton_schulz_steps = max(self.max_newton_schulz_steps, step)
                    self.max_defect = max(self.max_defect, float(defect[done].max()))
                    keep = ~done
                    rows, entry = rows[keep], entry[keep]
                    groups, a = _groups(entry, schedules), rows.size
                    x[:a], e[:a] = x[: keep.size][keep], e[: keep.size][keep]
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

    def _band_polar(self, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """W into w by the band route; returns the chains its gate sends to the SVD.

        Steps: Z^T Z of every chain, in the V scratch; its eigenvectors V
        from one ``numpy.linalg.eigh`` over the stack, whose failure is a
        NumericsError; Y = Z V and its column norms d; Q = Y / d and
        E = Q^T Q - I; the gate (max|E| <= BAND_GATE and d_min above the
        floor); and W = Q (I - T) V^T with T_ij = d_i E_ij / (d_i + d_j).
        """
        k, n = g.shape
        # Z^T Z: g_j^2 + 1 on the diagonal, -g_{j+1} at (j, j+1) and (j+1, j), g_0 in the corners
        zz = self._v[:k]
        zz.fill(0.0)
        flat = zz.reshape(k, n * n)
        np.square(g, out=flat[:, :: n + 1])
        flat[:, :: n + 1] += 1.0
        flat[:, 1 :: n + 1] = flat[:, n :: n + 1] = -g[:, 1:]
        zz[:, 0, -1] = zz[:, -1, 0] = g[:, 0]
        try:
            v = np.linalg.eigh(zz)[1]
        except np.linalg.LinAlgError as error:
            raise NumericsError(f"eigensolver failed on a {n}-site chain ({error})") from error
        # Y = Z V row by row: y_j = g_j v_j - v_{j-1}, and y_0 = g_0 v_0 + v_{N-1}.
        y = np.multiply(g[:, :, None], v, out=self._y[:k])
        y[:, 1:] -= v[:, :-1]
        y[:, 0] += v[:, -1]
        d = np.sqrt(np.einsum("kij,kij->kj", y, y))
        fallback = ~(d.min(axis=1) > self._floor * d.max(axis=1))
        if fallback.any():
            # chains that will not use Y: Q = 0 keeps every step below finite
            d[fallback] = 1.0
            y[fallback] = 0.0
        q = np.divide(y, d[:, None, :], out=y)
        e = np.matmul(q.transpose(0, 2, 1), q, out=self._gram[:k])
        self._gram_diagonal[:k] -= 1.0
        fallback |= ~(np.abs(e, out=self._r[:k]).max(axis=(1, 2)) <= BAND_GATE)
        weight = np.add(d[:, :, None], d[:, None, :], out=self._r[:k])
        np.divide(-d[:, :, None], weight, out=weight)
        correction = np.multiply(e, weight, out=weight)
        self._r_diagonal[:k] += 1.0
        np.matmul(np.matmul(q, correction, out=self._gram[:k]), v.transpose(0, 2, 1), out=w)
        return fallback

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
        out = np.empty(len(g))
        for start in range(0, len(g), self.stack):
            out[start : start + self.stack] = self._log_overlaps(g[start : start + self.stack])
        return out

    def _log_overlaps(self, g: np.ndarray) -> np.ndarray:
        """log o+ of k <= stack chains."""
        k = len(g)
        w = self._polar(g)
        m = self._m[:k]
        # W0^T W moves row j+1 of W to row j with a minus sign and row 0 to row N-1.
        np.negative(w[:, 1:], out=m[:, :-1])
        m[:, -1] = w[:, 0]
        self._m_diagonal[:k] += 1.0
        m *= 0.5
        _, logabs = np.linalg.slogdet(m)
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
