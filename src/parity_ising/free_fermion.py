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
is the one overlap route.  It scores stacks of chains of one length, at
most STACK_ENTRIES / N^2 chains (at least one) per pass through its
scratch, with every check applied to each chain; a single chain is a stack
of one.  A caller with many fields of one length keeps one object, and
``ghz_log_overlap_squared`` is a single call of a fresh one.  It does not
take the SVD of Z where it can avoid it, and has three routes to W:

- Newton-Schulz, for lengths in NEWTON_SCHULZ_SITES: the scaled iteration
  X <- alpha X (3I - alpha^2 X^T X) / 2 from X = Z / (max g + 1), two
  matrix products per step over the stack, until max|X^T X - I| is within
  a few N eps.  A chain leaves the iteration once it converges, so its W
  does not depend on its stack.  Chains still iterating after
  NEWTON_SCHULZ_STEPS steps, or with a field too large to square, go on to
  the band route.
- The band route, for every other length and for the chains handed on:
  Z^T Z is cyclic tridiagonal, a symmetric band of half-width 2 once the
  sites are ordered 0, 1, N-1, 2, N-2, ..., and any orthogonal V that
  diagonalizes it gives W = polar(Z V) V^T, with Z V read off Z itself and
  its polar factor taken to first order in the departure of its normalized
  columns from orthogonality.
- The dense SVD, where that departure exceeds a fixed gate, or a singular
  value falls below the resolvable floor; the sign of det Z orients a
  singular pair too small to resolve.

Every factor is checked for orthogonality before it is used.

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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NumericsError

UNITARITY_TOL = 1e-10
# Raw determinants may exceed 1 by roundoff; anything worse than this slack
# indicates a genuine numerical failure rather than noise.
OVERLAP_SLACK = 1e-8
# Largest max|Q^T Q - I| at which ChainOverlap takes W from the band route's
# first-order correction, which leaves an error of order its square; above
# it the call takes the dense SVD.
BAND_GATE = 1e-8
# Largest field the band route squares; Z^T Z and the column norms of Z V
# then stay far from overflow.
BAND_FIELD_MAX = 1e150
# Chain lengths, inclusive, whose polar factor ChainOverlap takes by the scaled
# Newton-Schulz iteration before the band route; other lengths start on the band route.
NEWTON_SCHULZ_SITES = (24, 80)
# Newton-Schulz steps a chain may take; one that has not converged by then takes the band route.
NEWTON_SCHULZ_STEPS = 20
# Lower end of the singular-value interval (l0, 1] of Z / (max g + 1) that the
# fixed Chen-Chow scaling schedule is built for.
NEWTON_SCHULZ_FLOOR = 3e-2
# A Newton-Schulz iterate X has converged once max|X^T X - I| <= this times N eps.
NEWTON_SCHULZ_TOL = 4.0
# Matrix entries (chains x N x N) in each stack-sized scratch array of
# ChainOverlap, 256 KiB apiece: a stack holds max(1, STACK_ENTRIES // N^2) chains.
STACK_ENTRIES = 1 << 15
# Gauss-Legendre orders of wavenumber_integral: the value, then its error gauge.
LEGENDRE_ORDERS = (24, 12)

_log = logging.getLogger(__name__)


def as_couplings(values, stacked: bool = False) -> np.ndarray:
    """Validate a transverse-field configuration, or a stack of them.

    Parameters
    ----------
    values : array_like
        Fields g_j, one per site.  Length must be even and >= 4, every
        entry finite and strictly positive.
    stacked : bool
        Whether ``values`` is an (M, N) stack of configurations, one per
        row, each held to the same rules.

    Returns
    -------
    numpy.ndarray
        The fields as a float64 array.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 + stacked:
        raise ValueError(
            "a stack of couplings must be two-dimensional, one chain per row"
            if stacked
            else "couplings must be a one-dimensional sequence"
        )
    n = g.shape[-1]
    if n < 4 or n % 2:
        raise ValueError(f"chain length must be even and >= 4, got {n}")
    if not np.isfinite(g).all():
        raise ValueError("couplings must be finite")
    if (g <= 0.0).any():
        raise ValueError("couplings must be strictly positive")
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
    if n_sites < 4 or n_sites % 2:
        raise ValueError(f"chain length must be even and >= 4, got {n_sites}")
    return np.pi * (2.0 * np.arange(n_sites // 2) + 1.0) / n_sites


@functools.lru_cache(maxsize=len(LEGENDRE_ORDERS))
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def wavenumber_integral(rule, floor: float, tol: float, label: str) -> tuple[float, float]:
    """The N -> oo counterpart of ``allowed_wavenumbers``: an integral over k in (0, pi).

    ``rule(k, w)`` applies one quadrature rule, nodes k and weights w, to the
    integrand: ``w @ f(k)`` in one dimension, ``w @ F(k, k) @ w`` for a
    tensor rule in two.  The rule is Gauss-Legendre on panels graded toward
    k = 0, where the modes vary on the scale |1 - g|: the breakpoints are
    pi 4^-j for j = 0, 1, ... down to the first at or below ``floor``, then 0.
    Returns the value of the 24-node rule and, as its error, the distance
    from the 12-node rule on the same panels.  An error above ``tol`` is a
    NumericsError.  Each call logs one DEBUG record with the label, the
    error and the node count per axis.
    """
    edges = [np.pi]
    while edges[-1] > floor:
        edges.append(edges[-1] / 4.0)
    edges = np.array([0.0, *reversed(edges)])
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    values = []
    for order in LEGENDRE_ORDERS:
        x, w = _legendre(order)
        values.append(float(rule((lo + half * (x + 1.0)).ravel(), (half * w).ravel())))
    value, error = values[0], abs(values[0] - values[1])
    _log.debug("%s: error %.3e over %d nodes", label, error, half.size * LEGENDRE_ORDERS[0])
    if not error <= tol:
        raise NumericsError(f"{label} quadrature did not converge (error {error:.3e} > {tol:.1e})")
    return value, error


def bracketed_root(f, bracket, label: str) -> float:
    """Root of f between the ends of ``bracket`` by Brent's method to 1e-12.

    f must take strictly opposite signs at the two ends, in either order;
    otherwise NumericsError.  scipy.optimize loads on the first call, so
    importing this module does not pull it in.
    """
    from scipy import optimize

    lo, hi = bracket
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise NumericsError(f"{label} not bracketed by ({lo}, {hi}): ({f_lo:.3e}, {f_hi:.3e})")
    return optimize.brentq(f, lo, hi, xtol=1e-12)


def _modes(g, k):
    """(eps, q, cos theta, sin theta) of the clean chain at couplings g and wavenumbers k.

    g is a float or an array that broadcasts against k (a column of
    couplings against a row of wavenumbers gives one chain per row); k has
    any shape.  q = eps + 1 - g cos k, or g^2 sin^2 k / (eps - 1 + g cos k)
    where g cos k > 1.
    """
    if not np.all((np.asarray(g) > 0.0) & np.isfinite(g)):
        raise ValueError("coupling must be positive and finite")
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
    """Z without its diagonal, in the column-major layout LAPACK works on."""
    z = np.zeros((n_sites, n_sites), order="F")
    z[np.arange(1, n_sites), np.arange(n_sites - 1)] = -1.0
    z[0, n_sites - 1] = 1.0
    return z


@functools.lru_cache(maxsize=8)
def _band_layout(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where Z^T Z sits in the zigzag order 0, 1, N-1, 2, N-2, ..., N/2.

    Returns the zigzag position of each site, then the (3, N) fields that
    ``dsbevd``'s lower band storage reads, row k holding entry (i + k, i) of
    the reordered matrix, and the (2, N) signs of the two off-diagonal rows
    (0 where the band has no entry).  The diagonal row is squared, plus 1.
    """
    order = np.empty(n_sites, dtype=np.intp)
    order[0] = 0
    order[1::2] = np.arange(1, n_sites // 2 + 1)
    order[2::2] = np.arange(n_sites - 1, n_sites // 2, -1)
    position = np.argsort(order)
    # bond j joins sites j and j + 1 mod N, with entry -g_{j+1}, or +g_0 across the wrap
    bond = np.arange(n_sites)
    right = (bond + 1) % n_sites
    lo = np.minimum(position[bond], position[right])
    offset = np.abs(position[bond] - position[right])
    sites = np.zeros((3, n_sites), dtype=np.intp)
    signs = np.zeros((2, n_sites))
    sites[0] = order
    sites[offset, lo] = right
    signs[offset - 1, lo] = np.where(right == 0, 1.0, -1.0)
    for a in (position, sites, signs):
        a.setflags(write=False)
    return position, sites, signs


@functools.lru_cache(maxsize=1)
def _chen_chow_schedule(floor: float) -> tuple[float, ...]:
    """The scalings alpha_k of the Newton-Schulz steps for singular values in (floor, 1].

    A step X <- alpha X (3I - alpha^2 X^T X) / 2 maps a singular value s to
    p(alpha s) with p(x) = x (3 - x^2) / 2.  alpha_k = sqrt(3 / (1 + l + l^2))
    makes p(alpha l) = p(alpha), so (l, 1] maps into (l', 1] with
    l' = p(alpha l) (Chen & Chow, SIAM J. Sci. Comput. 36, A2680 (2014)).
    The schedule ends once alpha is within 1e-3 of 1, where the plain step
    takes over.
    """
    alphas, low = [], floor
    while (alpha := math.sqrt(3.0 / (1.0 + low + low * low))) > 1.0 + 1e-3:
        alphas.append(alpha)
        low = 0.5 * alpha * low * (3.0 - (alpha * low) ** 2)
    return tuple(alphas)


def chain_matrix(couplings) -> np.ndarray:
    """The even-sector chain matrix Z = A - B at fields g_j.

    Fields on the diagonal, -1 on the subdiagonal, and +1 in the corner
    (0, N-1) for the antiperiodic wrap-around bond.
    """
    g = as_couplings(couplings)
    z = _bonds(g.size)
    np.fill_diagonal(z, g)
    return z


def _gram_top_bound(g: np.ndarray) -> np.ndarray:
    """An upper bound on s_max^2, the largest eigenvalue of Z^T Z, for each chain of a stack.

    |Z^T Z| is nonnegative, with g_j^2 + 1 on the diagonal and g_{j+1}
    between sites j and j + 1 (mod N), so s_max^2 <= rho(|Z^T Z|) <=
    max_j (|Z^T Z| v)_j / v_j for every positive v (Collatz-Wielandt).
    v = |Z^T Z|^2 1 puts the bound within ~2% of s_max^2 on the Monte Carlo
    ensembles, against up to ~25% for (max g + 1)^2.
    """
    diagonal, right = g * g + 1.0, np.concatenate((g[:, 1:], g[:, :1]), axis=1)
    v = np.ones_like(g)
    for _ in range(3):
        ring = np.concatenate((v[:, -1:], v, v[:, :1]), axis=1)  # v_{j-1} at j, v_{j+1} at j + 2
        u = diagonal * v + right * ring[:, 2:] + g * ring[:, :-2]
        bound = (u / v).max(axis=1)
        v = u / u.max(axis=1, keepdims=True)
    return bound


class ChainOverlap:
    """The GHZ-overlap kernel for chains of one length, scoring stacks of chains.

    A caller that evaluates many field configurations of one length (a
    Monte Carlo run) makes one object and hands it (M, N) arrays of fields,
    one chain per row; calling the object returns the M values of log o+,
    and a one-dimensional field vector is the stack of one, returning a
    float.  The object works through a call ``stack`` chains at a time,
    stack = max(1, STACK_ENTRIES // N^2), on (stack, N, N) scratch that it
    keeps between calls, so its memory is bounded at any N and any call
    size.  Only the LAPACK calls on one chain (band eigensolver, band
    Cholesky, the eigenvalues of H below, dense SVD) run once per chain;
    every other step is one numpy operation over the stack.
    Each chain is computed as it would be alone, so a value does not
    depend on the stack it was scored in.  The constructor only looks up
    the band layout and queries the SVD work size, and the scratch grows to
    the largest stack a call has scored, so a fresh object for one chain
    is cheap too.  ``polar`` returns W of one chain.

    Newton-Schulz.  For N in NEWTON_SCHULZ_SITES, where it measured faster
    than the band route on the Monte Carlo ensembles, W is the limit of
    X <- alpha X (3I - alpha^2 X^T X) / 2 (Higham, *Functions of Matrices*,
    SIAM 2008, ch. 8).  X_0 = Z / (max g + 1) has singular values in (0, 1],
    since |Z|_2 <= max g + 1, without squaring a field.  The scalings alpha
    follow a fixed Chen-Chow schedule for singular values down to
    NEWTON_SCHULZ_FLOOR, then alpha = 1, and each step is two matrix
    products over the stack: E = X^T X - I, then X ((3 - alpha^2) I -
    alpha^2 E) alpha / 2.  From the end of the schedule on, a chain whose
    max|E| is at most NEWTON_SCHULZ_TOL N eps is frozen: X is its W, and
    that last max|E|, far inside UNITARITY_TOL, is its orthogonality check.
    The chains still iterating are compacted in the scratch, so each chain
    takes the same steps, and gets the same W, wherever it is scored.  After
    NEWTON_SCHULZ_STEPS steps the rest, and chains with a field above
    BAND_FIELD_MAX, go on to the band route.

    Band route.  Z^T Z is cyclic tridiagonal: g_j^2 + 1 on the diagonal,
    -g_{j+1} between sites j and j + 1, and +g_0 across the wrap.  In the
    zigzag order 0, 1, N-1, 2, N-2, ... ring neighbours sit at most two
    apart, so it is a band of half-width 2, which ``dsbevd`` diagonalizes
    in a fraction of the time ``dgesdd`` takes on Z.  Its eigenvectors V
    serve only as an orthogonal basis: polar(Z) = polar(Z V) V^T holds for
    any orthogonal V, and the columns of Y = Z V, formed from Z itself by
    row operations, carry the singular values d (their norms) and
    directions Q = Y / d.  The small singular directions are therefore read
    from Z, never from Z^T Z.  With E = Q^T Q - I, the polar factor of Y is
    Q (I - T) to first order, with T_ij = d_i E_ij / (d_i + d_j) (Higham,
    SIAM J. Sci. Stat. Comput. 7, 1160 (1986)), leaving an error of order
    |E|^2.  Squaring Z blurs the directions of nearly degenerate small
    singular values, which makes Q^T Q less diagonal, and that is what the
    gate measures: where max|E| exceeds BAND_GATE, d_min falls to the floor
    below, or a field is too large to square, the chain takes the dense SVD
    of Z instead and counts in ``svd_fallbacks``.

    On the SVD branch, fields of strong contrast can push one domain wall's
    singular value below the resolvable floor s_min <= N eps s_max.  Its
    singular pair then fixes W only up to the relative sign of u_N and v_N.
    Since det Z = prod_j g_j + 1 > 0, det W = det U det V^T must be +1, and
    the last column of U is flipped when it is not.  Only this case pays
    for the two determinants.  A second unresolved singular value (two or
    more near-zero modes, as from separate ferromagnetic domains) raises.

    Every check applies to every chain of a stack: field validation, a
    LAPACK failure code (NumericsError), the gate and floor, UNITARITY_TOL
    on W, and the overlap's bound log o+ <= OVERLAP_SLACK.  A chain that
    fails one raises for its whole call.  Over its calls the object records
    per chain ``evaluations``, split into ``newton_schulz_chains`` and
    ``band_chains``, with the SVD fallbacks among the latter
    (``svd_fallbacks``); the most steps a converged Newton-Schulz chain took
    (``max_newton_schulz_steps``); the worst orthogonality defect
    max|W^T W - I| (``max_defect``); and the smallest s_min / s_max
    (``min_singular_ratio``).  The band route reads the ratio off d.  A
    Newton-Schulz chain has no singular values to hand, so a band Cholesky
    factorization first tries to prove that it cannot lower the minimum,
    and only the chains it cannot clear pay for the eigenvalues of
    H = Z^T W; the ratio is exact either way (``_record_newton_schulz``).
    The scratch is reused, so one object must not be shared between
    threads.
    """

    def __init__(self, n_sites: int):
        if n_sites < 4 or n_sites % 2:
            raise ValueError(f"chain length must be even and >= 4, got {n_sites}")
        self.n_sites = n_sites
        self.stack = max(1, STACK_ENTRIES // n_sites**2)
        self._floor = n_sites * np.finfo(float).eps  # s_min <= _floor * s_max is unresolved
        self._position, self._band_sites, self._band_signs = _band_layout(n_sites)
        work, info = lapack.dgesdd_lwork(n_sites, n_sites)
        if info:
            raise NumericsError(f"dgesdd work-size query failed (info {info})")
        self._lwork = int(work)
        self._newton_schulz = NEWTON_SCHULZ_SITES[0] <= n_sites <= NEWTON_SCHULZ_SITES[1]
        self._bonds = _bonds(n_sites) if self._newton_schulz else None
        self._allocate(1)
        self.evaluations = 0
        self.newton_schulz_chains = 0
        self.max_newton_schulz_steps = 0
        self.band_chains = 0
        self.svd_fallbacks = 0
        self.max_defect = 0.0
        self.min_singular_ratio = 1.0

    def _allocate(self, rows: int) -> None:
        """Scratch for stacks of up to ``rows`` chains."""
        n = self.n_sites
        self._bands = np.empty((rows, 3, n))
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
        """The (k, N, N) polar factors of k <= stack chains, each held to UNITARITY_TOL."""
        k = len(g)
        if k > len(self._w):
            self._allocate(k)
        w = self._w[:k]
        self.evaluations += k
        if not self._newton_schulz:
            self._band_route(g, w)
            return w
        rows = self._newton_schulz_polar(g, w)
        if rows.size:
            band = self._m[: rows.size]
            self._band_route(g[rows], band)
            w[rows] = band
        return w

    def _newton_schulz_polar(self, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """W into w by the scaled Newton-Schulz iteration; returns the rows it leaves to the band route.

        X_0 = Z / (max g + 1) has singular values in (0, 1].  Each step
        computes E = X^T X - I and X <- alpha X ((3 - alpha^2) I - alpha^2 E) / 2,
        alpha from the fixed Chen-Chow schedule and 1 after it.  From the
        end of the schedule on, a chain whose max|E| is within
        NEWTON_SCHULZ_TOL N eps leaves the iteration with X as its W and
        that max|E| as its defect, and the rest go on compacted in the
        scratch, so every chain takes the same steps wherever it is scored.
        Chains with a field above BAND_FIELD_MAX, or still iterating after
        NEWTON_SCHULZ_STEPS steps, are left to the band route.
        """
        k, n = g.shape
        peak = g.max(axis=1)
        rows, left = np.flatnonzero(peak <= BAND_FIELD_MAX), np.flatnonzero(peak > BAND_FIELD_MAX)
        top = peak + 1.0
        a = rows.size
        x, spare = self._v[:a], self._y[:a]
        np.divide(self._bonds, top[rows, None, None], out=x)
        x.reshape(a, n * n)[:, :: n + 1] = g[rows] / top[rows, None]
        alphas = _chen_chow_schedule(NEWTON_SCHULZ_FLOOR)
        tol = NEWTON_SCHULZ_TOL * n * np.finfo(float).eps
        for step in range(NEWTON_SCHULZ_STEPS + 1):
            if a == 0:
                break
            # matmul takes X^T X by syrk when both operands share a buffer, which is slower here
            np.copyto(spare[:a], x[:a])
            e = np.matmul(spare[:a].transpose(0, 2, 1), x[:a], out=self._gram[:a])
            self._gram_diagonal[:a] -= 1.0
            if step >= len(alphas):
                defect = np.abs(e, out=self._r[:a]).max(axis=(1, 2))
                done = defect <= tol
                if done.any():
                    frozen = x[:a][done]
                    w[rows[done]] = frozen
                    self._record_newton_schulz(g[rows[done]], frozen, defect[done], step)
                    keep = ~done
                    rows, a = rows[keep], int(np.count_nonzero(keep))
                    x[:a], e[:a] = x[: keep.size][keep], e[: keep.size][keep]
                    e = e[:a]
                if step == NEWTON_SCHULZ_STEPS or a == 0:
                    break
            alpha = alphas[step] if step < len(alphas) else 1.0
            e *= -0.5 * alpha**3
            self._gram_diagonal[:a] += 1.5 * alpha - 0.5 * alpha**3
            np.matmul(x[:a], e, out=spare[:a])
            x, spare = spare, x
        return np.sort(np.concatenate((left, rows)))

    def _record_newton_schulz(self, g, w, defect, steps) -> None:
        """Count chains that converged after ``steps`` steps, and their defects and singular-value ratios.

        A chain can lower min_singular_ratio r only if s_min < r s_max.  With
        c >= s_max^2 from ``_gram_top_bound``, a band Cholesky factorization
        of Z^T Z - r^2 c I, shifted further by a bound on its rounding error,
        proves the contrary, so only chains where it fails pay for the extreme
        eigenvalues of the symmetric polar factor H = Z^T W, which are the
        singular values of Z to ~eps s_max each.
        """
        self.newton_schulz_chains += len(g)
        self.max_newton_schulz_steps = max(self.max_newton_schulz_steps, steps)
        self.max_defect = max(self.max_defect, float(defect.max()))
        eps = np.finfo(float).eps
        bands = self._gram_bands(g, self._bands[: len(g)])
        caps = (1.0 + 32.0 * eps) * _gram_top_bound(g)
        margins = 32.0 * eps * (g.max(axis=1) + 1.0) ** 2
        for fields, band, factor, cap, margin in zip(g, bands, w, caps, margins):
            band[0] -= self.min_singular_ratio**2 * cap + margin
            if lapack.dpbtrf(band, lower=1)[1] == 0:
                continue
            h = fields[:, None] * factor + self._bonds.T @ factor
            s = np.linalg.eigvalsh(0.5 * (h + h.T))
            self.min_singular_ratio = min(self.min_singular_ratio, float(s[0] / s[-1]))

    def _band_route(self, g: np.ndarray, w: np.ndarray) -> None:
        """W into w by the band route, or the dense SVD where its gate says so, each held to UNITARITY_TOL."""
        k = len(g)
        self.band_chains += k
        fallback = self._band_polar(g, w)
        self.svd_fallbacks += int(np.count_nonzero(fallback))
        for row in np.flatnonzero(fallback):
            self._svd_polar(g[row], w[row])
        gram = np.matmul(w.transpose(0, 2, 1), w, out=self._gram[:k])
        self._gram_diagonal[:k] -= 1.0
        defect = float(np.abs(gram, out=gram).max())
        self.max_defect = max(self.max_defect, defect)
        if not defect <= UNITARITY_TOL:
            raise NumericsError(
                f"polar factor is not orthogonal (defect {defect:.3e} > {UNITARITY_TOL:.1e})"
            )

    def _gram_bands(self, g: np.ndarray, bands: np.ndarray) -> np.ndarray:
        """The band of Z^T Z in zigzag order for each chain of g, in dsbevd's lower storage."""
        np.take(g, self._band_sites, axis=1, out=bands, mode="wrap")
        np.square(bands[:, 0], out=bands[:, 0])
        bands[:, 0] += 1.0
        bands[:, 1:] *= self._band_signs
        return bands

    def _band_polar(self, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """W into w from the band eigenproblem of Z^T Z; returns the chains the gate sends to the SVD."""
        k, n = g.shape
        too_large = g.max(axis=1) > BAND_FIELD_MAX
        if too_large.any():
            # stand-in fields keep the stack finite; those chains go to the SVD
            g = np.where(too_large[:, None], 1.0, g)
        bands = self._gram_bands(g, self._bands[:k])
        # dsbevd's eigenvectors (zigzag rows, column-major) wait in Y's scratch until V is gathered
        zigzag = self._y[:k].transpose(0, 2, 1)
        for row in range(k):
            _, zigzag[row], info = lapack.dsbevd(bands[row], lower=1)
            if info:
                raise NumericsError(
                    f"band eigensolver failed on a {n}-site chain (dsbevd info {info})"
                )
        v = np.take(zigzag, self._position, axis=1, out=self._v[:k], mode="wrap")
        # Y = Z V row by row: y_j = g_j v_j - v_{j-1}, and y_0 = g_0 v_0 + v_{N-1}.
        y = np.multiply(g[:, :, None], v, out=self._y[:k])
        y[:, 1:] -= v[:, :-1]
        y[:, 0] += v[:, -1]
        d = np.sqrt(np.einsum("kij,kij->kj", y, y))
        d_min, d_max = d.min(axis=1), d.max(axis=1)
        fallback = too_large | ~(d_min > self._floor * d_max)
        if fallback.any():
            # chains that will not use Y: Q = 0 keeps every step below finite
            d[fallback] = 1.0
            y[fallback] = 0.0
        q = np.divide(y, d[:, None, :], out=y)
        e = np.matmul(q.transpose(0, 2, 1), q, out=self._gram[:k])
        self._gram_diagonal[:k] -= 1.0
        fallback |= ~(np.abs(e, out=self._r[:k]).max(axis=(1, 2)) <= BAND_GATE)
        if not fallback.all():
            ratio = float((d_min / d_max)[~fallback].min())
            self.min_singular_ratio = min(self.min_singular_ratio, ratio)
        # I - T with T_ij = d_i E_ij / (d_i + d_j), then W = Q (I - T) V^T.
        weight = np.add(d[:, :, None], d[:, None, :], out=self._r[:k])
        np.divide(-d[:, :, None], weight, out=weight)
        correction = np.multiply(e, weight, out=weight)
        self._r_diagonal[:k] += 1.0
        np.matmul(np.matmul(q, correction, out=self._gram[:k]), v.transpose(0, 2, 1), out=w)
        return fallback

    def _svd_polar(self, g: np.ndarray, w: np.ndarray) -> None:
        """W = U V^T into w from the dense SVD of Z, with the s_min floor and the det Z orientation."""
        n = self.n_sites
        u, s, vt, info = lapack.dgesdd(chain_matrix(g), lwork=self._lwork, overwrite_a=1)
        if info:
            raise NumericsError(f"SVD failed on a {n} x {n} chain matrix (dgesdd info {info})")
        self.min_singular_ratio = min(self.min_singular_ratio, float(s[-1] / s[0]))
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

        One chain (a field vector) gives a float, an (M, N) stack M values;
        a value is -inf at an exactly zero pivot.
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
        worst = float(logabs.max())
        if worst > OVERLAP_SLACK:
            raise NumericsError(
                f"overlap determinant exceeds 1 beyond roundoff (log value {worst:.3e})"
            )
        return np.minimum(logabs, 0.0)


def ghz_log_overlap_squared(couplings):
    """log |<GHZ+|psi(g)>|^2 for the chain at fields g_j, or for each chain of a stack.

    Computed as log|det((I + W0^T W)/2)| from the polar factor W of the
    chain matrix, through an LU factorization, so overlaps far below the
    smallest positive float are still meaningful.  Returns -inf for a state
    orthogonal to the GHZ state.  A field vector gives a float and an
    (M, N) stack of fields M values, from one fresh ``ChainOverlap``; loops
    over many fields of one length should keep one object instead.

    Raises
    ------
    NumericsError
        If a polar factor fails the checks of ``ChainOverlap``, or a
        determinant exceeds 1 beyond roundoff.
    """
    g = np.asarray(couplings, dtype=float)
    return ChainOverlap(g.shape[-1] if g.ndim else 0)(g)
