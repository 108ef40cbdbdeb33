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
energies, and its orthogonal polar factor W = U V^T (from the SVD
Z = U diag(s) V^T) fixes the ground state: up to a convention-dependent
sign, W is the off-diagonal block of its Majorana covariance matrix.  The
squared overlap of two such Gaussian states follows from their covariances
(Bravyi, QIC 5, 216 (2005)),

    |<psi_a|psi_b>|^2 = |det((W_a + W_b) / 2)|,

evaluated in log space so that exponentially small GHZ overlaps survive to
large N.  The GHZ reference is the g -> 0+ limit, whose factor W0 = Z(g = 0)
is a signed cyclic shift, so W0^T W is a row roll of W with one sign flip.

Z is never singular: its only permutation terms are the diagonal and the
N-cycle, so det Z = prod_j g_j + 1 > 0 and W is unique.  The factor is still
checked for orthogonality before it is used, and that sign of det Z orients
a singular pair too small to resolve.  ``ChainOverlap`` is the one overlap
route: a caller with many fields of one length keeps one object, and
``ghz_log_overlap_squared`` is a single call of a fresh one.

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
# Gauss-Legendre orders of wavenumber_integral: the value, then its error gauge.
LEGENDRE_ORDERS = (24, 12)

_log = logging.getLogger(__name__)


def as_couplings(values) -> np.ndarray:
    """Validate a transverse-field configuration.

    Parameters
    ----------
    values : array_like
        Fields g_j, one per site.  Length must be even and >= 4, every
        entry finite and strictly positive.

    Returns
    -------
    numpy.ndarray
        The fields as a float64 array.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim != 1:
        raise ValueError("couplings must be a one-dimensional sequence")
    n = g.size
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


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of a square column-major array."""
    return a.ravel(order="F")[:: a.shape[0] + 1]


def chain_matrix(couplings) -> np.ndarray:
    """The even-sector chain matrix Z = A - B at fields g_j.

    Fields on the diagonal, -1 on the subdiagonal, and +1 in the corner
    (0, N-1) for the antiperiodic wrap-around bond.
    """
    g = as_couplings(couplings)
    z = _bonds(g.size)
    _diagonal(z)[:] = g
    return z


class ChainOverlap:
    """The GHZ-overlap kernel for chains of one length, reusable across calls.

    A caller that evaluates many field configurations of one length (a
    Monte Carlo run) makes one object and calls it per configuration.  The
    object holds the bonds of Z, the ``dgesdd`` work size and scratch for
    Z, W^T W - I and (I + W0^T W)/2, so a call allocates little beyond the
    arrays LAPACK returns.  ``polar`` returns W; calling the object returns
    log o+.  Every call validates the fields, turns a LAPACK failure into a
    NumericsError, holds W to UNITARITY_TOL and guards the smallest singular
    value.

    Fields of strong contrast can push one domain wall's singular value
    below the resolvable floor s_min <= N eps s_max.  Its singular pair then
    fixes W only up to the relative sign of u_N and v_N.  Since
    det Z = prod_j g_j + 1 > 0, det W = det U det V^T must be +1, and the
    last column of U is flipped when it is not.  Only this branch pays for
    the two determinants.  A second unresolved singular value (two or more
    near-zero modes, as from separate ferromagnetic domains) raises.

    Over its calls the object records ``evaluations``, the worst
    orthogonality defect max|W^T W - I| (``max_defect``) and the smallest
    s_min / s_max (``min_singular_ratio``).  The scratch is reused, so one
    object must not be shared between threads.
    """

    def __init__(self, n_sites: int):
        if n_sites < 4 or n_sites % 2:
            raise ValueError(f"chain length must be even and >= 4, got {n_sites}")
        self.n_sites = n_sites
        self._bonds = _bonds(n_sites)
        work, info = lapack.dgesdd_lwork(n_sites, n_sites)
        if info:
            raise NumericsError(f"dgesdd work-size query failed (info {info})")
        self._lwork = int(work)
        self._z, self._w, self._gram, self._m = (
            np.empty((n_sites, n_sites), order="F") for _ in range(4)
        )
        self._z_diagonal, self._gram_diagonal, self._m_diagonal = (
            _diagonal(a) for a in (self._z, self._gram, self._m)
        )
        self.evaluations = 0
        self.max_defect = 0.0
        self.min_singular_ratio = 1.0

    def polar(self, couplings) -> np.ndarray:
        """The orthogonal polar factor W = U V^T of Z at fields g.

        The result is scratch that the object's next call overwrites.
        """
        g = as_couplings(couplings)
        n = self.n_sites
        if g.size != n:
            raise ValueError(f"expected {n} couplings, got {g.size}")
        z = self._z
        np.copyto(z, self._bonds)
        self._z_diagonal[:] = g
        u, s, vt, info = lapack.dgesdd(z, lwork=self._lwork, overwrite_a=1)
        if info:
            raise NumericsError(f"SVD failed on a {n} x {n} chain matrix (dgesdd info {info})")
        self.evaluations += 1
        self.min_singular_ratio = min(self.min_singular_ratio, float(s[-1] / s[0]))
        floor = n * np.finfo(float).eps * s[0]
        if s[-1] <= floor:
            if s[-2] <= floor:
                raise NumericsError(
                    f"chain matrix has two or more unresolved singular values "
                    f"({s[-2]:.3e}, {s[-1]:.3e} / {s[0]:.3e})"
                )
            if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
                u[:, -1] *= -1.0
        w = np.matmul(u, vt, out=self._w)
        gram = np.matmul(w.T, w, out=self._gram)
        self._gram_diagonal -= 1.0
        defect = float(np.abs(gram, out=gram).max())
        self.max_defect = max(self.max_defect, defect)
        if defect > UNITARITY_TOL:
            raise NumericsError(
                f"polar factor is not orthogonal (defect {defect:.3e} > {UNITARITY_TOL:.1e})"
            )
        return w

    def __call__(self, couplings) -> float:
        """log |<GHZ+|psi(g)>|^2 = log|det((I + W0^T W)/2)|; -inf at an exactly zero pivot."""
        w = self.polar(couplings)
        m = self._m
        # W0^T W moves row j+1 of W to row j with a minus sign and row 0 to row N-1.
        np.negative(w[1:], out=m[:-1])
        m[-1] = w[0]
        self._m_diagonal += 1.0
        m *= 0.5
        lu, _, info = lapack.dgetrf(m, overwrite_a=1)
        if info < 0:
            raise NumericsError(f"dgetrf rejected argument {-info}")
        if info > 0:
            return -math.inf
        logabs = float(np.sum(np.log(np.abs(lu.diagonal()))))
        if logabs > OVERLAP_SLACK:
            raise NumericsError(
                f"overlap determinant exceeds 1 beyond roundoff (log value {logabs:.3e})"
            )
        return min(logabs, 0.0)


def ghz_log_overlap_squared(couplings) -> float:
    """log |<GHZ+|psi(g)>|^2 for the chain at fields g_j.

    Computed as log|det((I + W0^T W)/2)| from the polar factor W of the
    chain matrix, as the sum of log|u_ii| over an LU factorization, so
    overlaps far below the smallest positive float are still meaningful.
    Returns -inf for a state orthogonal to the GHZ state.  One call of a
    fresh ``ChainOverlap``; loops over many fields of one length should keep
    one object instead.

    Raises
    ------
    NumericsError
        If the polar factor fails the checks of ``ChainOverlap.polar``, or the
        determinant exceeds 1 beyond roundoff.
    """
    g = as_couplings(couplings)
    return ChainOverlap(g.size)(g)
