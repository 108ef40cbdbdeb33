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
checked for orthogonality and for a resolvable smallest singular value
before it is used.

Conventions: sites are indexed 0..N-1, positive wavenumbers are the odd
multiples k = (2m+1) pi/N in (0, pi), and the Bogoliubov angle satisfies
sin(theta_k) = sin(k)/eps_k, cos(theta_k) = (g - cos k)/eps_k with
eps_k = sqrt(1 + g^2 - 2 g cos k).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

UNITARITY_TOL = 1e-10
# Raw determinants may exceed 1 by roundoff; anything worse than this slack
# indicates a genuine numerical failure rather than noise.
OVERLAP_SLACK = 1e-8


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
    if not np.all(np.isfinite(g)):
        raise ValueError("couplings must be finite")
    if np.any(g <= 0.0):
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


def _dispersion(g: float, k: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + g * g - 2.0 * g * np.cos(k))


def bogoliubov_spectrum(g: float, n_sites: int) -> BogoliubovSpectrum:
    """Dispersion and Bogoliubov angle of the clean chain over k > 0.

    The g -> 0+ limit is reached smoothly: eps_k -> 1, cos(theta_k) -> -cos k,
    sin(theta_k) -> sin k.
    """
    if g <= 0.0 or not math.isfinite(g):
        raise ValueError("coupling must be positive and finite")
    k = allowed_wavenumbers(n_sites)
    eps = _dispersion(g, k)
    return BogoliubovSpectrum(
        coupling=g,
        wavenumbers=k,
        energies=eps,
        sin_theta=np.sin(k) / eps,
        cos_theta=(g - np.cos(k)) / eps,
    )


def chain_matrix(couplings) -> np.ndarray:
    """The even-sector chain matrix Z = A - B at fields g_j.

    Fields on the diagonal, -1 on the subdiagonal, and +1 in the corner
    (0, N-1) for the antiperiodic wrap-around bond.
    """
    g = as_couplings(couplings)
    n = g.size
    z = np.diag(g)
    z[np.arange(1, n), np.arange(n - 1)] = -1.0
    z[0, n - 1] = 1.0
    return z


def polar_factor(couplings) -> np.ndarray:
    """The orthogonal polar factor W = U V^T of the chain matrix Z = U diag(s) V^T.

    Raises
    ------
    NumericsError
        If the SVD fails, W misses the orthogonality budget, or the smallest
        singular value is not resolved.
    """
    z = chain_matrix(couplings)
    n = z.shape[0]
    try:
        u, s, vt = np.linalg.svd(z)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD failed on a {n} x {n} chain matrix") from exc
    w = u @ vt
    defect = np.abs(w.T @ w - np.eye(n)).max()
    if defect > UNITARITY_TOL:
        raise NumericsError(
            f"polar factor is not orthogonal (defect {defect:.3e} > {UNITARITY_TOL:.1e})"
        )
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        raise NumericsError(
            f"chain matrix is numerically singular (singular values {s[-1]:.3e} / {s[0]:.3e})"
        )
    return w


def ghz_log_overlap_squared(couplings) -> float:
    """log |<GHZ+|psi(g)>|^2 for the chain at fields g_j.

    Computed as log|det((I + W0^T W)/2)| from the polar factor W of the
    chain matrix, through an LU factorization in log-magnitude form, so
    overlaps far below the smallest positive float are still meaningful.
    Returns -inf for a state orthogonal to the GHZ state.

    Raises
    ------
    NumericsError
        If ``polar_factor`` fails its checks, or the determinant exceeds 1
        beyond roundoff.
    """
    w = polar_factor(couplings)
    n = w.shape[0]
    # W0^T W moves row j+1 of W to row j with a minus sign and row 0 to row N-1.
    m = np.concatenate((-w[1:], w[:1]))
    m[np.diag_indices(n)] += 1.0
    _, logabs = np.linalg.slogdet(0.5 * m)
    if logabs > OVERLAP_SLACK:
        raise NumericsError(
            f"overlap determinant exceeds 1 beyond roundoff (log value {logabs:.3e})"
        )
    return min(logabs, 0.0)


def ghz_overlap_squared(couplings) -> float:
    """|<GHZ+|psi(g)>|^2, the even-GHZ weight of the ground state."""
    return math.exp(ghz_log_overlap_squared(couplings))
