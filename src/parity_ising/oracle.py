"""Brute-force cross-checks: sector diagonalization, game simulation, stencils.

Everything in this module deliberately avoids the free-fermion machinery so
it can arbitrate it.  The spin Hamiltonian

    H = -sum_j Z_j Z_{j+1} - sum_j g_j X_j     (ring)

is written in the computational basis with site j stored in bit j of the
basis index (little endian).  H commutes with the global spin flip
P = prod_j X_j, and for positive fields the ground state lies in the P = +1
sector.  The ground state is therefore computed in the symmetrized basis
(|b> + |flip b>)/sqrt(2) of dimension 2^(N-1), N <= 16, where H has N + 1
entries per column and is applied matrix free: the ZZ diagonal, and one
gather per field for its spin flip.  A numpy Lanczos with full
reorthogonalization converges the lowest eigenpair alone, which is lifted
back to the full register.  Working in the sector keeps the result
deterministic even deep in the ferromagnet, where the two GHZ-like states
are degenerate to far beyond machine precision.  Lanczos starts from the
all-ones vector: for g_j > 0, -H is non-negative and irreducible in the
sector, so its ground state is unique with one-signed amplitudes
(Perron-Frobenius) and overlaps that start, and the fixed start makes
reruns bit-identical.  The returned eigenpair is checked a posteriori
against its residual.  No part of scipy is used.  The full 2^N matrix is
built only by dense_hamiltonian (N <= 12), for commutator and spectrum
checks.

The parity game is evaluated through its parity observable.  On promise
input a (even total) each qubit gets the phase diag(1, i^{a_j}) and a
Hadamard; the parity of the measured bits is the X^{(x)N} eigenvalue before
the Hadamards, and the phase layer turns X^{(x)N} into i^{|a|} (-1)^{a.x}.
That i^{|a|} cancels the (-1)^{|a|/2} of the win rule
sum_j b_j = (sum_j a_j)/2 mod 2, so input a wins with probability
(1 + F(a))/2, F(a) = sum_x conj(psi_x) psi_{x xor 1...1} (-1)^{a.x}: one
Walsh-Hadamard transform gives every input at once.  The literal
gate-by-gate simulation, one input per row of a block, is kept as the
reference in tests/test_oracle.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .free_fermion import as_couplings
from .parity_game import _check_players

MAX_DENSE_SITES = 12
MAX_SECTOR_SITES = 16
# Bound on max|H v - E v| of the returned eigenpair, relative to the norm bound
# ||H|| <= N (1 + max g); Lanczos reaches a few ulp of it up to N = 16.
RESIDUAL_TOL = 1e-12
# Most vectors the Lanczos basis may hold before dense_ground_state raises, 100 MiB
# at N = 16.  Measured at N = 16: 80-112 vectors for fields U[0.2, 3], and up to
# 176 for two domains of 8 sites with fields 1/c and c, c = 3..1000.
LANCZOS_BASIS = 400
# Lanczos stops once the residual estimate of its lowest Ritz pair is below this
# times the norm bound N (1 + max g), a few ulp.
LANCZOS_TOL = 1e-15
# Lanczos steps between two convergence tests.  Each test is an eigendecomposition of
# T, which costs more than a step up to N = 12 (0.65 ms against 0.09 at 88 steps there).
LANCZOS_CHECK = 16


@dataclass(frozen=True)
class DenseState:
    """A pure state on n_qubits qubits in the computational basis."""

    amplitudes: np.ndarray
    n_qubits: int
    energy: float | None = None


def _popcounts(dim: int) -> np.ndarray:
    counts = np.zeros(dim, dtype=np.int64)
    idx = np.arange(dim)
    j = 0
    while (1 << j) < dim:
        counts += (idx >> j) & 1
        j += 1
    return counts


def dense_hamiltonian(couplings) -> np.ndarray:
    """The full 2^N x 2^N matrix of H, for commutator and spectrum checks."""
    g = as_couplings(couplings)
    n = g.size
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense construction capped at {MAX_DENSE_SITES} sites")
    dim = 1 << n
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    h[idx, idx] = _zz_diagonal(n, idx)
    for j in range(n):
        flipped = idx ^ (1 << j)
        h[flipped, idx] -= g[j]
    return h


def _zz_diagonal(n: int, idx: np.ndarray) -> np.ndarray:
    # -sum_j z_j z_{j+1} with z = +-1 read off the bits, periodic wrap
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
    return -np.sum(z * np.roll(z, -1, axis=1), axis=1)


def dense_ground_state(couplings) -> DenseState:
    """Even-sector ground state of the ring at fields g_j, by Lanczos.

    Applies H in the spin-flip-symmetric basis of dimension 2^(N-1) matrix
    free, takes its lowest eigenpair from ``_ground_pair`` started at the
    all-ones vector, lifts the eigenvector to the full register, and fixes
    the global phase by making the largest-magnitude amplitude real
    positive.  Only that pair is converged: no gap or excited state is
    computed.  Raises NumericsError when Lanczos needs more than
    LANCZOS_BASIS vectors or the pair misses the residual bound
    RESIDUAL_TOL * N (1 + max g).
    """
    g = as_couplings(couplings)
    n = g.size
    if n > MAX_SECTOR_SITES:
        raise ValueError(f"sector diagonalization capped at {MAX_SECTOR_SITES} sites")
    dim = 1 << n
    full = dim - 1
    idx = np.arange(dim)
    reps = idx[idx < (idx ^ full)]
    pos = np.empty(dim, dtype=np.int64)
    pos[reps] = np.arange(reps.size)
    pos[reps ^ full] = np.arange(reps.size)
    diagonal = _zz_diagonal(n, reps)
    flips = np.stack([pos[reps ^ (1 << j)] for j in range(n)])

    def h(v):  # the ZZ diagonal, then -g_j times the flip of spin j
        return diagonal * v - g @ v[flips]

    norm = n * (1.0 + float(np.max(g)))
    energy, x = _ground_pair(h, reps.size, LANCZOS_TOL * norm)
    residual = float(np.max(np.abs(h(x) - energy * x)))
    bound = RESIDUAL_TOL * norm
    if not residual <= bound:
        raise NumericsError(
            f"sector eigenpair residual {residual:.3e} exceeds {bound:.3e}"
        )

    psi = np.zeros(dim)
    psi[reps] = x
    psi[reps ^ full] = x
    psi /= math.sqrt(2.0)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    return DenseState(amplitudes=psi.astype(complex), n_qubits=n, energy=energy)


def _ground_pair(h, dim: int, tol: float) -> tuple[float, np.ndarray]:
    """The lowest eigenpair (value, unit vector) of a symmetric operator on R^dim.

    Lanczos from the normalized all-ones vector with full
    reorthogonalization (Paige 1972; Parlett, *The Symmetric Eigenvalue
    Problem*, ch. 13), so the tridiagonal matrix T of the basis stays exact
    to rounding: after the three-term step, each new vector takes one
    classical Gram-Schmidt pass against the whole basis, and a second one
    when the first removes more than 1 - 1/sqrt(2) of its norm (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)).
    Every LANCZOS_CHECK steps, and when the basis spans R^dim, the lowest
    eigenpair (theta, s) of T gives the Ritz pair with residual
    beta |s_last|; the run stops once that is within tol.  A new vector of
    norm beta <= tol ends the run too: the Krylov space is then invariant,
    and since the start overlaps the one-signed ground state (see the
    module docstring) it holds that state, so the lowest Ritz pair is exact
    to rounding.  A run not done in LANCZOS_BASIS vectors raises.
    """
    basis = np.empty((min(dim, LANCZOS_BASIS), dim))
    t = np.zeros((len(basis) + 1, len(basis) + 1))  # T, and room for the last beta
    v = np.full(dim, 1.0 / math.sqrt(dim))
    for j in range(len(basis)):
        basis[j] = v
        w = h(v)
        t[j, j] = v @ w
        w -= t[j, j] * v
        if j:
            w -= t[j - 1, j] * basis[j - 1]
        local = np.linalg.norm(w)
        w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        if np.linalg.norm(w) < local / math.sqrt(2.0):  # the pass cancelled: run it again
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = float(np.linalg.norm(w))
        spans = j + 1 == dim
        if spans or beta <= tol or (j + 1) % LANCZOS_CHECK == 0:
            theta, s = np.linalg.eigh(t[: j + 1, : j + 1])
            if spans or beta * abs(s[-1, 0]) <= tol:
                return float(theta[0]), basis[: j + 1].T @ s[:, 0]
        t[j, j + 1] = t[j + 1, j] = beta
        v = w / beta
    raise NumericsError(f"Lanczos did not converge in {len(basis)} vectors")


def ghz_overlaps(state: DenseState) -> tuple[float, float]:
    """(o+, o-): squared overlaps with the even and odd GHZ states."""
    a_zero = state.amplitudes[0]
    a_ones = state.amplitudes[-1]
    o_plus = 0.5 * abs(a_zero + a_ones) ** 2
    o_minus = 0.5 * abs(a_zero - a_ones) ** 2
    return float(o_plus), float(o_minus)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform sum_x v_x (-1)^{a.x} of a 2^N vector, at every a.

    Constant-geometry butterflies: each pass applies the butterfly to the
    lowest bit and rotates it to the top, writing contiguous halves, so after
    one pass per bit every bit is back in place.  The passes alternate
    between the input, which they overwrite, and one scratch array of its size.
    """
    half = values.size // 2
    src, dst = values, np.empty_like(values)
    for _ in range(values.size.bit_length() - 1):
        pairs = src.reshape(half, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=dst[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=dst[half:])
        src, dst = dst, src
    return src


def _input_win_probabilities(state: DenseState) -> np.ndarray:
    """Win probability of the protocol on each even-weight input a, in increasing order of a.

    (1 + F(a))/2, where F is real and so the transform of the real part of
    conj(psi_x) psi_{x xor 1...1} (see the module docstring).
    """
    n = state.n_qubits
    _check_players(n)
    dim = 1 << n
    psi = np.asarray(state.amplitudes, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError("amplitude vector does not match the qubit count")
    transform = _walsh_hadamard((psi.conj() * psi[::-1]).real)
    return 0.5 * (1.0 + transform[_popcounts(dim) % 2 == 0])


def simulate_bbt(state: DenseState) -> float:
    """Average winning probability of the measurement protocol on a state.

    The mean over all even-weight inputs a of the probability that the
    per-qubit phase diag(1, i^{a_j}) and Hadamard, then measurement, give
    output parity (sum_j a_j)/2 mod 2.  Exact up to roundoff; one
    Walsh-Hadamard transform of the state's flip overlaps gives every input,
    so the cost is O(N 2^N).
    """
    return float(np.mean(_input_win_probabilities(state)))


def _stencil_values(fn, points: np.ndarray, what: str) -> np.ndarray:
    """fn at every stencil point, one call on the (P, N) stack of points."""
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"fn must return one value per stencil point, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite value in finite-difference {what}")
    return values


def numerical_gradient(fn, g0, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of the couplings.

    fn scores a (P, N) stack of couplings, one point per row, and returns
    its P values; the 2N stencil points go to it in one call.
    """
    g0 = np.asarray(g0, dtype=float)
    n = g0.size
    shifts = step * np.eye(n)
    values = _stencil_values(fn, np.concatenate((g0 + shifts, g0 - shifts)), "gradient")
    return (values[:n] - values[n:]) / (2.0 * step)


def numerical_hessian(fn, g0, step: float) -> np.ndarray:
    """Central-difference Hessian of a scalar function of the couplings.

    Standard four-point stencil on the off-diagonal, three-point on the
    diagonal; the result is exactly symmetric by construction.  fn scores a
    (P, N) stack of couplings as in ``numerical_gradient``, and all
    1 + 2 N^2 stencil points go to it in one call.
    """
    g0 = np.asarray(g0, dtype=float)
    n = g0.size
    shifts = step * np.eye(n)
    plus, minus = g0 + shifts, g0 - shifts
    i, j = np.triu_indices(n, 1)
    points = np.concatenate(
        (
            g0[None], plus, minus,
            plus[i] + shifts[j], plus[i] - shifts[j], minus[i] + shifts[j], minus[i] - shifts[j],
        )
    )
    values = _stencil_values(fn, points, "Hessian")
    f0, f_plus, f_minus = values[0], values[1 : n + 1], values[n + 1 : 2 * n + 1]
    pp, pm, mp, mm = values[2 * n + 1 :].reshape(4, -1)
    hess = np.empty((n, n))
    hess[np.diag_indices(n)] = (f_plus - 2.0 * f0 + f_minus) / step**2
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * step**2)
    return hess
