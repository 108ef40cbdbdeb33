"""Brute-force cross-checks: sector diagonalization, game simulation, stencils.

Everything in this module deliberately avoids the free-fermion machinery so
it can arbitrate it.  The spin Hamiltonian

    H = -sum_j Z_j Z_{j+1} - sum_j g_j X_j     (ring)

is written in the computational basis with site j stored in bit j of the
basis index (little endian).  H commutes with the global spin flip
P = prod_j X_j, and for positive fields the ground state lies in the P = +1
sector.  The ground state is therefore computed in the symmetrized basis
(|b> + |flip b>)/sqrt(2) of dimension 2^(N-1), N <= 16, where H is a sparse
matrix with N + 1 entries per column, by Lanczos (ARPACK) for the lowest two
eigenpairs, and lifted back to the full register.  Working in the sector
keeps the result deterministic even deep in the ferromagnet, where the two
GHZ-like states are degenerate to far beyond machine precision.  Lanczos
starts from the all-ones vector: for g_j > 0, -H is non-negative and
irreducible in the sector, so its ground state is unique with one-signed
amplitudes (Perron-Frobenius) and overlaps that start, and a fixed start
makes reruns bit-identical.  The returned eigenpairs are checked a
posteriori against their residual.  The full 2^N matrix is built only by
dense_hamiltonian (N <= 12), for commutator and spectrum checks.

The parity game is simulated gate by gate: every promise input (even total),
a diag(1, i^{a_j}) phase on each qubit, a Hadamard on each qubit, then the
win condition sum_j b_j = (sum_j a_j)/2 mod 2 on the measured bits.  A
block of inputs goes through the gates at once, one input per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .free_fermion import as_couplings
from .parity_game import _check_players

MAX_DENSE_SITES = 12
MAX_SECTOR_SITES = 16
DEGENERACY_GAP = 1e-10
# Bound on max|H v - E v| of a returned eigenpair, relative to the norm bound
# ||H|| <= N (1 + max g); Lanczos reaches about 20 ulp of it up to N = 16.
RESIDUAL_TOL = 1e-12
# Lanczos basis size.  ARPACK's default of 20 vectors stalls on the second
# eigenpair of chains with strong field contrast (10^-4 x 6 + 10^4 x 6 did
# not converge in 20481 iterations); 40 resolves it in a few restarts.
LANCZOS_BASIS = 40
# Largest (inputs, 2^N) complex block the protocol simulation holds at once.
PROTOCOL_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class DenseState:
    """A pure state on n_qubits qubits in the computational basis."""

    amplitudes: np.ndarray
    n_qubits: int
    energy: float | None = None
    gap: float | None = None

    @property
    def degenerate(self) -> bool:
        """True when the sector gap is too small to trust excited-state splits."""
        return self.gap is not None and self.gap < DEGENERACY_GAP


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
    """Even-sector ground state of the ring at fields g_j, by sparse Lanczos.

    Builds H in the spin-flip-symmetric basis of dimension 2^(N-1) as a
    sparse matrix, takes its lowest two eigenpairs from ARPACK started at
    the all-ones vector with a basis of LANCZOS_BASIS vectors, lifts the lowest eigenvector to the full register,
    and fixes the global phase by making the largest-magnitude amplitude
    real positive.  Raises NumericsError when ARPACK fails or an eigenpair
    misses the residual bound RESIDUAL_TOL * N (1 + max g).  The reported
    gap is the even-sector excitation gap; if it falls below the degeneracy
    threshold the state is flagged via DenseState.degenerate.
    """
    from scipy import sparse
    from scipy.sparse.linalg import ArpackError, eigsh

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

    # The COO triplets are temporaries, so only the CSR matrix stays alive
    # next to the Lanczos basis.
    cols = np.arange(reps.size)
    h = sparse.csr_array(
        (
            np.concatenate([_zz_diagonal(n, reps), np.repeat(-g, reps.size)]),
            (np.concatenate([cols, *(pos[reps ^ (1 << j)] for j in range(n))]), np.tile(cols, n + 1)),
        ),
        shape=(reps.size, reps.size),
    )

    try:
        evals, evecs = eigsh(
            h, k=2, which="SA", tol=0, v0=np.ones(reps.size),
            ncv=min(LANCZOS_BASIS, reps.size),
        )
    except ArpackError as exc:
        raise NumericsError("sector eigensolver failed") from exc
    residual = float(np.max(np.abs(h @ evecs - evecs * evals)))
    bound = RESIDUAL_TOL * n * (1.0 + float(np.max(g)))
    if not residual <= bound:
        raise NumericsError(
            f"sector eigenpair residual {residual:.3e} exceeds {bound:.3e}"
        )

    psi = np.zeros(dim)
    psi[reps] = evecs[:, 0]
    psi[reps ^ full] = evecs[:, 0]
    psi /= math.sqrt(2.0)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    return DenseState(
        amplitudes=psi.astype(complex),
        n_qubits=n,
        energy=float(evals[0]),
        gap=float(evals[1] - evals[0]),
    )


def ghz_overlaps(state: DenseState) -> tuple[float, float]:
    """(o+, o-): squared overlaps with the even and odd GHZ states."""
    a_zero = state.amplitudes[0]
    a_ones = state.amplitudes[-1]
    o_plus = 0.5 * abs(a_zero + a_ones) ** 2
    o_minus = 0.5 * abs(a_zero - a_ones) ** 2
    return float(o_plus), float(o_minus)


def _fwht_rows(block: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform (Hadamard on every qubit) of each row.

    Constant-geometry butterflies: each pass applies H to the lowest qubit
    and rotates it to the top, writing contiguous halves, so after one pass
    per qubit every qubit has had its Hadamard and is back in place.  The
    passes alternate between the block and one scratch array of its size.
    """
    rows, dim = block.shape
    half = dim // 2
    src, dst = block, np.empty_like(block)
    for _ in range(dim.bit_length() - 1):
        pairs = src.reshape(rows, half, 2)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, :half])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=dst[:, half:])
        src, dst = dst, src
    src *= 1.0 / math.sqrt(dim)
    return src


def simulate_bbt(state: DenseState) -> float:
    """Average winning probability of the measurement protocol on a state.

    Enumerates all even-weight inputs a.  For each, applies the per-qubit
    phase diag(1, i^{a_j}) and Hadamard, then sums the probability of output
    strings whose parity equals (sum_j a_j)/2 mod 2.  Exact up to roundoff;
    cost O(4^N) overall.  Inputs are simulated in blocks, each one row of a
    (block, 2^N) complex array, with blocks sized so that no array exceeds
    PROTOCOL_BLOCK_BYTES.
    """
    n = state.n_qubits
    _check_players(n)
    dim = 1 << n
    psi = np.asarray(state.amplitudes, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError("amplitude vector does not match the qubit count")
    pc = _popcounts(dim)
    odd_out = (pc & 1).astype(float)
    i_pow = 1j ** np.arange(4)
    idx = np.arange(dim)

    inputs = idx[pc % 2 == 0]
    block_rows = max(1, PROTOCOL_BLOCK_BYTES // (psi.itemsize * dim))
    total = 0.0
    for start in range(0, inputs.size, block_rows):
        a = inputs[start : start + block_rows]
        block = i_pow[pc[np.bitwise_and(a[:, None], idx)] & 3]
        block *= psi
        after = _fwht_rows(block)
        weights = after.real**2 + after.imag**2
        # win when the output parity equals (sum_j a_j)/2 mod 2
        p_odd = weights @ odd_out
        p_even = weights @ (1.0 - odd_out)
        total += float(np.sum(np.where((pc[a] >> 1) & 1, p_odd, p_even)))
    return total / inputs.size


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
