"""Sector diagonalization and gate-level game simulation against closed forms.

These are the arbiters used elsewhere, so they get their own independent
checks: spectrum against the quasiparticle energies and the full dense
spectrum, the solver's determinism and failure paths, protocol output
against hand-computable states, and the finite-difference stencils against
an exact quadratic.
"""

import math

import numpy as np
import pytest

from parity_ising import free_fermion as ff
from parity_ising import oracle
from parity_ising import perturbation as pt
from parity_ising.errors import NumericsError


def _ghz(n: int, sign: float) -> oracle.DenseState:
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[-1] = sign / math.sqrt(2.0)
    return oracle.DenseState(amplitudes=amp, n_qubits=n)


def test_ground_state_is_normalized_and_flip_even():
    rng = np.random.default_rng(202)
    g = 1.0 + 0.2 * rng.standard_normal(8)
    state = oracle.dense_ground_state(g)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    idx = np.arange(1 << 8)
    np.testing.assert_array_equal(
        state.amplitudes, state.amplitudes[idx ^ ((1 << 8) - 1)]
    )
    assert state.energy is not None and state.energy < 0.0


@pytest.mark.parametrize("n,g", [(6, 0.7), (8, 1.3)])
def test_ground_energy_matches_quasiparticle_sum(n, g):
    state = oracle.dense_ground_state(np.full(n, g))
    energies = np.linalg.svd(ff.chain_matrix(np.full(n, g)), compute_uv=False)
    assert state.energy == pytest.approx(-float(energies.sum()), rel=1e-10)


def test_ground_state_matches_full_spectrum():
    rng = np.random.default_rng(5)
    g = 0.8 + 0.1 * rng.standard_normal(6)
    h = oracle.dense_hamiltonian(g)
    evals, evecs = np.linalg.eigh(h)
    state = oracle.dense_ground_state(g)
    assert state.energy == pytest.approx(float(evals[0]), abs=1e-10)
    assert abs(np.vdot(evecs[:, 0], state.amplitudes)) == pytest.approx(1.0, abs=1e-10)


def test_hamiltonian_commutes_with_global_flip():
    rng = np.random.default_rng(5)
    g = 0.8 + 0.1 * rng.standard_normal(6)
    h = oracle.dense_hamiltonian(g)
    flip = np.arange(1 << 6) ^ ((1 << 6) - 1)
    np.testing.assert_array_equal(h[np.ix_(flip, flip)], h)


def test_weak_field_ground_state_is_even_ghz():
    state = oracle.dense_ground_state(np.full(4, 1e-6))
    o_plus, o_minus = oracle.ghz_overlaps(state)
    assert o_plus > 1.0 - 1e-4
    assert o_minus < 1e-8


def test_size_cap():
    with pytest.raises(ValueError):
        oracle.dense_ground_state(np.full(18, 1.0))
    with pytest.raises(ValueError):
        oracle.dense_hamiltonian(np.full(14, 1.0))


@pytest.mark.parametrize("n", [14, 16])
def test_sector_oracle_matches_polar_route_beyond_dense_cap(n, monkeypatch):
    # Lanczos applies H once per basis vector: these chains stay within half its cap.
    real_ground_pair, products = oracle._ground_pair, []

    def counted(h, dim, tol):
        return real_ground_pair(lambda v: products.append(None) or h(v), dim, tol)

    monkeypatch.setattr(oracle, "_ground_pair", counted)
    rng = np.random.default_rng(1400 + n)
    g = rng.uniform(0.2, 3.0, n)
    dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
    assert ff.ghz_log_overlap_squared(g) == pytest.approx(math.log(dense_plus), abs=1e-9)
    assert len(products) <= oracle.LANCZOS_BASIS // 2


def test_ground_state_reruns_are_bit_identical():
    g = np.random.default_rng(77).uniform(0.2, 3.0, 10)
    first = oracle.dense_ground_state(g)
    second = oracle.dense_ground_state(g)
    np.testing.assert_array_equal(first.amplitudes, second.amplitudes)
    assert first.energy == second.energy


@pytest.mark.parametrize("n", [4, 8, 12])
def test_ground_state_amplitudes_are_one_signed(n):
    # Perron-Frobenius: -H is non-negative and irreducible in the sector.
    # Not asserted for g below ~1e-2, where the smallest amplitudes sit at
    # roundoff and may flip sign.
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        state = oracle.dense_ground_state(rng.uniform(0.2, 3.0, n))
        assert np.all(state.amplitudes.real > 0.0)


def test_lanczos_failure_raises_numerics_error(monkeypatch):
    # A run that has not converged when its basis is full raises: a cap of 8
    # vectors cannot span the 32-dimensional sector at N = 6, and disordered
    # fields leave the all-ones start no invariant subspace to stop at.
    monkeypatch.setattr(oracle, "LANCZOS_BASIS", 8)
    g = np.random.default_rng(606).uniform(0.2, 3.0, 6)
    with pytest.raises(NumericsError, match="did not converge in 8 vectors"):
        oracle.dense_ground_state(g)


def test_residual_check_catches_perturbed_eigenvector(monkeypatch):
    real_ground_pair = oracle._ground_pair

    def perturbed(h, dim, tol):
        energy, vector = real_ground_pair(h, dim, tol)
        vector[0] += 1e-8
        return energy, vector

    monkeypatch.setattr(oracle, "_ground_pair", perturbed)
    with pytest.raises(NumericsError, match="residual"):
        oracle.dense_ground_state(np.full(6, 1.0))


def _even_sector_spectrum(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of dense_hamiltonian in the flip-even sector, by numpy's dense eigvalsh.

    In the basis (|b> + |flip b>)/sqrt(2), b < flip b, H has the entries
    H[a, b] + H[a, flip b].
    """
    h = oracle.dense_hamiltonian(g)
    full = h.shape[0] - 1
    idx = np.arange(full + 1)
    reps = idx[idx < (idx ^ full)]
    rows = h[reps]
    del h
    return np.linalg.eigvalsh(rows[:, reps] + rows[:, reps ^ full])


EVEN_SECTOR_CHAINS = [
    *(np.full(n, g) for n in (4, 6, 8, 10) for g in (0.1, 1.0, 1.3, 10.0)),
    *(np.random.default_rng(40 + n).uniform(0.2, 3.0, n) for n in (4, 6, 8, 10)),
    np.array([1e-4] * 6 + [1e4] * 6),
]


@pytest.mark.parametrize("g", EVEN_SECTOR_CHAINS, ids=lambda g: f"{g.size}-{g[0]:.3g}-{g[-1]:.3g}")
def test_energy_and_gap_match_the_even_sector_spectrum(g):
    """Lanczos's energy against the dense even-sector ground level, within the residual bound.

    The uniform chains at N = 4, and most of those at N = 6, exhaust the
    all-ones start's Krylov space before converging, so they stop at that
    breakdown, where the space is invariant and holds the ground state.
    """
    state = oracle.dense_ground_state(g)
    bound = oracle.RESIDUAL_TOL * g.size * (1.0 + g.max())
    assert abs(state.energy - _even_sector_spectrum(g)[0]) <= bound


def test_ghz_overlaps_reference_states():
    assert oracle.ghz_overlaps(_ghz(4, +1.0)) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert oracle.ghz_overlaps(_ghz(4, -1.0)) == pytest.approx((0.0, 1.0), abs=1e-15)
    zeros = np.zeros(16, dtype=complex)
    zeros[0] = 1.0
    assert oracle.ghz_overlaps(oracle.DenseState(zeros, 4)) == pytest.approx(
        (0.5, 0.5), abs=1e-15
    )


def test_protocol_on_ghz_states():
    assert oracle.simulate_bbt(_ghz(4, +1.0)) == pytest.approx(1.0, abs=1e-12)
    assert oracle.simulate_bbt(_ghz(4, -1.0)) == pytest.approx(0.0, abs=1e-12)
    assert oracle.simulate_bbt(_ghz(5, +1.0)) == pytest.approx(1.0, abs=1e-12)


def test_protocol_on_product_states():
    n = 4
    plus = np.full(1 << n, (1 << n) ** -0.5, dtype=complex)
    assert oracle.simulate_bbt(oracle.DenseState(plus, n)) == pytest.approx(
        0.5 * (1.0 + 2.0 ** (1 - n)), abs=1e-12
    )
    zero = np.zeros(1 << n, dtype=complex)
    zero[0] = 1.0
    assert oracle.simulate_bbt(oracle.DenseState(zero, n)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_protocol_equals_overlap_formula_on_random_states(n):
    # p = (1 + o+ - o-)/2 for arbitrary states, parity-mixed included
    rng = np.random.default_rng(600 + n)
    for _ in range(3):
        amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amp /= np.linalg.norm(amp)
        state = oracle.DenseState(amp, n)
        o_plus, o_minus = oracle.ghz_overlaps(state)
        assert oracle.simulate_bbt(state) == pytest.approx(
            0.5 * (1.0 + o_plus - o_minus), abs=1e-12
        )


# Row budget of the gate-by-gate reference: 16 inputs per block at N = 10.
REFERENCE_BLOCK_BYTES = 256 * 1024


def _per_input_protocol(state: oracle.DenseState, block_bytes: int = REFERENCE_BLOCK_BYTES) -> np.ndarray:
    """The protocol gate by gate: each even input's win probability, in input order.

    Inputs go one per row of a (block, 2^N) complex array of at most
    block_bytes (at least one row); every row gets its phase layer, then an
    in-place butterfly Hadamard on each qubit.
    """
    n = state.n_qubits
    dim = 1 << n
    psi = np.asarray(state.amplitudes, dtype=complex)
    pc = oracle._popcounts(dim)
    odd_out = pc % 2 == 1
    i_pow = 1j ** np.arange(4)
    idx = np.arange(dim)
    inputs = idx[pc % 2 == 0]
    rows = max(1, block_bytes // (psi.itemsize * dim))
    wins = []
    for start in range(0, inputs.size, rows):
        a = inputs[start : start + rows]
        out = psi * i_pow[pc[np.bitwise_and(a[:, None], idx)] % 4]
        h = 1
        while h < dim:
            out = out.reshape(a.size, -1, 2 * h)
            top = out[:, :, :h].copy()
            out[:, :, :h] = top + out[:, :, h:]
            out[:, :, h:] = top - out[:, :, h:]
            out = out.reshape(a.size, dim)
            h *= 2
        weights = np.abs(out / math.sqrt(dim)) ** 2
        # win when the output parity equals (sum_j a_j)/2 mod 2
        win_odd = (pc[a] // 2) % 2 == 1
        wins.extend(np.where(win_odd, weights[:, odd_out].sum(axis=1), weights[:, ~odd_out].sum(axis=1)))
    return np.array(wins)


@pytest.mark.parametrize("block_bytes", [REFERENCE_BLOCK_BYTES, 3 * 16 * 2**6])
def test_blocked_protocol_matches_per_input_reference(block_bytes):
    # Input by input, so that an error a mean over inputs hides (a reversed
    # input bit order, say) fails here.  The small reference budget gives
    # blocks of three inputs at N = 6 (a short last block) and of one input
    # from N = 7 on.
    rng = np.random.default_rng(4711)
    for n in range(3, 11):
        states = []
        if n % 2 == 0:
            states.append(oracle.dense_ground_state(rng.uniform(0.2, 3.0, n)))
        for _ in range(2):
            amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            states.append(oracle.DenseState(amp / np.linalg.norm(amp), n))
        for state in states:
            wins = oracle._input_win_probabilities(state)
            reference = _per_input_protocol(state, block_bytes)
            assert wins.shape == reference.shape == (1 << (n - 1),)
            np.testing.assert_allclose(wins, reference, rtol=0.0, atol=1e-13)
            assert oracle.simulate_bbt(state) == np.mean(wins)


def test_extreme_contrast_chain_converges():
    # ARPACK's default 20-vector basis failed on this chain after 20481 iterations;
    # Lanczos with full reorthogonalization takes about 120 vectors.
    g = np.array([1e-4] * 6 + [1e4] * 6)
    dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
    assert math.log(dense_plus) == pytest.approx(ff.ghz_log_overlap_squared(g), rel=1e-12)


def test_protocol_input_validation():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    with pytest.raises(ValueError):
        oracle.simulate_bbt(oracle.DenseState(amp, 2))
    with pytest.raises(ValueError):
        oracle.simulate_bbt(oracle.DenseState(amp, 4))


def test_stencils_exact_on_quadratic():
    rng = np.random.default_rng(9)
    lin = rng.standard_normal(5)
    m = rng.standard_normal((5, 5))
    m = m + m.T

    def fn(points):
        return points @ lin + 0.5 * np.einsum("pi,ij,pj->p", points, m, points)

    g0 = rng.standard_normal(5)
    grad = oracle.numerical_gradient(fn, g0, 1e-4)
    np.testing.assert_allclose(grad, lin + m @ g0, atol=1e-8)
    hess = oracle.numerical_hessian(fn, g0, 1e-3)
    np.testing.assert_allclose(hess, m, atol=1e-6)
    np.testing.assert_array_equal(hess, hess.T)


def test_stencils_reject_non_finite():
    with pytest.raises(NumericsError):
        oracle.numerical_gradient(lambda points: np.full(len(points), math.nan), np.ones(3), 1e-4)
    with pytest.raises(NumericsError):
        oracle.numerical_hessian(lambda points: np.full(len(points), math.inf), np.ones(3), 1e-3)
    with pytest.raises(ValueError, match="one value per stencil point"):
        oracle.numerical_hessian(lambda points: 0.0, np.ones(3), 1e-3)


def test_gradient_of_overlap_matches_mode_sum():
    grad = oracle.numerical_gradient(ff.ghz_log_overlap_squared, np.full(8, 1.2), 1e-4)
    np.testing.assert_allclose(grad, pt.chi_prime(1.2, 8) / 8.0, rtol=1e-8)


def test_hessian_contractions_match_analytic():
    hess = oracle.numerical_hessian(ff.ghz_log_overlap_squared, np.full(8, 1.2), 1e-3)
    assert np.trace(hess) == pytest.approx(pt.laplacian_u(1.2, 8), rel=1e-3)
    assert hess.sum() == pytest.approx(pt.chi_double_prime(1.2, 8), rel=1e-3)
