"""Momentum-space spectrum, the chain matrix, and the polar-factor overlap route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_ising import free_fermion as ff
from parity_ising import oracle
from parity_ising.errors import NumericsError


def test_allowed_wavenumbers_are_odd_multiples():
    k = ff.allowed_wavenumbers(8)
    assert k.shape == (4,)
    np.testing.assert_allclose(k, np.pi * np.array([1, 3, 5, 7]) / 8, rtol=0, atol=1e-15)
    assert np.all((0 < k) & (k < np.pi))


@pytest.mark.parametrize("bad", [2, 5, 7, 0])
def test_wavenumbers_reject_bad_sizes(bad):
    with pytest.raises(ValueError):
        ff.allowed_wavenumbers(bad)


def test_coupling_validation():
    with pytest.raises(ValueError):
        ff.as_couplings([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(ValueError):
        ff.as_couplings([1.0, 1.0, 1.0])  # odd length
    with pytest.raises(ValueError):
        ff.as_couplings([1.0, np.nan, 1.0, 1.0])
    with pytest.raises(ValueError):
        ff.as_couplings(np.ones((2, 2)))
    g = ff.as_couplings([1.0, 2.0, 0.5, 1.5])
    assert g.dtype == np.float64


def test_dispersion_and_angles():
    spec = ff.bogoliubov_spectrum(1.3, 12)
    k = spec.wavenumbers
    np.testing.assert_allclose(
        spec.energies, np.sqrt(1 + 1.3**2 - 2 * 1.3 * np.cos(k)), rtol=1e-15
    )
    # angle definition: (sin, cos) = (sin k, g - cos k)/eps
    np.testing.assert_allclose(spec.sin_theta * spec.energies, np.sin(k), rtol=1e-14)
    np.testing.assert_allclose(spec.cos_theta * spec.energies, 1.3 - np.cos(k), rtol=1e-14)
    assert np.all(spec.energies > 0)


def test_chain_matrix_structure():
    g = np.array([0.9, 1.1, 1.3, 0.7, 1.0, 0.8])
    n = g.size
    z = ff.chain_matrix(g)
    expected = np.diag(g) + np.diag(-np.ones(n - 1), -1)
    # the wrap-around bond sits in the opposite corner with the opposite
    # sign, which is what selects the even-fermion-parity (antiperiodic) sector
    expected[0, n - 1] = 1.0
    np.testing.assert_array_equal(z, expected)  # zeros everywhere else
    # only the diagonal and the N-cycle contribute to the determinant
    assert np.linalg.det(z) == pytest.approx(np.prod(g) + 1.0, rel=1e-12)
    with pytest.raises(ValueError):
        ff.chain_matrix([1.0, 1.0, 1.0])


def _nambu_blocks(g):
    """Hopping block A (symmetric part of Z) and pairing block B (minus its antisymmetric part)."""
    z = ff.chain_matrix(g)
    return (z + z.T) / 2.0, (z.T - z) / 2.0


def test_nambu_block_structure():
    g = np.array([0.9, 1.1, 1.3, 0.7, 1.0, 0.8])
    a, b = _nambu_blocks(g)
    np.testing.assert_array_equal(a, a.T)
    np.testing.assert_array_equal(b, -b.T)
    np.testing.assert_array_equal(np.diag(a), g)
    # bulk bonds -1/2; the boundary bond carries the opposite sign, which is
    # what selects the even-fermion-parity (antiperiodic) sector
    assert a[0, 1] == -0.5 and a[2, 3] == -0.5
    assert a[0, 5] == 0.5 and a[5, 0] == 0.5
    assert b[0, 1] == -0.5 and b[1, 0] == 0.5
    assert b[5, 0] == 0.5 and b[0, 5] == -0.5


def test_single_particle_matrix_is_symmetric():
    """[[A, B], [-B, -A]] is symmetric and its spectrum is +-(singular values of Z)."""
    g = np.array([1.0, 0.5, 2.0, 1.5])
    a, b = _nambu_blocks(g)
    h = np.block([[a, b], [-b, -a]])
    np.testing.assert_array_equal(h, h.T)
    assert h.shape == (8, 8)
    singular = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h), np.sort(np.concatenate((-singular, singular))), rtol=0, atol=1e-12
    )


def test_transform_blocks_are_unitary():
    """The polar factor W that carries the ground state is orthogonal.

    In the g -> 0+ limit it is the signed cyclic shift W0 = Z(g = 0) that the
    overlap route rolls rows by.
    """
    rng = np.random.default_rng(5)
    for n in (4, 8, 14):
        shift = ff.chain_matrix(np.ones(n)) - np.eye(n)
        for g in (np.full(n, 1e-12), np.full(n, 0.7), rng.uniform(0.2, 3.0, n)):
            w = ff.polar_factor(g)
            np.testing.assert_allclose(w.T @ w, np.eye(n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ff.polar_factor(np.full(n, 1e-12)), shift, rtol=0, atol=1e-10)


def test_singular_values_match_uniform_spectrum():
    """At uniform g the singular values of Z are the energies eps_k, each twice."""
    n = 16
    for g in (0.3, 1.0, 1.7):
        singular = np.linalg.svd(ff.chain_matrix(np.full(n, g)), compute_uv=False)
        energies = ff.bogoliubov_spectrum(g, n).energies
        np.testing.assert_allclose(
            np.sort(singular), np.sort(np.repeat(energies, 2)), rtol=0, atol=1e-12
        )


def test_overlap_never_exceeds_one():
    rng = np.random.default_rng(99)
    for _ in range(20):
        g = rng.uniform(0.2, 3.0, 8)
        assert ff.ghz_log_overlap_squared(g) <= 0.0


def test_ghz_overlap_limits():
    # g -> 0+: the ground state becomes the even GHZ state itself
    assert ff.ghz_overlap_squared(np.full(8, 1e-8)) == pytest.approx(1.0, abs=1e-6)
    # deep paramagnet: overlap ~ 2 |<0...0|+...+>|^2 = 2^(1-N)
    assert ff.ghz_overlap_squared(np.full(8, 200.0)) == pytest.approx(2.0**-7, rel=0.05)


def test_ghz_overlap_decreases_with_uniform_coupling():
    values = [ff.ghz_overlap_squared(np.full(10, g)) for g in (0.2, 0.6, 1.0, 1.4, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_product_formula_for_uniform_chains():
    """log o+ = sum_k log cos^2((theta_k - theta_k^0)/2) for uniform g."""
    n = 12
    for g in (0.4, 1.2):
        spec = ff.bogoliubov_spectrum(g, n)
        theta = np.arctan2(spec.sin_theta, spec.cos_theta)
        theta0 = np.pi - spec.wavenumbers
        expected = float(np.sum(np.log(np.cos((theta - theta0) / 2.0) ** 2)))
        assert ff.ghz_log_overlap_squared(np.full(n, g)) == pytest.approx(expected, abs=1e-12)


def test_nonfinite_couplings_rejected_by_pipeline():
    with pytest.raises(ValueError):
        ff.ghz_log_overlap_squared([1.0, 1.0, np.inf, 1.0])


def test_unitarity_guard_catches_corruption(monkeypatch):
    """A non-orthogonal polar factor or an unresolved singular value raises."""
    g = np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2])
    svd = np.linalg.svd

    def scaled_u(z):
        u, s, vt = svd(z)
        return 2.0 * u, s, vt

    def singular(z):
        u, s, vt = svd(z)
        s = s.copy()
        s[-1] = 0.0
        return u, s, vt

    for corrupt in (scaled_u, singular):
        monkeypatch.setattr(ff.np.linalg, "svd", corrupt)
        with pytest.raises(NumericsError):
            ff.ghz_log_overlap_squared(g)
    monkeypatch.undo()
    assert ff.ghz_log_overlap_squared(g) < 0.0


# Property tests over random positive fields on even chains.  Derandomized and
# without an example database, so every run draws the same examples.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _fields(max_sites: int):
    return st.integers(2, max_sites // 2).flatmap(
        lambda half: st.lists(
            st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            min_size=2 * half,
            max_size=2 * half,
        )
    ).map(np.array)


@PROPERTY_SETTINGS
@given(_fields(40))
def test_property_ghz_weight_is_a_probability(g):
    o_plus = ff.ghz_overlap_squared(g)
    assert 0.0 <= o_plus <= 1.0


@PROPERTY_SETTINGS
@given(_fields(40), st.integers(1, 39))
def test_property_ghz_weight_invariant_under_shift_and_reversal(g, shift):
    log_o = ff.ghz_log_overlap_squared(g)
    assert ff.ghz_log_overlap_squared(np.roll(g, shift % g.size)) == pytest.approx(log_o, abs=1e-11)
    assert ff.ghz_log_overlap_squared(g[::-1]) == pytest.approx(log_o, abs=1e-11)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(_fields(10))
def test_property_ghz_weight_matches_dense_oracle(g):
    dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
    assert ff.ghz_overlap_squared(g) == pytest.approx(dense_plus, abs=1e-9)
