"""Momentum-space spectrum and its N -> oo rule, the chain matrix, and the polar-factor overlap route."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_ising import free_fermion as ff
from parity_ising import oracle
from parity_ising import parity_game as pg
from parity_ising import perturbation as pt
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


@pytest.mark.parametrize(
    "integrand, exact, abs_tol, rel_tol",
    [
        (np.log, math.pi * math.log(math.pi) - math.pi, 1e-13, 0.0),
        (lambda k: np.log(np.sin(0.5 * k)), -math.pi * math.log(2.0), 1e-13, 0.0),
        (lambda k: k**5, math.pi**6 / 6.0, 0.0, 1e-14),
    ],
    ids=["log k", "log sin(k/2)", "k^5"],
)
def test_wavenumber_integral_of_known_integrands(integrand, exact, abs_tol, rel_tol):
    # the grading toward k = 0 resolves the log singularities there
    value, error = ff.wavenumber_integral(lambda k, w: w @ integrand(k), 1e-12, 1e-10, "test")
    assert value == pytest.approx(exact, abs=abs_tol, rel=rel_tol)
    assert error <= 1e-10
    assert ff._legendre.cache_info().currsize <= len(ff.LEGENDRE_ORDERS)


def test_wavenumber_integral_gate_and_grading():
    # a step at k = 1 lies inside the panel (pi/4, pi), which no order resolves
    with pytest.raises(NumericsError):
        ff.wavenumber_integral(lambda k, w: w @ (k < 1.0), 1e-12, 1e-6, "step")
    # breakpoints pi 4^-j down to the first at or below the floor: 0, pi/16, pi/4, pi
    nodes = []
    ff.wavenumber_integral(lambda k, w: nodes.append(k) or 0.0, 0.2, 1.0, "grading")
    assert [k.size for k in nodes] == [3 * order for order in ff.LEGENDRE_ORDERS]
    assert np.all((nodes[0] > 0.0) & (nodes[0] < np.pi))
    assert np.sum(nodes[0] < np.pi / 16) == np.sum(nodes[0] > np.pi / 4) == ff.LEGENDRE_ORDERS[0]


def test_quadrature_error_is_logged_not_printed(capsys, caplog):
    pg.advantage_density(1.3)
    pt.laplacian_density_limit(0.8)
    assert capsys.readouterr() == ("", "")
    with caplog.at_level("DEBUG", logger="parity_ising"):
        pg.advantage_density(1.3)
        pt.laplacian_density_limit(0.8)
    assert capsys.readouterr() == ("", "")
    records = [r for r in caplog.records if r.name == "parity_ising.free_fermion"]
    assert [r.levelname for r in records] == ["DEBUG", "DEBUG"]
    density, laplacian = (r.getMessage() for r in records)
    assert density.startswith("advantage density: error ") and density.endswith(" nodes")
    assert laplacian.startswith("Laplacian density: error ")


def test_thermodynamic_integrals_leave_scipy_quadrature_unloaded():
    """Every submodule, both integrals and both roots, and no scipy.integrate."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import importlib, pkgutil, sys, parity_ising; "
        "[importlib.import_module('parity_ising.' + m.name) for m in pkgutil.iter_modules(parity_ising.__path__)]; "
        "parity_ising.parity_game.find_advantage_boundary(); "
        "parity_ising.perturbation.laplacian_crossover_thermodynamic(); "
        "print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
        kernel = ff.ChainOverlap(n)
        shift = ff.chain_matrix(np.ones(n)) - np.eye(n)
        for g in (np.full(n, 1e-12), np.full(n, 0.7), rng.uniform(0.2, 3.0, n)):
            w = kernel.polar(g)
            np.testing.assert_allclose(w.T @ w, np.eye(n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel.polar(np.full(n, 1e-12)), shift, rtol=0, atol=1e-10)


def test_singular_values_match_uniform_spectrum():
    """At uniform g the singular values of Z are the energies eps_k, each twice."""
    n = 16
    for g in (0.3, 1.0, 1.7):
        singular = np.linalg.svd(ff.chain_matrix(np.full(n, g)), compute_uv=False)
        energies = ff.bogoliubov_spectrum(g, n).energies
        np.testing.assert_allclose(
            np.sort(singular), np.sort(np.repeat(energies, 2)), rtol=0, atol=1e-12
        )


def test_ghz_overlap_limits():
    # g -> 0+: the ground state becomes the even GHZ state itself
    assert math.exp(ff.ghz_log_overlap_squared(np.full(8, 1e-8))) == pytest.approx(1.0, abs=1e-6)
    # deep paramagnet: overlap ~ 2 |<0...0|+...+>|^2 = 2^(1-N)
    assert math.exp(ff.ghz_log_overlap_squared(np.full(8, 200.0))) == pytest.approx(2.0**-7, rel=0.05)


def test_ghz_overlap_decreases_with_uniform_coupling():
    values = [ff.ghz_log_overlap_squared(np.full(10, g)) for g in (0.2, 0.6, 1.0, 1.4, 2.0)]
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
    """A LAPACK SVD with a non-orthogonal factor, two zero singular values or a failure code raises."""
    g = np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2])
    gesdd = ff.lapack.dgesdd

    def scaled_u(a, **kwargs):
        u, s, vt, info = gesdd(a, **kwargs)
        return 2.0 * u, s, vt, info

    def two_zero_singular_values(a, **kwargs):
        u, s, vt, info = gesdd(a, **kwargs)
        s[-2:] = 0.0
        return u, s, vt, info

    def failed(a, **kwargs):
        u, s, vt, _ = gesdd(a, **kwargs)
        return u, s, vt, 1

    for corrupt in (scaled_u, two_zero_singular_values, failed):
        monkeypatch.setattr(ff.lapack, "dgesdd", corrupt)
        for route in (ff.ChainOverlap(g.size).polar, ff.ghz_log_overlap_squared):
            with pytest.raises(NumericsError):
                route(g)
    monkeypatch.undo()
    assert ff.ghz_log_overlap_squared(g) < 0.0


def test_unresolved_singular_pair_is_oriented_by_det_z(monkeypatch):
    """One zero singular value with its pair flipped in sign: det Z > 0 restores W."""
    g = np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2])
    expected = ff.ghz_log_overlap_squared(g)
    gesdd = ff.lapack.dgesdd

    def flipped_zero_mode(a, **kwargs):
        u, s, vt, info = gesdd(a, **kwargs)
        s[-1] = 0.0
        u[:, -1] *= -1.0
        return u, s, vt, info

    monkeypatch.setattr(ff.lapack, "dgesdd", flipped_zero_mode)
    kernel = ff.ChainOverlap(g.size)
    assert kernel(g) == pytest.approx(expected, rel=1e-12)
    assert kernel.min_singular_ratio == 0.0


def test_zero_pivot_gives_minus_inf(monkeypatch):
    """An exactly singular (I + W0^T W)/2 is a zero overlap, as slogdet reports it."""
    getrf = ff.lapack.dgetrf

    def zeroed(a, **kwargs):
        a[...] = 0.0
        return getrf(a, **kwargs)

    monkeypatch.setattr(ff.lapack, "dgetrf", zeroed)
    assert ff.ghz_log_overlap_squared(np.full(8, 1.3)) == -np.inf


def test_kernel_reuse_matches_one_shot_calls():
    """One object over many fields gives the one-shot values and records its numerics."""
    rng = np.random.default_rng(3)
    kernel = ff.ChainOverlap(12)
    draws = [rng.uniform(0.2, 3.0, 12) for _ in range(20)]
    for g in draws:
        assert kernel(g) == ff.ghz_log_overlap_squared(g)
    np.testing.assert_array_equal(kernel.polar(draws[0]), ff.ChainOverlap(12).polar(draws[0]))
    assert kernel.evaluations == 21
    assert 0.0 < kernel.max_defect <= ff.UNITARITY_TOL
    ratios = [np.linalg.svd(ff.chain_matrix(g), compute_uv=False) for g in draws]
    assert kernel.min_singular_ratio == pytest.approx(min(s[-1] / s[0] for s in ratios), rel=1e-10)
    with pytest.raises(ValueError):
        kernel(np.ones(10))
    with pytest.raises(ValueError):
        ff.ChainOverlap(7)


def test_heavy_tailed_fields_match_dense_oracle():
    """Fields whose domain wall leaves s_min below N eps s_max, against the oracle.

    Each chain of one weak domain here used to raise; at 1/3000 x 5 +
    3000 x 7 the computed singular pair also comes out misoriented, and
    1e-3 x 6 + 1e3 x 6 has s_min = 1.4e-17.  Log-normal draws
    (sigma_log = 3) cover heavy tails that stay resolved.
    """
    domains = [
        (8, 4, 3e3), (10, 4, 1e3), (10, 5, 3e3), (12, 4, 3e3), (12, 5, 300.0), (12, 5, 3e3),
        (12, 6, 1e3),
    ]
    for n, weak, contrast in domains:
        g = np.array([1.0 / contrast] * weak + [contrast] * (n - weak))
        kernel = ff.ChainOverlap(n)
        log_o = kernel(g)
        assert kernel.min_singular_ratio <= n * np.finfo(float).eps
        dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
        assert log_o == pytest.approx(np.log(dense_plus), rel=1e-9)
    rng = np.random.default_rng(0)
    for n in (8, 10) * 10:
        g = np.exp(3.0 * rng.standard_normal(n))
        dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
        assert ff.ghz_log_overlap_squared(g) == pytest.approx(np.log(dense_plus), rel=1e-9)


def test_two_domain_chain_still_raises():
    """Two ferromagnetic domains leave two near-zero modes, which no sign fixes."""
    g = np.array(([1e-4] * 3 + [1e4] * 3) * 2)
    with pytest.raises(NumericsError, match="two or more"):
        ff.ghz_log_overlap_squared(g)


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
    assert -math.inf <= ff.ghz_log_overlap_squared(g) <= 0.0


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
    assert ff.ghz_log_overlap_squared(g) == pytest.approx(math.log(dense_plus), abs=1e-9)


_UNIFORM_G = st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(_UNIFORM_G, st.integers(2, 20))
def test_property_polar_route_matches_mode_product(g, half):
    n = 2 * half
    via_polar = pg.utility_from_log_overlap(ff.ghz_log_overlap_squared(np.full(n, g)), n)
    assert via_polar == pytest.approx(pg.utility_clean(g, n), abs=1e-11)


@PROPERTY_SETTINGS
@given(_UNIFORM_G, _UNIFORM_G, st.integers(2, 20))
def test_property_ghz_weight_does_not_increase_with_uniform_coupling(g1, g2, half):
    n = 2 * half
    low, high = sorted((g1, g2))
    log_low = ff.ghz_log_overlap_squared(np.full(n, low))
    assert ff.ghz_log_overlap_squared(np.full(n, high)) <= log_low + 1e-13


_LOG_UNIFORM_G = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False).map(lambda x: 10.0**x)


@PROPERTY_SETTINGS
@given(st.integers(2, 20).flatmap(lambda half: st.lists(_LOG_UNIFORM_G, min_size=2 * half, max_size=2 * half)))
def test_property_log_uniform_fields_stay_finite_or_raise(fields):
    """Fields over eight decades: log o+ is finite and <= 0, or the documented error."""
    try:
        log_o = ff.ghz_log_overlap_squared(np.array(fields))
    except NumericsError:
        return
    assert np.isfinite(log_o) and log_o <= 0.0
