"""Momentum-space spectrum and its N -> oo rule, the chain matrix, and the polar-factor overlap route."""

import math
import os
import subprocess
import sys
import warnings

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


# Resolved on the band route, and a domain wall that only the SVD fallback resolves.
WELL_CONDITIONED = np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2])
SVD_ONLY = np.array([1.0 / 3000.0] * 5 + [3000.0] * 7)


@pytest.fixture
def band_only():
    """An empty Newton-Schulz window, so that every chain length starts on the band route.

    Its own patcher, so that a test's ``monkeypatch.undo()`` keeps it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ff, "NEWTON_SCHULZ_SITES", (0, 0))
        yield


def test_unitarity_guard_catches_corruption(monkeypatch, band_only):
    """A non-orthogonal factor, two zero singular values or a LAPACK failure code raises, on either branch."""
    sbevd = ff.lapack.dsbevd
    gesdd = ff.lapack.dgesdd

    def scaled_v(ab, **kwargs):
        w, v, info = sbevd(ab, **kwargs)
        return w, 2.0 * v, info

    def failed_band(ab, **kwargs):
        w, v, _ = sbevd(ab, **kwargs)
        return w, v, 1

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

    for driver, corrupt, g in (
        ("dsbevd", scaled_v, WELL_CONDITIONED),
        ("dsbevd", failed_band, WELL_CONDITIONED),
        ("dgesdd", scaled_u, SVD_ONLY),
        ("dgesdd", two_zero_singular_values, SVD_ONLY),
        ("dgesdd", failed, SVD_ONLY),
    ):
        monkeypatch.setattr(ff.lapack, driver, corrupt)
        for route in (ff.ChainOverlap(g.size).polar, ff.ghz_log_overlap_squared):
            with pytest.raises(NumericsError):
                route(g)
        monkeypatch.undo()
    kernel = ff.ChainOverlap(WELL_CONDITIONED.size)
    assert kernel(WELL_CONDITIONED) < 0.0 and kernel.svd_fallbacks == 0
    kernel = ff.ChainOverlap(SVD_ONLY.size)
    assert kernel(SVD_ONLY) < 0.0 and kernel.svd_fallbacks == 1


def test_unresolved_singular_pair_is_oriented_by_det_z(monkeypatch):
    """One zero singular value with its pair flipped in sign: det Z > 0 restores W."""
    g = SVD_ONLY
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
    slogdet = np.linalg.slogdet

    def zeroed(a):
        a[...] = 0.0
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", zeroed)
    assert ff.ghz_log_overlap_squared(np.full(8, 1.3)) == -np.inf
    np.testing.assert_array_equal(ff.ChainOverlap(8)(np.full((3, 8), 1.3)), -np.inf)


def _stack_chains(n):
    """37 chains of length n: random fields, one SVD fallback, and the uniform chain 1.3 last."""
    rng = np.random.default_rng((37, n))
    chains = [rng.uniform(0.2, 3.0, n) for _ in range(33)]
    chains += [np.exp(1.5 * rng.standard_normal(n)) for _ in range(2)]
    weak = 5 * n // 12
    chains += [np.array([1.0 / 3000.0] * weak + [3000.0] * (n - weak)), np.full(n, 1.3)]
    return np.array(chains)


@pytest.mark.parametrize("n", [12, 40], ids=("one-stack", "two-stacks"))
def test_stack_scores_each_chain_as_it_scores_alone(monkeypatch, band_only, n):
    """A stack gives bit for bit the values and counters of its chains scored one at a time.

    The fallback chain is SVD_ONLY at N = 12, and the last chain's
    (I + W0^T W)/2 is zeroed, as in the zero-pivot test, wherever it sits.
    """
    chains = _stack_chains(n)
    assert (n == 12) == np.array_equal(chains[-2], SVD_ONLY)
    slogdet = np.linalg.slogdet
    pivots = []

    def recorded(a):
        pivots.append(a[..., 0, 0].copy())
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", recorded)
    ff.ChainOverlap(n)(chains[-1])
    (marked,) = pivots[0]

    def zeroed(a):
        a[a[:, 0, 0] == marked] = 0.0
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", zeroed)
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    assert stacked.stack == max(1, ff.STACK_ENTRIES // n**2)
    values = stacked(chains)
    np.testing.assert_array_equal(values, [alone(g) for g in chains])
    np.testing.assert_array_equal(values, [ff.ghz_log_overlap_squared(g) for g in chains])
    assert values[-1] == -np.inf and np.isfinite(values[:-1]).all()
    for counter in ("evaluations", "svd_fallbacks", "max_defect", "min_singular_ratio"):
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert stacked.evaluations == 37 and stacked.svd_fallbacks >= 1


def test_one_failing_chain_raises_for_its_whole_stack(monkeypatch, band_only):
    """Two unresolved singular values, a non-orthogonal factor or an overlap above 1 in mid-stack raise for it."""
    chains = np.array([np.full(12, 0.9), np.array(([1e-4] * 3 + [1e4] * 3) * 2), np.full(12, 1.7)])
    with pytest.raises(NumericsError, match="two or more"):
        ff.ChainOverlap(12)(chains)
    sbevd = ff.lapack.dsbevd
    calls = []

    def second_scaled(ab, **kwargs):
        w, v, info = sbevd(ab, **kwargs)
        calls.append(None)
        return w, (2.0 if len(calls) == 2 else 1.0) * v, info

    uniform = np.array([np.full(12, 0.9), np.full(12, 1.3), np.full(12, 1.7)])
    monkeypatch.setattr(ff.lapack, "dsbevd", second_scaled)
    with pytest.raises(NumericsError, match="not orthogonal"):
        ff.ChainOverlap(12)(uniform)
    monkeypatch.undo()
    slogdet = np.linalg.slogdet

    def second_above_one(a):
        sign, logabs = slogdet(a)
        logabs[1] = 2.0 * ff.OVERLAP_SLACK
        return sign, logabs

    monkeypatch.setattr(np.linalg, "slogdet", second_above_one)
    with pytest.raises(NumericsError, match="exceeds 1"):
        ff.ChainOverlap(12)(uniform)


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
    for wrong_shape in (np.ones(10), np.ones((2, 10)), np.ones((2, 2, 12))):
        with pytest.raises(ValueError):
            kernel(wrong_shape)
    with pytest.raises(ValueError):
        kernel.polar(np.ones((2, 12)))
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


def _svd_log_overlap(g):
    """log o+ by numpy's SVD and slogdet, the dense route written out once more."""
    u, _, vt = np.linalg.svd(ff.chain_matrix(g))
    w = u @ vt
    shifted = np.vstack((-w[1:], w[:1]))  # W0^T W
    return np.linalg.slogdet((np.eye(g.size) + shifted) / 2.0)[1]


def _route_sweep():
    """Chains from uniform through near-critical to domain walls beyond the resolvable floor."""
    rng = np.random.default_rng(13)
    chains = [np.full(n, g) for n in (12, 40) for g in (0.3, 1.0, 1.7)]
    chains += [rng.uniform(0.0, 2.0, 80) for _ in range(4)]  # near-critical uniform_iid(1, W = 2)
    chains += [np.exp(1.5 * rng.standard_normal(12)) for _ in range(4)]
    # one weak domain of contrast c: kappa from ~30 past the gate (~1e8) to ~1e14
    chains += [
        np.array([1.0 / c] * weak + [c] * (n - weak))
        for c in np.logspace(0.25, 2.0, 22)
        for n, weak in ((12, 5), (14, 6))
    ]
    return chains


def test_band_route_matches_dense_routes_across_conditioning(monkeypatch, band_only):
    """log o+ agrees with the dense SVD, or the oracle up to N = 14, wherever the gate sends it.

    The test records the eigenvectors the kernel gets from dsbevd and
    measures max|Q^T Q - I| of Q = Z V / d itself, so it also holds the SVD
    fallback to firing exactly when that spread exceeds BAND_GATE or d_min
    falls to the floor N eps d_max.
    """
    sbevd = ff.lapack.dsbevd
    seen = []

    def recorded(ab, **kwargs):
        band = ab.copy()
        w, v, info = sbevd(ab, **kwargs)
        seen.append((band, v.copy()))
        return w, v, info

    monkeypatch.setattr(ff.lapack, "dsbevd", recorded)
    spreads, fallbacks = [], []
    for g in _route_sweep():
        n = g.size
        seen.clear()
        kernel = ff.ChainOverlap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_o = kernel(g)
        # zigzag order 0, 1, N-1, 2, N-2, ...: the band is Z^T Z reordered, half-width 2
        order = np.empty(n, dtype=int)
        order[0], order[1::2], order[2::2] = 0, np.arange(1, n // 2 + 1), np.arange(n - 1, n // 2, -1)
        z = ff.chain_matrix(g)
        gram = (z.T @ z)[np.ix_(order, order)]
        (band, v_band), = seen
        for k in range(3):
            np.testing.assert_allclose(band[k, : n - k], np.diag(gram, -k), rtol=1e-15, atol=0.0)
        assert not np.any(np.tril(gram, -3))
        v = np.empty_like(v_band)
        v[order] = v_band
        y = z @ v
        d = np.linalg.norm(y, axis=0)
        spread = np.abs((y / d).T @ (y / d) - np.eye(n)).max()
        resolved = d.min() > n * np.finfo(float).eps * d.max()
        assert kernel.svd_fallbacks == int(not resolved or spread > ff.BAND_GATE)
        if n <= 14:
            dense_plus, _ = oracle.ghz_overlaps(oracle.dense_ground_state(g))
            assert log_o == pytest.approx(math.log(dense_plus), rel=1e-12)
        if resolved:
            assert log_o == pytest.approx(_svd_log_overlap(g), rel=1e-12)
        spreads.append(spread)
        fallbacks.append(kernel.svd_fallbacks)
    # both branches ran, and some chains fell back from just over the gate
    assert 0 < sum(fallbacks) < len(fallbacks)
    assert any(ff.BAND_GATE < s <= 1e3 * ff.BAND_GATE for s in spreads)


def test_fields_too_large_to_square_take_the_svd(band_only):
    """Above BAND_FIELD_MAX the band route would overflow; the call goes to the SVD without a warning."""
    uniform, one_site = np.full(6, 1e151), np.array([1e151, 1.0, 2.0, 0.5, 1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernel = ff.ChainOverlap(6)
        assert kernel(uniform) == pytest.approx(_svd_log_overlap(uniform), rel=1e-12)
        assert kernel.svd_fallbacks == 1
        # one huge field leaves two singular values far below it, as on the SVD route before
        with pytest.raises(NumericsError, match="two or more"):
            kernel(one_site)
        assert kernel.svd_fallbacks == 2


def test_large_fields_below_the_square_bound_fall_back_without_overflow():
    """A chain under BAND_FIELD_MAX whose d_min hits the floor takes the SVD without a warning, alone or in a stack.

    Three sites held along x and a fourth left free by its field but fixed
    by the even sector make |++++>, whose GHZ overlap is 1/8; its one
    unresolved singular value is oriented by det Z.
    """
    chain = np.array([1e120] * 3 + [1e-120])
    stack = np.array([chain, np.full(4, 1.3), chain])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernel = ff.ChainOverlap(4)
        assert kernel(chain) == pytest.approx(np.log(1.0 / 8.0), rel=1e-12)
        assert kernel.svd_fallbacks == 1
        values = kernel(stack)
    np.testing.assert_array_equal(values, [ff.ghz_log_overlap_squared(g) for g in stack])
    assert kernel.svd_fallbacks == 3


# The Newton-Schulz window's two edges and the Monte Carlo length inside it.
WINDOW_LENGTHS = (ff.NEWTON_SCHULZ_SITES[0], 40, ff.NEWTON_SCHULZ_SITES[1])


def _conditioning_sweep(n):
    """16 chains of length n, from a few Newton-Schulz steps to none that converge.

    Gaussian fields about 1.6 converge in the fewest steps and uniform fields
    about the critical point in more.  One weak domain of contrast c sends
    s_min / (max g + 1) from ~1e-2 to ~1e-17 as c grows: past the step
    budget to the band route, and at the largest contrasts past the
    resolvable floor on to the SVD.  The order is shuffled, so chains leave
    a stack from its middle.
    """
    rng = np.random.default_rng((15, n))
    chains = [1.6 + 0.04 * rng.standard_normal(n) for _ in range(4)]
    chains += [rng.uniform(0.0, 2.0, n) for _ in range(4)]
    weak = 5 * n // 12
    chains += [np.array([1.0 / c] * weak + [c] * (n - weak)) for c in np.logspace(0.05, 1.0, 8)]
    return np.array(chains)[rng.permutation(len(chains))]


@pytest.mark.parametrize("n", WINDOW_LENGTHS)
def test_newton_schulz_matches_band_and_svd_across_conditioning(n):
    """Chain by chain, log o+ and s_min / s_max by Newton-Schulz, the band route and numpy's SVD agree.

    A chain that Newton-Schulz hands on takes the band route, and gives
    exactly what the band route gives alone.
    """
    handed_on = 0
    for g in _conditioning_sweep(n):
        newton = ff.ChainOverlap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_o = newton(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ff, "NEWTON_SCHULZ_SITES", (0, 0))
            band = ff.ChainOverlap(n)
        assert band(g) == pytest.approx(log_o, rel=0.0, abs=1e-12)
        assert (band.newton_schulz_chains, band.band_chains) == (0, 1)
        assert newton.newton_schulz_chains + newton.band_chains == newton.evaluations == 1
        if newton.band_chains:
            handed_on += 1
            assert log_o == band(g)
            assert newton.min_singular_ratio == band.min_singular_ratio
            continue
        assert 0 < newton.max_newton_schulz_steps <= ff.NEWTON_SCHULZ_STEPS
        assert 0.0 < newton.max_defect <= ff.NEWTON_SCHULZ_TOL * n * np.finfo(float).eps
        assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)
        s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
        assert newton.min_singular_ratio == pytest.approx(s[-1] / s[0], rel=1e-10)
        assert newton.min_singular_ratio == pytest.approx(band.min_singular_ratio, rel=1e-10)
    assert 3 <= handed_on <= 10


@pytest.mark.parametrize("n", WINDOW_LENGTHS)
def test_newton_schulz_stack_scores_each_chain_as_it_scores_alone(n):
    """Chains that converge early, late or never give in one stack bit for bit what they give alone.

    Never-converging chains go on to the band route, and one of them on to the SVD.
    """
    chains = _conditioning_sweep(n)
    alone, steps = ff.ChainOverlap(n), []
    values = []
    for g in chains:
        values.append(alone(g))
        single = ff.ChainOverlap(n)
        single(g)
        steps.append(single.max_newton_schulz_steps if single.newton_schulz_chains else None)
    stacked = ff.ChainOverlap(n)
    np.testing.assert_array_equal(stacked(chains), values)
    counters = (
        "evaluations", "newton_schulz_chains", "max_newton_schulz_steps", "band_chains",
        "svd_fallbacks", "max_defect", "min_singular_ratio",
    )
    for counter in counters:
        assert getattr(stacked, counter) == getattr(alone, counter)
    converged = [s for s in steps if s is not None]
    assert min(converged) < max(converged) and stacked.newton_schulz_chains == len(converged)
    assert stacked.band_chains == steps.count(None) >= 3 and stacked.svd_fallbacks >= 1


def test_newton_schulz_ratio_screen_is_exact_and_skips_chains_above_the_minimum(monkeypatch):
    """Each uniform chain of a falling sequence lowers s_min / s_max by ~10% and pays for it; none above it pays again."""
    n = 40
    falling = np.array([np.full(n, g) for g in np.linspace(1.6, 1.3, 7)])
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(None)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    kernel = ff.ChainOverlap(n)
    kernel(falling)
    s = np.linalg.svd(ff.chain_matrix(falling[-1]), compute_uv=False)
    assert kernel.min_singular_ratio == pytest.approx(s[-1] / s[0], rel=1e-10)
    assert kernel.newton_schulz_chains == len(calls) == 7
    kernel(falling[:-1])
    assert kernel.newton_schulz_chains == 13 and len(calls) == 7


@pytest.mark.parametrize("n", WINDOW_LENGTHS)
def test_newton_schulz_window_hands_extreme_fields_on_without_overflow(n):
    """Fields of 1e120 beside 1e-120, and fields above BAND_FIELD_MAX, reach the SVD without a warning.

    N - 1 sites held along x make |+...+>, whose GHZ overlap is 2^(1 - N).
    """
    held = np.array([1e120] * (n - 1) + [1e-120])
    too_large = np.full(n, 1e151)
    stack = np.array([held, np.full(n, 1.3), too_large, held])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernel = ff.ChainOverlap(n)
        assert kernel(held) == pytest.approx((1 - n) * math.log(2.0), rel=1e-12)
        assert kernel(too_large) == pytest.approx(_svd_log_overlap(too_large), rel=1e-12)
        assert (kernel.newton_schulz_chains, kernel.band_chains, kernel.svd_fallbacks) == (0, 2, 2)
        values = kernel(stack)
        expected = [ff.ghz_log_overlap_squared(g) for g in stack]
    np.testing.assert_array_equal(values, expected)
    assert (kernel.newton_schulz_chains, kernel.band_chains, kernel.svd_fallbacks) == (1, 5, 5)


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
