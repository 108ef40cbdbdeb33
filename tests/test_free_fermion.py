"""Momentum-space spectrum and its N -> oo rule, the chain matrix, and the polar-factor overlap route."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parity_ising import disorder
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
    assert density.startswith("advantage density: error ") and laplacian.startswith("Laplacian density: error ")
    for message in (density, laplacian):
        error, rest = message.split(": error ")[1].split(" over ")
        nodes, seconds = rest.split(" nodes in ")
        assert float(error) <= 1e-10 and int(nodes) > 0 and seconds.endswith(" s")
        assert 0.0 <= float(seconds[:-2]) < 60.0


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["as is", "negated"])
@pytest.mark.parametrize(
    "density, bracket",
    [(pg.advantage_density, (1.4, 1.6)), (pt.laplacian_density_limit, (0.95, 0.998))],
    ids=["advantage density", "Laplacian density"],
)
def test_bracketed_root_matches_brentq(density, bracket, sign):
    # b(g) falls through zero and the Laplacian density rises, so the sign
    # flip covers both orientations of each; the ends may come in either order
    from scipy.optimize import brentq

    def f(g):
        return sign * density(g)

    reference = brentq(f, *bracket, xtol=1e-12)
    for ends in (bracket, bracket[::-1]):
        root = ff.bracketed_root(f, ends, "test")
        assert type(root) is float
        assert abs(root - reference) <= 1e-12


@pytest.mark.parametrize("x0", [0.3, 0.7123456789])
def test_bracketed_root_on_steep_and_flat_functions(x0):
    from scipy.optimize import brentq

    def steep(x):
        return math.tanh(1e3 * (x - x0))

    root = ff.bracketed_root(steep, (0.0, 1.0), "steep")
    assert abs(root - x0) <= 1e-12
    assert abs(root - brentq(steep, 0.0, 1.0, xtol=1e-12)) <= 1e-12
    # a triple root: f ~ 1e-36 within 1e-12 of it, where Illinois still closes
    # the bracket (brentq exhausts its 100 iterations here at xtol = 1e-12)
    assert abs(ff.bracketed_root(lambda x: (x - x0) ** 3, (0.0, 1.0), "flat") - x0) <= 1e-12
    assert abs(ff.bracketed_root(lambda x: (x0 - x) ** 3, (1.0, 0.0), "flat") - x0) <= 1e-12


def test_bracketed_root_failures_raise_without_looping():
    calls = []

    def counted(f):
        def wrapped(x):
            calls.append(x)
            return f(x)

        return wrapped

    # the same sign at both ends, or a zero at one
    for ends in ((0.5, 0.9), (0.0, 0.3)):
        with pytest.raises(NumericsError, match="not bracketed"):
            ff.bracketed_root(lambda x: x - 0.3, ends, "unbracketed")
    # a NaN at an end, or inside the bracket
    with pytest.raises(NumericsError, match="nan"):
        ff.bracketed_root(lambda x: math.nan if x > 0.5 else x - 0.3, (0.0, 1.0), "nan at an end")
    calls.clear()
    with pytest.raises(NumericsError, match="nan"):
        ff.bracketed_root(counted(lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan), (0.0, 1.0), "nan inside")
    assert len(calls) == 3
    # a sign change between two neighbouring doubles near 1e5, which lie 1.5e-11
    # apart: no bracket there closes to 1e-12
    calls.clear()
    with pytest.raises(NumericsError, match="after 100 steps"):
        ff.bracketed_root(counted(lambda x: -1.0 if x <= 100000.3 else 1.0), (1e5, 1e5 + 1.0), "unresolvable")
    assert len(calls) == ff.ROOT_STEPS + 2


def test_bracketed_root_logs_one_record(caplog):
    calls = []

    def f(x):
        calls.append(x)
        return math.tanh(x - 0.3)

    with caplog.at_level("DEBUG", logger="parity_ising"):
        root = ff.bracketed_root(f, (0.0, 1.0), "test root")
    records = [r for r in caplog.records if r.name == "parity_ising.free_fermion"]
    assert [r.levelname for r in records] == ["DEBUG"]
    label, rest = records[0].getMessage().split(": root ")
    value, rest = rest.split(" after ")
    count, width = rest.split(" evaluations, bracket ")
    assert label == "test root"
    assert float(value) == root
    assert int(count) == len(calls)
    assert 0.0 < float(width) <= ff.ROOT_TOL
    # the root returned is the evaluated point of least |f|
    assert abs(math.tanh(root - 0.3)) == min(abs(math.tanh(x - 0.3)) for x in calls)


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


def test_polar_factor_is_orthogonal_and_tends_to_the_signed_shift():
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
    with pytest.raises(ValueError, match="one-dimensional sequence"):
        ff.ghz_log_overlap_squared(1.3)


# Resolved on the band route, and a domain wall that only the SVD fallback resolves.
WELL_CONDITIONED = np.array([0.5, 1.5, 1.0, 2.0, 0.8, 1.2])
SVD_ONLY = np.array([1.0 / 3000.0] * 5 + [3000.0] * 7)


def test_unitarity_guard_catches_corruption(monkeypatch, band_only):
    """A non-orthogonal factor, two zero singular values or a solver failure raises, on either branch."""
    eigh = np.linalg.eigh
    svd = np.linalg.svd

    def scaled_v(a):
        w, v = eigh(a)
        return w, 2.0 * v

    def failed_band(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def scaled_u(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        return 2.0 * u, s, vt

    def two_zero_singular_values(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        s[-2:] = 0.0
        return u, s, vt

    def failed(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    for solver, name, corrupt, g in (
        (np.linalg, "eigh", scaled_v, WELL_CONDITIONED),
        (np.linalg, "eigh", failed_band, WELL_CONDITIONED),
        (np.linalg, "svd", scaled_u, SVD_ONLY),
        (np.linalg, "svd", two_zero_singular_values, SVD_ONLY),
        (np.linalg, "svd", failed, SVD_ONLY),
    ):
        monkeypatch.setattr(solver, name, corrupt)
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
    svd = np.linalg.svd

    def flipped_zero_mode(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        s[-1] = 0.0
        u[:, -1] *= -1.0
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", flipped_zero_mode)
    kernel = ff.ChainOverlap(g.size)
    assert kernel(g) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spoil", ["zero", "nan"])
def test_zero_or_nan_determinant_raises(monkeypatch, spoil):
    """A singular (I + W0^T W)/2 or a NaN log|det| is a numerical failure, never a value.

    For positive fields o+ > 0, so neither can be a true overlap.
    """
    slogdet = np.linalg.slogdet

    def spoiled(a):
        if spoil == "zero":
            a[...] = 0.0
            return slogdet(a)
        sign, logabs = slogdet(a)
        logabs[...] = np.nan
        return sign, logabs

    monkeypatch.setattr(np.linalg, "slogdet", spoiled)
    with pytest.raises(NumericsError, match="zero or not finite"):
        ff.ghz_log_overlap_squared(np.full(8, 1.3))
    with pytest.raises(NumericsError, match="zero or not finite"):
        ff.ChainOverlap(8)(np.full((3, 8), 1.3))


def _stack_chains(n):
    """37 chains of length n: random fields, one SVD fallback, and the uniform chain 1.3 last."""
    rng = np.random.default_rng((37, n))
    chains = [rng.uniform(0.2, 3.0, n) for _ in range(33)]
    chains += [np.exp(1.5 * rng.standard_normal(n)) for _ in range(2)]
    weak = 5 * n // 12
    chains += [np.array([1.0 / 3000.0] * weak + [3000.0] * (n - weak)), np.full(n, 1.3)]
    return np.array(chains)


@pytest.mark.parametrize("n", [12, 40], ids=("one-stack", "two-stacks"))
def test_stack_scores_each_chain_as_it_scores_alone(band_only, n):
    """A stack gives bit for bit the values and counters of its chains scored one at a time.

    The fallback chain is SVD_ONLY at N = 12.
    """
    chains = _stack_chains(n)
    assert (n == 12) == np.array_equal(chains[-2], SVD_ONLY)
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    assert stacked.stack == max(1, ff.STACK_ENTRIES // n**2)
    values = stacked(chains)
    np.testing.assert_array_equal(values, [alone(g) for g in chains])
    np.testing.assert_array_equal(values, [ff.ghz_log_overlap_squared(g) for g in chains])
    assert np.isfinite(values).all()
    for counter in ("evaluations", "svd_fallbacks", "max_defect"):
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert stacked.evaluations == 37 and stacked.svd_fallbacks >= 1
    np.testing.assert_array_equal(ff._singular_ratio_bound(chains), [ff._singular_ratio_bound(g[None])[0] for g in chains])


def test_one_failing_chain_raises_for_its_whole_stack(monkeypatch, band_only):
    """Two unresolved singular values, a non-orthogonal factor, or an overlap above 1, zero or NaN in mid-stack raise for it."""
    chains = np.array([np.full(12, 0.9), np.array(([1e-4] * 3 + [1e4] * 3) * 2), np.full(12, 1.7)])
    with pytest.raises(NumericsError, match="two or more"):
        ff.ChainOverlap(12)(chains)
    eigh = np.linalg.eigh

    def second_scaled(a):
        w, v = eigh(a)
        v[1] *= 2.0
        return w, v

    uniform = np.array([np.full(12, 0.9), np.full(12, 1.3), np.full(12, 1.7)])
    monkeypatch.setattr(np.linalg, "eigh", second_scaled)
    with pytest.raises(NumericsError, match="not orthogonal"):
        ff.ChainOverlap(12)(uniform)
    monkeypatch.undo()
    slogdet = np.linalg.slogdet

    def second_set_to(value):
        def patched(a):
            sign, logabs = slogdet(a)
            logabs[1] = value
            return sign, logabs

        return patched

    cases = ((2.0 * ff.OVERLAP_SLACK, "exceeds 1"), (-np.inf, "zero or not finite"), (np.nan, "zero or not finite"))
    for value, match in cases:
        monkeypatch.setattr(np.linalg, "slogdet", second_set_to(value))
        with pytest.raises(NumericsError, match=match):
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
    bounds = ff._singular_ratio_bound(np.array(draws))
    assert kernel.singular_ratio_bound == bounds.min()  # the least over its calls, polar's among them
    for g, bound in zip(draws, bounds):
        s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
        assert 0.0 < bound <= s[-1] / s[0] * (1.0 + 1e-12)
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
        assert ff._singular_ratio_bound(g[None])[0] <= n * np.finfo(float).eps
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


def _closed_form_inverse(g):
    """Z^-1 entry by entry: |Z^-1|_{c+m, c} = (h_c ... h_{c+m}) / (1 + P), h = 1/g and P the product of all h.

    An entry is negative where its path from c crosses the wrap bond.  Each
    is a sum of logs along its own path, so it keeps its relative accuracy
    however badly Z is conditioned.
    """
    n = g.size
    h = -np.log(np.tile(g, 2))
    inverse = np.zeros((n, n))
    for c in range(n):
        paths = np.cumsum(h[c : c + n]) - np.logaddexp(0.0, h[:n].sum())
        inverse[(c + np.arange(n)) % n, c] = np.exp(paths) * np.where(c + np.arange(n) >= n, -1.0, 1.0)
    return inverse


def _singular_ratio(g):
    """s_min / s_max of Z: numpy's where it resolves s_min (above N eps s_max), else 1 / (|Z|_2 |Z^-1|_2).

    Below that floor numpy's s_min is off by up to about eps s_max (on one
    chain of the N = 40 conditioning sweep it reads 32% below a 60-digit
    mpmath SVD); numpy's largest singular value of ``_closed_form_inverse``
    keeps its relative accuracy.
    """
    s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
    if s[-1] > g.size * np.finfo(float).eps * s[0]:
        return s[-1] / s[0]
    return 1.0 / (s[0] * np.linalg.svd(_closed_form_inverse(g), compute_uv=False)[0])


def test_closed_form_inverse_is_numpys_inverse():
    """Where Z is well conditioned, the entries ``_singular_ratio`` relies on are numpy's inverse."""
    rng = np.random.default_rng(43)
    for g in [rng.uniform(0.2, 3.0, n) for n in (4, 12, 40)] + [np.exp(rng.standard_normal(24))]:
        np.testing.assert_allclose(_closed_form_inverse(g), np.linalg.inv(ff.chain_matrix(g)), rtol=1e-10, atol=0.0)


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

    The test records the Gram and eigenvectors the kernel gets from eigh
    and measures max|Q^T Q - I| of Q = Z V / d itself, so it also holds the
    SVD fallback to firing exactly when that spread exceeds BAND_GATE or
    d_min falls to the floor N eps d_max.
    """
    eigh = np.linalg.eigh
    seen = []

    def recorded(a):
        gram = a.copy()
        w, v = eigh(a)
        seen.append((gram, v.copy()))
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    spreads, fallbacks = [], []
    for g in _route_sweep():
        n = g.size
        seen.clear()
        kernel = ff.ChainOverlap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_o = kernel(g)
        z = ff.chain_matrix(g)
        (gram, v), = seen
        np.testing.assert_allclose(gram, (z.T @ z)[None], rtol=1e-15, atol=0.0)
        v = v[0]
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


def test_svd_dispatch_keeps_stack_order_on_the_band_route(band_only):
    """Chains above BAND_FIELD_MAX among band-route and SVD_ONLY chains score in a stack as alone.

    With the Newton-Schulz window empty, every chain starts on the band
    route.  The large-field chains skip it, and its chains are scattered
    back between them, and go to the SVD with SVD_ONLY.
    """
    n = SVD_ONLY.size
    rng = np.random.default_rng(17)
    chains = np.array([
        rng.uniform(0.2, 3.0, n), np.full(n, 1e151), rng.uniform(0.2, 3.0, n), SVD_ONLY,
        1e151 * rng.uniform(1.0, 2.0, n), np.full(n, 1.3), np.full(n, 2e151), rng.uniform(0.2, 3.0, n),
    ])
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    assert stacked.stack >= len(chains)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = stacked(chains)
        np.testing.assert_array_equal(values, [alone(g) for g in chains])
    assert np.isfinite(values).all()
    counters = (
        "evaluations", "newton_schulz_chains", "max_newton_schulz_steps", "band_chains",
        "svd_fallbacks", "max_defect",
    )
    for counter in counters:
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert (stacked.evaluations, stacked.band_chains, stacked.svd_fallbacks) == (8, 8, 4)
    for g, log_o in zip(chains, values):
        if g.max() > ff.BAND_FIELD_MAX:
            assert log_o == pytest.approx(_svd_log_overlap(g), rel=1e-12)


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


# Lengths at which every chain starts on Newton-Schulz, up to the longest; 40 is that of the Monte Carlo runs.
WINDOW_LENGTHS = (8, 24, 40, ff.NEWTON_SCHULZ_SITES)
# (band route, SVD) chains of each length's conditioning sweep: at N = 8 three domain walls
# miss the step budget and take the SVD; every other chain is seeded and converges.
SWEEP_HANDED_ON = {8: 3, 24: 0, 40: 0, 80: 0}
SWEEP_SVD = {8: 3, 24: 0, 40: 0, 80: 0}


def _conditioning_sweep(n):
    """16 chains of length n, from a few Newton-Schulz steps to none that converge.

    Gaussian fields about 1.6 converge in the fewest steps and uniform fields
    about the critical point in more.  One weak domain of contrast c sends
    s_min / (max g + 1) from ~1e-2 to ~1e-17 as c grows: unseeded, past the
    step budget to the band route, and at the largest contrasts past the
    resolvable floor on to the SVD.  s_min falls about as c^-weak, so on a
    domain of fewer than 16 sites c reaches 10^(16 / weak) instead of 10.
    The seeded Newton step lifts the domain wall's singular value to the
    top of X_0, so from N = 24 on every chain in the direct range converges.
    The order is shuffled, so chains leave a stack from its middle.
    """
    rng = np.random.default_rng((15, n))
    chains = [1.6 + 0.04 * rng.standard_normal(n) for _ in range(4)]
    chains += [rng.uniform(0.0, 2.0, n) for _ in range(4)]
    weak = 5 * n // 12
    contrasts = np.logspace(0.05, max(1.0, 16.0 / weak), 8)
    chains += [np.array([1.0 / c] * weak + [c] * (n - weak)) for c in contrasts]
    return np.array(chains)[rng.permutation(len(chains))]


@pytest.mark.parametrize("n", WINDOW_LENGTHS)
def test_newton_schulz_matches_band_and_svd_across_conditioning(band_route, n):
    """Chain by chain, log o+ by Newton-Schulz, the band route and numpy's SVD agree.

    numpy's SVD serves where it resolves s_min; below N eps s_max the band
    route hands the chain to the SVD oriented by det Z.  The bound on
    s_min / s_max is at most numpy's.  A chain that
    Newton-Schulz hands on takes the band route, and gives exactly what the
    band route gives alone.
    """
    handed_on = 0
    for g in _conditioning_sweep(n):
        newton = ff.ChainOverlap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_o = newton(g)
            bound = ff._singular_ratio_bound(g[None])[0]
        band = ff.ChainOverlap(n)
        with band_route():
            band_log_o = band(g)
        assert band_log_o == pytest.approx(log_o, rel=0.0, abs=1e-12)
        assert (band.newton_schulz_chains, band.band_chains) == (0, 1)
        assert newton.newton_schulz_chains + newton.band_chains == newton.evaluations == 1
        assert 0.0 < bound <= _singular_ratio(g) * (1.0 + 1e-12)
        if newton.band_chains:
            handed_on += 1
            assert log_o == band_log_o
            continue
        assert 0 < newton.max_newton_schulz_steps <= ff.NEWTON_SCHULZ_STEPS
        assert 0.0 < newton.max_defect <= ff.NEWTON_SCHULZ_TOL * n * np.finfo(float).eps
        s = np.linalg.svd(ff.chain_matrix(g), compute_uv=False)
        if s[-1] > n * np.finfo(float).eps * s[0]:  # below it numpy's SVD leaves W's orientation to chance
            assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)
    assert handed_on == SWEEP_HANDED_ON[n]


@pytest.mark.parametrize("n", WINDOW_LENGTHS)
def test_newton_schulz_stack_scores_each_chain_as_it_scores_alone(n):
    """Chains that converge early, late or never give in one stack bit for bit what they give alone.

    Never-converging chains go on to the band route, and at N = 8 some of them on to the SVD.
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
        "svd_fallbacks", "max_defect",
    )
    for counter in counters:
        assert getattr(stacked, counter) == getattr(alone, counter)
    converged = [s for s in steps if s is not None]
    assert min(converged) < max(converged) and stacked.newton_schulz_chains == len(converged)
    assert (stacked.band_chains, stacked.svd_fallbacks) == (steps.count(None), SWEEP_SVD[n])
    assert stacked.band_chains == SWEEP_HANDED_ON[n]


def test_newton_schulz_ratio_bound_needs_no_eigenvalues_or_factorization(monkeypatch):
    """A one-chain call and whole sweeps score, and s_min / s_max is bounded from below, without eigvalsh or cholesky."""
    chain = 1.6 + 0.04 * np.random.default_rng(31).standard_normal(40)
    stacks = [_conditioning_sweep(40), _gapped_sweep(120)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the ratio bound called a dense eigensolver or factorization")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    single = ff.ChainOverlap(chain.size)
    single(chain)
    assert (single.newton_schulz_chains, single.band_chains) == (1, 0)
    kernels = [ff.ChainOverlap(chains.shape[1]) for chains in stacks]
    for kernel, chains in zip(kernels, stacks):
        kernel(chains)
        assert kernel.newton_schulz_chains >= 6
    bounds = [ff._singular_ratio_bound(chains) for chains in (chain[None], *stacks)]
    monkeypatch.undo()
    for bound, chains in zip(bounds, (chain[None], *stacks)):
        assert (0.0 < bound).all() and (bound <= [_singular_ratio(g) * (1.0 + 1e-12) for g in chains]).all()


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
        bounds = ff._singular_ratio_bound(stack)
    np.testing.assert_array_equal(values, expected)
    assert (kernel.newton_schulz_chains, kernel.band_chains, kernel.svd_fallbacks) == (1, 5, 5)
    assert (0.0 < bounds).all() and (bounds <= [_singular_ratio(g) * (1.0 + 1e-12) for g in stack]).all()


def test_schedule_grid_closes_each_interval_as_fast_as_its_own_schedule():
    """A proved lower end l takes the schedule of a grid end at or below it that closes within l's own steps.

    An unseeded chain that straddles 1 (l <= 0) takes the floor's schedule,
    run on from its end, as does a start whose l lies below the floor; at
    the floor the same coefficients close where the floor's own interval
    does.  Each is first checked one step before it closes.
    Up to ~2% below a grid end the closing test, at the last ulp below 1,
    lets a few ends close a step sooner on their own.
    """
    ends, schedules, first = ff._schedule_grid(ff.NEWTON_SCHULZ_FLOOR)
    floor_steps, floor_closing = ff._chen_chow_schedule(ff.NEWTON_SCHULZ_FLOOR)
    assert schedules[:2] == ((floor_steps, len(floor_steps)), (floor_steps, floor_closing))
    assert first.tolist() == [closing - 1 for _, closing in schedules]  # one step early, for the fold
    below = [-0.5, 0.0, 1e-300, 0.9 * ff.NEWTON_SCHULZ_FLOOR]
    assert np.searchsorted(ends, below, side="right").tolist() == [0, 0, 0, 0]
    lows = np.concatenate((np.geomspace(ff.NEWTON_SCHULZ_FLOOR, 1.0, 500), ends))
    extra = []
    for low in lows:
        entry = np.searchsorted(ends, low, side="right")
        assert entry >= 1 and ends[entry - 1] <= low
        extra.append(schedules[entry][1] - ff._chen_chow_schedule(low)[1])
        assert extra[-1] <= 0 or min(abs(low / ends - 1.0)) < 2e-2
    assert max(extra) <= 1 and extra.count(1) <= len(lows) // 100


# Lengths beyond the window, where only gapped chains take Newton-Schulz.
GAPPED_LENGTHS = (120, 200)
COUNTERS = (
    "evaluations", "newton_schulz_chains", "newton_seeded_chains", "max_newton_schulz_steps", "band_chains",
    "svd_fallbacks", "max_defect",
)


def _gapped_sweep(n):
    """Ten gapped chains of length n, shuffled: every field on one side of 1.

    Weak disorder about 1.6 (the Monte Carlo ensembles), wide spreads above
    and below 1, a uniform chain, thin gaps whose Weyl bound lies below
    NEWTON_SCHULZ_FLOOR (so they take the floor's schedule), fields
    log-uniform from 1e-6 to 10 above 1, and log-normal excursions above 1.
    """
    rng = np.random.default_rng((19, n))
    chains = [1.6 + 0.04 * rng.standard_normal(n) for _ in range(2)]
    chains += [rng.uniform(1.05, 4.0, n), rng.uniform(0.05, 0.9, n), np.full(n, 0.5)]
    chains += [1.0 + rng.uniform(1e-4, 2e-2, n), rng.uniform(0.98, 0.999, n)]
    # its own stream: at N = 120 and 200 a freeze at the first defect <= 4 N eps leaves it above 4 sqrt(N) eps
    chains.append(1.0 + 10.0 ** np.random.default_rng((29, 37)).uniform(-6.0, 1.0, n))
    chains += [1.0 + np.exp(rng.normal(0.0, 2.0, n)) for _ in range(2)]
    return np.array(chains)[rng.permutation(len(chains))]


@pytest.mark.parametrize("n", GAPPED_LENGTHS)
def test_gapped_chains_take_newton_schulz_and_match_band_and_svd(band_route, n):
    """Outside the window a gapped chain converges by Newton-Schulz and agrees with the band route and the SVD.

    log o+ to 1e-12, chain by chain, with a defect within the gapped
    chains' tolerance, NEWTON_SCHULZ_TOL sqrt(N) eps, and a bound on
    s_min / s_max at most numpy's.
    """
    for g in _gapped_sweep(n):
        newton = ff.ChainOverlap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_o = newton(g)
            bound = ff._singular_ratio_bound(g[None])[0]
        band = ff.ChainOverlap(n)
        with band_route():
            band_log_o = band(g)
        assert (newton.newton_schulz_chains, newton.band_chains) == (1, 0)
        assert (band_log_o, band.newton_schulz_chains, band.band_chains) == (pytest.approx(log_o, abs=1e-12), 0, 1)
        assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)
        assert 0 < newton.max_newton_schulz_steps <= ff.NEWTON_SCHULZ_STEPS
        assert 0.0 < newton.max_defect <= ff.NEWTON_SCHULZ_TOL * math.sqrt(n) * np.finfo(float).eps
        assert 0.0 < bound <= _singular_ratio(g) * (1.0 + 1e-12)


def _extreme_gapped_chains(n):
    """All fields 1e-100 (o+ -> 1), all 1e100 (|+...+>, o+ = 2^(1 - N)), and a chain above BAND_FIELD_MAX."""
    return np.array([np.full(n, 1e-100), np.full(n, 1e100), np.full(n, 1e151)])


@pytest.mark.parametrize("n", GAPPED_LENGTHS)
def test_gapped_stack_scores_each_chain_as_it_scores_alone(n):
    """The gapped sweep and the extreme fields give in one call bit for bit what they give alone, with every counter."""
    chains = np.vstack((_gapped_sweep(n), _extreme_gapped_chains(n)))
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = stacked(chains)
        np.testing.assert_array_equal(values, [alone(g) for g in chains])
    for counter in COUNTERS:
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert (stacked.newton_schulz_chains, stacked.band_chains, stacked.svd_fallbacks) == (len(chains) - 1, 1, 1)


@pytest.mark.parametrize("n", GAPPED_LENGTHS)
def test_gapped_extreme_fields_converge_without_overflow(n):
    """Fields of 1e-100 and 1e100 are gapped: Newton-Schulz takes them at step 0, with the limits of o+.

    s_min / s_max rounds to 1 on all three chains, and so does the bound on
    it; the bound holds without overflow on subnormal fields too.
    """
    tiny, huge, too_large = _extreme_gapped_chains(n)
    subnormal = np.array([np.full(n, 1e-310), np.array([1e-310] + [1.3] * (n - 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernel = ff.ChainOverlap(n)
        assert kernel(tiny) == pytest.approx(0.0, abs=1e-12)
        assert kernel(huge) == pytest.approx((1 - n) * math.log(2.0), rel=1e-12)
        assert kernel(too_large) == pytest.approx(_svd_log_overlap(too_large), rel=1e-12)
        bounds = ff._singular_ratio_bound(np.vstack((tiny, huge, too_large, subnormal)))
    assert (kernel.newton_schulz_chains, kernel.max_newton_schulz_steps) == (2, 0)
    assert (kernel.band_chains, kernel.svd_fallbacks) == (1, 1)
    assert bounds[:3].min() == pytest.approx(1.0, rel=1e-12)
    ratios = [_singular_ratio(g) for g in (tiny, huge, too_large, *subnormal)]
    assert (0.0 < bounds).all() and (bounds <= np.multiply(ratios, 1.0 + 1e-12)).all()


@pytest.mark.parametrize("n", (40, 130))
def test_mixed_gapped_and_straddling_stack_scores_each_chain_as_it_scores_alone(n):
    """Gapped chains of several schedules among chains that straddle 1 score in one call as alone.

    At N = 40 the straddling chains take Newton-Schulz beside the gapped
    ones, and so does the domain wall, seeded: its prefix products stay
    within e^+-230; at N = 130 the straddling chains take the band route,
    and the wall goes on to the SVD.
    """
    rng = np.random.default_rng((23, n))
    weak = 5 * n // 12  # a domain wall that only the SVD resolves
    wall = np.array([1.0 / 3000.0] * weak + [3000.0] * (n - weak))
    chains = np.vstack((_gapped_sweep(n)[:6], rng.uniform(0.6, 2.6, (6, n)), [wall]))
    chains = chains[rng.permutation(len(chains))]
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    values = stacked(chains)
    np.testing.assert_array_equal(values, [alone(g) for g in chains])
    for counter in COUNTERS:
        assert getattr(stacked, counter) == getattr(alone, counter)
    # every chain converges by Newton-Schulz at N = 40, the six gapped ones at N = 130
    newton = len(chains) if n <= ff.NEWTON_SCHULZ_SITES else 6
    assert (stacked.newton_schulz_chains, stacked.band_chains) == (newton, len(chains) - newton)
    assert stacked.svd_fallbacks == (n > ff.NEWTON_SCHULZ_SITES)


def test_written_inverse_is_the_closed_form_and_numpys():
    """The kernel's Z^-T, from prefix products over a stack, is ``_closed_form_inverse`` transposed, and numpy's where Z is well conditioned."""
    rng = np.random.default_rng(43)
    conditioned = [rng.uniform(0.2, 3.0, n) for n in (4, 12, 40)] + [np.exp(rng.standard_normal(24))]
    for chains in [[g] for g in conditioned] + [[g for g in _route_sweep() if g.size == 12]]:
        g = np.array(chains)
        out = np.empty((len(g), g.shape[1], g.shape[1]))
        ones, zeros = np.ones(len(g)), np.zeros(len(g))
        ff._write_start(g, ones, zeros, zeros, ones, out, np.tri(g.shape[1], k=-1, dtype=bool))  # scale = b = 1, a = c = 0: Z^-T alone
        for chain, inverse_t in zip(g, out):
            np.testing.assert_allclose(inverse_t, _closed_form_inverse(chain).T, rtol=1e-10, atol=0.0)
    for g in conditioned:
        out = np.empty((1, g.size, g.size))
        ff._write_start(g[None], np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), out, np.tri(g.size, k=-1, dtype=bool))
        np.testing.assert_allclose(out[0], np.linalg.inv(ff.chain_matrix(g)).T, rtol=1e-10, atol=0.0)


def test_written_cube_is_the_dense_product():
    """The seed's c Y Y^T Y, Y = Z / scale, written on its four cyclic diagonals, is the dense product.

    Alone (c = 1, scale = 1: Z Z^T Z), for single chains and a stack of
    several lengths' worth, and scaled by max g + 1 beside the other two
    terms; fields up to BAND_FIELD_MAX write without overflow, where
    Z Z^T Z itself would not fit in a float.
    """
    rng = np.random.default_rng(53)
    for n in (4, 6, 12, 40):
        g = np.vstack((rng.uniform(0.2, 3.0, (3, n)), np.exp(rng.standard_normal((2, n)))))
        ones, zeros = np.ones(len(g)), np.zeros(len(g))
        out = np.empty((len(g), n, n))
        ff._write_start(g, ones, zeros, ones, zeros, out)
        for chain, cube in zip(g, out):
            z = ff.chain_matrix(chain)
            np.testing.assert_allclose(cube, z @ z.T @ z, rtol=1e-14, atol=1e-14 * np.abs(z @ z.T @ z).max())
        scale, a, c, b = g.max(axis=1) + 1.0, rng.uniform(0.5, 2.5, len(g)), rng.uniform(-2.5, -0.1, len(g)), rng.uniform(1e-3, 0.3, len(g))
        ff._write_start(g, scale, a, c, b, out, np.tri(n, k=-1, dtype=bool))
        for chain, t, *coefficients, start in zip(g, scale, a, c, b, out):
            y = ff.chain_matrix(chain) / t
            expected = coefficients[0] * y + coefficients[1] * y @ y.T @ y + coefficients[2] * np.linalg.inv(y).T
            np.testing.assert_allclose(start, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
    huge = np.array([[1e150] * 3 + [1e-150] * 3, [1e149] * 6])
    out = np.empty((2, 6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ff._write_start(huge, huge.max(axis=1) + 1.0, np.ones(2), -np.ones(2), np.zeros(2), out)
    y = ff.chain_matrix(huge[1]) / (huge[1, 0] + 1.0)
    np.testing.assert_allclose(out[1], y - y @ y.T @ y, rtol=0.0, atol=1e-15)
    assert np.isfinite(out).all()


def test_seed_rows_map_their_interval_into_their_schedule():
    """Each seed row's f(x) = a x + c x^3 + b / x maps [r_k, 1] into [l, 1], and l closes in 8, 7, ..., 2 steps.

    The extrema of f on [r_k, 1] lie at the ends and at the roots of
    3 c x^4 + a x^2 - b = 0, in closed form; a dense grid agrees.  Rows
    ascend in r_k and l, and each l lies above what one scaled Newton step
    reaches from r_k, 2 sqrt(r_k) / (1 + r_k).
    """
    ends, schedules, _ = ff._schedule_grid(ff.NEWTON_SCHULZ_FLOOR)
    rows = ff._SEED_ROWS
    assert (np.diff(rows[:, 0]) > 0).all() and (np.diff(rows[:, 4]) > 0).all()
    closing = []
    for r, a, c, b, low in rows:
        f = lambda x: a * x + c * x**3 + b / x  # noqa: E731
        y = (-a + np.array([1.0, -1.0]) * math.sqrt(a * a + 12.0 * c * b)) / (6.0 * c)  # x^2 at the interior extrema
        x = np.sqrt(y[(y >= r * r) & (y <= 1.0)])
        extrema = f(np.concatenate(([r, 1.0], x)))
        assert low <= extrema.min() and extrema.max() <= 1.0
        grid = f(np.geomspace(r, 1.0, 100_001))
        assert low <= grid.min() and grid.max() <= 1.0
        assert low > 2.0 * math.sqrt(r) / (1.0 + r)
        closing.append(schedules[np.searchsorted(ends, low, side="right")][1])
    assert closing == [8, 7, 6, 5, 4, 3, 2]


def test_newton_start_singular_values_lie_in_their_interval():
    """X_0 has its singular values in [l, 1] up to rounding: by a seed row, by the Newton step or unseeded.

    Every chain of the sweep is seeded: its bounds span ~0.95 to ~1e-13, so
    both seeds occur.  Chains whose prefix products leave e^+-230, gapped
    and straddling, start from Y = Z / (max g + 1).
    """
    beyond = [np.full(12, 1e30), np.full(40, 1e-10), np.array([1e-9] * 30 + [1.5] * 10)]
    kinds = []
    for g in _route_sweep() + beyond:
        n = g.size
        low = np.maximum(g.min() - 1.0, 1.0 - g.max(keepdims=True)) / (g.max() + 1.0)
        a, c, b, lower = ff._newton_start(g[None], low, ff._singular_ratio_bound(g[None]))
        x = np.empty((1, n, n))
        ff._write_start(g[None], g.max(keepdims=True) + 1.0, a, c, b, x, np.tri(n, k=-1, dtype=bool))
        s = np.linalg.svd(x[0], compute_uv=False)
        rounding = 4.0 * n * np.finfo(float).eps
        assert s[0] <= 1.0 + rounding
        assert s[-1] >= lower[0] * (1.0 - rounding)
        if b[0] > 0.0:
            kinds.append("fitted" if c[0] < 0.0 else "newton")
            assert lower[0] > 0.0 and a[0] > 0.0
        else:
            kinds.append("unseeded")
            assert (a[0], c[0], lower[0]) == (1.0, 0.0, low[0])
            np.testing.assert_array_equal(x[0], ff.chain_matrix(g) / (g.max() + 1.0))
    assert kinds[-3:] == ["unseeded"] * 3
    assert kinds.count("unseeded") == 3 and kinds.count("newton") > 0 and kinds.count("fitted") > 0


@pytest.mark.parametrize("n", (40, ff.NEWTON_SCHULZ_SITES))
def test_near_critical_chains_converge_on_newton_schulz(n):
    """Every ``uniform_iid(1.2, 2)`` chain is seeded and converges by Newton-Schulz, with log o+ of numpy's SVD.

    Started from Z / (max g + 1), 1 in 100 at N = 40 and 12 in 60 at N = 80
    missed the step budget and took the band route.
    """
    ensemble = disorder.uniform_iid(1.2, 2.0, n)
    chains = np.array([disorder.sample_couplings(ensemble, 7, i)[0] for i in range(60)])
    kernel = ff.ChainOverlap(n)
    values = kernel(chains)
    assert (kernel.newton_schulz_chains, kernel.newton_seeded_chains, kernel.band_chains) == (60, 60, 0)
    assert 0 < kernel.max_newton_schulz_steps <= ff.NEWTON_SCHULZ_STEPS
    for g, log_o in zip(chains, values):
        assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("n", (40, ff.NEWTON_SCHULZ_SITES))
def test_seeded_and_unseeded_chains_score_in_one_stack_as_alone(n):
    """Seeded chains among unseeded ones give in one call bit for bit what they give alone.

    Seven chains lie in the direct range of the bound: straddling, gapped
    and near-critical.  Five do not, each for one field of 1e-3 or 1e3
    (N |log g| > 230), but their prefix products stay within e^+-230, so
    they are seeded too, but for the domain wall at N = 80, which takes the
    SVD.  Four more have prefix products beyond that range and start
    unseeded: two straddle 1 with a run of 26 fields of 1e4, miss the step
    budget and take the band route on to the SVD, and two are gapped with
    every field in [1e4, 3e4].
    """
    rng = np.random.default_rng((47, n))
    seeded = [*rng.uniform(0.6, 2.6, (3, n)), *(1.6 + 0.04 * rng.standard_normal((2, n))), *rng.uniform(0.2, 2.2, (2, n))]
    far = [*rng.uniform(0.6, 2.6, (2, n)), *rng.uniform(1.05, 3.0, (2, n))]
    far[0][3], far[1][n // 2], far[2][5], far[3][-1] = 1e-3, 1e-3, 1e3, 1e3
    weak = 5 * n // 12
    far.append(np.array([1.0 / 3000.0] * weak + [3000.0] * (n - weak)))
    unseeded = [*rng.uniform(0.6, 2.6, (2, n)), *rng.uniform(1e4, 3e4, (2, n))]
    unseeded[0][:26] = unseeded[1][:26] = 1e4
    chains = np.array(seeded + far + unseeded)
    wall = n > 40
    assert ff._reach(chains)[1].tolist() == [True] * 7 + [False] * 9
    assert ff._in_range(chains).tolist() == [True] * (12 - wall) + [False] * (4 + wall)
    chains = chains[rng.permutation(len(chains))]
    stacked, alone = ff.ChainOverlap(n), ff.ChainOverlap(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = stacked(chains)
        np.testing.assert_array_equal(values, [alone(g) for g in chains])
    for counter in (*COUNTERS, "singular_ratio_bound"):
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert (stacked.newton_schulz_chains, stacked.newton_seeded_chains) == (14 - wall, 12 - wall)
    assert (stacked.band_chains, stacked.svd_fallbacks) == (2 + wall, 2 + wall)
    for g, log_o in zip(chains, values):
        if g.max() < 3000.0:
            assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)


FOLD_ENSEMBLES = (
    (disorder.uniform_iid(1.2, 2.0, 80), 30, 11),
    (disorder.uniform_iid(1.0, 2.0, 40), 40, 7),
    (disorder.gaussian_correlated(1.6, 0.04, 5.0, 200), 4, 3),
)


@pytest.mark.parametrize("ensemble, samples, most_steps", FOLD_ENSEMBLES, ids=("uniform-1.2-80", "uniform-1.0-40", "correlated-200"))
def test_folded_overlaps_match_the_svd_and_score_in_a_stack_as_alone(ensemble, samples, most_steps):
    """Every chain is seeded and converges, its last step folded, to log o+ within 1e-12 of numpy's SVD.

    Near-critical uniform draws, a field down to ~0 among them, and weak
    correlated disorder at N = 200, which takes 3 steps; one call scores the
    draws bit for bit, every counter included, as one call each does.
    """
    chains = np.array([disorder.sample_couplings(ensemble, 7, i)[0] for i in range(samples)])
    stacked, alone = ff.ChainOverlap(ensemble.n_sites), ff.ChainOverlap(ensemble.n_sites)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = stacked(chains)
        np.testing.assert_array_equal(values, [alone(g) for g in chains])
    for counter in (*COUNTERS, "singular_ratio_bound"):
        assert getattr(stacked, counter) == getattr(alone, counter)
    assert (stacked.newton_schulz_chains, stacked.newton_seeded_chains, stacked.band_chains) == (samples, samples, 0)
    assert stacked.max_newton_schulz_steps == most_steps
    tolerance = ff.NEWTON_SCHULZ_TOL * ensemble.n_sites * np.finfo(float).eps
    assert 0.0 < stacked.max_defect <= tolerance
    for g, log_o in zip(chains, values):
        assert log_o == pytest.approx(_svd_log_overlap(g), rel=0.0, abs=1e-12)


def test_polar_takes_the_last_step_and_stays_orthogonal():
    """``polar`` finishes each Newton-Schulz chain with the plain step that the overlap folds away.

    Its W is numpy's U V^T to 1e-12, held to UNITARITY_TOL, and takes one
    step more than the same chain scored for its overlap; seed rows and the
    Newton seed both occur.
    """
    rng = np.random.default_rng(59)
    chains = [1.6 + 0.04 * rng.standard_normal(40), rng.uniform(0.6, 2.6, 40), rng.uniform(0.0, 2.0, 24), np.full(12, 0.7)]
    weak = 5
    chains.append(np.array([1.0 / 30.0] * weak + [30.0] * (12 - weak)))
    bounds = [ff._singular_ratio_bound(g[None])[0] for g in chains]
    rows = np.searchsorted(ff._SEED_ROWS[:, 0], bounds, side="right")  # 0: below every row, the Newton seed
    assert 0 in rows and rows.max() > 0
    for g in chains:
        polar, overlap = ff.ChainOverlap(g.size), ff.ChainOverlap(g.size)
        w = polar.polar(g)
        overlap(g)
        assert (polar.newton_schulz_chains, overlap.newton_schulz_chains) == (1, 1)
        assert polar.max_newton_schulz_steps == overlap.max_newton_schulz_steps + 1
        assert 0.0 < polar.max_defect <= ff.UNITARITY_TOL
        np.testing.assert_allclose(w.T @ w, np.eye(g.size), rtol=0.0, atol=1e-13)
        u, _, vt = np.linalg.svd(ff.chain_matrix(g))
        np.testing.assert_allclose(w, u @ vt, rtol=0.0, atol=1e-12)


def _route_counts(ensemble, samples):
    """(Newton-Schulz, band-route) chain counts of one kernel call on ``samples`` draws of the ensemble."""
    kernel = ff.ChainOverlap(ensemble.n_sites)
    kernel(np.array([disorder.sample_couplings(ensemble, 7, i)[0] for i in range(samples)]))
    return kernel.newton_schulz_chains, kernel.band_chains


def test_routes_by_length_and_gap():
    """Straddling chains beyond NEWTON_SCHULZ_SITES start on the band route; gapped ones and shorter ones do not.

    ``uniform_iid(1.6, 2)`` draws at N = 130 and 200 straddle 1, chains of
    4 and 6 sites take Newton-Schulz like every chain of up to 80, and weak
    correlated disorder about 1.6 at N = 200 is gapped.
    """
    assert _route_counts(disorder.uniform_iid(1.6, 2.0, 130), 3) == (0, 3)
    assert _route_counts(disorder.uniform_iid(1.6, 2.0, 200), 2) == (0, 2)
    assert _route_counts(disorder.gaussian_iid(1.6, 0.04, 4), 20) == (20, 0)
    assert _route_counts(disorder.gaussian_iid(0.5, 0.04, 6), 20) == (20, 0)
    assert _route_counts(disorder.gaussian_correlated(1.6, 0.04, 5.0, 200), 2) == (2, 0)


def test_band_only_sends_gapped_chains_to_the_band_route(band_only):
    """Handed on by Newton-Schulz, every chain, gapped or not, at every length, takes the band route."""
    assert _route_counts(disorder.gaussian_iid(1.6, 0.04, 40), 25) == (0, 25)
    assert _route_counts(disorder.gaussian_correlated(1.6, 0.04, 5.0, 200), 2) == (0, 2)


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
    """Fields over eight decades: log o+ is finite and <= 0, or the documented error; the ratio bound holds either way."""
    g = np.array(fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bound = ff._singular_ratio_bound(g[None])[0]
    assert 0.0 < bound <= _singular_ratio(g) * (1.0 + 1e-12)
    try:
        log_o = ff.ghz_log_overlap_squared(g)
    except NumericsError:
        return
    assert np.isfinite(log_o) and log_o <= 0.0
