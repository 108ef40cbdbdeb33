"""Win probability, utility, and the advantage density b(g).

Reference values for b(g) and the zero crossing g* were frozen from
independent 30- and 40-digit tanh-sinh quadratures of the density
integral; the library must reproduce them to 1e-13 through its graded
Gauss-Legendre rule.
"""

import math
import warnings

import numpy as np
import pytest

from parity_ising import free_fermion as ff
from parity_ising import parity_game as pg
from parity_ising.errors import NumericsError

# independently computed at 30-digit precision, truncated to 17 significant
# digits, and (from 1 - 1e-13 on the list) at 40 digits at the exact floats
B_REFERENCE = {
    0.01: 0.34656734010418327,
    0.5: 0.32970095354706214,
    1.0: 0.23654821778166491,
    1.55: -0.010795304858587739,
    1.6: -0.022217835069983742,
    2.0: -0.090861556753220794,
    1.0 - 1e-13: 0.23654821778214046742,
    1.0 + 1e-13: 0.23654821778113989383,
    3.0: -0.17830242594889494643,
    1e6: -0.34657309027997265467,
}
G_STAR_REFERENCE = 1.5059674722607538


def test_classical_bound_values():
    assert pg.classical_bound(3) == 0.75
    assert pg.classical_bound(4) == 0.75
    assert pg.classical_bound(5) == 0.625
    assert pg.classical_bound(6) == 0.625
    assert pg.classical_bound(40) == 0.5 + 2.0**-20
    with pytest.raises(ValueError):
        pg.classical_bound(2)


def test_win_probability_from_overlaps():
    assert pg.quantum_win_probability(1.0, 0.0) == 1.0
    assert pg.quantum_win_probability(0.0, 1.0) == 0.0
    assert pg.quantum_win_probability(0.0, 0.0) == 0.5
    assert pg.quantum_win_probability(0.3, 0.1) == pytest.approx(0.6)
    for bad in ((-0.1, 0.0), (0.0, 1.1), (0.7, 0.5)):
        with pytest.raises(ValueError):
            pg.quantum_win_probability(*bad)


def test_utility_normalization():
    # a perfect GHZ resource wins with probability 1, so the bias ratio is
    # (1/2) / 2^(-ceil(N/2)) and the utility is (ceil(N/2) - 1) log 2
    for n in (4, 7, 10):
        expected = (math.ceil(n / 2) - 1) * math.log(2.0)
        assert pg.utility_from_log_overlap(0.0, n) == pytest.approx(expected, rel=1e-15)
    assert pg.utility_from_log_overlap(-math.inf, 6) == -math.inf
    assert pg.utility_from_log_overlap(-3.0, 6) == pytest.approx(2 * math.log(2.0) - 3.0)
    np.testing.assert_array_equal(
        pg.utility_from_log_overlap(np.array([-math.inf, -3.0]), 6), [-math.inf, 2 * math.log(2.0) - 3.0]
    )
    for bad in (math.nan, np.array([-3.0, math.nan]), 1e-6):
        with pytest.raises(ValueError, match="must be a number <= 0"):
            pg.utility_from_log_overlap(bad, 6)


def test_utility_clean_matches_determinant_route():
    for n in (8, 40):
        for g in (0.3, 0.9, 1.0, 1.6, 2.5):
            via_det = pg.utility_from_log_overlap(
                ff.ghz_log_overlap_squared(np.full(n, g)), n
            )
            assert pg.utility_clean(g, n) == pytest.approx(via_det, abs=1e-10)


@pytest.mark.parametrize("block_modes", [pg.CLEAN_BLOCK_MODES, 50])
@pytest.mark.parametrize("n", [4, 40, 2000])
def test_vectorized_clean_utility_equals_scalar_calls(monkeypatch, block_modes, n):
    monkeypatch.setattr(pg, "CLEAN_BLOCK_MODES", block_modes)
    rng = np.random.default_rng(n)
    g = np.concatenate([rng.uniform(0.01, 3.0, 300), 1.0 + rng.uniform(-1e-6, 1e-6, 20), [1.0, 1e-9, 200.0]])
    values = pg.utility_clean(g, n)
    assert values.shape == g.shape
    np.testing.assert_array_equal(values, [pg.utility_clean(float(x), n) for x in g])
    assert isinstance(pg.utility_clean(1.3, n), float)
    with pytest.raises(ValueError):
        pg.utility_clean(np.array([1.0, 0.0]), n)
    with pytest.raises(ValueError):
        pg.utility_clean(np.ones((2, 2)), n)


def test_utility_clean_limits():
    assert pg.utility_clean(1e-9, 40) == pytest.approx(19 * math.log(2.0), abs=1e-7)
    with pytest.raises(ValueError):
        pg.utility_clean(0.0, 40)
    with pytest.raises(ValueError):
        pg.utility_clean(-1.0, 40)


@pytest.mark.parametrize("g,expected", sorted(B_REFERENCE.items()))
def test_advantage_density_frozen_values(g, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # expected at g = 1
        assert pg.advantage_density(g) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("block_modes", [pg.CLEAN_BLOCK_MODES, 1000])
def test_density_grid_equals_scalar_calls(monkeypatch, block_modes):
    # 1000 modes hold one coupling per block of the 24-node rule's 528 nodes
    # (three of the 12-node rule's 264), so 40 couplings span 40 blocks; the
    # default holds 15 per block.
    monkeypatch.setattr(pg, "CLEAN_BLOCK_MODES", block_modes)
    g = np.concatenate([np.linspace(0.01, 3.0, 37), [1.0 - 1e-7, 1.0 + 1e-7, 200.0]])
    b, error = pg.advantage_density(g)
    assert b.shape == error.shape == g.shape
    np.testing.assert_array_equal(b, [pg.advantage_density(float(x)) for x in g])
    assert np.all((error >= 0.0) & (error <= pg.QUAD_TOL))
    assert isinstance(pg.advantage_density(1.3), float)
    with pytest.warns(UserWarning):
        pg.advantage_density(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        pg.advantage_density(np.array([1.3, 0.0]))
    with pytest.raises(ValueError):
        pg.advantage_density(np.ones((2, 2)))


def test_density_quadrature_gate_catches_unresolved_jump(monkeypatch):
    # A q that doubles at k = 1 puts a jump inside a Gauss-Legendre panel:
    # the two orders disagree and the gate fires.
    modes = pg._modes

    def jumping(g, k):
        eps, q, cos_theta, sin_theta = modes(g, k)
        return eps, np.where(k < 1.0, q, 2.0 * q), cos_theta, sin_theta

    monkeypatch.setattr(pg, "_modes", jumping)
    with pytest.raises(NumericsError):
        pg.advantage_density(0.8)


def test_advantage_density_is_finite_n_limit():
    # chi(g)/N at N=4000 approximates the density to its 1/N correction
    for g in (0.6, 1.3):
        per_site = pg.utility_clean(g, 4000) / 4000
        assert pg.advantage_density(g) == pytest.approx(per_site, abs=1e-3)


def test_advantage_density_validation_and_critical_warning():
    with pytest.raises(ValueError):
        pg.advantage_density(0.0)
    with pytest.raises(ValueError):
        pg.advantage_density(math.inf)
    with pytest.warns(UserWarning):
        pg.advantage_density(1.0)


def test_boundary_location():
    g_star = pg.find_advantage_boundary()
    assert abs(g_star - G_STAR_REFERENCE) < 1e-11
    assert abs(g_star - 1.506) < 1e-3


def test_boundary_requires_bracketing():
    with pytest.raises(NumericsError):
        pg.find_advantage_boundary(bracket=(0.4, 0.6))


def test_classification_bands():
    log2 = math.log(2.0)
    assert pg.classify(0.5 * log2) == "strong"
    assert pg.classify(0.5 * log2 - 5e-10) == "strong"  # inside the band
    assert pg.classify(0.5 * log2 - 1e-6) == "weak"
    assert pg.classify(0.1) == "weak"
    assert pg.classify(0.0) == "none"
    assert pg.classify(-0.2) == "none"
    # the band semantics on real inputs: g = 1e-4 is still strong, g = 0.01 is not
    assert pg.classify(pg.advantage_density(1e-4)) == "strong"
    assert pg.classify(pg.advantage_density(0.01)) == "weak"


def test_utility_report_consistency():
    report = pg.utility_report(8, math.log(0.4))
    assert report.n_players == 8
    assert report.p_random == 0.5
    assert report.p_classical_opt == pg.classical_bound(8)
    assert report.p_quantum == pytest.approx(pg.quantum_win_probability(0.4, 0.0), rel=1e-15)
    assert report.utility == pytest.approx(pg.utility_from_log_overlap(math.log(0.4), 8), rel=1e-14)
    assert report.advantage_class in ("strong", "weak", "none")

    mixed = pg.utility_report(8, math.log(0.4), math.log(0.1))
    assert mixed.p_quantum == pytest.approx(0.65, rel=1e-15)
    assert mixed.utility == pytest.approx(math.log(0.3) + 3 * math.log(2.0), rel=1e-14)

    losing = pg.utility_report(8, -math.inf, math.log(0.5))
    assert losing.p_quantum == 0.25
    assert losing.utility == -math.inf
    assert losing.advantage_class == "none"


@pytest.mark.parametrize("n", [100, 110])
def test_utility_report_survives_tiny_overlaps(n):
    # o+ is below 1e-15 here, and from N = 107 on the classical edge
    # 2^{-ceil(N/2)} is below the float resolution of 1/2, so forming
    # p - 1/2 would lose the utility
    report = pg.utility_report(n, ff.ghz_log_overlap_squared(np.full(n, 1.6)))
    assert report.utility == pytest.approx(pg.utility_clean(1.6, n), rel=1e-9)


def test_utility_report_survives_underflowing_overlap():
    # at N = 4000, g = 1.6 the weight o+ = exp(-1474) underflows to 0.0
    n = 4000
    expected = pg.utility_clean(1.6, n)
    log_o_plus = expected - (math.ceil(n / 2) - 1) * math.log(2.0)
    assert math.exp(log_o_plus) == 0.0
    report = pg.utility_report(n, log_o_plus)
    assert expected == pytest.approx(-88.9, abs=0.05)
    assert report.utility == pytest.approx(expected, rel=1e-9)
    assert report.p_quantum == 0.5
    assert report.advantage_class == "none"
