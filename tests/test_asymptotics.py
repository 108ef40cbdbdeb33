"""Critical-point sums, elliptic closed forms, and their consistency.

The trig sums and elliptic integrals each have an independent reference:
exact small-N values by hand, Legendre's relation for K and E, and the
finite-N mode sums of the perturbation module for the thermodynamic limits.
"""

import math

import pytest

from parity_ising import asymptotics as asy
from parity_ising import perturbation as pt


def test_trig_sums_smallest_chain_by_hand():
    # N = 2 has the single wavenumber k = pi/2: sin(k/2) = sqrt(2)/2
    assert asy.s1_exact(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert asy.s2_exact(2) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 8, 40, 200, 1000])
def test_s2_is_exactly_half_n_squared(n):
    assert asy.s2_exact(n) == pytest.approx(0.5 * n * n, rel=1e-13)


def test_trig_sum_validation():
    with pytest.raises(ValueError):
        asy.s1_exact(7)
    with pytest.raises(ValueError):
        asy.s2_exact(0)


def test_s1_asymptotic_error_shrinks():
    rel = [
        abs(asy.s1_exact(n) - asy.s1_asymptotic(n)) / asy.s1_exact(n)
        for n in (100, 200, 400, 800)
    ]
    assert all(a > b for a, b in zip(rel, rel[1:]))
    assert rel[-1] < 1e-7


def test_critical_chi2_approaches_minus_n_squared_over_8():
    errs = []
    for n in (100, 200, 400, 800):
        rep = asy.critical_scaling(n)
        errs.append(abs(rep.chi2_critical_exact / rep.chi2_critical_asymptotic - 1.0))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[1] < 0.10  # N = 200 inside the 10 percent band


def test_report_internal_consistency():
    rep = asy.critical_scaling(200)
    assert rep.n_sites == 200
    assert rep.chi2_critical_asymptotic == -200**2 / 8.0
    assert rep.rescaled_sv_asymptotic == -200 / 16.0
    assert rep.rescaled_sv_critical == pytest.approx(
        rep.chi2_critical_exact / 400.0, rel=1e-15
    )
    assert rep.s2_asymptotic == 0.5 * 200**2


@pytest.mark.parametrize("n", [8, 40, 200, 1000, 4000])
def test_critical_chi2_matches_mode_sum_route(n):
    # Independent expressions: the trig-sum formula versus the Bogoliubov
    # mode sum evaluated at g = 1, where the modes must not cancel at small k.
    assert asy.critical_scaling(n).chi2_critical_exact == pytest.approx(
        pt.chi_double_prime(1.0, n), rel=1e-12
    )


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.99, 0.999999])
def test_elliptic_legendre_relation(m):
    # E(m) K(1-m) + E(1-m) K(m) - K(m) K(1-m) = pi/2
    big_k, big_e = asy.elliptic_km_em(m)
    k_comp, e_comp = asy.elliptic_km_em(1.0 - m)
    relation = big_e * k_comp + e_comp * big_k - big_k * k_comp
    assert relation == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_elliptic_domain():
    with pytest.raises(ValueError):
        asy.elliptic_km_em(1.0)
    with pytest.raises(ValueError):
        asy.elliptic_km_em(-0.1)
    big_k, big_e = asy.elliptic_km_em(0.0)
    assert big_k == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert big_e == pytest.approx(math.pi / 2.0, rel=1e-15)


@pytest.mark.parametrize("g", [0.5, 0.9, 0.98, 1.02, 1.1, 1.5, 2.5])
def test_thermodynamic_derivatives_match_large_chain(g):
    # Off criticality the finite-N corrections decay exponentially, so a
    # 2000-site mode sum agrees to near machine precision; at |1 - g| = 0.02
    # this pins the near-critical pole and log of the elliptic forms.
    assert asy.dchi_dg_thermodynamic(g) == pytest.approx(
        pt.chi_prime(g, 2000) / 2000, rel=1e-12
    )
    assert asy.d2chi_dg2_thermodynamic(g) == pytest.approx(
        pt.chi_double_prime(g, 2000) / 2000, rel=1e-12
    )


def test_thermodynamic_derivative_signs():
    assert asy.dchi_dg_thermodynamic(0.5) < 0.0
    assert asy.dchi_dg_thermodynamic(1.5) < 0.0
    assert asy.d2chi_dg2_thermodynamic(0.5) < 0.0
    assert asy.d2chi_dg2_thermodynamic(1.5) > 0.0


def test_first_derivative_branch_step():
    # The theta(1 - g) term steps by pi/g across g = 1, so the one-sided
    # limits differ by exactly 1/(2g) -> 1/2 while K(m) cancels (m is
    # symmetric in g -> 1/g to leading order).
    delta = 1e-4
    step = asy.dchi_dg_thermodynamic(1.0 - delta) - asy.dchi_dg_thermodynamic(1.0 + delta)
    assert step == pytest.approx(0.5, abs=1e-3)


def test_thermodynamic_derivative_validation():
    for bad in (0.0, -1.0, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            asy.dchi_dg_thermodynamic(bad)
        with pytest.raises(ValueError):
            asy.d2chi_dg2_thermodynamic(bad)
