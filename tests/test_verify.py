"""The self-check registry: all levels green, failures attributable.

The mutation tests at the bottom are the important ones: one breaks the
Hessian kernel's distance attribution while preserving the d = 0 entry, the
other scales the pair weight a_plus that the kernel and the Laplacian share,
and the contraction checks must catch each.  That works because checks
resolve library functions through their module namespaces at call time.
"""

import json
import logging

import numpy as np
import pytest

import parity_ising
from parity_ising import oracle
from parity_ising import perturbation as pt
from parity_ising import verify


def test_fast_level_is_green():
    results = verify.run_checks("fast")
    assert len(results) == 20
    assert verify.failures(results) == ()
    assert all(r.elapsed >= 0.0 for r in results)


def test_full_level_is_green():
    results = verify.run_checks("full")
    assert len(results) == 27
    assert verify.failures(results) == ()


def test_check_times_go_to_the_package_logger(caplog):
    with caplog.at_level("DEBUG", logger="parity_ising"):
        verify.run_checks("fast")
    records = [r for r in caplog.records if r.name == "parity_ising.verify"]
    assert [r.getMessage().split(":")[0] for r in records] == [c.__name__ for c in verify.FAST_CHECKS]
    assert all(r.levelname == "DEBUG" for r in records)


def test_package_logger_has_only_a_null_handler():
    handlers = logging.getLogger("parity_ising").handlers
    assert [type(h) for h in handlers] == [logging.NullHandler]


def test_every_exported_name_resolves():
    """Each name in __all__ loads through the lazy __getattr__, so no deleted name lingers in _EXPORTS."""
    for name in parity_ising.__all__:
        assert getattr(parity_ising, name) is not None, name


@pytest.mark.parametrize("check", [verify.check_dense_overlap, verify.check_game_theorem])
def test_registry_streams_are_keyed_by_chain_length(check, monkeypatch):
    """The couplings a check draws at N = 4 do not reappear as the leading sites of its draws at N = 6."""
    drawn = {}
    real = oracle.dense_ground_state

    def recording(g):
        drawn.setdefault(len(g), []).append(np.array(g))
        return real(g)

    monkeypatch.setattr(oracle, "dense_ground_state", recording)
    for n in (4, 6):
        check(n, draws=3)
    assert drawn[4] and drawn[6]
    for short in drawn[4]:
        for long in drawn[6]:
            assert not np.array_equal(long[:4], short)


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_checks("paranoid")


def test_failures_filters_on_passed_flag():
    good = verify.CheckResult("a", "m", True, 1.0, 1.0, 0.1, "", 0.0)
    bad = verify.CheckResult("b", "m", False, 2.0, 1.0, 0.1, "", 0.0)
    assert verify.failures((good, bad)) == (bad,)


def test_results_serialize_to_json():
    results = verify.run_checks("fast")
    payload = json.dumps([r.as_dict() for r in results])
    rows = json.loads(payload)
    assert set(rows[0]) == {
        "name", "module", "passed", "observed", "expected",
        "tolerance", "inputs", "elapsed",
    }


def test_broken_kernel_attribution_is_caught(monkeypatch):
    # Flip the sign of every d > 0 entry: N*kernel(0) still matches the
    # Laplacian, but N*sum(kernel) no longer matches chi''.  The registry
    # must fail loudly on exactly that contraction.
    real = pt.hessian_kernel

    def broken(g_bar, n_sites):
        kernel = real(g_bar, n_sites)
        values = kernel.values.copy()
        values[1:] = -values[1:]
        return pt.HessianKernel(kernel.base_coupling, kernel.n_sites, values)

    monkeypatch.setattr(pt, "hessian_kernel", broken)
    failed = {r.name for r in verify.failures(verify.check_contractions())}
    assert failed
    assert all("sum(kernel)" in name for name in failed)
    assert any("chi_double_prime" in name for name in failed)


def test_scaled_pair_weight_is_caught_by_the_laplacian_stencil(monkeypatch):
    # a_plus 1% too large moves N*kernel(0) and laplacian_u together, so a
    # comparison of the two would pass; the one-site finite difference of
    # the determinant route does not move.
    real = pt._pair_weights

    def scaled(p1, p2, g):
        a_plus, a_minus = real(p1, p2, g)
        return 1.01 * a_plus, a_minus

    monkeypatch.setattr(pt, "_pair_weights", scaled)
    failed = {r.name for r in verify.failures(verify.check_contractions())}
    assert any("laplacian_u vs one-site finite difference" in name for name in failed)
