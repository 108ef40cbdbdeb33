"""Fixtures shared by the test modules."""

import contextlib

import pytest

from parity_ising import free_fermion as ff


@contextlib.contextmanager
def _band_route():
    """Inside it Newton-Schulz converges no chain and hands each on, so every chain starts on the band route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ff.ChainOverlap, "_newton_schulz_polar", lambda self, g, rows, *rest: rows)
        yield


@pytest.fixture
def band_route():
    """``with band_route():`` starts every chain of every ``ChainOverlap`` on the band route."""
    return _band_route


@pytest.fixture
def band_only():
    """Every chain of the test starts on the band route.

    Its own patcher, so that a test's ``monkeypatch.undo()`` keeps it.
    """
    with _band_route():
        yield
