"""Fixtures shared by the test modules."""

import contextlib

import pytest

from parity_ising import free_fermion as ff


@contextlib.contextmanager
def _svd_route():
    """Inside it Newton-Schulz converges no chain and hands each on, so every chain takes the SVD."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ff.ChainOverlap, "_newton_schulz_polar", lambda self, g, rows, *rest: rows)
        yield


@pytest.fixture
def svd_route():
    """``with svd_route():`` sends every chain of every ``ChainOverlap`` to the SVD, the reference route.

    Its own patcher, so that a test's ``monkeypatch.undo()`` inside the block keeps it.
    """
    return _svd_route
