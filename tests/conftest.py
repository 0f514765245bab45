import pytest

from qgr import GrassmannContext, build_table
from qgr.spectrum import joint_eigenbasis

_CONTEXTS = {}
_TABLES = {}
_SPECTRA = {}


def _ctx(k, n):
    return _CONTEXTS.setdefault((k, n), GrassmannContext(k, n))


def _table(k, n):
    if (k, n) not in _TABLES:
        _TABLES[(k, n)] = build_table(_ctx(k, n))
    return _TABLES[(k, n)]


def _spectral(k, n):
    if (k, n) not in _SPECTRA:
        _SPECTRA[(k, n)] = joint_eigenbasis(_ctx(k, n))
    return _SPECTRA[(k, n)]


@pytest.fixture(scope="session")
def ctx_of():
    """Shared context factory: ctx_of(k, n)."""
    return _ctx


@pytest.fixture(scope="session")
def table_of():
    """Shared structure-table factory, built once per (k, n)."""
    return _table


@pytest.fixture(scope="session")
def spectral_of():
    """Shared spectral data factory, computed once per (k, n)."""
    return _spectral


def all_contexts(max_n, min_n=2):
    """(k, n) pairs with 1 <= k < n and min_n <= n <= max_n."""
    return [(k, n) for n in range(min_n, max_n + 1) for k in range(1, n)]
