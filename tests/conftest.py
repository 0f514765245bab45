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


def with_extra_targets(matrix, extra):
    """A Pieri matrix (ptr, targets) with more targets in some rows.

    extra maps a rank to the targets its row gains; rows stay sorted.
    """
    import numpy as np
    ptr, targets = matrix
    rows = [targets[ptr[j]:ptr[j + 1]].tolist() for j in range(len(ptr) - 1)]
    for rank, more in extra.items():
        rows[rank] = sorted(rows[rank] + list(more))
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=out[1:])
    return out, np.array([t for row in rows for t in row], dtype=np.int32)


def with_terms(table, changes):
    """A copy of a structure table with terms of ordered pairs changed.

    changes maps (ra, rb, target) to an amount added to the coefficient
    of basis[target] in basis[ra] * basis[rb]; a term that reaches 0 is
    dropped, and a missing one is added.  Only that order of the pair
    changes.
    """
    import numpy as np
    from qgr import StructureTable
    dim = table.ctx.dim
    changed = {}
    for (ra, rb, target), delta in changes.items():
        terms = changed.setdefault((ra, rb), dict(table.product_ranks(ra, rb)))
        terms[target] = terms.get(target, 0) + delta
    ptr, key, coeff = [0], [], []
    for ra in range(dim):
        for rb in range(dim):
            terms = changed.get((ra, rb), dict(table.product_ranks(ra, rb)))
            items = sorted((t, c) for t, c in terms.items() if c)
            key += [rb * dim + t for t, _ in items]
            coeff += [c for _, c in items]
            ptr.append(len(key))
    return StructureTable(table.ctx, np.array(ptr, dtype=np.int64),
                          np.array(key, dtype=table.key.dtype),
                          np.array(coeff, dtype=table.coeff.dtype))
