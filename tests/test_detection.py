"""Corruptions of a true structure table against the suites that read it.

Each row of the catalog changes a few stored terms of a true table with
conftest.with_terms.  The retired per-class Gram check, kept here as
the oracle _gram_reference, flags a class C where the matrix of
C * bar(C) is not M_C M_C^T.  Positivity no longer runs it: it checks
the transpose identity M_(bar lam) = M_lam^T for the whole table, and
takes multiplicativity from the commutativity and giambelli suites.  So
wherever the oracle flags a class, one of those three reports must
fail; and positivity itself must name exactly the diagrams whose
matrices the corruption moves off the transpose of their bar image.
"""

import numpy as np
import pytest

from qgr.classical import basis_class
from qgr.involution import bar
from qgr.partitions import bar_involution, trim
from qgr.quantum import verify_commutativity, verify_giambelli
from qgr.spectrum import mult_matrix, random_integer_classes, verify_positivity

from conftest import with_terms

CONTEXTS = [(2, 4), (3, 6), (4, 8)]


def _gram_reference(ctx, classes, table):
    """Indices of the classes whose product fails the Gram identity.

    The check positivity made class by class before the transpose
    identity: the matrix of C * bar(C), built from its coordinates
    M_C v, with v those of bar(C), must equal M_C M_C^T exactly.
    """
    flagged = []
    for i, c in enumerate(classes):
        m_c = mult_matrix(c, table)
        v = np.zeros(ctx.dim, dtype=np.int64)
        for rank, coeff in bar(c).terms.items():
            v[rank] = coeff
        if not np.array_equal(table.matrix(m_c @ v), m_c @ m_c.T):
            flagged.append(i)
    return flagged


def _relabel_predicted(ctx, changes):
    """The ranks r whose M_r the with_terms changes move off M_(bar r)^T.

    The identity reads the entry (r, j, t), the coefficient of t in
    basis[r] * basis[j], against (bar r, t, j): r fails where an entry
    of its matrix moved by other than the entry it is read against.
    """
    bar_rank = [ctx.rank(bar_involution(lam, ctx.k)) for lam in ctx.basis]

    def image(e):
        return bar_rank[e[0]], e[2], e[1]

    return {e[0] for f in changes for e in (f, image(f))
            if changes.get(e, 0) != changes.get(image(e), 0)}


def _catalog(ctx, table):
    """(name, with_terms changes) of every corruption of the catalog.

    A term is added, deleted or raised by 1 in one order of a pair, in
    both orders, and on the diagonal; and a term moves to a target the
    pair's product lacks, both orders, which swaps the two targets.
    """
    dim = ctx.dim
    pairs = [(ra, rb) for ra in range(dim) for rb in range(ra + 1, dim)
             if table.product_ranks(ra, rb)]
    ra, rb = pairs[len(pairs) // 3]
    diag = next(r for r in range(dim // 3, dim) if table.product_ranks(r, r))
    out = []
    for where, orders in [("one order", [(ra, rb)]),
                          ("both orders", [(ra, rb), (rb, ra)]),
                          ("diagonal", [(diag, diag)])]:
        stored = dict(table.product_ranks(*orders[0]))
        t, c = next(iter(stored.items()))
        missing = next(u for u in range(dim) if u not in stored)
        for name, change in [("added", {missing: 1}), ("deleted", {t: -c}),
                             ("raised", {t: 1})]:
            out.append((f"{name}, {where}",
                        {(x, y, u): d for x, y in orders
                         for u, d in change.items()}))
    stored = dict(table.product_ranks(ra, rb))
    t, c = next(iter(stored.items()))
    missing = next(u for u in range(dim) if u not in stored)
    out.append(("targets swapped, both orders",
                {(x, y, u): d for x, y in [(ra, rb), (rb, ra)]
                 for u, d in [(t, -c), (missing, c)]}))
    return out


@pytest.mark.parametrize("k, n", CONTEXTS)
def test_gram_failures_fail_a_suite(k, n, ctx_of, table_of, spectral_of):
    ctx, table, sd = ctx_of(k, n), table_of(k, n), spectral_of(k, n)
    classes = [basis_class(ctx, lam) for lam in ctx.basis]
    classes += random_integer_classes(ctx, 5, seed=n)
    # giambelli reads no table: one report serves every row
    giambelli = verify_giambelli(ctx)
    assert giambelli.ok and not _gram_reference(ctx, classes, table)
    flagged_rows = 0
    for name, changes in _catalog(ctx, table):
        bad = with_terms(table, changes)
        reports = [verify_positivity(ctx, classes, spectral=sd, table=bad),
                   verify_commutativity(ctx, table=bad), giambelli]
        if _gram_reference(ctx, classes, bad):
            flagged_rows += 1
            assert not all(r.ok for r in reports), (k, n, name)
        # every stored product is held to the Giambelli oracle
        assert not reports[1].ok, (k, n, name)
        # positivity names the diagrams the relabel predicts, and a change
        # to one order of a pair always moves its first factor's matrix
        predicted = _relabel_predicted(ctx, changes)
        named = {tuple(f["lam"]) for f in reports[0].failures if "lam" in f}
        assert named == {trim(ctx.basis[r]) for r in predicted}, (k, n, name)
        assert reports[0].ok == (not predicted), (k, n, name)
        if name.endswith("one order"):
            assert predicted, (k, n, name)
    assert flagged_rows, (k, n)


@pytest.mark.parametrize("k, n", CONTEXTS)
def test_raised_coefficient_fails_the_predicted_diagrams(k, n, ctx_of,
                                                         table_of):
    ctx, table = ctx_of(k, n), table_of(k, n)
    bar_rank = [ctx.rank(bar_involution(lam, k)) for lam in ctx.basis]
    terms = [(ra, rb, t) for ra in range(ctx.dim)
             for rb in range(ra + 1, ctx.dim)
             for t, _ in table.product_ranks(ra, rb)]
    for ra, rb, t in terms[::max(1, len(terms) // 5)]:
        changes = {(ra, rb, t): 1, (rb, ra, t): 1}
        predicted = _relabel_predicted(ctx, changes)
        assert predicted and predicted <= {ra, rb, bar_rank[ra],
                                           bar_rank[rb]}
        flagged = with_terms(table, changes).transpose_mismatches(
            np.array(bar_rank))
        assert set(flagged.tolist()) == predicted, (k, n, ra, rb, t)
