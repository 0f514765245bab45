"""The detection matrix: corruptions of the ring data against the suites
of verify --suite all.

MATRIX has one row per corruption of a fixed catalog, under a line
naming its context, and one column per suite, in the order verify
reports them (COLUMNS names them), with x where the suite fails and .
where it passes; the tests hold every row to it exactly.  The last
column, sp, marks the rows where joint_eigenbasis refuses its points,
so verify exits 3 and no spectrum suite reports.  The catalog:
  - term rows at G(2,4), G(3,6) and G(4,8), changes of a true table
    by conftest.with_terms: a term added, deleted or raised by 1, in
    one order of a pair, in both orders and on the diagonal, and a term
    moved to a target the pair lacks, in both orders;
  - Pieri rows at G(2,5): one entry added to or dropped from a row of
    (1), in the array form (_pieri_matrix, which the table build, the
    spectrum and the duality suite read) or in the scalar form of mul
    and gw (_pieri_row);
  - a wrong shift at G(4,8): the build copies the later diagrams of
    each cyclic orbit with the shift conjugated by the swap of two
    diagrams of one degree, which keeps every degree, so it is accepted.
Every row keeps a failing suite, and the certificate names exactly the
ordered pairs whose products the corruption changed.  Retiring a suite
deletes its column, which must leave every row with an x.

Positivity checks the transpose identity M_(bar lam) = M_lam^T for the
whole table, and takes multiplicativity from the certificate.  The
retired per-class Gram check, kept here as the oracle _gram_reference,
flags a class C where the matrix of C * bar(C) is not M_C M_C^T;
wherever it flags one, a suite fails, and positivity names exactly the
diagrams whose matrices the corruption moves off the transpose of their
bar image.
"""

import numpy as np
import pytest

from qgr import GrassmannContext, build_table, cli, involution, quantum, \
    spectrum
from qgr.classical import basis_class
from qgr.involution import bar
from qgr.partitions import bar_involution, c_shift, trim
from qgr.quantum import DEFAULT_SEED
from qgr.spectrum import mult_matrix, random_integer_classes, verify_positivity

from conftest import with_extra_targets, with_terms

COLUMNS = {"cm": "commutativity", "as": "associativity", "gr": "grading",
           "pc": "pieri_consistency", "gi": "giambelli", "cy": "cyclic",
           "ce": "certificate", "fa": "involution_factorization",
           "au": "product_automorphism", "du": "duality_identities",
           "dp": "dual_product_identity", "co": "conjugation",
           "pt": "point_conjugation", "po": "positivity", "va": "vanishing",
           "sp": "spectrum"}

MATRIX = """
corruption                   | cm as gr pc gi cy ce fa au du dp co pt po va sp
G(2,4)
added, one order             | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, one order           | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, one order            | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
added, both orders           | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, both orders         | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, both orders          | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
added, diagonal              | x  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, diagonal            | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, diagonal             | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
targets swapped, both orders | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
G(3,6)
added, one order             | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, one order           | x  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, one order            | x  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
added, both orders           | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, both orders         | x  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, both orders          | x  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
added, diagonal              | .  x  .  .  .  x  x  .  x  .  x  .  .  x  .  .
deleted, diagonal            | .  x  x  .  .  x  x  .  x  x  x  .  .  x  .  .
raised, diagonal             | .  x  x  .  .  x  x  .  x  x  x  .  .  x  .  .
targets swapped, both orders | x  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
G(4,8)
added, one order             | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, one order           | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, one order            | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
added, both orders           | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, both orders         | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, both orders          | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
added, diagonal              | .  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
deleted, diagonal            | .  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
raised, diagonal             | .  x  x  .  .  .  x  .  x  .  x  .  .  x  .  .
targets swapped, both orders | .  x  .  .  .  .  x  .  x  .  x  .  .  x  .  .
wrong shift in the copies    | x  x  x  .  .  .  x  .  x  x  x  .  .  x  .  .
G(2,5)
array Pieri entry added      | x  x  x  x  .  x  x  .  x  x  x  .  .  .  .  x
array Pieri entry dropped    | x  x  x  x  .  x  x  .  x  x  x  .  .  .  .  x
scalar Pieri entry added     | x  .  .  x  x  .  .  .  .  .  .  .  .  .  .  .
scalar Pieri entry dropped   | x  .  .  x  x  .  .  .  .  .  .  .  .  .  .  .
"""


def _matrix():
    """{(k, n, corruption): set of failing suites} read off MATRIX."""
    header, *rows = MATRIX.strip().splitlines()
    columns = header.split("|")[1].split()
    assert list(COLUMNS) == columns
    out = {}
    for line in rows:
        if line.startswith("G("):
            k, n = map(int, line[2:-1].split(","))
            continue
        name, marks = (part.strip() for part in line.split("|"))
        marks = marks.split()
        assert len(marks) == len(columns) and set(marks) <= {"x", "."}
        out[k, n, name] = {COLUMNS[c] for c, m in zip(columns, marks)
                           if m == "x"}
    return out


EXPECTED = _matrix()
TERM_CONTEXTS = [(2, 4), (3, 6), (4, 8)]


def _failing_suites(ctx, table):
    """Names of the verify --suite all suites that fail on table, run as
    verify runs them; spectrum where joint_eigenbasis refuses."""
    log = []
    reports = cli._ring_suites(ctx, DEFAULT_SEED, table, log, "main") \
        + cli._involution_suites(ctx, DEFAULT_SEED, table, log, "main")
    failing = set()
    try:
        reports += cli._spectrum_suites(ctx, 1e-8, DEFAULT_SEED, table, log,
                                        "main")
    except spectrum.DegenerateSpectrum:
        failing.add("spectrum")
    return failing | {r.suite for r in reports if not r.ok}, \
        {r.suite: r for r in reports}


def _named_pairs(report):
    return {tuple(map(tuple, f["pair"])) for f in report.failures
            if "pair" in f}


def _changed_pairs(ctx, table, true):
    return {(trim(ctx.basis[ra]), trim(ctx.basis[rb]))
            for ra in range(ctx.dim) for rb in range(ctx.dim)
            if table.product_ranks(ra, rb) != true.product_ranks(ra, rb)}


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
    """(name, with_terms changes) of every term row of the catalog."""
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


def test_every_row_keeps_a_failing_suite():
    assert all(EXPECTED.values())
    term_rows = {name for k, n, name in EXPECTED if (k, n) == (2, 4)}
    assert {(k, n) for k, n, _ in EXPECTED} == \
        set(TERM_CONTEXTS) | {(2, 5)}
    for k, n in TERM_CONTEXTS:
        assert {name for kk, nn, name in EXPECTED
                if (kk, nn) == (k, n) and name in term_rows} == term_rows


@pytest.mark.parametrize("k, n", TERM_CONTEXTS)
def test_gram_failures_fail_a_suite(k, n, ctx_of, table_of, spectral_of):
    ctx, table, sd = ctx_of(k, n), table_of(k, n), spectral_of(k, n)
    classes = [basis_class(ctx, lam) for lam in ctx.basis]
    classes += random_integer_classes(ctx, 5, seed=n)
    assert not _gram_reference(ctx, classes, table)
    flagged_rows = 0
    for name, changes in _catalog(ctx, table):
        bad = with_terms(table, changes)
        failing, reports = _failing_suites(ctx, bad)
        assert failing == EXPECTED[k, n, name], (k, n, name)
        # the certificate names the pairs whose net change is not 0
        changed = {(trim(ctx.basis[x]), trim(ctx.basis[y]))
                   for (x, y, _), d in changes.items() if d}
        assert _named_pairs(reports["certificate"]) == changed, (k, n, name)
        if _gram_reference(ctx, classes, bad):
            flagged_rows += 1
        # positivity names the diagrams the relabel predicts, and a change
        # to one order of a pair always moves its first factor's matrix
        positivity = verify_positivity(ctx, classes, spectral=sd, table=bad)
        predicted = _relabel_predicted(ctx, changes)
        named = {tuple(f["lam"]) for f in positivity.failures if "lam" in f}
        assert named == {trim(ctx.basis[r]) for r in predicted}, (k, n, name)
        assert positivity.ok == (not predicted), (k, n, name)
        if name.endswith("one order"):
            assert predicted, (k, n, name)
    assert flagged_rows, (k, n)


def _without(matrix, rank, target):
    """A Pieri matrix (ptr, targets) with one target of a row dropped."""
    ptr, targets = matrix
    drop = ptr[rank] + np.flatnonzero(
        targets[ptr[rank]:ptr[rank + 1]] == target)
    out = ptr.copy()
    out[rank + 1:] -= len(drop)
    return out, np.delete(targets, drop)


def _pieri_corruption(monkeypatch, name, ctx):
    """Patch the G(2,5) Pieri row of the catalog row name."""
    two, column, hook = (ctx.rank(lam) for lam in
                         [(2, 0, 0), (1, 1, 0), (2, 1, 0)])
    matrix, row = quantum._pieri_matrix, quantum._pieri_row
    if name.startswith("array"):
        def corrupted(ctx, r):
            # (1) times (2) gains (1,1,1), or (1) times (1,1) loses (2,1)
            m = matrix(ctx, r)
            if r != 1:
                return m
            return with_extra_targets(m, {two: (ctx.rank((1, 1, 1)),)}) \
                if name.endswith("added") else _without(m, column, hook)
        # every module that reads the array rule
        for module in (quantum, spectrum, involution):
            monkeypatch.setattr(module, "_pieri_matrix", corrupted)
    else:
        def corrupted(ctx, r, rank):
            # (1) times (1,1) gains the point class, or loses (2,1)
            out = row(ctx, r, rank)
            if (r, rank) != (1, column):
                return out
            return out + (ctx.dim - 1,) if name.endswith("added") \
                else tuple(t for t in out if t != hook)
        monkeypatch.setattr(quantum, "_pieri_row", corrupted)


@pytest.mark.parametrize("name", [
    "array Pieri entry added", "array Pieri entry dropped",
    "scalar Pieri entry added", "scalar Pieri entry dropped"])
def test_pieri_rows(name, table_of, monkeypatch):
    ctx = GrassmannContext(2, 5)
    with monkeypatch.context() as patch:
        _pieri_corruption(patch, name, ctx)
        bad = build_table(ctx)
        failing, reports = _failing_suites(ctx, bad)
    assert failing == EXPECTED[2, 5, name]
    assert _named_pairs(reports["certificate"]) == \
        _changed_pairs(ctx, bad, table_of(2, 5))
    # the scalar rows leave the table as it is
    assert (bad == table_of(2, 5)) == name.startswith("scalar")


def test_wrong_shift_in_the_copies(ctx_of, table_of, monkeypatch):
    ctx, table = ctx_of(4, 8), table_of(4, 8)
    shift = np.array([ctx.rank(c_shift(lam, 1, ctx.k, ctx.n))
                      for lam in ctx.basis])
    swap = np.arange(ctx.dim)
    x, y = ctx.rank((2, 2, 2, 0)), ctx.rank((2, 2, 1, 1))
    swap[[x, y]] = y, x
    powers = quantum._shift_powers(swap[shift[swap]], ctx.n)
    with monkeypatch.context() as patch:
        patch.setattr(quantum, "_shift_powers", lambda shift, n: powers)
        bad = build_table(ctx)
    failing, reports = _failing_suites(ctx, bad)
    assert failing == EXPECTED[4, 8, "wrong shift in the copies"]
    assert _named_pairs(reports["certificate"]) == \
        _changed_pairs(ctx, bad, table)


@pytest.mark.parametrize("k, n", TERM_CONTEXTS)
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
        flagged, _ = with_terms(table, changes).transpose_mismatches(
            np.array(bar_rank))
        assert set(flagged.tolist()) == predicted, (k, n, ra, rb, t)
