"""The diagram involution extended to classes, and its ring identities.

The involution relabels basis diagrams (coefficients untouched), so on
classes it is Z-linear.  The suites below check, exactly over the
integers, that it factors as Poincare duality composed with the k-th
cyclic shift, that it is an automorphism of the quantum product, the
commutation law between duality and the cyclic shift, the matching
three-point-invariant identity for row classes, and the twisted
product rule for duals.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .classical import (basis_class, pairing, rank_map, relabel, row_class,
                        terms_json)
from .partitions import bar_involution, c_shift, poincare_dual, trim
from .quantum import (DEFAULT_SEED, _pieri_matrix, _seeded_triples,
                      gw_invariant, quantum_product)
from .reports import VerifyReport


def bar(a):
    """Relabel every basis term by the diagram involution."""
    return relabel(a, lambda lam: bar_involution(lam, a.ctx.k))


def verify_involution_factorization(ctx):
    """Check bar(S) = dual(shift^k S) on every basis diagram."""
    failures = []
    for lam in ctx.basis:
        via_bar = bar_involution(lam, ctx.k)
        via_shift = poincare_dual(c_shift(lam, ctx.k, ctx.k, ctx.n), ctx.k)
        if via_bar != via_shift:
            failures.append({"lam": list(trim(lam)),
                             "bar": list(trim(via_bar)),
                             "dual_shift": list(trim(via_shift))})
    failures.sort(key=lambda f: f["lam"])
    return VerifyReport("involution_factorization", ctx.k, ctx.n,
                        ctx.dim, failures)


def verify_product_automorphism(ctx, table):
    """Check bar(S_lam * S_mu) = bar(S_lam) * bar(S_mu) over basis pairs.

    Runs every unordered pair (diagonal included) as one relabel of the
    table (StructureTable.relabel_mismatches), each ordered pair
    (lam, mu) against (bar lam, bar mu) with targets relabeled by bar,
    and reads the pairs mu >= lam; the image pair may lie below the
    diagonal.  Pairs that differ are recomputed as classes, to write
    their failure records.
    """
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    rows, cols = table.relabel_mismatches(bar_rank, bar_rank, bar_rank)
    upper = cols >= rows
    failures = []
    for ra, rb in zip(rows[upper].tolist(), cols[upper].tolist()):
        a = basis_class(ctx, ctx.basis[ra])
        c = basis_class(ctx, ctx.basis[rb])
        failures.append({"pair": [list(trim(ctx.basis[ra])),
                                  list(trim(ctx.basis[rb]))],
                         "lhs": terms_json(bar(quantum_product(
                             a, c, table=table))),
                         "rhs": terms_json(quantum_product(
                             bar(a), bar(c), table=table))})
    failures.sort(key=lambda f: f["pair"])
    return VerifyReport("product_automorphism", ctx.k, ctx.n,
                        ctx.dim * (ctx.dim + 1) // 2, failures)


def verify_duality_identities(ctx, table):
    """Check the two exact identities tying duality to the shift.

    First, dual(shift^k A) = shift^(n-k)(dual A) on every basis
    diagram.  Second, for all basis pairs (A, S) and rows 1 <= r <= k,
    the row-rule invariant <A, S, (r)> equals the product-computed
    invariant <dual A, dual S, bar (r)>.  The latter is the coefficient
    of dual bar (r) in dual A * dual S, read for all S and r at once per
    diagram A off the table's slice of dual A.  The former is read off
    the Pieri matrices of the rows: it is 1 exactly where dual S lies in
    the Pieri row of A.
    """
    failures = []
    checked = 0
    for lam in ctx.basis:
        checked += 1
        lhs = poincare_dual(c_shift(lam, ctx.k, ctx.k, ctx.n), ctx.k)
        rhs = c_shift(poincare_dual(lam, ctx.k), ctx.n - ctx.k, ctx.k, ctx.n)
        if lhs != rhs:
            failures.append({"identity": "dual_shift_commutation",
                             "lam": list(trim(lam)),
                             "lhs": list(trim(lhs)), "rhs": list(trim(rhs))})
    dim = ctx.dim
    dual_rank = rank_map(ctx, partial(poincare_dual, k=ctx.k))
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    undual = np.empty_like(dual_rank)
    undual[dual_rank] = np.arange(dim)
    rows = range(1, ctx.k + 1)
    pieri = [_pieri_matrix(ctx, r) for r in rows]
    # pairing with bar (r) reads the coefficient of dual(bar (r)): the
    # target of index i, for the row r = i + 1
    index_of = np.full(dim, -1)
    index_of[dual_rank[bar_rank[[ctx.rank((r,) + (0,) * (ctx.l - 1))
                                 for r in rows]]]] = np.arange(ctx.k)
    for ra, a in enumerate(ctx.basis):
        lhs = np.zeros((ctx.k, dim), dtype=np.int64)
        for i, (ptr, tgt) in enumerate(pieri):
            lhs[i, undual[tgt[ptr[ra]:ptr[ra + 1]]]] = 1
        seg = slice(table.ptr[dual_rank[ra] * dim],
                    table.ptr[dual_rank[ra] * dim + dim])
        col, target = np.divmod(table.key[seg], dim)
        index = index_of[target]
        read = index >= 0
        rhs = np.zeros_like(lhs)
        rhs[index[read], undual[col[read]]] = table.coeff[seg][read]
        checked += lhs.size
        for i, rs in zip(*np.nonzero(lhs != rhs)):
            r, s = rows[i], ctx.basis[rs]
            prod = quantum_product(basis_class(ctx, poincare_dual(a, ctx.k)),
                                   basis_class(ctx, poincare_dual(s, ctx.k)),
                                   table=table)
            failures.append({"identity": "row_invariant_duality",
                             "a": list(trim(a)), "s": list(trim(s)),
                             "r": r, "lhs": int(lhs[i, rs]),
                             "rhs": pairing(prod, bar(row_class(ctx, r)))})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return VerifyReport("duality_identities", ctx.k, ctx.n, checked, failures)


def verify_dual_product_identity(ctx, table, samples=1000, seed=DEFAULT_SEED):
    """Check dual(A*C) = dual(A) * bar(C) and the matching invariants.

    The first identity runs over all ordered basis pairs as one relabel
    of the table (StructureTable.relabel_mismatches): each product
    A * C against dual A * bar C, targets relabeled by dual.  Pairs that
    differ are recomputed as classes, to write their failure records.
    The second, <A,C,B> = <dual A, dual C, bar B>, runs over seeded
    basis triples, all at once: the coefficient of dual B in A * C
    against that of dual bar B in dual A * dual C, read off
    StructureTable.pair_products.  Triples that differ are recomputed as
    classes, to write their failure records.
    """
    def dual(lam):
        return poincare_dual(lam, ctx.k)

    dual_rank = rank_map(ctx, dual)
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    failures = []
    checked = ctx.dim ** 2
    rows, cols = table.relabel_mismatches(dual_rank, bar_rank, dual_rank)
    for ra, rc in zip(rows.tolist(), cols.tolist()):
        a = basis_class(ctx, ctx.basis[ra])
        c = basis_class(ctx, ctx.basis[rc])
        failures.append({"identity": "dual_product",
                         "a": list(trim(ctx.basis[ra])),
                         "c": list(trim(ctx.basis[rc])),
                         "lhs": terms_json(relabel(quantum_product(
                             a, c, table=table), dual)),
                         "rhs": terms_json(quantum_product(
                             relabel(a, dual), bar(c), table=table))})

    def coefficient(x, y, target):
        """Coefficient of basis[target] in basis[x] * basis[y], per entry."""
        row, t, c = table.pair_products(x, y, np.ones_like(x))
        hit = t == target[row]
        out = np.zeros(len(x), dtype=np.int64)
        np.add.at(out, row[hit], c[hit])
        return out

    triples = _seeded_triples(ctx, samples, seed)
    ra, rb, rc = triples.T
    checked += samples
    # <A, C, B> pairs A * C with B: the coefficient of dual B
    lhs = coefficient(ra, rc, dual_rank[rb])
    rhs = coefficient(dual_rank[ra], dual_rank[rc], dual_rank[bar_rank[rb]])
    for triple in triples[lhs != rhs].tolist():
        a, b, c = (basis_class(ctx, ctx.basis[r]) for r in triple)
        failures.append({"identity": "invariant_duality",
                         "triple": [list(trim(ctx.basis[r]))
                                    for r in triple],
                         "lhs": gw_invariant(a, c, b, table=table),
                         "rhs": gw_invariant(relabel(a, dual),
                                             relabel(c, dual), bar(b),
                                             table=table)})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return VerifyReport("dual_product_identity", ctx.k, ctx.n,
                        checked, failures)
