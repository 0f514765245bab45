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

import random

from .classical import basis_class, pairing, relabel, row_class, terms_json
from .partitions import bar_involution, c_shift, poincare_dual, trim
from .quantum import (DEFAULT_SEED, gw_invariant, quantum_pieri_invariant,
                      quantum_product)
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


def verify_product_automorphism(ctx, mode="exhaustive", samples=1000,
                                seed=DEFAULT_SEED, table=None):
    """Check bar(S_lam * S_mu) = bar(S_lam) * bar(S_mu) over basis pairs.

    Exhaustive mode runs every unordered pair (diagonal included);
    sampled mode draws seeded pairs.
    """
    if mode == "exhaustive":
        pairs = [(ra, rb) for ra in range(ctx.dim)
                 for rb in range(ra, ctx.dim)]
    elif mode == "sampled":
        rng = random.Random(seed)
        pairs = [(rng.randrange(ctx.dim), rng.randrange(ctx.dim))
                 for _ in range(samples)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    failures = []
    for ra, rb in pairs:
        a = basis_class(ctx, ctx.basis[ra])
        b = basis_class(ctx, ctx.basis[rb])
        lhs = bar(quantum_product(a, b, table=table))
        rhs = quantum_product(bar(a), bar(b), table=table)
        if lhs != rhs:
            failures.append({"pair": [list(trim(ctx.basis[ra])),
                                      list(trim(ctx.basis[rb]))],
                             "lhs": terms_json(lhs),
                             "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: f["pair"])
    return VerifyReport("product_automorphism", ctx.k, ctx.n,
                        len(pairs), failures)


def verify_duality_identities(ctx, table=None):
    """Check the two exact identities tying duality to the shift.

    First, dual(shift^k A) = shift^(n-k)(dual A) on every basis
    diagram.  Second, for all basis pairs (A, S) and rows 1 <= r <= k,
    the row-rule invariant <A, S, (r)> equals the product-computed
    invariant <dual A, dual S, bar (r)>.
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
    bar_rows = {r: bar(row_class(ctx, r)) for r in range(1, ctx.k + 1)}
    for a in ctx.basis:
        a_dual = basis_class(ctx, poincare_dual(a, ctx.k))
        for s in ctx.basis:
            s_dual = basis_class(ctx, poincare_dual(s, ctx.k))
            prod = quantum_product(a_dual, s_dual, table=table)
            for r in range(1, ctx.k + 1):
                checked += 1
                lhs = quantum_pieri_invariant(a, s, r, ctx)
                rhs = pairing(prod, bar_rows[r])
                if lhs != rhs:
                    failures.append({"identity": "row_invariant_duality",
                                     "a": list(trim(a)), "s": list(trim(s)),
                                     "r": r, "lhs": lhs, "rhs": rhs})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return VerifyReport("duality_identities", ctx.k, ctx.n, checked, failures)


def verify_dual_product_identity(ctx, samples=1000, seed=DEFAULT_SEED,
                                 table=None):
    """Check dual(A*C) = dual(A) * bar(C) and the matching invariants.

    The first identity runs over all ordered basis pairs; the second,
    <A,C,B> = <dual A, dual C, bar B>, over seeded basis triples.
    """
    def dual(lam):
        return poincare_dual(lam, ctx.k)

    failures = []
    checked = 0
    for ra in range(ctx.dim):
        a = basis_class(ctx, ctx.basis[ra])
        for rc in range(ctx.dim):
            c = basis_class(ctx, ctx.basis[rc])
            checked += 1
            lhs = relabel(quantum_product(a, c, table=table), dual)
            rhs = quantum_product(relabel(a, dual), bar(c), table=table)
            if lhs != rhs:
                failures.append({"identity": "dual_product",
                                 "a": list(trim(ctx.basis[ra])),
                                 "c": list(trim(ctx.basis[rc])),
                                 "lhs": terms_json(lhs),
                                 "rhs": terms_json(rhs)})
    rng = random.Random(seed)
    for _ in range(samples):
        ra, rb, rc = (rng.randrange(ctx.dim) for _ in range(3))
        a = basis_class(ctx, ctx.basis[ra])
        b = basis_class(ctx, ctx.basis[rb])
        c = basis_class(ctx, ctx.basis[rc])
        checked += 1
        lhs = gw_invariant(a, c, b, table=table)
        rhs = gw_invariant(relabel(a, dual), relabel(c, dual), bar(b),
                           table=table)
        if lhs != rhs:
            failures.append({"identity": "invariant_duality",
                             "triple": [list(trim(ctx.basis[ra])),
                                        list(trim(ctx.basis[rb])),
                                        list(trim(ctx.basis[rc]))],
                             "lhs": lhs, "rhs": rhs})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return VerifyReport("dual_product_identity", ctx.k, ctx.n,
                        checked, failures)
