"""The quantum product on the cohomology of G(k, n), at q = 1.

Multiplication by a single-row class is governed by a two-case rule
for the three-point invariant <A, S, (r)>: it is 1 exactly when either

    deg A + deg S + r = kl      with  a_i + s_j >= k   for i + j = l,
                                      a_i + s_j <= k   for i + j = l + 1,
or
    deg A + deg S + r = kl + n  with  a_i + s_j >= k+1 for i + j = l + 1,
                                      a_i + s_j <= k+1 for i + j = l + 2,

indices running over 1..l, and 0 otherwise.  Since the grading only
survives mod n at q = 1, the curve degree d of any invariant is
recovered from deg A + deg B + deg C = kl + d*n.

General products expand one factor by the Giambelli determinant in
single-row classes (valid verbatim in the quantum ring) and apply the
row rule repeatedly; the test suite validates the expansion against
the ring axioms rather than trusting it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .classical import (CohomClass, _same_ctx, basis_class, classical_pieri,
                        column_class, cup_product, pairing, relabel,
                        terms_json, unit_class)
from .partitions import c_shift, degree, nonzero_rows, poincare_dual, trim
from .reports import VerifyReport

DEFAULT_SEED = 0xC0FFEE

# per-(k, n) memo of Pieri rows and basis products; pure data, so the
# cache is observationally transparent
_RING_CACHE = {}


def _cache(ctx):
    return _RING_CACHE.setdefault((ctx.k, ctx.n), {"pieri": {}, "prod": {}})


def quantum_pieri_invariant(a, s, r, ctx):
    """The three-point invariant <A, S, (r)> at q = 1; value 0 or 1."""
    if not 1 <= r <= ctx.k:
        raise ValueError(f"row length {r} outside 1..k={ctx.k}")
    k, l = ctx.k, ctx.l
    total = degree(a) + degree(s) + r
    if total == k * l:
        low_sum, high_sum, bound = l, l + 1, k
    elif total == k * l + ctx.n:
        low_sum, high_sum, bound = l + 1, l + 2, k + 1
    else:
        return 0
    for i in range(1, l + 1):
        j = low_sum - i
        if 1 <= j <= l and a[i - 1] + s[j - 1] < bound:
            return 0
        j = high_sum - i
        if 1 <= j <= l and a[i - 1] + s[j - 1] > bound:
            return 0
    return 1


def _pieri_row(ctx, r, rank):
    """Ranks T with <basis[rank], dual T, (r)> = 1 (all coefficients 1)."""
    cache = _cache(ctx)["pieri"]
    key = (r, rank)
    hit = cache.get(key)
    if hit is not None:
        return hit
    lam = ctx.basis[rank]
    out = []
    # the invariant vanishes unless deg T is deg lam + r or deg lam + r - n
    for target in (degree(lam) + r, degree(lam) + r - ctx.n):
        if 0 <= target <= ctx.top_degree:
            for t in ctx.ranks_by_degree[target]:
                dual = poincare_dual(ctx.basis[t], ctx.k)
                if quantum_pieri_invariant(lam, dual, r, ctx):
                    out.append(t)
    row = tuple(sorted(out))
    cache[key] = row
    return row


def quantum_pieri_product(r, a):
    """Quantum product of the single-row class (r) with a class."""
    ctx = a.ctx
    if r == 0:
        return CohomClass(ctx, a.terms)
    if not 1 <= r <= ctx.k:
        raise ValueError(f"row length {r} outside 0..k={ctx.k}")
    out = {}
    for rank, c in a.terms.items():
        for t in _pieri_row(ctx, r, rank):
            out[t] = out.get(t, 0) + c
    return CohomClass(ctx, out)


def giambelli_expand(lam, k):
    """Signed monomials in single-row classes whose product gives lam.

    Expands the determinant with (i, j) entry the row class of length
    lam_i + j - i over the nonzero rows of lam; entries of length 0 are
    the unit, entries outside 0..k vanish.  Returns (coefficient, rows)
    pairs with rows sorted decreasingly, like monomials combined.
    """
    rows = list(trim(lam))
    m = len(rows)
    if m == 0:
        return [(1, ())]
    acc = {}

    def expand(i, used, sign, factors):
        if i == m:
            key = tuple(sorted(factors, reverse=True))
            acc[key] = acc.get(key, 0) + sign
            return
        for j in range(m):
            if used >> j & 1:
                continue
            e = rows[i] + j - i
            if e < 0:
                continue
            if e > k:
                break  # entries grow with j, the rest of the row vanishes
            flips = (used >> (j + 1)).bit_count()
            nxt = factors + [e] if e else factors
            expand(i + 1, used | (1 << j), -sign if flips & 1 else sign, nxt)

    expand(0, 0, 1, [])
    return sorted(((c, rows_key) for rows_key, c in acc.items() if c != 0),
                  key=lambda item: item[1], reverse=True)


def _product_via_giambelli(ctx, expand_rank, other_rank):
    """Basis product, expanding the first factor; returns a rank dict."""
    out = {}
    for coeff, rows in giambelli_expand(ctx.basis[expand_rank], ctx.k):
        cur = basis_class(ctx, ctx.basis[other_rank])
        for r in rows:
            cur = quantum_pieri_product(r, cur)
        for rank, c in cur.terms.items():
            out[rank] = out.get(rank, 0) + coeff * c
    return {rank: c for rank, c in out.items() if c != 0}


def _basis_product(ctx, ra, rb):
    """Structure constants of basis[ra] * basis[rb], memoized."""
    cache = _cache(ctx)["prod"]
    key = (ra, rb) if ra <= rb else (rb, ra)
    hit = cache.get(key)
    if hit is not None:
        return hit
    la, lb = ctx.basis[key[0]], ctx.basis[key[1]]
    if nonzero_rows(la) <= nonzero_rows(lb):
        terms = _product_via_giambelli(ctx, key[0], key[1])
    else:
        terms = _product_via_giambelli(ctx, key[1], key[0])
    items = tuple(sorted(terms.items()))
    cache[key] = items
    return items


def quantum_product(a, b, table=None):
    """The quantum product at q = 1, extended bilinearly.

    Commutative and associative with the empty diagram as unit; every
    output term has degree congruent to deg a + deg b mod n and at most
    deg a + deg b, and the degree-preserving part is the cup product.
    """
    _same_ctx(a, b)
    ctx = a.ctx
    if table is not None and table.ctx != ctx:
        raise ValueError(f"table context {table.ctx} does not match {ctx}")
    lookup = table.product_ranks if table is not None else \
        lambda ra, rb: _basis_product(ctx, ra, rb)
    out = {}
    for ra, ca in a.terms.items():
        for rb, cb in b.terms.items():
            w = ca * cb
            for rank, c in lookup(ra, rb):
                out[rank] = out.get(rank, 0) + w * c
    return CohomClass(ctx, out)


def gw_invariant(a, b, c, table=None):
    """Three-point invariant of classes: pairing of a * b with c."""
    return pairing(quantum_product(a, b, table=table), c)


@dataclass(frozen=True)
class GWRecord:
    """A three-point invariant of basis diagrams with its curve degree.

    degree_d is None when deg a + deg b + deg c - kl is not a
    non-negative multiple of n, which forces the value to 0.
    """
    a: tuple
    b: tuple
    c: tuple
    value: int
    degree_d: Optional[int]


def gw_record(ctx, a, b, c, table=None):
    a, b, c = ctx.validate(a), ctx.validate(b), ctx.validate(c)
    excess = degree(a) + degree(b) + degree(c) - ctx.top_degree
    if excess < 0 or excess % ctx.n:
        return GWRecord(a, b, c, 0, None)
    value = gw_invariant(basis_class(ctx, a), basis_class(ctx, b),
                         basis_class(ctx, c), table=table)
    return GWRecord(a, b, c, value, excess // ctx.n)


def c_apply(a, j):
    """Linear extension of the cyclic shift to classes.

    Equality with quantum multiplication by the j-th power of the
    full-column class is a verified property of the ring, not an
    assumption of this function.
    """
    return relabel(a, lambda lam: c_shift(lam, j, a.ctx.k, a.ctx.n))


class StructureTable:
    """All pairwise basis products of one context.

    entries maps an unordered rank pair (ra <= rb) to a tuple of
    (rank, coefficient) pairs sorted by rank.
    """

    def __init__(self, ctx, entries):
        self.ctx = ctx
        self.entries = entries

    def product_ranks(self, ra, rb):
        return self.entries[(ra, rb) if ra <= rb else (rb, ra)]

    def __eq__(self, other):
        return (isinstance(other, StructureTable)
                and self.ctx == other.ctx and self.entries == other.entries)


def build_table(ctx):
    """Compute every pairwise basis product; deterministic content."""
    entries = {}
    n = ctx.n
    for ra in range(ctx.dim):
        da = degree(ctx.basis[ra])
        for rb in range(ra, ctx.dim):
            items = _basis_product(ctx, ra, rb)
            total = da + degree(ctx.basis[rb])
            for rank, c in items:
                d = degree(ctx.basis[rank])
                if c <= 0 or d > total or (total - d) % n:
                    raise ArithmeticError(
                        f"invalid structure constant {c} at {ctx.basis[rank]}"
                        f" in product {ctx.basis[ra]} * {ctx.basis[rb]}")
            entries[(ra, rb)] = items
    return StructureTable(ctx, entries)


def verify_commutativity(ctx):
    """Compute each basis product both ways and compare.

    The two orientations expand different factors through the
    determinant, so they exercise genuinely different code paths.
    """
    failures = []
    checked = 0
    for ra in range(ctx.dim):
        for rb in range(ra, ctx.dim):
            checked += 1
            ab = _product_via_giambelli(ctx, ra, rb)
            ba = _product_via_giambelli(ctx, rb, ra)
            if ab != ba:
                failures.append({"pair": [list(trim(ctx.basis[ra])),
                                          list(trim(ctx.basis[rb]))],
                                 "lhs": terms_json(CohomClass(ctx, ab)),
                                 "rhs": terms_json(CohomClass(ctx, ba))})
    failures.sort(key=lambda f: f["pair"])
    return VerifyReport("commutativity", ctx.k, ctx.n, checked, failures)


def verify_associativity(ctx, samples=1000, seed=DEFAULT_SEED, table=None):
    """(A*B)*C = A*(B*C) on seeded basis triples, exactly over Z."""
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        ra, rb, rc = (rng.randrange(ctx.dim) for _ in range(3))
        a = basis_class(ctx, ctx.basis[ra])
        b = basis_class(ctx, ctx.basis[rb])
        c = basis_class(ctx, ctx.basis[rc])
        lhs = quantum_product(quantum_product(a, b, table=table), c,
                              table=table)
        rhs = quantum_product(a, quantum_product(b, c, table=table),
                              table=table)
        if lhs != rhs:
            failures.append({"triple": [list(trim(ctx.basis[ra])),
                                        list(trim(ctx.basis[rb])),
                                        list(trim(ctx.basis[rc]))],
                             "lhs": terms_json(lhs),
                             "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: f["triple"])
    return VerifyReport("associativity", ctx.k, ctx.n, samples, failures)


def verify_grading(ctx, table=None):
    """Degree law of every basis product, and its classical top part.

    Each term of S_lam * S_mu must have degree congruent to
    deg lam + deg mu mod n and no larger; the sub-sum of terms of full
    degree must equal the cup product computed by tableau counting.
    """
    failures = []
    checked = 0
    for ra in range(ctx.dim):
        a = basis_class(ctx, ctx.basis[ra])
        for rb in range(ra, ctx.dim):
            b = basis_class(ctx, ctx.basis[rb])
            checked += 1
            total = degree(ctx.basis[ra]) + degree(ctx.basis[rb])
            prod = quantum_product(a, b, table=table)
            bad_degree = [rank for rank in prod.terms
                          if degree(ctx.basis[rank]) > total
                          or (total - degree(ctx.basis[rank])) % ctx.n]
            classical = cup_product(a, b)
            top = prod.homogeneous_part(total)
            if bad_degree or top != classical:
                failures.append({"pair": [list(trim(ctx.basis[ra])),
                                          list(trim(ctx.basis[rb]))],
                                 "bad_degree": [list(trim(ctx.basis[r]))
                                                for r in sorted(bad_degree)],
                                 "top": terms_json(top),
                                 "cup": terms_json(classical)})
    failures.sort(key=lambda f: f["pair"])
    return VerifyReport("grading", ctx.k, ctx.n, checked, failures)


def verify_pieri_consistency(ctx):
    """Degree-preserving part of each row product vs strip enumeration."""
    failures = []
    checked = 0
    for lam in ctx.basis:
        a = basis_class(ctx, lam)
        for r in range(1, ctx.k + 1):
            checked += 1
            quantum = quantum_pieri_product(r, a)
            top = quantum.homogeneous_part(degree(lam) + r)
            strips = classical_pieri(lam, r, ctx)
            if top != strips:
                failures.append({"lam": list(trim(lam)), "r": r,
                                 "quantum_top": terms_json(top),
                                 "strips": terms_json(strips)})
    failures.sort(key=lambda f: (f["lam"], f["r"]))
    return VerifyReport("pieri_consistency", ctx.k, ctx.n, checked, failures)


def verify_giambelli(ctx):
    """Evaluate each diagram's determinant expansion against the unit."""
    failures = []
    for lam in ctx.basis:
        acc = CohomClass(ctx, {})
        for coeff, rows in giambelli_expand(lam, ctx.k):
            cur = unit_class(ctx)
            for r in rows:
                cur = quantum_pieri_product(r, cur)
            acc = acc + coeff * cur
        if acc != basis_class(ctx, lam):
            failures.append({"lam": list(trim(lam)),
                             "evaluated": terms_json(acc)})
    failures.sort(key=lambda f: f["lam"])
    return VerifyReport("giambelli", ctx.k, ctx.n, ctx.dim, failures)


def verify_cyclic(ctx, table=None):
    """Shift-by-one vs multiplication by the column class, plus period n."""
    col = column_class(ctx)
    failures = []
    checked = 0
    for lam in ctx.basis:
        a = basis_class(ctx, lam)
        checked += 1
        shifted = c_apply(a, 1)
        multiplied = quantum_product(col, a, table=table)
        if shifted != multiplied:
            failures.append({"lam": list(trim(lam)), "kind": "shift_vs_mult",
                             "shift": terms_json(shifted),
                             "product": terms_json(multiplied)})
        checked += 1
        if c_apply(a, ctx.n) != a:
            failures.append({"lam": list(trim(lam)), "kind": "period"})
    failures.sort(key=lambda f: (f["lam"], f["kind"]))
    return VerifyReport("cyclic", ctx.k, ctx.n, checked, failures)
