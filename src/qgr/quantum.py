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

The rule has two forms.  _pieri_matrix evaluates it as array work
over all pairs of diagrams of the two admissible degrees, one whole
Pieri matrix per row class; _pieri_row evaluates it in Python, one
row at a time, for the consumers that read few rows.

The structure table of all basis products is built by Pieri
inversion (build_table) from the whole matrices: the matrix of
multiplication by a diagram is its first row's Pieri matrix applied
to the matrix of the rest of the diagram, minus matrices of diagrams
met earlier in the basis order.  The table keeps these matrices as
they are built, as integer arrays.

A single product (mul, gw) expands one factor by the Giambelli
determinant in single-row classes (valid verbatim in the quantum ring)
and applies the scalar row rule repeatedly.  The same expansion, run
once per diagram over each block of columns (_giambelli_matrices), is
the independent oracle the table is checked against, so the
commutativity suite holds the array form of the rule against the
scalar one, and checks that the scalar form's Pieri operators commute;
the test suite validates the expansion against the ring axioms rather
than trusting it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .classical import (CohomClass, _lr_rows, _same_ctx, basis_class,
                        classical_pieri, column_class, pairing, rank_map,
                        relabel, terms_json)
from .partitions import c_shift, degree, nonzero_rows, poincare_dual, trim
from .reports import VerifyReport

DEFAULT_SEED = 0xC0FFEE

# per-(k, n) memo of Pieri rows, keyed by (r, rank), and of whole Pieri
# matrices, keyed by ("matrix", r); pure data, so the cache is
# observationally transparent
_RING_CACHE = {}

# bound on int64 intermediates of the batched array paths
_INT64_BOUND = 2 ** 63


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
    cache = _RING_CACHE.setdefault((ctx.k, ctx.n), {})
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


def _pieri_matrix(ctx, r):
    """Every Pieri row of (r) at once, as CSR arrays (ptr, targets).

    The row of rank j, targets[ptr[j]:ptr[j + 1]] (int32, increasing),
    holds the same ranks as _pieri_row(ctx, r, j).  The rule is
    evaluated as array work over all pairs (lam, T) of the two
    admissible degrees, with T unwound from its dual:
        deg T = deg lam + r:      T_i >= lam_i      and T_(i+1) <= lam_i,
        deg T = deg lam + r - n:  T_i <= lam_i - 1  and T_(i-1) >= lam_i - 1.
    The arrays are read-only and memoized per context.
    """
    import numpy as np
    if not 1 <= r <= ctx.k:
        raise ValueError(f"row length {r} outside 1..k={ctx.k}")
    cache = _RING_CACHE.setdefault((ctx.k, ctx.n), {})
    hit = cache.get(("matrix", r))
    if hit is not None:
        return hit
    dim, top = ctx.dim, ctx.top_degree
    parts = np.array(ctx.basis, dtype=np.int32).reshape(dim, ctx.l)
    # the basis is graded: degree d holds the ranks first[d]:first[d + 1]
    first = np.zeros(top + 3, dtype=np.int64)
    np.cumsum([len(ranks) for ranks in ctx.ranks_by_degree],
              out=first[1:top + 2])
    first[top + 2] = dim
    deg = np.repeat(np.arange(top + 1), np.diff(first[:top + 2]))
    keys = []
    for shift in (r - ctx.n, r):
        # degrees off the box read the empty range first[top + 1:]
        target = deg + shift
        target[(target < 0) | (target > top)] = top + 1
        lo = first[target]
        width = first[target + 1] - lo
        lam = np.repeat(np.arange(dim), width)
        t = _flat_ranges(lo, width)
        a, b = parts[lam], parts[t]
        if shift < r:
            ok = (b < a).all(axis=1) & (b[:, :-1] >= a[:, 1:] - 1).all(axis=1)
        else:
            ok = (b >= a).all(axis=1) & (b[:, 1:] <= a[:, :-1]).all(axis=1)
        keys.append(lam[ok] * dim + t[ok])
    key = np.sort(np.concatenate(keys))
    ptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // dim, minlength=dim), out=ptr[1:])
    targets = (key % dim).astype(np.int32)
    ptr.flags.writeable = targets.flags.writeable = False
    hit = cache[("matrix", r)] = (ptr, targets)
    return hit


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
    # entry (i, j) has length rows[i] + j - i, negative before first[i]
    first = [max(0, i - r) for i, r in enumerate(rows)]
    acc = {}
    # depth first over the partial permutations, on a stack: a closure
    # that calls itself is a reference cycle, freed only by the cyclic
    # collector
    stack = [(0, 0, 1, [])]
    while stack:
        i, used, sign, factors = stack.pop()
        if i == m:
            key = tuple(sorted(factors, reverse=True))
            acc[key] = acc.get(key, 0) + sign
            continue
        for j in range(first[i], m):
            if used >> j & 1:
                continue
            e = rows[i] + j - i
            if e > k:
                break  # entries grow with j, the rest of the row vanishes
            flips = (used >> (j + 1)).bit_count()
            nxt = factors + [e] if e else factors
            stack.append((i + 1, used | (1 << j),
                          -sign if flips & 1 else sign, nxt))

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
    """Structure constants of basis[ra] * basis[rb], sorted by rank.

    Expands the factor with fewer rows, the lower rank on a tie.
    """
    if (nonzero_rows(ctx.basis[ra]), ra) > (nonzero_rows(ctx.basis[rb]), rb):
        ra, rb = rb, ra
    return tuple(sorted(_product_via_giambelli(ctx, ra, rb).items()))


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


def _flat_ranges(starts, widths):
    """Concatenated index ranges [s, s + w) for paired starts and widths."""
    import numpy as np
    return np.repeat(starts - np.cumsum(widths) + widths, widths) \
        + np.arange(widths.sum())


class StructureTable:
    """All ordered basis products of one context, as integer arrays.

    The ordered rank pair (r, j) is numbered p = r * dim + j.  The
    product basis[r] * basis[j] has the terms at positions
    ptr[p]:ptr[p + 1], the term coeff[i] * basis[t] stored with
    key[i] = j * dim + t, targets increasing.  So the terms of
    basis[r] times every diagram, its multiplication matrix M_r, are
    the one slice ptr[r * dim]:ptr[r * dim + dim], in key order.  The
    arrays are not to be modified.
    """

    __slots__ = ("ctx", "ptr", "key", "coeff", "_max_coeff")

    def __init__(self, ctx, ptr, key, coeff):
        self.ctx = ctx
        self.ptr = ptr
        self.key = key
        self.coeff = coeff
        self._max_coeff = None    # read on the first call of matrix

    def product_ranks(self, ra, rb):
        """(rank, coefficient) pairs of basis[ra] * basis[rb], by rank."""
        dim = self.ctx.dim
        if not (0 <= ra < dim and 0 <= rb < dim):
            raise IndexError(f"rank pair ({ra}, {rb}) outside the basis "
                             f"of {self.ctx}")
        lo, hi = self.ptr[ra * dim + rb:ra * dim + rb + 2].tolist()
        return tuple(zip((self.key[lo:hi] - rb * dim).tolist(),
                         self.coeff[lo:hi].tolist()))

    def pair_products(self, ra, rb, weight):
        """Terms of weight[i] * basis[ra[i]] * basis[rb[i]] for every i.

        ra, rb and weight are integer arrays of one length.  Returns
        flat int64 arrays (row, target, coeff): the products of pair i
        are the terms coeff * basis[target] at the positions where
        row == i, pairs in order and each pair's targets increasing.
        Raises IndexError for a rank outside the basis, and
        OverflowError where a weighted coefficient could wrap.
        """
        import numpy as np
        dim = self.ctx.dim
        outside = np.flatnonzero((ra < 0) | (ra >= dim) | (rb < 0)
                                 | (rb >= dim))
        if outside.size:
            i = outside[0]
            raise IndexError(f"rank pair ({ra[i]}, {rb[i]}) outside the "
                             f"basis of {self.ctx}")
        p = ra * dim + rb
        lo = self.ptr[p]
        width = self.ptr[p + 1] - lo
        pos = _flat_ranges(lo, width)
        coeff = self.coeff[pos].astype(np.int64)
        weight = np.repeat(weight, width)
        if int(np.abs(weight).max(initial=0)) \
                * int(np.abs(coeff).max(initial=0)) >= _INT64_BOUND:
            raise OverflowError("weighted structure constant exceeds the "
                                "int64 range")
        return (np.repeat(np.arange(len(p)), width),
                (self.key[pos] % dim).astype(np.int64), weight * coeff)

    def matrix(self, vec):
        """Integer matrix of multiplication by a class, given by rank.

        vec is the class's integer coefficient vector, indexed by rank.
        Column j of the dim x dim int64 result holds the coordinates of
        the class times basis[j].  Raises OverflowError unless
        sum |vec| times the largest stored magnitude is below 2**63, the
        bound under which no entry's sum can wrap.  A class of one rank
        r is vec[r] times basis_matrix(r), one slice of the table.
        """
        import numpy as np
        dim = self.ctx.dim
        if self._max_coeff is None:
            # no np.abs: a copy of coeff would raise the peak
            self._max_coeff = max(int(self.coeff.max(initial=0)),
                                  -int(self.coeff.min(initial=0)))
        if sum(map(abs, vec.tolist())) * self._max_coeff >= _INT64_BOUND:
            raise OverflowError("multiplication matrix entries could "
                                "exceed the int64 range")
        ranks = np.flatnonzero(vec)
        if len(ranks) == 1:
            return vec[ranks[0]] * self.basis_matrix(ranks[0])
        ptr, key, coeff = self.ptr[::dim], self.key, self.coeff
        width = ptr[ranks + 1] - ptr[ranks]
        mat = np.zeros(dim * dim, dtype=np.int64)
        if 2 * width.sum() > len(key):
            # most terms are needed: gathering them costs more than
            # taking all, where the terms of zero ranks add 0
            np.add.at(mat, key, np.repeat(vec, np.diff(ptr)) * coeff)
        else:
            pos = _flat_ranges(ptr[ranks], width)
            np.add.at(mat, key[pos], np.repeat(vec[ranks], width) * coeff[pos])
        return mat.reshape(dim, dim).T

    def basis_matrix(self, rank):
        """Integer matrix of multiplication by basis[rank]."""
        return self.basis_columns(rank, 0, self.ctx.dim)

    def basis_columns(self, rank, lo, hi):
        """Columns lo:hi of the integer matrix of basis[rank], dim rows.

        They are the products with basis[lo], ..., basis[hi - 1], the
        one slice ptr[rank * dim + lo]:ptr[rank * dim + hi].
        """
        import numpy as np
        dim = self.ctx.dim
        seg = slice(self.ptr[rank * dim + lo], self.ptr[rank * dim + hi])
        mat = np.zeros((hi - lo) * dim, dtype=np.int64)
        # one term per (column, target)
        mat[self.key[seg] - lo * dim] = self.coeff[seg]
        return mat.reshape(hi - lo, dim).T

    def relabel_mismatches(self, pr, pj, pt):
        """Ordered pairs whose product the relabel (pr, pj, pt) changes.

        pr, pj and pt are rank permutations.  Returns int64 arrays
        (r, j), in rank order, of the pairs where basis[r] * basis[j] is
        not basis[pr[r]] * basis[pj[j]] with each target t read as
        pt[t]: a term has no image, a coefficient differs from its
        image's, or the term counts differ.  Terms are found by
        searchsorted in the image diagram's slice, already in key
        order: one diagram's terms at a time, and no sort.
        """
        import numpy as np
        dim, ptr, key, coeff = self.ctx.dim, self.ptr, self.key, self.coeff
        rows, cols = [], []
        for r in range(dim):
            pairs, img_pairs = r * dim, int(pr[r]) * dim
            seg = slice(ptr[pairs], ptr[pairs + dim])
            img = slice(ptr[img_pairs], ptr[img_pairs + dim])
            j, t = np.divmod(key[seg], dim)
            want = (pj[j] * dim + pt[t]).astype(key.dtype)
            pos = np.searchsorted(key[img], want)
            found = pos < img.stop - img.start
            pos = pos[found] + img.start
            found[found] = (key[pos] == want[found]) \
                & (coeff[pos] == coeff[seg][found])
            bad = np.diff(ptr[pairs:pairs + dim + 1]) \
                != np.diff(ptr[img_pairs:img_pairs + dim + 1])[pj]
            bad[j[~found]] = True
            cols.append(np.flatnonzero(bad))
            rows.append(np.full(len(cols[-1]), r))
        return np.concatenate(rows), np.concatenate(cols)

    def transpose_mismatches(self, pr):
        """Diagrams r whose matrix is not the transpose of that of pr[r].

        pr is a rank permutation.  Returns the int64 ranks r, in rank
        order, where M_(pr[r]) is not M_r^T: each key j * dim + t of M_r
        is read as t * dim + j, and the terms, argsorted by those keys,
        must equal the slice of pr[r] in keys, coefficients and number.
        One diagram's terms at a time: no dim x dim matrix and no global
        sort.
        """
        import numpy as np
        dim, ptr, key, coeff = self.ctx.dim, self.ptr, self.key, self.coeff
        bad = []
        for r in range(dim):
            seg = slice(ptr[r * dim], ptr[r * dim + dim])
            img = slice(ptr[pr[r] * dim], ptr[pr[r] * dim + dim])
            j, t = np.divmod(key[seg], dim)
            flipped = t * dim + j
            order = np.argsort(flipped)
            if not (np.array_equal(flipped[order], key[img])
                    and np.array_equal(coeff[seg][order], coeff[img])):
                bad.append(r)
        return np.array(bad, dtype=np.int64)

    def __eq__(self, other):
        import numpy as np
        return (isinstance(other, StructureTable) and self.ctx == other.ctx
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("ptr", "key", "coeff")))


# largest magnitude a stored structure constant may reach
_COEFF_BOUND = 2 ** 31


def _shift_powers(shift, n):
    """Powers shift^0 .. shift^(n-1) of a permutation, as rows of an array.

    Returns None unless shift^n is the identity, as it is for the
    cyclic action, whose period divides n.
    """
    import numpy as np
    powers = np.empty((n, len(shift)), dtype=np.intp)
    powers[0] = np.arange(len(shift))
    for s in range(1, n):
        powers[s] = shift[powers[s - 1]]
    return powers if np.array_equal(shift[powers[-1]], powers[0]) else None


def build_table(ctx):
    """Compute every pairwise basis product by Pieri inversion.

    Walks the basis in its graded order and writes M_lam for the matrix
    of multiplication by lam.  With lam' = lam without its first row,

        M_lam = P_{lam_1} M_lam' - sum of M_nu,

    nu running over the diagrams other than lam obtained from lam' by a
    horizontal lam_1-strip, and P_r the quantum Pieri matrix of the row
    class (r) (_pieri_matrix).  The strips are the targets of degree
    deg lam in the Pieri row of lam': the degree-preserving part of a
    quantum Pieri product is the classical one, which
    verify_pieri_consistency checks against classical_pieri.  This is
    the Pieri rule
    h_r s_lam' = sum of s_nu over all such strips, pushed through the
    Giambelli homomorphism.  Every term on the right is known when lam
    is reached:
      - lam' has lower degree, so it comes earlier;
      - a strip adds at most one row to lam' (at most l - 1 rows), so
        every nu fits in l rows;
      - a nu with nu_1 > k maps to zero, because the first row of its
        determinant holds only rows longer than k; the degree-preserving
        part of the Pieri row of lam' stays in the box and leaves these
        out;
      - every other nu has the degree of lam and nu_i <= lam_i for
        i >= 2 (interlacing), so nu_1 > lam_1: lex-larger, hence
        earlier in the order.
    A Pieri matrix that breaks this and names a diagram not before lam
    raises ArithmeticError.  The unit's matrix is the identity.  Each
    M_lam is kept sparse, as flat indices j * dim + t (column j, target
    t) with their values, and summed in a dense integer scratch vector
    of dim^2 entries, whose nonzero entries are found in index order by
    a scan of the boolean mask acc != 0.  Each inverted diagram so
    costs its Pieri terms plus two passes over dim^2 entries.

    Most diagrams are not inverted.  Multiplication by the column class
    (1^l) permutes the basis at q = 1 (the cyclic action), so with c
    that permutation, read off the table's own M_(1^l),

        sigma_{c^s m} sigma_j = sigma_m sigma_{c^s j}:

    column j of M_{c^s m} is column c^s j of M_m, targets unchanged.
    Past (1^l), only the first diagram m of each orbit of c in basis
    order is inverted, and every later one, r = c^s m, is a copy of
    it.  If M_(1^l) is not a permutation with all coefficients 1, or
    its n-th power is not the identity, nothing is copied and every
    diagram is inverted.

    Every stored constant is checked: positive, of degree at most the
    pair's total and congruent to it mod n; anything else raises
    ArithmeticError naming the first bad term in key order.  An
    inverted diagram is checked term by term.  A copy is checked per
    column, in O(dim): its values are its source's, already found
    positive, and each term of column j has the gap (pair's degree
    minus the target's) of its source term in column perm[j] = c^s j of
    M_m, plus

        delta(j) = deg r - deg m + deg j - deg perm[j].

    As the source gaps are nonnegative multiples of n, a nonempty
    column passes every term check exactly when delta(j) is a multiple
    of n and delta(j) plus the smallest gap of the source column is
    nonnegative.  A copy that fails is gathered and checked term by
    term, which names the first bad term.  Each orbit first with later
    orbit-mates keeps its column starts and smallest gaps, computed
    when its first mate is reached.

    A copy keeps only its per-column term counts until a final fill:
    it is gathered when an inversion reads it, and kept for the fill,
    and otherwise gathered straight into its slice of the table's
    arrays, which are allocated once, at their final size.  The dense
    scratch is freed before the fill, so at its peak the build holds
    the table, the inverted and read matrices and one dim-long array of
    counts per diagram: one copy of the table's terms where most are
    copied, not two.
    """
    import numpy as np

    dim, n = ctx.dim, ctx.n
    deg = np.array([degree(lam) for lam in ctx.basis])
    pieri = {r: _pieri_matrix(ctx, r) for r in range(1, ctx.k + 1)}
    key_type = np.int32 if dim * dim <= 2 ** 31 else np.int64
    column = ctx.rank((1,) * ctx.l)
    cols = np.arange(dim)

    def check(ra, key, val):
        """(column, target) of each term of M_ra, once every term passes."""
        col, t = np.divmod(key, dim)
        gap = deg[ra] + deg[col] - deg[t]
        bad = np.flatnonzero((val <= 0) | (gap < 0) | (gap % n != 0))
        if bad.size:
            i = bad[0]
            raise ArithmeticError(
                f"invalid structure constant {val[i]} at {ctx.basis[t[i]]}"
                f" in product {ctx.basis[ra]} * {ctx.basis[col[i]]}")
        return col, t

    # stored magnitudes stay below _COEFF_BOUND, so int32 holds them and
    # each step's sums, at most 2 * dim of them, stay exact in int64;
    # acc is the dense scratch of one step, all zero between steps
    acc = np.zeros(dim * dim, dtype=np.int64)
    # (key, val) of every inverted diagram and of every copy read by an
    # inversion; None for the other copies until the fill
    mats = [None] * dim
    counts = []
    # once M_(1^l) is built: each diagram's orbit's first rank, and the
    # power s of c that takes that rank to the diagram
    first = power = powers = None
    # per orbit first with a later orbit-mate, filled when one is reached
    sources = {}

    def source(m):
        """(column starts, smallest gap of each column) of M_m."""
        if m not in sources:
            key, _ = mats[m]
            width = counts[m]
            start = np.cumsum(width) - width
            col, t = np.divmod(key, dim)
            low = np.zeros(dim, dtype=np.int64)
            full = width > 0
            low[full] = np.minimum.reduceat(deg[m] + deg[col] - deg[t],
                                            start[full])
            sources[m] = start, low
        return sources[m]

    def copy(r):
        """(key, val) of the copy M_r, gathered from its orbit first."""
        m, perm = first[r], powers[power[r]]
        width = counts[r]
        pos = _flat_ranges(source(m)[0][perm], width)
        key = mats[m][0][pos] - np.repeat((perm - cols) * dim, width)
        return key.astype(key_type), mats[m][1][pos]

    def read(ra, rank):
        """M_rank, as the inversion of basis[ra] reads it."""
        if rank >= ra:
            raise ArithmeticError(
                f"Pieri inversion of {ctx.basis[ra]} reads "
                f"{ctx.basis[rank]}, which does not come before it")
        if mats[rank] is None:
            mats[rank] = copy(rank)
        return mats[rank]

    for ra in range(dim):
        lam = ctx.basis[ra]
        if first is not None and first[ra] != ra:
            m = first[ra]
            perm = powers[power[ra]]
            counts.append(counts[m][perm])
            delta = deg[ra] - deg[m] + deg - deg[perm]
            if not ((counts[ra] == 0) | ((delta % n == 0)
                    & (source(m)[1][perm] + delta >= 0))).all():
                # some term fails: the term check names the first
                check(ra, *copy(ra))
            continue
        if not ra:
            key, val = cols * (dim + 1), np.ones(dim, np.int64)
        else:
            rest = ctx.rank(lam[1:] + (0,))
            key, val = read(ra, rest)
            col, t = np.divmod(key.astype(np.int64), dim)
            ptr, tgt = pieri[lam[0]]
            width = ptr[t + 1] - ptr[t]
            image = tgt[_flat_ranges(ptr[t], width)]
            # int64 indices and values keep np.add.at on its fast path
            np.add.at(acc, np.repeat(col, width) * dim + image,
                      np.repeat(val.astype(np.int64), width))
            # the strips nu are the targets of lam's degree in the Pieri
            # row of lam'
            row = tgt[ptr[rest]:ptr[rest + 1]]
            for nu in row[deg[row] == deg[ra]].tolist():
                if nu != ra:
                    nu_key, nu_val = read(ra, nu)
                    np.subtract.at(acc, nu_key, nu_val.astype(np.int64))
            # numpy vectorizes nonzero over bool but not over int64
            key = np.flatnonzero(acc != 0)
            val = acc[key]
            acc[key] = 0
            if np.abs(val).max(initial=0) >= _COEFF_BOUND:
                raise OverflowError(f"structure constant of {lam} exceeds "
                                    "the safe integer bound")
        col, t = check(ra, key, val)
        counts.append(np.bincount(col, minlength=dim))
        mats[ra] = (key.astype(key_type), val.astype(np.int32))
        # (1^l) is the last diagram only at k = 1, with nothing after it
        # to derive
        if ra == column and column < dim - 1 \
                and (counts[-1] == 1).all() and (val == 1).all():
            # one term per column: t[j] is the target of column j
            shift = t.astype(np.intp)
            if (np.bincount(shift, minlength=dim) == 1).all():
                powers = _shift_powers(shift, n)
            if powers is not None:
                first = powers.min(axis=0)
                power = (powers[:, first] == cols).argmax(axis=0)
    del acc

    ptr = np.zeros(dim * dim + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=ptr[1:])
    key = np.empty(ptr[-1], dtype=key_type)
    coeff = np.empty(ptr[-1], dtype=np.int32)
    for ra in range(dim):
        span = slice(ptr[ra * dim], ptr[ra * dim + dim])
        key[span], coeff[span] = mats[ra] or copy(ra)
    return StructureTable(ctx, ptr, key, coeff)


def _pieri_apply(ctx):
    """The map (r, X, peak) -> P_r @ X on int64 matrices of dim rows.

    Column j of P_r is quantum_pieri_product(r, basis[j]); row t of
    P_r @ X is the sum of the rows j of X whose Pieri row holds t, so
    the integer sums are those of quantum_pieri_product.  Each column
    of X is mapped on its own, so X may be any block of columns.  peak
    is the largest magnitude in X, which the caller already holds;
    raises OverflowError where a result could wrap around.
    """
    import numpy as np
    dim = ctx.dim
    ops = {}
    for r in range(1, ctx.k + 1):
        rows = [_pieri_row(ctx, r, j) for j in range(dim)]
        src = np.repeat(np.arange(dim), [len(row) for row in rows])
        tgt = np.array([t for row in rows for t in row], dtype=np.int64)
        order = np.argsort(tgt, kind="stable")
        src, tgt = src[order], tgt[order]
        starts = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
        fan_in = int(np.diff(np.r_[starts, len(tgt)]).max())
        ops[r] = (src, tgt[starts], starts, fan_in)

    def apply(r, x, peak):
        src, hit, starts, fan_in = ops[r]
        if fan_in * peak >= _INT64_BOUND:
            raise OverflowError("Pieri product exceeds the int64 range")
        out = np.zeros_like(x)
        out[hit] = np.add.reduceat(x[src], starts, axis=0)
        return out

    return apply


# columns of the identity passed through the Giambelli prefix trie at
# once; L live prefixes then hold at most L * dim * 64 * 8 bytes.  At
# G(6,12), building the table and running the suite peaked at 244 MB in
# 31.6 s with 64 columns and at 374 MB in 49.7 s with 256 (one run
# each); at G(4,9) the suite takes about as long as with whole columns
_GIAMBELLI_BLOCK = 64


def _giambelli_matrices(ctx, apply):
    """Yield (lo, rank, G, live) for every block and diagram.

    G is the block of columns lo:lo + w of the diagram's Giambelli
    matrix, whose column j is _product_via_giambelli(ctx, rank, j): the
    determinant expanded once for all the block's columns.  The blocks
    are the columns of the identity in runs of w = _GIAMBELLI_BLOCK, the
    last one shorter where w does not divide dim, and within a block
    the diagrams come in basis order.  live is the number of prefix
    matrices held once G is summed.

    The matrix P_{r_m} ... P_{r_1} of each row monomial is memoized and
    built from its prefix's, rows applied first row first as in
    _product_via_giambelli, so no step assumes that the Pieri matrices
    commute.  A first pass replays the memo lookups on the row tuples
    alone and records the last rank that reads each prefix, as its own
    monomial or as the prefix a missing one is built from; each block's
    matrix pass drops each prefix once that rank's G is summed.  Every
    lookup then finds what it would find with nothing dropped, so each
    block makes the same dim - 1 Pieri applies in the same order, and
    only the prefixes still to be read stay alive: L of them hold at
    most L * dim * w * 8 bytes.  apply is the oracle's Pieri operators,
    _pieri_apply(ctx); the expansions and the replay are computed once
    for all blocks.
    """
    import numpy as np
    expansions = [giambelli_expand(lam, ctx.k) for lam in ctx.basis]
    # each missing prefix is built from the longest memoized one, which
    # the replay finds among the prefixes it has seen
    last = {(): 0}
    for rank, expansion in enumerate(expansions):
        for _, rows in expansion:
            short = len(rows)
            while rows[:short] not in last:
                short -= 1
            for end in range(short, len(rows) + 1):
                last[rows[:end]] = rank
    expired = [[] for _ in expansions]
    for prefix, rank in last.items():
        expired[rank].append(prefix)

    # not recursive: a closure that calls itself is a reference cycle,
    # which would keep a block's memo alive until the cyclic collector
    # runs
    def monomial(memo, rows):
        short = len(rows)
        while rows[:short] not in memo:
            short -= 1
        for end in range(short + 1, len(rows) + 1):
            mat = apply(rows[end - 1], *memo[rows[:end - 1]])
            memo[rows[:end]] = (mat, int(np.abs(mat).max()))
        return memo[rows]

    def expand(memo, width, lam, expansion):
        terms = [(coeff, monomial(memo, rows)) for coeff, rows in expansion]
        if sum(abs(c) * peak for c, (_, peak) in terms) >= _INT64_BOUND:
            raise OverflowError(f"Giambelli matrix of {lam} exceeds the "
                                "int64 range")
        g = np.zeros((ctx.dim, width), dtype=np.int64)
        for coeff, (mat, _) in terms:
            if coeff == 1:
                g += mat
            elif coeff == -1:
                g -= mat
            else:
                g += coeff * mat
        return g

    for lo in range(0, ctx.dim, _GIAMBELLI_BLOCK):
        width = min(_GIAMBELLI_BLOCK, ctx.dim - lo)
        memo = {(): (np.eye(ctx.dim, width, -lo, dtype=np.int64), 1)}
        for rank, (lam, expansion) in enumerate(zip(ctx.basis, expansions)):
            # the helper's frame holds the terms, so they are gone on
            # return
            g = expand(memo, width, lam, expansion)
            live = len(memo)
            for prefix in expired[rank]:
                del memo[prefix]
            yield lo, rank, g, live


def _pieri_commutators(ctx, apply):
    """Failure records of the row pairs r < s where P_r P_s != P_s P_r.

    P_r are the oracle's own Pieri operators, apply = _pieri_apply(ctx),
    applied to the columns of the identity in blocks of
    _GIAMBELLI_BLOCK.  A record names the row classes (r) and (s), the
    first column basis[j] where the two orders differ, and both images
    of it: lhs is P_r P_s basis[j] and rhs is P_s P_r basis[j].  Returns
    (the pairs compared in at least one block, records).
    """
    import numpy as np
    dim, rows = ctx.dim, range(1, ctx.k + 1)
    pairs = [(r, s) for r in rows for s in rows if r < s]
    if not pairs:
        return 0, []
    compared, first = set(), {}
    for lo in range(0, dim, _GIAMBELLI_BLOCK):
        eye = np.eye(dim, min(_GIAMBELLI_BLOCK, dim - lo), -lo,
                     dtype=np.int64)
        once = {r: apply(r, eye, 1) for r in rows}
        peak = {r: int(np.abs(x).max(initial=0)) for r, x in once.items()}
        for r, s in pairs:
            if (r, s) in first:
                continue
            rs = apply(r, once[s], peak[s])
            sr = apply(s, once[r], peak[r])
            compared.add((r, s))
            diff = np.flatnonzero((rs != sr).any(axis=0))
            if diff.size:
                j = int(diff[0])
                first[r, s] = (lo + j, rs[:, j], sr[:, j])

    def terms(col):
        return terms_json(CohomClass(ctx, dict(enumerate(col.tolist()))))

    return len(compared), [{"rows": [[r], [s]],
                            "column": list(trim(ctx.basis[j])),
                            "lhs": terms(rs), "rhs": terms(sr)}
                           for (r, s), (j, rs, sr) in sorted(first.items())]


def verify_commutativity(ctx, table):
    """Compute each basis product both ways and compare.

    The two orientations expand different factors through the
    determinant, so they exercise genuinely different code paths.  Each
    diagram's expansion runs once per block of columns
    (_giambelli_matrices), and each block must equal the same columns
    of the diagram's multiplication matrix in the table.  The table
    stores both orders of every pair, and each order is held to the
    expansion of its first factor.  Only pairs that disagree are
    recomputed per pair, to write their failure records: one for two
    orientations that differ, one for each order whose stored product
    differs from its expansion.

    A table that passes has every M_lam equal to G_lam(P), the Giambelli
    polynomial of lam in the oracle's Pieri operators P_r.  The suite
    also checks that the P_r commute, P_r P_s = P_s P_r for every r < s
    (_pieri_commutators), with one record, after the pair records, for
    each pair of rows that does not.  With G_lam e_0 = e_lam, the unit's
    column (verify_giambelli), this makes the table multiplicative,
    M_(C D) = M_C M_D for all classes, which verify_positivity builds
    on.  The report's stats give the blocks, the most prefix matrices
    held at once and the pairs of rows whose commutator was compared.
    """
    import numpy as np
    apply = _pieri_apply(ctx)
    suspects = set()
    peak = 0
    for lo, ra, g, live in _giambelli_matrices(ctx, apply):
        hi = lo + g.shape[1]
        diff = (g != table.basis_columns(ra, lo, hi)).any(axis=0)
        suspects.update((min(ra, rb), max(ra, rb))
                        for rb in (lo + np.flatnonzero(diff)).tolist())
        peak = max(peak, live)

    def names(*ranks):
        return [list(trim(ctx.basis[r])) for r in ranks]

    failures = []
    for ra, rb in sorted(suspects):
        ab = _product_via_giambelli(ctx, ra, rb)
        ba = _product_via_giambelli(ctx, rb, ra)
        if ab != ba:
            failures.append({"pair": names(ra, rb),
                             "lhs": terms_json(CohomClass(ctx, ab)),
                             "rhs": terms_json(CohomClass(ctx, ba))})
        for (x, y), expanded in {(ra, rb): ab, (rb, ra): ba}.items():
            stored = dict(table.product_ranks(x, y))
            if stored != expanded:
                failures.append({"pair": names(x, y),
                                 "table": terms_json(CohomClass(ctx, stored)),
                                 "giambelli": terms_json(
                                     CohomClass(ctx, expanded))})
    failures.sort(key=lambda f: f["pair"])
    commutators, records = _pieri_commutators(ctx, apply)
    failures += records
    width = min(_GIAMBELLI_BLOCK, ctx.dim)
    blocks = -(-ctx.dim // width)
    held = peak * ctx.dim * width * 8 / 2 ** 20
    stats = [f"commutativity blocks {blocks} x {width} columns, peak "
             f"{peak} live prefixes ({held:.1f} MB)",
             f"commutativity Pieri commutators {commutators}"]
    return VerifyReport("commutativity", ctx.k, ctx.n,
                        ctx.dim * (ctx.dim + 1) // 2, failures, stats=stats)


def _seeded_triples(ctx, samples, seed):
    """samples x 3 int64 array of basis ranks, drawn in seeded order."""
    import numpy as np
    rng = random.Random(seed)
    return np.array([[rng.randrange(ctx.dim) for _ in range(3)]
                     for _ in range(samples)], dtype=np.int64).reshape(-1, 3)


# seeded triples run through the table at once; each chunk sums both
# sides into one _TRIPLE_CHUNK x dim int64 array, 8 * 250 * dim bytes
_TRIPLE_CHUNK = 250


def verify_associativity(ctx, table, samples=1000, seed=DEFAULT_SEED):
    """(A*B)*C = (B*C)*A on seeded basis triples, exactly over Z.

    With commutativity, checked on its own, this is associativity.
    The triples run in chunks of _TRIPLE_CHUNK on the table's arrays:
    each side is two rounds of StructureTable.pair_products, and the
    left side is added and the right side subtracted, per triple, into
    one dense chunk x dim integer array, which is nonzero exactly in
    the rows of triples whose sides differ.  Those triples are
    recomputed as classes, to write their failure records: lhs is
    (A*B)*C and rhs is (B*C)*A, each product in the order compared.
    """
    import numpy as np
    triples = _seeded_triples(ctx, samples, seed)
    dim = ctx.dim

    def side(x, y, z):
        """Flat chunk x dim positions and values of (x * y) * z."""
        ones = np.ones(len(x), dtype=np.int64)
        row, t, c = table.pair_products(x, y, ones)
        row2, t2, c2 = table.pair_products(t, z[row], c)
        # both sides share one accumulator, so each gets half the range
        if int(np.abs(c2).max(initial=0)) * len(c2) >= _INT64_BOUND // 2:
            raise OverflowError("triple product exceeds the int64 range")
        return row[row2] * dim + t2, c2

    bad = np.zeros(samples, dtype=bool)
    for lo in range(0, samples, _TRIPLE_CHUNK):
        ra, rb, rc = triples[lo:lo + _TRIPLE_CHUNK].T
        (lpos, lval), (rpos, rval) = side(ra, rb, rc), side(rb, rc, ra)
        acc = np.zeros(len(ra) * dim, dtype=np.int64)
        np.add.at(acc, np.concatenate([lpos, rpos]),
                  np.concatenate([lval, -rval]))
        bad[lo:lo + len(ra)] = acc.reshape(len(ra), dim).any(axis=1)
    failures = []
    for triple in triples[bad].tolist():
        a, b, c = (basis_class(ctx, ctx.basis[r]) for r in triple)
        lhs = quantum_product(quantum_product(a, b, table=table), c,
                              table=table)
        rhs = quantum_product(quantum_product(b, c, table=table), a,
                              table=table)
        failures.append({"triple": [list(trim(ctx.basis[r]))
                                    for r in triple],
                         "lhs": terms_json(lhs),
                         "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: f["triple"])
    return VerifyReport("associativity", ctx.k, ctx.n, samples, failures)


def verify_grading(ctx, table):
    """Degree law of every basis product, and its classical top part.

    Each term of S_lam * S_mu must have degree congruent to
    deg lam + deg mu mod n and no larger; the sub-sum of terms of full
    degree must equal the cup product computed by tableau counting.
    Runs one diagram lam at a time over the columns mu >= lam of its
    multiplication matrix M_lam: a nonzero entry fails where the degree
    gap deg lam + deg mu - deg t is negative or off a multiple of n, and
    the entries of gap 0 must equal the cup matrix of lam, read off the
    batched Littlewood-Richardson rows (classical._lr_rows), each read
    once and kept by nothing.  Pairs that fail are recomputed as
    classes, to write their failure records; the cup product in a
    record is lam's row for mu.
    """
    import numpy as np
    deg = np.array([degree(lam) for lam in ctx.basis])
    failures = []
    for ra in range(ctx.dim):
        mat = table.basis_matrix(ra)[:, ra:]
        gap = deg[ra] + deg[None, ra:] - deg[:, None]
        cup = np.zeros_like(mat)
        rows = _lr_rows(ctx, ra)
        for rb, items in rows.items():
            for t, c in items:
                cup[t, rb - ra] = c
        bad = ((mat != 0) & ((gap < 0) | (gap % ctx.n != 0))) \
            | (np.where(gap == 0, mat, 0) != cup)
        for rb in (ra + np.flatnonzero(bad.any(axis=0))).tolist():
            a = basis_class(ctx, ctx.basis[ra])
            b = basis_class(ctx, ctx.basis[rb])
            total = degree(ctx.basis[ra]) + degree(ctx.basis[rb])
            prod = quantum_product(a, b, table=table)
            bad_degree = [rank for rank in prod.terms
                          if degree(ctx.basis[rank]) > total
                          or (total - degree(ctx.basis[rank])) % ctx.n]
            failures.append({"pair": [list(trim(ctx.basis[ra])),
                                      list(trim(ctx.basis[rb]))],
                             "bad_degree": [list(trim(ctx.basis[r]))
                                            for r in sorted(bad_degree)],
                             "top": terms_json(prod.homogeneous_part(total)),
                             "cup": terms_json(CohomClass(
                                 ctx, dict(rows.get(rb, ()))))})
    failures.sort(key=lambda f: f["pair"])
    return VerifyReport("grading", ctx.k, ctx.n,
                        ctx.dim * (ctx.dim + 1) // 2, failures)


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
    for rank, lam in enumerate(ctx.basis):
        evaluated = _product_via_giambelli(ctx, rank, 0)    # rank 0: unit
        if evaluated != {rank: 1}:
            failures.append({"lam": list(trim(lam)), "evaluated": terms_json(
                CohomClass(ctx, evaluated))})
    failures.sort(key=lambda f: f["lam"])
    return VerifyReport("giambelli", ctx.k, ctx.n, ctx.dim, failures)


def verify_cyclic(ctx, table):
    """Shift-by-one vs multiplication by the column class, plus period n.

    The period is the shift by one applied n times, as its rank
    permutation composed n times.
    """
    import numpy as np
    col = column_class(ctx)
    step = rank_map(ctx, lambda lam: c_shift(lam, 1, ctx.k, ctx.n))
    power = np.arange(ctx.dim)
    for _ in range(ctx.n):
        power = step[power]
    failures = []
    checked = 0
    for rank, lam in enumerate(ctx.basis):
        a = basis_class(ctx, lam)
        checked += 1
        shifted = c_apply(a, 1)
        multiplied = quantum_product(col, a, table=table)
        if shifted != multiplied:
            failures.append({"lam": list(trim(lam)), "kind": "shift_vs_mult",
                             "shift": terms_json(shifted),
                             "product": terms_json(multiplied)})
        checked += 1
        if power[rank] != rank:
            failures.append({"lam": list(trim(lam)), "kind": "period"})
    failures.sort(key=lambda f: (f["lam"], f["kind"]))
    return VerifyReport("cyclic", ctx.k, ctx.n, checked, failures)
