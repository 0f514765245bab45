"""Classical cohomology of G(k, n) over the integers.

Cohomology classes are finitely supported integer combinations of
basis diagrams, stored sparsely by rank.  The cup product is computed
from Littlewood-Richardson coefficients by direct tableau counting, one
enumeration per skew shape for all contents at once, and truncated to
the box; this is the independent classical oracle against which the
degree-preserving part of the quantum product is checked.
"""

from __future__ import annotations

from .partitions import degree, poincare_dual, trim


class CohomClass:
    """Sparse integer combination of basis diagrams of one context.

    terms maps basis rank to a nonzero integer coefficient; the zero
    class has an empty map.  Instances are treated as immutable.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            dim = ctx.dim
            for r, c in terms.items():
                if c == 0:
                    continue
                if not 0 <= r < dim:
                    raise ValueError(f"rank {r} outside the basis of {ctx}")
                self.terms[r] = c

    def sorted_terms(self):
        """(rank, coefficient) pairs in basis order."""
        return sorted(self.terms.items())

    def coefficient(self, lam):
        """Coefficient of a diagram (given as a partition tuple)."""
        return self.terms.get(self.ctx.rank(lam), 0)

    def homogeneous_part(self, d):
        """Sub-sum of terms of degree d."""
        basis = self.ctx.basis
        return CohomClass(self.ctx, {r: c for r, c in self.terms.items()
                                     if degree(basis[r]) == d})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.ctx == other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, tuple(self.sorted_terms())))

    def __add__(self, other):
        _same_ctx(self, other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, 0) + c
        return CohomClass(self.ctx, out)

    def __sub__(self, other):
        _same_ctx(self, other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, 0) - c
        return CohomClass(self.ctx, out)

    def __neg__(self):
        return CohomClass(self.ctx, {r: -c for r, c in self.terms.items()})

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return CohomClass(self.ctx, {r: scalar * c
                                     for r, c in self.terms.items()})

    __mul__ = __rmul__

    def __repr__(self):
        """Terms in basis order, e.g. "(2) - 3*(1,1)" or "-(1)"; 0 is "0"."""
        text = ""
        for r, c in self.sorted_terms():
            lam = trim(self.ctx.basis[r])
            name = "(" + ",".join(map(str, lam)) + ")" if lam else "1"
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if text:
                text += (" + " if c > 0 else " - ") + term
            else:
                text = term if c > 0 else "-" + term
        return text or "0"


def _same_ctx(a, b):
    if a.ctx != b.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {b.ctx}")


def relabel(a, image):
    """Move every term of a onto the basis diagram image(diagram).

    image maps a fixed-length diagram of a's context to another one;
    coefficients are carried over unchanged and summed where two terms
    land on the same diagram, so the result is Z-linear in a.
    """
    ctx = a.ctx
    out = {}
    for rank, c in a.terms.items():
        t = ctx.rank(image(ctx.basis[rank]))
        out[t] = out.get(t, 0) + c
    return CohomClass(ctx, out)


def rank_map(ctx, image):
    """A diagram map as a rank array: basis[r] goes to basis[out[r]].

    image maps a fixed-length diagram of ctx to another one, as for
    relabel.  The result is a numpy integer array, for moving the rows
    and columns of vectors and matrices indexed by rank.
    """
    import numpy as np
    return np.array([ctx.rank(image(lam)) for lam in ctx.basis],
                    dtype=np.intp)


def terms_json(a):
    """The JSON term list of a class: [{"p": parts, "c": coefficient}].

    Parts are trimmed of trailing zeros; terms come in basis order.
    """
    return [{"p": list(trim(a.ctx.basis[r])), "c": c}
            for r, c in a.sorted_terms()]


def zero_class(ctx):
    return CohomClass(ctx, {})


def unit_class(ctx):
    return CohomClass(ctx, {0: 1})


def basis_class(ctx, lam):
    return CohomClass(ctx, {ctx.rank(lam): 1})


def row_class(ctx, r):
    """The single-row class (r, 0, ..., 0); r = 0 gives the unit."""
    if not 0 <= r <= ctx.k:
        raise ValueError(f"row length {r} outside 0..k={ctx.k}")
    return basis_class(ctx, (r,) + (0,) * (ctx.l - 1))


def column_class(ctx):
    """The full-column class (1, ..., 1)."""
    return basis_class(ctx, (1,) * ctx.l)


def point_class(ctx):
    """The top class (k, ..., k)."""
    return basis_class(ctx, (ctx.k,) * ctx.l)


def class_from_parts(ctx, items):
    """Build a class from (partition, coefficient) pairs."""
    out = {}
    for lam, c in items:
        r = ctx.rank(ctx.validate(lam))
        out[r] = out.get(r, 0) + c
    return CohomClass(ctx, out)


def _contains(nu, lam):
    return all(lam[i] <= nu[i] if i < len(nu) else lam[i] == 0
               for i in range(len(lam)))


def _column_cells(lam, nu):
    """Number of cells of nu/lam if they lie in one column, else None.

    lam must be padded with zeros to the length of nu.
    """
    cells, col = 0, None
    for a, b in zip(lam, nu):
        if a != b:
            if b != a + 1 or col not in (None, a):
                return None
            col = a
            cells += 1
    return cells


def _lr_count(lam, nu, bound=None):
    """Littlewood-Richardson fillings of the skew shape nu/lam, by content.

    Counts column-strict fillings whose reverse reading word (rows
    right-to-left, top to bottom) is a lattice word, and returns a dict
    from content (a trimmed partition) to number of fillings.  With a
    partition bound, value v is used at most bound[v - 1] times, so a
    bound with |nu| - |lam| boxes keeps exactly the fillings of that
    content.  A shape of m cells in one column has one filling, 1 to m
    down the column, of content (1^m); any other shape is enumerated by
    _lr_fillings.
    """
    lam = lam + (0,) * (len(nu) - len(lam))
    m = _column_cells(lam, nu)
    if m is None:
        return _lr_fillings(lam, nu, bound)
    if bound is None or len(bound) >= m and min(bound[:m], default=1) > 0:
        return {(1,) * m: 1}
    return {}


def _lr_fillings(lam, nu, bound=None):
    """_lr_count by enumeration: every filling, cell by cell.

    Cells are filled in reading order so the lattice, row and content
    conditions prune immediately.
    """
    rows = len(nu)
    lam = lam + (0,) * (rows - len(lam))
    # each cell with its right neighbour's column (None at the row's end)
    # and whether the cell above lies in the skew shape
    cells = []
    for i in range(rows):
        for col in range(nu[i] - 1, lam[i] - 1, -1):
            cells.append((i, col, col + 1 if col + 1 < nu[i] else None,
                          i > 0 and lam[i - 1] <= col < nu[i - 1]))
    caps = bound if bound is not None else (len(cells),) * rows
    m = len(caps)
    grid = [[0] * nu[i] for i in range(rows)]
    counts = [0] * (m + 1)
    out = {}
    # depth first over the cells without recursion: the cell at pos
    # holds 0 until a value is placed, and backtracking moves its value
    # up to the next one that passes
    pos = 0
    while pos >= 0:
        if pos == len(cells):
            content = trim(counts[1:])
            out[content] = out.get(content, 0) + 1
            pos -= 1
            continue
        i, col, right, above = cells[pos]
        v = grid[i][col]
        if v:
            counts[v] -= 1
        elif above:
            v = grid[i - 1][col]  # strictly increasing down columns
        # weakly increasing along rows
        hi = m if right is None else min(m, grid[i][right])
        v += 1
        # lattice word prefix condition, and the content bound; the
        # lattice condition keeps counts non-increasing in v, so past the
        # first v > 1 with counts[v - 1] == 0 no value passes
        while v <= hi and (counts[v] >= caps[v - 1]
                           or v > 1 and counts[v] >= counts[v - 1]):
            if v > 1 and not counts[v - 1]:
                v = hi
            v += 1
        if v <= hi:
            counts[v] += 1
            grid[i][col] = v
            pos += 1
        else:
            grid[i][col] = 0
            pos -= 1
    return out


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient of general partitions.

    Counts column-strict skew tableaux of shape nu/lam and content mu
    whose reverse reading word is a lattice word.  Returns 0 when the
    degrees do not add up or the shapes are not nested.
    """
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    for p in (lam, mu, nu):
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)) or any(x < 0 for x in p):
            raise ValueError(f"{p} is not a partition")
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not _contains(nu, lam) or not _contains(nu, mu):
        return 0
    if not mu:
        return 1
    return _lr_count(lam, nu, bound=mu).get(mu, 0)


def _lr_rows(ctx, ra):
    """Cup products of basis[ra] with the diagrams of rank ra and above.

    The products with lower ranks are the rows of those ranks, as the
    cup product is commutative.  Each skew shape nu/lam, lam = basis[ra]
    and nu a diagram of the box with at least twice its degree, has its
    Littlewood-Richardson fillings enumerated once; a filling of content
    mu adds 1 to the coefficient of nu in lam * mu.  Returns a dict from
    the rank of mu to the product's (rank, coefficient) pairs, sorted by
    rank; products that vanish in the box are absent.  Not memoized:
    cup_product keeps the rows it reads for one call, and verify_grading
    reads each row once.
    """
    lam = ctx.basis[ra]
    pad = (0,) * ctx.l
    rows = {}
    # mu of rank >= ra has degree >= deg lam, so deg nu >= 2 deg lam
    low = 2 * degree(lam)
    first = ctx.ranks_by_degree[low][0] if low <= ctx.top_degree else ctx.dim
    for nr in range(first, ctx.dim):
        nu = ctx.basis[nr]
        if all(p >= q for p, q in zip(nu, lam)):
            for mu, c in _lr_count(trim(lam), trim(nu)).items():
                rank = ctx.rank((mu + pad)[:ctx.l])
                if rank >= ra:
                    rows.setdefault(rank, []).append((nr, c))
    return {mu: tuple(items) for mu, items in rows.items()}


def cup_product(a, b):
    """Cup product, truncated to diagrams inside the box.

    Bilinear extension of the Littlewood-Richardson rule; every output
    term has degree equal to the sum of the input degrees.  Each basis
    pair is read off the _lr_rows of its lower rank, enumerated once
    per call and kept for that call only.
    """
    _same_ctx(a, b)
    rows = {}
    out = {}
    for ra, ca in a.terms.items():
        for rb, cb in b.terms.items():
            low = min(ra, rb)
            if low not in rows:
                rows[low] = _lr_rows(a.ctx, low)
            w = ca * cb
            for nr, c in rows[low].get(max(ra, rb), ()):
                out[nr] = out.get(nr, 0) + w * c
    return CohomClass(a.ctx, out)


def classical_pieri(lam, r, ctx):
    """Sum of diagrams obtained by adding a horizontal r-strip in the box.

    Equals the cup product of the single-row class (r) with the class
    of lam; all coefficients are 0 or 1.
    """
    if not 0 <= r <= ctx.k:
        raise ValueError(f"row length {r} outside 0..k={ctx.k}")
    l = ctx.l
    # interlacing nu_1 >= lam_1 >= nu_2 >= lam_2 >= ... keeps the added
    # strip horizontal and nu weakly decreasing: row i takes up to
    # caps[i] boxes, and room[i] is what rows i.. can take together
    caps = [(lam[i - 1] if i else ctx.k) - lam[i] for i in range(l)]
    room = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    out = {}
    if r > room[0]:
        return CohomClass(ctx, out)
    # the strips e (boxes added per row) in lexicographic order, without
    # recursion: fill rows start.. as low as the rows after them allow,
    # then raise the last row that can take a box from the rows after it
    added = [0] * l
    start, left = 0, r
    while True:
        for i in range(start, l):
            added[i] = max(0, left - room[i + 1])
            left -= added[i]
        out[ctx.rank(tuple(p + e for p, e in zip(lam, added)))] = 1
        i, left = l - 1, 0
        while i >= 0 and (left == 0 or added[i] == caps[i]):
            left += added[i]
            i -= 1
        if i < 0:
            return CohomClass(ctx, out)
        added[i] += 1
        start, left = i + 1, left - 1


def pairing(a, b):
    """Poincare pairing: sum of coeff_a(T) * coeff_b(dual T)."""
    _same_ctx(a, b)
    ctx = a.ctx
    total = 0
    for r, c in a.terms.items():
        dual_rank = ctx.rank(poincare_dual(ctx.basis[r], ctx.k))
        other = b.terms.get(dual_rank, 0)
        if other:
            total += c * other
    return total
