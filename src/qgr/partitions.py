"""Young diagrams in the l x k box for the Grassmannian G(k, n).

A diagram is a tuple of l = n - k weakly decreasing non-negative parts,
each at most k.  Diagrams are stored at fixed length l with trailing
zeros, which keeps the index arithmetic of complements and the diagram
involution total; text I/O trims the zeros.

The module provides the ranked basis of all diagrams in the box, the
box complement (Poincare duality), the involution obtained by dualizing
the sub-diagrams above and below the Durfee square, and the cyclic
shift realized on l-subsets of {1, ..., n}.
"""

from __future__ import annotations

from math import comb


def degree(lam):
    """Number of boxes of the diagram."""
    return sum(lam)


def durfee(lam):
    """Side of the largest square contained in the diagram (0 if empty)."""
    d = 0
    for i, part in enumerate(lam, start=1):
        if part < i:
            break
        d = i
    return d


def nonzero_rows(lam):
    """Number of nonzero parts."""
    return sum(1 for p in lam if p > 0)


def trim(lam):
    """Drop trailing zeros, returning a tuple."""
    m = len(lam)
    while m > 0 and lam[m - 1] == 0:
        m -= 1
    return tuple(lam[:m])


def _box_partitions(k, l):
    """Diagrams in the l x k box, in descending lexicographic order.

    Iterative, so the number of rows is not bounded by the recursion
    limit: each diagram's successor lowers its last nonzero part by one
    and raises every part after it to that value.
    """
    lam = [k] * l
    while True:
        yield tuple(lam)
        i = l - 1
        while i >= 0 and lam[i] == 0:
            i -= 1
        if i < 0:
            return
        lam[i:] = [lam[i] - 1] * (l - i)


def enumerate_box_partitions(k, l):
    """All diagrams in the l x k box, sorted by degree then descending lex.

    The order is graded: ascending total degree, ties broken by
    lexicographically larger parts first, so (2,0) precedes (1,1).
    """
    out = list(_box_partitions(k, l))
    out.sort(key=lambda lam: (sum(lam), tuple(-p for p in lam)))
    return out


class GrassmannContext:
    """The pair (k, n) together with the ranked basis of box diagrams.

    Attributes:
        k, n, l    -- k < n, l = n - k
        dim        -- binomial(n, k), the number of basis diagrams
        top_degree -- k * l
        basis      -- tuple of all diagrams, graded order (rank = index)
        ranks_by_degree -- tuple indexed by degree, each a tuple of ranks
    """

    __slots__ = ("k", "n", "l", "dim", "top_degree", "basis",
                 "ranks_by_degree", "_rank")

    def __init__(self, k, n):
        if not isinstance(k, int) or not isinstance(n, int) or k < 1 or n <= k:
            raise ValueError(f"need integers 1 <= k < n, got k={k!r}, n={n!r}")
        self.k = k
        self.n = n
        self.l = n - k
        self.top_degree = k * self.l
        self.basis = tuple(enumerate_box_partitions(k, self.l))
        self.dim = len(self.basis)
        assert self.dim == comb(n, k)
        self._rank = {lam: i for i, lam in enumerate(self.basis)}
        by_deg = [[] for _ in range(self.top_degree + 1)]
        for i, lam in enumerate(self.basis):
            by_deg[sum(lam)].append(i)
        self.ranks_by_degree = tuple(tuple(r) for r in by_deg)

    def rank(self, lam):
        """Rank of a diagram in the graded basis order."""
        try:
            return self._rank[tuple(lam)]
        except KeyError:
            raise ValueError(f"{tuple(lam)} is not a diagram in the "
                             f"{self.l}x{self.k} box") from None

    def validate(self, parts):
        """Canonicalize an iterable of parts to a fixed-length diagram.

        Accepts up to l parts plus optional trailing zeros; raises
        ValueError naming the violated bound otherwise.
        """
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"part {i + 1} is negative: {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(
                    f"parts must be weakly decreasing: part {i + 1} ({p}) "
                    f"exceeds part {i} ({parts[i - 1]})")
        core = trim(parts)
        if len(core) > self.l:
            raise ValueError(f"{len(core)} nonzero parts exceed the row "
                             f"bound l={self.l}")
        if core and core[0] > self.k:
            raise ValueError(f"part 1 ({core[0]}) exceeds the column "
                             f"bound k={self.k}")
        return core + (0,) * (self.l - len(core))

    def __eq__(self, other):
        return (isinstance(other, GrassmannContext)
                and self.k == other.k and self.n == other.n)

    def __hash__(self):
        return hash((self.k, self.n))

    def __repr__(self):
        return f"GrassmannContext(k={self.k}, n={self.n})"


def poincare_dual(lam, k):
    """Complement of the diagram in the l x k box, rotated 180 degrees."""
    return tuple(k - p for p in reversed(lam))


def bar_involution(lam, k):
    """The diagram involution pivoting on the Durfee square.

    With d the Durfee side, the image mu has

        mu_i = d + k - lam_{d-i+1}   for i <= d,
        mu_i = d - lam_{l-i+d+1}     for i > d.

    Pictorially: split the diagram along the outer border of its
    largest square and replace the sub-diagrams in the upper-left and
    lower-right rectangles by their duals inside those rectangles.
    The image satisfies degree(mu) = n*d - degree(lam) and has the
    same Durfee side; applying the map twice is the identity.

    Single rows map to near-hooks: the image of (r) for r >= 1 is
    (k - r + 1, 1, ..., 1) with l - 1 ones.  The leading part k - r + 1
    (not k - r) is pinned by the degree identity above; the common
    off-by-one variant fails it.
    """
    l = len(lam)
    d = durfee(lam)
    mu = [d + k - lam[d - i] for i in range(1, d + 1)]
    mu += [d - lam[l - i + d] for i in range(d + 1, l + 1)]
    return tuple(mu)


def to_subset(lam, k):
    """The strictly increasing l-subset of {1..n} encoding the diagram.

    Element i is k + i - lam_i; the map is a bijection onto l-subsets.
    """
    return tuple(k + i - p for i, p in enumerate(lam, start=1))


def from_subset(subset, k):
    """Inverse of to_subset."""
    return tuple(k + i - s for i, s in enumerate(subset, start=1))


def c_shift(lam, j, k, n):
    """Shift the diagram's subset encoding down by j, cyclically in 1..n.

    This realizes the j-th power of the cyclic operator on diagrams; it
    is a Z/n action (period divides n, shifts compose additively).
    """
    j = j % n
    shifted = sorted((s - j - 1) % n + 1 for s in to_subset(lam, k))
    return from_subset(shifted, k)


def parse_partition(text, ctx):
    """Parse the text form of a diagram ("2,1"; "" or "[]" for empty)."""
    t = text.strip()
    if t in ("", "[]"):
        return (0,) * ctx.l
    try:
        parts = [int(x) for x in t.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}: parts must be "
                         "comma-separated integers") from None
    return ctx.validate(parts)


def format_partition(lam):
    """Text form of a diagram; the empty diagram renders as ""."""
    return ",".join(str(p) for p in trim(lam))


def parse_subset(text, ctx):
    """Parse the text form of an l-subset, e.g. "{1,3}"."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError(f"subset must be written in braces, got {text!r}")
    body = t[1:-1].strip()
    try:
        elems = tuple(int(x) for x in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"cannot parse subset {text!r}") from None
    if len(elems) != ctx.l:
        raise ValueError(f"subset has {len(elems)} elements, need l={ctx.l}")
    for i, s in enumerate(elems):
        if not 1 <= s <= ctx.n:
            raise ValueError(f"subset element {s} outside 1..{ctx.n}")
        if i > 0 and elems[i - 1] >= s:
            raise ValueError("subset elements must be strictly increasing")
    return elems


def format_subset(subset):
    return "{" + ",".join(str(s) for s in subset) + "}"
