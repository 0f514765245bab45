"""The ring over the complex numbers as functions on its spectrum.

At q = 1 the complexified ring is a product of binomial(n, k) copies
of C.  Its points are the l-subsets S of the n roots

    x_j = exp(i pi (2j + l - 1) / n),   j = 0..n-1,

of x^n = (-1)^(l-1), and the value of the diagram lam at S is the
Schur polynomial s_lam(x_S) (Rietsch; Postnikov), computed as a
Jacobi-Trudi determinant of size min(k, l).  Each point is certified,
not trusted: its values must satisfy every quantum Pieri rule of the
row classes, which generate the ring, and no two points may agree.
Complex conjugation sends x_j to x_{-j-(l-1) mod n}, so it maps the
point S to another point, the subset S-bar.

Multiplication by any class is a dim x dim integer matrix in the
diagram basis.  The suites here check that relabeling diagrams by the
involution conjugates every character value, that conjugation
permutes the points as S -> S-bar, that multiplication by C * bar(C)
is positive semidefinite with real non-negative values, and that C
and bar(C) vanish at the same points.  As bar is conjugation,
multiplication by bar(lam) is the transpose of multiplication by lam
for every diagram, M_(bar lam) = M_lam^T; this is checked exactly,
once for the whole table.  With the multiplicativity the ring suites
check, it makes the matrix of C * bar(C) the Gram matrix M_C M_C^T
for every integer class C, so no matrix is judged by a float gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .classical import CohomClass, rank_map, terms_json
from .partitions import bar_involution, degree, format_partition, trim
from .quantum import DEFAULT_SEED, _pieri_matrix
from .reports import VerifyReport

RESIDUAL_TOL = 1e-8
CONJUGATION_TOL = 1e-6
# a value below this magnitude counts as zero in verify_vanishing
VANISHING_TOL = 1e-7
# random_integer_classes draws coefficients of at most this size
RANDOM_COEFF_BOUND = 5
# two points whose generating values agree this closely are one point
SEPARATION_TOL = 1e-6

# largest dimension the dense dim x dim matrices of this module serve
MAX_DIM = 2000

# structure constants stay tiny at desk scale; guard anyway so a bad
# table turns into an error instead of silent int64 wraparound
_ENTRY_BOUND = 2 ** 31


class DegenerateSpectrum(RuntimeError):
    """The closed-form characters failed their Pieri certificate."""


def _coeff_vector(c, dtype=np.int64):
    """Coefficients of a class as a dense vector indexed by rank."""
    vec = np.zeros(c.ctx.dim, dtype=dtype)
    if c.terms:
        vec[list(c.terms)] = list(c.terms.values())
    return vec


def _check_coefficients(coeffs):
    for coeff in coeffs:
        if abs(coeff) >= _ENTRY_BOUND:
            raise OverflowError(f"coefficient {coeff} too large")


def _checked_entries(mat):
    if np.abs(mat).max(initial=0) >= _ENTRY_BOUND:
        raise OverflowError("matrix entries exceed the safe integer bound")
    return mat


def mult_matrix(c, table):
    """Integer matrix of quantum multiplication by a class.

    Column j holds the coordinates of c * basis[j].  The map is linear
    in c and turns products into matrix products.
    """
    _check_coefficients(c.terms.values())
    return _checked_entries(table.matrix(_coeff_vector(c)))


@dataclass(frozen=True)
class SpectralPoint:
    index: int
    subset: tuple               # S, an l-subset of range(n)
    coords: tuple               # characters of the row classes (1..k)
    residual: float


@dataclass(frozen=True)
class SpectralData:
    ctx: object
    characters: np.ndarray      # points x dim complex values, read-only
    points: tuple


def _complete(x, top):
    """h_0..h_top of the variables in each row of x, one row per point.

    Expands prod(1 + x_j t) into e_1..e_m, then solves
    sum_i (-1)^i e_i h_(r-i) = 0 for h_r degree by degree.
    """
    points, m = x.shape
    e = np.zeros((points, m + 1), dtype=np.complex128)
    e[:, 0] = 1
    for j in range(m):
        e[:, 1:j + 2] += x[:, j, None] * e[:, :j + 1]
    signed = e[:, 1:] * (-1.0) ** np.arange(m)     # (-1)^(i-1) e_i
    h = np.zeros((points, top + 1), dtype=np.complex128)
    h[:, 0] = 1
    for r in range(1, top + 1):
        i = min(r, m)
        h[:, r] = (signed[:, :i] * h[:, r - 1::-1][:, :i]).sum(axis=1)
    return h


def joint_eigenbasis(ctx, residual_tol=RESIDUAL_TOL):
    """The binomial(n, k) points of the spectrum, in closed form.

    Points are the l-subsets S of range(n) in itertools.combinations
    order.  As h_r(x_S) = (-1)^r e_r(x_C) for r < n, with C the
    complement of S, s_lam(x_S) = (-1)^|lam| s_lam'(x_C).  Values are
    Jacobi-Trudi determinants det(h_(mu_i - i + j)) over the smaller of
    S and C, min(k, l) square, one diagram at a time over all points.
    Each point's residual is the larger of |X_S(unit) - 1| and
    max_r |X_S P_r - X_S((r)) X_S| / |X_S|, with P_r the quantum Pieri
    matrix of the row class (r): the residual of X_S as a unit left
    eigenvector of every P_r.  As the row classes generate the ring, a
    residual of zero makes X_S a ring character.
    Raises DegenerateSpectrum when the worst residual is not within
    residual_tol (NaN included), or when two points agree within
    SEPARATION_TOL on min(k, l) generating classes.
    """
    k, l, n, dim = ctx.k, ctx.l, ctx.n, ctx.dim
    subsets = list(combinations(range(n), l))
    on_complement = k <= l
    side = ([sorted(set(range(n)).difference(s)) for s in subsets]
            if on_complement else subsets)
    # reduce the angle mod 2 pi in integers before scaling by pi / n
    turns = (2 * np.array(side, dtype=np.int64) + l - 1) % (2 * n)
    h = _complete(np.exp(1j * np.pi / n * turns), n - 1)
    h = np.concatenate([h, np.zeros((len(subsets), 1))], axis=1)
    m = min(k, l)
    steps = np.arange(m)[None, :] - np.arange(m)[:, None]    # j - i
    chars = np.empty((len(subsets), dim), dtype=np.complex128)
    for rank, lam in enumerate(ctx.basis):
        # mu is lam over S, its transpose (k parts) over C
        mu = [sum(p > i for p in lam) for i in range(k)] \
            if on_complement else lam
        idx = np.array(mu)[:, None] + steps
        idx[idx < 0] = n                   # column n holds h_(<0) = 0
        value = np.linalg.det(h[:, idx])
        flip = on_complement and degree(lam) % 2
        chars[:, rank] = -value if flip else value

    residual = np.abs(chars[:, 0] - 1)
    norms = np.linalg.norm(chars, axis=1)
    row_ranks = [ctx.rank((r,) + (0,) * (l - 1)) for r in range(1, k + 1)]
    padded = np.concatenate([chars, np.zeros((len(subsets), 1))], axis=1)
    for r, rank in enumerate(row_ranks, start=1):
        ptr, targets = _pieri_matrix(ctx, r)
        width = np.diff(ptr)
        # slot s of column j is the s-th rank of its Pieri row, else dim
        slots = np.full((width.max(), dim), dim)
        slots[np.arange(len(targets)) - np.repeat(ptr[:-1], width),
              np.repeat(np.arange(dim), width)] = targets
        image = sum(padded[:, slot] for slot in slots)       # X_S P_r
        dev = np.linalg.norm(image - chars[:, rank, None] * chars, axis=1)
        residual = np.maximum(residual, dev / norms)
    worst = float(residual.max())
    if not worst <= residual_tol:
        raise DegenerateSpectrum(
            f"closed-form characters of {ctx} fail the Pieri certificate: "
            f"residual {worst:.3e} above {residual_tol:.3e}")
    # the values of m generating classes determine a character
    gens = (row_ranks if on_complement else
            [ctx.rank((1,) * r + (0,) * (l - r)) for r in range(1, l + 1)])
    keys = chars[:, gens]
    gap = min((float(np.abs(keys[i + 1:] - keys[i]).max(axis=1).min())
               for i in range(len(keys) - 1)), default=np.inf)
    if not gap > SEPARATION_TOL:
        raise DegenerateSpectrum(
            f"two points of {ctx} agree within {SEPARATION_TOL:.0e}")
    chars.flags.writeable = False
    points = tuple(
        SpectralPoint(i, s, tuple(complex(z) for z in chars[i, row_ranks]),
                      float(residual[i]))
        for i, s in enumerate(subsets))
    return SpectralData(ctx, chars, points)


def evaluate(a, spectral):
    """Values of a class at every point, as a complex vector."""
    if a.ctx != spectral.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {spectral.ctx}")
    return spectral.characters @ _coeff_vector(a, np.float64)


def conjugation_point_permutation(spectral):
    """The point map S -> S-bar of complex conjugation, checked.

    Entry i is the index of the conjugate subset of point i.  Returns
    None unless every point's conjugated coordinates match those of
    its image within CONJUGATION_TOL.
    """
    ctx = spectral.ctx
    index = {p.subset: p.index for p in spectral.points}
    perm = [index[tuple(sorted((-j - (ctx.l - 1)) % ctx.n
                               for j in p.subset))]
            for p in spectral.points]
    coords = np.array([p.coords for p in spectral.points])
    deviation = np.abs(coords[perm] - coords.conj()).max(initial=0.0)
    return perm if deviation <= CONJUGATION_TOL else None


def verify_conjugation(ctx, spectral):
    """Character of bar(S) vs conjugated character of S, every point."""
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    chars = spectral.characters
    dev = np.abs(chars[:, bar_rank] - chars.conj())
    failures = [{"point": p, "lam": list(trim(ctx.basis[rank])),
                 "deviation": float(dev[p, rank])}
                for p, rank in np.argwhere(~(dev <= CONJUGATION_TOL)).tolist()]
    failures.sort(key=lambda f: (f["point"], f["lam"]))
    return VerifyReport("conjugation", ctx.k, ctx.n, dev.size, failures,
                        extra={"max_deviation": float(dev.max(initial=0.0))})


def verify_point_conjugation(ctx, spectral):
    """Conjugation maps the point S to the point S-bar."""
    perm = conjugation_point_permutation(spectral)
    failures = [] if perm is not None else [
        {"problem": "conjugated coordinates do not match the point set"}]
    return VerifyReport("point_conjugation", ctx.k, ctx.n,
                        len(spectral.points), failures)


def verify_positivity(ctx, classes, spectral, table, tol=RESIDUAL_TOL):
    """Semipositivity of multiplication by C * bar(C), exactly, and its
    real non-negative values at every point.

    The matrices are certified for every integer class at once, not
    class by class.  The transpose identity M_(bar lam) = M_lam^T is
    checked here for every diagram, as one relabel of the table
    (StructureTable.transpose_mismatches), and each diagram that fails
    it gets a record naming lam and bar(lam).  Three premises come from
    the ring suites:
      (a) the oracle's Pieri operators commute, P_r P_s = P_s P_r
          (verify_commutativity);
      (b) M_lam = G_lam(P), the Giambelli polynomial of lam in the P_r,
          for every diagram (verify_commutativity);
      (c) G_lam e_0 = e_lam, with e_0 the unit's column
          (verify_giambelli).
    By (a) and (b) every M_lam lies in the commutative algebra the P_r
    generate, and by (b) and (c) M_lam e_0 = e_lam, so an element X of
    that algebra is fixed by X e_0: X e_lam = G_lam(P) X e_0.  Both
    M_lam M_mu and sum_nu N_(lam mu)^nu M_nu send e_0 to column mu of
    M_lam, so they are equal, and M_(C D) = M_C M_D for all classes.
    By linearity M_(bar C) = M_C^T, so M_(C bar C) = M_C M_C^T is a Gram
    matrix, symmetric and positive semidefinite, for every integer class
    C.  verify --suite spectrum alone checks the identity and the point
    values; the Gram identity for every class needs the ring suites of
    --suite all as well.

    Per class, only the coordinates v of the product are computed: M_C
    from mult_matrix applied to the coordinates of bar(C).  Every
    class needs point values with imaginary part at most, and real part
    at least minus, tol * max(1, sum_t |X[S, t]| |v_t|), the rounding
    scale of the value sum_t X[S, t] v_t of the product at the point S;
    NaN fails both gates.  The values come as one batch, from two matrix
    products with the characters, in O(classes * dim) more memory.
    Failures list the diagrams of the identity, by lam, then the
    classes, in order.
    """
    dim = ctx.dim
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    failures = [{"lam": list(trim(ctx.basis[r])),
                 "bar": list(trim(ctx.basis[bar_rank[r]])),
                 "problem": "M_bar is not the transpose of M_lam"}
                for r in table.transpose_mismatches(bar_rank).tolist()]
    failures.sort(key=lambda f: f["lam"])
    vecs = np.zeros((len(classes), dim), dtype=np.int64)
    for i, c in enumerate(classes):
        # a coefficient beyond the bound is refused when its class is
        # reached, below
        if c.terms and max(map(abs, c.terms.values())) < _ENTRY_BOUND:
            vecs[i, list(c.terms)] = list(c.terms.values())
    bars = np.empty_like(vecs)      # the coefficients of bar(C)
    bars[:, bar_rank] = vecs
    prods = np.empty_like(vecs)     # the coefficients of C * bar(C)
    for i, c in enumerate(classes):
        m_c = mult_matrix(c, table)
        v = bars[i]
        # |entries| < 2**31 each; refuse a matrix-vector sum that could wrap
        if int(np.abs(m_c).max(initial=0)) * int(np.abs(v).sum()) >= 2 ** 63:
            raise OverflowError("C * bar(C) exceeds the safe integer bound")
        prod = prods[i] = m_c @ v
        _check_coefficients(prod[np.abs(prod) >= _ENTRY_BOUND].tolist())
    weights = prods.astype(np.float64)
    values = weights @ spectral.characters.T
    # the rounding scale of each value's dot product
    bound = tol * np.maximum(1.0, np.abs(weights) @ np.abs(
        spectral.characters).T)
    not_real = ~(np.abs(values.imag) <= bound).all(axis=1)
    negative = ~(-values.real <= bound).all(axis=1)
    for i, c in enumerate(classes):
        found = (["values not real"] if not_real[i] else []) \
            + (["negative value"] if negative[i] else [])
        if found:
            failures.append({"class_index": i, "terms": terms_json(c),
                             "issues": found})
    return VerifyReport("positivity", ctx.k, ctx.n, len(classes), failures,
                        stats=[f"positivity transpose identity on {dim} "
                               f"diagrams"])


def verify_vanishing(ctx, classes, spectral):
    """C vanishes at a point exactly when bar(C) does, within VANISHING_TOL.

    A value that is not finite fails at its point.  The classes run as
    one batch: the float coefficients of every class and of its image,
    and the values of both at every point from two matrix products.
    Failures come class by class, each class's points in order.
    """
    vecs = np.zeros((len(classes), ctx.dim))
    for i, c in enumerate(classes):
        vecs[i, list(c.terms)] = list(c.terms.values())
    bars = np.empty_like(vecs)      # the coefficients of bar(C)
    bars[:, rank_map(ctx, partial(bar_involution, k=ctx.k))] = vecs
    values = vecs @ spectral.characters.T
    bar_values = bars @ spectral.characters.T
    bad = ((np.abs(values) < VANISHING_TOL)
           != (np.abs(bar_values) < VANISHING_TOL)) \
        | ~np.isfinite(values) | ~np.isfinite(bar_values)
    failures = [{"class_index": i, "point": p,
                 "value": [values[i, p].real, values[i, p].imag],
                 "bar_value": [bar_values[i, p].real, bar_values[i, p].imag]}
                for i, p in np.argwhere(bad).tolist()]
    return VerifyReport("vanishing", ctx.k, ctx.n, values.size, failures)


def random_integer_classes(ctx, count, seed=DEFAULT_SEED):
    """Seeded dense classes with coefficients within RANDOM_COEFF_BOUND."""
    rng = random.Random(seed)
    return [CohomClass(ctx, {r: rng.randint(-RANDOM_COEFF_BOUND,
                                            RANDOM_COEFF_BOUND)
                             for r in range(ctx.dim)})
            for _ in range(count)]


def spectrum_json_dict(spectral):
    """The documented JSON form of a spectrum."""
    ctx = spectral.ctx
    chars = spectral.characters
    doc = {"k": ctx.k, "n": ctx.n,
           "points": [{"coords": [[z.real, z.imag] for z in p.coords],
                       "residual": p.residual}
                      for p in spectral.points],
           "characters": {format_partition(lam):
                          [[z.real, z.imag] for z in chars[:, rank].tolist()]
                          for rank, lam in enumerate(ctx.basis)}}
    return doc
