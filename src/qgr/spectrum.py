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
once for the whole table.  The same closed form, reduced mod primes,
proves the table exact (verify_certificate), which makes the matrix of
C * bar(C) the Gram matrix M_C M_C^T for every integer class C, so no
matrix is judged by a float gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .classical import CohomClass, rank_map, terms_json
from .partitions import bar_involution, format_partition, trim
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


def _complete(x, top, p=None):
    """h_0..h_top of the variables in each row of x, one row per point.

    Expands prod(1 + x_j t) into e_1..e_m, then solves
    sum_i (-1)^i e_i h_(r-i) = 0 for h_r degree by degree: over C, or
    over F_p when p is given and x holds residues mod p, every entry
    then reduced into 0..p-1.
    """
    points, m = x.shape
    e = np.zeros((points, m + 1), dtype=x.dtype)
    e[:, 0] = 1
    for j in range(m):
        e[:, 1:j + 2] += x[:, j, None] * e[:, :j + 1]
        if p is not None:
            e[:, 1:j + 2] %= p
    signed = e[:, 1:] * (-1) ** np.arange(m)        # (-1)^(i-1) e_i
    h = np.zeros((points, top + 1), dtype=x.dtype)
    h[:, 0] = 1
    for r in range(1, top + 1):
        i = min(r, m)
        h[:, r] = (signed[:, :i] * h[:, r - 1::-1][:, :i]).sum(axis=1)
        if p is not None:
            h[:, r] %= p
    return h


def _closed_form(ctx):
    """The set-up that both arithmetics of the characters share.

    Returns (subsets, turns, idx, flip): the l-subsets S of range(n) in
    combinations order; per point, the exponents 2j + l - 1 mod 2n of a
    primitive 2n-th root of unity that give its variables, over S or,
    when k <= l, over its complement C, as s_lam(x_S) =
    (-1)^|lam| s_lam'(x_C); and per diagram, the Jacobi-Trudi indices
    into h_0..h_(n-1), n standing for h of negative degree, 0, and
    whether to negate the determinant.
    """
    k, l, n = ctx.k, ctx.l, ctx.n
    subsets = list(combinations(range(n), l))
    on_complement = k <= l
    side = ([sorted(set(range(n)).difference(s)) for s in subsets]
            if on_complement else subsets)
    # reduce the angle mod 2 pi in integers before scaling by pi / n
    turns = (2 * np.array(side, dtype=np.int64) + l - 1) % (2 * n)
    m = min(k, l)
    steps = np.arange(m)[None, :] - np.arange(m)[:, None]    # j - i
    lam = np.array(ctx.basis, dtype=np.int64).reshape(ctx.dim, l)
    # mu is lam over S, its transpose (k parts) over C
    mu = (lam[:, :, None] > np.arange(k)).sum(axis=1) if on_complement \
        else lam
    idx = mu[:, :, None] + steps
    idx[idx < 0] = n
    return subsets, turns, idx, on_complement & (lam.sum(axis=1) % 2 == 1)


def joint_eigenbasis(ctx, residual_tol=RESIDUAL_TOL):
    """The binomial(n, k) points of the spectrum, in closed form.

    Points are the l-subsets S of range(n) in itertools.combinations
    order, and values the Jacobi-Trudi determinants of _closed_form.
    Each point's residual is the larger of |X_S(unit) - 1| and
    max_r |X_S P_r - X_S((r)) X_S| / |X_S|, with P_r the quantum Pieri
    matrix of the row class (r): the residual of X_S as a unit left
    eigenvector of every P_r.  As the row classes generate the ring, a
    residual of zero makes X_S a ring character.  Raises
    DegenerateSpectrum when the worst residual is not within
    residual_tol (NaN included), or when two points agree within
    SEPARATION_TOL on min(k, l) generating classes.
    """
    k, l, n, dim = ctx.k, ctx.l, ctx.n, ctx.dim
    subsets, turns, idx, flip = _closed_form(ctx)
    h = _complete(np.exp(1j * np.pi / n * turns), n - 1)
    chars = _jacobi_trudi(h, idx, flip, np.linalg.det, np.negative)
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
    gens = (row_ranks if k <= l else
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


# bytes of Jacobi-Trudi matrices per chunk of diagrams in _jacobi_trudi
_CHUNK_BYTES = 2 ** 17


def _det_mod(a, p):
    """Determinants over F_p of a count x m x m stack of residues.

    a is overwritten.  Each row below the pivot becomes piv * row minus
    a multiple of the pivot row, which multiplies the determinant by
    piv; den collects those factors, inverted at the end by the Fermat
    power den^(p-2).  A zero pivot leaves num and den 0."""
    count, m, _ = a.shape
    num = np.ones(count, dtype=np.int64)
    den = np.ones(count, dtype=np.int64)
    pivots = np.ones(count, dtype=np.int64)     # the pivots so far
    for c in range(m - 1):
        r = c + (a[:, c:, c] != 0).argmax(axis=1)
        swap = np.flatnonzero(r != c)
        a[swap, c], a[swap, r[swap]] = a[swap, r[swap]], a[swap, c]
        num[swap] = p - num[swap]
        piv = a[:, c, c].copy()
        a[:, c + 1:, c + 1:] = (piv[:, None, None] * a[:, c + 1:, c + 1:]
                                - a[:, c + 1:, c, None]
                                * a[:, c, None, c + 1:]) % p
        # row c + 1 onwards carry every pivot up to c once more
        pivots = pivots * piv % p
        num = num * piv % p
        den = den * pivots % p
    num = num * a[:, m - 1, m - 1] % p
    for bit in bin(p - 2)[:1:-1]:       # square and multiply
        num = num * den % p if bit == "1" else num
        den = den * den % p
    return num


def _jacobi_trudi(h, idx, flip, det, negate):
    """Values of every diagram at every point, from h_0..h_(n-1) of each
    point and the Jacobi-Trudi set-up of _closed_form, in either
    arithmetic: det and negate act on arrays of it.  The determinants
    run over chunks of diagrams of about _CHUNK_BYTES."""
    points, m = len(h), idx.shape[1]
    h = np.concatenate([h, np.zeros((points, 1), h.dtype)], axis=1)
    out = np.empty((points, len(idx)), dtype=h.dtype)
    step = max(1, _CHUNK_BYTES // (h.itemsize * points * m * m))
    for lo in range(0, len(idx), step):
        value = det(h[:, idx[lo:lo + step]].reshape(-1, m, m))
        value = value.reshape(points, -1)
        out[:, lo:lo + step] = np.where(flip[lo:lo + step], negate(value),
                                        value)
    return out


def characters_mod(ctx, p, root):
    """X_p[S, lam] = s_lam(x_S) mod p, a points x dim int64 array, for
    x_j = root^(2j + l - 1) with root a primitive 2n-th root of unity
    mod p: the points of joint_eigenbasis, reduced mod a prime above p.
    """
    _, turns, idx, flip = _closed_form(ctx)
    powers = np.array([pow(root, e, p) for e in range(2 * ctx.n)])
    return _jacobi_trudi(_complete(powers[turns], ctx.n - 1, p), idx, flip,
                         lambda a: _det_mod(a, p), lambda v: (p - v) % p)


def certificate_primes(n, points, above):
    """(primes, roots): primes p = 1 mod 2n, largest first, until their
    product exceeds `above`, and a primitive 2n-th root of unity mod
    each.  As p^2 * points < 2^53, a sum of `points` products of two
    residues is exact in float64."""
    from math import isqrt
    p = isqrt((2 ** 53 - 1) // points)
    p -= (p - 1) % (2 * n)
    primes, roots, product = [], [], 1
    while product <= above:
        if p <= 2 * n:
            raise OverflowError(f"no float-exact prime 1 mod {2 * n} left")
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            roots.append(next(z for z in (pow(a, (p - 1) // (2 * n), p)
                                          for a in range(2, p))
                              if len({pow(z, e, p) for e in range(2 * n)})
                              == 2 * n))
            primes.append(p)
            product *= p
        p -= 2 * n
    return primes, roots


def totally_positive_values(ctx):
    """Each diagram's character at the totally positive point, in floats.

    At S_0 = {0, k+1, ..., n-1} the variables are exp(i pi m / n) for
    m = 1 - l, 3 - l, ..., l - 1, so by the q-hook-content formula
    s_lam(x_S0) is the product over the cells of lam of
    sin(pi (l + c) / n) / sin(pi h / n), c the content and h the hook
    length: the phases cancel, and every factor is positive, as
    1 <= l + c, h <= n - 1.
    """
    k, l, n = ctx.k, ctx.l, ctx.n
    lam = np.array(ctx.basis).reshape(ctx.dim, l)
    i, j = np.arange(l)[:, None], np.arange(k)[None, :]
    cells = lam[:, :, None] > j                         # dim x l x k
    cols = cells.sum(axis=1)                            # the transposes
    # outside the cells, hook 1 keeps the quotient finite
    hook = np.where(cells, lam[:, :, None] - j + cols[:, None, :] - i - 1, 1)
    factor = np.sin(np.pi * (l + j - i) / n) / np.sin(np.pi * hook / n)
    return np.where(cells, factor, 1.0).prod(axis=(1, 2))


def verify_certificate(ctx, table, seed=DEFAULT_SEED):
    """Every stored structure constant is the true one, over Z.

    The true constants satisfy sum_nu N_(lam mu)^nu X[S, nu] =
    X[S, lam] X[S, mu] at each point S, as the closed-form characters
    are those of the ring (Siebert-Tian; Rietsch); so also mod p, for
    X_p = characters_mod.  Where X_p is invertible mod p, that fixes
    every constant mod p.

    The bound.  True constants are Gromov-Witten invariants, at least 0,
    and the character X_0 at the totally positive point is positive on
    every diagram (totally_positive_values), so X_0(lam) X_0(mu) =
    sum_nu N_(lam mu)^nu X_0(nu) >= N_(lam mu)^nu min X_0: no true
    constant exceeds B = max X_0^2 / min X_0, computed with a relative
    margin of 1e-9 and rounded down.  The primes' product exceeds B
    plus the largest stored magnitude, so agreement mod each prime is
    equality over Z.

    At each prime runs Freivalds' check (1977), one diagram's slice of
    the table at a time: for seeded weights w over the points and
    y = w^T X_p, every ordered pair must have sum_nu N^nu y_nu =
    (X_p^T diag(w) X_p)[lam, mu] mod p.  A pair that fails at some point
    passes a draw with probability 1/p, and the draws make that at most
    2^-40.  Once every pair holds, each row of X_p is a homomorphism
    from the table's algebra over F_p, and distinct nonzero ones are
    linearly independent (Dedekind): the rank of X_p is the number of
    distinct nonzero rows.  A failure names the ordered pair and its
    stored terms, or a prime where X_p is singular; the report records
    the primes, B and the draws.
    """
    dim = ctx.dim
    x0 = totally_positive_values(ctx)
    bound = int(x0.max() ** 2 / x0.min() * (1 + 1e-9))
    stored = max(int(table.coeff.max(initial=0)),
                 -int(table.coeff.min(initial=0)))
    primes, roots = certificate_primes(ctx.n, dim, stored + bound)
    draws = -(-40 // (min(primes).bit_length() - 1))
    rng = random.Random(seed)
    failures, bad, ranks, compared = [], set(), [], []
    for p, root in zip(primes, roots):
        chars = characters_mod(ctx, p, root)
        w = np.array([[rng.randrange(p) for _ in range(dim)]
                      for _ in range(draws)], dtype=np.int64)
        floats = chars.astype(np.float64)
        y = (w.astype(np.float64) @ floats % p).astype(np.int64)
        compared.append(0)
        for r in range(dim):
            seg = slice(table.ptr[r * dim], table.ptr[r * dim + dim])
            j, t = np.divmod(table.key[seg], dim)
            terms = table.coeff[seg].astype(np.int64) % p * y[:, t]
            lhs = np.bincount((np.arange(draws)[:, None] * dim + j).ravel(),
                              terms.ravel().astype(np.float64),
                              draws * dim).reshape(draws, dim) % p
            # row r of X_p^T diag(w) X_p per draw; the whole product
            # would hold draws x dim^2 more floats
            rhs = (w * chars[:, r] % p).astype(np.float64) @ floats % p
            wrong = (lhs != rhs).any(axis=0)
            compared[-1] += len(wrong)
            bad.update((r, mu) for mu in np.flatnonzero(wrong).tolist())
        # distinct nonzero rows, side by side in lexicographic order
        rows = chars[np.lexsort(chars.T)]
        fresh = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
        ranks.append(int((fresh & rows.any(axis=1)).sum()))
        if ranks[-1] < dim:
            failures.append({"prime": p, "rank": ranks[-1],
                             "problem": "X_p is singular"})
    names = [list(trim(lam)) for lam in ctx.basis]
    failures += [{"pair": [names[r], names[mu]],
                  "table": terms_json(CohomClass(
                      ctx, dict(table.product_ranks(r, mu))))}
                 for r, mu in sorted(bad, key=lambda e: (names[e[0]],
                                                         names[e[1]]))]
    return VerifyReport("certificate", ctx.k, ctx.n, dim * dim, failures,
                        extra={"primes": primes, "bound": bound,
                               "draws": draws},
                        stats=[f"certificate compared {min(compared)} "
                               f"pairs, rank {min(ranks)}"])


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
    it gets a record naming lam and bar(lam).  One premise comes from
    the ring suites: the certificate (verify_certificate), which proves
    the table equal to the true constants, so M_(C D) = M_C M_D for all
    classes.  By linearity M_(bar C) = M_C^T, so M_(C bar C) = M_C M_C^T
    is a Gram matrix, symmetric and positive semidefinite, for every
    integer class C.  verify --suite spectrum alone checks the identity
    and the point values; the Gram identity for every class needs the
    certificate of --suite all as well.

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
    mismatched, compared = table.transpose_mismatches(bar_rank)
    failures = [{"lam": list(trim(ctx.basis[r])),
                 "bar": list(trim(ctx.basis[bar_rank[r]])),
                 "problem": "M_bar is not the transpose of M_lam"}
                for r in mismatched.tolist()]
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
                        stats=[f"positivity transpose identity on "
                               f"{compared} diagrams"])


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
