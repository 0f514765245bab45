"""The ring over the complex numbers as functions on its spectrum.

Multiplication by any class is a dim x dim integer matrix in the
diagram basis, and all such matrices commute.  A seeded random
combination of the row-class generators has simple spectrum; its
eigenvectors split the complexified ring into binomial(n, k) points,
and the value of a class at a point is the Rayleigh quotient of its
matrix on the eigenvector.  Each point is certified by the worst
generator residual rather than trusted from the eigensolver.

The suites here check that relabeling diagrams by the involution
conjugates every character value, that multiplication by C * bar(C)
is an exactly symmetric positive semidefinite matrix with real
non-negative values, and that C and bar(C) vanish at the same points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classical import CohomClass, basis_class, rank_map, terms_json
from .partitions import bar_involution, format_partition, trim
from .quantum import DEFAULT_SEED, build_table
from .reports import VerifyReport

GAP_TOL = 1e-9
RESIDUAL_TOL = 1e-8
CONJUGATION_TOL = 1e-6
MAX_ATTEMPTS = 5

# structure constants stay tiny at desk scale; guard anyway so a bad
# table turns into an error instead of silent int64 wraparound
_ENTRY_BOUND = 2 ** 31


class DegenerateSpectrum(RuntimeError):
    """No generator combination produced a certified simple spectrum."""


def _coeff_vector(c, dtype=np.int64):
    """Coefficients of a class as a dense vector indexed by rank."""
    vec = np.zeros(c.ctx.dim, dtype=dtype)
    if c.terms:
        vec[list(c.terms)] = list(c.terms.values())
    return vec


def mult_matrix(c, table=None):
    """Integer matrix of quantum multiplication by a class.

    Column j holds the coordinates of c * basis[j].  The map is linear
    in c and turns products into matrix products.
    """
    ctx = c.ctx
    if table is None:
        table = build_table(ctx)
    for coeff in c.terms.values():
        if abs(coeff) >= _ENTRY_BOUND:
            raise OverflowError(f"coefficient {coeff} too large")
    mat = table.matrix(_coeff_vector(c))
    if np.abs(mat).max(initial=0) >= _ENTRY_BOUND:
        raise OverflowError("matrix entries exceed the safe integer bound")
    return mat


def basis_matrices(ctx, table=None):
    """Multiplication matrices of every basis diagram, by rank."""
    if table is None:
        table = build_table(ctx)
    return [mult_matrix(basis_class(ctx, lam), table=table)
            for lam in ctx.basis]


@dataclass(frozen=True)
class SpectralPoint:
    index: int
    eigenvector: np.ndarray     # unit norm, first sizable entry real > 0
    characters: np.ndarray      # complex value per basis rank
    coords: tuple               # characters of the row classes (1..k)
    residual: float


@dataclass(frozen=True)
class SpectralData:
    ctx: object
    seed: int
    gap_tol: float
    residual_tol: float
    points: tuple

    def character_matrix(self):
        """points x dim complex matrix of character values."""
        return np.stack([p.characters for p in self.points])


def _normalize(v):
    v = v / np.linalg.norm(v)
    scale = np.abs(v).max()
    for entry in v:
        if abs(entry) > 1e-8 * scale:
            return v * (entry.conjugate() / abs(entry))
    return v


def joint_eigenbasis(ctx, seed=DEFAULT_SEED, residual_tol=RESIDUAL_TOL,
                     gap_tol=GAP_TOL, table=None):
    """Split the complexified ring into its binomial(n, k) points.

    Draws generator weights t_i in [1, 2] from the seed, demands dim
    pairwise-distinct eigenvalues of sum(t_i * M_i) with relative gap
    above gap_tol, and certifies every eigenvector by its worst
    generator residual.  Redraws up to five times before raising
    DegenerateSpectrum.  Points come back sorted by their coordinates.
    """
    if ctx.dim > 2000:
        raise ValueError(f"dimension {ctx.dim} is beyond the dense "
                         "eigendecomposition this module is built for")
    if table is None:
        table = build_table(ctx)
    mats = basis_matrices(ctx, table=table)
    row_ranks = [ctx.rank((r,) + (0,) * (ctx.l - 1))
                 for r in range(1, ctx.k + 1)]
    gen_mats = [mats[r].astype(np.complex128) for r in row_ranks]
    rng = np.random.default_rng(seed)
    last_problem = "no attempt made"
    for _ in range(MAX_ATTEMPTS):
        weights = rng.uniform(1.0, 2.0, size=ctx.k)
        combo = sum(w * m for w, m in zip(weights, gen_mats))
        eigvals, eigvecs = np.linalg.eig(combo)
        scale = max(1.0, np.abs(eigvals).max())
        gap = min((abs(a - b) for i, a in enumerate(eigvals)
                   for b in eigvals[i + 1:]), default=np.inf)
        if gap <= gap_tol * scale:
            last_problem = f"eigenvalue gap {gap:.3e} below threshold"
            continue
        points = []
        worst = 0.0
        for idx in range(ctx.dim):
            v = _normalize(eigvecs[:, idx])
            chars = np.empty(ctx.dim, dtype=np.complex128)
            residual = 0.0
            for rank in range(ctx.dim):
                image = mats[rank] @ v
                chars[rank] = np.vdot(v, image)  # v unit: Rayleigh value
                if rank in row_ranks:
                    residual = max(residual,
                                   np.linalg.norm(image - chars[rank] * v))
            worst = max(worst, residual)
            coords = tuple(complex(chars[r]) for r in row_ranks)
            points.append(SpectralPoint(idx, v, chars, coords, residual))
        if worst > residual_tol:
            last_problem = f"generator residual {worst:.3e} above tolerance"
            continue
        points.sort(key=lambda p: tuple((round(z.real, 9), round(z.imag, 9))
                                        for z in p.coords))
        points = tuple(SpectralPoint(i, p.eigenvector, p.characters,
                                     p.coords, p.residual)
                       for i, p in enumerate(points))
        return SpectralData(ctx, seed, gap_tol, residual_tol, points)
    raise DegenerateSpectrum(
        f"no certified simple spectrum for {ctx} after {MAX_ATTEMPTS} "
        f"draws (seed {seed}): {last_problem}")


def evaluate(a, spectral):
    """Values of a class at every point, as a complex vector."""
    if a.ctx != spectral.ctx:
        raise ValueError(f"context mismatch: {a.ctx} vs {spectral.ctx}")
    return spectral.character_matrix() @ _coeff_vector(a, np.float64)


def conjugation_point_permutation(spectral, tol=CONJUGATION_TOL):
    """Match each point's conjugated coordinates to another point.

    Returns the permutation as a list, or None if some conjugated
    point has no partner within tol.
    """
    coords = [np.array(p.coords) for p in spectral.points]
    used = set()
    perm = []
    for c in coords:
        target = c.conjugate()
        found = None
        for j, other in enumerate(coords):
            if j in used:
                continue
            if np.abs(other - target).max(initial=0.0) <= tol:
                found = j
                break
        if found is None:
            return None
        used.add(found)
        perm.append(found)
    return perm


def verify_conjugation(ctx, seed=DEFAULT_SEED, tol=CONJUGATION_TOL,
                       spectral=None, table=None):
    """Character of bar(S) vs conjugated character of S, every point."""
    if spectral is None:
        spectral = joint_eigenbasis(ctx, seed=seed, table=table)
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    failures = []
    worst = 0.0
    checked = 0
    for p in spectral.points:
        for rank in range(ctx.dim):
            checked += 1
            dev = abs(p.characters[bar_rank[rank]]
                      - p.characters[rank].conjugate())
            worst = max(worst, dev)
            if dev > tol:
                failures.append({"point": p.index,
                                 "lam": list(trim(ctx.basis[rank])),
                                 "deviation": dev})
    failures.sort(key=lambda f: (f["point"], f["lam"]))
    return VerifyReport("conjugation", ctx.k, ctx.n, checked, failures,
                        extra={"max_deviation": worst})


def verify_point_conjugation(ctx, seed=DEFAULT_SEED, tol=CONJUGATION_TOL,
                             spectral=None, table=None):
    """Conjugation permutes the point set (as coordinate multisets)."""
    if spectral is None:
        spectral = joint_eigenbasis(ctx, seed=seed, table=table)
    perm = conjugation_point_permutation(spectral, tol=tol)
    failures = [] if perm is not None else [
        {"problem": "conjugated coordinates do not match the point set"}]
    return VerifyReport("point_conjugation", ctx.k, ctx.n,
                        len(spectral.points), failures)


def _bar_vector(c, bar_rank, dtype=np.int64):
    """Coefficient vector of bar(c), given the rank map of bar."""
    vec = np.zeros(c.ctx.dim, dtype=dtype)
    for rank, coeff in c.terms.items():
        vec[bar_rank[rank]] += coeff
    return vec


def _positivity_issues(c, bar_rank, spectral, table, tol):
    m_c = mult_matrix(c, table=table)
    v = _bar_vector(c, bar_rank)
    # |entries| < 2**31 each; refuse a matrix-vector sum that could wrap
    if int(np.abs(m_c).max(initial=0)) * int(np.abs(v).sum()) >= 2 ** 63:
        raise OverflowError("C * bar(C) exceeds the safe integer bound")
    prod = CohomClass(c.ctx, dict(enumerate((m_c @ v).tolist())))
    mat = mult_matrix(prod, table=table)
    issues = []
    if not np.array_equal(mat, mat.T):
        issues.append("matrix not symmetric")
    else:
        eigmin = float(np.linalg.eigvalsh(mat.astype(np.float64)).min())
        if eigmin < -tol:
            issues.append(f"minimum eigenvalue {eigmin:.3e}")
    values = evaluate(prod, spectral)
    if np.abs(values.imag).max(initial=0.0) > tol:
        issues.append("values not real")
    if values.real.min(initial=0.0) < -tol:
        issues.append("negative value")
    return issues


def verify_positivity(ctx, classes=None, tol=RESIDUAL_TOL,
                      seed=DEFAULT_SEED, spectral=None, table=None):
    """Symmetry and semipositivity of multiplication by C * bar(C).

    Checks, for each class C: exact integer symmetry of the matrix,
    eigenvalues bounded below by -tol, and point values real within
    tol and at least -tol.  The product's coordinates are M_C applied
    to the coordinates of bar(C), and its matrix is built from them,
    so no step assumes associativity.
    """
    if table is None:
        table = build_table(ctx)
    if spectral is None:
        spectral = joint_eigenbasis(ctx, seed=seed, table=table)
    if classes is None:
        classes = [basis_class(ctx, lam) for lam in ctx.basis]
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    failures = []
    for i, c in enumerate(classes):
        issues = _positivity_issues(c, bar_rank, spectral, table, tol)
        if issues:
            failures.append({"class_index": i, "terms": terms_json(c),
                             "issues": issues})
    return VerifyReport("positivity", ctx.k, ctx.n, len(classes), failures)


def verify_vanishing(ctx, classes=None, tol=1e-7, seed=DEFAULT_SEED,
                     spectral=None, table=None):
    """C vanishes at a point exactly when bar(C) does, within tol."""
    if table is None:
        table = build_table(ctx)
    if spectral is None:
        spectral = joint_eigenbasis(ctx, seed=seed, table=table)
    if classes is None:
        classes = [basis_class(ctx, lam) for lam in ctx.basis]
    chars = spectral.character_matrix()
    bar_rank = rank_map(ctx, partial(bar_involution, k=ctx.k))
    failures = []
    checked = 0
    for i, c in enumerate(classes):
        values = chars @ _coeff_vector(c, np.float64)
        bar_values = chars @ _bar_vector(c, bar_rank, np.float64)
        for p in range(len(spectral.points)):
            checked += 1
            if (abs(values[p]) < tol) != (abs(bar_values[p]) < tol):
                failures.append({"class_index": i, "point": p,
                                 "value": [values[p].real, values[p].imag],
                                 "bar_value": [bar_values[p].real,
                                               bar_values[p].imag]})
    return VerifyReport("vanishing", ctx.k, ctx.n, checked, failures)


def random_integer_classes(ctx, count, seed=DEFAULT_SEED, bound=5):
    """Seeded dense classes with coefficients in [-bound, bound]."""
    rng = random.Random(seed)
    return [CohomClass(ctx, {r: rng.randint(-bound, bound)
                             for r in range(ctx.dim)})
            for _ in range(count)]


def spectrum_json_dict(spectral):
    """The documented JSON form of a spectrum."""
    ctx = spectral.ctx
    doc = {"k": ctx.k, "n": ctx.n, "seed": spectral.seed,
           "points": [{"coords": [[z.real, z.imag] for z in p.coords],
                       "residual": p.residual}
                      for p in spectral.points],
           "characters": {format_partition(lam):
                          [[p.characters[rank].real, p.characters[rank].imag]
                           for p in spectral.points]
                          for rank, lam in enumerate(ctx.basis)}}
    return doc
