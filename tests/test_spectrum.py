import dataclasses
import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgr import spectrum
from qgr.classical import (CohomClass, basis_class, class_from_parts,
                           row_class, terms_json, unit_class, zero_class)
from qgr.involution import bar
from qgr.partitions import GrassmannContext, bar_involution, trim
from qgr.quantum import StructureTable, quantum_product
from qgr.spectrum import (DegenerateSpectrum, conjugation_point_permutation,
                          evaluate, joint_eigenbasis, mult_matrix,
                          random_integer_classes, spectrum_json_dict,
                          verify_conjugation, verify_point_conjugation,
                          verify_positivity, verify_vanishing)

from conftest import all_contexts, with_extra_targets, with_terms


class TestMultMatrix:
    def test_unit_is_identity(self, table_of):
        ctx = GrassmannContext(2, 4)
        mat = mult_matrix(unit_class(ctx), table=table_of(2, 4))
        assert np.array_equal(mat, np.eye(6, dtype=np.int64))

    def test_s1_column_of_unit(self, ctx_of, table_of):
        ctx = ctx_of(2, 4)
        mat = mult_matrix(row_class(ctx, 1), table=table_of(2, 4))
        expected = np.zeros(6, dtype=np.int64)
        expected[ctx.rank((1, 0))] = 1
        assert np.array_equal(mat[:, 0], expected)

    def test_inverse_pair_g24(self, ctx_of, table_of):
        ctx = ctx_of(2, 4)
        m2 = mult_matrix(row_class(ctx, 2), table=table_of(2, 4))
        m11 = mult_matrix(basis_class(ctx, (1, 1)), table=table_of(2, 4))
        assert np.array_equal(m2 @ m11, np.eye(6, dtype=np.int64))

    def test_linear(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 5), table_of(2, 5)
        a = basis_class(ctx, (2, 1, 0))
        b = basis_class(ctx, (1, 1, 1))
        lhs = mult_matrix(a + 3 * b, table=table)
        rhs = mult_matrix(a, table=table) + 3 * mult_matrix(b, table=table)
        assert np.array_equal(lhs, rhs)

    def test_multiplicative(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 5), table_of(2, 5)
        a = basis_class(ctx, (2, 2, 0))
        b = basis_class(ctx, (1, 1, 0))
        lhs = mult_matrix(quantum_product(a, b, table=table), table=table)
        rhs = mult_matrix(a, table=table) @ mult_matrix(b, table=table)
        assert np.array_equal(lhs, rhs)

    def test_all_pairs_commute(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            dim = ctx_of(k, n).dim
            table = table_of(k, n)
            mats = np.stack([table.basis_matrix(r) for r in range(dim)])
            # float64 sums of dim products below 2**53 are exact integers
            assert dim * int(np.abs(mats).max()) ** 2 < 2 ** 53
            mats = mats.astype(np.float64)
            for a in range(dim - 1):
                # M_a M_b against M_b M_a for every b > a at once
                rest = mats[a + 1:]
                assert np.array_equal(mats[a] @ rest, rest @ mats[a]), \
                    (k, n, a)


def _mult_matrix_loop(c, table):
    """Reference: mult_matrix as a loop over the table's basis pairs."""
    dim = c.ctx.dim
    mat = np.zeros((dim, dim), dtype=np.int64)
    for rank, coeff in c.terms.items():
        for j in range(dim):
            for t, sc in table.product_ranks(rank, j):
                mat[t, j] += coeff * sc
    return mat


class TestMultMatrixContraction:
    def test_basis_classes_match_loop(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            ctx, table = ctx_of(k, n), table_of(k, n)
            for rank, lam in enumerate(ctx.basis):
                c = basis_class(ctx, lam)
                loop = _mult_matrix_loop(c, table)
                assert np.array_equal(mult_matrix(c, table=table), loop)
                assert np.array_equal(table.basis_matrix(rank), loop)
                # a class of one rank with a coefficient other than 1
                m = mult_matrix(-3 * c, table=table)
                assert m.dtype == np.int64
                assert np.array_equal(m, _mult_matrix_loop(-3 * c, table))

    def test_dense_classes_match_loop(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            ctx, table = ctx_of(k, n), table_of(k, n)
            for c in random_integer_classes(ctx, 3, seed=k * 100 + n):
                m = mult_matrix(c, table=table)
                assert m.dtype == np.int64
                assert np.array_equal(m, _mult_matrix_loop(c, table))

    def test_coefficient_bound(self, ctx_of, table_of):
        c = 2 ** 31 * unit_class(ctx_of(2, 4))
        with pytest.raises(OverflowError):
            mult_matrix(c, table=table_of(2, 4))

    def test_wrapping_entry_sum_raises(self, ctx_of):
        # every class coefficient and the wrapped entry -4 pass the entry
        # bound, but entry [0, 0] is 4 * (2**31 - 1)**2 + 8 * (2**31 - 1),
        # that is 2**64 - 4
        ctx = ctx_of(2, 4)
        dim = ctx.dim
        width = np.zeros(dim * dim, dtype=np.int64)
        width[[r * dim for r in range(5)]] = 1     # the pairs (r, 0)
        ptr = np.concatenate([[0], np.cumsum(width)])
        table = StructureTable(ctx, ptr, np.zeros(5, dtype=np.int32),
                               np.full(5, 2 ** 31 - 1, dtype=np.int32))
        c = CohomClass(ctx, {0: 2 ** 31 - 1, 1: 2 ** 31 - 1, 2: 2 ** 31 - 1,
                             3: 2 ** 31 - 1, 4: 8})
        with pytest.raises(OverflowError, match="int64 range"):
            mult_matrix(c, table=table)
        # one term per entry cannot wrap, and the table still serves it
        vec = np.zeros(dim, dtype=np.int64)
        vec[0] = 2 ** 31 - 1
        assert table.matrix(vec)[0, 0] == (2 ** 31 - 1) ** 2


@st.composite
def _class_pairs(draw):
    k, n = draw(st.sampled_from(all_contexts(7)))
    coeffs = st.lists(st.integers(-5, 5), min_size=comb(n, k),
                      max_size=comb(n, k))
    return k, n, draw(coeffs), draw(coeffs)


class TestProductProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_class_pairs())
    def test_products_become_matrix_and_pointwise_products(
            self, ctx_of, table_of, spectral_of, case):
        k, n, ca, cb = case
        ctx, table, sd = ctx_of(k, n), table_of(k, n), spectral_of(k, n)
        a = CohomClass(ctx, dict(enumerate(ca)))
        b = CohomClass(ctx, dict(enumerate(cb)))
        ab = quantum_product(a, b, table=table)
        assert np.array_equal(mult_matrix(ab, table=table),
                              mult_matrix(a, table=table)
                              @ mult_matrix(b, table=table))
        va, vb = evaluate(a, sd), evaluate(b, sd)
        scale = 1.0 + np.abs(va).max() * np.abs(vb).max()
        assert np.abs(evaluate(ab, sd) - va * vb).max() <= 1e-9 * scale


class TestJointEigenbasis:
    def test_point_counts(self, spectral_of):
        for (k, n), dim in [((1, 2), 2), ((2, 4), 6), ((2, 5), 10),
                            ((3, 6), 20)]:
            assert len(spectral_of(k, n).points) == dim

    def test_projective_line_characters(self, spectral_of):
        values = sorted(p.coords[0].real for p in spectral_of(1, 2).points)
        assert abs(values[0] + 1) < 1e-8 and abs(values[1] - 1) < 1e-8
        assert all(abs(p.coords[0].imag) < 1e-8
                   for p in spectral_of(1, 2).points)

    def test_residuals_certified(self, spectral_of):
        for k, n in [(1, 2), (2, 4), (2, 5), (3, 6)]:
            assert all(p.residual <= 1e-8 for p in spectral_of(k, n).points)

    def test_point_counts_and_residuals_all_small(self, ctx_of, spectral_of):
        for k, n in all_contexts(8):
            sd = spectral_of(k, n)
            assert len(sd.points) == ctx_of(k, n).dim
            assert all(p.residual <= 1e-8 for p in sd.points)

    def test_unit_character_is_one(self, spectral_of):
        for k, n in [(2, 4), (3, 6)]:
            chars = spectral_of(k, n).characters
            assert np.abs(chars[:, 0] - 1).max() < 1e-10

    def test_characters_multiplicative(self, ctx_of, table_of, spectral_of):
        for k, n in all_contexts(6):
            ctx, table = ctx_of(k, n), table_of(k, n)
            chars = spectral_of(k, n).characters
            for ra in range(ctx.dim):
                for rb in range(ra, ctx.dim):
                    prod = np.zeros(chars.shape[0], dtype=np.complex128)
                    for rank, c in table.product_ranks(ra, rb):
                        prod += c * chars[:, rank]
                    direct = chars[:, ra] * chars[:, rb]
                    assert np.abs(prod - direct).max() <= 1e-6

    def test_deterministic(self, ctx_of):
        s1 = joint_eigenbasis(ctx_of(2, 4))
        s2 = joint_eigenbasis(ctx_of(2, 4))
        for p1, p2 in zip(s1.points, s2.points):
            assert p1.coords == p2.coords and p1.residual == p2.residual
        assert np.array_equal(s1.characters, s2.characters)

    def test_points_in_subset_order(self, ctx_of, spectral_of):
        for k, n in all_contexts(6):
            sd = spectral_of(k, n)
            assert [p.subset for p in sd.points] == \
                list(itertools.combinations(range(n), n - k))
            assert [p.index for p in sd.points] == list(range(comb(n, k)))
            assert not sd.characters.flags.writeable

    def test_coords_match_generator_eigenvalues(self, ctx_of, table_of,
                                                spectral_of):
        # independent oracle: the values of the row class (r) at the
        # points are the eigenvalues of its multiplication matrix
        for k, n in all_contexts(7):
            ctx, table, sd = ctx_of(k, n), table_of(k, n), spectral_of(k, n)
            for r in range(1, k + 1):
                mat = table.basis_matrix(ctx.rank((r,) + (0,) * (n - k - 1)))
                eigvals = list(np.linalg.eigvals(mat.astype(np.float64)))
                for p in sd.points:
                    dist = [abs(z - p.coords[r - 1]) for z in eigvals]
                    i = int(np.argmin(dist))
                    assert dist[i] <= 1e-8, (k, n, r, p.subset)
                    eigvals.pop(i)
                assert not eigvals

    def test_corrupted_pieri_row_raises(self, ctx_of, monkeypatch):
        pieri_matrix = spectrum._pieri_matrix

        def corrupted(ctx, r):
            matrix = pieri_matrix(ctx, r)
            return with_extra_targets(matrix, {3: (ctx.dim - 1,)}) \
                if r == 1 else matrix

        monkeypatch.setattr(spectrum, "_pieri_matrix", corrupted)
        with pytest.raises(DegenerateSpectrum, match="Pieri certificate"):
            joint_eigenbasis(ctx_of(2, 4))

    def test_nan_character_raises(self, ctx_of, monkeypatch):
        complete = spectrum._complete

        def poisoned(x, top):
            h = complete(x, top)
            h[2, 1] = np.nan
            return h

        monkeypatch.setattr(spectrum, "_complete", poisoned)
        with np.errstate(invalid="ignore"), \
                pytest.raises(DegenerateSpectrum, match="Pieri certificate"):
            joint_eigenbasis(ctx_of(2, 5))

    def test_coincident_points_raise(self, ctx_of, monkeypatch):
        # point 1 repeats point 0: each row is a certified character,
        # but the rows do not make up the spectrum
        subsets = spectrum.combinations

        def repeated(items, size):
            out = list(subsets(items, size))
            return out[:1] + out[:1] + out[2:]

        monkeypatch.setattr(spectrum, "combinations", repeated)
        for k, n in [(2, 5), (3, 5)]:
            with pytest.raises(DegenerateSpectrum, match="agree"):
                joint_eigenbasis(ctx_of(k, n))

    def test_large_projective_space(self):
        # the closed form stays finite where a Vandermonde of n - 1
        # roots overflows float64 (modulus n^(n/2 - 1), from n = 258)
        sd = joint_eigenbasis(GrassmannContext(1, 300))
        assert np.isfinite(sd.characters).all()
        assert max(p.residual for p in sd.points) <= 1e-8
        assert verify_point_conjugation(sd.ctx, spectral=sd).ok


class TestEvaluate:
    def test_unit_all_ones(self, ctx_of, spectral_of):
        values = evaluate(unit_class(ctx_of(2, 4)), spectral_of(2, 4))
        assert np.abs(values - 1).max() < 1e-10

    def test_zero_class(self, ctx_of, spectral_of):
        values = evaluate(zero_class(ctx_of(2, 4)), spectral_of(2, 4))
        assert np.abs(values).max() == 0

    def test_linear(self, ctx_of, spectral_of):
        ctx = ctx_of(2, 4)
        s1 = row_class(ctx, 1)
        assert np.allclose(evaluate(s1 + s1, spectral_of(2, 4)),
                           2 * evaluate(s1, spectral_of(2, 4)))

    def test_products_become_pointwise(self, ctx_of, table_of, spectral_of):
        ctx, table = ctx_of(2, 5), table_of(2, 5)
        sd = spectral_of(2, 5)
        a = basis_class(ctx, (2, 1, 0))
        b = basis_class(ctx, (2, 2, 1))
        lhs = evaluate(quantum_product(a, b, table=table), sd)
        assert np.abs(lhs - evaluate(a, sd) * evaluate(b, sd)).max() < 1e-8

    def test_context_mismatch(self, ctx_of, spectral_of):
        with pytest.raises(ValueError, match="context mismatch"):
            evaluate(unit_class(ctx_of(2, 5)), spectral_of(2, 4))


class TestConjugation:
    def test_small_contexts(self, ctx_of, spectral_of):
        for k, n in all_contexts(8):
            report = verify_conjugation(ctx_of(k, n),
                                        spectral=spectral_of(k, n))
            assert report.ok
            assert report.extra["max_deviation"] <= 1e-6

    def test_projective_line_real(self, ctx_of, spectral_of):
        # bar fixes the single row class, so its values must be real
        report = verify_conjugation(ctx_of(1, 2), spectral=spectral_of(1, 2))
        assert report.ok

    def test_points_permuted(self, ctx_of, spectral_of):
        for k, n in all_contexts(6):
            sd = spectral_of(k, n)
            perm = conjugation_point_permutation(sd)
            assert perm is not None
            assert sorted(perm) == list(range(len(sd.points)))
            assert verify_point_conjugation(ctx_of(k, n), spectral=sd).ok

    def test_points_map_to_conjugate_subsets(self, spectral_of):
        for k, n in all_contexts(7):
            sd = spectral_of(k, n)
            chars = sd.characters
            perm = conjugation_point_permutation(sd)
            for p in sd.points:
                image = sd.points[perm[p.index]]
                # conj(x_j) = x_{-j-(l-1) mod n} on the roots
                assert sorted((-j - (n - k - 1)) % n for j in p.subset) == \
                    list(image.subset)
                assert np.abs(np.conj(chars[p.index]) - chars[image.index]) \
                    .max() <= 1e-9

    def test_perturbed_characters_are_reported(self, ctx_of, spectral_of):
        ctx, sd = ctx_of(2, 4), spectral_of(2, 4)
        chars = sd.characters.copy()
        # (2) and (1,1) are swapped by bar; move one value at point 4
        chars[4, ctx.rank((2, 0))] += 1e-3
        report = verify_conjugation(
            ctx, spectral=dataclasses.replace(sd, characters=chars))
        assert report.checked == 36
        assert [(f["point"], f["lam"]) for f in report.failures] == \
            [(4, [1, 1]), (4, [2])]
        assert all(abs(f["deviation"] - 1e-3) < 1e-9
                   for f in report.failures)
        assert abs(report.extra["max_deviation"] - 1e-3) < 1e-9

    def test_nan_values_fail_every_suite(self, ctx_of, table_of,
                                         spectral_of):
        ctx, sd = ctx_of(2, 4), spectral_of(2, 4)
        chars = sd.characters.copy()
        chars[4, ctx.rank((2, 0))] = np.nan
        p = sd.points[4]
        nan_point = dataclasses.replace(p, coords=(np.nan,) + p.coords[1:])
        bad = dataclasses.replace(
            sd, characters=chars,
            points=sd.points[:4] + (nan_point,) + sd.points[5:])
        assert conjugation_point_permutation(bad) is None
        assert not verify_conjugation(ctx, spectral=bad).ok
        assert not verify_point_conjugation(ctx, spectral=bad).ok
        s2 = basis_class(ctx, (2, 0))
        vanishing = verify_vanishing(ctx, [s2], spectral=bad)
        assert [f["point"] for f in vanishing.failures] == [4]
        positivity = verify_positivity(ctx, [s2], spectral=bad,
                                       table=table_of(2, 4))
        assert [f["issues"] for f in positivity.failures] == \
            [["values not real", "negative value"]]

    def test_perturbed_point_fails(self, ctx_of, spectral_of):
        sd = spectral_of(2, 5)
        p = sd.points[3]
        moved = dataclasses.replace(
            p, coords=(p.coords[0] + 1e-3j,) + p.coords[1:])
        bad = dataclasses.replace(
            sd, points=sd.points[:3] + (moved,) + sd.points[4:])
        assert conjugation_point_permutation(bad) is None
        report = verify_point_conjugation(ctx_of(2, 5), spectral=bad)
        assert not report.ok and report.checked == 10


class TestPositivity:
    def test_zero_class(self, ctx_of, table_of, spectral_of):
        ctx = ctx_of(2, 4)
        report = verify_positivity(ctx, [zero_class(ctx)],
                                   spectral=spectral_of(2, 4),
                                   table=table_of(2, 4))
        assert report.ok

    def test_s1_matrix_symmetric(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        s1 = row_class(ctx, 1)
        prod = quantum_product(s1, bar(s1), table=table)
        assert prod == class_from_parts(ctx, [((0, 0), 1), ((2, 2), 1)])
        mat = mult_matrix(prod, table=table)
        assert np.array_equal(mat, mat.T)

    def test_basis_and_random_classes(self, ctx_of, table_of, spectral_of):
        for k, n in all_contexts(5):
            ctx = ctx_of(k, n)
            classes = [basis_class(ctx, lam) for lam in ctx.basis]
            classes += random_integer_classes(ctx, 25, seed=17)
            report = verify_positivity(ctx, classes,
                                       spectral=spectral_of(k, n),
                                       table=table_of(k, n))
            assert report.ok and report.checked == len(classes)


    def test_gates_scale_with_the_class(self, ctx_of, table_of,
                                        spectral_of):
        # rounding grows with the values: a multiple of a class whose
        # product passes must pass too
        for k, n in [(3, 6), (4, 8)]:
            ctx = ctx_of(k, n)
            classes = random_integer_classes(ctx, 20, seed=k * 100 + n)
            for m in (1, 100):
                report = verify_positivity(ctx, [m * c for c in classes],
                                           spectral=spectral_of(k, n),
                                           table=table_of(k, n))
                assert report.ok, (k, n, m, report.failures)

    def test_transpose_identity_needs_no_class_or_tolerance(
            self, ctx_of, table_of, spectral_of):
        ctx, sd = ctx_of(3, 6), spectral_of(3, 6)
        bar_rank = _bar_ranks(ctx)
        # raise the coefficient of (2,1) in (1) * (1,1), one order only
        a, b, t = (ctx.rank(lam) for lam in [(1, 0, 0), (1, 1, 0), (2, 1, 0)])
        bad = with_terms(table_of(3, 6), {(a, b, t): 1})
        # the identity is checked once for the table, exactly: the same
        # records with no class at all and at any tolerance
        for classes, tol in [([], 1e-8), ([], 1e3),
                             ([100 * random_integer_classes(ctx, 1, 5)[0]],
                              1e3)]:
            report = verify_positivity(ctx, classes, spectral=sd, table=bad,
                                       tol=tol)
            assert report.checked == len(classes)
            assert report.failures == _transpose_records(
                ctx, sorted({a, bar_rank[a]})), (classes, tol)

    def test_certificate_covers_every_class(self, ctx_of, table_of,
                                            spectral_of):
        for k, n in all_contexts(8):
            ctx = ctx_of(k, n)
            classes = [basis_class(ctx, lam) for lam in ctx.basis]
            classes += random_integer_classes(ctx, 20, seed=n)
            report = verify_positivity(ctx, classes,
                                       spectral=spectral_of(k, n),
                                       table=table_of(k, n))
            assert report.ok and report.checked == len(classes), (k, n)
            assert report.stats == [
                f"positivity transpose identity on {ctx.dim} diagrams"]

    def test_failed_identity_names_lam_and_bar(
            self, ctx_of, table_of, spectral_of):
        ctx, table, sd = ctx_of(3, 6), table_of(3, 6), spectral_of(3, 6)
        bar_rank = _bar_ranks(ctx)
        # raise the coefficient of (3,2,1) in (1) * (3,1,1), both orders
        a, b, t = (ctx.rank(lam) for lam in [(1, 0, 0), (3, 1, 1), (3, 2, 1)])
        bad = with_terms(table, {(a, b, t): 1, (b, a, t): 1})
        classes = [basis_class(ctx, lam) for lam in ctx.basis]
        classes += random_integer_classes(ctx, 5, seed=6)
        report = verify_positivity(ctx, classes, spectral=sd, table=bad)
        assert report.failures == _positivity_reference(ctx, classes, sd, bad)
        named = {a, b, bar_rank[a], bar_rank[b]}
        assert report.failures[:len(named)] == _transpose_records(
            ctx, sorted(named))
        assert all("class_index" in f for f in report.failures[len(named):])

    def test_perturbed_character_is_reported(self, ctx_of, table_of,
                                             spectral_of):
        ctx, sd = ctx_of(2, 4), spectral_of(2, 4)
        s1 = row_class(ctx, 1)
        # s1 * bar(s1) = 1 + (2,2): move the value of (2,2) at point 3
        chars = sd.characters.copy()
        chars[3, ctx.rank((2, 2))] += 1e-6j
        report = verify_positivity(
            ctx, [s1], spectral=dataclasses.replace(sd, characters=chars),
            table=table_of(2, 4))
        assert [f["issues"] for f in report.failures] == [["values not real"]]

    def test_corrupted_table_matches_reference(self, ctx_of, table_of,
                                               spectral_of):
        for k, n in [(2, 4), (2, 5), (3, 6)]:
            ctx, table, sd = ctx_of(k, n), table_of(k, n), spectral_of(k, n)
            terms = [(ra, rb, t) for ra in range(ctx.dim)
                     for rb in range(ra, ctx.dim)
                     for t, _ in table.product_ranks(ra, rb)]
            ra, rb, t = terms[len(terms) // 3]
            bad = with_terms(table, {(ra, rb, t): 1, (rb, ra, t): 1})
            classes = [basis_class(ctx, lam) for lam in ctx.basis]
            classes += random_integer_classes(ctx, 5, seed=n)
            report = verify_positivity(ctx, classes, spectral=sd, table=bad)
            expected = _positivity_reference(ctx, classes, sd, bad)
            assert expected and report.failures == expected, (k, n)
            assert report.checked == len(classes)

    def test_overflow_guards_in_class_order(self, ctx_of, table_of,
                                            spectral_of):
        # the first class that could wrap raises, whether its matrix is
        # built (a dense class) or one column of it is read (a multiple
        # of one diagram)
        ctx, table, sd = ctx_of(3, 6), table_of(3, 6), spectral_of(3, 6)
        s1 = row_class(ctx, 1)
        # (2,1) * (2,1) holds 2 (3,2,1): M_(2,1) has an entry 2
        s21 = basis_class(ctx, (2, 1, 0))
        dense = random_integer_classes(ctx, 1, seed=3)[0]
        for classes, message in [
                ([s1, 2 ** 31 * s1], "coefficient 2147483648 too large"),
                ([-2 ** 31 * s21], "coefficient -2147483648 too large"),
                ([2 ** 31 * dense, 2 ** 20 * s1],
                 "coefficient -4294967296 too large"),
                ([2 ** 16 * s1], "coefficient 4294967296 too large"),
                ([2 ** 30 * s21],
                 "matrix entries exceed the safe integer bound"),
                ([2 ** 30 * s1, 2 ** 31 * dense],
                 "coefficient 1152921504606846976 too large")]:
            with pytest.raises(OverflowError, match=f"^{message}$"):
                verify_positivity(ctx, classes, spectral=sd, table=table)


def _bar_ranks(ctx):
    """bar as a list of ranks: basis[r] goes to basis[out[r]]."""
    return [ctx.rank(bar_involution(lam, ctx.k)) for lam in ctx.basis]


def _transpose_records(ctx, ranks):
    """The positivity records of diagrams that fail the transpose identity."""
    bar_rank = _bar_ranks(ctx)
    return [{"lam": list(trim(ctx.basis[r])),
             "bar": list(trim(ctx.basis[bar_rank[r]])),
             "problem": "M_bar is not the transpose of M_lam"}
            for r in ranks]


def _positivity_reference(ctx, classes, spectral, table, tol=1e-8):
    """Failures of verify_positivity, from per-pair products.

    A diagram lam fails the identity where the coefficient of t in
    bar(lam) * j is not that of j in lam * t, for some ranks j and t.
    """
    bar_rank = _bar_ranks(ctx)

    def entries(r):
        return {(j, t): c for j in range(ctx.dim)
                for t, c in table.product_ranks(r, j)}

    failures = _transpose_records(ctx, [
        r for r in range(ctx.dim)
        if entries(bar_rank[r]) != {(t, j): c for (j, t), c
                                    in entries(r).items()}])
    failures.sort(key=lambda f: f["lam"])
    chars = spectral.characters
    for i, c in enumerate(classes):
        prod = quantum_product(c, bar(c), table=table)
        issues = []
        real, imag, bound = [], [], []
        for point in range(chars.shape[0]):
            terms = [(chars[point, t], v) for t, v in prod.terms.items()]
            value = sum(x * v for x, v in terms)
            real.append(value.real)
            imag.append(value.imag)
            bound.append(tol * max(1.0, sum(abs(x) * abs(v)
                                            for x, v in terms)))
        if any(abs(y) > b for y, b in zip(imag, bound)):
            issues.append("values not real")
        if any(-x > b for x, b in zip(real, bound)):
            issues.append("negative value")
        if issues:
            failures.append({"class_index": i, "terms": terms_json(c),
                             "issues": issues})
    return failures


class TestVanishing:
    def test_unit_and_zero(self, ctx_of, spectral_of):
        ctx = ctx_of(2, 4)
        report = verify_vanishing(ctx, [unit_class(ctx), zero_class(ctx)],
                                  spectral=spectral_of(2, 4))
        assert report.ok

    def test_s1_vanishes_with_its_image(self, ctx_of, spectral_of):
        # regression: the row class of G(2,4) vanishes at exactly two
        # points (verified from the certified characters), and the
        # equivalence with its involution image must hold there
        ctx, sd = ctx_of(2, 4), spectral_of(2, 4)
        s1 = row_class(ctx, 1)
        values = evaluate(s1, sd)
        assert sum(1 for v in values if abs(v) < 1e-8) == 2
        report = verify_vanishing(ctx, [s1], spectral=sd)
        assert report.ok

    def test_random_classes(self, ctx_of, spectral_of):
        for k, n in all_contexts(5):
            ctx = ctx_of(k, n)
            classes = [basis_class(ctx, lam) for lam in ctx.basis]
            classes += random_integer_classes(ctx, 25, seed=29)
            report = verify_vanishing(ctx, classes,
                                      spectral=spectral_of(k, n))
            assert report.ok

    def test_failures_match_per_class_reference(self, ctx_of, spectral_of):
        # no character of G(2,5) vanishes; make (1) vanish at points 2
        # and 7 and (2) at points 4 and 8, so that each fails there with
        # the diagram bar maps onto it, class by class
        ctx, sd = ctx_of(2, 5), spectral_of(2, 5)
        chars = sd.characters.copy()
        chars[[2, 7], ctx.rank((1, 0, 0))] = 0
        chars[[4, 8], ctx.rank((2, 0, 0))] = 0
        bad = dataclasses.replace(sd, characters=chars)
        classes = [basis_class(ctx, lam) for lam in ctx.basis]
        classes += random_integer_classes(ctx, 5, seed=31)
        report = verify_vanishing(ctx, classes, spectral=bad)
        assert report.checked == len(classes) * len(sd.points)
        assert report.failures == _vanishing_reference(classes, bad)
        failed = {}
        for f in report.failures:
            failed.setdefault(f["class_index"], []).append(f["point"])
        assert failed == {ctx.rank(lam): points for lam, points in
                          [((1, 0, 0), [2, 7]), ((2, 0, 0), [4, 8]),
                           ((1, 1, 1), [4, 8]), ((2, 1, 1), [2, 7])]}


def _vanishing_reference(classes, spectral):
    """Failures of verify_vanishing, one class and one point at a time."""
    failures = []
    for i, c in enumerate(classes):
        values = evaluate(c, spectral)
        bar_values = evaluate(bar(c), spectral)
        for p, (v, w) in enumerate(zip(values, bar_values)):
            if ((abs(v) < 1e-7) != (abs(w) < 1e-7)
                    or not (np.isfinite(v) and np.isfinite(w))):
                failures.append({"class_index": i, "point": p,
                                 "value": [v.real, v.imag],
                                 "bar_value": [w.real, w.imag]})
    return failures


class TestSpectrumJson:
    def test_schema(self, spectral_of):
        doc = spectrum_json_dict(spectral_of(2, 4))
        assert set(doc) == {"k", "n", "points", "characters"}
        assert doc["k"] == 2 and doc["n"] == 4
        assert len(doc["points"]) == 6
        for p in doc["points"]:
            assert set(p) == {"coords", "residual"}
            assert len(p["coords"]) == 2  # one pair per generator
            assert all(len(z) == 2 for z in p["coords"])
        assert set(doc["characters"]) == \
            {"", "1", "2", "1,1", "2,1", "2,2"}
        for values in doc["characters"].values():
            assert len(values) == 6
