import gc
import itertools
import random
from functools import partial

import pytest

from qgr import classical
from qgr.classical import (CohomClass, _column_cells, _lr_count,
                           _lr_fillings, _lr_rows, basis_class,
                           class_from_parts, classical_pieri, column_class,
                           cup_product, lr_coefficient, pairing, point_class,
                           rank_map, relabel, row_class, unit_class,
                           zero_class)
from qgr.partitions import (GrassmannContext, bar_involution, c_shift,
                            degree, poincare_dual, trim)

from conftest import all_contexts


def partitions_of(size, max_rows=None):
    """All partitions of a given size, as trimmed tuples."""
    out = []

    def build(remaining, cap, acc):
        if remaining == 0:
            if max_rows is None or len(acc) <= max_rows:
                out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            if max_rows is not None and len(acc) == max_rows:
                return
            acc.append(part)
            build(remaining - part, part, acc)
            acc.pop()

    build(size, size if size else 1, [])
    return out if size else [()]


def complete_homogeneous(r, xs):
    """h_r at integer points, by exact dynamic programming."""
    if r < 0:
        return 0
    dp = [1] + [0] * r
    for x in xs:
        for d in range(1, r + 1):
            dp[d] += x * dp[d - 1]
    return dp[r]


def schur_value(lam, xs):
    """Schur polynomial at integer points via the h-determinant."""
    lam = trim(lam)
    m = len(lam)
    if m == 0:
        return 1
    rows = [[complete_homogeneous(lam[i] + j - i, xs) for j in range(m)]
            for i in range(m)]
    total = 0
    for perm in itertools.permutations(range(m)):
        inv = sum(1 for a in range(m) for b in range(a + 1, m)
                  if perm[a] > perm[b])
        prod = 1
        for i in range(m):
            prod *= rows[i][perm[i]]
        total += -prod if inv % 2 else prod
    return total


class TestCohomClassArithmetic:
    def test_add_zero(self):
        ctx = GrassmannContext(2, 4)
        a = class_from_parts(ctx, [((2, 1), 3), ((1, 0), -2)])
        assert a + zero_class(ctx) == a

    def test_double(self):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        assert s1 + s1 == 2 * s1

    def test_cancellation(self):
        ctx = GrassmannContext(2, 4)
        a = class_from_parts(ctx, [((2, 1), 5), ((1, 1), 1)])
        assert a - a == zero_class(ctx)
        assert not (a - a)
        assert (a - a).terms == {}

    def test_scalar_and_neg(self):
        ctx = GrassmannContext(2, 4)
        a = basis_class(ctx, (2, 1))
        assert (-1) * a == -a
        assert 0 * a == zero_class(ctx)

    def test_context_mismatch(self):
        a = unit_class(GrassmannContext(2, 4))
        b = unit_class(GrassmannContext(2, 5))
        with pytest.raises(ValueError, match="context mismatch"):
            a + b

    def test_rejects_invalid_rank(self):
        ctx = GrassmannContext(2, 4)
        with pytest.raises(ValueError, match="outside the basis"):
            CohomClass(ctx, {6: 1})

    def test_named_classes(self):
        ctx = GrassmannContext(2, 5)
        assert row_class(ctx, 0) == unit_class(ctx)
        assert column_class(ctx).coefficient((1, 1, 1)) == 1
        assert point_class(ctx).coefficient((2, 2, 2)) == 1
        with pytest.raises(ValueError):
            row_class(ctx, 3)

    def test_repr(self):
        ctx = GrassmannContext(2, 4)
        assert repr(zero_class(ctx)) == "0"
        assert repr(unit_class(ctx)) == "1"
        assert repr(row_class(ctx, 1) + row_class(ctx, 2)) == "(1) + (2)"
        assert repr(-row_class(ctx, 1)) == "-(1)"
        assert repr(row_class(ctx, 1) - row_class(ctx, 2)) == "(1) - (2)"
        assert repr(row_class(ctx, 1) - 3 * row_class(ctx, 2)) == \
            "(1) - 3*(2)"

    def test_relabel_sums_terms_that_land_together(self):
        ctx = GrassmannContext(2, 4)
        a = class_from_parts(ctx, [((1, 0), 2), ((2, 1), -5), ((2, 2), 1)])
        assert relabel(a, lambda lam: lam) == a
        assert relabel(a, lambda lam: (0, 0)) == -2 * unit_class(ctx)

    def test_rank_map_agrees_with_relabel(self, ctx_of):
        for k, n in all_contexts(7):
            ctx = ctx_of(k, n)
            for image in (partial(poincare_dual, k=k),
                          partial(bar_involution, k=k),
                          partial(c_shift, j=2, k=k, n=n)):
                ranks = rank_map(ctx, image)
                assert ranks.dtype.kind == "i" and ranks.shape == (ctx.dim,)
                for r, lam in enumerate(ctx.basis):
                    assert relabel(basis_class(ctx, lam), image) == \
                        CohomClass(ctx, {int(ranks[r]): 1}), (k, n, lam)


class TestLittlewoodRichardson:
    def test_trivial_cases(self):
        assert lr_coefficient((), (1,), (1,)) == 1
        assert lr_coefficient((1,), (), (1,)) == 1
        assert lr_coefficient((), (), ()) == 1
        assert lr_coefficient((1,), (1,), (3,)) == 0  # degree mismatch

    def test_hand_examples(self):
        assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
        assert lr_coefficient((1,), (2,), (2, 1)) == 1
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1
        assert lr_coefficient((1, 1), (2,), (2, 2)) == 0

    def test_classic_multiplicity_two(self):
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2

    def test_full_s21_squared(self):
        expected = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2,
                    (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}
        for nu in partitions_of(6):
            assert lr_coefficient((2, 1), (2, 1), nu) == expected.get(nu, 0)

    def test_rejects_non_partitions(self):
        with pytest.raises(ValueError):
            lr_coefficient((1, 2), (1,), (2, 2))

    def test_one_cell_per_box_beyond_the_recursion_limit(self):
        assert lr_coefficient((), (1200,), (1200,)) == 1
        assert lr_coefficient((), (1,) * 1200, (1,) * 1200) == 1

    def test_long_column_ends_each_value_search_early(self):
        # the one filling puts 1..200 down the column
        assert _lr_count((), (1,) * 200) == {(1,) * 200: 1}

    def test_one_column_closed_form_matches_enumeration(self):
        # every skew shape in the box of 12 rows and 3 columns; the ones
        # in one column take the closed form, all others enumerate
        rows = 12
        box = [trim(p) for p in itertools.combinations_with_replacement(
            range(3, -1, -1), rows)]
        sized = [partitions_of(m) for m in range(rows + 1)]
        columns = 0
        for lam, nu in itertools.product(box, box):
            lam_p = lam + (0,) * (rows - len(lam))
            nu_p = nu + (0,) * (rows - len(nu))
            if any(a > b for a, b in zip(lam_p, nu_p)):
                continue
            cells = [(i, c) for i in range(rows)
                     for c in range(lam_p[i], nu_p[i])]
            if len({c for _, c in cells}) > 1:
                assert _column_cells(lam_p, nu_p) is None
                continue
            m = len(cells)
            columns += 1
            assert _column_cells(lam_p, nu_p) == m
            bounds = [None, (1,) * (m + 1), (m + 1,)] + sized[m]
            if m:
                bounds.append((1,) * (m - 1))
            for bound in bounds:
                assert _lr_count(lam, nu, bound) == \
                    _lr_fillings(lam, nu, bound), (lam, nu, bound)
        assert columns == 4550

    def test_symmetry_small_scan(self):
        shapes = [p for size in range(7) for p in partitions_of(size)]
        for lam, mu in itertools.combinations(shapes, 2):
            for nu in partitions_of(sum(lam) + sum(mu)):
                assert lr_coefficient(lam, mu, nu) == \
                    lr_coefficient(mu, lam, nu)

    def test_against_schur_polynomial_identity(self):
        # independent oracle: evaluate s_lam * s_mu = sum c s_nu at
        # integer points, Schur values from the h-determinant
        rng = random.Random(7)
        pairs = [((2, 1), (2, 1)), ((2, 2), (2, 1)), ((3, 1), (2, 2)),
                 ((2, 1, 1), (2, 1)), ((1, 1, 1), (3,))]
        for lam, mu in pairs:
            nus = partitions_of(sum(lam) + sum(mu), max_rows=6)
            coeffs = {nu: lr_coefficient(lam, mu, nu) for nu in nus}
            for _ in range(4):
                xs = [rng.randint(-4, 4) for _ in range(6)]
                lhs = schur_value(lam, xs) * schur_value(mu, xs)
                rhs = sum(c * schur_value(nu, xs)
                          for nu, c in coeffs.items() if c)
                assert lhs == rhs


class TestCupProduct:
    def test_cup_rows_leave_no_reference_cycle(self):
        ctx = GrassmannContext(4, 8)
        gc.collect()
        gc.disable()
        try:
            for ra in range(ctx.dim):
                _lr_rows(ctx, ra)
            # and the rows one cup product reads, dropped when it returns
            cup_product(row_class(ctx, 1), column_class(ctx))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rows_enumerated_once_per_lower_rank(self, monkeypatch):
        ctx = GrassmannContext(3, 6)
        calls = []
        lr_rows = classical._lr_rows

        def counted(ctx, ra):
            calls.append(ra)
            return lr_rows(ctx, ra)

        monkeypatch.setattr(classical, "_lr_rows", counted)
        a = CohomClass(ctx, {r: r - 7 for r in range(ctx.dim)})
        b = class_from_parts(ctx, [((1, 0, 0), 2), ((2, 1, 0), -1)])
        expected = zero_class(ctx)
        for ra, ca in a.terms.items():
            for rb, cb in b.terms.items():
                expected += ca * cb * cup_product(
                    basis_class(ctx, ctx.basis[ra]),
                    basis_class(ctx, ctx.basis[rb]))
        calls.clear()
        assert cup_product(a, b) == expected
        # one enumeration per distinct lower rank of a pair
        assert sorted(calls) == sorted({min(ra, rb) for ra in a.terms
                                        for rb in b.terms})

    def test_s1_squared_g24(self):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        assert cup_product(s1, s1) == \
            class_from_parts(ctx, [((2, 0), 1), ((1, 1), 1)])

    def test_vanishing_product_g24(self):
        ctx = GrassmannContext(2, 4)
        a = basis_class(ctx, (1, 1))
        b = basis_class(ctx, (2, 0))
        assert cup_product(a, b) == zero_class(ctx)

    def test_unit_law(self):
        ctx = GrassmannContext(3, 6)
        a = class_from_parts(ctx, [((3, 2, 1), 2), ((1, 1, 0), -1)])
        assert cup_product(a, unit_class(ctx)) == a

    def test_graded_output(self, ctx_of):
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            for la, lb in itertools.combinations_with_replacement(
                    ctx.basis, 2):
                prod = cup_product(basis_class(ctx, la), basis_class(ctx, lb))
                target = degree(la) + degree(lb)
                for rank in prod.terms:
                    assert degree(ctx.basis[rank]) == target
                    assert target <= ctx.top_degree

    def test_matches_pieri_on_rows(self, ctx_of):
        for k, n in all_contexts(8):
            ctx = ctx_of(k, n)
            for lam in ctx.basis:
                for r in range(0, k + 1):
                    assert cup_product(row_class(ctx, r),
                                       basis_class(ctx, lam)) == \
                        classical_pieri(lam, r, ctx)

    def test_commutative_and_associative(self, ctx_of):
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            classes = [basis_class(ctx, lam) for lam in ctx.basis]
            for a, b in itertools.combinations_with_replacement(classes, 2):
                assert cup_product(a, b) == cup_product(b, a)
            for a, b, c in itertools.combinations_with_replacement(
                    classes, 3):
                assert cup_product(cup_product(a, b), c) == \
                    cup_product(a, cup_product(b, c))


    def test_batched_rows_match_lr_coefficient(self, ctx_of):
        # one enumeration per skew shape nu/lam against one tableau count
        # per triple; triples off the degree sum are 0 on both sides
        for k, n in all_contexts(8):
            ctx = ctx_of(k, n)
            for ra, lam in enumerate(ctx.basis):
                rows = _lr_rows(ctx, ra)
                assert min(rows, default=ra) >= ra
                for rb in range(ra, ctx.dim):
                    mu = ctx.basis[rb]
                    target = degree(lam) + degree(mu)
                    nus = ctx.ranks_by_degree[target] \
                        if target <= ctx.top_degree else ()
                    expected = {nr: lr_coefficient(lam, mu, ctx.basis[nr])
                                for nr in nus}
                    assert dict(rows.get(rb, ())) == \
                        {nr: c for nr, c in expected.items() if c}, \
                        (k, n, lam, mu)


class TestClassicalPieri:
    def test_examples_g24(self):
        ctx = GrassmannContext(2, 4)
        assert classical_pieri((1, 0), 1, ctx) == \
            class_from_parts(ctx, [((2, 0), 1), ((1, 1), 1)])
        assert classical_pieri((2, 1), 2, ctx) == zero_class(ctx)
        assert classical_pieri((2, 1), 0, ctx) == basis_class(ctx, (2, 1))

    def test_coefficients_are_binary(self, ctx_of):
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            for lam in ctx.basis:
                for r in range(1, k + 1):
                    assert set(classical_pieri(lam, r, ctx).terms.values()) \
                        <= {1}

    def test_rows_beyond_the_recursion_limit(self):
        ctx = GrassmannContext(1, 1200)
        assert classical_pieri(ctx.basis[0], 1, ctx) == row_class(ctx, 1)

    def test_term_order_is_lexicographic(self, ctx_of):
        for k, n in all_contexts(7):
            ctx = ctx_of(k, n)
            for lam in ctx.basis:
                for r in range(k + 1):
                    nus = [ctx.basis[t]
                           for t in classical_pieri(lam, r, ctx).terms]
                    assert nus == sorted(nus), (k, n, lam, r)

    def test_leaves_no_reference_cycle(self, ctx_of):
        ctx = ctx_of(3, 7)
        gc.collect()
        gc.disable()
        try:
            for lam in ctx.basis:
                for r in range(ctx.k + 1):
                    classical_pieri(lam, r, ctx)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_range_check(self):
        ctx = GrassmannContext(2, 4)
        with pytest.raises(ValueError):
            classical_pieri((1, 0), 3, ctx)
        with pytest.raises(ValueError):
            classical_pieri((1, 0), -1, ctx)


class TestPairing:
    def test_unit_point(self):
        ctx = GrassmannContext(2, 4)
        assert pairing(unit_class(ctx), point_class(ctx)) == 1

    def test_s1_s1_g24(self):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        assert pairing(s1, s1) == 0

    def test_dual_pair_g24(self):
        ctx = GrassmannContext(2, 4)
        assert pairing(basis_class(ctx, (2, 1)), basis_class(ctx, (1, 0))) == 1

    def test_basis_orthogonality(self, ctx_of):
        from qgr.partitions import poincare_dual
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            for la in ctx.basis:
                for lb in ctx.basis:
                    expected = 1 if lb == poincare_dual(la, k) else 0
                    assert pairing(basis_class(ctx, la),
                                   basis_class(ctx, lb)) == expected

    def test_symmetric(self):
        ctx = GrassmannContext(2, 5)
        rng = random.Random(11)
        for _ in range(20):
            a = CohomClass(ctx, {r: rng.randint(-3, 3)
                                 for r in range(ctx.dim)})
            b = CohomClass(ctx, {r: rng.randint(-3, 3)
                                 for r in range(ctx.dim)})
            assert pairing(a, b) == pairing(b, a)

    def test_frobenius_property(self, ctx_of):
        rng = random.Random(23)
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            for _ in range(40):
                a, b, c = (basis_class(ctx, ctx.basis[rng.randrange(ctx.dim)])
                           for _ in range(3))
                assert pairing(cup_product(a, b), c) == \
                    pairing(a, cup_product(b, c))
