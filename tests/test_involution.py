import random

import pytest

from qgr.classical import (CohomClass, basis_class, class_from_parts,
                           point_class, relabel, row_class, unit_class)
from qgr.involution import (bar, verify_dual_product_identity,
                            verify_duality_identities,
                            verify_involution_factorization,
                            verify_product_automorphism)
from qgr.partitions import GrassmannContext, degree, poincare_dual
from qgr.quantum import c_apply, quantum_product

from conftest import all_contexts


class TestBar:
    def test_fixes_unit(self):
        ctx = GrassmannContext(2, 4)
        assert bar(unit_class(ctx)) == unit_class(ctx)

    def test_termwise_relabel(self):
        ctx = GrassmannContext(2, 4)
        a = row_class(ctx, 1) + row_class(ctx, 2)
        assert bar(a) == class_from_parts(ctx, [((2, 1), 1), ((1, 1), 1)])

    def test_involutive_on_random_classes(self):
        ctx = GrassmannContext(2, 5)
        rng = random.Random(5)
        for _ in range(20):
            a = CohomClass(ctx, {r: rng.randint(-4, 4)
                                 for r in range(ctx.dim)})
            assert bar(bar(a)) == a

    def test_relabel_identities_on_dense_classes(self, ctx_of, table_of):
        rng = random.Random(7)
        for k, n in all_contexts(6):
            ctx, table = ctx_of(k, n), table_of(k, n)

            def dual(x):
                return relabel(x, lambda lam: poincare_dual(lam, k))

            def dense():
                return CohomClass(ctx, {r: rng.randint(-4, 4)
                                        for r in range(ctx.dim)})

            for _ in range(3):
                a, c = dense(), dense()
                ac = quantum_product(a, c, table=table)
                assert bar(ac) == quantum_product(bar(a), bar(c),
                                                  table=table), (k, n)
                assert dual(ac) == quantum_product(dual(a), bar(c),
                                                   table=table), (k, n)
                assert bar(a) == dual(c_apply(a, k)), (k, n)
                j = rng.randrange(n + 1)
                assert c_apply(c_apply(a, j), n - j) == a, (k, n, j)

    def test_linear(self):
        ctx = GrassmannContext(3, 6)
        a = basis_class(ctx, (3, 1, 0))
        b = basis_class(ctx, (2, 2, 1))
        assert bar(a + 2 * b) == bar(a) + 2 * bar(b)

    def test_degree_reversal_mod_n(self, ctx_of):
        for k, n in all_contexts(8):
            ctx = ctx_of(k, n)
            for lam in ctx.basis:
                image = bar(basis_class(ctx, lam))
                (rank, _), = image.sorted_terms()
                assert (degree(ctx.basis[rank]) + degree(lam)) % n == 0

    def test_point_image_degree(self, ctx_of):
        for k, n in all_contexts(8):
            ctx = ctx_of(k, n)
            image = bar(point_class(ctx))
            (rank, _), = image.sorted_terms()
            expected = n * min(k, ctx.l) - ctx.top_degree
            assert degree(ctx.basis[rank]) == expected


class TestFactorization:
    def test_g24_table(self):
        # sigma_1 goes to (2,1) both ways, the unit stays put
        ctx = GrassmannContext(2, 4)
        report = verify_involution_factorization(ctx)
        assert report.ok and report.checked == 6

    def test_line_contexts(self):
        for n in range(2, 13):
            assert verify_involution_factorization(
                GrassmannContext(1, n)).ok

    def test_all_small(self, ctx_of):
        for k, n in all_contexts(8):
            assert verify_involution_factorization(ctx_of(k, n)).ok


class TestProductAutomorphism:
    def test_g24_hand_pair(self, table_of):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        lhs = bar(quantum_product(s1, s1))
        assert lhs == class_from_parts(ctx, [((1, 1), 1), ((2, 0), 1)])
        hook = basis_class(ctx, (2, 1))
        assert lhs == quantum_product(hook, hook)

    def test_identity_pair(self, table_of):
        ctx = GrassmannContext(2, 5)
        a = basis_class(ctx, (2, 2, 1))
        assert bar(quantum_product(a, unit_class(ctx))) == \
            quantum_product(bar(a), bar(unit_class(ctx)))

    def test_g36_exhaustive(self, ctx_of, table_of):
        report = verify_product_automorphism(ctx_of(3, 6),
                                             table=table_of(3, 6))
        assert report.ok and report.checked == 210

    def test_exhaustive_all_small(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            report = verify_product_automorphism(ctx_of(k, n),
                                                 table=table_of(k, n))
            assert report.ok, (k, n)
            dim = ctx_of(k, n).dim
            assert report.checked == dim * (dim + 1) // 2

    def test_line_contexts_all_suites(self, ctx_of, table_of):
        for n in range(9, 13):
            ctx, table = ctx_of(1, n), table_of(1, n)
            assert verify_involution_factorization(ctx).ok
            assert verify_product_automorphism(ctx, table=table).ok
            assert verify_duality_identities(ctx, table=table).ok
            assert verify_dual_product_identity(ctx, samples=100,
                                                table=table).ok

    def test_sampled_mode_deterministic(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 5), table_of(2, 5)
        r1 = verify_product_automorphism(ctx, mode="sampled", samples=50,
                                         seed=99, table=table)
        r2 = verify_product_automorphism(ctx, mode="sampled", samples=50,
                                         seed=99, table=table)
        assert r1.ok and r1.checked == 50
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_unknown_mode(self, ctx_of):
        with pytest.raises(ValueError):
            verify_product_automorphism(ctx_of(2, 4), mode="everything")


class TestDualityIdentities:
    def test_all_small(self, ctx_of, table_of):
        for k, n in all_contexts(6):
            report = verify_duality_identities(ctx_of(k, n),
                                               table=table_of(k, n))
            assert report.ok
            dim = ctx_of(k, n).dim
            assert report.checked == dim + dim * dim * k

    def test_shift_commutation_spot(self):
        from qgr.partitions import c_shift
        ctx = GrassmannContext(2, 4)
        lam = (1, 0)
        lhs = poincare_dual(c_shift(lam, 2, 2, 4), 2)
        rhs = c_shift(poincare_dual(lam, 2), 2, 2, 4)
        assert lhs == rhs


class TestDualProductIdentity:
    def test_unit_case(self, table_of):
        # C = unit reduces the first identity to linearity of the dual
        ctx = GrassmannContext(2, 4)
        a = basis_class(ctx, (2, 1))
        lhs = quantum_product(a, unit_class(ctx))
        assert poincare_dual((2, 1), 2) == (1, 0)
        assert lhs.coefficient((2, 1)) == 1

    def test_g24_hand_case(self, table_of):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        col = basis_class(ctx, (1, 1))
        prod = quantum_product(s1, col)
        assert prod == basis_class(ctx, (2, 1))
        dual_of_product = basis_class(ctx, poincare_dual((2, 1), 2))
        twisted = quantum_product(basis_class(ctx, (2, 1)),
                                  bar(col))
        assert bar(col) == basis_class(ctx, (2, 0))
        assert twisted == dual_of_product == basis_class(ctx, (1, 0))

    def test_exhaustive_small(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            report = verify_dual_product_identity(ctx_of(k, n), samples=200,
                                                  table=table_of(k, n))
            assert report.ok, (k, n)

    def test_g25_first_identity(self, ctx_of, table_of):
        report = verify_dual_product_identity(ctx_of(2, 5), samples=0,
                                              table=table_of(2, 5))
        assert report.ok and report.checked == 100


class TestReportShape:
    def test_json_schema(self, ctx_of):
        report = verify_involution_factorization(ctx_of(2, 4))
        doc = report.to_json_dict()
        assert set(doc) == {"suite", "ctx", "checked", "failures"}
        assert doc["ctx"] == {"k": 2, "n": 4}
        assert doc["suite"] == "involution_factorization"
        assert doc["checked"] == 6 and doc["failures"] == []
