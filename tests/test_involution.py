import random

from qgr.classical import (CohomClass, basis_class, class_from_parts,
                           pairing, point_class, rank_map, relabel,
                           row_class, terms_json, unit_class)
from qgr.involution import (bar, verify_dual_product_identity,
                            verify_duality_identities,
                            verify_involution_factorization,
                            verify_product_automorphism)
from qgr.partitions import (GrassmannContext, bar_involution, degree,
                            poincare_dual, trim)
from qgr.quantum import c_apply, quantum_pieri_invariant, quantum_product

from conftest import all_contexts, with_terms


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


def _invariant_duality_reference(ctx, table, samples, seed):
    """Triple failures of verify_dual_product_identity, one at a time."""
    def dual(lam):
        return poincare_dual(lam, ctx.k)

    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        ranks = [rng.randrange(ctx.dim) for _ in range(3)]
        a, b, c = (basis_class(ctx, ctx.basis[r]) for r in ranks)
        lhs = pairing(quantum_product(a, c, table=table), b)
        rhs = pairing(quantum_product(relabel(a, dual), relabel(c, dual),
                                      table=table), bar(b))
        if lhs != rhs:
            failures.append({"identity": "invariant_duality",
                             "triple": [list(trim(ctx.basis[r]))
                                        for r in ranks],
                             "lhs": lhs, "rhs": rhs})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return failures


def _stored_terms(table):
    """(ra, rb, target) of every term of a pair ra <= rb, in rank order."""
    dim = table.ctx.dim
    return [(ra, rb, t) for ra in range(dim) for rb in range(ra, dim)
            for t, _ in table.product_ranks(ra, rb)]


def _corrupted(table, term):
    """A copy of the table with the coefficient of one term raised by 1.

    term is (ra, rb, target); both orders of the pair change.
    """
    ra, rb, t = term
    return with_terms(table, {(ra, rb, t): 1, (rb, ra, t): 1})


def _automorphism_reference(ctx, table):
    """Failures of verify_product_automorphism, one pair at a time."""
    failures = []
    for ra in range(ctx.dim):
        for rb in range(ra, ctx.dim):
            a = basis_class(ctx, ctx.basis[ra])
            b = basis_class(ctx, ctx.basis[rb])
            lhs = bar(quantum_product(a, b, table=table))
            rhs = quantum_product(bar(a), bar(b), table=table)
            if lhs != rhs:
                failures.append({"pair": [list(trim(ctx.basis[ra])),
                                          list(trim(ctx.basis[rb]))],
                                 "lhs": terms_json(lhs),
                                 "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: f["pair"])
    return failures


def _row_invariant_reference(ctx, table):
    """Row-invariant failures of verify_duality_identities, per triple."""
    failures = []
    for a in ctx.basis:
        for s in ctx.basis:
            prod = quantum_product(basis_class(ctx, poincare_dual(a, ctx.k)),
                                   basis_class(ctx, poincare_dual(s, ctx.k)),
                                   table=table)
            for r in range(1, ctx.k + 1):
                lhs = quantum_pieri_invariant(a, s, r, ctx)
                rhs = pairing(prod, bar(row_class(ctx, r)))
                if lhs != rhs:
                    failures.append({"identity": "row_invariant_duality",
                                     "a": list(trim(a)), "s": list(trim(s)),
                                     "r": r, "lhs": lhs, "rhs": rhs})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return failures


def _dual_product_reference(ctx, table):
    """Ordered-pair failures of verify_dual_product_identity, per pair."""
    def dual(lam):
        return poincare_dual(lam, ctx.k)

    failures = []
    for ra in range(ctx.dim):
        for rc in range(ctx.dim):
            a = basis_class(ctx, ctx.basis[ra])
            c = basis_class(ctx, ctx.basis[rc])
            lhs = relabel(quantum_product(a, c, table=table), dual)
            rhs = quantum_product(relabel(a, dual), bar(c), table=table)
            if lhs != rhs:
                failures.append({"identity": "dual_product",
                                 "a": list(trim(ctx.basis[ra])),
                                 "c": list(trim(ctx.basis[rc])),
                                 "lhs": terms_json(lhs),
                                 "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: (f["identity"], str(f)))
    return failures


class TestFailureRecords:
    """Suites run per diagram must report what a per-pair loop reports."""

    CONTEXTS = [(2, 4), (2, 5), (3, 6)]

    def test_product_automorphism(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            terms = _stored_terms(table)
            bad = _corrupted(table, terms[len(terms) // 3])
            report = verify_product_automorphism(ctx, table=bad)
            expected = _automorphism_reference(ctx, bad)
            assert expected and report.failures == expected, (k, n)
            assert report.checked == ctx.dim * (ctx.dim + 1) // 2

    def test_duality_identities(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            # only the targets dual(bar (r)) enter the row invariants
            read = set()
            for r in range(1, k + 1):
                (t, _), = bar(row_class(ctx, r)).sorted_terms()
                read.add(ctx.rank(poincare_dual(ctx.basis[t], k)))
            bad = _corrupted(table, next(term for term in _stored_terms(table)
                                         if term[2] in read))
            report = verify_duality_identities(ctx, table=bad)
            expected = _row_invariant_reference(ctx, bad)
            assert expected and report.failures == expected, (k, n)
            assert report.checked == ctx.dim + ctx.dim ** 2 * k

    def test_dual_product_identity(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            terms = _stored_terms(table)
            bad = _corrupted(table, terms[len(terms) // 2])
            report = verify_dual_product_identity(ctx, samples=0, table=bad)
            expected = _dual_product_reference(ctx, bad)
            assert expected and report.failures == expected, (k, n)
            assert report.checked == ctx.dim ** 2

    def test_invariant_duality(self, ctx_of, table_of):
        for k, n in [(2, 5), (3, 6), (3, 7)]:
            ctx, table = ctx_of(k, n), table_of(k, n)
            # raise the term read by the first seeded triple (A, B, C)
            # with <A, C, B> = 1: dual B in A * C
            rng = random.Random(k * n)
            while True:
                ra, rb, rc = (rng.randrange(ctx.dim) for _ in range(3))
                dual_b = ctx.rank(poincare_dual(ctx.basis[rb], k))
                if dual_b in dict(table.product_ranks(ra, rc)):
                    break
            bad = _corrupted(table, (ra, rc, dual_b))
            report = verify_dual_product_identity(ctx, samples=1000,
                                                  seed=k * n, table=bad)
            failures = [f for f in report.failures
                        if f["identity"] == "invariant_duality"]
            expected = _invariant_duality_reference(ctx, bad, 1000, k * n)
            assert expected and failures == expected, (k, n)
            assert report.checked == ctx.dim ** 2 + 1000


class TestRelabelFailureRecords:
    """One term changed in one order of a pair below the diagonal.

    The suites compare each ordered pair with its image under a relabel
    of the table.  The change goes once into a pair whose image lies
    above the diagonal and once into one whose image lies below it, as
    an added term, a deleted term and a raised coefficient; each report
    must equal the per-pair reference.
    """

    CONTEXTS = [(2, 4), (2, 5), (3, 6)]

    @staticmethod
    def changes(ctx, table, image):
        """(changes, image above the diagonal) for the first pair r > j
        in rank order whose image (image(r, j)) lies above the diagonal,
        and for the first whose image lies below it."""
        found = {}
        for r in range(ctx.dim):
            for j in range(r):
                ir, ij = image(r, j)
                if ir != ij:
                    found.setdefault(ir < ij, (r, j))
        assert set(found) == {True, False}
        for above, (r, j) in sorted(found.items()):
            terms = dict(table.product_ranks(r, j))
            first = min(terms)
            absent = min(set(range(ctx.dim)) - set(terms))
            for change in ({(r, j, absent): 1}, {(r, j, first): -terms[first]},
                           {(r, j, first): 1}):
                yield change, above

    def test_product_automorphism(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            bar_rank = rank_map(ctx, lambda lam: bar_involution(lam, k))
            for change, above in self.changes(
                    ctx, table, lambda r, j: (bar_rank[r], bar_rank[j])):
                bad = with_terms(table, change)
                report = verify_product_automorphism(ctx, table=bad)
                expected = _automorphism_reference(ctx, bad)
                # the suite reads the pairs mu >= lam: the changed pair
                # only as the image of the pair above the diagonal
                assert bool(expected) == above, (k, n, change)
                assert report.failures == expected, (k, n, change)

    def test_dual_product_identity(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            dual_rank = rank_map(ctx, lambda lam: poincare_dual(lam, k))
            bar_rank = rank_map(ctx, lambda lam: bar_involution(lam, k))
            for change, _ in self.changes(
                    ctx, table, lambda r, j: (dual_rank[r], bar_rank[j])):
                bad = with_terms(table, change)
                report = verify_dual_product_identity(ctx, samples=0,
                                                      table=bad)
                expected = _dual_product_reference(ctx, bad)
                assert expected and report.failures == expected, \
                    (k, n, change)
