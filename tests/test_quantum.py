import itertools
import random

import numpy as np
import pytest

from qgr import classical, partitions, quantum, spectrum
from qgr.classical import (CohomClass, basis_class, class_from_parts,
                           classical_pieri, column_class, cup_product,
                           lr_coefficient, point_class, row_class,
                           terms_json, unit_class, zero_class)
from qgr.partitions import (GrassmannContext, c_shift, degree,
                            poincare_dual, trim)
from qgr.quantum import (DEFAULT_SEED, GWRecord, _basis_product,
                         _product_via_giambelli, build_table, c_apply,
                         giambelli_expand, gw_invariant, gw_record,
                         quantum_pieri_invariant, quantum_pieri_product,
                         quantum_product, verify_associativity,
                         verify_commutativity, verify_cyclic,
                         verify_giambelli, verify_grading,
                         verify_pieri_consistency)
from qgr.spectrum import verify_certificate

from conftest import all_contexts, with_extra_targets, with_terms


class TestPieriInvariant:
    def test_quantum_case(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_invariant((2, 2), (2, 1), 1, ctx) == 1

    def test_classical_case(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_invariant((1, 0), (1, 0), 2, ctx) == 1

    def test_degree_obstruction(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_invariant((1, 0), (1, 0), 1, ctx) == 0

    def test_row_range(self):
        ctx = GrassmannContext(2, 4)
        with pytest.raises(ValueError):
            quantum_pieri_invariant((1, 0), (1, 0), 0, ctx)
        with pytest.raises(ValueError):
            quantum_pieri_invariant((1, 0), (1, 0), 3, ctx)

    def test_projective_line_square(self):
        ctx = GrassmannContext(1, 2)
        assert quantum_pieri_invariant((1,), (1,), 1, ctx) == 1


class TestPieriProduct:
    def test_s1_squared(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_product(1, row_class(ctx, 1)) == \
            class_from_parts(ctx, [((2, 0), 1), ((1, 1), 1)])

    def test_quantum_drop_to_unit(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_product(2, basis_class(ctx, (1, 1))) == \
            unit_class(ctx)

    def test_point_times_row(self):
        ctx = GrassmannContext(2, 4)
        assert quantum_pieri_product(1, basis_class(ctx, (2, 2))) == \
            basis_class(ctx, (1, 0))

    def test_r_zero_identity(self):
        ctx = GrassmannContext(2, 4)
        a = class_from_parts(ctx, [((2, 1), 2), ((1, 0), -1)])
        assert quantum_pieri_product(0, a) == a

    def test_binary_coefficients_and_top_part(self, ctx_of):
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            for lam in ctx.basis:
                for r in range(1, k + 1):
                    prod = quantum_pieri_product(r, basis_class(ctx, lam))
                    assert set(prod.terms.values()) <= {1}
                    top = prod.homogeneous_part(degree(lam) + r)
                    assert top == classical_pieri(lam, r, ctx)


class TestPieriMatrix:
    def test_matches_the_invariant_on_every_triple(self, ctx_of):
        # l = 1 and k = 1 contexts included, where the shifted slices
        # of the array rule are empty
        for k, n in all_contexts(9) + [(5, 10)]:
            ctx = ctx_of(k, n)
            duals = [poincare_dual(t, k) for t in ctx.basis]
            for r in range(1, k + 1):
                ptr, targets = quantum._pieri_matrix(ctx, r)
                assert ptr.shape == (ctx.dim + 1,) and ptr[0] == 0
                assert targets.dtype == np.int32
                for rank, lam in enumerate(ctx.basis):
                    row = targets[ptr[rank]:ptr[rank + 1]].tolist()
                    assert row == [t for t, dual in enumerate(duals)
                                   if quantum_pieri_invariant(lam, dual, r,
                                                              ctx)], \
                        (k, n, r, lam)

    def test_memoized_read_only(self, ctx_of):
        ctx = ctx_of(3, 6)
        ptr, targets = quantum._pieri_matrix(ctx, 2)
        assert quantum._pieri_matrix(ctx, 2)[1] is targets
        with pytest.raises(ValueError):
            targets[0] = 0
        with pytest.raises(ValueError):
            ptr[0] = 1

    def test_range_check(self, ctx_of):
        for r in (0, 4):
            with pytest.raises(ValueError):
                quantum._pieri_matrix(ctx_of(3, 6), r)


class TestGiambelli:
    def test_two_row_column(self):
        assert giambelli_expand((1, 1), 2) == [(-1, (2,)), (1, (1, 1))]

    def test_hook_truncated_by_box(self):
        assert giambelli_expand((2, 1), 2) == [(1, (2, 1))]

    def test_single_row(self):
        assert giambelli_expand((2, 0), 2) == [(1, (2,))]

    def test_empty(self):
        assert giambelli_expand((0, 0), 2) == [(1, ())]

    def test_long_column_is_one_monomial(self):
        # entries (i, j) with j < i - 1 have negative length
        assert giambelli_expand((1,) * 300, 1) == [(1, (1,) * 300)]

    def test_quantum_evaluation_recovers_basis(self, ctx_of):
        for k, n in all_contexts(6):
            assert verify_giambelli(ctx_of(k, n)).ok


class TestQuantumProduct:
    def test_hook_squared_g24(self):
        ctx = GrassmannContext(2, 4)
        a = basis_class(ctx, (2, 1))
        assert quantum_product(a, a) == \
            class_from_parts(ctx, [((2, 0), 1), ((1, 1), 1)])

    def test_point_squared_g24(self):
        ctx = GrassmannContext(2, 4)
        p = point_class(ctx)
        assert quantum_product(p, p) == unit_class(ctx)

    def test_unit_law(self):
        ctx = GrassmannContext(3, 6)
        a = class_from_parts(ctx, [((3, 2, 1), 4), ((1, 1, 1), -2)])
        assert quantum_product(a, unit_class(ctx)) == a
        assert quantum_product(a, zero_class(ctx)) == zero_class(ctx)

    def test_bilinear(self):
        ctx = GrassmannContext(2, 5)
        rng = random.Random(3)
        for _ in range(10):
            a, b, c = (basis_class(ctx, ctx.basis[rng.randrange(ctx.dim)])
                       for _ in range(3))
            assert quantum_product(a + 2 * b, c) == \
                quantum_product(a, c) + 2 * quantum_product(b, c)

    def test_context_mismatch(self):
        a = unit_class(GrassmannContext(2, 4))
        b = unit_class(GrassmannContext(2, 5))
        with pytest.raises(ValueError, match="context mismatch"):
            quantum_product(a, b)

    def test_table_and_direct_agree(self, ctx_of, table_of):
        # G(2,6), G(3,6) and G(4,8) have shift orbits shorter than n; at
        # G(1,9) no multiplication matrix is derived from its orbit's
        # first, at G(8,9) all but two are
        for k, n in [(2, 5), (2, 6), (3, 6), (4, 8), (1, 9), (8, 9)]:
            ctx, table = ctx_of(k, n), table_of(k, n)
            for la, lb in itertools.product(ctx.basis, repeat=2):
                a, b = basis_class(ctx, la), basis_class(ctx, lb)
                assert quantum_product(a, b, table=table) == \
                    quantum_product(a, b), (k, n, la, lb)


class TestRingSuites:
    def test_commutativity_small(self, ctx_of, table_of):
        for k, n in all_contexts(6):
            ctx = ctx_of(k, n)
            # a sample as large as the basis pairs takes every one
            report = verify_commutativity(ctx, table=table_of(k, n),
                                          samples=ctx.dim ** 2)
            assert report.ok and report.checked == ctx.dim * (ctx.dim + 1) // 2

    def test_associativity_small(self, ctx_of, table_of):
        for k, n in all_contexts(6):
            report = verify_associativity(ctx_of(k, n), samples=300,
                                          table=table_of(k, n))
            assert report.ok and report.checked == 300

    def test_grading_and_classical_part(self, ctx_of, table_of):
        for k, n in all_contexts(6):
            assert verify_grading(ctx_of(k, n), table=table_of(k, n)).ok

    def test_grading_leaves_the_cup_memo_as_it_was(self, ctx_of, table_of):
        ctx, table = ctx_of(3, 7), table_of(3, 7)
        expected = cup_product(row_class(ctx, 1), row_class(ctx, 2))
        assert verify_grading(ctx, table=table).ok
        assert cup_product(row_class(ctx, 1), row_class(ctx, 2)) == expected
        # cup products keep no memo for grading to fill or go stale
        assert not hasattr(classical, "_CUP_CACHE")

    def test_pieri_consistency(self, ctx_of):
        for k, n in all_contexts(6):
            assert verify_pieri_consistency(ctx_of(k, n)).ok

    def test_commutativity_checks_the_table(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        plain = verify_commutativity(ctx, table=table)
        assert plain.ok
        point = ctx.rank((2, 2))
        bad = with_terms(table, {(point, point, 0): 1})
        report = verify_commutativity(ctx, table=bad)
        assert report.checked == plain.checked
        assert [f["pair"] for f in report.failures] == [[[2, 2], [2, 2]]]
        assert report.failures[0]["table"] == [{"p": [], "c": 2}]
        assert report.failures[0]["giambelli"] == [{"p": [], "c": 1}]

    def test_commutativity_checks_each_order(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        a, b = ctx.rank((1, 0)), ctx.rank((2, 0))
        # (2) * (1) gains a second (2,1); (1) * (2) is left as it is
        bad = with_terms(table, {(b, a, ctx.rank((2, 1))): 1})
        report = verify_commutativity(ctx, table=bad)
        assert report.failures == [{"pair": [[2], [1]],
                                    "table": [{"p": [2, 1], "c": 2}],
                                    "giambelli": [{"p": [2, 1], "c": 1}]}]
        assert report.failures == _commutativity_reference(ctx, bad)

    def test_commutativity_draws_distinct_seeded_pairs(self, ctx_of, table_of,
                                                       monkeypatch):
        ctx, table = ctx_of(4, 9), table_of(4, 9)
        calls = []
        expand = quantum._product_via_giambelli

        def counted(ctx, ra, rb):
            calls.append((ra, rb))
            return expand(ctx, ra, rb)

        monkeypatch.setattr(quantum, "_product_via_giambelli", counted)
        drawn = []
        for seed in (7, 7, 8):
            calls.clear()
            report = verify_commutativity(ctx, table=table, samples=30,
                                          seed=seed)
            assert report.ok and report.checked == 30
            # each pair ra <= rb expanded both ways round, in turn
            pairs = calls[::2]
            assert calls[1::2] == [(rb, ra) for ra, rb in pairs]
            assert len(set(pairs)) == 30 and all(a <= b for a, b in pairs)
            drawn.append(pairs)
        assert drawn[0] == drawn[1] != drawn[2]


def _commutativity_reference(ctx, table):
    """Failures of verify_commutativity against a table, pair by pair.

    Every pair, as a sample that holds them all; the table is read in
    both orders of each pair.
    """
    failures = []
    for ra in range(ctx.dim):
        for rb in range(ra, ctx.dim):
            pair = [list(trim(ctx.basis[ra])), list(trim(ctx.basis[rb]))]
            ab = _product_via_giambelli(ctx, ra, rb)
            ba = _product_via_giambelli(ctx, rb, ra)
            if ab != ba:
                failures.append({"pair": pair,
                                 "lhs": terms_json(CohomClass(ctx, ab)),
                                 "rhs": terms_json(CohomClass(ctx, ba))})
            orders = [(ra, rb, ab)] if ra == rb else [(ra, rb, ab),
                                                      (rb, ra, ba)]
            for x, y, expanded in orders:
                stored = dict(table.product_ranks(x, y))
                if stored != expanded:
                    failures.append({
                        "pair": [list(trim(ctx.basis[x])),
                                 list(trim(ctx.basis[y]))],
                        "table": terms_json(CohomClass(ctx, stored)),
                        "giambelli": terms_json(CohomClass(ctx, expanded))})
    failures.sort(key=lambda f: f["pair"])
    return failures


def _changed_pairs(ctx, table, true):
    """Ordered pairs of diagrams whose stored product is not the true one."""
    return {(trim(ctx.basis[ra]), trim(ctx.basis[rb]))
            for ra in range(ctx.dim) for rb in range(ctx.dim)
            if table.product_ranks(ra, rb) != true.product_ranks(ra, rb)}


def _named_pairs(report):
    """The ordered pairs of diagrams a report's failures name."""
    return {tuple(map(tuple, f["pair"])) for f in report.failures}


def _scalar_rows(report):
    """(diagram, r) of the pieri_consistency records of a scalar row that
    is not the array row."""
    return {(tuple(f["lam"]), f["r"]) for f in report.failures
            if "scalar" in f}


class TestCommutativityFailureRecords:
    def test_corrupted_pieri_row_with_true_table(self, monkeypatch):
        pieri_row = quantum._pieri_row

        def corrupted(ctx, r, rank):
            # (1) times the fourth diagram gains one more target
            row = pieri_row(ctx, r, rank)
            return row + (ctx.dim - 1,) if (r, rank) == (1, 3) else row

        for k, n in [(2, 5), (3, 6)]:
            ctx = GrassmannContext(k, n)
            table = build_table(ctx)    # from the true Pieri rows
            with monkeypatch.context() as patch:
                # only the Giambelli side sees the corrupted row
                patch.setattr(quantum, "_pieri_row", corrupted)
                report = verify_commutativity(ctx, table=table,
                                              samples=ctx.dim ** 2)
                expected = _commutativity_reference(ctx, table)
                pieri = verify_pieri_consistency(ctx)
            kinds = {tuple(sorted(f)) for f in expected}
            assert kinds == {("giambelli", "pair", "table"),
                             ("lhs", "pair", "rhs")}, (k, n)
            assert report.failures == expected, (k, n)
            assert report.checked == ctx.dim * (ctx.dim + 1) // 2
            assert _scalar_rows(pieri) == {(trim(ctx.basis[3]), 1)}
            assert verify_certificate(ctx, table=table).ok

    def test_noncommuting_pieri_rows_with_true_table(self, monkeypatch):
        pieri_row = quantum._pieri_row

        def corrupted(ctx, r, rank):
            # (1) times the unit gains (2,2): P_1 and P_2 no longer commute
            row = pieri_row(ctx, r, rank)
            return (tuple(sorted(row + (ctx.rank((2, 2)),)))
                    if (r, rank) == (1, 0) else row)

        ctx = GrassmannContext(2, 4)
        table = build_table(ctx)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_pieri_row", corrupted)
            report = verify_commutativity(ctx, table=table)
            expected = _commutativity_reference(ctx, table)
            pieri = verify_pieri_consistency(ctx)
        assert expected and report.failures == expected
        # the scalar row of the unit is no longer the array row
        assert [f for f in pieri.failures if "scalar" in f] == [
            {"lam": [], "r": 1,
             "scalar": [{"p": [1], "c": 1}, {"p": [2, 2], "c": 1}],
             "array": [{"p": [1], "c": 1}]}]

    def test_corrupted_pieri_matrix_reported_against_giambelli(
            self, monkeypatch):
        pieri_matrix = quantum._pieri_matrix

        def corrupted(ctx, r):
            # (1) times (2) gains (1,1,1): of the right degree, so the
            # build accepts it at G(2,5), and only the table sees it
            matrix = pieri_matrix(ctx, r)
            extra = {ctx.rank((2, 0, 0)): (ctx.rank((1, 1, 1)),)}
            return with_extra_targets(matrix, extra) if r == 1 else matrix

        ctx = GrassmannContext(2, 5)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_pieri_matrix", corrupted)
            table = build_table(ctx)
            pieri = verify_pieri_consistency(ctx)
        true = build_table(ctx)
        assert table != true
        # the certificate names every pair the corruption changed
        report = verify_certificate(ctx, table=table)
        assert _named_pairs(report) == _changed_pairs(ctx, table, true)
        # the scalar row of (2), which mul and gw read, is the true one
        assert _scalar_rows(pieri) == {((2,), 1)}
        report = verify_commutativity(ctx, table=table, samples=ctx.dim ** 2)
        expected = _commutativity_reference(ctx, table)
        assert {tuple(sorted(f)) for f in expected} == \
            {("giambelli", "pair", "table")}
        assert report.failures == expected

        # at G(3,6) the same row makes a later column of the build
        # negative, and every column is checked
        monkeypatch.setattr(quantum, "_pieri_matrix", corrupted)
        with pytest.raises(ArithmeticError,
                           match=r"invalid structure constant -1 at "
                                 r"\(0, 0, 0\) in product \(2, 2, 0\) \* "
                                 r"\(2, 0, 0\)"):
            build_table(GrassmannContext(3, 6))

    def test_derived_orbit_mates_reach_the_oracle(self, monkeypatch):
        pieri_matrix = quantum._pieri_matrix

        def corrupted(ctx, r):
            # (3) times (1) gains (2,2), of the right degree; at G(6,8)
            # only (3) reads the row class (3), and (3) is the first of
            # its shift orbit, so the build inverts it and copies the
            # rest of the orbit from it
            matrix = pieri_matrix(ctx, r)
            extra = {ctx.rank((1, 0)): (ctx.rank((2, 2)),)}
            return with_extra_targets(matrix, extra) if r == 3 else matrix

        ctx = GrassmannContext(6, 8)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_pieri_matrix", corrupted)
            table = build_table(ctx)
        three = ctx.rank((3, 0))
        orbit = {ctx.rank(c_shift(ctx.basis[three], s, ctx.k, ctx.n))
                 for s in range(ctx.n)}
        assert len(orbit) == 4 and min(orbit) == three
        report = verify_certificate(ctx, table=table)
        named = _named_pairs(report)
        assert named == _changed_pairs(ctx, table, build_table(ctx))
        assert {ctx.rank(ctx.validate(lam)) for lam, _ in named} == orbit

    def test_corrupted_entry_in_the_last_partial_block(self, ctx_of,
                                                        table_of):
        # dim 126 at G(4,9) is not a multiple of the diagrams per chunk
        # of the characters mod p, so the last chunk is partial; one
        # corrupted pair lies in the last column, one in the last
        # diagram's slice
        ctx, table = ctx_of(4, 9), table_of(4, 9)
        per_chunk = spectrum._CHUNK_BYTES // (8 * ctx.dim * 4 * 4)
        assert ctx.dim % per_chunk
        a, b = ctx.rank((2, 1, 0, 0, 0)), ctx.rank((3, 3, 1, 0, 0))
        last = ctx.dim - 1
        target = dict(table.product_ranks(a, last))
        bad = with_terms(table, {(a, last, min(target)): 1,
                                 (last, b, 0): 1})
        report = verify_certificate(ctx, table=bad)
        assert _named_pairs(report) == {
            (trim(ctx.basis[a]), trim(ctx.basis[last])),
            (trim(ctx.basis[last]), trim(ctx.basis[b]))}


def _grading_reference(ctx, table):
    """Failures of verify_grading, pair by pair, cup by lr_coefficient."""
    failures = []
    for ra in range(ctx.dim):
        for rb in range(ra, ctx.dim):
            lam, mu = ctx.basis[ra], ctx.basis[rb]
            total = degree(lam) + degree(mu)
            prod = quantum_product(basis_class(ctx, lam),
                                   basis_class(ctx, mu), table=table)
            bad_degree = [t for t in prod.terms
                          if degree(ctx.basis[t]) > total
                          or (total - degree(ctx.basis[t])) % ctx.n]
            top = prod.homogeneous_part(total)
            cup = CohomClass(ctx, {t: lr_coefficient(lam, mu, ctx.basis[t])
                                   for t in range(ctx.dim)
                                   if degree(ctx.basis[t]) == total})
            if bad_degree or top != cup:
                failures.append({"pair": [list(trim(lam)), list(trim(mu))],
                                 "bad_degree": [list(trim(ctx.basis[t]))
                                                for t in sorted(bad_degree)],
                                 "top": terms_json(top),
                                 "cup": terms_json(cup)})
    failures.sort(key=lambda f: f["pair"])
    return failures


def _stored_terms(ctx, table):
    """(ra, rb, target, coefficient) of every term of a pair ra <= rb."""
    return [(ra, rb, t, c) for ra in range(ctx.dim)
            for rb in range(ra, ctx.dim)
            for t, c in table.product_ranks(ra, rb)]


def _both_orders(ra, rb, changes):
    """with_terms changes {target: amount} for both orders of a pair."""
    return {(x, y, t): d for x, y in [(ra, rb), (rb, ra)]
            for t, d in changes.items()}


class TestGradingFailureRecords:
    """The per-diagram mask must report what a per-pair loop reports."""

    CONTEXTS = [(2, 4), (2, 5), (3, 6)]

    def _check(self, ctx, bad):
        report = verify_grading(ctx, table=bad)
        expected = _grading_reference(ctx, bad)
        assert expected and report.failures == expected, ctx
        assert report.checked == ctx.dim * (ctx.dim + 1) // 2

    def test_corrupted_top_coefficient(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            deg = [degree(lam) for lam in ctx.basis]
            top = [(ra, rb, t) for ra, rb, t, _ in _stored_terms(ctx, table)
                   if deg[t] == deg[ra] + deg[rb]]
            ra, rb, t = top[len(top) // 2]
            self._check(ctx, with_terms(table, _both_orders(ra, rb, {t: 1})))

    def test_corrupted_target(self, ctx_of, table_of):
        for k, n in self.CONTEXTS:
            ctx, table = ctx_of(k, n), table_of(k, n)
            deg = [degree(lam) for lam in ctx.basis]
            terms = _stored_terms(ctx, table)
            ra, rb, t, c = terms[len(terms) // 2]
            # move the term one degree up, onto a rank its pair lacks
            present = dict(table.product_ranks(ra, rb))
            moved = next(r for r in ctx.ranks_by_degree[deg[t] + 1]
                         if r not in present)
            self._check(ctx, with_terms(
                table, _both_orders(ra, rb, {t: -c, moved: c})))

    def test_each_row_enumerated_once(self, ctx_of, table_of, monkeypatch):
        # with every constant doubled most pairs fail, and their records
        # read the cup rows in hand instead of enumerating them again
        ctx, table = ctx_of(3, 6), table_of(3, 6)
        bad = quantum.StructureTable(ctx, table.ptr, table.key,
                                     table.coeff * 2)
        calls = []
        lr_rows = quantum._lr_rows

        def counted(ctx, ra):
            calls.append(ra)
            return lr_rows(ctx, ra)

        # the suite's own reads and any through classical.cup_product
        monkeypatch.setattr(quantum, "_lr_rows", counted)
        monkeypatch.setattr(classical, "_lr_rows", counted)
        self._check(ctx, bad)
        assert calls == list(range(ctx.dim))


def _associativity_reference(ctx, table, samples, seed):
    """Failures of verify_associativity, one triple at a time."""
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        ranks = [rng.randrange(ctx.dim) for _ in range(3)]
        a, b, c = (basis_class(ctx, ctx.basis[r]) for r in ranks)
        lhs = quantum_product(quantum_product(a, b, table=table), c,
                              table=table)
        rhs = quantum_product(quantum_product(b, c, table=table), a,
                              table=table)
        if lhs != rhs:
            failures.append({"triple": [list(trim(ctx.basis[r]))
                                        for r in ranks],
                             "lhs": terms_json(lhs), "rhs": terms_json(rhs)})
    failures.sort(key=lambda f: f["triple"])
    return failures


class TestAssociativityFailureRecords:
    """The batched triples must report what a per-triple loop reports."""

    def test_corrupted_coefficient(self, ctx_of, table_of):
        for k, n in [(2, 5), (3, 6), (3, 7)]:
            ctx, table = ctx_of(k, n), table_of(k, n)
            terms = _stored_terms(ctx, table)
            ra, rb, t, _ = terms[len(terms) // 3]
            bad = with_terms(table, _both_orders(ra, rb, {t: 1}))
            report = verify_associativity(ctx, samples=1000, seed=k * n,
                                          table=bad)
            expected = _associativity_reference(ctx, bad, 1000, k * n)
            assert expected and report.failures == expected, (k, n)
            assert report.checked == 1000

    def test_bad_triples_at_chunk_boundaries(self, ctx_of, table_of):
        # 600 triples: chunks 0:250, 250:500 and the partial 500:600
        ctx, table = ctx_of(3, 7), table_of(3, 7)
        chunk = quantum._TRIPLE_CHUNK
        triples = quantum._seeded_triples(ctx, 600, DEFAULT_SEED).tolist()
        edges = [chunk - 1, chunk, 599]
        # one order of the first pair of each: only (A*B)*C reads it
        bad = with_terms(table, {(triples[i][0], triples[i][1], 0): 1
                                 for i in edges})
        report = verify_associativity(ctx, samples=600, table=bad)
        assert report.failures == _associativity_reference(ctx, bad, 600,
                                                           DEFAULT_SEED)
        failed = [f["triple"] for f in report.failures]
        for i in edges:
            assert [list(trim(ctx.basis[r])) for r in triples[i]] in failed

    def test_records_show_the_compared_sides(self, ctx_of, table_of):
        # one order of one pair changes, so the table is not commutative
        # and A*(B*C) can equal (A*B)*C where (B*C)*A does not
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        bad = with_terms(table, {(ctx.rank((2, 1)), ctx.rank((1, 0)),
                                  ctx.rank((2, 2))): 1})
        report = verify_associativity(ctx, samples=200, table=bad)
        assert report.failures == _associativity_reference(ctx, bad, 200,
                                                           DEFAULT_SEED)
        assert report.failures
        assert all(f["lhs"] != f["rhs"] for f in report.failures)

    def test_overflow_raises(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        bad = with_terms(table, {(ra, rb, t): 2 ** 31 - 1 - c
                                 for ra in range(ctx.dim)
                                 for rb in range(ctx.dim)
                                 for t, c in table.product_ranks(ra, rb)})
        with pytest.raises(OverflowError):
            verify_associativity(ctx, samples=10, table=bad)
        one = np.array([0])
        with pytest.raises(OverflowError):
            bad.pair_products(one, one, np.array([2 ** 33]))


class TestGWInvariant:
    def test_unit_unit_point(self):
        ctx = GrassmannContext(2, 4)
        assert gw_invariant(unit_class(ctx), unit_class(ctx),
                            point_class(ctx)) == 1

    def test_s1_s1_column(self):
        ctx = GrassmannContext(2, 4)
        s1 = row_class(ctx, 1)
        assert gw_invariant(s1, s1, basis_class(ctx, (1, 1))) == 1

    def test_hook_hook_row(self):
        ctx = GrassmannContext(2, 4)
        rec = gw_record(ctx, (2, 1), (2, 1), (2, 0))
        assert rec == GWRecord((2, 1), (2, 1), (2, 0), 1, 1)

    def test_degree_obstruction_record(self):
        ctx = GrassmannContext(2, 4)
        rec = gw_record(ctx, (1,), (1,), (1,))
        assert rec.value == 0 and rec.degree_d is None

    def test_trivial_record(self):
        ctx = GrassmannContext(2, 4)
        rec = gw_record(ctx, (), (), (2, 2))
        assert rec.value == 1 and rec.degree_d == 0

    def test_symmetry_seeded(self, ctx_of, table_of):
        rng = random.Random(31)
        for k, n in all_contexts(8):
            ctx, table = ctx_of(k, n), table_of(k, n)
            for _ in range(1000):
                la, lb, lc = (ctx.basis[rng.randrange(ctx.dim)]
                              for _ in range(3))
                values = {
                    gw_invariant(basis_class(ctx, x), basis_class(ctx, y),
                                 basis_class(ctx, z), table=table)
                    for x, y, z in itertools.permutations((la, lb, lc))}
                assert len(values) == 1


class TestCyclicOperator:
    def test_unit_maps_to_column(self):
        ctx = GrassmannContext(2, 4)
        assert c_apply(unit_class(ctx), 1) == column_class(ctx)

    def test_row_drops_to_unit(self):
        ctx = GrassmannContext(2, 4)
        assert c_apply(row_class(ctx, 2), 1) == unit_class(ctx)

    def test_full_period(self):
        ctx = GrassmannContext(2, 5)
        a = class_from_parts(ctx, [((2, 2, 1), 2), ((1, 0, 0), 1)])
        assert c_apply(a, ctx.n) == a

    def test_shift_equals_column_multiplication(self, ctx_of, table_of):
        for k, n in all_contexts(6):
            assert verify_cyclic(ctx_of(k, n), table=table_of(k, n)).ok

    def test_period_applies_the_shift_n_times(self, ctx_of, table_of,
                                              monkeypatch):
        # a shift by one of period 2 that still reduces j mod n: only
        # the shift applied n = 3 times shows that its period is not n
        ctx = ctx_of(1, 3)
        swap = {ctx.basis[0]: ctx.basis[1], ctx.basis[1]: ctx.basis[0]}

        def transposition(lam, j, k, n):
            for _ in range(j % n):
                lam = swap.get(lam, lam)
            return lam

        monkeypatch.setattr(quantum, "c_shift", transposition)
        report = verify_cyclic(ctx, table=table_of(1, 3))
        assert report.checked == 2 * ctx.dim
        assert [f["lam"] for f in report.failures
                if f["kind"] == "period"] == [[], [1]]


class TestStructureTable:
    def test_g24_pair_count(self, table_of):
        assert len(table_of(2, 4).ptr) - 1 == 36

    def test_matches_giambelli_on_every_pair(self, ctx_of, table_of):
        for k, n in all_contexts(7) + [(4, 8)]:
            ctx, table = ctx_of(k, n), table_of(k, n)
            for ra in range(ctx.dim):
                for rb in range(ctx.dim):
                    assert table.product_ranks(ra, rb) == \
                        _basis_product(ctx, ra, rb)

    def test_product_ranks_yields_python_ints(self, ctx_of, table_of):
        ctx, table = ctx_of(3, 6), table_of(3, 6)
        for ra in range(ctx.dim):
            for rb in range(ra, ctx.dim):
                for rank, c in table.product_ranks(ra, rb):
                    assert type(rank) is int and type(c) is int

    def test_relabel_mismatches_name_the_pair_and_its_preimage(
            self, ctx_of, table_of):
        ctx, table = ctx_of(3, 6), table_of(3, 6)
        bar = np.array([ctx.rank(partitions.bar_involution(lam, 3))
                        for lam in ctx.basis])
        for relabel in (np.arange(ctx.dim), bar):
            rows, cols = table.relabel_mismatches(relabel, relabel, relabel)
            assert rows.size == cols.size == 0
        r, j = ctx.rank((2, 1, 0)), ctx.rank((1, 1, 0))
        for t, delta in [(0, 1), (ctx.rank((3, 2, 0)), -1)]:
            bad = with_terms(table, {(r, j, t): delta})
            rows, cols = bad.relabel_mismatches(bar, bar, bar)
            assert sorted(zip(rows.tolist(), cols.tolist())) == \
                sorted([(r, j), (bar[r], bar[j])]), t

    def test_transpose_mismatches(self, ctx_of, table_of):
        for k, n in all_contexts(8):
            ctx, table = ctx_of(k, n), table_of(k, n)
            bar_rank = np.array([ctx.rank(partitions.bar_involution(lam, k))
                                 for lam in ctx.basis])
            # the paper's theorem: M_(bar lam) is M_lam transposed
            flagged, compared = table.transpose_mismatches(bar_rank)
            assert flagged.tolist() == [] and compared == ctx.dim, (k, n)
            # read against itself, a matrix fails where it is not symmetric
            ranks = np.arange(ctx.dim)
            unsymmetric = [r for r in range(ctx.dim)
                           if not np.array_equal(table.basis_matrix(r),
                                                 table.basis_matrix(r).T)]
            assert table.transpose_mismatches(ranks)[0].tolist() == \
                unsymmetric, (k, n)

    def test_rank_outside_basis(self, table_of):
        table = table_of(2, 4)
        with pytest.raises(IndexError):
            table.product_ranks(0, 6)
        for ra, rb in [([0], [6]), ([6], [0]), ([0, -1], [1, 0]),
                       ([2, 5], [3, 36])]:
            with pytest.raises(IndexError):
                table.pair_products(np.array(ra), np.array(rb),
                                    np.ones(len(ra), dtype=np.int64))

    def test_corrupted_pieri_row_raises(self, monkeypatch):
        pieri_matrix = quantum._pieri_matrix

        def corrupted(ctx, r):
            # (1) times any diagram gains the diagram itself: wrong degree
            matrix = pieri_matrix(ctx, r)
            return with_extra_targets(matrix, {rank: (rank,) for rank
                                               in range(ctx.dim)}) \
                if r == 1 else matrix

        monkeypatch.setattr(quantum, "_pieri_matrix", corrupted)
        with pytest.raises(ArithmeticError,
                           match=r"invalid structure constant 1 at \(0, 0\)"
                                 r" in product \(1, 0\) \* \(0, 0\)"):
            build_table(GrassmannContext(2, 4))

    def test_strip_not_before_the_diagram_raises(self, monkeypatch):
        pieri_matrix = quantum._pieri_matrix

        def corrupted(ctx, r):
            # (2) times the unit gains (1,1), so the inversion of (2)
            # reads (1,1) as a strip, which comes after it
            matrix = pieri_matrix(ctx, r)
            return with_extra_targets(matrix, {0: (ctx.rank((1, 1, 0)),)}) \
                if r == 2 else matrix

        monkeypatch.setattr(quantum, "_pieri_matrix", corrupted)
        with pytest.raises(ArithmeticError,
                           match=r"Pieri inversion of \(2, 0, 0\) reads "
                                 r"\(1, 1, 0\), which does not come "
                                 r"before it"):
            build_table(GrassmannContext(2, 5))

    @staticmethod
    def _wrong_shift(monkeypatch, ctx, x, y):
        """Make the build copy with the shift conjugated by the swap of
        basis[x] and basis[y]; return that permutation's powers."""
        shift_powers = quantum._shift_powers
        shift = np.array([ctx.rank(c_shift(lam, 1, ctx.k, ctx.n))
                          for lam in ctx.basis])
        swap = np.arange(ctx.dim)
        swap[[x, y]] = y, x
        powers = shift_powers(swap[shift[swap]], ctx.n)
        monkeypatch.setattr(quantum, "_shift_powers",
                            lambda shift, n: powers)
        return powers

    @pytest.mark.parametrize("k, n, lam, mu", [
        # the first wrong copy has gaps off a multiple of n, all >= 0
        (4, 8, (0, 0, 0, 0), (1, 0, 0, 0)),
        (3, 9, (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
        # ... and gaps that are multiples of n, some < 0
        (4, 8, (0, 0, 0, 0), (4, 4, 0, 0)),
        (3, 9, (0, 0, 0, 0, 0, 0), (3, 3, 3, 0, 0, 0)),
        # ... and both
        (4, 8, (1, 0, 0, 0), (2, 0, 0, 0)),
        (3, 9, (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0))])
    def test_column_check_rejects_what_the_term_check_rejects(
            self, ctx_of, table_of, monkeypatch, k, n, lam, mu):
        # swapping diagrams of degrees apart breaks the degrees of the
        # copies: the first wrong copy, taken from the true orbit first,
        # fails the term check, and the build names the same term
        ctx, table = ctx_of(k, n), table_of(k, n)
        powers = self._wrong_shift(monkeypatch, ctx, ctx.rank(lam),
                                   ctx.rank(mu))
        first = powers.min(axis=0)
        deg = [degree(x) for x in ctx.basis]
        expected = None
        for r in range(ctx.rank((1,) * ctx.l) + 1, ctx.dim):
            s = (powers[:, first[r]] == r).argmax()
            copied = table.basis_matrix(first[r])[:, powers[s]]
            if (copied == table.basis_matrix(r)).all():
                continue
            bad = [(j, t) for j in range(ctx.dim) for t in range(ctx.dim)
                   if copied[t, j] and (copied[t, j] < 0 or
                                        deg[r] + deg[j] - deg[t] < 0 or
                                        (deg[r] + deg[j] - deg[t]) % n)]
            j, t = bad[0]
            expected = (f"invalid structure constant {copied[t, j]} at "
                        f"{ctx.basis[t]} in product {ctx.basis[r]} * "
                        f"{ctx.basis[j]}")
            break
        with pytest.raises(ArithmeticError) as raised:
            build_table(ctx)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("k, n, lam, mu", [
        (4, 8, (2, 2, 2, 0), (2, 2, 1, 1)),
        (3, 9, (2, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0))])
    def test_degree_keeping_wrong_shift_reaches_the_oracle(
            self, ctx_of, table_of, monkeypatch, k, n, lam, mu):
        # swapping two diagrams of one degree keeps every copy's degrees,
        # so the build accepts it, and the certificate names every wrong
        # product, the first wrong matrix a copy
        ctx, table = ctx_of(k, n), table_of(k, n)
        powers = self._wrong_shift(monkeypatch, ctx, ctx.rank(lam),
                                   ctx.rank(mu))
        bad = build_table(ctx)
        wrong = {r for r in range(ctx.dim)
                 if (bad.basis_matrix(r) != table.basis_matrix(r)).any()}
        assert wrong and powers.min(axis=0)[min(wrong)] != min(wrong)
        report = verify_certificate(ctx, table=bad)
        named = _named_pairs(report)
        assert named == _changed_pairs(ctx, bad, table)
        assert {ctx.rank(ctx.validate(lam)) for lam, _ in named} == wrong

    def test_build_reads_no_combinatorial_shift(self, ctx_of, table_of,
                                                monkeypatch):
        # the build reads the shift off its own column class, so
        # verify_cyclic stays an independent check of it
        ctx, table = ctx_of(4, 8), table_of(4, 8)

        def refuse(*args):
            raise AssertionError("build_table called c_shift")

        with monkeypatch.context() as patch:
            patch.setattr(partitions, "c_shift", refuse)
            patch.setattr(quantum, "c_shift", refuse)
            assert build_table(ctx) == table
        column = ctx.rank((1,) * ctx.l)
        lam = (2, 1, 0, 0)
        bad = with_terms(table, {(column, ctx.rank(lam), 0): 1})
        report = verify_cyclic(ctx, table=bad)
        assert [(f["lam"], f["kind"]) for f in report.failures] == \
            [([2, 1], "shift_vs_mult")]

    def test_coefficient_bound_raises(self, monkeypatch):
        monkeypatch.setattr(quantum, "_COEFF_BOUND", 1)
        with pytest.raises(OverflowError):
            build_table(GrassmannContext(2, 4))

    def test_column_times_row_is_unit(self, ctx_of, table_of):
        ctx, table = ctx_of(2, 4), table_of(2, 4)
        items = table.product_ranks(ctx.rank((1, 1)), ctx.rank((2, 0)))
        assert items == ((0, 1),)

    def test_build_is_deterministic(self):
        ctx = GrassmannContext(2, 5)
        assert build_table(ctx) == build_table(ctx)

    @pytest.mark.parametrize("n", [2, 5, 60, 200])
    @pytest.mark.parametrize("column", [True, False])
    def test_projective_space_closed_form(self, n, column):
        # G(1, n) and G(n - 1, n) are both projective space, where at
        # q = 1 sigma_a sigma_b = sigma_{(a + b) mod n}
        ctx = GrassmannContext(1, n) if column else GrassmannContext(n - 1, n)
        table = build_table(ctx)
        of_degree = {degree(lam): r for r, lam in enumerate(ctx.basis)}
        for a in range(n):
            for b in range(n):
                assert table.product_ranks(of_degree[a], of_degree[b]) == \
                    ((of_degree[(a + b) % n], 1),), (ctx, a, b)
