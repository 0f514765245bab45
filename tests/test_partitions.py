import itertools
from math import comb

import pytest

from qgr.partitions import (GrassmannContext, bar_involution, c_shift, degree,
                            durfee, enumerate_box_partitions,
                            format_partition, format_subset, from_subset,
                            parse_partition, parse_subset, poincare_dual,
                            to_subset, trim)

from conftest import all_contexts


def brute_force_box(k, l):
    """Independent enumeration: filter all l-tuples bounded by k."""
    out = set()
    for tup in itertools.product(range(k + 1), repeat=l):
        if all(tup[i] >= tup[i + 1] for i in range(l - 1)):
            out.add(tup)
    return out


def test_enumerate_g24_exact_order():
    assert enumerate_box_partitions(2, 2) == [
        (0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]


def test_enumerate_projective_line():
    assert enumerate_box_partitions(1, 1) == [(0,), (1,)]


def test_enumerate_g36_against_brute_force():
    basis = enumerate_box_partitions(3, 3)
    assert len(basis) == 20
    assert set(basis) == brute_force_box(3, 3)


@pytest.mark.parametrize("k,n", all_contexts(12))
def test_basis_count_is_binomial(k, n):
    ctx = GrassmannContext(k, n)
    assert ctx.dim == comb(n, k)
    assert len(set(ctx.basis)) == ctx.dim
    assert all(ctx.rank(lam) == i for i, lam in enumerate(ctx.basis))


def test_many_rows_need_no_recursion():
    # one diagram per row count: l = 999 rows of at most one box
    ctx = GrassmannContext(1, 1000)
    assert ctx.dim == 1000
    assert ctx.basis[1] == (1,) + (0,) * 998


def test_context_rejects_bad_dimensions():
    for k, n in [(0, 4), (4, 4), (5, 3), (-1, 2)]:
        with pytest.raises(ValueError):
            GrassmannContext(k, n)


def test_durfee_examples():
    assert durfee((0, 0)) == 0
    assert durfee((2, 1)) == 1
    assert durfee((3, 3, 2)) == 2


def test_durfee_matches_definition_scan(ctx_of):
    for k, n in all_contexts(8):
        for lam in ctx_of(k, n).basis:
            expected = max((i for i in range(1, len(lam) + 1)
                            if lam[i - 1] >= i), default=0)
            assert durfee(lam) == expected


def test_poincare_dual_examples():
    assert poincare_dual((0, 0), 2) == (2, 2)
    assert poincare_dual((1, 0), 2) == (2, 1)
    assert poincare_dual((2, 0), 2) == (2, 0)


@pytest.mark.parametrize("k,n", all_contexts(12))
def test_poincare_dual_involution_and_degree(k, n):
    ctx = GrassmannContext(k, n)
    for lam in ctx.basis:
        dual = poincare_dual(lam, k)
        assert dual in ctx._rank
        assert poincare_dual(dual, k) == lam
        assert degree(dual) + degree(lam) == ctx.top_degree


def test_bar_involution_examples():
    assert bar_involution((0, 0), 2) == (0, 0)
    assert bar_involution((1, 0), 2) == (2, 1)
    assert bar_involution((2, 0), 2) == (1, 1)
    assert bar_involution((2, 2), 2) == (2, 2)


def test_bar_involution_g24_table():
    table = {(0, 0): (0, 0), (1, 0): (2, 1), (2, 0): (1, 1),
             (1, 1): (2, 0), (2, 1): (1, 0), (2, 2): (2, 2)}
    for lam, mu in table.items():
        assert bar_involution(lam, 2) == mu


@pytest.mark.parametrize("k,n", all_contexts(12))
def test_bar_involution_structural(k, n):
    ctx = GrassmannContext(k, n)
    for lam in ctx.basis:
        mu = bar_involution(lam, k)
        assert mu in ctx._rank
        assert bar_involution(mu, k) == lam
        assert durfee(mu) == durfee(lam)
        assert degree(mu) == n * durfee(lam) - degree(lam)


@pytest.mark.parametrize("k,n", all_contexts(12))
def test_bar_involution_equals_dual_of_shift(k, n):
    # independent route: complement of the k-fold cyclic subset shift
    ctx = GrassmannContext(k, n)
    for lam in ctx.basis:
        assert bar_involution(lam, k) == \
            poincare_dual(c_shift(lam, k, k, n), k)


def test_bar_single_row_is_near_hook():
    # leading part k - r + 1 is pinned by the degree law n*d - deg
    for k, n in [(2, 4), (3, 6), (4, 7), (5, 11)]:
        l = n - k
        for r in range(1, k + 1):
            row = (r,) + (0,) * (l - 1)
            expected = (k - r + 1,) + (1,) * (l - 1)
            assert bar_involution(row, k) == expected
            assert degree(expected) == n - r


def test_subset_examples():
    assert to_subset((0, 0), 2) == (3, 4)
    assert to_subset((1, 0), 2) == (2, 4)
    assert to_subset((2, 2), 2) == (1, 2)


@pytest.mark.parametrize("k,n", all_contexts(10))
def test_subset_bijection(k, n):
    ctx = GrassmannContext(k, n)
    images = set()
    for lam in ctx.basis:
        s = to_subset(lam, k)
        assert all(1 <= x <= n for x in s)
        assert all(s[i] < s[i + 1] for i in range(len(s) - 1))
        assert from_subset(s, k) == lam
        images.add(s)
    assert images == set(itertools.combinations(range(1, n + 1), n - k))


def test_c_shift_examples():
    assert c_shift((1, 0), 1, 2, 4) == (2, 1)
    assert c_shift((2, 1), 1, 2, 4) == (1, 0)


@pytest.mark.parametrize("k,n", all_contexts(10))
def test_c_shift_group_action(k, n):
    ctx = GrassmannContext(k, n)
    for lam in ctx.basis:
        assert c_shift(lam, 0, k, n) == lam
        assert c_shift(lam, n, k, n) == lam
        step = lam
        for _ in range(n):
            step = c_shift(step, 1, k, n)
        assert step == lam
        assert c_shift(c_shift(lam, 3, k, n), 5, k, n) == \
            c_shift(lam, 8, k, n)
        assert c_shift(lam, -1, k, n) == c_shift(lam, n - 1, k, n)


def test_parse_round_trip():
    ctx = GrassmannContext(2, 4)
    assert parse_partition("2,1", ctx) == (2, 1)
    assert parse_partition("1", ctx) == (1, 0)
    assert parse_partition("", ctx) == (0, 0)
    assert parse_partition("[]", ctx) == (0, 0)
    assert parse_partition("2,1,0", ctx) == (2, 1)  # trailing zeros optional
    assert format_partition((2, 1)) == "2,1"
    assert format_partition((1, 0)) == "1"
    assert format_partition((0, 0)) == ""


def test_parse_rejects_bad_input():
    ctx = GrassmannContext(2, 4)
    with pytest.raises(ValueError, match="weakly decreasing"):
        parse_partition("1,2", ctx)
    with pytest.raises(ValueError, match="column bound k=2"):
        parse_partition("3", ctx)
    with pytest.raises(ValueError, match="row bound l=2"):
        parse_partition("2,1,1", ctx)
    with pytest.raises(ValueError, match="comma-separated"):
        parse_partition("2;1", ctx)
    with pytest.raises(ValueError, match="negative"):
        parse_partition("2,-1", ctx)


def test_subset_text_format():
    ctx = GrassmannContext(2, 4)
    assert parse_subset("{1,3}", ctx) == (1, 3)
    assert format_subset((1, 3)) == "{1,3}"
    with pytest.raises(ValueError):
        parse_subset("1,3", ctx)
    with pytest.raises(ValueError):
        parse_subset("{3,1}", ctx)
    with pytest.raises(ValueError):
        parse_subset("{1,9}", ctx)
    with pytest.raises(ValueError):
        parse_subset("{1}", ctx)


def test_trim():
    assert trim((2, 1, 0, 0)) == (2, 1)
    assert trim((0, 0)) == ()
    assert trim(()) == ()
