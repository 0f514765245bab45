"""The certificate suite: the structure table against the characters of
the ring reduced mod primes."""

import numpy as np
import pytest

from qgr import GrassmannContext, StructureTable, spectrum
from qgr.partitions import trim
from qgr.spectrum import (certificate_primes, characters_mod,
                          totally_positive_values, verify_certificate)

from conftest import all_contexts


def _raised(table, i, by=1):
    """The table with its i-th stored coefficient raised, and the ranks
    of the ordered pair it belongs to."""
    coeff = table.coeff.copy()
    coeff[i] += by
    pair = int(np.searchsorted(table.ptr, i, side="right")) - 1
    return (StructureTable(table.ctx, table.ptr, table.key, coeff),
            divmod(pair, table.ctx.dim))


class TestPrimes:
    @pytest.mark.parametrize("n, points, above", [
        (4, 6, 3), (9, 126, 246), (10, 252, 2257), (12, 924, 125745),
        (13, 1716, 695795), (4, 6, 2 ** 31 + 2), (40, 40, 2 ** 60)])
    def test_float_exact_primes_above_the_bound(self, n, points, above):
        primes, roots = certificate_primes(n, points, above)
        assert primes == sorted(primes, reverse=True)
        assert int(np.prod(primes, dtype=object)) > above
        # without the last prime the product would not be enough
        assert int(np.prod(primes[:-1], dtype=object)) <= above
        for p, z in zip(primes, roots):
            assert p % (2 * n) == 1 and p * p * points < 2 ** 53
            assert all(p % d for d in range(2, int(p ** 0.5) + 1))
            # z has order exactly 2n
            assert [e for e in range(1, 2 * n + 1) if pow(z, e, p) == 1] \
                == [2 * n]
        # the first is the largest such prime below the float limit
        q = primes[0] + 2 * n
        while q * q * points < 2 ** 53:
            assert any(q % d == 0 for d in range(2, int(q ** 0.5) + 1))
            q += 2 * n

    def test_no_prime_left_raises(self):
        # the only candidate 1 mod 2000 below the float limit is
        # 2001 = 3 * 23 * 29
        with pytest.raises(OverflowError):
            certificate_primes(1000, (2 ** 53 - 1) // 2001 ** 2, 1)

    def test_draws_reach_two_to_the_minus_40(self, ctx_of, table_of):
        for k, n in [(1, 2), (2, 4), (4, 9)]:
            report = verify_certificate(ctx_of(k, n), table=table_of(k, n))
            for p in report.extra["primes"]:
                assert p ** report.extra["draws"] >= 2 ** 40


class TestBound:
    def test_values_at_the_totally_positive_point(self, ctx_of, spectral_of):
        for k, n in all_contexts(7):
            ctx = ctx_of(k, n)
            x0 = totally_positive_values(ctx)
            # S_0 = {0, k+1, ..., n-1}, a point of the float spectrum
            s0 = (0,) + tuple(range(k + 1, n))
            point = next(p.index for p in spectral_of(k, n).points
                         if p.subset == s0)
            values = spectral_of(k, n).characters[point]
            assert np.allclose(values, x0, rtol=1e-9, atol=1e-9), (k, n)
            assert (x0 >= 1 - 1e-12).all() and x0[0] == 1.0, (k, n)

    def test_bound_above_the_largest_true_constant(self, ctx_of, table_of):
        # the tables here pass the certificate, so their constants are
        # the true ones
        for k, n in all_contexts(8) + [(4, 9), (5, 10)]:
            ctx, table = ctx_of(k, n), table_of(k, n)
            report = verify_certificate(ctx, table=table)
            assert report.ok, (k, n)
            x0 = totally_positive_values(ctx)
            # N_(r j)^t X_0(t) <= X_0(r) X_0(j), term by term
            j, t = np.divmod(table.key.astype(np.int64), ctx.dim)
            r = np.repeat(np.arange(ctx.dim), np.diff(table.ptr[::ctx.dim]))
            assert (table.coeff * x0[t] <= x0[r] * x0[j] * (1 + 1e-9)).all()
            assert int(table.coeff.max()) <= report.extra["bound"], (k, n)

    def test_bounds_up_the_ladder(self):
        expected = {(4, 9): 242, (5, 10): 2243, (6, 12): 125708,
                    (6, 13): 695723}
        for (k, n), bound in expected.items():
            x0 = totally_positive_values(GrassmannContext(k, n))
            assert int(x0.max() ** 2 / x0.min() * (1 + 1e-9)) == bound


class TestCertificate:
    def test_true_tables_pass(self, ctx_of, table_of):
        for k, n in all_contexts(7) + [(4, 8), (1, 40), (39, 40)]:
            ctx = ctx_of(k, n)
            report = verify_certificate(ctx, table=table_of(k, n))
            assert report.ok and report.checked == ctx.dim ** 2, (k, n)
            assert set(report.extra) == {"primes", "bound", "draws"}
            assert report.stats == [f"certificate compared {ctx.dim ** 2} "
                                    f"pairs, rank {ctx.dim}"]

    def test_unit_and_row_class_values(self, ctx_of):
        # X_p(unit) = 1, and X_p((1)) = sum of the variables at S
        ctx = ctx_of(3, 7)
        (p,), (root,) = certificate_primes(ctx.n, ctx.dim, 100)
        chars = characters_mod(ctx, p, root)
        assert (chars[:, 0] == 1).all()
        one = ctx.rank((1, 0, 0, 0))
        for i, s in enumerate(spectrum._closed_form(ctx)[0]):
            total = sum(pow(root, 2 * j + ctx.l - 1, p) for j in s) % p
            assert chars[i, one] == total

    @pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6), (3, 7),
                                      (4, 8), (4, 9), (5, 10)])
    def test_raised_coefficient_names_exactly_its_pair(self, k, n, ctx_of,
                                                       table_of):
        ctx, table = ctx_of(k, n), table_of(k, n)
        for i in np.linspace(0, len(table.coeff) - 1, 3).astype(int):
            bad, (r, j) = _raised(table, i)
            report = verify_certificate(ctx, table=bad, seed=int(i))
            assert report.failures == [{
                "pair": [list(trim(ctx.basis[r])), list(trim(ctx.basis[j]))],
                "table": [{"p": list(trim(ctx.basis[t])), "c": c}
                          for t, c in bad.product_ranks(r, j)]}], (k, n, i)

    def test_large_stored_coefficient_takes_more_primes(self, ctx_of,
                                                        table_of):
        ctx, table = ctx_of(3, 6), table_of(3, 6)
        bad, (r, j) = _raised(table, 5, 2 ** 31 - 2 - int(table.coeff[5]))
        report = verify_certificate(ctx, table=bad)
        primes = report.extra["primes"]
        assert len(primes) == 2
        assert primes[0] * primes[1] > 2 ** 31 + report.extra["bound"]
        assert [f["pair"] for f in report.failures] == [
            [list(trim(ctx.basis[r])), list(trim(ctx.basis[j]))]]

    def test_singular_points_are_reported(self, ctx_of, table_of,
                                          monkeypatch):
        closed_form = spectrum._closed_form

        def twinned(ctx):
            # point 1 takes the variables of point 0
            subsets, turns, idx, flip = closed_form(ctx)
            turns = turns.copy()
            turns[1] = turns[0]
            return subsets, turns, idx, flip

        monkeypatch.setattr(spectrum, "_closed_form", twinned)
        ctx = ctx_of(2, 5)
        report = verify_certificate(ctx, table=table_of(2, 5))
        (p,) = report.extra["primes"]
        # both rows are still characters, so every pair agrees
        assert report.failures == [{"prime": p, "rank": ctx.dim - 1,
                                    "problem": "X_p is singular"}]
        assert report.stats == [f"certificate compared {ctx.dim ** 2} "
                                f"pairs, rank {ctx.dim - 1}"]
