"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Expected values are either hand-derived (and frozen here) or
checked against independent oracles; time limits are asserted where
stated.
"""

import json
import time

from qgr import cli, spectrum
from qgr.classical import basis_class
from qgr.involution import (verify_dual_product_identity,
                            verify_duality_identities,
                            verify_involution_factorization,
                            verify_product_automorphism)
from qgr.partitions import (GrassmannContext, bar_involution, c_shift,
                            degree, durfee)
from qgr.quantum import (quantum_product, verify_associativity,
                         verify_commutativity, verify_cyclic, verify_grading)
from qgr.spectrum import (conjugation_point_permutation,
                          random_integer_classes, verify_conjugation,
                          verify_positivity, verify_vanishing)

from conftest import all_contexts


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# hand-derived quantum multiplication table of G(2,4); keys and values
# use trimmed partitions, values map result diagram -> coefficient
G24_TABLE = {
    ((), ()): {(): 1},
    ((), (1,)): {(1,): 1},
    ((), (2,)): {(2,): 1},
    ((), (1, 1)): {(1, 1): 1},
    ((), (2, 1)): {(2, 1): 1},
    ((), (2, 2)): {(2, 2): 1},
    ((1,), (1,)): {(2,): 1, (1, 1): 1},
    ((1,), (2,)): {(2, 1): 1},
    ((1,), (1, 1)): {(2, 1): 1},
    ((1,), (2, 1)): {(2, 2): 1, (): 1},
    ((1,), (2, 2)): {(1,): 1},
    ((2,), (2,)): {(2, 2): 1},
    ((2,), (1, 1)): {(): 1},
    ((2,), (2, 1)): {(1,): 1},
    ((2,), (2, 2)): {(1, 1): 1},
    ((1, 1), (1, 1)): {(2, 2): 1},
    ((1, 1), (2, 1)): {(1,): 1},
    ((1, 1), (2, 2)): {(2,): 1},
    ((2, 1), (2, 1)): {(2,): 1, (1, 1): 1},
    ((2, 1), (2, 2)): {(2, 1): 1},
    ((2, 2), (2, 2)): {(): 1},
}


def test_criterion_1_g24_ground_truth(ctx_of):
    start = time.monotonic()
    ctx = ctx_of(2, 4)
    checked = 0
    for (la, lb), expected in G24_TABLE.items():
        prod = quantum_product(basis_class(ctx, ctx.validate(la)),
                               basis_class(ctx, ctx.validate(lb)))
        got = {tuple(p for p in ctx.basis[r] if p): c
               for r, c in prod.terms.items()}
        assert got == expected, (la, lb, got, expected)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 21
    report(1, elapsed < 1.0,
           f"G(2,4) table: all 21 products match the hand oracle "
           f"({elapsed:.3f}s)")


def test_criterion_2_involution_table_g24():
    start = time.monotonic()
    expected = {(): (), (1,): (2, 1), (2,): (1, 1),
                (1, 1): (2,), (2, 1): (1,), (2, 2): (2, 2)}
    ctx = GrassmannContext(2, 4)
    for la, mu in expected.items():
        got = bar_involution(ctx.validate(la), 2)
        assert tuple(p for p in got if p) == mu, (la, got, mu)
    elapsed = time.monotonic() - start
    report(2, elapsed < 1.0,
           f"G(2,4) involution table exact ({elapsed:.3f}s)")


def test_criterion_3_automorphism_exhaustive(ctx_of, table_of):
    start = time.monotonic()
    total = 0
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 6), (2, 6), (3, 7)]:
        r = verify_product_automorphism(ctx_of(k, n), table=table_of(k, n))
        assert r.ok, (k, n, r.failures[:3])
        total += r.checked
    elapsed = time.monotonic() - start
    report(3, elapsed < 120.0,
           f"involution is a ring automorphism on {total} basis pairs "
           f"across 6 contexts, zero failures ({elapsed:.2f}s)")


def test_criterion_4_involution_factorization():
    start = time.monotonic()
    total = 0
    for k, n in all_contexts(10):
        r = verify_involution_factorization(GrassmannContext(k, n))
        assert r.ok, (k, n)
        total += r.checked
    elapsed = time.monotonic() - start
    report(4, elapsed < 60.0,
           f"bar = dual of k-fold shift on {total} diagrams, all "
           f"1<=k<n<=10, zero failures ({elapsed:.2f}s)")


def test_criterion_5_duality_identities(ctx_of, table_of):
    start = time.monotonic()
    total = 0
    for k, n in all_contexts(8):
        r = verify_duality_identities(ctx_of(k, n), table=table_of(k, n))
        assert r.ok, (k, n, r.failures[:3])
        total += r.checked
    elapsed = time.monotonic() - start
    report(5, True,
           f"dual/shift commutation and row-invariant duality, {total} "
           f"checks over n<=8, zero failures ({elapsed:.2f}s)")


def test_criterion_6_dual_product_identities(ctx_of, table_of):
    start = time.monotonic()
    total = 0
    for k, n in all_contexts(6):
        r = verify_dual_product_identity(ctx_of(k, n), samples=1000,
                                         table=table_of(k, n))
        assert r.ok, (k, n, r.failures[:3])
        total += r.checked
    elapsed = time.monotonic() - start
    report(6, True,
           f"dual-product identity exhaustive and 1000 seeded triples per "
           f"context, n<=6, {total} checks, zero failures ({elapsed:.2f}s)")


def test_criterion_7_structural_suite(ctx_of, table_of):
    start = time.monotonic()
    diagrams = 0
    for k, n in all_contexts(10):
        ctx = GrassmannContext(k, n)
        for lam in ctx.basis:
            mu = bar_involution(lam, k)
            assert bar_involution(mu, k) == lam
            assert degree(mu) == n * durfee(lam) - degree(lam)
            assert durfee(mu) == durfee(lam)
            step = lam
            for _ in range(n):
                step = c_shift(step, 1, k, n)
            assert step == lam
            diagrams += 1
        r = verify_cyclic(ctx_of(k, n), table=table_of(k, n))
        assert r.ok, (k, n)
    elapsed = time.monotonic() - start
    report(7, True,
           f"involution/degree/Durfee laws, shift period, and shift = "
           f"column multiplication on {diagrams} diagrams, n<=10, zero "
           f"failures ({elapsed:.2f}s)")


def test_criterion_8_ring_axioms(ctx_of, table_of):
    start = time.monotonic()
    pairs = 0
    for k, n in all_contexts(8):
        ctx, table = ctx_of(k, n), table_of(k, n)
        r = verify_commutativity(ctx, table=table)
        assert r.ok, (k, n)
        pairs += r.checked
        r = verify_associativity(ctx, samples=1000, table=table)
        assert r.ok, (k, n)
        r = verify_grading(ctx, table=table)
        assert r.ok, (k, n)
    elapsed = time.monotonic() - start
    report(8, True,
           f"commutativity ({pairs} pairs, both expansion orders), "
           f"associativity (1000 seeded triples per context), and "
           f"classical top degree, n<=8, zero failures ({elapsed:.2f}s)")


def test_criterion_9_spectrum_suite(ctx_of, table_of, spectral_of):
    from math import comb
    assert spectrum.CONJUGATION_TOL == 1e-6
    start = time.monotonic()
    for k, n in [(1, 2), (2, 4), (2, 5), (3, 6)]:
        sd = spectral_of(k, n)
        assert len(sd.points) == comb(n, k), (k, n)
        assert all(p.residual <= 1e-8 for p in sd.points), (k, n)
        r = verify_conjugation(ctx_of(k, n), spectral=sd)
        assert r.ok and r.extra["max_deviation"] <= 1e-6, (k, n)
        perm = conjugation_point_permutation(sd)
        assert perm is not None and sorted(perm) == list(range(comb(n, k)))
    elapsed = time.monotonic() - start
    report(9, elapsed < 30.0,
           f"spectra of 4 contexts: point counts, residuals <= 1e-8, "
           f"conjugation deviation <= 1e-6, points permuted ({elapsed:.2f}s)")


def test_criterion_10_positivity_suite(ctx_of, table_of, spectral_of):
    assert spectrum.VANISHING_TOL == 1e-7
    start = time.monotonic()
    checked = 0
    for k, n in all_contexts(6):
        ctx = ctx_of(k, n)
        classes = [basis_class(ctx, lam) for lam in ctx.basis]
        classes += random_integer_classes(ctx, 100)
        r = verify_positivity(ctx, classes, tol=1e-8,
                              spectral=spectral_of(k, n),
                              table=table_of(k, n))
        assert r.ok, (k, n, r.failures[:2])
        checked += r.checked
        r = verify_vanishing(ctx, classes, spectral=spectral_of(k, n))
        assert r.ok, (k, n, r.failures[:2])
    elapsed = time.monotonic() - start
    report(10, True,
           f"symmetry, semipositivity, real values, and the vanishing "
           f"equivalence on {checked} classes over n<=6 ({elapsed:.2f}s)")


def test_criterion_11_cli_golden(capsys):
    start = time.monotonic()

    def run(*args):
        code = cli.main(list(args))
        return code, capsys.readouterr().out

    cases = [
        (("mul", "--k", "2", "--n", "4", "--a", "1", "--b", "1"),
         0, "(2) + (1,1)"),
        (("mul", "--k", "2", "--n", "4", "--a", "2,2", "--b", "2,2"),
         0, "1"),
        (("mul", "--k", "2", "--n", "4", "--a", "", "--b", "2,1"),
         0, "(2,1)"),
        (("bar", "--k", "2", "--n", "4", "--class", "1"), 0, "(2,1)"),
        (("dual", "--k", "2", "--n", "4", "--class", "2,1"), 0, "(1)"),
        (("cshift", "--k", "2", "--n", "4", "--class", "", "--j", "1"),
         0, "(1,1)"),
        (("gw", "--k", "2", "--n", "4", "--a", "2,1", "--b", "2,1",
          "--c", "2"), 0, "value 1, d 1"),
        (("gw", "--k", "2", "--n", "4", "--a", "1", "--b", "1",
          "--c", "1"), 0, "value 0 (degree obstruction)"),
        (("gw", "--k", "2", "--n", "4", "--a", "", "--b", "",
          "--c", "2,2"), 0, "value 1, d 0"),
    ]
    for args, want_code, want_out in cases:
        code, out = run(*args)
        assert (code, out.strip()) == (want_code, want_out), args

    code, _ = run("verify", "--k", "0", "--n", "4")
    assert code == 2

    code, out = run("verify", "--k", "2", "--n", "4", "--suite", "all")
    assert code == 0 and json.loads(out)["failures"] == 0

    code, out = run("verify", "--k", "2", "--n", "5", "--suite",
                    "involution")
    doc = json.loads(out)
    counts = {s["suite"]: s["checked"] for s in doc["suites"]}
    assert code == 0 and counts["product_automorphism"] == 55

    code, out1 = run("spectrum", "--k", "1", "--n", "2")
    assert code == 0
    coords = sorted(p["coords"][0][0] for p in json.loads(out1)["points"])
    assert abs(coords[0] + 1) < 1e-8 and abs(coords[1] - 1) < 1e-8
    _, out2 = run("spectrum", "--k", "1", "--n", "2")
    assert out1 == out2

    elapsed = time.monotonic() - start
    report(11, True,
           f"documented command-line invocations, exit codes and spectrum "
           f"determinism ({elapsed:.2f}s)")
