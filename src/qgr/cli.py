"""Command-line front end.

    qgr mul      --k 2 --n 4 --a "1" --b "1"
    qgr bar      --k 2 --n 4 --class "1"
    qgr dual     --k 2 --n 4 --class "2,1"
    qgr cshift   --k 2 --n 4 --class "" --j 1
    qgr gw       --k 2 --n 4 --a "2,1" --b "2,1" --c "2"
    qgr verify   --k 2 --n 4 --suite all
    qgr spectrum --k 2 --n 4

Exit codes: 0 success, 1 verification failure, 2 bad input or
configuration, 3 degenerate spectrum.  Bad input is checked here,
before any work; an error raised inside the library is not bad input
and surfaces with its traceback.  --output json switches the
class-valued commands to a terms array; verify and spectrum always
emit JSON reports.  spectrum prints the closed-form points in subset
order and takes no seed; verify --seed draws the associativity and
dual-product triples and the random classes of the spectrum suites.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import involution, quantum, spectrum
from .classical import basis_class, terms_json
from .partitions import GrassmannContext, parse_partition, poincare_dual
from .quantum import DEFAULT_SEED


class CliError(Exception):
    """Bad input or configuration; maps to exit code 2."""


def _context(args):
    try:
        return GrassmannContext(args.k, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse(ctx, text, what):
    try:
        return parse_partition(text, ctx)
    except ValueError as exc:
        raise CliError(f"{what}: {exc}") from None


def _emit_class(a, args):
    if args.output == "json":
        print(json.dumps({"k": a.ctx.k, "n": a.ctx.n, "terms": terms_json(a)},
                         separators=(",", ":")))
    else:
        print(a)


def cmd_mul(args):
    ctx = _context(args)
    a = basis_class(ctx, _parse(ctx, args.a, "--a"))
    b = basis_class(ctx, _parse(ctx, args.b, "--b"))
    _emit_class(quantum.quantum_product(a, b), args)
    return 0


def cmd_bar(args):
    ctx = _context(args)
    a = basis_class(ctx, _parse(ctx, args.cls, "--class"))
    _emit_class(involution.bar(a), args)
    return 0


def cmd_dual(args):
    ctx = _context(args)
    lam = _parse(ctx, args.cls, "--class")
    _emit_class(basis_class(ctx, poincare_dual(lam, ctx.k)), args)
    return 0


def cmd_cshift(args):
    ctx = _context(args)
    a = basis_class(ctx, _parse(ctx, args.cls, "--class"))
    _emit_class(quantum.c_apply(a, args.j), args)
    return 0


def cmd_gw(args):
    ctx = _context(args)
    rec = quantum.gw_record(ctx, _parse(ctx, args.a, "--a"),
                            _parse(ctx, args.b, "--b"),
                            _parse(ctx, args.c, "--c"))
    if args.output == "json":
        print(json.dumps({"value": rec.value, "d": rec.degree_d},
                         separators=(",", ":")))
    elif rec.degree_d is None:
        print("value 0 (degree obstruction)")
    else:
        print(f"value {rec.value}, d {rec.degree_d}")
    return 0


SUITES = {"ring", "involution", "spectrum", "all"}


def _run_suites(ctx, which, tol, seed):
    reports = []
    table = quantum.build_table(ctx)
    if which in ("ring", "all"):
        reports.append(quantum.verify_commutativity(ctx, table=table))
        reports.append(quantum.verify_associativity(ctx, seed=seed,
                                                    table=table))
        reports.append(quantum.verify_grading(ctx, table=table))
        reports.append(quantum.verify_pieri_consistency(ctx))
        reports.append(quantum.verify_giambelli(ctx))
        reports.append(quantum.verify_cyclic(ctx, table=table))
    if which in ("involution", "all"):
        reports.append(involution.verify_involution_factorization(ctx))
        reports.append(involution.verify_product_automorphism(ctx,
                                                              table=table))
        reports.append(involution.verify_duality_identities(ctx, table=table))
        reports.append(involution.verify_dual_product_identity(ctx, seed=seed,
                                                               table=table))
    if which in ("spectrum", "all"):
        spec = spectrum.joint_eigenbasis(ctx)
        classes = ([basis_class(ctx, lam) for lam in ctx.basis]
                   + spectrum.random_integer_classes(ctx, 100, seed=seed))
        reports.append(spectrum.verify_conjugation(ctx, spectral=spec))
        reports.append(spectrum.verify_point_conjugation(ctx, spectral=spec))
        reports.append(spectrum.verify_positivity(ctx, classes, tol=tol,
                                                  spectral=spec, table=table))
        reports.append(spectrum.verify_vanishing(ctx, classes, spectral=spec))
    return reports


def _check_tol(args):
    if args.tol <= 0:
        raise CliError(f"tolerance must be positive, got {args.tol}")


def _check_spectrum_size(ctx):
    if ctx.dim > spectrum.MAX_DIM:
        raise CliError(f"dimension {ctx.dim} is beyond the dense matrices "
                       f"the spectrum is built for (at most "
                       f"{spectrum.MAX_DIM})")


def cmd_verify(args):
    ctx = _context(args)
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}; "
                       f"choose from {sorted(SUITES)}")
    _check_tol(args)
    if args.seed < 0:
        raise CliError(f"seed must be non-negative, got {args.seed}")
    if args.suite in ("spectrum", "all"):
        _check_spectrum_size(ctx)
    reports = _run_suites(ctx, args.suite, args.tol, args.seed)
    failed = sum(len(r.failures) for r in reports)
    doc = {"k": ctx.k, "n": ctx.n, "suite": args.suite,
           "suites": [r.to_json_dict() for r in reports],
           "failures": failed}
    print(json.dumps(doc, separators=(",", ":")))
    return 0 if failed == 0 else 1


def cmd_spectrum(args):
    ctx = _context(args)
    _check_tol(args)
    _check_spectrum_size(ctx)
    spec = spectrum.joint_eigenbasis(ctx, residual_tol=args.tol)
    print(json.dumps(spectrum.spectrum_json_dict(spec),
                     separators=(",", ":")))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgr",
        description="Exact quantum cohomology of the Grassmannian at q=1.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("mul", help="quantum product of two basis diagrams")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("bar", help="diagram involution of a basis class")
    common(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=cmd_bar)

    p = sub.add_parser("dual", help="Poincare dual of a basis class")
    common(p)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("cshift", help="cyclic shift of a basis class")
    common(p)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--j", type=int, default=1)
    p.set_defaults(func=cmd_cshift)

    p = sub.add_parser("gw", help="three-point invariant and curve degree")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", default="all")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="emit the spectrum as JSON")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except spectrum.DegenerateSpectrum as exc:
        print(f"degenerate spectrum: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
