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
order and takes no seed; verify --seed draws the certificate's
weights, the commutativity pairs, the associativity and dual-product
triples and the random classes of the spectrum suites.
verify --tol sets only the point-value gates of positivity, whose
matrices are certified exactly: the spectrum that verify builds keeps
the 1e-8 bound on its Pieri residuals, the bound that spectrum --tol
sets for the spectrum command.  verify builds one
structure table and one spectrum and passes them to every suite that
reads them.

On a POSIX host with more CPUs than numpy's BLAS pool has threads
(one per CPU unless OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or
OMP_NUM_THREADS sets fewer), verify --suite all runs the involution
and spectrum suites in one forked worker while this process runs the
ring suites; the output is the same byte for byte, and the memory is
held by two processes, each with its own peak.  The worker only saves
time: where it cannot be forked or gives no result, this process runs
the involution and spectrum suites after the ring suites, so an error
in them surfaces here with this process's traceback.  Every other
suite choice, and every other host, runs them in this process through
the same functions.  It is a process because the ring suites hold the GIL: on
2 CPUs with BLAS on one thread, a thread in its place took a median
507 ms against the fork's 324 ms for verify --suite all at G(4,9).
It needs a spare CPU because its BLAS pool would contend with this
process: forked with default BLAS threads there, the run took a
median 493 ms against 389 ms in one process at G(4,9), and 2272
against 2320 ms at G(5,10).
verify --stats writes each suite's seconds and the process that ran
it, the table's term count, the ordered pairs the certificate compared
and the rank it found, the diagrams of positivity's transpose
identity, the entries of each process's ring memo, the peak memory of
each process and, when the worker gave no result, how it ended, to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time

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


def _timed(log, where, fn, *args, **kwargs):
    """Call fn, logging its name, its seconds and the process it ran in."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    log.append(f"{fn.__name__} {time.perf_counter() - start:.4f} s {where}")
    return out


def _suite_runner(ctx, log, where):
    """A caller of suites on ctx that logs each one's time, its process
    and its stats lines."""
    def run(fn, *args, **kwargs):
        report = _timed(log, where, fn, ctx, *args, **kwargs)
        log.extend(report.stats)
        return report
    return run


def _ring_suites(ctx, seed, table, log, where):
    """The ring suites, in order."""
    run = _suite_runner(ctx, log, where)
    return [run(quantum.verify_commutativity, seed=seed, table=table),
            run(quantum.verify_associativity, seed=seed, table=table),
            run(quantum.verify_grading, table=table),
            run(quantum.verify_pieri_consistency),
            run(quantum.verify_giambelli),
            run(quantum.verify_cyclic, table=table),
            run(spectrum.verify_certificate, seed=seed, table=table)]


def _involution_suites(ctx, seed, table, log, where):
    """The involution suites, in order."""
    run = _suite_runner(ctx, log, where)
    return [run(involution.verify_involution_factorization),
            run(involution.verify_product_automorphism, table=table),
            run(involution.verify_duality_identities, table=table),
            run(involution.verify_dual_product_identity, seed=seed,
                table=table)]


def _spectrum_suites(ctx, tol, seed, table, log, where):
    """The spectrum suites, in order; they read nothing else of verify."""
    run = _suite_runner(ctx, log, where)
    spec = _timed(log, where, spectrum.joint_eigenbasis, ctx)
    classes = ([basis_class(ctx, lam) for lam in ctx.basis]
               + _timed(log, where, spectrum.random_integer_classes, ctx,
                        100, seed=seed))
    return [run(spectrum.verify_conjugation, spectral=spec),
            run(spectrum.verify_point_conjugation, spectral=spec),
            run(spectrum.verify_positivity, classes, tol=tol, spectral=spec,
                table=table),
            run(spectrum.verify_vanishing, classes, spectral=spec)]


def _blas_threads(cpus):
    """Threads in numpy's BLAS pool: the first of the variables OpenBLAS
    and MKL read that holds a positive count, at most one per CPU, and
    one per CPU when none does."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


def _spare_cpu():
    """Whether a forked worker can run beside this process on a CPU
    that numpy's BLAS pool leaves free.

    The spectrum suites spend their time in BLAS and the ring suites do
    not, so the split gains only when there are more CPUs than BLAS
    threads; with one BLAS thread per CPU the worker's pool contends
    with this process, and the split was measured no faster.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    cpus = len(os.sched_getaffinity(0))
    return cpus > _blas_threads(cpus)


def _worker(read_fd, write_fd, part):
    """Body of the forked worker: pickle part's result into the pipe.

    Exits 0 once the whole result is written, and 1, having written
    nothing, when part raises or its result does not pickle.  Ends the
    process with os._exit, so it never returns into the caller's stack
    and flushes none of the parent's buffers.
    """
    status = 1
    try:
        os.close(read_fd)
        payload = pickle.dumps(part())
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _beside_worker(main_part, worker_part, log):
    """Run main_part here and worker_part in one forked worker, at once.

    Returns (here, there), their results; the worker inherits everything
    built so far and sends its result back pickled through a pipe.
    there is None when no worker can be forked, or when the worker ends
    without exit status 0, for whatever reason; the caller then runs
    the worker's part itself.  A worker that ran and gave no result
    adds a line to log naming how it ended.  The worker is reaped
    before this returns or raises, and is killed first if main_part
    raises.
    """
    import signal
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare, as under RLIMIT_NPROC
        os.close(read_fd)
        os.close(write_fd)
        return main_part(), None
    if pid == 0:
        _worker(read_fd, write_fd, worker_part)
    os.close(write_fd)
    reaped = False
    try:
        with open(read_fd, "rb") as pipe:
            here = main_part()
            # all of it before waitpid: the worker blocks on a full pipe
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status == 0:
        return here, pickle.loads(payload)
    how = (f"signal {signal.Signals(-status).name}" if status < 0
           else f"exit status {status}")
    log.append(f"worker gave no result ({how}); the involution and "
               f"spectrum suites ran in main")
    return here, None


def _run_suites(ctx, which, tol, seed, log):
    """Reports of the suites `which` selects, in the documented order.

    For --suite all on a host with a spare CPU, the involution and
    spectrum suites run in one forked worker while this process runs
    the ring suites; both read the one structure table built here.
    Where the worker gives no result, this process runs them after the
    ring suites.  log collects the lines that --stats writes.
    """
    table = _timed(log, "main", quantum.build_table, ctx)
    log.append(f"table terms {len(table.coeff)}")

    def ring_part():
        if which in ("ring", "all"):
            return _ring_suites(ctx, seed, table, log, "main")
        return []

    def worker_part(log, where):
        reports = []
        if which in ("involution", "all"):
            reports += _involution_suites(ctx, seed, table, log, where)
        if which in ("spectrum", "all"):
            reports += _spectrum_suites(ctx, tol, seed, table, log, where)
        return reports

    def in_worker():
        worker_log = []
        reports = worker_part(worker_log, "worker")
        return reports, worker_log + [_cache_use(ctx, "worker"),
                                      _peak_rss("worker")]

    if which == "all" and _spare_cpu():
        reports, there = _beside_worker(ring_part, in_worker, log)
    else:
        reports, there = ring_part(), None
    if there is None:
        return reports + worker_part(log, "main")
    worker_reports, worker_log = there
    log.extend(worker_log)
    return reports + worker_reports


def _check_tol(args):
    # NaN fails every comparison, so it is rejected with inf here
    if not 0 < args.tol < math.inf:
        raise CliError(f"tolerance must be finite and positive, "
                       f"got {args.tol}")


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
    log = []
    reports = _run_suites(ctx, args.suite, args.tol, args.seed, log)
    failed = sum(len(r.failures) for r in reports)
    doc = {"k": ctx.k, "n": ctx.n, "suite": args.suite,
           "suites": [r.to_json_dict() for r in reports],
           "failures": failed}
    print(json.dumps(doc, separators=(",", ":")))
    if args.stats:
        _write_stats(ctx, log)
    return 0 if failed == 0 else 1


def _peak_rss(where):
    """The --stats line for this process's peak resident memory."""
    import resource
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # of ru_maxrss
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    return f"peak RSS {peak:.1f} MB {where}"


def _cache_use(ctx, where):
    """The --stats line for the entries this process's ring memo holds
    for ctx."""
    ring = len(quantum._RING_CACHE.get((ctx.k, ctx.n), ()))
    return f"cache entries ring {ring} {where}"


def _write_stats(ctx, log):
    """Write verify's log, this process's memo entries and its peak
    memory to stderr."""
    for line in log + [_cache_use(ctx, "main"), _peak_rss("main")]:
        print(f"stats: {line}", file=sys.stderr)


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
    p.add_argument("--stats", action="store_true",
                   help="write suite timings, table size and peak memory "
                        "to stderr")
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
