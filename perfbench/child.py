"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py '<job json>'

Imports qgr from the checkout's ``src`` (it is not installed), runs one
job and prints one JSON line with its timings and outputs.  Jobs:

    {"kind": "setup", "k": 4, "n": 9}       import qgr.cli, build the context
    {"kind": "cli", "argv": ["mul", ...]}   run qgr.cli.main(argv)
    {"kind": "table", "k": 5, "n": 10}      build the context and build_table

``t_done`` is taken on the system-wide monotonic clock as soon as the
answer exists, so the parent can time spawn-to-answer; the table
fingerprint and the trace summaries are computed after it.  With
``"trace": true`` the public functions listed in spans.py are wrapped
after import, so import times are never traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def table_fingerprint(ctx, table):
    """sha256 over every unordered basis pair's product via the table.

    Uses only public API (basis_class, quantum_product(..., table=)),
    and canonical partition order, so it does not depend on the table's
    storage or on the basis ranking.
    """
    from qgr import basis_class, quantum_product
    from qgr.partitions import trim
    parts = sorted(ctx.basis)
    classes = [basis_class(ctx, lam) for lam in parts]
    digest = hashlib.sha256()
    for i, a in enumerate(classes):
        for j in range(i, len(classes)):
            prod = quantum_product(a, classes[j], table=table)
            terms = sorted((trim(ctx.basis[r]), c)
                           for r, c in prod.terms.items())
            digest.update(repr((trim(parts[i]), trim(parts[j]),
                                terms)).encode())
    return digest.hexdigest()


def table_nnz(ctx, table):
    return sum(len(table.product_ranks(ra, rb))
               for ra in range(ctx.dim) for rb in range(ra, ctx.dim))


def main():
    job = json.loads(sys.argv[1])
    kind = job["kind"]
    out = {"kind": kind}

    start = time.perf_counter()
    import qgr.spectrum  # noqa: F401  (the package, numpy included)
    out["spectrum_import_s"] = time.perf_counter() - start
    out["numpy"] = sys.modules["numpy"].__version__
    if kind in ("setup", "cli"):
        from qgr import cli
        out["cli_import_s"] = time.perf_counter() - start
    from qgr.partitions import GrassmannContext
    from qgr import quantum

    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer(keep=("quantum.build_table",
                                    "spectrum.joint_eigenbasis"))
        tracer.install()

    if kind == "setup":
        GrassmannContext(job["k"], job["n"])
        code = 0
    elif kind == "cli":
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
        out["work_s"] = time.perf_counter() - t0
        out["stdout"] = buf.getvalue()
    elif kind == "table":
        ctx = GrassmannContext(job["k"], job["n"])
        t0 = time.perf_counter()
        table = quantum.build_table(ctx)
        out["work_s"] = time.perf_counter() - t0
        code = 0
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    out["t_done"] = time.monotonic()
    out["exit"] = code
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        trace = {"tree": tracer.tree()}  # before the checks below call in
        built = tracer.results.get("quantum.build_table")
        if built is not None:
            trace["table_nnz"] = table_nnz(built.ctx, built)
        spec = tracer.results.get("spectrum.joint_eigenbasis")
        if spec is not None:
            trace["worst_residual"] = max(p.residual for p in spec.points)
        out["trace"] = trace
    if kind == "table" and job.get("check", True):
        t0 = time.perf_counter()
        out["fingerprint"] = table_fingerprint(ctx, table)
        out["check_s"] = time.perf_counter() - t0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
