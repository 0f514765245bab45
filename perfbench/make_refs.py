"""Regenerate perfbench/references.json: the query pool and its answers.

    python3 perfbench/make_refs.py

The pool is drawn from a fixed seed; the expected answers are whatever
the checked-out program prints, so run this only at a commit whose
answers are trusted.  The committed file was made at the commit that
introduced the benchmark, before any optimisation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402
from qgr import build_table, cli  # noqa: E402
from qgr.partitions import GrassmannContext, degree, format_partition  # noqa: E402

POOL_SEED = 20020205
PER_CONTEXT = {"mul": 24, "gw": 12, "bar": 8, "dual": 8, "cshift": 8}
SPECTRUM_TOL = 1e-8


def _gw_triple(rng, ctx):
    """Basis triple drawn uniformly among those meeting the degree condition.

    Rejection sampling keeps the draw uniform over valid triples, so every
    gw query computes a product instead of stopping at the degree check.
    """
    while True:
        a, b, c = (rng.choice(ctx.basis) for _ in range(3))
        excess = degree(a) + degree(b) + degree(c) - ctx.top_degree
        if excess >= 0 and excess % ctx.n == 0:
            return a, b, c


def pool():
    rng = random.Random(POOL_SEED)
    out = []
    for k, n in workloads.LADDER:
        ctx = GrassmannContext(k, n)
        common = ["--k", str(k), "--n", str(n), "--output", "json"]
        for kind, count in PER_CONTEXT.items():
            for i in range(count):
                if kind == "mul":
                    a, b = rng.choice(ctx.basis), rng.choice(ctx.basis)
                    extra = ["--a", format_partition(a),
                             "--b", format_partition(b)]
                elif kind == "gw":
                    a, b, c = _gw_triple(rng, ctx)
                    extra = ["--a", format_partition(a),
                             "--b", format_partition(b),
                             "--c", format_partition(c)]
                else:
                    extra = ["--class", format_partition(rng.choice(ctx.basis))]
                    if kind == "cshift":
                        extra += ["--j", str(rng.randrange(1, n))]
                out.append({"id": f"{kind}-k{k}n{n}-{i:02d}", "kind": kind,
                            "k": k, "n": n, "argv": [kind] + common + extra})
    for k, n in workloads.SPECTRUM_LADDER:
        out.append({"id": f"spectrum-k{k}n{n}", "kind": "spectrum",
                    "k": k, "n": n,
                    "argv": ["spectrum", "--k", str(k), "--n", str(n)]})
    return out


def answer(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(buf.getvalue())


def expected(entry):
    doc = answer(entry["argv"])
    if entry["kind"] == "gw":
        return {"value": doc["value"], "d": doc["d"]}
    if entry["kind"] == "spectrum":
        return {"residual_tol": SPECTRUM_TOL,
                "coords": [p["coords"] for p in doc["points"]]}
    return doc["terms"]


def main():
    queries = pool()
    for entry in queries:
        entry["expect"] = expected(entry)
    tables = {}
    for k, n in (workloads.SMOKE, (5, 10)):
        ctx = GrassmannContext(k, n)
        tables[workloads.ctx_key(k, n)] = child.table_fingerprint(
            ctx, build_table(ctx))
    refs = {"tables": tables, "queries": queries}
    with open(os.path.join(HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
