"""The qgr benchmark: cold-process workloads, gated answers, traced layers.

    python3 perfbench/run.py --workload verify-g49 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload queries --seed 1 --seconds 5 --trace 1 --smoke

qgr is not installed, so every operation is a fresh interpreter running
perfbench/child.py, which imports qgr from the checkout's ``src``.  One
closed-loop client issues one operation at a time until ``--seconds``
would be exceeded (at least one always runs).  BLAS runs single-threaded
(``BLAS_THREADS``); the setting is recorded with every result.

Workloads (the seed reaches the program only through the generated argv;
it fills and orders the query mix, the other two have fixed inputs):

    verify-g49  one op is ``verify --suite all --k 4 --n 9``; touches every
                layer, spectrum and structure-tensor work dominate.
    table-g510  one op builds GrassmannContext(5, 10) and runs build_table;
                only quantum and partitions work, spectrum stays idle.
    queries     seeded blocks of single-answer mul/gw/bar/dual/cshift/
                spectrum commands over G(2,4)..G(5,10); mul and gw are
                per-pair products that build no table, so interpreter
                start and import weight show; spectrum ops set the tail.

End-to-end metrics, over the ops of one run:

    latency_p50_ms, latency_p95_ms  spawn to answer, per op
    throughput_ops_s  ops / summed spawn-to-exit time
    work_p50_ms       in-process work after set-up: verify's main() on
                      verify-g49, build_table on table-g510, the
                      command's main() on queries
    setup_s           median of SETUP_REPEATS cold processes that import
                      qgr.cli and build the workload's largest context,
                      half run before the measured ops and half after
    peak_rss_mb       largest ru_maxrss an op's own process reported

Failed ops are the result's ``failed`` out of ``attempted``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced unit of work (one op, or one 40-op query block),
prints the per-layer metrics (totals over one traced unit: medians
across units for times, the first unit's value for exact counts) and
the tracing overhead (traced minus untraced unit time), and writes the
span trees, one per op, to perfbench/out/.  ``--smoke`` shrinks every
workload to a few ops on G(2,4).  The last stdout line is the result
object; the line before it records the environment, the failed fraction
and the sample count behind each metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

BLAS_THREADS = "1"
SETUP_REPEATS = 20      # half before the measured ops, half after them
HARD_LIMIT_S = 165.0     # stop starting work here; the run must end by 180 s
OP_TIMEOUT_S = {"verify-g49": 150.0, "table-g510": 90.0, "queries": 30.0}

END_TO_END = ("latency_p50_ms", "latency_p95_ms", "throughput_ops_s",
              "work_p50_ms", "setup_s", "peak_rss_mb")

# per-layer metric -> span whose inclusive time it reports
LAYER_TIMES = {
    "partitions.context_s": "partitions.GrassmannContext",
    "quantum.build_table_s": "quantum.build_table",
    "quantum.product_s": "quantum.quantum_product",
    "classical.cup_product_s": "classical.cup_product",
    "spectrum.joint_eigenbasis_s": "spectrum.joint_eigenbasis",
    "spectrum.mult_matrix_s": "spectrum.mult_matrix",
    "spectrum.evaluate_s": "spectrum.evaluate",
    "cli.main_s": "cli.main",
    "reports.json_s": "reports.VerifyReport.to_json_dict",
}
for _suite in ("commutativity", "associativity", "grading",
               "pieri_consistency", "giambelli", "cyclic"):
    LAYER_TIMES[f"quantum.verify_{_suite}_s"] = f"quantum.verify_{_suite}"
for _suite in ("involution_factorization", "product_automorphism",
               "duality_identities", "dual_product_identity"):
    LAYER_TIMES[f"involution.verify_{_suite}_s"] = f"involution.verify_{_suite}"
for _suite in ("conjugation", "point_conjugation", "positivity", "vanishing"):
    LAYER_TIMES[f"spectrum.verify_{_suite}_s"] = f"spectrum.verify_{_suite}"

# per-layer metric -> span whose call count it reports
LAYER_COUNTS = {
    "quantum.pieri_calls": "quantum.quantum_pieri_product",
    "quantum.giambelli_calls": "quantum.giambelli_expand",
    "quantum.product_calls": "quantum.quantum_product",
    "classical.lr_calls": "classical.lr_coefficient",
    "involution.bar_calls": "involution.bar",
    "spectrum.eig_calls": "spectrum.eig",
    "spectrum.mult_matrix_calls": "spectrum.mult_matrix",
    "spectrum.evaluate_calls": "spectrum.evaluate",
}

# metrics read from the child's own fields, not from spans
LAYER_OTHER = {
    "quantum.table_nnz": "count", "quantum.nnz_per_pieri_call": "ratio",
    "spectrum.worst_residual": "1", "cli.import_s": "s",
    "spectrum.import_s": "s", "reports.checked_total": "count",
    "reports.failures_total": "count", "trace.overhead_s": "s",
}

# the ROADMAP's verify --suite all baseline at G(4,9), share of time
ROADMAP_SHARES = [("positivity", "47%"), ("commutativity", "13%"),
                  ("eigenbasis", "12%"), ("vanishing", "9%"),
                  ("table build", "6%"), ("all other suites", "13%")]


def layer_unit(metric):
    if metric in LAYER_OTHER:
        return LAYER_OTHER[metric]
    return "s" if metric in LAYER_TIMES else "count"


PER_LAYER = tuple(LAYER_TIMES) + tuple(LAYER_COUNTS) + tuple(LAYER_OTHER)
EXACT_COUNTS = set(LAYER_COUNTS) | {"quantum.table_nnz", "reports.checked_total",
                                    "reports.failures_total"}


# --- running one operation ---------------------------------------------

def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # child.py puts the checkout's src first
    return env


def run_child(job, timeout):
    """Run one job in a fresh interpreter; returns the child's record.

    Adds ``latency_s`` (spawn to answer), ``wall_s`` (spawn to exit,
    less the child's own answer checking) and ``error`` (None when the
    process succeeded; answers are checked by the caller).
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env(), text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:  # also on SIGTERM: never leave a child running
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    end = time.monotonic()
    lines = stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"child exited {proc.returncode}: {stderr.strip()[-300:]}"}
    rec["latency_s"] = rec["t_done"] - start
    rec["wall_s"] = end - start - rec.get("check_s", 0.0)
    rec["error"] = None
    if proc.returncode != 0 or rec["exit"] != 0:
        rec["error"] = (f"exit {rec['exit']}/{proc.returncode}: "
                        f"{stderr.strip()[-300:]}")
    return rec


# --- workloads ---------------------------------------------------------

class Workload:
    """A workload's set-up context and its endless stream of units.

    A unit is a list of (job, gate) ops: one op for verify-g49 and
    table-g510, one query block for queries.  A gate maps the child's
    record to None, or to the reason the answer is wrong.
    """

    def __init__(self, name, refs, seed, smoke):
        self.name = name
        self.timeout = OP_TIMEOUT_S[name]
        if name == "queries":
            ladder = [workloads.SMOKE] if smoke else workloads.LADDER
            spec = [workloads.SMOKE] if smoke else workloads.SPECTRUM_LADDER
            self.setup_ctx = ladder[-1]
            blocks = workloads.query_blocks(refs["queries"], seed, ladder, spec)
            self.units = ([({"kind": "cli", "argv": q["argv"]}, _query_gate(q))
                           for q in block] for block in blocks)
            return
        if name == "verify-g49":
            k, n = workloads.SMOKE if smoke else (4, 9)
            job = {"kind": "cli", "argv": workloads.verify_argv(k, n)}
            gate = lambda rec: workloads.check_verify(rec.get("stdout", ""))
        else:
            k, n = workloads.SMOKE if smoke else (5, 10)
            job = {"kind": "table", "k": k, "n": n}
            expected = refs["tables"][workloads.ctx_key(k, n)]
            gate = lambda rec: workloads.check_table(rec.get("fingerprint"),
                                                     expected)
        self.setup_ctx = (k, n)
        self.units = itertools.repeat([(job, gate)])


def _query_gate(entry):
    return lambda rec: workloads.check_query(entry, rec.get("stdout", ""))


class Client:
    """The closed-loop client: one op at a time, every answer gated."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.numpy = None   # as the children report it

    def remaining(self):
        return self.deadline - time.monotonic()

    def run(self, job, gate, timeout):
        self.attempted += 1
        rec = run_child(job, min(timeout, self.remaining()))
        self.numpy = self.numpy or rec.get("numpy")
        if rec["error"] is None:
            rec["error"] = gate(rec)
        if rec["error"] is not None:
            self.failures.append(rec["error"])
        return rec

    def run_unit(self, unit, timeout, trace=False):
        return [self.run(dict(job, trace=trace), gate, timeout)
                for job, gate in unit]


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(client, workload, repeats):
    k, n = workload.setup_ctx
    times = []
    for _ in range(repeats):
        rec = client.run({"kind": "setup", "k": k, "n": n},
                         lambda rec: None, 30.0)
        if rec["error"] is None:
            times.append(rec["latency_s"])
    return times


def end_to_end(client, workload, seconds, smoke):
    repeats = 2 if smoke else SETUP_REPEATS
    setups = measure_setup(client, workload, repeats // 2)
    units = workload.units
    ops = next(units) if smoke else (op for unit in units for op in unit)
    ok, spent = [], []
    window_end = time.monotonic() + seconds
    for job, gate in ops:
        started = time.monotonic()
        rec = client.run(job, gate, workload.timeout)
        spent.append(time.monotonic() - started)
        if rec["error"] is None:
            ok.append(rec)
        if client.remaining() <= 0 or \
                time.monotonic() + statistics.median(spent) > window_end:
            break
    setups += measure_setup(client, workload, repeats - repeats // 2)
    if not ok or not setups:
        return {}, {}
    lat = [r["latency_s"] * 1000.0 for r in ok]
    metrics = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p95_ms": (percentile(lat, 95), "ms"),
        "throughput_ops_s": (len(ok) / sum(r["wall_s"] for r in ok), "1/s"),
        "work_p50_ms": (statistics.median(r["work_s"] * 1000.0 for r in ok),
                        "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in ok) / 1024.0, "MB"),
    }
    samples = {name: len(ok) for name in END_TO_END}
    samples["setup_s"] = len(setups)
    return metrics, samples


# --- traced run --------------------------------------------------------

def unit_layers(recs, verify):
    """Per-layer values of one traced unit: sums over its ops.

    The report totals come from verify's JSON, so they exist only when
    the unit ran ``verify``.
    """
    trees = [r["trace"]["tree"] for r in recs]
    out = {m: sum(spans.span_total(t, s) for t in trees)
           for m, s in LAYER_TIMES.items()}
    out.update({m: sum(spans.span_count(t, s) for t in trees)
                for m, s in LAYER_COUNTS.items()})
    nnz = sum(r["trace"].get("table_nnz", 0) for r in recs)
    table_pieri = sum(spans.subtree_count(t, "quantum.build_table",
                                          "quantum.quantum_pieri_product")
                      for t in trees)
    out["quantum.table_nnz"] = nnz
    out["quantum.nnz_per_pieri_call"] = nnz / table_pieri if table_pieri else 0.0
    out["spectrum.worst_residual"] = max(
        (r["trace"].get("worst_residual", 0.0) for r in recs), default=0.0)
    out["cli.import_s"] = sum(r.get("cli_import_s", 0.0) for r in recs)
    out["spectrum.import_s"] = sum(r["spectrum_import_s"] for r in recs)
    checked = failures = 0
    for r in recs if verify else ():
        doc = json.loads(r["stdout"])
        checked += sum(s["checked"] for s in doc["suites"])
        failures += doc["failures"]
    out["reports.checked_total"] = checked
    out["reports.failures_total"] = failures
    return out


def suite_share_table(layers):
    """Markdown table of verify time by suite, beside the ROADMAP's."""
    main = layers["cli.main_s"]
    rows = [(m.split("verify_")[1][:-2], v) for m, v in layers.items()
            if "verify_" in m]
    rows += [("table build", layers["quantum.build_table_s"]),
             ("eigenbasis", layers["spectrum.joint_eigenbasis_s"])]
    rows.sort(key=lambda r: -r[1])
    baseline = dict(ROADMAP_SHARES)
    lines = ["| Suite | Measured share | Seconds | ROADMAP baseline |",
             "|---|---|---|---|"]
    for name, secs in rows:
        lines.append(f"| {name} | {100 * secs / main:.1f}% | {secs:.3f} | "
                     f"{baseline.get(name, '')} |")
    other = main - sum(s for _, s in rows)
    lines.append(f"| not in a suite span | {100 * other / main:.1f}% | "
                 f"{other:.3f} | |")
    return "\n".join(lines)


def traced(client, workload, seconds, seed, smoke):
    plain_walls, traced_walls, layer_runs, trees = [], [], [], []
    window_end = time.monotonic() + seconds
    for unit in workload.units:
        plain = client.run_unit(unit, workload.timeout)
        spent = time.monotonic()
        recs = client.run_unit(unit, workload.timeout, trace=True)
        spent = time.monotonic() - spent
        if all(r["error"] is None for r in plain + recs):
            plain_walls.append(sum(r["latency_s"] for r in plain))
            traced_walls.append(sum(r["latency_s"] for r in recs))
            layer_runs.append(unit_layers(recs,
                                          workload.name == "verify-g49"))
            trees.append([{"argv": job.get("argv"), "kind": job["kind"],
                           "tree": r["trace"]["tree"]}
                          for (job, _), r in zip(unit, recs)])
        if smoke or client.remaining() <= 0:
            break
        if time.monotonic() + 2 * spent > window_end:
            break
    if not layer_runs:
        return {}, {}
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [run[name] for run in layer_runs]
        exact = name in EXACT_COUNTS
        # query blocks differ from one another by design; other units repeat
        if exact and workload.name != "queries" and len(set(values)) > 1:
            print(f"warning: {name} differs between traced units: {values}",
                  file=sys.stderr)
        metrics[name] = (values[0] if exact else statistics.median(values),
                         layer_unit(name))
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), "s")
    if workload.name == "verify-g49":
        print(suite_share_table({m: v for m, (v, _) in metrics.items()}))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "units": trees},
                  fh, indent=1)
    return metrics, {name: len(layer_runs) for name in PER_LAYER}


# --- environment and entry point ---------------------------------------

def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": None, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "loadavg_start": list(os.getloadavg()),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "client": "closed loop, 1 client"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-g49", "table-g510", "queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few ops on G(2,4), for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qgr", "cli.py")):
        print(f"error: no qgr sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    env = environment(args)
    workload = Workload(args.workload, refs, args.seed, args.smoke)
    client = Client(time.monotonic() + HARD_LIMIT_S)
    if args.trace:
        metrics, samples = traced(client, workload, args.seconds, args.seed,
                                  args.smoke)
        names = PER_LAYER
    else:
        metrics, samples = end_to_end(client, workload, args.seconds,
                                      args.smoke)
        names = END_TO_END
    for reason in client.failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    env["numpy"] = client.numpy
    env["failed_frac"] = len(client.failures) / max(client.attempted, 1)
    env["samples"] = samples
    print(json.dumps({"env": env}))
    result = {"correct": not client.failures and set(metrics) == set(names),
              "attempted": client.attempted,
              "failed": len(client.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
