"""Operations of each workload, and the gates that check their answers.

Nothing here imports qgr: the query pool and every expected answer
live in references.json (written by make_refs.py), so a change to the
program cannot change what the benchmark asks or what it accepts.
"""

from __future__ import annotations

import json
import math
import random

LADDER = [(2, 4), (3, 7), (4, 8), (4, 9), (5, 10)]
SPECTRUM_LADDER = [(2, 4), (3, 7), (4, 8)]
SMOKE = (2, 4)

RELABEL_KINDS = ("bar", "dual", "cshift")
COORD_TOL = 1e-6


def ctx_key(k, n):
    return f"{k},{n}"


def verify_argv(k, n):
    return ["verify", "--suite", "all", "--k", str(k), "--n", str(n)]


def query_strata(queries):
    """Pool entries grouped by (kind, k, n)."""
    strata = {}
    for q in queries:
        strata.setdefault((q["kind"], q["k"], q["n"]), []).append(q)
    return strata


def query_block(strata, rng, index, ladder, spectrum_ladder):
    """One shuffled block of the query mix.

    Per ladder context: 4 mul and 2 gw; then bar, dual, cshift and two
    more relabels on contexts taken round-robin by block index; then 5
    spectrum ops, four on the largest spectrum context and one on the
    others in turn.  On the full ladder that is 40 ops: 50% mul, 25% gw,
    12.5% relabel, 12.5% spectrum.

    The composition is fixed, so the seed moves only which pool entry
    fills each slot and the order.  The largest spectrum context is the
    slowest op and makes up 10% of the mix, so latency_p95 falls in the
    middle of that cluster instead of on the noisy edge of the
    cold-start cluster, and it measures the spectrum path.
    """
    slots = []
    for k, n in ladder:
        slots += [("mul", k, n)] * 4 + [("gw", k, n)] * 2
    for i in range(5):
        kind = RELABEL_KINDS[(index * 2 + i) % len(RELABEL_KINDS)]
        slots.append((kind,) + ladder[(index * 5 + i) % len(ladder)])
    *smaller, largest = spectrum_ladder
    slots += [("spectrum",) + largest] * 4
    if smaller:
        slots.append(("spectrum",) + smaller[index % len(smaller)])
    block = [rng.choice(strata[slot]) for slot in slots]
    rng.shuffle(block)
    return block


def query_blocks(queries, seed, ladder=LADDER, spectrum_ladder=SPECTRUM_LADDER):
    """Endless seeded stream of query blocks."""
    strata = query_strata(queries)
    rng = random.Random(seed)
    index = 0
    while True:
        yield query_block(strata, rng, index, ladder, spectrum_ladder)
        index += 1


# --- gates: each returns None when the answer is right, else a reason ---

def check_verify(stdout):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "verify output is not JSON"
    if doc.get("failures") != 0:
        return f"verify reported {doc.get('failures')!r} failures"
    suites = doc.get("suites") or []
    if sum(s.get("checked", 0) for s in suites) <= 0:
        return "verify ran no suite or checked nothing"
    return None


def check_table(fingerprint, expected):
    if fingerprint != expected:
        return f"table fingerprint {fingerprint} != reference {expected}"
    return None


def _canonical_terms(terms):
    return sorted((tuple(t["p"]), t["c"]) for t in terms)


def _match_points(got, want, tol):
    """Greedy one-to-one match of coordinate vectors within tol."""
    unused = list(range(len(got)))
    for w in want:
        for pos, g in enumerate(unused):
            if all(abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
                   for a, b in zip(got[g], w)):
                del unused[pos]
                break
        else:
            return False
    return True


def check_query(entry, stdout):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"{entry['id']}: output is not JSON"
    expect = entry["expect"]
    kind = entry["kind"]
    if kind == "gw":
        got = {"value": doc.get("value"), "d": doc.get("d")}
        return None if got == expect else f"{entry['id']}: {got} != {expect}"
    if kind == "spectrum":
        points = doc.get("points", [])
        if len(points) != math.comb(entry["n"], entry["k"]):
            return f"{entry['id']}: {len(points)} points"
        worst = max(p["residual"] for p in points)
        if worst > expect["residual_tol"]:
            return f"{entry['id']}: residual {worst:.3e} above tolerance"
        if not _match_points([p["coords"] for p in points],
                             expect["coords"], COORD_TOL):
            return f"{entry['id']}: coordinates differ from the reference"
        return None
    if _canonical_terms(doc.get("terms", [])) != _canonical_terms(expect):
        return f"{entry['id']}: terms differ from the reference"
    return None
