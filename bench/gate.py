"""Correctness gate: every output of every repetition is checked.

Each check returns ``(attempted, failed, messages)``.  An op that raised or
whose output is wrong counts as failed; ``FAIL_*`` verdicts and the sweep's
exit status 1 are results of the program, not failures.

* ``sweep_full``: rows are compared with ``reference/sweep_full.csv``,
  recorded at ``DEFAULT_SEED``.  At that seed the whole file must match byte
  for byte.  At other seeds only the projection rows' verdict and witness may
  differ, because they come from seeded sampling; a sampled counterexample is
  then re-checked with the definitional oracle.
* ``solve_large``: values, canonical witnesses and candidate counts are
  compared with ``reference/solve_large.json``.
* ``small_random``: every witness is re-checked with ``is_dominating`` and
  ``is_weakly_convex_oracle`` (and a convexity test written here), and the
  invariants must satisfy gamma <= gamma_wcon <= gamma_ocon and the
  ``script_p`` relations.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re
from collections import deque

from workloads import DEFAULT_SEED, SWEEP_FULL_CONFIG

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

PROJECTION_CHECKS = {
    "check_cartesian_projection": "cartesian",
    "check_lexico_projection": "lexicographic",
}
SWEEP_EXIT_STATUS = 1
MAX_MESSAGES = 10

_SAMPLED = re.compile(
    r"sampled S=(?P<pairs>[0-9,();]+) side=(?P<side>left|right) proj=\{(?P<proj>[0-9,]*)\} fails in factor"
)


def _owc_dominating(g, s) -> bool:
    """The definitional predicate: dominating, complement weakly convex by the oracle."""
    from owc import IntervalCache, is_dominating, is_weakly_convex_oracle

    return is_dominating(g, s) and is_weakly_convex_oracle(IntervalCache(g), s.complement())


def _read_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


@functools.cache
def _factors() -> dict:
    """Factor graphs of the sweep config by name."""
    from owc.harness import build_pool, parse_sweep_config

    return {g.name: g for g in build_pool(parse_sweep_config(SWEEP_FULL_CONFIG))}


def _check_sampled_witness(row: dict) -> str | None:
    """None if the sampled counterexample is a real one, else the reason it is not."""
    from owc import VertexSet, product

    m = _SAMPLED.fullmatch(row["witness"])
    if m is None:
        return f"unparsable witness {row['witness']!r}"
    factors = _factors()
    p = product(PROJECTION_CHECKS[row["check"]], factors[row["g_name"]], factors[row["h_name"]])
    pairs = [tuple(map(int, t.strip("()").split(","))) for t in m["pairs"].split(";")]
    s = p.subset(pairs)
    if len(s) <= int(row["exact"]):
        return "sampled set is not larger than the minimum"
    if not _owc_dominating(p.graph, s):
        return "sampled set is not OWC dominating in the product"
    side = m["side"]
    proj = p.project_left(s) if side == "left" else p.project_right(s)
    claimed = VertexSet.of(proj.universe, (int(v) for v in m["proj"].split(",") if v))
    if proj != claimed:
        return f"projection is {proj}, witness says {claimed}"
    factor = p.left if side == "left" else p.right
    if _owc_dominating(factor, proj):
        return "projection is OWC dominating in the factor after all"
    return None


def check_sweep_full(outputs: dict, seed: int, refdir: str = REFERENCE_DIR):
    with open(os.path.join(refdir, "sweep_full.csv"), "rb") as fh:
        ref_bytes = fh.read()
    ref = _read_rows(ref_bytes)
    attempted = len(ref) - 1
    if outputs["status"] != SWEEP_EXIT_STATUS:
        return attempted, attempted, [f"sweep exit status {outputs['status']}, expected {SWEEP_EXIT_STATUS}"]
    if seed == DEFAULT_SEED and outputs["csv"] == ref_bytes:
        return attempted, 0, []
    got = _read_rows(outputs["csv"])
    messages = []
    if got[:1] != ref[:1]:
        return attempted, attempted, ["CSV header differs from the reference"]
    header = ref[0]
    failed = min(attempted, abs(attempted - (len(got) - 1)))
    if failed:
        messages.append(f"{len(got) - 1} rows, reference has {attempted}")
    for i, (r, g) in enumerate(zip(ref[1:], got[1:]), 1):
        if r == g:
            continue
        rr, gg = dict(zip(header, r)), dict(zip(header, g))
        if seed == DEFAULT_SEED or rr["check"] not in PROJECTION_CHECKS:
            why = "differs from the reference"
        elif any(rr[k] != gg[k] for k in header if k not in ("verdict", "witness")):
            why = "seed-independent fields differ from the reference"
        elif rr["witness"].startswith("minimum "):
            why = "minimum-set counterexample differs from the reference"
        elif gg["verdict"] != "FAIL_CONSTRUCTION":
            why = f"verdict {gg['verdict']} where a sampled counterexample is the only allowed change"
        else:
            why = _check_sampled_witness(gg)
        if why is not None:
            failed += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"row {i} ({rr['check']} {rr['g_name']} x {rr['h_name']}): {why}")
    return attempted, failed, messages


def check_solve_large(outputs: dict, refdir: str = REFERENCE_DIR):
    with open(os.path.join(refdir, "solve_large.json")) as fh:
        ref = json.load(fh)
    failed, messages = 0, []
    for key, want in ref.items():
        got = outputs.get(key)
        if got != want:
            failed += 1
            messages.append(f"{key}: got {got!r}, reference {want!r}")
    return len(ref), failed, messages


def _distances(adj: tuple[int, ...], order: int) -> list[list[int]]:
    rows = []
    for s in range(order):
        dist = [-1] * order
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in range(order):
                if adj[v] >> w & 1 and dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def _convex(dist: list[list[int]], bits: int, order: int) -> bool:
    members = [v for v in range(order) if bits >> v & 1]
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if dist[u][v] < 0:
                return False
            for w in range(order):
                if dist[u][w] + dist[w][v] == dist[u][v] and not bits >> w & 1:
                    return False
    return True


def _small_random_row(row: dict) -> str | None:
    from owc import IntervalCache, graph_from_graph6, is_dominating, is_weakly_convex_oracle

    g = graph_from_graph6(row["g6"])
    cache = IntervalCache(g)
    dist = _distances(g.adjacency_bits(), g.order)
    gamma, wcon, ocon = row["gamma"], row["owc"], row["ocon"]
    for key in ("gamma", "owc", "ocon"):
        r = row[key]
        if len(r.witness) != r.value or not is_dominating(g, r.witness):
            return f"{key} witness {r.witness} is not a dominating set of size {r.value}"
    if not is_weakly_convex_oracle(cache, wcon.witness.complement()):
        return f"owc witness {wcon.witness} has a complement that is not weakly convex"
    if not _convex(dist, ocon.witness.complement().bits, g.order):
        return f"ocon witness {ocon.witness} has a complement that is not convex"
    if not gamma.value <= wcon.value <= ocon.value:
        return f"gamma={gamma.value} wcon={wcon.value} ocon={ocon.value} out of order"
    p_wc, p_cx = row["p_wc"], row["p_cx"]
    if p_wc is None or not 0 <= p_wc <= wcon.value:
        return f"script_p={p_wc} out of range"
    if (p_cx is None) != (ocon.value > wcon.value):
        return f"convex script_p={p_cx} inconsistent with ocon={ocon.value} wcon={wcon.value}"
    if p_cx is not None and not p_wc <= p_cx <= wcon.value:
        return f"convex script_p={p_cx} below weakly convex {p_wc}"
    return None


def check_small_random(outputs: dict):
    failed, messages = 0, []
    for row in outputs["rows"]:
        why = _small_random_row(row)
        if why is not None:
            failed += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"{row['g6']}: {why}")
    return len(outputs["rows"]), failed, messages


def check(workload: str, outputs: dict, seed: int, refdir: str = REFERENCE_DIR):
    if workload == "sweep_full":
        return check_sweep_full(outputs, seed, refdir)
    if workload == "solve_large":
        return check_solve_large(outputs, refdir)
    return check_small_random(outputs)
