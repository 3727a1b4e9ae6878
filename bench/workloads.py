"""Workload definitions: inputs from a seed, the timed section, and the outputs.

Each workload runs once per fresh Python process (see ``rep.py``).  A
workload is three functions:

* ``build(seed, rep, workdir)`` makes the inputs.  It runs before the timed
  section and counts toward ``setup_s``.
* ``run(inputs)`` is the timed section.  It returns the outputs, the per-op
  latencies in seconds, and named sub-block times.
* ``serialize(outputs)`` turns the outputs into the bytes that the
  correctness gate (``gate.py``) and the traced-versus-untraced comparison
  look at.

Only ``run`` calls into ``owc`` on the timed path.  Everything is
single-process: ``workers=1`` and the cap are passed explicitly, because the
CLI default of ``os.cpu_count()`` workers sends large levels through a
process pool.
"""

from __future__ import annotations

import json
import os
import random
import time

# The seed the references in ``reference/`` were recorded with.  It is also
# the default sweep seed of the program, so at this seed the full-check
# sweep CSV must match the reference byte for byte.
DEFAULT_SEED = 7

SWEEP_CAP = 20
SOLVE_CAP = 24

# Default sweep config plus the projection and rectangle checks.
SWEEP_FULL_CONFIG = """\
cap=20
seed=7
sample=20
checks=cartesian,strong,strong-kn,strong-kmn,lex,projection,rectangle
family=path:2..4
family=cycle:3..5
family=complete:2..4
family=star:3
family=complete_bipartite:2,2
kn=2,3
kmn=2,2
"""

# small_random: per repetition, GRAPHS_PER_CELL graphs for every
# (order, density) cell, so every batch has the same shape whatever the seed.
SMALL_ORDERS = tuple(range(6, 15))
SMALL_DENSITIES = (0.1, 0.3, 0.5, 0.7)
GRAPHS_PER_CELL = 5

# Why each workload exists; the same text is each workload's "why" in
# BENCHMARK.json.
WHY = {
    "sweep_full": (
        "the full-check falsification sweep through the CLI: memo, harness, "
        "projection and rectangle traffic around the level scan"
    ),
    "solve_large": (
        "exact solves at n=20 and n=24 in all three predicate modes: "
        "the level scan alone, with no harness or memo traffic"
    ),
    "small_random": (
        "about two thousand distinct random graphs of order 6-14 per run: "
        "per-call set-up dominates and no result repeats"
    ),
}


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# sweep_full


def build_sweep_full(seed: int, rep: int, workdir: str) -> dict:
    cfg = os.path.join(workdir, "sweep_full.cfg")
    with open(cfg, "w") as fh:
        fh.write(SWEEP_FULL_CONFIG)
    out = os.path.join(workdir, "sweep_full.csv")
    argv = [
        "sweep", "--config", cfg, "--format", "csv", "--out", out,
        "--workers", "1", "--cap", str(SWEEP_CAP), "--seed", str(seed),
    ]
    return {"argv": argv, "out": out}


def run_sweep_full(inputs: dict) -> tuple[dict, list[float], dict]:
    from owc import cli

    t0 = now()
    status = cli.main(inputs["argv"])
    dt = now() - t0
    with open(inputs["out"], "rb") as fh:
        data = fh.read()
    return {"status": status, "csv": data}, [dt], {}


def serialize_sweep_full(outputs: dict) -> bytes:
    return b"exit=%d\n" % outputs["status"] + outputs["csv"]


# ---------------------------------------------------------------------------
# solve_large

# The calls of the n=20 block, all on C5 box P4; the n=24 block is one
# owc_domination_number call on P6 box P4.
SOLVE_N20_CALLS = (
    "domination_number",
    "owc_domination_number",
    "outer_convex_domination_number",
    "script_p:weakly_convex",
    "script_p:convex",
)


def build_solve_large(seed: int, rep: int, workdir: str) -> dict:
    from owc import cycle_graph, path_graph

    return {"c5": cycle_graph(5), "p4": path_graph(4), "p6": path_graph(6)}


def _result_fields(r) -> dict:
    return {"value": r.value, "witness": list(r.witness.vertices()), "examined": r.examined}


def run_solve_large(inputs: dict) -> tuple[dict, list[float], dict]:
    import owc

    cap, workers = SOLVE_CAP, 1
    out: dict = {}
    ops: list[float] = []
    t_block = now()
    g20 = owc.cartesian(inputs["c5"], inputs["p4"]).graph
    for label in SOLVE_N20_CALLS:
        t0 = now()
        if label.startswith("script_p:"):
            value = owc.script_p(g20, mode=label.split(":", 1)[1], cap=cap, workers=workers)
        else:
            value = _result_fields(getattr(owc, label)(g20, cap=cap, workers=workers))
        ops.append(now() - t0)
        out[f"C5xP4:{label}"] = value
    n20 = now() - t_block
    t_block = now()
    g24 = owc.cartesian(inputs["p6"], inputs["p4"]).graph
    t0 = now()
    out["P6xP4:owc_domination_number"] = _result_fields(
        owc.owc_domination_number(g24, cap=cap, workers=workers)
    )
    ops.append(now() - t0)
    n24 = now() - t_block
    return out, ops, {"n20": n20, "n24": n24}


def serialize_solve_large(outputs: dict) -> bytes:
    return (json.dumps(outputs, sort_keys=True, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# small_random


def _graph6(order: int, edges: set[tuple[int, int]]) -> str:
    """graph6 encoding (order <= 62), written here so inputs need no owc code."""
    bits = [1 if (row, col) in edges else 0 for col in range(1, order) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + order) + body


def random_connected_graph6(rng: random.Random, order: int, density: float) -> str:
    """A random spanning tree plus every other pair with probability ``density``."""
    perm = list(range(order))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, order):
        a, b = perm[i], perm[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for col in range(1, order):
        for row in range(col):
            if (row, col) not in edges and rng.random() < density:
                edges.add((row, col))
    return _graph6(order, edges)


def small_random_graphs(seed: int, rep: int) -> list[str]:
    rng = random.Random(f"small_random:{seed}:{rep}")
    return [
        random_connected_graph6(rng, order, density)
        for order in SMALL_ORDERS
        for density in SMALL_DENSITIES
        for _ in range(GRAPHS_PER_CELL)
    ]


def build_small_random(seed: int, rep: int, workdir: str) -> dict:
    return {"graph6": small_random_graphs(seed, rep)}


def run_small_random(inputs: dict) -> tuple[dict, list[float], dict]:
    import owc

    cap, workers = SOLVE_CAP, 1
    out = []
    ops: list[float] = []
    for text in inputs["graph6"]:
        t0 = now()
        g = owc.graph_from_graph6(text)
        row = {
            "g6": text,
            "gamma": owc.domination_number(g, cap=cap, workers=workers),
            "owc": owc.owc_domination_number(g, cap=cap, workers=workers),
            "ocon": owc.outer_convex_domination_number(g, cap=cap, workers=workers),
            "p_wc": owc.script_p(g, mode="weakly_convex", cap=cap, workers=workers),
            "p_cx": owc.script_p(g, mode="convex", cap=cap, workers=workers),
        }
        ops.append(now() - t0)
        out.append(row)
    return {"rows": out}, ops, {}


def serialize_small_random(outputs: dict) -> bytes:
    lines = []
    for row in outputs["rows"]:
        parts = [row["g6"]]
        for key in ("gamma", "owc", "ocon"):
            r = row[key]
            parts.append(f"{key}={r.value}:{r.witness}:{r.examined}")
        parts.append(f"p_wc={row['p_wc']}")
        parts.append(f"p_cx={row['p_cx']}")
        lines.append(" ".join(parts) + "\n")
    return "".join(lines).encode()


WORKLOADS = {
    "sweep_full": (build_sweep_full, run_sweep_full, serialize_sweep_full),
    "solve_large": (build_solve_large, run_solve_large, serialize_solve_large),
    "small_random": (build_small_random, run_small_random, serialize_small_random),
}
