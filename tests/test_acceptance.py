"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (pytest hides stdout of passing tests otherwise).

Criteria 6, 7 and 8 cover claimed product identities that the exhaustive
solver falsifies.  Each recomputes every instance with the networkx brute
force in ``naive.py`` and passes when the solver's exact value, the proven
half of the claim with its verified construction, and the harness's PASS or
FAIL_* verdicts all agree with that oracle.  The falsified claim and its
counterexamples are named in the CRITERION line; the harness reports carry
the same findings as FAIL_* rows.
"""

import itertools
import random
import time

import pytest

from owc.constructions import lexico_anchor, strong_kmn_pair, strong_kn_slice
from owc.convexity import IntervalCache, is_weakly_convex, is_weakly_convex_oracle
from owc.domination import domination_number, owc_domination_number, script_p, script_p_realizer
from owc.graph6 import graph_from_graph6, to_graph6
from owc.graphs import (
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    path_graph,
    star_graph,
)
from owc.harness import (
    SweepConfig,
    build_pool,
    check_cartesian,
    check_cartesian_projection,
    check_cartesian_rectangle,
    check_lexicographic,
    check_lexico_projection,
    check_strong,
    check_strong_kmn,
    check_strong_kn,
    parse_sweep_config,
    report_row,
    run_sweep,
    write_reports,
)
from owc.products import PRODUCT_KINDS, edge_count_formula, lexicographic, product, strong

from naive import (
    all_connected_graphs,
    naive_domination_number,
    naive_min_size,
    naive_owc_dominating,
    naive_owc_domination_number,
    naive_script_p,
    nx_product,
    random_connected_graph,
)

FACTOR_POOL = [
    path_graph(2), path_graph(3), path_graph(4),
    cycle_graph(3), cycle_graph(4), cycle_graph(5),
    complete_graph(2), complete_graph(3), complete_graph(4),
    star_graph(3),
]

VERDICTS = {"PASS", "FAIL_LOWER", "FAIL_UPPER", "FAIL_CONSTRUCTION", "SKIPPED_TOO_LARGE"}


def _conclude(num, label, t0, ok, detail="", budget=None):
    elapsed = time.perf_counter() - t0
    in_budget = budget is None or elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"CRITERION {num:>2} {label}: {status} ({elapsed:.1f}s)")
    assert in_budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.1f}s"
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            cache = IntervalCache(g)
            for bits in range(1 << n):
                s = VertexSet(n, bits)
                if is_weakly_convex(cache, s) != is_weakly_convex_oracle(cache, s):
                    mismatches.append((g.edges(), s.vertices()))
    rng = random.Random(20260823)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(6, 9))
        cache = IntervalCache(g)
        for _ in range(200):
            s = VertexSet(g.order, rng.getrandbits(g.order))
            if is_weakly_convex(cache, s) != is_weakly_convex_oracle(cache, s):
                mismatches.append((g.edges(), s.vertices()))
    _conclude(1, "fast weakly-convex kernel matches definitional oracle", t0,
              not mismatches, f"disagreements: {mismatches[:5]}", budget=60)


def test_criterion_02_solver_sanity():
    t0 = time.perf_counter()
    wrong = []

    def expect(desc, got, want):
        if got != want:
            wrong.append(f"{desc}: got {got}, want {want}")

    for n in range(2, 7):
        expect(f"gamma_wcon(K{n})", owc_domination_number(complete_graph(n)).value, 1)
    expect("gamma_wcon(P3)", owc_domination_number(path_graph(3)).value, 2)
    expect("gamma_wcon(P4)", owc_domination_number(path_graph(4)).value, 2)
    expect("gamma_wcon(C4)", owc_domination_number(cycle_graph(4)).value, 2)
    expect("gamma_wcon(K1,3)", owc_domination_number(star_graph(3)).value, 3)
    expect("gamma(P3)", domination_number(path_graph(3)).value, 1)
    expect("gamma(C4)", domination_number(cycle_graph(4)).value, 2)
    expect("script_p(P3)", script_p(path_graph(3)), 0)
    expect("script_p(K1,3)", script_p(star_graph(3)), 0)
    expect("script_p(K2)", script_p(path_graph(2)), 1)
    _conclude(2, "solver sanity values", t0, not wrong, "; ".join(wrong), budget=5)


def _pool_pairs(ordered=False, cap=20):
    gen = itertools.product(FACTOR_POOL, repeat=2) if ordered else \
        itertools.combinations_with_replacement(FACTOR_POOL, 2)
    return [(g, h) for g, h in gen if g.order * h.order <= cap]


def test_criterion_03_cartesian_bounds():
    t0 = time.perf_counter()
    bad = []
    for g, h in _pool_pairs():
        r = check_cartesian(g, h)
        if r.verdict != "PASS" or r.construction_ok != {"left_cover": True, "right_cover": True}:
            bad.append(f"{g.name} box {h.name}: {r.verdict} ok={r.construction_ok}")
    _conclude(3, "cartesian bounds and cover constructions", t0,
              not bad, "; ".join(bad), budget=600)


def test_criterion_04_complete_times_small():
    t0 = time.perf_counter()
    bad = []
    for h in (path_graph(3), cycle_graph(3)):
        r = check_cartesian(complete_graph(3), h)
        if r.exact != 3:
            bad.append(f"K3 box {h.name}: exact={r.exact}, want 3")
    _conclude(4, "K3 box H pinned value", t0, not bad, "; ".join(bad), budget=60)


def test_criterion_05_strong_bounds():
    t0 = time.perf_counter()
    bad = []
    for g, h in _pool_pairs():
        r = check_strong(g, h)
        if r.verdict != "PASS" or r.construction_ok != {"left_cover": True, "right_cover": True}:
            bad.append(f"{g.name} strong {h.name}: {r.verdict} ok={r.construction_ok}")
    _conclude(5, "strong bounds and cover constructions", t0,
              not bad, "; ".join(bad), budget=600)


def _witness_vertices(r):
    """Row-major product indices of a report witness such as '(1,0);(2,0)'."""
    pairs = (item.strip("()").split(",") for item in r.witness.split(";"))
    return [int(a) * r.h_order + int(b) for a, b in pairs]


def _oracle_audit(tag, r, prod, lower, upper, built):
    """Check report r against the networkx oracle on the product graph prod.

    `lower` and `upper` are the claimed bounds from oracle factor values and
    `built` is the construction the check verifies.  Returns the oracle's
    exact value and every disagreement: the exact value, bounds and
    construction flag; the verdict, which is FAIL_* exactly where the oracle
    falsifies the claim or the construction; and the witness of a FAIL row,
    which must be a minimum OWC dominating set, below a broken lower bound.
    """
    bad = []
    exact = naive_min_size(prod, naive_owc_dominating)
    built_ok = naive_owc_dominating(prod, built.vertices)
    if r.exact != exact:
        bad.append(f"{tag}: exact={r.exact}, oracle {exact}")
    if (r.lower, r.upper) != (lower, upper):
        bad.append(f"{tag}: bounds [{r.lower},{r.upper}], oracle [{lower},{upper}]")
    if (r.construction_ok, r.construction_sizes) != ({built.recipe: built_ok}, {built.recipe: built.size}):
        bad.append(f"{tag}: constructions {r.construction_ok} sizes {r.construction_sizes}, "
                   f"oracle {built.recipe}:{built.size}:{built_ok}")
    want = ("FAIL_LOWER" if exact < lower else "FAIL_UPPER" if exact > upper
            else "PASS" if built_ok else "FAIL_CONSTRUCTION")
    if r.verdict != want:
        bad.append(f"{tag}: verdict {r.verdict}, oracle {want}")
    if r.verdict != "PASS":
        members = _witness_vertices(r)
        if len(members) != exact or not naive_owc_dominating(prod, members):
            bad.append(f"{tag}: witness {r.witness} is not a minimum OWC dominating set")
        if r.verdict == "FAIL_LOWER" and not len(members) < lower:
            bad.append(f"{tag}: witness {r.witness} is not below the lower bound {lower}")
    return exact, bad


def _claim_label(claim, falsified, total):
    shown = "; ".join(falsified[:3]) + (f"; +{len(falsified) - 3} more" if len(falsified) > 3 else "")
    return f"claim {claim} falsified on {len(falsified)} of {total}: {shown}"


def test_criterion_06_strong_kn_equality():
    """Claim gamma_wcon(G strong K_n) = gamma_wcon(G); only the upper half holds.

    The kn_slice construction S x {h} proves the product value is at most
    gamma_wcon(G).  The equality is false: in P3 strong K2 both (1,0) and
    (1,1) are adjacent to every other vertex, so {(1,0)} alone is OWC
    dominating while gamma_wcon(P3) = 2.
    """
    t0 = time.perf_counter()
    bad, falsified, reports = [], [], {}
    for g in (path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5), star_graph(3)):
        factor = naive_owc_domination_number(g)
        for n in (2, 3):
            tag = f"{g.name} strong K{n}"
            r = reports[tag] = check_strong_kn(g, n)
            built = strong_kn_slice(strong(g, complete_graph(n)), owc_domination_number(g).witness)
            exact, problems = _oracle_audit(
                tag, r, nx_product("strong", g, complete_graph(n)), factor, factor, built)
            bad += problems
            if exact > factor or r.construction_ok != {"kn_slice": True}:
                bad.append(f"{tag}: upper half fails, exact={exact} ok={r.construction_ok}")
            if r.verdict != "PASS":
                falsified.append(f"{tag} = {r.exact} < {factor} by {r.witness}")
    pinned = reports["P3 strong K2"]
    if (pinned.exact, pinned.witness) != (1, "(1,0)"):
        bad.append(f"P3 strong K2: exact={pinned.exact} witness={pinned.witness}, want 1 (1,0)")
    label = _claim_label("gamma_wcon(G strong K_n) = gamma_wcon(G)", falsified, len(reports))
    _conclude(6, label, t0, not bad, "; ".join(bad), budget=600)


def test_criterion_07_strong_k22_upper_bound():
    """Claim gamma_wcon(G strong K_{2,2}) <= 2*gamma(G); only the lower bound holds.

    The lower bound (2 for complete G, 1 otherwise) holds and is sharp for
    K2 and K3.  The upper bound fails, e.g. exact 3 for P3: the two vertices
    of the kmn_pair construction are exactly the common neighbors of two far
    product vertices, so its complement is not weakly convex.
    """
    t0 = time.perf_counter()
    bad, falsified = [], []
    k22 = complete_bipartite_graph(2, 2)
    graphs = [g for n in (2, 3, 4) for g in all_connected_graphs(n)]
    for g in graphs:
        n = g.order
        tag = f"order {n} edges {g.edges()}"
        r = check_strong_kmn(g, 2, 2)
        lower = 2 if g.edge_count() == n * (n - 1) // 2 else 1
        upper = 2 * naive_domination_number(g)
        built = strong_kmn_pair(strong(g, k22), domination_number(g).witness)
        exact, problems = _oracle_audit(tag, r, nx_product("strong", g, k22), lower, upper, built)
        bad += problems
        if exact < lower:
            bad.append(f"{tag}: lower bound fails, exact={exact} < {lower}")
        if r.verdict == "FAIL_UPPER":
            falsified.append(f"{tag} = {r.exact} > {upper}")
    for g, want in ((complete_graph(2), 2), (complete_graph(3), 2), (path_graph(3), 3)):
        exact = check_strong_kmn(g, 2, 2).exact
        if exact != want:
            bad.append(f"{g.name} strong K2,2: exact={exact}, want {want}")
    if len(falsified) != 19:
        bad.append(f"{len(falsified)} graphs break the bound, want 19")
    label = _claim_label("gamma_wcon(G strong K2,2) <= 2*gamma(G)", falsified, len(graphs))
    _conclude(7, label, t0, not bad, "; ".join(bad[:8]) + (f" (+{len(bad) - 8} more)" if len(bad) > 8 else ""),
              budget=300)


def test_criterion_08_lexicographic_bounds():
    """Claim gamma_wcon(G) <= gamma_wcon(G lex H) <= gamma_wcon(G) + P_G; only the upper bound holds.

    The anchor construction proves the upper bound, and with P_G = 0 the
    bounds coincide; C4 keeps that equality.  The lower bound is false:
    in P3 lex K2 the vertex (1,0) dominates and its twin (1,1) keeps the
    complement weakly convex, so the value is 1 while gamma_wcon(P3) = 2.
    """
    t0 = time.perf_counter()
    bad, falsified, reports = [], [], {}
    for g, h in _pool_pairs(ordered=True):
        tag = f"{g.name} lex {h.name}"
        lower, p_g = naive_owc_domination_number(g), naive_script_p(g)
        r = reports[tag] = check_lexicographic(g, h)
        built = lexico_anchor(lexicographic(g, h), script_p_realizer(g)[0])
        exact, problems = _oracle_audit(
            tag, r, nx_product("lexicographic", g, h), lower, lower + p_g, built)
        bad += problems
        if exact > lower + p_g or r.construction_ok != {"anchor": True}:
            bad.append(f"{tag}: upper bound fails, exact={exact} ok={r.construction_ok}")
        if g.name == "C4" and not exact == lower == lower + p_g:
            bad.append(f"{tag}: equality fails, exact={exact} bounds=[{lower},{lower + p_g}]")
        if r.verdict != "PASS":
            falsified.append(f"{tag} = {r.exact} < {lower}")
    if reports["P3 lex K2"].exact != 1:
        bad.append(f"P3 lex K2: exact={reports['P3 lex K2'].exact}, want 1")
    label = _claim_label("gamma_wcon(G) <= gamma_wcon(G lex H)", falsified, len(reports))
    _conclude(8, label, t0, not bad, "; ".join(bad[:8]) + (f" (+{len(bad) - 8} more)" if len(bad) > 8 else ""),
              budget=600)


def test_criterion_09_projection_and_rectangle_reporting():
    t0 = time.perf_counter()
    problems = []
    reports = []
    for g, h in _pool_pairs(cap=16):
        reports.append(check_cartesian_projection(g, h))
    for g, h in _pool_pairs(ordered=True, cap=16):
        reports.append(check_lexico_projection(g, h))
    rect_pairs = [(g, h) for g, h in _pool_pairs() if g.order <= 4 and h.order <= 4]
    for g, h in rect_pairs:
        reports.append(check_cartesian_rectangle(g, h))
    expected = (len(_pool_pairs(cap=16)) + len(_pool_pairs(ordered=True, cap=16))
                + len(rect_pairs))
    if len(reports) != expected:
        problems.append(f"emitted {len(reports)} rows, expected {expected}")
    for r in reports:
        if r.verdict not in VERDICTS:
            problems.append(f"{r.check} {r.g_name},{r.h_name}: bad verdict {r.verdict!r}")
        if r.verdict.startswith("FAIL") and not r.witness:
            problems.append(f"{r.check} {r.g_name},{r.h_name}: FAIL without witness")
        if r.verdict == "SKIPPED_TOO_LARGE":
            problems.append(f"{r.check} {r.g_name},{r.h_name}: unexpected skip")
    falsified = sum(r.verdict == "FAIL_CONSTRUCTION" for r in reports)
    print(f"  [criterion 9] {len(reports)} rows, {falsified} carry falsification witnesses")
    _conclude(9, "projection and rectangle checks report every instance", t0,
              not problems, "; ".join(problems[:6]))


ACCEPTANCE_SWEEP = """\
cap=12
seed=11
sample=5
checks=cartesian,strong,strong-kn,lex
family=path:2..3
family=cycle:3..4
family=complete:2..3
kn=2
"""


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    problems = []
    cfg = parse_sweep_config(ACCEPTANCE_SWEEP)

    serial_a = run_sweep(cfg, workers=1)
    serial_b = run_sweep(cfg, workers=1)
    texts = []
    for reports in (serial_a, serial_b):
        import io

        buf = io.StringIO()
        write_reports(reports, buf, fmt="jsonl")
        texts.append(buf.getvalue())
    if texts[0] != texts[1]:
        problems.append("workers=1 reruns are not byte-identical")

    parallel = run_sweep(cfg, workers=8)
    triples = [(r.exact, r.verdict, r.witness) for r in serial_a]
    par_triples = [(r.exact, r.verdict, r.witness) for r in parallel]
    if triples != par_triples:
        diffs = [i for i, (a, b) in enumerate(zip(triples, par_triples)) if a != b]
        problems.append(f"workers=8 differs at rows {diffs[:5]}")
    _conclude(10, "sweep determinism across reruns and worker counts", t0,
              not problems, "; ".join(problems))


def test_criterion_11_format_fidelity():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(1711)
    for i in range(200):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = graph_from_edge_list(n, edges)
        s = to_graph6(g)
        back = graph_from_graph6(s)
        if back != g or to_graph6(back) != s:
            problems.append(f"corpus graph {i} (order {n}) failed round trip")
    pool = build_pool(SweepConfig())
    for kind in PRODUCT_KINDS:
        for g, h in itertools.product(pool, repeat=2):
            p = product(kind, g, h)  # constructor self-checks the formula
            if p.graph.edge_count() != edge_count_formula(kind, g, h):
                problems.append(f"{kind}({g.name},{h.name}) edge count mismatch")
    _conclude(11, "graph6 round trip and product edge-count formulas", t0,
              not problems, "; ".join(problems[:5]))
