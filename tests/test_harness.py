import io
import json
import csv
from dataclasses import replace
from pathlib import Path

import pytest

from owc.cli import main
from owc.convexity import IntervalCache
from owc.domination import (
    SCRIPT_P_CONVEX,
    SCRIPT_P_WEAKLY_CONVEX,
    is_owc_dominating,
    owc_domination_number,
    script_p,
)
from owc.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    graph_from_spec,
    path_graph,
    star_graph,
)
from owc.harness import (
    CHECKS,
    REPORT_FIELDS,
    ConfigError,
    SweepConfig,
    any_failures,
    build_pool,
    check_cartesian,
    check_cartesian_projection,
    check_cartesian_rectangle,
    check_lexicographic,
    check_lexico_projection,
    check_strong,
    check_strong_kmn,
    check_strong_kn,
    expand_family_spec,
    format_report_text,
    parse_sweep_config,
    report_row,
    run_sweep,
    write_reports,
)


def test_check_cartesian_square():
    r = check_cartesian(path_graph(2), path_graph(2))
    assert (r.exact, r.lower, r.upper) == (2, 2, 2)
    assert r.verdict == "PASS"
    assert r.construction_sizes == {"left_cover": 2, "right_cover": 2}
    assert r.construction_ok == {"left_cover": True, "right_cover": True}
    assert r.witness == "(0,0);(0,1)"
    assert r.elapsed_ms is None
    assert r.kind == "cartesian" and r.g_name == "P2" and r.h_order == 2


def test_check_cartesian_complete_factor_note():
    r = check_cartesian(complete_graph(3), path_graph(3))
    assert r.exact == 3 and r.verdict == "PASS"
    assert any("complete factor" in n for n in r.notes)


def test_check_cartesian_skip():
    r = check_cartesian(cycle_graph(4), cycle_graph(4), cap=10)
    assert r.verdict == "SKIPPED_TOO_LARGE"
    assert r.exact is None
    assert (r.lower, r.upper) == (4, 8)
    assert r.construction_sizes == {}
    assert any("exceeds cap" in n for n in r.notes)


@pytest.mark.parametrize("check, args", [
    pytest.param(check_cartesian, (cycle_graph(5), path_graph(2)), id="cartesian-left"),
    pytest.param(check_cartesian, (path_graph(2), cycle_graph(5)), id="cartesian-right"),
    pytest.param(check_strong, (cycle_graph(5), path_graph(2)), id="strong"),
    pytest.param(check_strong_kn, (cycle_graph(5), 2), id="strong-kn"),
    pytest.param(check_strong_kmn, (cycle_graph(5), 2, 2), id="strong-kmn"),
    pytest.param(check_lexicographic, (cycle_graph(5), path_graph(2)), id="lex"),
])
def test_bound_checks_skip_a_factor_above_the_cap(check, args):
    # the factor is tested against the cap before any solve, so no bound is computed
    r = check(*args, cap=4)
    assert r.verdict == "SKIPPED_TOO_LARGE"
    assert (r.exact, r.lower, r.upper) == (None, None, None)
    assert r.construction_sizes == {} and r.witness == ""
    assert r.notes == ("factor order 5 exceeds cap 4",)


def test_lexicographic_solves_only_its_left_factor():
    # P2 fits the cap, so its bounds are kept and only the product is skipped
    r = check_lexicographic(path_graph(2), cycle_graph(5), cap=4)
    assert r.verdict == "SKIPPED_TOO_LARGE"
    assert (r.exact, r.lower, r.upper) == (None, 1, 2)
    assert r.notes == ("product order 10 exceeds cap 4",)


def test_check_strong():
    r = check_strong(path_graph(3), complete_graph(2))
    assert r.lower == 1 and r.exact == 1
    assert r.verdict == "PASS"
    assert set(r.construction_sizes) == {"left_cover", "right_cover"}


def test_check_strong_kn_equality_cases():
    # equality holds when gamma(G) = gamma_wcon(G) pins the value
    for g, n in ((cycle_graph(4), 2), (cycle_graph(4), 3), (path_graph(4), 2)):
        r = check_strong_kn(g, n)
        assert r.lower == r.upper == r.exact, (g.name, n)
        assert r.verdict == "PASS"
        assert r.construction_ok == {"kn_slice": True}


def test_check_strong_kn_falsified_cases():
    # a dominating vertex of G lets a single product vertex dominate G x K_n
    # while diagonal edges keep the complement weakly convex
    r = check_strong_kn(path_graph(3), 2)
    assert (r.exact, r.lower, r.upper) == (1, 2, 2)
    assert r.verdict == "FAIL_LOWER"
    assert r.witness == "(1,0)"
    assert r.construction_ok == {"kn_slice": True}  # the upper bound still holds

    r = check_strong_kn(star_graph(3), 2)
    assert (r.exact, r.lower) == (1, 3)
    assert r.verdict == "FAIL_LOWER"

    # no dominating vertex needed: diagonal edges also undercut C5
    r = check_strong_kn(cycle_graph(5), 2)
    assert (r.exact, r.lower, r.upper) == (2, 3, 3)
    assert r.verdict == "FAIL_LOWER"
    assert r.witness == "(0,0);(2,0)"


def test_check_strong_kmn():
    r = check_strong_kmn(complete_graph(2), 2, 2)
    assert (r.exact, r.lower, r.upper) == (2, 2, 2)
    assert r.verdict == "PASS"
    assert r.construction_sizes == {"kmn_pair": 2}
    assert any("2*gamma_wcon(G)=2" in n for n in r.notes)
    assert any("sharpness" in n for n in r.notes)

    with pytest.raises(ValueError):
        check_strong_kmn(path_graph(3), 1, 2)


def test_check_strong_kmn_falsified_bound():
    # (0,0) and (2,2) have exactly the pair set S x {h,h'} as common
    # neighbors, so removing it breaks weak convexity of the complement
    r = check_strong_kmn(path_graph(3), 2, 2)
    assert (r.exact, r.lower, r.upper) == (3, 1, 2)
    assert r.verdict == "FAIL_UPPER"
    assert r.construction_sizes == {"kmn_pair": 2}
    assert r.construction_ok == {"kmn_pair": False}
    assert any("2*gamma_wcon(G)=4" in n for n in r.notes)

    r = check_strong_kmn(star_graph(3), 2, 2)
    assert r.exact == 4 and r.upper == 2
    assert r.verdict == "FAIL_UPPER"


def test_check_lexicographic_equality_case():
    r = check_lexicographic(cycle_graph(4), complete_graph(2))
    assert (r.exact, r.lower, r.upper) == (2, 2, 2)
    assert r.verdict == "PASS"
    assert any("equality forced" in n for n in r.notes)
    assert r.construction_sizes == {"anchor": 2}


def test_check_lexicographic_falsified_lower():
    r = check_lexicographic(path_graph(3), complete_graph(2))
    assert (r.exact, r.lower, r.upper) == (1, 2, 2)
    assert r.verdict == "FAIL_LOWER"
    assert r.witness == "(1,0)"

    r = check_lexicographic(star_graph(3), cycle_graph(4))
    assert r.exact == 2 and r.lower == 3
    assert r.verdict == "FAIL_LOWER"


def test_check_lexicographic_script_p_divergence_note():
    diamond = graph_from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                                   name="diamond")
    r = check_lexicographic(diamond, complete_graph(2))
    assert any("readings differ" in n and "convex=none" in n for n in r.notes)


def test_check_cartesian_projection():
    r = check_cartesian_projection(path_graph(2), path_graph(2), sample=5)
    assert r.verdict == "PASS"
    assert r.exact == 2 and r.witness == ""
    assert any(n.startswith("minimum_sets=") for n in r.notes)
    assert any(n == "falsifications=0" for n in r.notes)


def test_check_lexico_projection_falsified():
    # the left projection {1} of the minimum set {(1,0)} does not OWC
    # dominate P3: the complement {0,2} is not weakly convex
    r = check_lexico_projection(path_graph(3), complete_graph(2), sample=5)
    assert r.verdict == "FAIL_CONSTRUCTION"
    assert r.witness.startswith("minimum S=(1,0) side=left")
    assert "fails in factor" in r.witness


def test_projection_respects_cap():
    r = check_cartesian_projection(cycle_graph(5), cycle_graph(4))
    assert r.verdict == "SKIPPED_TOO_LARGE"


def test_check_cartesian_rectangle():
    r = check_cartesian_rectangle(path_graph(2), path_graph(2))
    assert r.verdict == "PASS"
    assert "rectangles_checked=9" in r.notes
    r = check_cartesian_rectangle(cycle_graph(4), path_graph(3))
    assert r.verdict == "PASS" and r.witness == ""
    r = check_cartesian_rectangle(cycle_graph(6), path_graph(3))
    assert r.verdict == "SKIPPED_TOO_LARGE"


def test_each_graph_builds_one_context(monkeypatch):
    # The solvers, predicates, recipes and checks all read a graph's context
    # through IntervalCache.of, so no Graph object is handed to __init__ twice.
    received = []  # keeps every graph alive, so no id is reused
    init = IntervalCache.__init__

    def recording_init(self, g):
        received.append(g)
        init(self, g)

    monkeypatch.setattr(IntervalCache, "__init__", recording_init)
    run_sweep(SweepConfig(), workers=1)
    g = cycle_graph(5)
    witness = owc_domination_number(g).witness
    script_p(g, mode=SCRIPT_P_WEAKLY_CONVEX)
    script_p(g, mode=SCRIPT_P_CONVEX)
    assert is_owc_dominating(g, witness)
    assert sum(x is g for x in received) == 1
    assert len({id(x) for x in received}) == len(received)


def test_projection_sampling_is_seeded():
    a = check_cartesian_projection(path_graph(3), path_graph(2), sample=10, seed=3)
    b = check_cartesian_projection(path_graph(3), path_graph(2), sample=10, seed=3)
    assert a == b
    c = check_cartesian_projection(path_graph(3), path_graph(2), sample=10, seed=4)
    assert c.verdict == a.verdict  # same truth, possibly different samples


def test_strong_checks_pass_the_cap_to_every_solve():
    # gamma(K25) is solved with the given cap; the product itself is over it
    r = check_strong(complete_graph(25), complete_graph(2), cap=30)
    assert r.verdict == "SKIPPED_TOO_LARGE"
    assert (r.lower, r.upper) == (1, 2)
    r = check_strong_kmn(complete_graph(25), 2, 2, cap=30)
    assert r.verdict == "SKIPPED_TOO_LARGE"
    assert (r.lower, r.upper) == (2, 2)


def test_timings_flag(capsys):
    # run_check stamps elapsed_ms when timings are asked for, and only then
    argv = ["check", "cartesian", "--left", "path:2", "--right", "path:2", "--format", "jsonl"]
    assert main(argv + ["--timings"]) == 0
    elapsed = json.loads(capsys.readouterr().out)["elapsed_ms"]
    assert isinstance(elapsed, int) and elapsed >= 0
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["elapsed_ms"] is None
    cfg = parse_sweep_config(TINY)
    timed = run_sweep(cfg, timings=True)
    assert timed and all(isinstance(r.elapsed_ms, int) and r.elapsed_ms >= 0 for r in timed)
    assert all(r.elapsed_ms is None for r in run_sweep(cfg))


ROOT = Path(__file__).resolve().parents[1]


def readme_builtin_config() -> str:
    """The config block that the README documents as the built-in default."""
    text = (ROOT / "README.md").read_text()
    after = text.split("The built-in default config is:", 1)[1]
    return after.split("```\n", 2)[1]


def test_default_config_round_trip():
    assert parse_sweep_config(readme_builtin_config()) == SweepConfig()
    pool = build_pool(SweepConfig())
    assert [g.name for g in pool] == [
        "P2", "P3", "P4", "C3", "C4", "C5", "K2", "K3", "K4", "K1,3", "K2,2"]


def test_config_errors_carry_line_numbers():
    for text, frag in [
        ("cap=x", "line 1"),
        ("seed=1\nbogus line", "line 2"),
        ("checks=cartesian,nope", "unknown check"),
        ("family=moebius:3", "bad family spec"),
        ("family=path:x", "bad family spec 'path:x'"),
        ("kn=1", ">= 2"),
        ("kmn=2", "expects 'm,n'"),
        ("cap=0", ">= 1"),
        ("sample=-1", ">= 0"),
        ("color=blue", "unknown key"),
    ]:
        with pytest.raises(ConfigError, match=frag):
            parse_sweep_config(text)


def test_config_partial_overrides_inherit_defaults():
    cfg = parse_sweep_config("cap=12\nfamily=path:2..3\n# comment\n")
    assert cfg.cap == 12
    assert cfg.families == ("path:2..3",)
    assert cfg.checks == SweepConfig().checks
    assert cfg.kn == (2, 3)


def test_expand_family_spec():
    assert [g.name for g in expand_family_spec("path:2..4")] == ["P2", "P3", "P4"]
    assert [g.name for g in expand_family_spec("complete_bipartite:2,2..3")] == [
        "K2,2", "K2,3"]
    assert [g.name for g in expand_family_spec("cycle:4")] == ["C4"]
    with pytest.raises(ValueError):
        expand_family_spec("path:4..2")


def test_graph_from_spec_is_the_one_graph_case():
    singles = ["path:2", "path:3", "path:4", "cycle:3", "cycle:4", "cycle:5", "complete:2",
               "complete:3", "complete:4", "star:3", "complete_bipartite:2,2"]
    assert [g.name for s in singles for g in expand_family_spec(s)] == [
        g.name for g in build_pool(SweepConfig())]
    for s in singles:
        (want,) = expand_family_spec(s)
        got = graph_from_spec(s)
        assert got == want and got.name == want.name


TINY = "cap=12\nseed=5\nsample=3\nchecks=cartesian,strong-kn,lex\nfamily=path:2..3\nfamily=complete:2\nkn=2\n"


def test_run_sweep_shape_and_determinism():
    cfg = parse_sweep_config(TINY)
    reports = run_sweep(cfg)
    # 3 graphs: 6 unordered pairs, 3 kn rows, 9 ordered lex rows
    assert len(reports) == 18
    assert [r.check for r in reports[:6]] == ["check_cartesian"] * 6
    assert reports == run_sweep(cfg)
    assert run_sweep(cfg, workers=2) == reports

    verdicts = [r.verdict for r in reports]
    assert "SKIPPED_TOO_LARGE" not in verdicts
    # P3-based strong-kn and lex rows falsify their claimed lower bounds
    assert "FAIL_LOWER" in verdicts
    assert any_failures(reports)


def test_run_sweep_projection_and_rectangle():
    cfg = parse_sweep_config(
        "cap=12\nsample=3\nchecks=projection,rectangle\nfamily=path:2..3\n")
    reports = run_sweep(cfg)
    names = [r.check for r in reports]
    assert names.count("check_cartesian_projection") == 3
    assert names.count("check_lexico_projection") == 4
    assert names.count("check_cartesian_rectangle") == 3


def test_report_row_schema():
    r = check_cartesian(path_graph(2), path_graph(2))
    row = report_row(r)
    assert tuple(row) == REPORT_FIELDS
    assert "notes" not in row


def test_write_reports_csv():
    reports = [check_cartesian(path_graph(2), path_graph(2)),
               check_strong_kn(path_graph(3), 2)]
    buf = io.StringIO()
    write_reports(reports, buf, fmt="csv")
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == list(REPORT_FIELDS)
    assert len(rows) == 3
    byname = dict(zip(rows[0], rows[1]))
    assert byname["exact"] == "2"
    assert byname["elapsed_ms"] == ""
    assert byname["construction_ok"] == "left_cover:true|right_cover:true"
    assert dict(zip(rows[0], rows[2]))["verdict"] == "FAIL_LOWER"


def test_write_reports_jsonl():
    reports = [check_cartesian(path_graph(2), path_graph(2))]
    buf = io.StringIO()
    write_reports(reports, buf, fmt="jsonl")
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert tuple(row) == REPORT_FIELDS
    assert row["exact"] == 2 and row["elapsed_ms"] is None
    assert row["construction_ok"] == {"left_cover": True, "right_cover": True}


def test_write_reports_text_and_unknown_format():
    r = check_strong_kn(path_graph(3), 2)
    buf = io.StringIO()
    write_reports([r], buf, fmt="text")
    line = buf.getvalue()
    assert "verdict=FAIL_LOWER" in line
    assert "witness=(1,0)" in line
    assert format_report_text(r) in line
    with pytest.raises(ValueError, match="unknown format"):
        write_reports([r], io.StringIO(), fmt="yaml")


def test_serialization_is_byte_stable():
    cfg = parse_sweep_config(TINY)
    out = []
    for _ in range(2):
        buf = io.StringIO()
        write_reports(run_sweep(cfg), buf, fmt="jsonl")
        out.append(buf.getvalue())
    assert out[0] == out[1]


@pytest.fixture(scope="module")
def full_check_reports():
    """Every check of the table over the default pool."""
    return run_sweep(replace(SweepConfig(), checks=tuple(CHECKS)), workers=1)


def rendered(reports, fmt: str) -> bytes:
    buf = io.StringIO()
    write_reports(reports, buf, fmt=fmt)
    return buf.getvalue().encode()


def test_full_check_sweep_matches_reference_csv(full_check_reports):
    # bench/reference holds the CSV of this sweep, recorded before the check
    # table existed.
    reference = (ROOT / "bench" / "reference" / "sweep_full.csv").read_bytes()
    assert rendered(full_check_reports, "csv") == reference


@pytest.mark.parametrize("fmt, name", [("text", "sweep_full.txt"), ("jsonl", "sweep_full.jsonl")])
def test_full_check_sweep_matches_golden(full_check_reports, fmt, name):
    # tests/golden holds `owc sweep --workers 1` of this sweep, recorded before
    # the report builder existed; only the text format carries the notes.
    assert rendered(full_check_reports, fmt) == (ROOT / "tests" / "golden" / name).read_bytes()


def test_default_sweep_text_is_the_golden_prefix():
    # The default sweep is the first five checks of the full-check sweep.
    golden = (ROOT / "tests" / "golden" / "sweep_full.txt").read_bytes()
    expected = b"".join(golden.splitlines(keepends=True)[:286])
    assert rendered(run_sweep(SweepConfig(), workers=1), "text") == expected
