import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import owc
from owc.cli import main
from owc.graph6 import graph_from_graph6
from owc.graphs import path_graph
from owc.products import strong

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_owcon(capsys):
    rc, out, err = run_cli(capsys, "compute", "--family", "cycle:4")
    assert rc == 0 and err == ""
    assert out == "gamma_wcon=2 witness={0,1}\n"


def test_compute_gamma(capsys):
    rc, out, _ = run_cli(capsys, "compute", "--family", "path:3", "--invariant", "gamma")
    assert rc == 0
    assert out == "gamma=1 witness={1}\n"


def test_compute_ocon(capsys):
    rc, out, _ = run_cli(capsys, "compute", "--family", "complete_bipartite:2,2",
                         "--invariant", "ocon")
    assert rc == 0
    assert out == "gamma_ocon=2 witness={0,2}\n"


def test_compute_script_p(capsys):
    rc, out, _ = run_cli(capsys, "compute", "--family", "star:3", "--invariant", "script-p")
    assert rc == 0 and out == "script_p=0\n"
    rc, out, _ = run_cli(capsys, "compute", "--family", "path:2", "--invariant", "script-p")
    assert out == "script_p=1\n"


def test_compute_bad_family(capsys):
    for spec in ("moebius:5", "path:2..4"):
        rc, out, err = run_cli(capsys, "compute", "--family", spec)
        assert rc == 2 and out == ""
        assert err.startswith("error:")


def test_compute_cap_exceeded(capsys):
    rc, _, err = run_cli(capsys, "compute", "--family", "path:6", "--cap", "5")
    assert rc == 2
    assert "cap" in err


def test_compute_rejects_a_g6_file_with_several_graphs(tmp_path, capsys):
    corpus = tmp_path / "two.g6"
    corpus.write_text("Bw\nDQo\n")
    rc, out, err = run_cli(capsys, "compute", "--family", f"@{corpus}")
    assert (rc, out) == (2, "")
    assert str(corpus) in err and "2 graphs" in err
    corpus.write_text("Bw\n")
    rc, out, err = run_cli(capsys, "compute", "--family", f"@{corpus}")
    assert (rc, out, err) == (0, "gamma_wcon=1 witness={0}\n", "")


def test_product_stdout(capsys):
    rc, out, _ = run_cli(capsys, "product", "--kind", "cartesian",
                         "--left", "path:2", "--right", "path:2")
    assert rc == 0
    assert out == ("4 4\n0 1\n0 2\n1 3\n2 3\n"
                   "# map: index g h\n0 0 0\n1 0 1\n2 1 0\n3 1 1\n")


def test_product_graph6_and_lex_alias(capsys):
    rc, out, _ = run_cli(capsys, "product", "--kind", "strong",
                         "--left", "path:3", "--right", "complete:2", "--graph6")
    assert rc == 0
    line = out.splitlines()[0]
    assert graph_from_graph6(line) == strong(path_graph(3), path_graph(2)).graph
    rc, out, _ = run_cli(capsys, "product", "--kind", "lex",
                         "--left", "path:2", "--right", "path:2")
    assert rc == 0 and out.startswith("4 6\n")


def test_product_to_files(tmp_path, capsys):
    dest = tmp_path / "prod.edges"
    rc, out, _ = run_cli(capsys, "product", "--kind", "cartesian",
                         "--left", "path:2", "--right", "path:3",
                         "--out", str(dest))
    assert rc == 0 and out == ""
    assert dest.read_text().startswith("6 7\n")
    map_lines = (tmp_path / "prod.edges.map").read_text().splitlines()
    assert map_lines[0] == "0 0 0"
    assert len(map_lines) == 6


def test_check_pass_and_exit_codes(capsys):
    rc, out, _ = run_cli(capsys, "check", "cartesian",
                         "--left", "path:2", "--right", "path:2")
    assert rc == 0
    assert "verdict=PASS" in out

    rc, out, _ = run_cli(capsys, "check", "strong-kn", "--left", "path:3", "--n", "2")
    assert rc == 1
    assert "verdict=FAIL_LOWER" in out and "witness=(1,0)" in out


def test_check_recipes_solve_a_factor_above_the_default_cap(capsys):
    # the recipes re-solve the 25-vertex left factor; the product fits --cap 60
    rc, out, err = run_cli(capsys, "check", "strong-kn", "--left", "complete:25", "--n", "2",
                           "--cap", "60", "--workers", "1")
    assert (rc, err) == (0, "")
    assert out == "check_strong_kn K25 x K2: exact=1 bounds=[1,1] constructions=[kn_slice:1:ok] verdict=PASS witness=(0,0)\n"
    rc, out, err = run_cli(capsys, "check", "lex", "--left", "complete:25", "--right", "complete:2",
                           "--cap", "60", "--workers", "1")
    assert (rc, err) == (0, "")
    assert out == "check_lexicographic K25 x K2: exact=1 bounds=[1,2] constructions=[anchor:2:ok] verdict=PASS witness=(0,0)\n"


def test_check_missing_argument(capsys):
    rc, _, err = run_cli(capsys, "check", "strong-kn", "--left", "path:3")
    assert rc == 2 and "--n" in err
    rc, _, err = run_cli(capsys, "check", "cartesian", "--left", "path:2")
    assert rc == 2 and "--right" in err


def test_check_projection_emits_both_rows(capsys):
    rc, out, _ = run_cli(capsys, "check", "projection",
                         "--left", "path:2", "--right", "path:2", "--sample", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("check_cartesian_projection")
    assert lines[1].startswith("check_lexico_projection")


def test_check_rectangle(capsys):
    rc, out, _ = run_cli(capsys, "check", "rectangle",
                         "--left", "path:2", "--right", "path:3")
    assert rc == 0 and "rectangles_checked" in out


def test_check_csv_to_file(tmp_path, capsys):
    dest = tmp_path / "report.csv"
    rc, out, _ = run_cli(capsys, "check", "cartesian", "--left", "path:2",
                         "--right", "path:2", "--format", "csv", "--out", str(dest))
    assert rc == 0 and out == ""
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("check,kind,")
    assert len(lines) == 2


def test_sweep_with_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("cap=12\nchecks=cartesian,strong-kn\nfamily=path:2..3\nkn=2\n")
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "jsonl")
    # the P3 strong-kn row falsifies the claimed equality
    assert rc == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3 + 2
    assert {r["verdict"] for r in rows} == {"PASS", "FAIL_LOWER"}

    rc2, out2, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "jsonl")
    assert (rc, out) == (rc2, out2)


def test_sweep_cap_override_skips(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("checks=cartesian\nfamily=path:2..3\n")
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--cap", "4")
    assert rc == 0
    assert out.count("SKIPPED_TOO_LARGE") == 2


def test_sweep_skips_factors_above_the_cap(capsys):
    # C5 is in the default pool; its rows are skipped instead of ending the sweep
    rc, out, err = run_cli(capsys, "sweep", "--cap", "4", "--workers", "1")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 286
    assert all("verdict=PASS" in line or "verdict=SKIPPED_TOO_LARGE" in line for line in lines)
    assert sum(line.endswith("| factor order 5 exceeds cap 4") for line in lines) == 36


def test_check_skips_a_factor_above_the_cap(capsys):
    rc, out, err = run_cli(capsys, "check", "cartesian", "--left", "cycle:5", "--right", "path:2",
                           "--cap", "4")
    assert (rc, err) == (0, "")
    assert out == ("check_cartesian C5 x P2: exact=? bounds=[,] constructions=[] "
                   "verdict=SKIPPED_TOO_LARGE | factor order 5 exceeds cap 4\n")
    # the rectangle check enumerates factor subsets, so its factors have their own cap
    rc, out, err = run_cli(capsys, "check", "rectangle", "--left", "cycle:6", "--right", "path:2")
    assert (rc, err) == (0, "")
    assert out == ("check_cartesian_rectangle C6 x P2: exact=? bounds=[,] constructions=[] "
                   "verdict=SKIPPED_TOO_LARGE | factor order 6 exceeds cap 5\n")


def test_sweep_bad_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("cap=x\n")
    rc, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert rc == 2 and "line 1" in err
    rc, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "absent.cfg"))
    assert rc == 2


def test_sweep_config_names_the_line_of_a_missing_family_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family=@{tmp_path / 'missing.g6'}\n")
    rc, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("error: line 1: ") and "missing.g6" in err


def test_sweep_rejects_out_of_range_overrides(tmp_path, capsys):
    # the flags obey the same minimums as the config lines
    rc, out, err = run_cli(capsys, "sweep", "--sample", "-3")
    assert (rc, out) == (2, "") and "--sample must be >= 0" in err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("checks=projection\n")
    rc, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--cap", "0")
    assert (rc, out) == (2, "") and "--cap must be >= 1" in err


def test_check_rejects_out_of_range_options(capsys):
    rc, out, err = run_cli(capsys, "check", "projection", "--left", "path:2", "--right", "path:2",
                           "--sample", "-4")
    assert (rc, out) == (2, "") and "--sample must be >= 0" in err
    rc, out, err = run_cli(capsys, "check", "cartesian", "--left", "path:2", "--right", "path:2",
                           "--cap", "0")
    assert (rc, out) == (2, "") and "--cap must be >= 1" in err


def test_compute_rejects_out_of_range_workers(capsys):
    for workers in ("0", "-3"):
        rc, out, err = run_cli(capsys, "compute", "--family", "cycle:4", "--workers", workers)
        assert (rc, out) == (2, "") and "--workers must be >= 1" in err


def test_help_and_usage_exits():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "bogus-name", "--left", "path:2", "--right", "path:2"])
    assert exc.value.code == 2


def test_installed_entry_point(tmp_path):
    # Write the wrapper an installer makes for the declared console script
    # and run it by its bare name, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "owc" in scripts, "pyproject.toml declares no owc console script"
    module, _, func = scripts["owc"].partition(":")
    launcher = tmp_path / "owc"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    # The launcher must import the same owc as this process.
    src = str(Path(owc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["owc", "compute", "--family", "cycle:4"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gamma_wcon=2 witness={0,1}\n"


@pytest.mark.skipif(shutil.which("owc") is None, reason="the owc console script is not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["owc", "compute", "--family", "cycle:4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "gamma_wcon=2 witness={0,1}\n"


def test_cold_start_loads_no_process_pool():
    # Every solve runs in one process, so no CLI call pays for importing a pool.
    src = str(Path(owc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import owc, owc.cli, sys; "
        "print(' '.join(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "owc.cli", "compute", "--family", "path:3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "gamma_wcon=2 witness={0,1}\n"
