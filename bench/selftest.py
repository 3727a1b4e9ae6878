"""Self-test of the benchmark's correctness gate: corrupted references must trip it.

    python3 bench/selftest.py

Each test feeds the gate a deliberately wrong reference or output and
expects failures; the untouched references must pass.  The last test runs
``run.py`` end to end against a corrupted reference copy and expects
``"correct": false``.  Temporary files go under ``.bench_build/`` in the
checkout.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
from workloads import DEFAULT_SEED, WHY, WORKLOADS  # noqa: E402

OTHER_SEED = DEFAULT_SEED + 1


def _corrupt_copy(tmp: str, edit) -> str:
    """A copy of the reference directory with ``edit(refdir)`` applied."""
    refdir = os.path.join(tmp, "reference")
    shutil.copytree(gate.REFERENCE_DIR, refdir)
    edit(refdir)
    return refdir


def _edit_sweep_row(refdir: str, check: str, field: str, value: str) -> None:
    """Set ``field`` of the first reference row of ``check``."""
    path = os.path.join(refdir, "sweep_full.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(field)
    row = next(r for r in rows[1:] if r[0] == check)
    assert row[col] != value, "the edit must change the reference"
    row[col] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _sweep_outputs(tmp: str) -> dict:
    build, run, _ = WORKLOADS["sweep_full"]
    outputs, _, _ = run(build(DEFAULT_SEED, 0, tmp))
    return outputs


def test_sweep_gate(tmp: str) -> None:
    outputs = _sweep_outputs(tmp)
    for seed in (DEFAULT_SEED, OTHER_SEED):
        assert gate.check_sweep_full(outputs, seed)[1] == 0, "untouched reference must pass"
    bad = _corrupt_copy(tmp, lambda d: _edit_sweep_row(d, "check_cartesian", "exact", "99"))
    for seed in (DEFAULT_SEED, OTHER_SEED):
        assert gate.check_sweep_full(outputs, seed, bad)[1] == 1
    shutil.rmtree(bad)
    # A projection row's seed-independent field is checked at every seed.
    bad = _corrupt_copy(tmp, lambda d: _edit_sweep_row(d, "check_lexico_projection", "exact", "99"))
    assert gate.check_sweep_full(outputs, OTHER_SEED, bad)[1] == 1
    shutil.rmtree(bad)
    # A sampled counterexample that is not one fails the oracle re-check.
    rows = list(csv.reader(io.StringIO(outputs["csv"].decode())))
    header = rows[0]
    i = next(
        i for i, r in enumerate(rows)
        if r[0] == "check_cartesian_projection" and r[header.index("verdict")] == "PASS"
    )
    rows[i][header.index("verdict")] = "FAIL_CONSTRUCTION"
    rows[i][header.index("witness")] = "sampled S=(0,0) side=left proj={0} fails in factor"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    forged = dict(outputs, csv=buf.getvalue().encode())
    assert gate.check_sweep_full(forged, OTHER_SEED)[1] == 1
    assert gate.check_sweep_full(dict(outputs, status=0), DEFAULT_SEED)[1] == len(rows) - 1


def test_solve_gate(tmp: str) -> None:
    with open(os.path.join(gate.REFERENCE_DIR, "solve_large.json")) as fh:
        outputs = json.load(fh)
    assert gate.check_solve_large(outputs)[1] == 0

    def edit(refdir: str) -> None:
        path = os.path.join(refdir, "solve_large.json")
        with open(path) as fh:
            ref = json.load(fh)
        ref["P6xP4:owc_domination_number"]["witness"][0] += 1
        with open(path, "w") as fh:
            json.dump(ref, fh)

    assert gate.check_solve_large(outputs, _corrupt_copy(tmp, edit))[1] == 1


def test_small_random_gate(tmp: str) -> None:
    from owc import VertexSet

    build, run, _ = WORKLOADS["small_random"]
    inputs = build(DEFAULT_SEED, 0, tmp)
    inputs["graph6"] = inputs["graph6"][::20]
    outputs, _, _ = run(inputs)
    assert gate.check_small_random(outputs)[1] == 0
    row = dict(outputs["rows"][0])
    r = row["owc"]
    row["owc"] = dataclasses.replace(r, witness=VertexSet(r.witness.universe, 1))
    assert gate.check_small_random({"rows": [row] + outputs["rows"][1:]})[1] == 1
    row = dict(outputs["rows"][1], p_wc=-1)
    assert gate.check_small_random({"rows": [row]})[1] == 1


def test_declared_workloads(tmp: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY


def test_run_reports_incorrect(tmp: str) -> None:
    bad = _corrupt_copy(tmp, lambda d: _edit_sweep_row(d, "check_strong", "witness", "(9,9)"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sweep_full",
         "--seconds", "1", "--refdir", bad],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1, result


def main() -> int:
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    tests = [
        test_declared_workloads,
        test_sweep_gate,
        test_solve_gate,
        test_small_random_gate,
        test_run_reports_incorrect,
    ]
    for test in tests:
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            test(tmp)
        print(f"ok {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
