"""Record the correctness references from the current sources.

    python3 bench/record_reference.py

Writes ``reference/sweep_full.csv`` (the full-check sweep at
``DEFAULT_SEED``) and ``reference/solve_large.json``.  The committed files
were recorded from the sources the benchmark was written against; re-record
only when a change to the program's output is intended.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    refdir = os.path.join(BENCH, "reference")
    os.makedirs(refdir, exist_ok=True)
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as workdir:
        build, run, _ = WORKLOADS["sweep_full"]
        outputs, _, _ = run(build(DEFAULT_SEED, 0, workdir))
    with open(os.path.join(refdir, "sweep_full.csv"), "wb") as fh:
        fh.write(outputs["csv"])
    build, run, _ = WORKLOADS["solve_large"]
    outputs, _, _ = run(build(DEFAULT_SEED, 0, ""))
    with open(os.path.join(refdir, "solve_large.json"), "w") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
