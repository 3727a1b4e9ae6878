"""The owc benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload sweep_full --seed 7 --seconds 40 --trace 0

Run it from the root of a checkout; it imports ``owc`` from ``src/``.
Every repetition runs in a fresh Python process (``rep.py``), so nothing a
process caches carries over to the next repetition, as for a CLI user.

``--trace 0`` measures the end-to-end metrics: a few set-up-only processes,
then repetitions until ``--seconds`` would be exceeded (at least one).
``--trace 1`` runs the workload once untraced and twice traced, on the same
inputs, and reports the per-layer metrics of ``tracer.py``.  It checks that
the three runs' outputs are byte-identical, that every count repeats exactly
across the two traced runs, and that spans cover at least
``MIN_COVERAGE`` of the traced wall time.

Lines before the last one describe the machine and the samples; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the share of checked outputs that were
wrong or raised.  The emitted metric names must equal those declared in
``BENCHMARK.json``; otherwise the run exits 3 without a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from tracer import percentile
from workloads import DEFAULT_SEED, WHY, WORKLOADS, now

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
MIN_COVERAGE = 0.95
TRACED_RUNS = 2

# Per-layer metrics that must repeat exactly across two traced runs.
EXACT_SUFFIXES = (".calls", ".builds")
EXACT_NAMES = ("domination.candidates", "domination.solve.distinct", "harness.report_bytes")


class BenchError(RuntimeError):
    """The benchmark itself, not the program under test, went wrong."""


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model
            )
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
    }


class Runner:
    """Spawns the repetition processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, workdir: str, refdir: str | None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.refdir = refdir
        self.spawned = 0

    def spawn(self, rep: int, *, trace_out: str | None = None, setup_only: bool = False) -> dict:
        self.spawned += 1
        result_path = os.path.join(self.workdir, f"result-{self.spawned}.json")
        cmd = [
            sys.executable, os.path.join(BENCH, "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--rep", str(rep),
            "--workdir", self.workdir, "--result", result_path,
        ]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        if setup_only:
            cmd.append("--setup-only")
        if self.refdir:
            cmd += ["--refdir", self.refdir]
        cmd += ["--spawned", repr(now())]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {rep} ran longer than {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"repetition {rep} exited with status {proc.returncode}")
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        if "error" in result:
            print(f"repetition {rep} raised:\n{result['error']}", file=sys.stderr)
        for message in result.get("messages", []):
            print(f"wrong output: {message}", file=sys.stderr)
        return result


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics over repetitions that fit in ``seconds``."""
    deadline = now() + seconds
    probes = [runner.spawn(10_000 + i, setup_only=True) for i in range(SETUP_PROBES)]
    reps: list[dict] = []
    while True:
        t0 = now()
        reps.append(runner.spawn(len(reps)))
        t1 = now()
        if t1 + (t1 - t0) > deadline:
            break
    done = [r for r in reps if "error" not in r]
    if not done:
        return {}, reps
    setups = [r["setup_s"] for r in probes + reps]
    ops_ms = [t * 1e3 for r in done for t in r["op_s"]]
    print(f"samples: {len(done)} repetitions, {len(ops_ms)} ops, {len(setups)} set-ups", flush=True)
    print("repetition wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in done), flush=True)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p95": percentile(ops_ms, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in done),
    }, reps


def _is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES


def measure_traced(runner: Runner) -> tuple[dict, list[dict]]:
    """Per-layer metrics from traced runs, validated against an untraced run."""
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    base = runner.spawn(0)
    traced = [
        runner.spawn(
            0, trace_out=os.path.join(BUILD, "trace", f"{runner.workload}-traced{i}.tsv")
        )
        for i in range(1, TRACED_RUNS + 1)
    ]
    reps = [base] + traced
    if any("error" in r for r in reps):
        return {}, reps
    digests = {r["output_sha256"] for r in reps}
    if len(digests) != 1:
        raise BenchError("traced and untraced runs produced different outputs")
    layers = [dict(r["layers"], **{"harness.report_bytes": r["output_bytes"]}) for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if _is_exact(name):
            if len(set(values)) != 1:
                raise BenchError(f"count {name} differs across traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.mean(values)
    low = min(m["trace.coverage"] for m in layers)
    if low < MIN_COVERAGE:
        raise BenchError(f"spans cover {low:.3f} of the traced wall time, below {MIN_COVERAGE}")
    metrics["trace.overhead_s"] = statistics.mean(r["wall_s"] for r in traced) - base["wall_s"]
    metrics["solve_s.n20"] = base["blocks"].get("n20", 0.0)
    metrics["solve_s.n24"] = base["blocks"].get("n24", 0.0)
    return metrics, reps


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refdir", help="reference directory for the correctness gate (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "owc", "__init__.py")):
        print(f"error: no owc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    print("machine " + json.dumps(machine_facts()), flush=True)
    print(f"workload {args.workload} seed={args.seed}: {WHY[args.workload]}", flush=True)

    workdir = os.path.join(BUILD, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir, args.refdir)
    try:
        if args.trace:
            metrics, reps = measure_traced(runner)
        else:
            metrics, reps = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if metrics and set(metrics) != set(declared):
        missing, extra = set(declared) - set(metrics), set(metrics) - set(declared)
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}",
              file=sys.stderr)
        return 3
    print(f"wrong_share {failed / attempted:.6f} ({failed} of {attempted} checked outputs)", flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
