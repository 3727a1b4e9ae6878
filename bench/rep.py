"""One repetition of one workload, in a fresh Python process.

Run by ``run.py``; not meant to be called by hand.  It imports ``owc`` from
the checkout's ``src``, builds the inputs, runs the timed section once
(traced or not), checks every output, and writes one JSON result file.
With ``--setup-only`` it stops after building the inputs, which samples the
set-up time alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="parent's monotonic clock at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out", help="trace the run and write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--refdir")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import owc
    import gate
    from workloads import WORKLOADS, now

    if not os.path.abspath(owc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"owc imported from {owc.__file__}, not from {SRC}")
    build, run, serialize = WORKLOADS[args.workload]
    inputs = build(args.seed, args.rep, args.workdir)
    result: dict = {"setup_s": now() - args.spawned}
    if not args.setup_only:
        result.update(_measure(args, run, serialize, inputs, gate))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, run, serialize, inputs, gate) -> dict:
    from tracer import Tracer
    from workloads import now

    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.install()
    t0 = now()
    try:
        outputs, ops, blocks = run(inputs)
    except Exception:
        return {"error": traceback.format_exc(), "attempted": 1, "failed": 1}
    finally:
        wall = now() - t0
        if tracer is not None:
            tracer.uninstall()
    out = {
        "wall_s": wall,
        "op_s": ops,
        "blocks": blocks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    data = serialize(outputs)
    out["output_sha256"] = hashlib.sha256(data).hexdigest()
    out["output_bytes"] = len(outputs["csv"]) if "csv" in outputs else 0
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        tracer.write_spans(args.trace_out)
    refdir = args.refdir or gate.REFERENCE_DIR
    try:
        attempted, failed, messages = gate.check(args.workload, outputs, args.seed, refdir)
    except Exception:
        attempted, failed, messages = 1, 1, [traceback.format_exc()]
    out.update(attempted=attempted, failed=failed, messages=messages)
    return out


if __name__ == "__main__":
    sys.exit(main())
