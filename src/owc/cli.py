"""Command-line entry point: compute, product, check, sweep.

Exit status: 0 all verdicts PASS (or plain computation succeeded), 1 at least
one FAIL verdict, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .domination import (
    DEFAULT_CAP,
    domination_number,
    outer_convex_domination_number,
    owc_domination_number,
    script_p,
)
from .graph6 import to_graph6
from .graphs import format_edge_list, graph_from_spec
from .harness import (
    CHECKS,
    OPTION_MINIMUMS,
    SweepConfig,
    any_failures,
    parse_sweep_config,
    require_minimum,
    run_check,
    run_sweep,
    write_reports,
)
from .products import product


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owc",
        description="Outer-weakly convex domination: exact solvers, products, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cap_default: int | None = DEFAULT_CAP) -> None:
        p.add_argument("--cap", type=int, default=cap_default, help="solver order cap")
        p.add_argument(
            "--workers", type=int, default=1, help="accepted and ignored; the search runs in one process"
        )

    p_compute = sub.add_parser("compute", help="compute an invariant of one graph")
    p_compute.add_argument("--family", required=True, help="graph spec, e.g. cycle:4 or @file.g6")
    p_compute.add_argument(
        "--invariant",
        choices=("owcon", "ocon", "gamma", "script-p"),
        default="owcon",
        help="which invariant to compute",
    )
    common(p_compute)
    p_compute.set_defaults(func=_cmd_compute)

    p_product = sub.add_parser("product", help="emit a product graph plus its index map")
    p_product.add_argument("--kind", choices=("cartesian", "strong", "lex", "lexicographic"), required=True)
    p_product.add_argument("--left", required=True, help="left factor spec")
    p_product.add_argument("--right", required=True, help="right factor spec")
    p_product.add_argument("--out", default="-", help="output path; '-' for stdout")
    p_product.add_argument("--graph6", action="store_true", help="emit graph6 instead of an edge list")
    p_product.set_defaults(func=_cmd_product)

    p_check = sub.add_parser("check", help="run one bound check on explicit inputs")
    p_check.add_argument("name", choices=tuple(CHECKS))
    p_check.add_argument("--left", help="left factor spec")
    p_check.add_argument("--right", help="right factor spec")
    p_check.add_argument("--m", type=int, help="left part size for strong-kmn")
    p_check.add_argument("--n", type=int, help="order for strong-kn / right part size for strong-kmn")
    p_check.add_argument("--format", choices=("csv", "jsonl", "text"), default="text")
    p_check.add_argument("--seed", type=int, default=SweepConfig.seed, help="seed for sampled-set checks")
    p_check.add_argument(
        "--sample", type=int, default=SweepConfig.sample, help="sampled non-minimum sets per instance"
    )
    p_check.add_argument("--out", default="-", help="report path; '-' for stdout")
    p_check.add_argument("--timings", action="store_true", help="fill elapsed_ms (breaks byte-identity)")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run configured checks over a family pool")
    p_sweep.add_argument("--config", help="sweep config path; omit for the built-in default")
    p_sweep.add_argument("--format", choices=("csv", "jsonl", "text"), default="text")
    p_sweep.add_argument("--out", default="-", help="report path; '-' for stdout")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--sample", type=int, default=None, help="override the config sample size")
    p_sweep.add_argument("--timings", action="store_true", help="fill elapsed_ms (breaks byte-identity)")
    common(p_sweep, cap_default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    g = graph_from_spec(args.family)
    if args.invariant == "owcon":
        r = owc_domination_number(g, cap=args.cap)
        print(f"gamma_wcon={r.value} witness={r.witness}")
    elif args.invariant == "ocon":
        r = outer_convex_domination_number(g, cap=args.cap)
        print(f"gamma_ocon={r.value} witness={r.witness}")
    elif args.invariant == "gamma":
        r = domination_number(g, cap=args.cap)
        print(f"gamma={r.value} witness={r.witness}")
    else:
        v = script_p(g, cap=args.cap)
        print(f"script_p={v}")
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    kind = "lexicographic" if args.kind == "lex" else args.kind
    p = product(kind, graph_from_spec(args.left), graph_from_spec(args.right))
    payload = to_graph6(p.graph) + "\n" if args.graph6 else format_edge_list(p.graph)
    map_text = "".join(
        f"{p.pair(a, b)} {a} {b}\n" for a in range(p.left.order) for b in range(p.right.order)
    )
    if args.out == "-":
        sys.stdout.write(payload)
        sys.stdout.write("# map: index g h\n")
        sys.stdout.write(map_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(payload)
        with open(args.out + ".map", "w") as fh:
            fh.write(map_text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    flags = dict.fromkeys(flag for run in CHECKS[args.name] for flag in run.source.flags)
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"check {args.name!r} requires {' and '.join(missing)}")
    values = {flag: getattr(args, flag) for flag in flags}
    for flag in ("left", "right"):
        if flag in values:
            values[flag] = graph_from_spec(values[flag])
    reports = run_check(args.name, lambda source: [tuple(values[f] for f in source.flags)], vars(args))
    _emit(reports, args)
    return 1 if any_failures(reports) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_sweep_config(fh.read())
    else:
        cfg = SweepConfig()
    if args.cap is not None:
        cfg = replace(cfg, cap=args.cap)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.sample is not None:
        cfg = replace(cfg, sample=args.sample)
    reports = run_sweep(cfg, timings=args.timings)
    _emit(reports, args)
    return 1 if any_failures(reports) else 0


def _emit(reports, args: argparse.Namespace) -> None:
    if args.out == "-":
        write_reports(reports, sys.stdout, args.format)
    else:
        with open(args.out, "w") as fh:
            write_reports(reports, fh, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key in OPTION_MINIMUMS:
            if getattr(args, key, None) is not None:
                require_minimum(key, getattr(args, key), "--")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
