"""Bound checkers and family sweeps.

Every checker returns a BoundReport and treats claims as falsifiable: a
construction or projection that fails its predicate produces a FAIL verdict
with a serialized counterexample instead of raising.  Reports are
deterministic: the checks never read a clock, and only ``run_check`` stamps
elapsed_ms, when its options ask for timings (``owc --timings``), so runs with
the same inputs compare byte for byte.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Mapping, NamedTuple, TextIO

from . import constructions as recipes
from .domination import (
    DEFAULT_CAP,
    _convex_p,
    domination_number,
    enumerate_min_owc_sets,
    is_owc_dominating,
    owc_domination_number,
    script_p_realizer,
)
from .graphs import (
    Graph,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    expand_family_spec,
    is_complete_graph,
    iter_bits,
)
from .products import ProductGraph, cartesian, lexicographic, strong

PASS = "PASS"
FAIL_LOWER = "FAIL_LOWER"
FAIL_UPPER = "FAIL_UPPER"
FAIL_CONSTRUCTION = "FAIL_CONSTRUCTION"
SKIPPED_TOO_LARGE = "SKIPPED_TOO_LARGE"

PROJECTION_CAP = 16
RECTANGLE_FACTOR_CAP = 5


@dataclass(frozen=True, kw_only=True)
class BoundReport:
    """One report row; the field order is the CSV/JSONL column order."""

    check: str
    kind: str
    g_name: str
    g_order: int
    h_name: str
    h_order: int
    exact: int | None = None
    lower: int | None = None
    upper: int | None = None
    construction_sizes: dict[str, int] = field(default_factory=dict)
    construction_ok: dict[str, bool] = field(default_factory=dict)
    verdict: str
    elapsed_ms: int | None = None
    witness: str = ""
    # Text-format extras; not part of the CSV/JSONL schema.
    notes: tuple[str, ...] = ()


REPORT_FIELDS = tuple(f.name for f in fields(BoundReport) if f.name != "notes")


def format_product_set(p: ProductGraph, s: VertexSet) -> str:
    """Serialize product vertices as sorted (g,h) pairs, e.g. '(0,0);(1,2)'."""
    return ";".join(f"({a},{b})" for a, b in (p.unpair(v) for v in s))


def _verdict(exact: int | None, lower: int | None, upper: int | None, ok: dict[str, bool]) -> str:
    if exact is not None and lower is not None and exact < lower:
        return FAIL_LOWER
    if exact is not None and upper is not None and exact > upper:
        return FAIL_UPPER
    if not all(ok.values()):
        return FAIL_CONSTRUCTION
    return PASS


def _report(check: str, p: ProductGraph, verdict: str, **given) -> BoundReport:
    """The one BoundReport constructor: factor fields from ``p``, any field not given at its default."""
    return BoundReport(
        check=check,
        kind=p.kind,
        g_name=p.left.name,
        g_order=p.left.order,
        h_name=p.right.name,
        h_order=p.right.order,
        verdict=verdict,
        **given,
    )


def _skip_report(check: str, p: ProductGraph, cap: int, **given) -> BoundReport:
    notes = (f"product order {p.order} exceeds cap {cap}",)
    return _report(check, p, SKIPPED_TOO_LARGE, notes=notes, **given)


def _factor_skip(check: str, p: ProductGraph, factors: tuple[Graph, ...], cap: int) -> BoundReport | None:
    """A skip report without bounds when one of the given factors is above ``cap``, else None."""
    for f in factors:
        if f.order > cap:
            return _report(check, p, SKIPPED_TOO_LARGE, notes=(f"factor order {f.order} exceeds cap {cap}",))
    return None


def _bound_report(
    check: str,
    p: ProductGraph,
    built: list[recipes.ConstructionSet],
    lower: int,
    upper: int,
    notes: list[str],
    cap: int,
) -> BoundReport:
    ok = {cs.recipe: recipes.verify_on_product(p, cs) for cs in built}
    exact = owc_domination_number(p.graph, cap=cap)
    for cs in built:
        if cs.size != cs.expected_size:
            notes.append(f"{cs.recipe}: built size {cs.size} below closed form {cs.expected_size}")
    return _report(
        check,
        p,
        _verdict(exact.value, lower, upper, ok),
        exact=exact.value,
        lower=lower,
        upper=upper,
        construction_sizes={cs.recipe: cs.size for cs in built},
        construction_ok=ok,
        witness=format_product_set(p, exact.witness),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Bound checks


def check_cartesian(g: Graph, h: Graph, *, cap: int = DEFAULT_CAP) -> BoundReport:
    """min{m,n} <= gamma_wcon(G box H) <= min{gamma_wcon(G)*n, gamma_wcon(H)*m}."""
    p = cartesian(g, h)
    if skipped := _factor_skip("check_cartesian", p, (g, h), cap):
        return skipped
    rg = owc_domination_number(g, cap=cap)
    rh = owc_domination_number(h, cap=cap)
    lower = min(g.order, h.order)
    upper = min(rg.value * h.order, rh.value * g.order)
    notes: list[str] = []
    if is_complete_graph(g) or is_complete_graph(h):
        tail = f"; bounds force gamma_wcon={lower}" if lower == upper else ""
        notes.append("complete factor: ceil(n/m) remark hypothesis is vacuous" + tail)
    if p.order > cap:
        return _skip_report("check_cartesian", p, cap, lower=lower, upper=upper)
    built = [
        recipes.cartesian_left_cover(p, rg.witness),
        recipes.cartesian_right_cover(p, rh.witness),
    ]
    return _bound_report("check_cartesian", p, built, lower, upper, notes, cap)


def check_strong(g: Graph, h: Graph, *, cap: int = DEFAULT_CAP) -> BoundReport:
    """max{gamma(G),gamma(H)} <= gamma_wcon(G strong H) <= min{gamma_wcon(G)*n, gamma_wcon(H)*m}."""
    p = strong(g, h)
    if skipped := _factor_skip("check_strong", p, (g, h), cap):
        return skipped
    rg = owc_domination_number(g, cap=cap)
    rh = owc_domination_number(h, cap=cap)
    lower = max(domination_number(g, cap=cap).value, domination_number(h, cap=cap).value)
    upper = min(rg.value * h.order, rh.value * g.order)
    if p.order > cap:
        return _skip_report("check_strong", p, cap, lower=lower, upper=upper)
    built = [
        recipes.strong_left_cover(p, rg.witness),
        recipes.strong_right_cover(p, rh.witness),
    ]
    return _bound_report("check_strong", p, built, lower, upper, [], cap)


def check_strong_kn(g: Graph, n: int, *, cap: int = DEFAULT_CAP) -> BoundReport:
    """gamma_wcon(G strong K_n) equals gamma_wcon(G)."""
    p = strong(g, complete_graph(n))
    if skipped := _factor_skip("check_strong_kn", p, (g,), cap):
        return skipped
    rg = owc_domination_number(g, cap=cap)
    if p.order > cap:
        return _skip_report("check_strong_kn", p, cap, lower=rg.value, upper=rg.value)
    built = [recipes.strong_kn_slice(p, rg.witness)]
    return _bound_report("check_strong_kn", p, built, rg.value, rg.value, [], cap)


def check_strong_kmn(g: Graph, m: int, n: int, *, cap: int = DEFAULT_CAP) -> BoundReport:
    """gamma_wcon(G strong K_{m,n}) <= 2*gamma(G) for m,n >= 2; equality 2 for complete G."""
    if m < 2 or n < 2:
        raise ValueError(f"both parts must be >= 2, got {m},{n}")
    p = strong(g, complete_bipartite_graph(m, n))
    if skipped := _factor_skip("check_strong_kmn", p, (g,), cap):
        return skipped
    dg = domination_number(g, cap=cap)
    upper = 2 * dg.value
    lower = 2 if is_complete_graph(g) else 1
    if p.order > cap:
        return _skip_report("check_strong_kmn", p, cap, lower=lower, upper=upper)
    notes = [f"statement reading 2*gamma_wcon(G)={2 * owc_domination_number(g, cap=cap).value}"]
    if is_complete_graph(g):
        notes.append("complete G: sharpness expects exact=2")
    built = [recipes.strong_kmn_pair(p, dg.witness)]
    return _bound_report("check_strong_kmn", p, built, lower, upper, notes, cap)


def check_lexicographic(g: Graph, h: Graph, *, cap: int = DEFAULT_CAP) -> BoundReport:
    """gamma_wcon(G) <= gamma_wcon(G lex H) <= gamma_wcon(G) + P_G."""
    p = lexicographic(g, h)
    if skipped := _factor_skip("check_lexicographic", p, (g,), cap):
        return skipped
    s, p_g = script_p_realizer(g, cap=cap)
    lower = len(s)
    upper = lower + p_g
    if p.order > cap:
        return _skip_report("check_lexicographic", p, cap, lower=lower, upper=upper)
    notes: list[str] = []
    if p_g == 0:
        notes.append("P_G=0: bounds coincide, equality forced")
    p_convex = _convex_p(g, lower, cap)
    if p_convex != p_g:
        other = "none" if p_convex is None else str(p_convex)
        notes.append(f"P_G readings differ: weakly_convex={p_g}, convex={other}")
    built = [recipes.lexico_anchor(p, s)]
    return _bound_report("check_lexicographic", p, built, lower, upper, notes, cap)


# ---------------------------------------------------------------------------
# Projection and rectangle checks


def _projection_failures(
    p: ProductGraph, sets: Iterable[tuple[str, VertexSet]], sides: tuple[str, ...]
) -> list[str]:
    """One line per labeled set and side whose projection fails in that factor."""
    factors = {"left": (p.left, p.project_left), "right": (p.right, p.project_right)}
    out = []
    for label, s in sets:
        for side in sides:
            factor, project = factors[side]
            proj = project(s)
            if not is_owc_dominating(factor, proj):
                out.append(f"{label} S={format_product_set(p, s)} side={side} proj={proj} fails in factor")
    return out


def _sample_passing_sets(p: ProductGraph, minimum: int, sample: int, rng: random.Random) -> list[VertexSet]:
    """Seeded random non-minimum OWC dominating sets of the product."""
    found: list[VertexSet] = []
    tries = 0
    while len(found) < sample and tries < 50 * max(sample, 1):
        tries += 1
        if minimum + 1 > p.order:
            break
        k = rng.randint(minimum + 1, p.order)
        s = VertexSet.of(p.order, rng.sample(range(p.order), k))
        if is_owc_dominating(p.graph, s):
            found.append(s)
    return found


def _projection_report(
    check: str, p: ProductGraph, sides: tuple[str, ...], cap: int, sample: int, seed: int
) -> BoundReport:
    cap = min(cap, PROJECTION_CAP)
    if p.order > cap:
        return _skip_report(check, p, cap)
    min_sets = enumerate_min_owc_sets(p.graph, cap=cap)
    exact = len(min_sets[0])
    rng = random.Random(f"{seed}:{check}:{p.graph.name}")
    sampled = _sample_passing_sets(p, exact, sample, rng)
    labeled = [("minimum", s) for s in min_sets] + [("sampled", s) for s in sampled]
    failures = _projection_failures(p, labeled, sides)
    return _report(
        check,
        p,
        PASS if not failures else FAIL_CONSTRUCTION,
        exact=exact,
        witness=failures[0] if failures else "",
        notes=(
            f"minimum_sets={len(min_sets)}",
            f"sampled_sets={len(sampled)}",
            f"falsifications={len(failures)}",
        ),
    )


def check_cartesian_projection(
    g: Graph, h: Graph, *, cap: int = PROJECTION_CAP, sample: int = 20, seed: int = 7
) -> BoundReport:
    """Projections of OWC dominating sets of G box H are OWC dominating in both factors."""
    p = cartesian(g, h)
    return _projection_report("check_cartesian_projection", p, ("left", "right"), cap, sample, seed)


def check_lexico_projection(
    g: Graph, h: Graph, *, cap: int = PROJECTION_CAP, sample: int = 20, seed: int = 7
) -> BoundReport:
    """Left projections of OWC dominating sets of G lex H are OWC dominating in G."""
    p = lexicographic(g, h)
    return _projection_report("check_lexico_projection", p, ("left",), cap, sample, seed)


def check_cartesian_rectangle(g: Graph, h: Graph) -> BoundReport:
    """No rectangle S1 x S2 with both factors proper is OWC dominating in G box H."""
    p = cartesian(g, h)
    if skipped := _factor_skip("check_cartesian_rectangle", p, (g, h), RECTANGLE_FACTOR_CAP):
        return skipped
    n = h.order
    failures = []
    checked = 0
    for s1 in range((1 << g.order) - 1):
        for s2 in range((1 << h.order) - 1):
            checked += 1
            bits = 0
            for a in iter_bits(s1):
                bits |= s2 << (a * n)
            if is_owc_dominating(p.graph, VertexSet(p.order, bits)):
                failures.append(
                    f"S1={VertexSet(g.order, s1)} S2={VertexSet(h.order, s2)} rectangle passes"
                )
    return _report(
        "check_cartesian_rectangle",
        p,
        PASS if not failures else FAIL_CONSTRUCTION,
        witness=failures[0] if failures else "",
        notes=(f"rectangles_checked={checked}", f"falsifications={len(failures)}"),
    )


# ---------------------------------------------------------------------------
# Check table


class ArgSource(NamedTuple):
    """Where a check function's positional arguments come from."""

    # The ``owc check`` flags that give the arguments, in order.
    flags: tuple[str, ...]
    # The argument tuples of a sweep, from the family pool and the config.
    sweep: Callable[[list[Graph], SweepConfig], Iterable[tuple]]


_UNORDERED_PAIRS = ArgSource(
    ("left", "right"), lambda pool, cfg: ((g, h) for i, g in enumerate(pool) for h in pool[i:])
)
_ORDERED_PAIRS = ArgSource(("left", "right"), lambda pool, cfg: ((g, h) for g in pool for h in pool))
_POOL_KN = ArgSource(("left", "n"), lambda pool, cfg: ((g, n) for g in pool for n in cfg.kn))
_POOL_KMN = ArgSource(("left", "m", "n"), lambda pool, cfg: ((g, m, n) for g in pool for m, n in cfg.kmn))

_SOLVER_OPTIONS = ("cap",)
_SAMPLING_OPTIONS = _SOLVER_OPTIONS + ("sample", "seed")


class CheckRun(NamedTuple):
    """One check function, the source of its arguments and the options it takes."""

    # Looked up by name at call time, so a wrapper installed on the module
    # attribute (a profiler or a test double) sees every call.
    function: str
    source: ArgSource
    options: tuple[str, ...] = _SOLVER_OPTIONS


CHECKS: dict[str, tuple[CheckRun, ...]] = {
    "cartesian": (CheckRun("check_cartesian", _UNORDERED_PAIRS),),
    "strong": (CheckRun("check_strong", _UNORDERED_PAIRS),),
    "strong-kn": (CheckRun("check_strong_kn", _POOL_KN),),
    "strong-kmn": (CheckRun("check_strong_kmn", _POOL_KMN),),
    "lex": (CheckRun("check_lexicographic", _ORDERED_PAIRS),),
    "projection": (
        CheckRun("check_cartesian_projection", _UNORDERED_PAIRS, _SAMPLING_OPTIONS),
        CheckRun("check_lexico_projection", _ORDERED_PAIRS, _SAMPLING_OPTIONS),
    ),
    "rectangle": (CheckRun("check_cartesian_rectangle", _UNORDERED_PAIRS, ()),),
}


def run_check(
    name: str, arguments: Callable[[ArgSource], Iterable[tuple]], options: Mapping[str, object]
) -> list[BoundReport]:
    """Run each function of check ``name`` on every argument tuple ``arguments`` gives its source.

    ``options`` holds cap, timings, sample and seed; each function
    takes the ones its table row names.  With ``timings`` set, each report's
    elapsed_ms is the wall time of its call.
    """
    runs = CHECKS.get(name)
    if runs is None:
        raise ValueError(f"unknown check {name!r}")
    reports = []
    for run in runs:
        fn = globals()[run.function]
        kwargs = {key: options[key] for key in run.options}
        for args in arguments(run.source):
            t0 = time.perf_counter()
            report = fn(*args, **kwargs)
            if options["timings"]:
                report = replace(report, elapsed_ms=round((time.perf_counter() - t0) * 1000))
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Sweep configuration


class ConfigError(ValueError):
    """A sweep config line or a command-line option failed to parse."""


# The least value of each numeric option, checked on config lines and on
# command-line flags alike.
OPTION_MINIMUMS = {"cap": 1, "sample": 0, "workers": 1}


def require_minimum(key: str, value: int, where: str) -> int:
    """Return ``value``, or raise ConfigError if it is below the minimum of option ``key``."""
    if value < OPTION_MINIMUMS[key]:
        raise ConfigError(f"{where}{key} must be >= {OPTION_MINIMUMS[key]}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    """A sweep; the field defaults are the built-in default sweep."""

    cap: int = 20
    seed: int = 7
    sample: int = 20
    checks: tuple[str, ...] = ("cartesian", "strong", "strong-kn", "strong-kmn", "lex")
    families: tuple[str, ...] = (
        "path:2..4",
        "cycle:3..5",
        "complete:2..4",
        "star:3",
        "complete_bipartite:2,2",
    )
    kn: tuple[int, ...] = (2, 3)
    kmn: tuple[tuple[int, int], ...] = ((2, 2),)


def _parse_int(value: str, line: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {line}: {key} expects an integer, got {value!r}") from None


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse key=value lines; a key that never appears keeps its ``SweepConfig`` default.

    ``family``, ``kn`` and ``kmn`` lines accumulate; a later ``cap``, ``seed``,
    ``sample`` or ``checks`` line replaces an earlier one.
    """
    fields: dict = {}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("cap", "sample"):
            fields[key] = require_minimum(key, _parse_int(value, i, key), f"line {i}: ")
        elif key == "seed":
            fields["seed"] = _parse_int(value, i, key)
        elif key == "checks":
            fields["checks"] = tuple(c.strip() for c in value.split(",") if c.strip())
            for c in fields["checks"]:
                if c not in CHECKS:
                    raise ConfigError(f"line {i}: unknown check {c!r}; known: {', '.join(CHECKS)}")
        elif key == "family":
            try:
                expand_family_spec(value)
            except (ValueError, OSError) as exc:
                raise ConfigError(f"line {i}: {exc}") from None
            fields["families"] = fields.get("families", ()) + (value,)
        elif key == "kn":
            for tok in value.split(","):
                v = _parse_int(tok.strip(), i, key)
                if v < 2:
                    raise ConfigError(f"line {i}: kn values must be >= 2")
                fields["kn"] = fields.get("kn", ()) + (v,)
        elif key == "kmn":
            parts = [t.strip() for t in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"line {i}: kmn expects 'm,n'")
            m, n = (_parse_int(t, i, key) for t in parts)
            if m < 2 or n < 2:
                raise ConfigError(f"line {i}: kmn parts must be >= 2")
            fields["kmn"] = fields.get("kmn", ()) + ((m, n),)
        else:
            raise ConfigError(f"line {i}: unknown key {key!r}")
    return replace(SweepConfig(), **fields)


def build_pool(cfg: SweepConfig) -> list[Graph]:
    pool: list[Graph] = []
    for spec in cfg.families:
        pool.extend(expand_family_spec(spec))
    return pool


# ---------------------------------------------------------------------------
# Sweep driver


def run_sweep(
    cfg: SweepConfig, *, workers: int = 1, timings: bool = False
) -> list[BoundReport]:
    """Run the configured checks over the family pool, in config order.

    ``workers`` is accepted and ignored: every solve runs in this process.
    """
    pool = build_pool(cfg)
    options = {"cap": cfg.cap, "timings": timings, "sample": cfg.sample, "seed": cfg.seed}
    reports: list[BoundReport] = []
    for name in cfg.checks:
        reports += run_check(name, lambda source: source.sweep(pool, cfg), options)
    return reports


def any_failures(reports: Iterable[BoundReport]) -> bool:
    return any(r.verdict.startswith("FAIL") for r in reports)


# ---------------------------------------------------------------------------
# Serialization


def report_row(r: BoundReport) -> dict:
    return {name: getattr(r, name) for name in REPORT_FIELDS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return "|".join(f"{k}:{_csv_cell(v)}" for k, v in value.items())
    return str(value)


def write_reports(reports: Iterable[BoundReport], stream: TextIO, fmt: str = "text") -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            writer.writerow([_csv_cell(v) for v in report_row(r).values()])
    elif fmt == "jsonl":
        for r in reports:
            stream.write(json.dumps(report_row(r), separators=(",", ":")) + "\n")
    elif fmt == "text":
        for r in reports:
            stream.write(format_report_text(r) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv, jsonl, or text")


def format_report_text(r: BoundReport) -> str:
    bounds = f"[{'' if r.lower is None else r.lower},{'' if r.upper is None else r.upper}]"
    cons = ",".join(
        f"{k}:{r.construction_sizes[k]}:{'ok' if r.construction_ok[k] else 'FAIL'}"
        for k in r.construction_sizes
    )
    head = (
        f"{r.check} {r.g_name} x {r.h_name}: exact={'?' if r.exact is None else r.exact} "
        f"bounds={bounds} constructions=[{cons}] verdict={r.verdict}"
    )
    if r.witness:
        head += f" witness={r.witness}"
    if r.elapsed_ms is not None:
        head += f" elapsed_ms={r.elapsed_ms}"
    if r.notes:
        head += " | " + "; ".join(r.notes)
    return head
