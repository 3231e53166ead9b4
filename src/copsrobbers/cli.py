"""Command-line entry point.

Exit codes: 0 ok, 1 fault (bad input, failed verification), 2 usage,
3 resource limit.  All randomized subcommands take one --seed; component
sub-seeds are derived from it, and identical invocations produce
byte-identical output.

``verify`` runs acceptance criteria 1-9 of ``copsrobbers.checks`` at --seed
and --budget (0 skips them) and emits ``copsrobbers.verify/2``: per criterion
its name, status, detail and report.  --corpus graphs join criterion 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath

from . import bounds, checks, generators, solver
from .engine import (
    ChaserCop,
    GameConfig,
    GreedyFarRobber,
    RandomRobber,
    play,
    transcript_to_json,
    validate_transcript,
)
from .errors import CopsRobbersError, ParseError, ResourceLimitError
from .expander import (
    StrategyParams,
    desk_params,
    make_expander_cop,
    plan_summary,
)
from .graph import (
    FREE_PARSE_VERTICES,
    MAX_PARSE_VERTICES,
    Graph,
    diameter_pair,
    format_edge_list,
    graph_hash,
    parse_edge_list,
    shortest_path,
    to_dot,
)
from .guard import GuardCop, _settle_bound, check_guard_soundness
from .meyniel import run_meyniel
from .seeds import derive_seed

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}
# a chain step's ``holds`` in the table format; None is an inconclusive interval
_VERDICT = {True: "holds", False: "FAILS", None: "inconclusive"}


def _dump(doc) -> str:
    return json.dumps(doc, **_JSON_KW)


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            return parse_edge_list(sys.stdin.read())
        with open(path) as fh:
            return parse_edge_list(fh.read())
    except ParseError as exc:
        raise ParseError(f"{'<stdin>' if path == '-' else path}: {exc}") from None


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _robber(name: str):
    return {"greedy": GreedyFarRobber, "random": RandomRobber}[name]()


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

# family -> (builder, least value of each size, vertex count from the sizes,
# most vertices its edge list can declare); gnp also takes --p and a derived
# seed.  The hypercube count stops at 2^64, so a huge dimension allocates
# nothing.  gnp alone can write fewer than n characters, which the parser's
# length-scaled cap refuses above FREE_PARSE_VERTICES.
GEN_FAMILIES = {
    "path": (generators.gen_path, (1,), lambda n: n, MAX_PARSE_VERTICES),
    "cycle": (generators.gen_cycle, (3,), lambda n: n, MAX_PARSE_VERTICES),
    "grid": (generators.gen_grid, (1, 1), lambda w, h: w * h, MAX_PARSE_VERTICES),
    "hypercube": (generators.gen_hypercube, (1,), lambda d: 1 << min(d, 64), MAX_PARSE_VERTICES),
    "petersen": (generators.gen_petersen, (), lambda: 10, MAX_PARSE_VERTICES),
    "gnp": (generators.gen_gnp, (1,), lambda n: n, FREE_PARSE_VERTICES),
    "projective": (generators.gen_projective_incidence, (2,),
                   lambda q: 2 * (q * q + q + 1), MAX_PARSE_VERTICES),
}


def cmd_gen(args) -> int:
    build = GEN_FAMILIES[args.family][0]
    extra = (args.p, derive_seed(args.seed, "gnp")) if args.family == "gnp" else ()
    g = build(*args.sizes, *extra)
    _write(to_dot(g) if args.dot else format_edge_list(g), args.out)
    return 0


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    doc = {"schema": "copsrobbers.solve/1", "graph_hash": graph_hash(g)}
    if args.k is not None:
        win = solver.is_k_copwin(g, args.k, budget=args.budget)
        doc["k"] = args.k
        doc["copwin"] = win
        if win and args.placement:
            doc["placement"] = list(solver.k_copwin_placement(g, args.k, budget=args.budget))
    else:
        c = solver.cop_number(g, args.kmax, budget=args.budget)
        doc["kmax"] = args.kmax
        doc["cop_number"] = c
        if c is not None and args.placement:
            doc["placement"] = list(solver.k_copwin_placement(g, c, budget=args.budget))
    if args.format == "json":
        _write(_dump(doc), args.out)
    else:
        if "copwin" in doc:
            _write(f"{args.k} cops win: {doc['copwin']}", args.out)
        elif doc["cop_number"] is None:
            _write(f"cop number > {args.kmax}", args.out)
        else:
            _write(f"cop number = {doc['cop_number']}", args.out)
    return 0


def cmd_play(args) -> int:
    g = _read_graph(args.graph)
    cfg = GameConfig(cop_count=args.k, max_rounds=args.max_rounds, seed=args.seed)
    if args.cops == "chaser":
        cops = ChaserCop()
    else:
        cops = solver.SolverCop(g, args.k, budget=args.budget)
    t = play(g, cops, _robber(args.robber), cfg)
    validate_transcript(g, t)
    if args.format == "json":
        _write(transcript_to_json(t), args.out)
    else:
        _write(f"outcome: {t.outcome.kind} at round {t.outcome.round}", args.out)
    return 0


def cmd_strategy(args) -> int:
    g = _read_graph(args.graph)
    seed = args.seed
    if args.which == "guard":
        if args.path:
            path = args.path
        else:
            d, u, v = diameter_pair(g)
            if d == math.inf:
                raise ValueError("guard requires a connected graph")
            path = shortest_path(g, u, v)
        cops = GuardCop(g, path)
        cfg = GameConfig(cop_count=1, max_rounds=args.max_rounds, seed=seed)
        t = play(g, cops, _robber(args.robber), cfg)
        validate_transcript(g, t)
        doc = {
            "schema": "copsrobbers.strategy/1",
            "strategy": "guard",
            "path": list(path),
            "soundness": None,
            "transcript": json.loads(transcript_to_json(t)),
        }
        if args.check:
            rep = check_guard_soundness(g, path)
            doc["settle_bound"] = rep["settle_bound"]
            doc["soundness"] = {
                "states_checked": rep["states_checked"],
                "violations": rep["violations"],
            }
        else:
            doc["settle_bound"] = _settle_bound(g, cops)
        _write(_dump(doc), args.out)
        return 0

    params = StrategyParams(
        lam=args.lam, density=args.density,
        levels=args.levels if args.levels else desk_params(g).levels,
        resample_limit=args.resample_limit,
    )
    if args.which == "expander":
        cops, family, plans, attempts = make_expander_cop(g, params, seed)
        cfg = GameConfig(cop_count=family.total_cops, max_rounds=args.max_rounds, seed=seed)
        t = play(g, cops, _robber(args.robber), cfg)
        validate_transcript(g, t)
        doc = {
            "schema": "copsrobbers.strategy/1",
            "strategy": "expander",
            "resamples": attempts,
            "plan": plan_summary(plans[t.robber_placement], family, params),
            "transcript": json.loads(transcript_to_json(t)),
        }
        _write(_dump(doc), args.out)
        return 0

    # meyniel
    cfg = GameConfig(cop_count=1, max_rounds=args.max_rounds, seed=seed)
    res = run_meyniel(g, args.threshold, params, cfg, robber=_robber(args.robber))
    validate_transcript(g, res.transcript)
    doc = {
        "schema": "copsrobbers.strategy/1",
        "strategy": "meyniel",
        "threshold": res.threshold,
        "regime": res.regime,
        "caught": res.caught,
        "cops_used": res.cops_used,
        "guards_used": res.guards_used,
        "expander_cops": res.expander_cops,
        "pool_size": res.pool_size,
        "leaf_broken": res.leaf_broken,
        "transcript": json.loads(transcript_to_json(res.transcript)),
    }
    _write(_dump(doc), args.out)
    return 0 if res.caught or not args.require_capture else 1


def cmd_bound(args) -> int:
    params = bounds.bound_params(args.L)
    vals = params.point_values()
    d_log = float("-inf") if args.d_zero else args.d_log
    report = bounds.check_eq1_chain(args.L, d_log)
    bracket = bounds.trivial_region_boundary(tol=args.tol)
    # 17 significant digits, or as many more as a narrow bracket needs for
    # its two ends to print apart
    digits = 17
    while mpmath.nstr(bracket.low, digits) == mpmath.nstr(bracket.high, digits):
        digits += 1
    doc = {
        "schema": "copsrobbers.bound/1",
        "params": {k: mpmath.nstr(v, 17) for k, v in vals.items()},
        "trivial_region_boundary": {
            "low": mpmath.nstr(bracket.low, digits),
            "high": mpmath.nstr(bracket.high, digits),
        },
        "chain": report.to_dict(),
    }
    if args.format == "json":
        _write(_dump(doc), args.out)
    else:
        lines = [f"{k:>24} = {v}" for k, v in doc["params"].items()]
        lines.append(f"trivial boundary in [{doc['trivial_region_boundary']['low']}, "
                     f"{doc['trivial_region_boundary']['high']}]")
        for s in report.steps:
            lines.append(f"{s.name:>24}: {_VERDICT[s.holds]} "
                         f"(slack >= {mpmath.nstr(s.slack_lo, 8)})")
        e = report.end_to_end
        lines.append(f"{'end_to_end':>24}: {_VERDICT[e.holds]} "
                     f"(slack >= {mpmath.nstr(e.slack_lo, 8)})")
        _write("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    corpus = None
    if args.corpus:
        names = sorted(f for f in os.listdir(args.corpus) if f.endswith(".el"))
        corpus = [_read_graph(os.path.join(args.corpus, f)) for f in names]
    results = []
    for number, (title, criterion, verdict) in checks.CRITERIA.items():
        check = {"criterion": number, "name": title.replace(" ", "_"),
                 "status": "skipped", "detail": "budget 0: resource limit", "report": None}
        if args.budget > 0:
            extra = {"corpus": corpus} if number == 1 else {}
            doc = criterion(args.seed, args.budget, **extra)
            ok, check["detail"] = verdict(doc)
            check["status"] = "pass" if ok else "fail"
            check["report"] = doc
        results.append(check)
    if args.format == "json":
        _write(_dump({"schema": "copsrobbers.verify/2", "seed": args.seed,
                      "budget": args.budget, "checks": results}), args.out)
    else:
        _write("\n".join(f"{c['name']}: {c['status']} ({c['detail']})" for c in results),
               args.out)
    return 1 if any(c["status"] == "fail" for c in results) else 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _int_or_float(text: str) -> int | float:
    """An int where the text is one, else a float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _domain(kind, admits, words: str):
    """An argparse type: ``kind`` of the text, refused unless ``admits`` it."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not admits(value):
            raise argparse.ArgumentTypeError(f"must {words}, got {value}")
        return value
    return parse


_positive_int = _domain(int, lambda v: v >= 1, "be >= 1")
_nonnegative_int = _domain(int, lambda v: v >= 0, "be >= 0")
_probability = _domain(float, lambda v: 0 <= v <= 1, "lie in [0, 1]")
_density = _domain(float, lambda v: 0 < v <= 1, "lie in (0, 1]")
_above_one = _domain(float, lambda v: v > 1, "exceed 1")
_positive_finite = _domain(float, lambda v: 0 < v < math.inf, "be positive and finite")


def _vertex_list(text: str) -> list[int]:
    """An argparse type: comma-separated integers, such as ``0,1,2``."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated vertex list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="copsrobbers")
    ap.add_argument("--seed", type=int, default=0, dest="global_seed",
                    help="global seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list",
                       parents=[common])
    p.add_argument("family", choices=list(GEN_FAMILIES))
    p.add_argument("sizes", type=int, nargs="*")
    p.add_argument("--p", type=_probability, default=0.5, help="edge probability (gnp)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[common], help="exact cop number via retrograde analysis")
    p.add_argument("graph")
    p.add_argument("--k", type=_positive_int)
    p.add_argument("--kmax", type=_positive_int, default=3)
    p.add_argument("--budget", type=_positive_int, default=solver.DEFAULT_STATE_BUDGET,
                   help="limit on n**(k+1), the bits of one solver label table (exit 3 above it)")
    p.add_argument("--placement", action="store_true")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("play", parents=[common], help="play one game and emit the transcript")
    p.add_argument("graph")
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--cops", choices=["chaser", "solver"], default="chaser")
    p.add_argument("--robber", choices=["greedy", "random"], default="greedy")
    p.add_argument("--max-rounds", type=_positive_int, default=200)
    p.add_argument("--budget", type=_positive_int, default=solver.DEFAULT_STATE_BUDGET,
                   help="solver cops: limit on n**(k+1), the bits of one label table")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("strategy", parents=[common], help="run a cop strategy and emit plan + transcript")
    p.add_argument("which", choices=["guard", "expander", "meyniel"])
    p.add_argument("graph")
    p.add_argument("--path", type=_vertex_list, help="guard: comma-separated geodesic")
    p.add_argument("--check", action="store_true",
                   help="guard: verify every round past the settle bound, by an "
                        "exhaustive base to the bound and a one-step closure (exit 3 "
                        "when the base exceeds the adversary's node budget)")
    p.add_argument("--lam", type=_above_one, default=2.0)
    p.add_argument("--density", type=_density, default=0.5)
    p.add_argument("--levels", type=_nonnegative_int, default=0, help="0: derive from diameter")
    p.add_argument("--resample-limit", type=_positive_int, default=16)
    p.add_argument("--threshold", type=_positive_int, default=3,
                   help="meyniel diameter threshold")
    p.add_argument("--robber", choices=["greedy", "random"], default="greedy")
    p.add_argument("--max-rounds", type=_positive_int, default=500)
    p.add_argument("--require-capture", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("bound", parents=[common], help="scale parameters, boundary, inequality chain")
    p.add_argument("--L", required=True, type=_int_or_float, help="log2 of the vertex count")
    d = p.add_mutually_exclusive_group()
    d.add_argument("--d-log", type=float, default=None, help="log2 of the deleted-path length")
    d.add_argument("--d-zero", action="store_true", help="evaluate the degenerate D=0 chain")
    p.add_argument("--tol", type=_positive_finite, default=1e-6)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", parents=[common], help="run acceptance criteria 1-9")
    p.add_argument("--budget", type=_nonnegative_int, default=2,
                   help=f"corpus scale: {checks.FULL_BUDGET} or more runs the full "
                        "acceptance data, 0 skips everything")
    p.add_argument("--corpus", help="directory of .el files added to criterion 1 "
                                    f"(those of at most {checks.CORPUS_MAX_VERTICES} vertices)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = args.global_seed
    if args.command == "gen":
        _, least, vertices, limit = GEN_FAMILIES[args.family]
        if len(args.sizes) != len(least):
            ap.error(f"gen {args.family} takes {len(least)} size(s), got {len(args.sizes)}")
        for size, low in zip(args.sizes, least):
            if size < low:
                ap.error(f"gen {args.family} sizes must be >= {low}, got {size}")
        n = vertices(*args.sizes)
        if n > limit:
            ap.error(f"gen {args.family} would make {n} vertices, above the "
                     f"{limit} an edge list may declare")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (CopsRobbersError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
