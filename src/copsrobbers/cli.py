"""Command-line entry point.

Exit codes: 0 ok, 1 fault (bad input, failed verification), 2 usage,
3 resource limit.  All randomized subcommands take one --seed; component
sub-seeds are derived from it, and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import mpmath

from . import bounds, generators, solver
from .engine import (
    ChaserCop,
    GameConfig,
    GreedyFarRobber,
    RandomRobber,
    adversarial_robber_search,
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
    Graph,
    diameter_pair,
    format_edge_list,
    girth,
    graph_hash,
    is_connected,
    min_degree,
    parse_edge_list,
    shortest_path,
    to_dot,
)
from .guard import GuardCop, check_guard_soundness, settle_bound
from .meyniel import run_meyniel
from .seeds import derive_seed

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _dump(doc) -> str:
    return json.dumps(doc, **_JSON_KW)


def _read_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return parse_edge_list(text)


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

def cmd_gen(args) -> int:
    kind = args.family
    if kind == "path":
        g = generators.gen_path(args.sizes[0])
    elif kind == "cycle":
        g = generators.gen_cycle(args.sizes[0])
    elif kind == "grid":
        g = generators.gen_grid(args.sizes[0], args.sizes[1])
    elif kind == "hypercube":
        g = generators.gen_hypercube(args.sizes[0])
    elif kind == "petersen":
        g = generators.gen_petersen()
    elif kind == "gnp":
        g = generators.gen_gnp(args.sizes[0], args.p, derive_seed(args.seed, "gnp"))
    elif kind == "projective":
        g = generators.gen_projective_incidence(args.sizes[0])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
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
    cfg = GameConfig(
        cop_count=args.k,
        max_rounds=args.max_rounds,
        robber_visible=not args.invisible,
        seed=args.seed,
    )
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
            path = [int(x) for x in args.path.split(",")]
        else:
            _, u, v = diameter_pair(g)
            path = shortest_path(g, u, v)
        cops = GuardCop(g, path)
        cfg = GameConfig(cop_count=1, max_rounds=args.max_rounds, seed=seed)
        t = play(g, cops, _robber(args.robber), cfg)
        validate_transcript(g, t)
        doc = {
            "schema": "copsrobbers.strategy/1",
            "strategy": "guard",
            "path": list(path),
            "settle_bound": settle_bound(g, path),
            "soundness": None,
            "transcript": json.loads(transcript_to_json(t)),
        }
        if args.check:
            rep = check_guard_soundness(g, path)
            doc["soundness"] = {
                "states_checked": rep["states_checked"],
                "violations": rep["violations"],
            }
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
            "plan": plan_summary(plans[t.robber_placement], family),
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
    doc = {
        "schema": "copsrobbers.bound/1",
        "params": {k: mpmath.nstr(v, 17) for k, v in vals.items()},
        "trivial_region_boundary": {
            "low": mpmath.nstr(bracket.low, 17),
            "high": mpmath.nstr(bracket.high, 17),
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
            lines.append(f"{s.name:>24}: {'holds' if s.holds else 'FAILS'} "
                         f"(slack >= {mpmath.nstr(s.slack_lo, 8)})")
        e = report.end_to_end
        lines.append(f"{'end_to_end':>24}: {'holds' if e.holds else 'FAILS'} "
                     f"(slack >= {mpmath.nstr(e.slack_lo, 8)})")
        _write("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    checks = []
    seed = args.seed

    def record(name, status, detail, chk_seed=None):
        checks.append({"name": name, "status": status, "detail": detail, "seed": chk_seed})

    corpus: list[Graph] = []
    if args.corpus:
        import os

        for fname in sorted(os.listdir(args.corpus)):
            if fname.endswith(".el"):
                corpus.append(_read_graph(os.path.join(args.corpus, fname)))

    budget = args.budget
    if budget <= 0:
        for name in ("oracle_agreement", "girth_bound", "guard_soundness",
                     "expander_confinement", "eq1_sweep"):
            record(name, "skipped", "budget 0: resource limit")
    else:
        # oracle agreement: dismantlability == one-cop win
        bad = []
        count = 0
        pool = list(corpus)
        for i in range(20 * budget):
            n = 5 + (i % 4)
            pool.append(generators.gen_gnp(n, 0.45, derive_seed(seed, f"verify:oracle:{i}")))
        for i, g in enumerate(pool):
            if not is_connected(g) or g.n > 9:
                continue
            count += 1
            if solver.is_dismantlable(g)[0] != solver.is_k_copwin(g, 1):
                bad.append(i)
        record("oracle_agreement", "fail" if bad else "pass",
               f"{count} graphs, disagreements: {bad}", seed)

        # girth >= 5 forces cop number >= min degree
        h = generators.gen_projective_incidence(2)
        ok = girth(h) >= 5 and (solver.cop_number(h, min_degree(h) + 1) or 99) >= min_degree(h)
        record("girth_bound", "pass" if ok else "fail",
               f"incidence graph: girth {girth(h)}, min degree {min_degree(h)}")

        # guard soundness on a few (graph, geodesic) pairs
        viol = 0
        for i in range(2 * budget):
            g = generators.gen_gnp(9, 0.3, derive_seed(seed, f"verify:guard:{i}"))
            d, u, v = diameter_pair(g)
            if not 2 <= d < math.inf:
                continue
            rep = check_guard_soundness(g, shortest_path(g, u, v))
            viol += len(rep["violations"])
        record("guard_soundness", "fail" if viol else "pass",
               f"violations: {viol}", seed)

        # expander confinement: all robber lines caught by the deadline
        fails = []
        for i in range(budget):
            g = generators.gen_gnp(8, 0.5, derive_seed(seed, f"verify:exp:{i}"))
            if not is_connected(g):
                continue
            params = desk_params(g, lam=1.5, density=0.8)
            try:
                cops, family, plans, _ = make_expander_cop(g, params, derive_seed(seed, f"verify:expseed:{i}"))
            except ValueError:
                continue
            deadline = max(p.capture_deadline for p in plans.values())
            cfg = GameConfig(cop_count=family.total_cops, max_rounds=deadline + 1, seed=0)
            t = adversarial_robber_search(g, cops, cfg, deadline)
            if not t.caught:
                fails.append(i)
        record("expander_confinement", "fail" if fails else "pass",
               f"uncaught instances: {fails}", seed)

        sweep_ok = all(
            bounds.check_eq1_chain(L).end_to_end.holds
            for L in (1100, 1600, 2000)
        )
        record("eq1_sweep", "pass" if sweep_ok else "fail", "L in {1100,1600,2000}")

    if args.format == "json":
        _write(_dump({"schema": "copsrobbers.verify/1", "checks": checks}), args.out)
    else:
        _write("\n".join(f"{c['name']}: {c['status']} ({c['detail']})" for c in checks),
               args.out)
    return 1 if any(c["status"] == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

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
    p.add_argument("family", choices=["path", "cycle", "grid", "hypercube",
                                      "petersen", "gnp", "projective"])
    p.add_argument("sizes", type=int, nargs="*")
    p.add_argument("--p", type=float, default=0.5, help="edge probability (gnp)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[common], help="exact cop number via retrograde analysis")
    p.add_argument("graph")
    p.add_argument("--k", type=int)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--budget", type=int, default=solver.DEFAULT_STATE_BUDGET,
                   help="limit on n**(k+1), the bits of one solver label table (exit 3 above it)")
    p.add_argument("--placement", action="store_true")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("play", parents=[common], help="play one game and emit the transcript")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--cops", choices=["chaser", "solver"], default="chaser")
    p.add_argument("--robber", choices=["greedy", "random"], default="greedy")
    p.add_argument("--max-rounds", type=int, default=200)
    p.add_argument("--invisible", action="store_true")
    p.add_argument("--budget", type=int, default=solver.DEFAULT_STATE_BUDGET,
                   help="solver cops: limit on n**(k+1), the bits of one label table")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("strategy", parents=[common], help="run a cop strategy and emit plan + transcript")
    p.add_argument("which", choices=["guard", "expander", "meyniel"])
    p.add_argument("graph")
    p.add_argument("--path", help="guard: comma-separated geodesic")
    p.add_argument("--check", action="store_true", help="guard: exhaustively verify")
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--levels", type=int, default=0, help="0: derive from diameter")
    p.add_argument("--resample-limit", type=int, default=16)
    p.add_argument("--threshold", type=int, default=3, help="meyniel diameter threshold")
    p.add_argument("--robber", choices=["greedy", "random"], default="greedy")
    p.add_argument("--max-rounds", type=int, default=500)
    p.add_argument("--require-capture", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("bound", parents=[common], help="scale parameters, boundary, inequality chain")
    p.add_argument("--L", required=True, help="log2 of the vertex count")
    p.add_argument("--d-log", default=None, help="log2 of the deleted-path length")
    p.add_argument("--d-zero", action="store_true", help="evaluate the degenerate D=0 chain")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p.add_argument("--budget", type=int, default=2, help="0 skips everything")
    p.add_argument("--corpus", help="directory of .el files to include")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = args.global_seed
    if hasattr(args, "L"):
        try:
            args.L = int(args.L)
        except ValueError:
            args.L = float(args.L)
        if args.d_log is not None:
            args.d_log = float(args.d_log)
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
