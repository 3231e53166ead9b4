"""Acceptance criteria 1-9.  ``criterion_N(seed, budget)`` returns a report;
at ``FULL_BUDGET`` or above it is the full acceptance data, and smaller budgets
keep a prefix of each seeded corpus (criteria 2 and 8 have none) and stop
criterion 1's exhaustive part at five vertices."""

from __future__ import annotations

import itertools
import statistics

from .bounds import bound_params, check_eq1_chain, trivial_region_boundary
from .engine import (GameConfig, GreedyFarRobber, RandomRobber, adversarial_robber_search,
                     expand_game_layers, validate_transcript)
from .errors import ResourceLimitError
from .expander import (CapturePlan, StrategyParams, build_plan, desk_params, invisible_mode,
                       make_expander_cop, sample_cop_sets, verify_claim)
from .generators import gen_cycle, gen_gnp, gen_grid, gen_path, gen_petersen, gen_projective_incidence
from .graph import Graph, diameter_pair, girth, is_connected, min_degree, shortest_path
from .guard import check_guard_soundness
from .meyniel import MeynielAnalysis, MeynielCop, run_meyniel
from .seeds import derive_seed, make_rng
from .solver import cop_number, is_dismantlable, is_k_copwin

FULL_BUDGET = 8
HEAWOOD_COP_NUMBER = 3  # frozen oracle regression constant
CORPUS_MAX_VERTICES = 9  # larger corpus graphs are left out of criterion 1


def _scaled(full: int, budget: int) -> int:
    """Corpus size at ``budget``: ``full`` at FULL_BUDGET, never below one."""
    return max(1, full * min(budget, FULL_BUDGET) // FULL_BUDGET)


# Corpus helpers.

def random_connected(n: int, seed: int, p: float = 0.4) -> Graph:
    """First connected G(n, p) along a derived seed stream."""
    for attempt in range(200):
        g = gen_gnp(n, p, derive_seed(seed, f"rc:{attempt}"))
        if is_connected(g):
            return g
    raise RuntimeError("no connected sample found")


def random_girth5(n: int, seed: int) -> Graph:
    """Connected graph of girth >= 5: grow a random tree, then make three
    passes adding edges only between vertices currently at distance >= 4."""
    rng = make_rng(seed)
    order = list(range(1, n))
    rng.shuffle(order)
    g = Graph(n, [(rng.randrange(0, v) if v > 1 else 0, v) for v in order])
    for _ in range(3):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs:
            if g._row(u)[v] >= 4:
                g = Graph(n, g.edges() + [(u, v)])
    if girth(g) < 5 or not is_connected(g):
        raise RuntimeError(f"random_girth5({n}, {seed}) built a graph of girth {girth(g)}")
    return g


def all_connected_graphs(n: int):
    """Every labeled connected graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph(n, edges)
        if is_connected(g):
            yield g


def _random_tree(n, seed):
    rng = make_rng(seed)
    return Graph(n, [(rng.randrange(0, v), v) for v in range(1, n)])


def _complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def _star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# 1. Oracle agreement: dismantlability == one-cop win.

def criterion_1(seed: int, budget: int, corpus: list[Graph] | None = None) -> dict:
    """Connected ``corpus`` graphs of at most CORPUS_MAX_VERTICES vertices are
    checked too; only then does the report have ``corpus_graphs``."""
    disagreements = []

    def agree(kind, key, g):
        if is_dismantlable(g)[0] != is_k_copwin(g, 1):
            disagreements.append((kind, key, g.edges()))

    exhaustive = 0
    for n in range(1, 7 if budget >= FULL_BUDGET else 6):
        for g in all_connected_graphs(n):
            exhaustive += 1
            agree("exhaustive", n, g)
    randoms = 0
    i = 0
    while randoms < _scaled(500, budget):
        g = gen_gnp(7 + (i % 2), 0.35, derive_seed(seed, f"c1:{i}"))
        i += 1
        if is_connected(g):
            randoms += 1
            agree("random", i - 1, g)
    doc = {"criterion": 1, "exhaustive_graphs": exhaustive, "random_graphs": randoms,
           "disagreements": disagreements}
    if corpus is not None:
        kept = [(i, g) for i, g in enumerate(corpus)
                if g.n <= CORPUS_MAX_VERTICES and is_connected(g)]
        for i, g in kept:
            agree("corpus", i, g)
        doc["corpus_graphs"] = len(kept)
    return doc


def verdict_1(doc):
    detail = f"{doc['exhaustive_graphs']} exhaustive + {doc['random_graphs']} random"
    if "corpus_graphs" in doc:
        detail += f" + {doc['corpus_graphs']} corpus"
    return not doc["disagreements"], detail


# 2. Known cop numbers.

def criterion_2(seed: int, budget: int) -> dict:
    values = {f"path_{n}": cop_number(gen_path(n), 2) for n in (7, 10)}
    for i, n in enumerate((6, 9, 12)):
        values[f"tree_{n}"] = cop_number(_random_tree(n, derive_seed(seed, f"c2t:{i}")), 2)
    values.update({f"cycle_{n}": cop_number(gen_cycle(n), 3) for n in range(4, 10)})
    values["petersen"] = cop_number(gen_petersen(), 3)
    heawood = gen_projective_incidence(2)
    values["heawood_two_cops_win"] = is_k_copwin(heawood, 2)
    values["heawood"] = cop_number(heawood, 3)
    return {"criterion": 2, "values": values}


def verdict_2(doc):
    v = doc["values"]
    ok = (
        v["path_7"] == 1 and v["path_10"] == 1
        and all(v[f"tree_{n}"] == 1 for n in (6, 9, 12))
        and all(v[f"cycle_{n}"] == 2 for n in range(4, 10))
        and v["petersen"] == 3
        and v["heawood_two_cops_win"] is False
        and v["heawood"] == HEAWOOD_COP_NUMBER >= 3
    )
    return ok, f"heawood={v['heawood']}"


# 3. Girth bound: girth >= 5 forces cop number >= min degree.

def criterion_3(seed: int, budget: int) -> dict:
    cases = []
    graphs = [("heawood", gen_projective_incidence(2))]
    for i in range(_scaled(20, budget)):
        graphs.append((f"girth5_{i}", random_girth5(8 + (i % 7), derive_seed(seed, f"c3:{i}"))))
    for name, g in graphs:
        if girth(g) < 5:
            raise ValueError(f"criterion 3 corpus graph {name} has girth {girth(g)}")
        delta = min_degree(g)
        holds = True if delta <= 1 else not is_k_copwin(g, delta - 1)
        cases.append({"graph": name, "n": g.n, "min_degree": delta, "bound_holds": holds,
                      "cop_number_le3": cop_number(g, 3)})
    return {"criterion": 3, "cases": cases}


def verdict_3(doc):
    bad = [c for c in doc["cases"] if not c["bound_holds"]]
    return not bad, f"{len(doc['cases'])} graphs"


# 4. Guard soundness over every robber line on 100 (graph, geodesic) pairs.

def _guard_corpus(seed: int, size: int = 100):
    """The first ``size`` (graph, geodesic) pairs: each graph gives its first
    diametral geodesic, then the geodesic between two random vertices."""
    named = [gen_cycle(n) for n in range(6, 31, 2)]
    named += [gen_path(n) for n in (8, 15, 22, 30)]
    named += [gen_grid(2, k) for k in (4, 8, 12, 15)]
    named += [gen_grid(3, k) for k in (3, 6, 10)]
    named += [gen_petersen(), gen_projective_incidence(2)]
    randoms = (random_connected(8 + (i % 13), derive_seed(seed, f"c4g:{i}"), p=0.3)
               for i in itertools.count())
    pairs = []
    rng = make_rng(seed, "c4pairs")
    for g in itertools.chain(named, randoms):
        if len(pairs) >= size:
            break
        _, u, v = diameter_pair(g)
        pairs.append((g, shortest_path(g, u, v)))
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        pairs.append((g, shortest_path(g, min(a, b), max(a, b))))
    return pairs[:size]


def criterion_4(seed: int, budget: int) -> dict:
    pairs = _guard_corpus(seed, _scaled(100, budget))
    total_states = 0
    violations = []
    for idx, (g, path) in enumerate(pairs):
        rep = check_guard_soundness(g, path)
        total_states += rep["states_checked"]
        if rep["violations"]:
            violations.append({"pair": idx, "path": list(path),
                               "violations": rep["violations"]})
    return {"criterion": 4, "pairs": len(pairs), "states_checked": total_states,
            "violations": violations}


def verdict_4(doc):
    return not doc["violations"], f"{doc['pairs']} pairs, {doc['states_checked']} states"


# 5. Expander confinement: caught by round 2^(s-1), robber in A_i at every
#    level deadline, on every robber line.

# tried in order; the deep settings (high lam suppresses the adjacent-cop
# shortcut, moderate density starves the early matchings) force multi-level
# plans where the graph allows it, with dense fallbacks guaranteeing success
_LADDER = ((6.0, 0.4), (6.0, 0.5), (4.0, 0.6), (2.0, 0.8), (1.5, 1.0))
_MAX_DEADLINE = 64  # deepest plan the exhaustive adversary is asked to expand


def _tuned_expander(g, seed):
    last = None
    levels = min(desk_params(g).levels, 6)  # a function of the diameter alone
    for lam, density in _LADDER:
        params = StrategyParams(lam=lam, density=density, levels=levels, resample_limit=16)
        try:
            cop, family, plans, attempts = make_expander_cop(g, params, seed)
            return cop, family, plans, attempts, params
        except ValueError as exc:
            last = exc
    raise ValueError(f"no parameter choice produced plans: {last}")


def _expander_corpus(seed: int, size: int = 50):
    graphs = [gen_cycle(8), gen_cycle(16), gen_cycle(24), gen_petersen(),
              gen_grid(3, 4), gen_grid(3, 8), gen_grid(4, 5),
              gen_projective_incidence(2), gen_path(9), gen_path(20)][:size]
    for i in itertools.count():
        if len(graphs) >= size:
            return graphs
        n = 8 + (i * 7) % 33  # 8..40
        graphs.append(random_connected(n, derive_seed(seed, f"c5g:{i}"), p=min(0.5, 6.0 / n)))


def confinement_violations(g, cop, plans, deadline: int) -> list[dict]:
    """Every robber line against an expander team, expanded for ``deadline``
    rounds: a line still alive after its start's capture-deadline round, or
    outside a level's core at that level's deadline (its radius), is a
    violation.  ``ScriptedCop`` counts rounds in its state, so each node is
    in one layer, and ``layers[k]`` holds the ids of the lines alive after
    round k."""
    cfg = GameConfig(cop_count=cop.cop_count, max_rounds=deadline, seed=0)
    _, (keys, _), layers = expand_game_layers(g, cop, cfg, deadline)
    violations = []
    for k in range(1, deadline + 1):
        for i in layers[k]:
            _, r_pos, (v, _) = keys[i]
            plan = plans[v]
            if k >= plan.capture_deadline:
                violations.append({"start": v, "alive_at": k})
            for i, lv in enumerate(plan.levels, 1):
                if k == lv.radius and r_pos not in lv.core:
                    violations.append({"start": v, "round": k, "robber": r_pos,
                                       "level": i})
    return violations


def criterion_5(seed: int, budget: int) -> dict:
    violations = []
    summaries = []
    for gi, g in enumerate(_expander_corpus(seed, _scaled(50, budget))):
        cop, family, plans, attempts, params = _tuned_expander(g, derive_seed(seed, f"c5s:{gi}"))
        deadline = max(p.capture_deadline for p in plans.values())
        if deadline > _MAX_DEADLINE:
            raise ResourceLimitError(f"criterion 5 graph {gi}: plan deadline {deadline} "
                                     f"exceeds {_MAX_DEADLINE} rounds")
        # every start's capture deadline is at most `deadline`, so a line
        # alive after round `deadline` is reported here: no second search
        violations += [{"graph": gi, **v}
                       for v in confinement_violations(g, cop, plans, deadline)]
        summaries.append({"n": g.n, "cops": family.total_cops, "deadline": deadline,
                          "resamples": attempts, "lam": params.lam, "density": params.density})
    return {"criterion": 5, "graphs": len(summaries), "summaries": summaries,
            "violations": violations}


def verdict_5(doc):
    deepest = max(s["deadline"] for s in doc["summaries"])
    return not doc["violations"], f"{doc['graphs']} graphs, max deadline {deepest}"


# 6. Claim check: whenever the sampled sets pass the exhaustive hitting test,
#    planning succeeds on the first attempt.

def criterion_6(seed: int, budget: int) -> dict:
    graphs = [("p8", gen_path(8)), ("petersen", gen_petersen()),
              ("rand13", random_connected(13, derive_seed(seed, "c6g"), p=0.35))]
    rows = []
    counterexamples = []
    for name, g in graphs:
        levels = min(desk_params(g, lam=2.0).levels, 4)
        for density in (0.3, 0.5, 0.8):
            params = StrategyParams(lam=2.0, density=density, levels=levels)
            passing = 0
            for s in range(_scaled(50, budget)):
                fam = sample_cop_sets(g, params, derive_seed(seed, f"c6:{name}:{density}:{s}"))
                if not verify_claim(g, fam, params):
                    continue
                passing += 1
                plans = {v: build_plan(g, v, fam, params) for v in range(g.n)}
                bad = [v for v, p in plans.items() if not isinstance(p, CapturePlan)]
                if bad:
                    counterexamples.append({"graph": name, "density": density,
                                            "seed": s, "failed_starts": bad})
            rows.append({"graph": name, "density": density, "passing": passing})
    return {"criterion": 6, "rows": rows, "counterexamples": counterexamples}


def verdict_6(doc):
    nonvacuous = sum(r["passing"] for r in doc["rows"])
    return (not doc["counterexamples"] and nonvacuous > 0,
            f"{nonvacuous} passing families across {len(doc['rows'])} settings")


# 7. Recursion: caught everywhere, cop accounting exact.

def criterion_7(seed: int, budget: int) -> dict:
    params = StrategyParams(lam=2.0, density=0.8, levels=3)
    failures = []
    runs = []

    def run_case(name, g, threshold, exhaustive):
        cfg = GameConfig(cop_count=1, max_rounds=600, seed=derive_seed(seed, f"c7:{name}"))
        for robber in (GreedyFarRobber(), RandomRobber()):
            res = run_meyniel(g, threshold, params, cfg, robber=robber)
            validate_transcript(g, res.transcript)
            if not res.caught:
                failures.append({"case": name, "robber": robber.name})
            if res.cops_used != res.guards_used + sum(res.leaf_set_sizes):
                failures.append({"case": name, "accounting": res.cops_used})
            runs.append({"case": name, "robber": robber.name,
                         "cops_used": res.cops_used, "guards": res.guards_used})
        if exhaustive:
            an = MeynielAnalysis(g, threshold, params, seed=cfg.seed)
            depth = an.timeline_bound()
            adversary = GameConfig(cop_count=an.pool_size, max_rounds=depth, seed=cfg.seed)
            t = adversarial_robber_search(g, MeynielCop(an), adversary, depth)
            if not t.caught:
                failures.append({"case": name, "robber": "adversarial"})
            runs.append({"case": name, "robber": "adversarial", "round": t.outcome.round})

    run_case("P30", gen_path(30), 10, exhaustive=False)
    run_case("C20", gen_cycle(20), 3, exhaustive=True)
    for i in range(_scaled(20, budget)):
        n = 8 + (i * 13) % 33  # 8..40, half at most 20
        g = random_connected(n, derive_seed(seed, f"c7g:{i}"), p=min(0.45, 5.0 / n))
        run_case(f"rand{i}_n{n}", g, 3 if n <= 20 else 4, exhaustive=n <= 20)
    return {"criterion": 7, "runs": runs, "failures": failures}


def verdict_7(doc):
    return not doc["failures"], f"{len(doc['runs'])} runs"


# 8. Bound arithmetic.

def criterion_8(seed: int, budget: int) -> dict:
    import mpmath  # only criterion 8 prints mpmath numbers; the bounds calls set their precision

    b = trivial_region_boundary(tol=1e-6)
    p = bound_params(1024)
    mid = p.point_values()
    exact = {
        "t": (p.is_exact("t"), float(mid["t"])),
        "p_log": (p.is_exact("p_log"), float(mid["p_log"])),
        "threshold_log": (p.is_exact("diameter_threshold_log"),
                          float(mid["diameter_threshold_log"])),
    }
    sweep = {}
    for L in (1100, 1600, 2000, 10**4, 10**6):
        r = check_eq1_chain(L)
        sweep[str(L)] = {
            "all_steps_hold": all(s.holds for s in r.steps),
            "end_to_end_holds": bool(r.end_to_end.holds),
            "end_to_end_slack_lo": mpmath.nstr(r.end_to_end.slack_lo, 12),
        }
    return {"criterion": 8,
            "boundary": {"low": mpmath.nstr(b.low, 17), "high": mpmath.nstr(b.high, 17)},
            "exact_at_1024": exact, "sweep": sweep}


def verdict_8(doc):
    lo, hi = float(doc["boundary"]["low"]), float(doc["boundary"]["high"])
    ok = (
        900 < lo <= hi < 1024 and hi - lo <= 1e-6
        and doc["exact_at_1024"]["t"] == (True, 2.0)
        and doc["exact_at_1024"]["p_log"] == (True, -12.0)
        and doc["exact_at_1024"]["threshold_log"] == (True, 2.0)
        and all(v["all_steps_hold"] and v["end_to_end_holds"]
                and float(v["end_to_end_slack_lo"]) > 0
                for v in doc["sweep"].values())
    )
    return ok, f"L* in ({lo}, {hi})"


# 9. Invisible robber: guess-and-sweep terminates quickly.

def criterion_9(seed: int, budget: int) -> dict:
    # "dense" operationalized by the resampling policy: the family fielded is
    # the first one whose plan succeeds for every start, so each run's guess
    # loop has genuine catching power and terminates
    cases = []
    failures = []
    for name, g in (("K4", _complete(4)), ("K6", _complete(6)), ("K8", _complete(8)),
                    ("star4", _star(4)), ("star5", _star(5)), ("star7", _star(7))):
        params = StrategyParams(lam=2.0, density=0.4, levels=2, resample_limit=64)
        repeats = []
        for s in range(_scaled(100, budget)):
            _, fam, _, _ = make_expander_cop(g, params, derive_seed(seed, f"c9:{name}:{s}"))
            res = invisible_mode(g, fam, params, seed=derive_seed(seed, f"c9m:{name}:{s}"),
                                 max_repeats=10 * g.n)
            if not res.caught:
                failures.append({"case": name, "seed": s})
            repeats.append(res.repeats)
        med = statistics.median(repeats)
        cases.append({"case": name, "v": g.n, "median_repeats": med,
                      "max_repeats": max(repeats)})
        if med > g.n:
            failures.append({"case": name, "median": med})
    return {"criterion": 9, "cases": cases, "failures": failures}


def verdict_9(doc):
    detail = ", ".join(f"{c['case']}: med {c['median_repeats']}" for c in doc["cases"])
    return not doc["failures"], detail


# number -> (title, report generator, pass rule returning (ok, detail))
CRITERIA = {
    1: ("oracle agreement", criterion_1, verdict_1),
    2: ("known cop numbers", criterion_2, verdict_2),
    3: ("girth lower bound", criterion_3, verdict_3),
    4: ("geodesic guard soundness", criterion_4, verdict_4),
    5: ("expander confinement", criterion_5, verdict_5),
    6: ("hitting claim implies planning", criterion_6, verdict_6),
    7: ("deletion recursion", criterion_7, verdict_7),
    8: ("bound arithmetic", criterion_8, verdict_8),
    9: ("invisible robber", criterion_9, verdict_9),
}
