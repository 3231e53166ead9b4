"""The three workloads: inputs made from a seed, instance code, reference checks.

A workload run is a sequence of *blocks*.  A block holds one instance of
every kind of the workload's mix, each on a distinct graph; block ``b`` is
made from ``derive_seed(seed, "<workload>:<b>")``.  Structured graphs
(grids, cycles, named graphs) are relabelled by a seeded permutation, so no
graph repeats within a run and the solver's ``lru_cache`` never replays an
earlier solve.  The mixes are built so that the median instance falls
inside one kind, which keeps ``instance_p50_s`` from jumping between two
kinds from run to run.

Every instance reads the edge-list text made at set-up and calls the public
functions of the package in the order the matching ``copsrobbers``
subcommand calls them, ending in canonical JSON.  The instance returns what
its reference check needs; the checks run after the timed loop.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from copsrobbers import bounds, engine, expander, generators, graph, guard, meyniel, solver
from copsrobbers.engine import GameConfig
from copsrobbers.expander import StrategyParams
from copsrobbers.graph import Graph, VertexSet
from copsrobbers.seeds import derive_seed, make_rng

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}

FROZEN_COP_NUMBERS = {"petersen": 3, "heawood": 3, "q4": 3, "grid": 2, "cycle": 2}

# Pool sizes in blocks: several times what a run at the parent commit
# completes in 30 s, so a faster program still has inputs to work on.
POOL_BLOCKS = {"solve": 32, "recurse": 24, "verify": 192}


@dataclass
class Instance:
    kind: str
    label: str
    text: str
    seed: int
    params: dict = field(default_factory=dict)


def _dump(doc) -> str:
    return json.dumps(doc, **_JSON_KW)


# ---------------------------------------------------------------------------
# Graph constructions used at set-up.
# ---------------------------------------------------------------------------

def relabel(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def girth5_graph(n: int, rng) -> Graph:
    """Random maximal graph of girth >= 5: add shuffled pairs at distance >= 4.

    Maximality keeps it connected with diameter <= 4.
    """
    adj = [set() for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        seen, frontier = {u}, [u]
        for _ in range(3):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if v not in seen:
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def dense_graph(n: int, p: float, rng) -> Graph:
    """Connected G(n, m) with m = round(p * C(n, 2)).

    Fixing the edge count removes the largest source of run-to-run spread in
    retrograde cost (it grows with the cube of the degrees) while keeping the
    G(n, p) density.
    """
    pairs = list(itertools.combinations(range(n), 2))
    m = round(p * len(pairs))
    while True:
        g = Graph(n, rng.sample(pairs, m))
        if graph.is_connected(g):
            return g


def sparse_tree(n: int, extra: int, rng) -> Graph:
    """Random recursive tree plus `extra` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    """First connected sample along a derived stream of ``gen_gnp`` seeds."""
    for attempt in itertools.count():
        g = generators.gen_gnp(n, p, derive_seed(seed, f"gnp:{attempt}"))
        if graph.is_connected(g):
            return g


def small_connected_graphs(max_n: int) -> list[Graph]:
    """Every labelled connected graph with 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            if graph.is_connected(g):
                out.append(g)
    return out


def diameter_geodesic(g: Graph) -> list[int]:
    """Geodesic between the lexicographically first diametral pair."""
    best = (-1, 0, 0)
    for u in range(g.n):
        dist = graph.bfs_distances(g, VertexSet.of(g.n, [u]))
        for v in range(u + 1, g.n):
            if dist[v] > best[0]:
                best = (dist[v], u, v)
    return graph.shortest_path(g, best[1], best[2])


# ---------------------------------------------------------------------------
# Mixes.  Each entry: (kind, label, make(rng) -> (Graph or None, params)).
# ---------------------------------------------------------------------------

def _frozen(name, make):
    return lambda rng: (relabel(make(), rng), {"frozen": name})


def _solve_mix(size):
    if size == "tiny":
        return [
            ("solve-copnum", "cycle", lambda r: (relabel(generators.gen_cycle(r.randint(5, 8)), r),
                                                 {"frozen": "cycle"})),
            ("solve-copnum", "petersen", _frozen("petersen", generators.gen_petersen)),
            ("solve-copnum", "girth5-10", lambda r: (girth5_graph(10, r), {"girth5": True})),
            ("solve-k3", "dense-8", lambda r: (dense_graph(8, 0.5, r), {})),
            ("solve-copnum", "grid", lambda r: (relabel(generators.gen_grid(3, 3), r),
                                                {"frozen": "grid"})),
        ]
    mix = [
        ("solve-copnum", "cycle-short",
         lambda r: (relabel(generators.gen_cycle(r.randint(6, 16)), r), {"frozen": "cycle"})),
        ("solve-copnum", "grid",
         lambda r: (relabel(generators.gen_grid(r.randint(3, 5), r.randint(3, 5)), r),
                    {"frozen": "grid"})),
        ("solve-copnum", "petersen", _frozen("petersen", generators.gen_petersen)),
        ("solve-copnum", "cycle-long",
         lambda r: (relabel(generators.gen_cycle(r.randint(24, 32)), r), {"frozen": "cycle"})),
        ("solve-copnum", "heawood",
         _frozen("heawood", lambda: generators.gen_projective_incidence(2))),
        ("solve-copnum", "girth5-16", lambda r: (girth5_graph(16, r), {"girth5": True})),
        # the median kind: a fixed graph, so its cost does not depend on the seed
        ("solve-copnum", "q4", _frozen("q4", lambda: generators.gen_hypercube(4))),
    ]
    for n in (22, 25, 28):
        mix.append(("solve-copnum", f"girth5-{n}",
                    lambda r, n=n: (girth5_graph(n, r), {"girth5": True})))
    for n, p in ((14, 0.7), (17, 0.55), (20, 0.4)):
        mix.append(("solve-k3", f"dense-{n}-{p}", lambda r, n=n, p=p: (dense_graph(n, p, r), {})))
    return mix


def _recurse_mix(size):
    if size == "tiny":
        return [
            ("recurse", "grid-6x6", lambda r: (relabel(generators.gen_grid(6, 6), r), {})),
            ("recurse", "cycle-30", lambda r: (relabel(generators.gen_cycle(30), r), {})),
            ("recurse", "tree-40", lambda r: (sparse_tree(40, 2, r), {})),
        ]
    grid = lambda w, h: lambda r: (relabel(generators.gen_grid(w, h), r), {})
    cycle = lambda n: lambda r: (relabel(generators.gen_cycle(n), r), {})
    tree = lambda n: lambda r: (sparse_tree(n, n // 20, r), {})
    return [
        ("recurse", "cycle-80", cycle(80)),
        ("recurse", "tree-100", tree(100)),
        ("recurse", "grid-10x10", grid(10, 10)),
        ("recurse", "grid-15x15", grid(15, 15)),
        # the median kind: a cycle, whose cost barely depends on the labelling
        ("recurse", "cycle-450", cycle(450)),
        ("recurse", "tree-450", tree(450)),
        ("recurse", "grid-12x30", grid(12, 30)),
        ("recurse", "grid-20x20", grid(20, 20)),
        ("recurse", "grid-25x25", grid(25, 25)),
    ]


def _verify_mix(size):
    if size == "tiny":
        return [
            ("oracle", "gnp-7", lambda r: (connected_gnp(7, 0.45, r.getrandbits(64)), {})),
            ("guard", "cycle", lambda r: (relabel(generators.gen_cycle(r.randint(6, 10)), r), {})),
            ("expander", "gnp-8",
             lambda r: (connected_gnp(8, 0.3, r.getrandbits(64)), {})),
            ("meyniel-adversary", "cycle-12",
             lambda r: (relabel(generators.gen_cycle(12), r), {})),
            ("bounds", "eq1", lambda r: (None, {"L": r.randint(1100, 10**6)})),
        ]
    # nine one-cop solves per block (plus the dealt-out small graphs) put the
    # median inside the cheap oracle kind and give about a thousand tiny
    # solves per run
    mix = [("oracle", f"gnp-{n}", lambda r, n=n: (connected_gnp(n, 0.45, r.getrandbits(64)), {}))
           for n in (7, 8, 9) for _ in range(3)]
    mix += [
        ("guard", "grid",
         lambda r: (relabel(generators.gen_grid(r.randint(2, 4), r.randint(3, 8)), r), {})),
        ("guard", "grid-large",
         lambda r: (relabel(generators.gen_grid(r.randint(4, 6), r.randint(6, 10)), r), {})),
        ("guard", "cycle", lambda r: (relabel(generators.gen_cycle(r.randint(6, 30)), r), {})),
    ]
    mix += [("expander", f"gnp-{n}", lambda r, n=n: (connected_gnp(n, 0.3, r.getrandbits(64)), {}))
            for n in (12, 15, 18)]
    mix += [
        ("meyniel-adversary", "cycle-20", lambda r: (relabel(generators.gen_cycle(20), r), {})),
        ("meyniel-adversary", "grid-5x5", lambda r: (relabel(generators.gen_grid(5, 5), r), {})),
        ("meyniel-adversary", "grid-6x6", lambda r: (relabel(generators.gen_grid(6, 6), r), {})),
        ("bounds", "eq1", lambda r: (None, {"L": r.randint(1100, 10**6)})),
    ]
    return mix


MIXES = {"solve": _solve_mix, "recurse": _recurse_mix, "verify": _verify_mix}


def build_pool(workload: str, seed: int, size: str = "full") -> list[list[Instance]]:
    """All blocks of a run, with every graph serialised to edge-list text."""
    mix = MIXES[workload](size)
    blocks = POOL_BLOCKS[workload] if size == "full" else 3
    pool = [[] for _ in range(blocks)]
    for b in range(blocks):
        rng = make_rng(derive_seed(seed, f"{workload}:{b}"))
        for kind, label, make in mix:
            g, params = make(rng)
            text = "" if g is None else graph.format_edge_list(g)
            pool[b].append(Instance(kind, label, text, rng.getrandbits(63), params))
    if workload == "verify":
        # the exhaustive small-graph sweep is dealt out over the blocks
        small = small_connected_graphs(5 if size == "full" else 3)
        make_rng(derive_seed(seed, "verify:small")).shuffle(small)
        for i, g in enumerate(small):
            pool[i % blocks].append(
                Instance("oracle", f"small-{g.n}", graph.format_edge_list(g), 0))
    return pool


# ---------------------------------------------------------------------------
# Instances.  Module attributes are looked up at call time, so the traced
# run's wrappers see every call.
# ---------------------------------------------------------------------------

def _play_solver_cop(g, k, seed):
    """`copsrobbers play --cops solver`, then the exhaustive adversary."""
    cops = solver.SolverCop(g, k)
    cfg = GameConfig(cop_count=k, max_rounds=200, seed=seed)
    t = engine.play(g, cops, engine.GreedyFarRobber(), cfg)
    engine.validate_transcript(g, t)
    engine.transcript_to_json(t)
    worst = engine.adversarial_robber_search(g, cops, cfg, cfg.max_rounds)
    engine.transcript_to_json(worst)
    return {"play_caught": t.caught, "adversary_caught": worst.caught}


def run_solve_copnum(inst):
    """`copsrobbers solve --kmax 3 --placement`, then play the solver cops."""
    g = graph.parse_edge_list(inst.text)
    doc = {"schema": "copsrobbers.solve/1", "graph_hash": graph.graph_hash(g), "kmax": 3}
    c = solver.cop_number(g, 3)
    doc["cop_number"] = c
    if c is not None:
        doc["placement"] = list(solver.k_copwin_placement(g, c))
    out = {"json": _dump(doc), "cop_number": c}
    if c is not None:
        out.update(_play_solver_cop(g, c, inst.seed))
    return out


def run_solve_k3(inst):
    """`copsrobbers solve --k 3 --placement`, then play the solver cops."""
    g = graph.parse_edge_list(inst.text)
    doc = {"schema": "copsrobbers.solve/1", "graph_hash": graph.graph_hash(g), "k": 3}
    win = solver.is_k_copwin(g, 3)
    doc["copwin"] = win
    if win:
        doc["placement"] = list(solver.k_copwin_placement(g, 3))
    out = {"json": _dump(doc), "copwin": win}
    if win:
        out.update(_play_solver_cop(g, 3, inst.seed))
    return out


def run_recurse(inst):
    """`copsrobbers strategy meyniel` against the greedy and the random robber."""
    g = graph.parse_edge_list(inst.text)
    params = StrategyParams(lam=2.0, density=0.5, levels=expander.desk_params(g).levels,
                            resample_limit=16)
    games = []
    for robber in (engine.GreedyFarRobber(), engine.RandomRobber()):
        cfg = GameConfig(cop_count=1, max_rounds=500, seed=inst.seed)
        res = meyniel.run_meyniel(g, 3, params, cfg, robber=robber)
        engine.validate_transcript(g, res.transcript)
        doc = {
            "schema": "copsrobbers.strategy/1",
            "strategy": "meyniel",
            "caught": res.caught,
            "cops_used": res.cops_used,
            "guards_used": res.guards_used,
            "expander_cops": res.expander_cops,
            "pool_size": res.pool_size,
            "transcript": json.loads(engine.transcript_to_json(res.transcript)),
        }
        _dump(doc)
        games.append({"caught": res.caught, "cops_used": res.cops_used,
                      "guards_used": res.guards_used,
                      "leaf_cops": sum(res.leaf_set_sizes)})
    return {"games": games}


def run_oracle(inst):
    """Corner elimination against the one-cop retrograde solve."""
    g = graph.parse_edge_list(inst.text)
    return {"dismantlable": solver.is_dismantlable(g)[0], "copwin": solver.is_k_copwin(g, 1)}


def run_guard(inst):
    """`copsrobbers strategy guard --check` on a diameter geodesic."""
    g = graph.parse_edge_list(inst.text)
    path = diameter_geodesic(g)
    rep = guard.check_guard_soundness(g, path)
    return {"violations": len(rep["violations"]), "json": _dump(rep)}


def run_expander(inst):
    """Plan, exhaustive adversary, hitting claim and invisible mode.

    An expansion factor of 6 rules out the one-step capture at most starts,
    so about half the plans run the level sweep.  The level count is fixed
    (``--levels 3``) rather than derived from the diameter, so the size of
    the subset tables, and with it the peak memory of a run, does not depend
    on which graphs the seed drew.
    """
    g = graph.parse_edge_list(inst.text)
    params = StrategyParams(lam=6.0, density=0.5, levels=3)
    cops, family, plans, attempts = expander.make_expander_cop(g, params, inst.seed)
    deadline = max(p.capture_deadline for p in plans.values())
    cfg = GameConfig(cop_count=family.total_cops, max_rounds=deadline + 1, seed=0)
    worst = engine.adversarial_robber_search(g, cops, cfg, deadline)
    engine.transcript_to_json(worst)
    claim = expander.verify_claim(g, family, params)
    inv = expander.invisible_mode(g, family, params, seed=inst.seed, max_repeats=g.n)
    engine.validate_transcript(g, inv.transcript)
    engine.transcript_to_json(inv.transcript)
    return {"adversary_caught": worst.caught, "claim": claim, "resamples": attempts}


def run_meyniel_adversary(inst):
    """Every robber line against the recursion cops, by exhaustive search."""
    g = graph.parse_edge_list(inst.text)
    params = StrategyParams(lam=2.0, density=0.8, levels=3)
    an = meyniel.MeynielAnalysis(g, 3, params, seed=inst.seed)
    cops = meyniel.MeynielCop(an)
    depth = an.timeline_bound()
    cfg = GameConfig(cop_count=an.pool_size, max_rounds=depth, seed=inst.seed)
    worst = engine.adversarial_robber_search(g, cops, cfg, depth)
    engine.transcript_to_json(worst)
    return {"adversary_caught": worst.caught}


def run_bounds(inst):
    """`copsrobbers bound --L <L>`: the eq1 chain and the trivial-region boundary."""
    report = bounds.check_eq1_chain(inst.params["L"])
    bracket = bounds.trivial_region_boundary(tol=1e-6)
    _dump(report.to_dict())
    return {"chain_holds": bool(report.end_to_end.holds)
            and all(s.holds for s in report.steps),
            "boundary": [float(bracket.low), float(bracket.high)]}


RUNNERS = {
    "solve-copnum": run_solve_copnum,
    "solve-k3": run_solve_k3,
    "recurse": run_recurse,
    "oracle": run_oracle,
    "guard": run_guard,
    "expander": run_expander,
    "meyniel-adversary": run_meyniel_adversary,
    "bounds": run_bounds,
}


# ---------------------------------------------------------------------------
# Reference checks, run outside the timed interval.  Each returns a list of
# problems; an empty list passes.
# ---------------------------------------------------------------------------

def _check_games(out):
    bad = []
    if out.get("play_caught") is False:
        bad.append("solver cops did not catch the greedy robber")
    if out.get("adversary_caught") is False:
        bad.append("a robber line escapes the exhaustive adversary")
    return bad


def check(inst: Instance, out: dict) -> list[str]:
    kind, params = inst.kind, inst.params
    if kind == "solve-copnum":
        g = graph.parse_edge_list(inst.text)
        c = out["cop_number"]
        bad = _check_games(out)
        frozen = params.get("frozen")
        if frozen is not None and c != FROZEN_COP_NUMBERS[frozen]:
            bad.append(f"{frozen}: cop number {c}, expected {FROZEN_COP_NUMBERS[frozen]}")
        if params.get("girth5"):
            if graph.girth(g) < 5:
                bad.append("input girth below 5")
            if c is not None and c < graph.min_degree(g):
                bad.append(f"cop number {c} below min degree {graph.min_degree(g)}")
        if (c == 1) != solver.is_dismantlable(g)[0]:
            bad.append("k=1 answer disagrees with corner elimination")
        return bad
    if kind == "solve-k3":
        return _check_games(out)
    if kind == "recurse":
        bad = []
        for game in out["games"]:
            if not game["caught"]:
                bad.append("recursion game not caught")
            if game["cops_used"] != game["guards_used"] + game["leaf_cops"]:
                bad.append("cops_used != guards_used + leaf set sizes")
        return bad
    if kind == "oracle":
        return [] if out["dismantlable"] == out["copwin"] else ["k=1 solve != corner elimination"]
    if kind == "guard":
        return [f"{out['violations']} guard violations"] if out["violations"] else []
    if kind in ("expander", "meyniel-adversary"):
        return _check_games(out)
    if kind == "bounds":
        bad = [] if out["chain_holds"] else ["eq1 chain fails"]
        lo, hi = out["boundary"]
        if not 900 < lo <= hi < 1024:
            bad.append(f"trivial-region boundary [{lo}, {hi}] outside (900, 1024)")
        return bad
    raise ValueError(f"unknown kind {kind}")
