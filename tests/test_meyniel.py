import dataclasses
import gc
import hashlib
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import (
    GameConfig,
    Graph,
    StrategyParams,
    adversarial_robber_search,
    diameter,
    diameter_pair,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_petersen,
    play,
    run_meyniel,
    transcript_to_json,
    validate_transcript,
)
from copsrobbers.engine import GreedyFarRobber, RandomRobber, View, expand_game_layers
import copsrobbers.graph as graph_mod
from copsrobbers import checks
from copsrobbers.expander import desk_params, sample_cop_sets, verify_claim
from copsrobbers.meyniel import MeynielAnalysis, MeynielCop
from copsrobbers.seeds import make_rng

from conftest import random_connected
from oracles import eager_meyniel, masked_bfs_oracle, replay_final_state

PARAMS = StrategyParams(lam=2.0, density=0.8, levels=3)


def cfg(seed=0, rounds=500):
    return GameConfig(cop_count=1, max_rounds=rounds, seed=seed)


def test_below_threshold_delegates_to_expander(petersen):
    assert diameter(petersen) == 2
    res = run_meyniel(petersen, 3, PARAMS, cfg())
    assert res.caught
    assert res.guards_used == 0
    assert res.expander_cops == sum(res.leaf_set_sizes) > 0
    assert res.cops_used == res.expander_cops
    validate_transcript(petersen, res.transcript)


def test_p30_one_guard():
    g = gen_path(30)
    res = run_meyniel(g, 10, PARAMS, cfg())
    assert res.caught
    assert res.cops_used == res.guards_used == 1
    validate_transcript(g, res.transcript)


def test_c20_recursion_terminates():
    g = gen_cycle(20)
    res = run_meyniel(g, 3, PARAMS, cfg())
    assert res.caught
    assert res.cops_used == res.guards_used + res.expander_cops
    validate_transcript(g, res.transcript)


def test_c20_exhaustive_adversary():
    g = gen_cycle(20)
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    strat = MeynielCop(an)
    depth = an.timeline_bound()
    t = adversarial_robber_search(
        g, strat, GameConfig(cop_count=an.pool_size, max_rounds=depth, seed=0), depth
    )
    assert t.caught
    validate_transcript(g, t)


@pytest.mark.parametrize("g, seed", [(gen_cycle(20), 3), (gen_grid(5, 5), 1), (gen_grid(6, 6), 2)],
                         ids=["c20", "grid-5x5", "grid-6x6"])
def test_kept_guard_steps_match_a_fresh_cop_at_every_node(g, seed):
    # a long-lived cop answers from the guard steps it has kept; at every
    # node of the expansion it moves as a cop asked there alone
    an = MeynielAnalysis(g, 3, PARAMS, seed=seed)
    depth = an.timeline_bound()
    c = GameConfig(cop_count=an.pool_size, max_rounds=depth, seed=seed)
    kept = MeynielCop(an)
    play(g, kept, GreedyFarRobber(), c)
    _, (keys, recs), layers = expand_game_layers(g, kept, c, depth)
    assert any(node.kind == "guard" for node in an.nodes)
    for layer in layers[:depth]:
        for i in layer:
            (cops, r, state), rec = keys[i], recs[i]
            view = View(cops, r)
            moved = kept.move(g, view, state)
            assert moved == MeynielCop(an).move(g, view, state) == (rec.moves, rec.state2)


def test_random_corpus_with_both_robbers():
    for seed in (3, 14, 29):
        g = random_connected(16, seed=seed, p=0.2)
        for robber in (GreedyFarRobber(), RandomRobber()):
            res = run_meyniel(g, 2, PARAMS, cfg(seed=seed), robber=robber)
            assert res.caught, (seed, robber.name)
            assert res.cops_used == res.guards_used + res.expander_cops
            validate_transcript(g, res.transcript)


FINAL_STATE_CASES = {
    "grid12x12": (lambda: gen_grid(12, 12), 3),
    "c40": (lambda: gen_cycle(40), 3),
    "p30": (lambda: gen_path(30), 10),
    **{f"rand{seed}": (lambda seed=seed: random_connected(20 + 4 * seed, seed=seed, p=0.12), 2)
       for seed in range(6)},
}


@pytest.mark.parametrize("name", sorted(FINAL_STATE_CASES))
def test_final_state_matches_replay(name):
    make, threshold = FINAL_STATE_CASES[name]
    g = make()
    for robber in (GreedyFarRobber(), RandomRobber()):
        c = cfg(seed=7)
        res = run_meyniel(g, threshold, PARAMS, c, robber=robber)
        strategy = MeynielCop(MeynielAnalysis(g, threshold, PARAMS, seed=c.seed))
        assert res.transcript.final_state == replay_final_state(g, strategy, res.transcript)
        assert res.final_node == res.transcript.final_state[0]


def test_cops_used_accounting_exact():
    g = random_connected(14, seed=11, p=0.25)
    res = run_meyniel(g, 2, PARAMS, cfg(seed=11))
    assert res.caught
    assert res.expander_cops == sum(res.leaf_set_sizes)
    assert res.cops_used == res.guards_used + sum(res.leaf_set_sizes)


def test_component_monotonicity():
    g = gen_cycle(20)
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    for node in an.nodes:
        if node.kind == "guard":
            for child in node.children:
                assert len(child.members) < len(node.members)
                assert set(child.members) <= set(node.members)


def _walked_guards(an, node):
    """(entry, cop index, guard) per guard deployed at `node`, found by
    walking `children` from the root."""
    cur, chain = an.root, []
    while True:
        if cur.kind == "guard":
            chain.append((cur.entry, cur.depth, an.cops(cur).guards[-1][2]))
        if cur is node:
            return tuple(chain)
        cur = next(child for child in cur.children if node.members[0] in child.members)


CHAIN_CASES = {
    "c20": lambda: gen_cycle(20),
    "grid6x9": lambda: gen_grid(6, 9),
    **{f"rand{seed}": (lambda seed=seed: random_connected(30, seed=seed, p=0.08))
       for seed in range(3)},
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_recorded_guard_chain_matches_walk_from_root(name):
    an = MeynielAnalysis(CHAIN_CASES[name](), 3, PARAMS, seed=0)
    assert max(len(an.cops(node).guards) for node in an.nodes) >= 2
    for node in an.nodes:
        assert an.cops(node).guards == _walked_guards(an, node)


def test_guard_persistence_on_transcript():
    # once a guard's settle window has passed, a robber on that geodesic is
    # captured on the very next cop half-move
    g = gen_cycle(20)
    an = MeynielAnalysis(g, 3, PARAMS, seed=5)
    strat = MeynielCop(an)
    depth = an.timeline_bound()
    t = adversarial_robber_search(
        g, strat, GameConfig(cop_count=an.pool_size, max_rounds=depth, seed=5), depth
    )
    guards = [n for n in an.nodes if n.kind == "guard"]
    r_pos = t.robber_placement
    rounds = list(t.rounds)
    for idx, (moves, r_move) in enumerate(rounds):
        rnd = idx + 1
        for node in guards:
            if rnd > node.entry + node.duration and r_pos in an.cops(node).guards[-1][2].index_of:
                assert r_pos in moves, (
                    f"robber sat on a settled geodesic at round {rnd} uncaught"
                )
        if r_move is None:
            break
        r_pos = r_move


# criterion 7's parameters, and the recursion benchmark's (levels from the
# diameter)
PARAM_SETS = {
    "criterion7": lambda g: PARAMS,
    "bench": lambda g: StrategyParams(lam=2.0, density=0.5, levels=desk_params(g).levels,
                                      resample_limit=16),
}


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 22), st.sampled_from((3.0, 5.0)), st.integers(0, 10**6),
       st.integers(1, 3), st.sampled_from(sorted(PARAM_SETS)))
def test_lazy_analysis_matches_eager_build(n, spread, seed, threshold, param_set):
    g = random_connected(n, seed, p=min(0.45, spread / n))
    params = PARAM_SETS[param_set](g)
    an = MeynielAnalysis(g, threshold, params, seed=seed)
    nodes, pool, timeline = eager_meyniel(g, threshold, params, seed)
    assert (an.pool_size, an.timeline_bound()) == (pool, timeline)
    assert len(an.nodes) == len(nodes)
    fields = ("node_id", "depth", "kind", "entry", "duration", "parent")
    for node, ref in zip(an.nodes, nodes):
        assert tuple(getattr(node, f) for f in fields) == tuple(ref[f] for f in fields)
        assert tuple(node.members) == tuple(ref["vertices"])
        assert tuple(child.node_id for child in node.children) == ref["children"]
        built = an.cops(node)
        assert [(entry, idx, guard.path) for entry, idx, guard in built.guards] == [
            (nodes[i]["entry"], nodes[i]["depth"], nodes[i]["guard"].path) for i in ref["guards"]]
        if node.kind == "guard":
            own = built.guards[-1][2]
            assert (own.dist0, own.approach) == (ref["guard"].dist0, ref["guard"].approach)
            continue
        leaf = ("broken", "resamples", "family_set_sizes", "deadlines")
        assert tuple(getattr(node, f) for f in leaf) == tuple(ref[f] for f in leaf)
        team = ref["team"]
        assert (built.team is None) == (team is None)
        if team is not None:
            assert (built.team.homes, built.team.tracks) == (team.homes, team.tracks)
        assert built.march_routes == ref["march_routes"]
    # the analysis's timeline is long enough for every robber line
    t = adversarial_robber_search(
        g, MeynielCop(an), GameConfig(cop_count=pool, max_rounds=timeline, seed=seed), timeline
    )
    assert t.caught


def test_determinism():
    g = random_connected(15, seed=8, p=0.25)
    a = run_meyniel(g, 2, PARAMS, cfg(seed=8))
    b = run_meyniel(g, 2, PARAMS, cfg(seed=8))
    assert transcript_to_json(a.transcript) == transcript_to_json(b.transcript)
    assert (a.cops_used, a.guards_used) == (b.cops_used, b.guards_used)


def test_broken_leaf_reported():
    g = gen_grid(4, 4)
    starved = StrategyParams(lam=2.0, density=1e-9, levels=1, resample_limit=1)
    res = run_meyniel(g, 2, starved, cfg())
    assert not res.caught
    assert res.leaf_broken
    assert res.expander_cops == 0


def test_aggressive_threshold_validation():
    with pytest.raises(ValueError):
        MeynielAnalysis(gen_path(5), 0, PARAMS, seed=0)


def _sparse_tree(n, chords, seed):
    """Random recursive tree plus `chords` random chords: its guard splits
    leave many components."""
    rng = make_rng(seed, "pin-chords")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


# Every leaf of the analysis, pinned to the bytes of an earlier revision:
# (node id, resamples, broken, family set sizes, SHA-256 of the repr of
# (team homes, sorted deadlines, march routes, sorted per-start team tracks)), with the
# pool size and the timeline bound.  Resamples above 1 and the root leaf check
# that leaf planning draws the same families from the same derived seeds.  The
# sparse tree's first split has ten children, and its leaves also pin the
# SHA-256 of the repr of (component, entry, duration, parent id), so the order
# of the children and the components they get are pinned too.
HALF = StrategyParams(lam=2.0, density=0.5, levels=3)
STARVED = StrategyParams(lam=2.0, density=1e-9, levels=1, resample_limit=1)
PINNED_LEAVES = {
    "grid12x12": ((gen_grid, 12, 12), 3, PARAMS, 24, 190, (
        (10, 1, False, (4, 2, 4, 4),
         "cc77029b48e7ec5a177025f0ae69b89f95b2d14da77f18b81297c7469ef589b0"),
    )),
    "grid12x12-half": ((gen_grid, 12, 12), 4, HALF, 31, 178, (
        (9, 2, False, (4, 7, 6, 5),
         "4b51c9ddca183a1d020a394b3427b60712794e47f830a54a7fc78efebe877bfd"),
    )),
    "c40-root-leaf": ((gen_cycle, 40), 20, HALF, 73, 4, (
        (0, 1, False, (18, 23, 13, 19),
         "4954a1bd111985ac8a788dbe7ff34da42c6d355d2b362b8e19a85edce8388020"),
    )),
    "starved-grid4x4": ((gen_grid, 4, 4), 2, STARVED, 2, 14, (
        (2, 1, True, (),
         "8ef31c2d68fbd71420df5fce8d62f8737938441d0a2ad045f280f1a0e2a4b13b"),
    )),
    "tree50-chords": ((_sparse_tree, 50, 3, 2), 3, HALF, 13, 33, (
        (1, 1, False, (1, 0, 0, 1),
         "4de2cadf272642829150fb2cd2a12b45b5597bd2ad4312b2e54289d34885c30a",
         "e0779590c81289a2cc0ed239ab89796d90daa8e12f93af1984857f810bb2a4ae"),
        (2, 1, False, (3, 3, 3, 3),
         "57589a9b0e1b3933ba8763513e6705c2c79611f97ee2dda3d99864bf5d0a8666",
         "51ac1aabc475633c5d3bd3c779d7f4e78d615d484ecf96ba98c4f5ab4363c668"),
        (5, 1, False, (1, 1, 2, 1),
         "a6d21cec68312b5292d58a3ce0e2fb55775ad86f7dfaa34d9290e161f84cebfd",
         "5ad897ad6150d5e8e754e5c86b17fb453f98df53ff7d8c70f31f3d01d1650bd6"),
        (6, 1, False, (1, 3, 2, 1),
         "43f61a17b713568f3f6609d9e5a8352c46d7e4d14b10df54a0b9c3f6f666c69c",
         "6ccd84163853d39777ff8ab475818b33065ce0c81bf320c03514a182a62c3427"),
        (8, 1, False, (1, 0, 1, 1),
         "e1e77a29ecd4162829e5dfe75e0ea4828918c34791ab93ac3960468e62a5d35a",
         "a5e8ee4eac044f13d2295fdffd128abcfb32b7b1ddadd576055f07e0cce273bc"),
        (9, 1, False, (1, 0, 1, 0),
         "206e5cc55f8ee307e59e3e95b002649fb1cb53828862dc5b8c0db344f41d5b1a",
         "8914f0d09d995d0f5a1990a54aab2a577772268ed66a4037b23940c9490d7b8f"),
        (10, 1, False, (0, 1, 1, 0),
         "91c0d9435e9e7e8bcb0e6fa52ab80b6cb4dd7f6cf8a9ec3f78be808230f7eb56",
         "1ed848c97f5cd8301574a3895bb537d82d69b8ea7eefb7e56ddff389dea20a6e"),
        (11, 1, False, (1, 0, 0, 1),
         "66681357ca5d62c9eeae24066d55ee624f33dcc313efce761e03a9929becb29a",
         "1cdefd18a45b944bf56cf277e41648de76f5469cf74fd73d8dff72469718298b"),
        (12, 1, False, (1, 0, 1, 0),
         "5de31c54dddd2d063b9423ade9e9771e93bbc4da00b14ec4c83aab9f32de1f2a",
         "5cb596b90cce32aebfd821ec1496c06ec4bfa7d321e1a92bbc2f5e9b3ee62601"),
        (13, 1, False, (0, 0, 0, 1),
         "9911cb4d0e9a59656d9a742c9af36aea2ec175a3269d1ca7f8b47eeedee0eae5",
         "333f53da83aa3d31232f49f2970b20a8c514742be82bafa189912f3aa8a8c0ae"),
    )),
}


@pytest.mark.parametrize("name", sorted(PINNED_LEAVES))
def test_leaves_pinned(name):
    (gen, *args), threshold, params, pool, timeline, leaves = PINNED_LEAVES[name]
    an = MeynielAnalysis(gen(*args), threshold, params, seed=0)
    got = []
    for n in an.nodes:
        if n.kind == "leaf":
            built = an.cops(n)
            homes, tracks = (built.team.homes, built.team.tracks) if built.team else ((), {})
            doc = (homes, sorted((n.deadlines or {}).items()), built.march_routes,
                   sorted(tracks.items()))
            place = (tuple(n.members), n.entry, n.duration, n.parent)
            got.append((n.node_id, n.resamples, n.broken, n.family_set_sizes,
                        hashlib.sha256(repr(doc).encode()).hexdigest(),
                        hashlib.sha256(repr(place).encode()).hexdigest()))
    width = len(leaves[0])  # the cases before the tree pin five fields
    assert (an.pool_size, an.timeline_bound(), tuple(leaf[:width] for leaf in got)) == (
        pool, timeline, leaves)


def test_analysis_lists_no_whole_graph_vertex_set():
    # every node keeps its component as an ascending id list and measures the
    # subgraph it induces, whose vertices are that list's positions: a
    # guard's shadow row and a leaf's family and plans are indexed by them
    g = gen_grid(12, 12)
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    assert an.root.kind == "guard" and max(node.depth for node in an.nodes) >= 2
    for node in an.nodes:
        assert list(node.members) == sorted(set(node.members))
        if node.kind == "guard":
            assert len(node.shadow) == len(node.members)
        else:
            assert node.shadow is None
            assert node.family.n == len(node.members)
            assert sorted(node.plans) == list(range(len(node.members)))
        an.cops(node)
    assert any(an.cops(node).team for node in an.nodes)
    res = run_meyniel(g, 3, PARAMS, cfg(), robber=GreedyFarRobber())
    assert res.caught and res.guards_used >= 2


def test_desk_params_and_two_runs_share_one_whole_graph_scan(diameter_scans):
    # the recurse bench instance: desk_params, then one analysis per robber
    g = gen_grid(10, 10)
    params = StrategyParams(lam=2.0, density=0.5, levels=desk_params(g).levels)
    for robber in (GreedyFarRobber(), RandomRobber()):
        assert run_meyniel(g, 3, params, cfg(), robber=robber).caught
    assert diameter_scans.count(100) == 1
    assert max(diameter_scans[1:]) < 100


def test_analysis_reads_the_rows_the_scans_kept(monkeypatch):
    # After the whole-graph scan, the root's geodesic, the v0 row of the
    # windows and the root guard's two metrics are rows the scan kept on the
    # graph: no BFS runs on its adjacency.  A guard node below keeps as its
    # shadow the row its component's scan kept, and its guard reads it
    # there and approaches through g's kept row from its p0, with no BFS on
    # any other adjacency.
    g = gen_grid(12, 12)
    diameter_pair(g)
    passes = []
    bfs = graph_mod._bfs

    def counting_bfs(adj, dist, sources):
        passes.append(adj)
        return bfs(adj, dist, sources)

    scanned = []  # every row each component's diameter scan left kept
    scan = graph_mod._diameter_scan

    def recording_scan(h):
        out = scan(h)
        scanned.extend(h._rows.values())
        return out

    monkeypatch.setattr(graph_mod, "_bfs", counting_bfs)
    monkeypatch.setattr(graph_mod, "_diameter_scan", recording_scan)
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    assert an.root.kind == "guard" and not any(adj is g._adj for adj in passes)
    assert an.root.shadow is g._row(an.root.path[0])
    root_guard = an.cops(an.root).guards[-1][2]
    assert root_guard.dist0 is root_guard.approach is g._row(an.root.path[0])
    guards = [node for node in an.nodes[1:] if node.kind == "guard"]
    assert guards
    for node in guards:
        assert any(node.shadow is row for row in scanned)
    passes.clear()
    for node in guards:
        an.cops(node)
    assert all(adj is g._adj for adj in passes)
    for node in guards:
        own = an.cops(node).guards[-1][2]
        assert own.approach is g._row(node.path[0])
        assert [own.dist0[v] for v in node.members] == node.shadow


# Trees with guard nodes below the root: the 12x12 grid splits twice, C60's
# root geodesic leaves a path, and the sparse tree's first split has ten
# components.
TREES = {
    "grid12x12": lambda: gen_grid(12, 12),
    "c60": lambda: gen_cycle(60),
    "tree50-chords": lambda: _sparse_tree(50, 3, 2),
}


def _reachable(obj):
    """Every object reachable from obj by ``gc.get_referents``, except
    through types, modules and functions, which reach the interpreter."""
    seen, stack, out = set(), [obj], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


@pytest.mark.parametrize("name", ["grid12x12", "c60"])
def test_kept_tree_holds_no_graph(name):
    # a node records its component as ids and a guard's shadow row; nothing
    # the graph keeps for the recursion, cop objects included, is a Graph
    g = TREES[name]()
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    for node in an.nodes:
        an.cops(node)
    assert run_meyniel(g, 3, PARAMS, cfg()).caught
    assert g._kept["meyniel"][1] is an.nodes
    for node in an.nodes:
        assert not any(isinstance(getattr(node, f.name), Graph)
                       for f in dataclasses.fields(node))
    assert not any(isinstance(obj, Graph) for obj in _reachable(g._kept["meyniel"]))


@pytest.mark.parametrize("name", sorted(TREES))
def test_guard_shadows_are_component_rows_from_p0(name):
    g = TREES[name]()
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    below = [node for node in an.nodes[1:] if node.kind == "guard"]
    assert below
    for node in below:
        row = masked_bfs_oracle(g, (node.path[0],), node.members)
        assert node.shadow == [row[v] for v in node.members]


@pytest.mark.parametrize("name", sorted(TREES))
def test_building_the_cops_runs_no_bfs_off_the_graph(monkeypatch, name):
    # the guards read their shadows off the nodes and their approach rows
    # off g, so every BFS the cop objects need runs on g's adjacency
    g = TREES[name]()
    an = MeynielAnalysis(g, 3, PARAMS, seed=0)
    passes = []
    bfs = graph_mod._bfs

    def counting_bfs(adj, dist, sources):
        passes.append(adj)
        return bfs(adj, dist, sources)

    monkeypatch.setattr(graph_mod, "_bfs", counting_bfs)
    for node in an.nodes:
        built = an.cops(node)
        if node.kind == "guard" and node.parent is not None:
            own = built.guards[-1][2]
            assert [own.dist0[v] for v in node.members] == node.shadow
    assert all(adj is g._adj for adj in passes)


# ---------------------------------------------------------------------------
# The recursion tree kept on its graph.
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """The graphs whose tree is built from here on, one entry per build."""
    built = []
    grow = MeynielAnalysis._grow

    def counting_grow(self):
        built.append(self.g)
        return grow(self)

    monkeypatch.setattr(MeynielAnalysis, "_grow", counting_grow)
    return built


def test_same_key_reuses_the_kept_tree(monkeypatch):
    g = gen_grid(10, 10)
    an = MeynielAnalysis(g, 3, PARAMS, seed=1)
    an.cops(an.nodes[-1])
    monkeypatch.setattr(MeynielAnalysis, "_build",
                        lambda *a, **kw: pytest.fail("kept tree built again"))
    # an equal but distinct params object is the same key
    again = MeynielAnalysis(g, 3, StrategyParams(lam=2.0, density=0.8, levels=3), seed=1)
    assert again.nodes is an.nodes and again.root is an.root
    assert (again.pool_size, again.timeline_bound()) == (an.pool_size, an.timeline_bound())
    assert again.cops(again.nodes[-1]) is an.cops(an.nodes[-1])
    assert again.g is g


@pytest.mark.parametrize("make, threshold", [(lambda: gen_grid(12, 12), 3),
                                             (lambda: gen_cycle(40), 3),
                                             (lambda: random_connected(30, seed=4, p=0.1), 2)],
                         ids=["grid12x12", "c40", "rand30"])
def test_game_on_the_kept_tree_matches_a_fresh_graph(make, threshold):
    # each robber's game on the tree the other robber's game left, against
    # its game on a fresh, equal graph
    robbers = (GreedyFarRobber, RandomRobber)
    for first, second in (robbers, robbers[::-1]):
        g = make()
        run_meyniel(g, threshold, PARAMS, cfg(seed=7), robber=first())
        kept = run_meyniel(g, threshold, PARAMS, cfg(seed=7), robber=second())
        fresh = run_meyniel(make(), threshold, PARAMS, cfg(seed=7), robber=second())
        assert transcript_to_json(kept.transcript) == transcript_to_json(fresh.transcript)
        assert kept == fresh


def test_another_key_builds_a_tree_that_replaces_the_kept_one(monkeypatch):
    g = gen_cycle(40)
    built = _count_builds(monkeypatch)
    # the kept tree is a tuple of nodes, which takes no weak reference: its
    # root stands for it
    first = weakref.ref(MeynielAnalysis(g, 3, PARAMS, seed=0).root)
    assert first() is g._kept["meyniel"][1][0]
    keys = [(3, PARAMS, 1), (4, PARAMS, 1), (4, HALF, 1), (3, PARAMS, 0)]
    for threshold, params, seed in keys:
        replaced = weakref.ref(g._kept["meyniel"][1][0])
        an = MeynielAnalysis(g, threshold, params, seed)
        assert an.root is not first()
        key, tree = g._kept["meyniel"]
        assert key == (threshold, params, seed) and tree is an.nodes
        # the slot held the only reference to the tree it held before
        assert replaced() is None
    # the last key is the first one's, whose tree had been replaced, and it
    # is kept again
    assert len(built) == 1 + len(keys)
    MeynielAnalysis(g, 3, PARAMS, seed=0)
    assert len(built) == 1 + len(keys)


def test_criterion_7_builds_each_case_tree_once(monkeypatch):
    built = _count_builds(monkeypatch)
    doc = checks.criterion_7(3, 1)
    assert not doc["failures"]
    cases = {run["case"] for run in doc["runs"]}
    # two games per case, and an exhaustive adversary on the small ones
    assert sum(run["robber"] == "adversarial" for run in doc["runs"]) >= 2
    assert len(built) == len({id(g) for g in built}) == len(cases)


def _games_and_claim():
    g = gen_grid(10, 10)
    params = StrategyParams(lam=2.0, density=0.5, levels=desk_params(g).levels)
    for robber in (GreedyFarRobber(), RandomRobber()):
        assert run_meyniel(g, 3, params, cfg(seed=1), robber=robber).caught
    h = random_connected(10, seed=3, p=0.4)
    verify_claim(h, sample_cop_sets(h, PARAMS, 5), PARAMS)


def test_games_and_claim_leave_no_cyclic_garbage():
    # the kept tree refers to no graph, and no recursive helper keeps itself
    # alive, so reference counting frees everything the calls made
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _games_and_claim()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
