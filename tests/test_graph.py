import __future__
import functools
import inspect
import math
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import (
    UNREACHABLE,
    Graph,
    NoPathError,
    ParseError,
    ball,
    bfs_distances,
    diameter,
    diameter_pair,
    format_edge_list,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_hypercube,
    gen_path,
    gen_petersen,
    girth,
    graph_hash,
    is_connected,
    min_degree,
    parse_edge_list,
    shortest_path,
    to_dot,
)

from conftest import all_connected_graphs, random_connected
import copsrobbers.graph
from copsrobbers.graph import MAX_PARSE_VERTICES, _components, _induced, step_toward, walk_back
from copsrobbers.seeds import derive_seed, make_rng
from copsrobbers.solver import DEFAULT_STATE_BUDGET, _tables, is_k_copwin
from oracles import (
    ball_oracle,
    component_oracle,
    cut_vertices_oracle,
    delete_vertices_oracle,
    diameter_oracle,
    diameter_pair_allpairs,
    diameter_pair_oracle,
    girth_oracle,
    masked_bfs_oracle,
)


def _outside(g, mask):
    """The vertices of g that are not in the collection of ids `mask`."""
    return set(range(g.n)).difference(mask)


def _induced_on(g, mask):
    """The subgraph the ids `mask` induce, built by the oracle, and its
    ascending members: vertex i of the subgraph is members[i] of g."""
    h, idmap = delete_vertices_oracle(g, _outside(g, mask))
    return h, sorted(idmap)


def _pair_inside(g, mask):
    """``diameter_pair`` of the subgraph `mask` induces, in g's ids."""
    h, members = _induced_on(g, mask)
    d, u, v = diameter_pair(h)
    return d, members[u], members[v]


def _row_inside(g, mask, sources):
    """``bfs_distances`` in the subgraph `mask` induces, written back to an
    n-long row of g's ids; every vertex outside the mask is unreachable."""
    h, members = _induced_on(g, mask)
    local = {v: i for i, v in enumerate(members)}
    dist = [UNREACHABLE] * g.n
    for v, d in zip(members, bfs_distances(h, [local[s] for s in sources])):
        dist[v] = d
    return dist


# ---------------------------------------------------------------------------
# Construction invariants.
# ---------------------------------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(2, 1), (0, 3), (1, 0)])
    for u in range(4):
        assert list(g.neighbors(u)) == sorted(g.neighbors(u))
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_vertexset_ops():
    from copsrobbers.graph import VertexSet

    a = VertexSet.of(8, [5, 1, 3, 5])  # any order, repeats allowed
    assert a == (1, 3, 5) and isinstance(a, tuple)
    assert len(a) == 3 and 3 in a and 2 not in a
    assert VertexSet.of(8, []) == ()
    for n, members, bad in ((4, [4], 4), (4, [0, -1], -1), (8, [2, 9, 3], 9)):
        with pytest.raises(ValueError, match=rf"vertex {bad} outside \[0, {n}\)"):
            VertexSet.of(n, members)
    with pytest.raises(AttributeError):
        a.mask = 0


# ---------------------------------------------------------------------------
# bfs_distances.
# ---------------------------------------------------------------------------

def test_bfs_path_metric():
    g = gen_path(5)
    assert bfs_distances(g, [0]) == [0, 1, 2, 3, 4]


def test_bfs_all_sources_zero():
    g = gen_cycle(6)
    assert bfs_distances(g, range(6)) == [0] * 6


def test_bfs_unreachable_sentinel():
    g = Graph(4, [(0, 1), (2, 3)])
    d = bfs_distances(g, [0])
    assert d == [0, 1, UNREACHABLE, UNREACHABLE]


def test_bfs_empty_sources_rejected():
    with pytest.raises(ValueError):
        bfs_distances(gen_path(3), [])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.sampled_from((0.1, 0.2, 0.4)), st.integers(0, 10**6),
       st.data())
def test_bfs_from_ids_matches_the_vertex_set_of_them(n, p, seed, data):
    # unsorted ids with repeats, as when several cops share a vertex
    g = gen_gnp(n, p, seed)
    ids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    assert bfs_distances(g, ids) == bfs_distances(g, sorted(set(ids)))
    assert bfs_distances(g, tuple(ids)) == masked_bfs_oracle(g, sorted(set(ids)))
    for bad in ([], [-1], [n], [0, n]):
        with pytest.raises(ValueError):
            bfs_distances(g, bad)


# ---------------------------------------------------------------------------
# ball.
# ---------------------------------------------------------------------------

def test_ball_examples(petersen):
    p5 = gen_path(5)
    assert ball(p5, [0], 2) == (0, 1, 2)
    c5 = gen_cycle(5)
    assert ball(c5, [2], 1) == (1, 2, 3)
    assert ball(c5, (4, 0), 1) == (0, 1, 3, 4)
    # Petersen has diameter 2, so radius-2 balls cover everything
    assert ball(petersen, [3], 2) == tuple(range(10))
    assert ball_oracle(petersen, [3], 2) == set(range(10))


def test_ball_zero_radius_and_errors():
    g = gen_path(4)
    assert ball(g, [2], 0) == (2,)
    assert ball(g, (3, 0, 3), 0) == (0, 3)
    for bad in ([], (), [4], [-1], [0, 4], [-1, 3]):
        with pytest.raises(ValueError):
            ball(g, bad, 1)
    for r in (-1, -5):
        with pytest.raises(ValueError):
            ball(g, [0], r)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 5), st.data())
def test_ball_properties(n, r, data):
    g = gen_gnp(n, 0.4, data.draw(st.integers(0, 10**6)))
    # unsorted ids with repeats
    members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    b_r = ball(g, members, r)
    b_r1 = ball(g, members, r + 1)
    assert set(b_r) <= set(b_r1)
    if r >= 1:
        assert ball(g, ball(g, members, 1), r - 1) == b_r
    assert b_r == tuple(sorted(ball_oracle(g, members, r)))


# ---------------------------------------------------------------------------
# shortest_path.
# ---------------------------------------------------------------------------

def test_shortest_path_examples():
    assert shortest_path(gen_path(5), 0, 4) == [0, 1, 2, 3, 4]
    # both arcs of C6 have length 3; lowest-id predecessors pick 0-1-2-3
    assert shortest_path(gen_cycle(6), 0, 3) == [0, 1, 2, 3]
    assert shortest_path(gen_path(5), 2, 2) == [2]


def test_shortest_path_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        shortest_path(g, 0, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.data())
def test_geodesic_prefixes(n, data):
    g = gen_gnp(n, 0.45, data.draw(st.integers(0, 10**6)))
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    dist = bfs_distances(g, [u])
    if dist[v] == UNREACHABLE:
        return
    path = shortest_path(g, u, v)
    assert len(path) - 1 == dist[v]
    for i, w in enumerate(path):
        assert dist[w] == i  # every prefix is itself a geodesic


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.booleans(), st.data())
def test_walk_back_takes_the_step_toward_its_source(n, masked, data):
    # walk_back inlines step_toward's lowest-id descent; the two must agree
    g = gen_gnp(n, 0.35, data.draw(st.integers(0, 10**6)))
    if masked:
        mask = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        g = _induced_on(g, mask)[0]
    sources = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=2))
    dist = bfs_distances(g, sorted(sources))
    for v in range(g.n):
        if dist[v] <= 0:
            assert step_toward(g, dist, v) == v
        else:
            assert walk_back(g, dist, v)[-2] == step_toward(g, dist, v)


# ---------------------------------------------------------------------------
# diameter / girth / min_degree.
# ---------------------------------------------------------------------------

def test_diameter_examples(petersen):
    assert diameter(gen_cycle(6)) == 3
    assert diameter(petersen) == 2 == diameter_oracle(petersen)
    assert diameter(Graph(3, [(0, 1)])) == math.inf
    assert diameter(gen_path(1)) == 0


def test_girth_min_degree(petersen):
    assert girth(petersen) == 5 == girth_oracle(petersen)
    assert min_degree(petersen) == 3
    assert girth(gen_path(6)) == math.inf
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert girth(k4) == 3 and min_degree(k4) == 3
    assert girth(gen_cycle(9)) == 9 == girth_oracle(gen_cycle(9))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.data())
def test_girth_matches_oracle(n, data):
    g = gen_gnp(n, 0.35, data.draw(st.integers(0, 10**6)))
    assert girth(g) == girth_oracle(g)


def test_diameter_pair_examples(petersen):
    assert diameter_pair(gen_cycle(6)) == (3, 0, 3)
    assert diameter_pair(gen_path(5)) == (4, 0, 4)
    assert diameter_pair(gen_path(1)) == (0, 0, 0)
    assert diameter_pair(Graph(4, [(0, 1), (2, 3)])) == (math.inf, 0, 2)
    # inside a mask: C6 minus vertex 5 is the path 0..4
    assert _pair_inside(gen_cycle(6), range(5)) == (4, 0, 4)
    assert _pair_inside(gen_cycle(6), [4]) == (0, 4, 4)
    assert _pair_inside(gen_cycle(6), [1, 4]) == (math.inf, 1, 4)


def test_diameter_pair_matches_oracle_on_all_small_graphs():
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            assert diameter_pair(g) == diameter_pair_oracle(g), g.edges()


def _random_masked_cases(count=80):
    """Fixed-seed G(n, p) graphs, each with a nonempty random vertex mask
    (its ids, ascending)."""
    rng = make_rng(2024, "masked-metrics")
    for i in range(count):
        n = rng.randint(2, 14)
        g = gen_gnp(n, rng.choice((0.2, 0.35, 0.5)), rng.getrandbits(32))
        mask = [v for v in range(n) if rng.random() < 0.7] or [rng.randrange(n)]
        yield g, mask


def test_diameter_pair_matches_oracle_with_and_without_mask():
    for g, mask in _random_masked_cases():
        assert diameter_pair(g) == diameter_pair_oracle(g)
        assert diameter(g) == diameter_pair_oracle(g)[0]
        assert _pair_inside(g, mask) == diameter_pair_oracle(g, mask), (g.edges(), list(mask))


# ---------------------------------------------------------------------------
# The pruned diameter scan against the all-pairs loop it replaced.
# ---------------------------------------------------------------------------

def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _tree_with_chords(n, rng):
    """Random recursive tree plus n // 20 random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 20:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


_FAMILIES = {
    "grid-3x7": lambda rng: gen_grid(3, 7),
    "grid-10x10": lambda rng: gen_grid(10, 10),
    "grid-25x25": lambda rng: gen_grid(25, 25),
    "grid-12x30": lambda rng: gen_grid(12, 30),
    "path-2": lambda rng: gen_path(2),
    "path-17": lambda rng: gen_path(17),
    "path-400": lambda rng: gen_path(400),
    "cycle-80": lambda rng: gen_cycle(80),
    "cycle-450": lambda rng: gen_cycle(450),
    "q4": lambda rng: gen_hypercube(4),
    "q5": lambda rng: gen_hypercube(5),
    "q6": lambda rng: gen_hypercube(6),
    "petersen": lambda rng: gen_petersen(),
    "tree-450": lambda rng: _tree_with_chords(450, rng),
}


def _family_graph(name):
    rng = make_rng(2025, f"diameter:{name}")
    return _relabel(_FAMILIES[name](rng), rng)


@functools.cache
def _recursion_masks(name, threshold=3):
    """(mask, all-pairs diameter pair) for every component the guard-delete
    recursion visits on a family graph: above the threshold, delete the
    geodesic between the diametral pair and recurse into the components of
    what is left."""
    g = _family_graph(name)
    out = []
    stack = [tuple(range(g.n))]
    while stack:
        comp = stack.pop()
        d, u, v = pair = diameter_pair_allpairs(g, comp)
        out.append((comp, pair))
        if d <= threshold:
            continue
        rest = set(comp).difference(walk_back(g, masked_bfs_oracle(g, (u,), comp), v))
        while rest:
            part = component_oracle(g, min(rest), rest)
            stack.append(tuple(sorted(part)))
            rest -= part
    return g, out


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_diameter_pair_matches_allpairs_on_relabelled_families(name):
    g, masks = _recursion_masks(name)
    for mask, pair in masks:
        assert _pair_inside(g, mask) == pair, list(mask)
    # a random mask (usually disconnected) and one of its components
    rng = make_rng(2025, f"mask:{name}")
    mask = [v for v in range(g.n) if rng.random() < 0.8] or [0]
    assert _pair_inside(g, mask) == diameter_pair_allpairs(g, mask)
    part = sorted(component_oracle(g, max(mask), mask))
    assert _pair_inside(g, part) == diameter_pair_allpairs(g, part)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.sampled_from((0.05, 0.1, 0.2, 0.4)), st.data())
def test_diameter_pair_matches_allpairs_on_gnp(n, p, data):
    g = gen_gnp(n, p, data.draw(st.integers(0, 10**6)))
    assert diameter_pair(g) == diameter_pair_allpairs(g)
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    mask = sorted(members)
    assert _pair_inside(g, mask) == diameter_pair_allpairs(g, mask)
    part = sorted(component_oracle(g, min(members), mask))
    assert _pair_inside(g, part) == diameter_pair_allpairs(g, part)


def _relabelled_cycle_pair(n):
    """A relabelled n-cycle and its all-pairs diameter pair.  Every vertex
    has eccentricity n // 2, so the all-pairs loop keeps the pair from
    source 0: (n // 2, 0, the first vertex at that distance)."""
    rng = make_rng(2025, f"diameter:cycle-{n}")
    g = _relabel(gen_cycle(n), rng)
    return g, (n // 2, 0, masked_bfs_oracle(g, (0,)).index(n // 2))


# BFS passes allowed to the scan.  The cycles are 2-connected: the scan
# stops once best reaches n // 2, after the BFS from vertex 0 and the double
# sweep's second pass.
_SCAN_PASSES = {"grid-25x25": 25, "path-400": 25, "cycle-450": 2, "cycle-4000": 2,
                "cycle-4001": 2}
# 2-connectivity DFS runs in the scan: the grid never reaches n // 2, and
# the path's double sweep already finds a distance above n // 2, which
# proves a cut vertex; each cycle needs one.
_SCAN_DFS = {"grid-25x25": 0, "path-400": 0, "cycle-450": 1, "cycle-4000": 1,
             "cycle-4001": 1}


@pytest.mark.parametrize("name", sorted(_SCAN_PASSES))
def test_diameter_pair_prunes_bfs_sources(monkeypatch, name):
    if name in _FAMILIES:
        g = _family_graph(name)
        expected = diameter_pair_allpairs(g)
    else:
        g, expected = _relabelled_cycle_pair(int(name.split("-")[1]))
    passes = []
    bfs = copsrobbers.graph._bfs
    dfs_runs = []
    biconnected = copsrobbers.graph._biconnected

    def counting_bfs(*args):
        passes.append(args)
        return bfs(*args)

    def counting_biconnected(adj):
        dfs_runs.append(len(adj))
        return biconnected(adj)

    monkeypatch.setattr(copsrobbers.graph, "_bfs", counting_bfs)
    monkeypatch.setattr(copsrobbers.graph, "_biconnected", counting_biconnected)
    assert diameter_pair(g) == expected
    # the all-pairs loop takes g.n passes
    assert len(passes) <= _SCAN_PASSES[name]
    assert len(dfs_runs) == _SCAN_DFS[name]


# ---------------------------------------------------------------------------
# The 2-connected cap: Whitney (1932) bounds every distance in a 2-connected
# graph by n // 2, so the scan stops when best first reaches it and
# _biconnected holds.
# ---------------------------------------------------------------------------

def _cycle_edges(ids):
    return [(ids[i - 1], ids[i]) for i in range(len(ids))]


def _path_edges(ids):
    return list(zip(ids, ids[1:]))


def _theta(a, b, c):
    """Three internally disjoint paths of a, b and c edges between vertices
    0 and 1 (at most one of them a single edge)."""
    n, edges = 2, []
    for length in (a, b, c):
        inner = list(range(n, n + length - 1))
        n += length - 1
        edges += _path_edges([0, *inner, 1])
    return n, edges


def _bowtie(a, b):
    """Cycles of a and b vertices sharing vertex 0, its only cut vertex."""
    return a + b - 1, _cycle_edges(range(a)) + _cycle_edges([0, *range(a, a + b - 1)])


def _lollipop(k, tail):
    """K_k with a path of ``tail`` edges hanging from its vertex k - 1."""
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return k + tail, clique + _path_edges(range(k - 1, k + tail))


def _mid_path(n):
    """A path of n vertices whose middle vertex is 0."""
    mid = n // 2
    return n, _path_edges([*range(1, mid + 1), 0, *range(mid + 1, n)])


@st.composite
def _cap_graphs(draw):
    """2-connected graphs whose diameter is n // 2 or close to it, and graphs
    with a cut vertex where a source reaches n // 2 while the diameter is
    larger: the mid-path from vertex 0 itself, and the bowtie with vertex 0,
    the DFS root, as its only cut vertex.  Relabelled at random, keeping
    vertex 0 where it sits for those two."""
    kind = draw(st.sampled_from(("cycle", "cycle+chord", "theta", "mid-path", "lollipop",
                                 "bowtie")))
    if kind == "cycle":
        n = draw(st.integers(3, 60))
        edges = _cycle_edges(range(n))
    elif kind == "cycle+chord":
        n = draw(st.integers(4, 60))
        edges = _cycle_edges(range(n)) + [(0, draw(st.integers(2, n - 2)))]
    elif kind == "theta":
        n, edges = _theta(draw(st.integers(1, 20)), draw(st.integers(2, 20)),
                          draw(st.integers(2, 20)))
    elif kind == "mid-path":
        n, edges = _mid_path(draw(st.integers(3, 60)))
    elif kind == "lollipop":
        n, edges = _lollipop(draw(st.integers(3, 7)), draw(st.integers(1, 30)))
    else:
        n, edges = _bowtie(draw(st.integers(3, 30)), draw(st.integers(3, 30)))
    if kind in ("mid-path", "bowtie"):
        perm = [0, *draw(st.permutations(range(1, n)))]
    else:
        perm = draw(st.permutations(range(n)))
    return kind, Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(_cap_graphs())
def test_diameter_pair_matches_allpairs_around_the_cap(case):
    kind, g = case
    assert diameter_pair(g) == diameter_pair_allpairs(g), (kind, g.edges())
    if kind == "mid-path":
        # the cap is reached at the first source, and D is larger
        assert 2 * max(masked_bfs_oracle(g, (0,))) >= g.n - 1 < 2 * diameter(g)


def test_biconnected_matches_cut_vertex_oracle_on_all_small_graphs():
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            expected = n >= 3 and not cut_vertices_oracle(g)
            assert copsrobbers.graph._biconnected(g._adj) == expected, g.edges()


def _cycle_with_tail():
    """An 8-cycle through 0 and its antipode 1, with a path of 2 edges hanging
    from vertex 2, a neighbour of 0: the double sweep goes 0 -> 1 and sees
    ecc(1) = 5 = n // 2, while D = 6 runs from the tail's end to vertex 5."""
    return 10, _cycle_edges([0, 2, 3, 4, 1, 5, 6, 7]) + _path_edges([2, 8, 9])


def _cap_witnesses():
    """Fresh graphs (nothing kept) on which each mutant of the cap errs: the
    cycle with a tail first reaches n // 2 < D at source 1, with no distance
    above n // 2 known yet; the theta graph is a 10-cycle with an ear of 3
    edges, and ecc(0) = n // 2 - 1 < D = n // 2."""
    return [Graph(*_cycle_with_tail()), Graph(*_theta(1, 3, 7))]


def _mutate(monkeypatch, fn, old, new):
    """Replace the module function fn by a copy of its source with the
    single occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, fn.__globals__, namespace)
    monkeypatch.setattr(copsrobbers.graph, fn.__name__, namespace[fn.__name__])


@pytest.mark.parametrize("mutant", [
    "none", "no-2-connectivity-test", "cap-one-lower", "no-root-children-rule"])
def test_cap_mutants_are_caught(monkeypatch, mutant):
    if mutant == "no-2-connectivity-test":
        monkeypatch.setattr(copsrobbers.graph, "_biconnected", lambda adj: True)
    elif mutant == "cap-one-lower":
        _mutate(monkeypatch, copsrobbers.graph._diameter_scan,
                "2 * ecc >= n - 1", "2 * ecc >= n - 2")
    elif mutant == "no-root-children-rule":
        _mutate(monkeypatch, copsrobbers.graph._biconnected,
                "if root_children > 1:", "if False:")
    wrong = [g.edges() for g in _cap_witnesses()
             if diameter_pair(g) != diameter_pair_allpairs(g)]
    if mutant == "no-root-children-rule":
        # A lone cut vertex at the root leaves no distance above n // 2 that
        # the double sweep misses, so the scan never asks; the DFS errs on
        # the bowtie, whose two 4-cycles share vertex 0.
        assert not wrong
        g = Graph(*_bowtie(4, 4))
        wrong = [g.edges()] if copsrobbers.graph._biconnected(g._adj) else []
    assert bool(wrong) == (mutant != "none"), wrong


def _draw_members(n, shape, data):
    """Ascending members of a full, single-vertex or random nonempty mask."""
    if shape == "full":
        return range(n)
    if shape == "single":
        return [data.draw(st.integers(0, n - 1))]
    return sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.sampled_from((0.08, 0.15, 0.3)), st.integers(0, 10**6),
       st.sampled_from(("random", "single", "full")), st.data())
def test_component_local_kernels_match_whole_graph_rows(n, p, seed, shape, data):
    # diameter_pair and shortest_path run on the subgraph the mask induces;
    # the references seed and scan n-long rows of the whole graph that block
    # the vertices outside the mask.  At these densities most random masks
    # are disconnected.
    g = gen_gnp(n, p, seed)
    mask = _draw_members(n, shape, data)
    assert _pair_inside(g, mask) == diameter_pair_allpairs(g, mask)
    h, members = _induced_on(g, mask)
    for i, u in enumerate(members):
        dist = masked_bfs_oracle(g, [u], mask)
        for j, v in enumerate(members):
            if dist[v] == UNREACHABLE:
                with pytest.raises(NoPathError):
                    shortest_path(h, i, j)
            else:
                assert [members[w] for w in shortest_path(h, i, j)] == walk_back(g, dist, v)


def test_component_local_kernels_cost_follows_the_component():
    # one n-long list of a 100,000-vertex path is about 800 KB; the subgraph
    # a 5-vertex component induces, and its metrics, need a few small lists
    g = gen_path(100_000)
    members = range(50_000, 50_005)
    tracemalloc.start()
    try:
        h = copsrobbers.graph._induced(g, {v: i for i, v in enumerate(members)})
        d, u, v = diameter_pair(h)
        path = [members[w] for w in shortest_path(h, 4, 0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == gen_path(5)
    assert (d, members[u], members[v]) == (4, 50_000, 50_004)
    assert path == [50_004, 50_003, 50_002, 50_001, 50_000]
    assert peak < 64 << 10


def _kept_cases():
    """Fresh graphs, so no other test can have filled their kept diameter:
    connected, disconnected (``inf``) and single-vertex ones."""
    yield gen_cycle(7)
    yield gen_grid(3, 4)
    yield gen_petersen()
    yield gen_path(1)
    yield Graph(4, [(0, 1), (2, 3)])
    yield Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    for seed in range(12):
        yield gen_gnp(14, 0.15, seed)


def test_whole_graph_diameter_is_kept_on_the_graph():
    for g in _kept_cases():
        expected = diameter_pair_allpairs(g)
        assert "diameter" not in g._kept
        first = diameter_pair(g)
        assert first == expected and g._kept["diameter"] == expected, g.edges()
        assert diameter_pair(g) is first
        assert diameter(g) == expected[0]


def test_sub_mask_neither_reads_nor_writes_the_kept_diameter(diameter_scans):
    # the subgraph a mask induces keeps its own diameter, not g's
    g = gen_cycle(8)
    sub = range(6)
    h = _induced(g, {v: v for v in sub})
    assert diameter_pair(h) == (5, 0, 5)
    assert "diameter" not in g._kept
    bogus = (99, 1, 2)
    g._kept["diameter"] = bogus
    h = _induced(g, {v: v for v in sub})
    assert diameter_pair(h) == diameter_pair_allpairs(g, sub)
    assert g._kept["diameter"] is bogus
    copy = _induced(g, {v: v for v in range(8)})
    assert copy == g and "diameter" not in copy._kept
    assert diameter_scans == [6, 6]


def test_kept_diameter_leaves_equality_hash_and_solver_cache():
    # an equal but distinct graph keeps its own values and its own tables
    g = gen_cycle(9)
    copy = Graph(g.n, g.edges())
    assert is_k_copwin(copy, 2)
    diameter_pair(g)
    assert "diameter" in g._kept and "diameter" not in copy._kept
    assert g == copy and hash(g) == hash(copy)
    kept = _tables(copy, 2, DEFAULT_STATE_BUDGET)
    assert is_k_copwin(g, 2)
    own = _tables(g, 2, DEFAULT_STATE_BUDGET)
    assert own is not kept and own == kept
    assert _tables(copy, 2, DEFAULT_STATE_BUDGET) is kept
    assert g == copy and hash(g) == hash(copy)


def test_kept_diameter_keeps_the_graph_immutable():
    g = gen_path(4)
    diameter_pair(g)
    for name, value in (("n", 3), ("_adj", ()), ("_kept", {}), ("label", "x")):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g._kept["diameter"] == (3, 0, 3)


@pytest.mark.parametrize("g", [gen_path(1), gen_cycle(9), gen_petersen(), gen_grid(3, 4),
                               gen_gnp(12, 0.3, seed=4)],
                         ids=["p1", "c9", "petersen", "grid-3x4", "gnp12"])
def test_kept_closed_neighborhoods_are_sorted_closed_neighborhoods(g):
    copy = Graph(g.n, g.edges())
    table = g.closed_neighborhoods()
    assert table == tuple(tuple(sorted((v, *g.neighbors(v)))) for v in range(g.n))
    assert g.closed_neighborhoods() is table
    assert g._kept["closed"] is table and "closed" not in copy._kept
    assert g == copy and hash(g) == hash(copy)


def test_kept_closed_neighborhoods_leave_equality_hash_solver_cache_and_immutability():
    g = gen_cycle(9)
    copy = Graph(g.n, g.edges())
    table = g.closed_neighborhoods()
    assert is_k_copwin(g, 2)
    kept = _tables(g, 2, DEFAULT_STATE_BUDGET)
    assert is_k_copwin(copy, 2)
    assert _tables(copy, 2, DEFAULT_STATE_BUDGET) is not kept
    assert _tables(g, 2, DEFAULT_STATE_BUDGET) is kept
    assert g == copy and hash(g) == hash(copy)
    with pytest.raises(AttributeError):
        g._kept = {}
    assert g.closed_neighborhoods() is table


def _row_corpus():
    """Fresh graphs from fixed seeds: the kept-value cases (connected,
    disconnected, single-vertex), random connected graphs, a grid and Q4."""
    yield from _kept_cases()
    for seed in range(6):
        yield random_connected(15, seed=seed)
    yield gen_grid(6, 7)
    yield gen_hypercube(4)


def test_every_kept_row_is_the_fresh_bfs_row():
    for g in _row_corpus():
        rows = [g._row(v) for v in range(g.n)]
        assert sorted(g._rows) == list(range(g.n))
        for v, row in enumerate(rows):
            assert row == bfs_distances(g, (v,)) == masked_bfs_oracle(g, (v,)), (g.edges(), v)
            assert g._row(v) is row and g._rows[v] is row  # kept, handed out uncopied


def test_kept_rows_refuse_sources_off_the_graph_and_leave_equality_and_immutability():
    g = gen_path(5)
    copy = Graph(g.n, g.edges())
    assert g._row(4) == [4, 3, 2, 1, 0]
    # -1 and -5 would index a list; a miss checks the range first
    for v in (-1, -5, 5, 99):
        with pytest.raises(ValueError, match=r"^source vertex outside \[0, 5\)$"):
            g._row(v)
    assert list(g._rows) == [4] and not copy._rows
    assert g == copy and hash(g) == hash(copy)
    with pytest.raises(AttributeError):
        g._rows = {}


def test_diameter_scan_rows_serve_the_geodesic_and_connectivity(monkeypatch):
    # the scan reads the graph's kept rows, so the geodesic between its pair
    # walks back over row u and the connectivity bit reads row 0: neither
    # runs a BFS of its own
    passes = []
    bfs = copsrobbers.graph._bfs

    def counting_bfs(adj, dist, sources):
        passes.append(tuple(sources))
        return bfs(adj, dist, sources)

    monkeypatch.setattr(copsrobbers.graph, "_bfs", counting_bfs)
    for g in _row_corpus():
        kept = set(g._rows)  # a random connected graph's generator read row 0
        passes.clear()
        d, u, v = diameter_pair(g)
        if d == math.inf:
            continue
        want = walk_back(g, masked_bfs_oracle(g, (u,)), v)
        scan = list(passes)
        passes.clear()
        assert shortest_path(g, u, v) == want and is_connected(g)
        assert passes == [], (g.edges(), scan)
        assert set(g._rows) == kept | {s for (s,) in scan}


def test_delete_vertices_matches_full_scan():
    # the survivor-only subgraph, against the scan over every vertex and edge
    cases = list(_random_masked_cases())
    for name in ("grid-12x30", "tree-450"):
        g, masks = _recursion_masks(name)
        cases += [(g, mask) for mask, (d, _, _) in masks if d <= 3]
    for g, mask in cases:
        for keep in (mask, sorted(_outside(g, mask))):
            if keep:
                pos = {v: i for i, v in enumerate(keep)}
                assert (_induced(g, pos), pos) == delete_vertices_oracle(g, _outside(g, keep))


def test_masked_metrics_match_relabelled_subgraph():
    for g, mask in _random_masked_cases():
        h, members = _induced_on(g, mask)
        part_of = {i: part for part, _ in _components(h, ()) for i in part}
        for i, s in enumerate(members):
            dist = masked_bfs_oracle(g, [s], mask)
            assert _row_inside(g, mask, [s]) == dist
            assert {members[x] for x in part_of[i]} == component_oracle(g, s, mask)
            for j, t in enumerate(members):
                if dist[t] == UNREACHABLE:
                    with pytest.raises(NoPathError):
                        shortest_path(h, i, j)
                else:
                    assert [members[x] for x in shortest_path(h, i, j)] == walk_back(g, dist, t)
        two = members[:2]
        assert _row_inside(g, mask, two) == masked_bfs_oracle(g, two, mask)


def test_components_match_oracles():
    # the recursion's split: the components of g minus a vertex list, by
    # lowest vertex, each with the subgraph it induces
    cases = list(_random_masked_cases())
    for name in ("grid-12x30", "tree-450"):
        g, masks = _recursion_masks(name)
        cases += [(g, mask) for mask, _ in masks]
    for g, mask in cases:
        removed = sorted(_outside(g, mask))
        rest = set(mask)
        expected = []
        while rest:
            part = component_oracle(g, min(rest), mask)
            expected.append((sorted(part), delete_vertices_oracle(g, _outside(g, part))[0]))
            rest -= part
        assert _components(g, removed) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.sampled_from((0.08, 0.15, 0.3)), st.integers(0, 10**6),
       st.sampled_from(("random", "single", "full")), st.data())
def test_masked_bfs_matches_blocking_row_oracle(n, p, seed, shape, data):
    g = gen_gnp(n, p, seed)
    mask = _draw_members(n, shape, data)
    sources = sorted(data.draw(st.sets(st.sampled_from(mask), min_size=1, max_size=3)))
    assert _row_inside(g, mask, sources) == masked_bfs_oracle(g, sources, mask)
    assert bfs_distances(g, sources) == masked_bfs_oracle(g, sources)


# ---------------------------------------------------------------------------
# Components of what deleted vertices leave (graph._components).
# ---------------------------------------------------------------------------

def test_delete_path_vertex():
    (left, h1), (right, h2) = _components(gen_path(5), [2])
    assert (left, right) == ([0, 1], [3, 4])
    assert h1 == h2 == gen_path(2)


def test_delete_nothing_is_identity():
    g0 = gen_cycle(5)
    [(part, g)] = _components(g0, ())
    assert part == list(range(5)) and g == g0


def test_delete_geodesic_from_cycle():
    assert _components(gen_cycle(6), [0, 1, 2, 3]) == [([4, 5], Graph(2, [(0, 1)]))]


def test_delete_everything_rejected():
    # no component is left, and no graph has zero vertices
    assert _components(gen_path(3), range(3)) == []
    with pytest.raises(ValueError):
        delete_vertices_oracle(gen_path(3), range(3))
    with pytest.raises(ValueError):
        Graph(0, [])


def test_component_examples():
    g = gen_cycle(7)
    assert [part for part, _ in _components(g, ())] == [list(range(7))]
    assert [part for part, _ in _components(gen_path(5), [2])] == [[0, 1], [3, 4]]
    iso = Graph(3, [(0, 1)])
    assert [part for part, _ in _components(iso, ())] == [[0, 1], [2]]
    assert component_oracle(iso, 2) == {2}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.data())
def test_delete_components_partition(n, data):
    g = gen_gnp(n, 0.4, data.draw(st.integers(0, 10**6)))
    drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    parts = _components(g, drop)
    # the parts partition what is left, in the order of their lowest vertex
    assert sorted(v for part, _ in parts for v in part) == sorted(_outside(g, drop))
    assert [part[0] for part, _ in parts] == sorted(part[0] for part, _ in parts)
    for part, h in parts:
        assert h.n == len(part) and is_connected(h)
        # |ball(v, diameter)| equals the component size
        for v in range(h.n):
            assert len(ball(h, [v], int(diameter(h)))) == h.n


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.sampled_from((0.05, 0.1, 0.2, 0.4)), st.data())
def test_component_of_and_is_connected_match_oracle(n, p, data):
    g = gen_gnp(n, p, data.draw(st.integers(0, 10**6)))
    assert is_connected(g) == (len(component_oracle(g, 0)) == g.n)
    v = data.draw(st.integers(0, n - 1))
    assert [set(part) for part, _ in _components(g, ()) if v in part] == [component_oracle(g, v)]
    mask = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    for part, _ in _components(g, _outside(g, mask)):
        for w in part:
            assert set(part) == component_oracle(g, w, mask)


# ---------------------------------------------------------------------------
# Edge-list format and DOT.
# ---------------------------------------------------------------------------

def test_edge_list_roundtrip(petersen):
    text = format_edge_list(petersen)
    assert parse_edge_list(text) == petersen
    assert text.splitlines()[0] == "10 15"


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# a comment\n3 2\n0 1\n# another\n1 2\n")
    assert g.n == 3 and g.edge_count == 2
    with pytest.raises(ParseError) as exc:
        parse_edge_list("3 1\n1 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError) as exc:
        parse_edge_list("3 1\nx y\n")
    assert exc.value.line == 2


def test_edge_list_header_above_cap_rejected_before_allocating():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("1000000000 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list(f"{MAX_PARSE_VERTICES + 1} 0\n")


def test_edge_list_header_is_capped_by_input_length():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("1048576 0\n")
    assert exc.value.line == 1
    sparse = gen_gnp(30, 0.02, derive_seed(0, "gnp"))  # `gen gnp 30 --p 0.02`
    assert min_degree(sparse) == 0
    assert parse_edge_list(format_edge_list(sparse)).edges() == sparse.edges()
    path = gen_path(70_000)
    text = format_edge_list(path)
    # a graph and its metric calls cost memory linear in n + m, not n^2/8 bytes
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        assert is_connected(g)
        assert ball(g, [35_000], 2) == tuple(range(34_998, 35_003))
        assert ball(g, [0], g.n) == tuple(range(g.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges() == path.edges()
    assert peak < 64 << 20


def test_dot_and_hash():
    g = gen_cycle(3)
    dot = to_dot(g)
    assert "0 -- 1;" in dot and dot.startswith("graph g {")
    assert graph_hash(g) == graph_hash(gen_cycle(3))
    assert graph_hash(g) != graph_hash(gen_path(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.sampled_from((0.1, 0.3, 0.6)), st.integers(0, 10**6))
def test_edges_come_sorted_and_distinct(n, p, seed):
    # the edge-list text, the DOT output and graph_hash list g.edges() as is
    g = gen_gnp(n, p, seed)
    for h in (g, _relabel(g, make_rng(seed, "edges"))):
        assert h.edges() == sorted(set(h.edges()))
