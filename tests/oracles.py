"""Independent brute-force oracles used to freeze expected test values.

Each oracle deliberately uses a different algorithm than the library code it
checks: distances via Floyd-Warshall instead of BFS, girth via per-edge
removal, Hall's condition and "largest non-expanding subset" by subset
enumeration, maximum matching size by plain augmenting paths instead of
Hopcroft-Karp.  ``diameter_pair_allpairs`` and ``delete_vertices_oracle`` keep
the plain loops that the library's pruned diameter scan and survivor-only
vertex deletion replaced.  ``masked_bfs_oracle`` measures inside a vertex
mask on an n-long row that blocks every vertex outside it, with its own
deque BFS, against the library's metrics on the subgraph the mask induces.
``cut_vertices_oracle`` removes each vertex in turn and searches what is
left, against the library's lowpoint DFS for 2-connectivity.
``greedy_far_oracle`` is the greedy robber's choice from a fresh field on
every call, against the robber that reads the cops' distances from kept
BFS rows of its own options.
``verify_claim_allsubsets`` is the hitting-claim check over 2^n union-ball
tables that the library's small-subset walk replaced.  ``component_oracle`` is a BFS over Python sets, checked against
the library's component split.  ``replay_final_state`` replays a transcript
through a cop strategy to recover the state the engine records as
``Transcript.final_state`` during the game.  ``robber_minimax_line`` is the
exhaustive robber adversary as a plain memoized recursion over robber lines,
against the library's expansion over distinct nodes and line-length label.
``solver_reference_move`` is ``SolverCop``'s move by enumerating every joint
move and narrowing the list plane by plane, against the library's joint-move
mask and digit search.  ``some_neighbor_reference`` is the solver's
existential pass along one cop digit as the per-vertex loop over the whole
table, against the library's chunked diagonal passes.
``boundary_bisection_oracle`` bisects for the trivial-region boundary on
interval signs alone, against the library's bisection that screens
midpoints in float.  ``invisible_mode_oracle`` builds the guess-and-sweep
tracks by stepping ``track_at`` over each phase's rounds, against the
library's slices of the plan routes.
``per_layer_expansion`` lists every node of every layer, repeats included,
and calls a team's ``move`` at each, against ``expand_game_layers``, which
numbers and expands each distinct node once, at its first layer.  ``eager_meyniel`` is the
recursion analysis built whole, every guard and leaf team up front, on
these oracles over vertex masks of the whole graph: the all-pairs diameter
loop, ``walk_back`` geodesics over masked rows, ``component_oracle`` splits,
``delete_vertices_oracle`` subgraphs, the guard's own approach field for the
settle window and the march routes' lengths for the march window, against
the library's induced subgraph per node and cop objects built on first
use.
"""

import functools
import itertools
import math
from collections import deque

import mpmath

from copsrobbers.bounds import BoundaryBracket, trivial_margin_log
from copsrobbers.engine import GameConfig, GreedyFarRobber, View, play
from copsrobbers.errors import ResourceLimitError
from copsrobbers.expander import (
    InvisibleResult,
    PlanFailure,
    ScriptedCop,
    _family_roster,
    _plan_scripts,
    build_plan,
    resample_family,
    start_scripts,
    track_at,
)
from copsrobbers.graph import UNREACHABLE, Graph, ball, walk_back
from copsrobbers.guard import GuardCop
from copsrobbers.seeds import make_rng
from copsrobbers.solver import _bit

INF = math.inf


def fw_distances(g):
    """All-pairs distances by Floyd-Warshall."""
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    return _floyd_warshall(dist)


def _floyd_warshall(dist):
    n = len(dist)
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def diameter_oracle(g):
    dist = fw_distances(g)
    return max(d for row in dist for d in row)


def diameter_pair_oracle(g, within=None):
    """(d, u, v): the diameter of the subgraph induced by `within` (all of g
    by default) and its lexicographically first pair u < v, by Floyd-Warshall
    over the members.  A disconnected set gives (inf, u, v) for its first
    disconnected pair; a single vertex gives (0, v, v)."""
    members = list(range(g.n)) if within is None else sorted(within)
    pos = {v: i for i, v in enumerate(members)}
    m = len(members)
    dist = [[0 if i == j else INF for j in range(m)] for i in range(m)]
    for u, v in g.edges():
        if u in pos and v in pos:
            dist[pos[u]][pos[v]] = dist[pos[v]][pos[u]] = 1
    _floyd_warshall(dist)
    best = (0, members[0], members[0])
    for i, j in itertools.combinations(range(m), 2):
        if dist[i][j] == INF:
            return INF, members[i], members[j]
        if dist[i][j] > best[0]:
            best = (dist[i][j], members[i], members[j])
    return best


def masked_bfs_oracle(g, sources, within=None):
    """BFS hop distances from ``sources`` inside the subgraph induced by
    ``within`` (all of g by default), on an n-long row of g's ids: every
    vertex outside ``within`` is seeded with a blocking marker that the BFS
    never overwrites, and turned back into ``UNREACHABLE`` afterwards."""
    outside = -2
    if within is None:
        dist = [UNREACHABLE] * g.n
    else:
        dist = [outside] * g.n
        for v in within:
            dist[v] = UNREACHABLE
    queue = deque(sources)
    for s in queue:
        dist[s] = 0
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [UNREACHABLE if d == outside else d for d in dist]


def greedy_far_oracle(g, cop_positions, candidates):
    """The greedy robber's choice with nothing kept: a fresh
    ``masked_bfs_oracle`` field from the cops, and the first candidate at the
    largest distance, an unreachable one counting as infinitely far."""
    dist = masked_bfs_oracle(g, cop_positions)
    best, far = None, -1
    for v in candidates:
        d = math.inf if dist[v] == UNREACHABLE else dist[v]
        if d > far:
            best, far = v, d
    return best


def diameter_pair_allpairs(g, within=None):
    """The all-pairs loop that the pruned ``diameter_pair`` replaced: one BFS
    per member, ascending, raising the best pair only on a strictly larger
    eccentricity.  Unlike Floyd-Warshall it stays fast up to several hundred
    vertices."""
    members = range(g.n) if within is None else list(within)
    if not members:
        raise ValueError("vertex mask must be nonempty")
    best = (0, members[0], members[0])
    for u in members:
        dist = masked_bfs_oracle(g, (u,), within)
        row = [dist[v] for v in members]
        if UNREACHABLE in row:
            return math.inf, u, members[row.index(UNREACHABLE)]
        ecc = max(row)
        if ecc > best[0]:
            best = (ecc, u, members[row.index(ecc)])
    return best


def delete_vertices_oracle(g, s):
    """Induced subgraph on V - s, s any collection of vertex ids, by a scan
    over every vertex and every edge; returns the compact graph and the
    old->new map."""
    s = set(s)
    survivors = [v for v in range(g.n) if v not in s]
    if not survivors:
        raise ValueError("cannot delete every vertex")
    idmap = {old: new for new, old in enumerate(survivors)}
    edges = [
        (idmap[u], idmap[v])
        for u, v in g.edges()
        if u in idmap and v in idmap
    ]
    return Graph(len(survivors), edges), idmap


def ball_oracle(g, center, r):
    dist = fw_distances(g)
    out = set()
    for v in range(g.n):
        if any(dist[c][v] <= r for c in center):
            out.add(v)
    return out


def component_oracle(g, v, within=None):
    """Vertices reachable from v inside ``within`` (all of g by default)."""
    allowed = set(range(g.n)) if within is None else set(within)
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def cut_vertices_oracle(g):
    """The vertices whose removal leaves the other vertices in more than one
    component, by one ``component_oracle`` search per removed vertex."""
    cuts = set()
    for x in range(g.n):
        rest = [v for v in range(g.n) if v != x]
        if rest and len(component_oracle(g, rest[0], rest)) < len(rest):
            cuts.add(x)
    return cuts


def girth_oracle(g):
    """Shortest cycle via edge removal: cycle through edge (u,v) has length
    1 + d_{G-uv}(u, v)."""
    best = INF
    edges = g.edges()
    for u, v in edges:
        rest = [e for e in edges if e != (u, v)]
        h = type(g)(g.n, rest)
        d = _bfs_len(h, u, v)
        if d is not None:
            best = min(best, d + 1)
    return best


def _bfs_len(g, s, t):
    from collections import deque

    dist = {s: 0}
    q = deque([s])
    while q:
        x = q.popleft()
        if x == t:
            return dist[x]
        for y in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return None


def hall_condition_holds(shell, adjacency):
    """Exhaustive Hall check: every X subset of `shell` needs |N(X)| >= |X|."""
    shell = list(shell)
    for size in range(1, len(shell) + 1):
        for xs in itertools.combinations(shell, size):
            nbrs = set()
            for u in xs:
                nbrs.update(adjacency[u])
            if len(nbrs) < size:
                return False
    return True


def matching_size(left, adjacency):
    """Size of a maximum bipartite matching, by one plain augmenting-path
    search per left vertex (no BFS layering)."""
    owner = {}  # right vertex -> its matched left vertex

    def augment(u, seen):
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                if w not in owner or augment(owner[w], seen):
                    owner[w] = u
                    return True
        return False

    return sum(augment(u, set()) for u in left)


def largest_nonexpanding_subset(g, candidate, radius, lam):
    """Largest A inside `candidate` with |B(A, radius)| < lam * |A|.

    Exhaustive over subsets; ties broken toward the lexicographically first
    subset of maximum size.  Returns a (possibly empty) frozenset.
    """
    dist = fw_distances(g)
    cand = sorted(candidate)
    best = frozenset()
    for size in range(1, len(cand) + 1):
        for sub in itertools.combinations(cand, size):
            ball_size = sum(
                1 for v in range(g.n) if any(dist[a][v] <= radius for a in sub)
            )
            if ball_size < lam * len(sub) and size > len(best):
                best = frozenset(sub)
                break
    return best


def verify_claim_allsubsets(g, family, params, budget=1 << 20):
    """Brute-force over all vertex subsets A with |A| <= n/lam.

    True iff for every such A, every radius 2^i (i <= levels) at which the
    ball B(A, 2^i) has at least lam*|A| vertices, and every sampled set C_j:
    |B(A, 2^i) intersect C_j| >= |A|.
    """
    n = g.n
    if (1 << n) > budget:
        raise ResourceLimitError(f"2^{n} subsets exceed the budget of {budget}")
    radii = [1 << i for i in range(params.levels + 1)]
    # union_ball[ri][mask] built by peeling the lowest bit; O(2^n) per radius
    union_balls = []
    for r in radii:
        per_vertex = [sum(1 << u for u in ball(g, (v,), r)) for v in range(n)]
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | per_vertex[low.bit_length() - 1]
        union_balls.append(table)
    set_masks = [sum(1 << w for w in s) for s in family.sets]
    amax = n / params.lam
    for mask in range(1, 1 << n):
        a = mask.bit_count()
        if a > amax:
            continue
        for table in union_balls:
            bmask = table[mask]
            if bmask.bit_count() >= params.lam * a:
                for smask in set_masks:
                    if (bmask & smask).bit_count() < a:
                        return False
    return True


def two_colorable(g):
    color = [None] * g.n
    for s in range(g.n):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if color[y] is None:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Multiset retrograde solver: the reference for copsrobbers.solver.
#
# States are (sorted cop multiset, robber vertex, side to move); each
# multiset's successors are enumerated with itertools.product and its win
# labels are bitmasks over robber vertices.  The fixpoint is the same Jacobi
# iteration as the library's (every sweep reads only the previous labels), so
# labels, first-won sweeps and the sweep count must agree exactly.
# ---------------------------------------------------------------------------


class MultisetTables:
    def __init__(self, msets, index, succ, win_cop, win_rob, rob_level, sweeps):
        self.msets = msets
        self.index = index
        self.succ = succ              # per multiset: successor multiset indices
        self.win_cop = win_cop        # per multiset: bitmask over robber vertices
        self.win_rob = win_rob
        self.rob_level = rob_level    # per multiset: first-won sweep per robber (-1 never)
        self.sweeps = sweeps


def multiset_solve(g, k):
    n = g.n
    msets = tuple(itertools.combinations_with_replacement(range(n), k))
    index = {ms: i for i, ms in enumerate(msets)}
    m_count = len(msets)

    options = [tuple(sorted((c,) + g.neighbors(c))) for c in range(n)]
    succ = []
    for ms in msets:
        outs = {tuple(sorted(p)) for p in itertools.product(*(options[c] for c in ms))}
        succ.append(tuple(sorted(index[t] for t in outs)))

    full = (1 << n) - 1
    capture = []
    for ms in msets:
        mask = 0
        for c in ms:
            mask |= 1 << c
        capture.append(mask)
    closed = []
    for r in range(n):
        mask = 1 << r
        for w in g.neighbors(r):
            mask |= 1 << w
        closed.append(mask)

    win_cop = list(capture)
    win_rob = list(capture)
    rob_level = [[0 if (capture[ci] >> r) & 1 else -1 for r in range(n)]
                 for ci in range(m_count)]
    sweep = 0
    while True:
        sweep += 1
        changed = False
        new_rob = []
        for ci in range(m_count):
            cur = win_rob[ci]
            add = 0
            for r in range(n):
                if not (cur >> r) & 1 and closed[r] & ~win_cop[ci] == 0:
                    add |= 1 << r
                    rob_level[ci][r] = sweep
            changed |= add != 0
            new_rob.append(cur | add)
        new_cop = []
        for ci in range(m_count):
            acc = win_cop[ci]
            for cj in succ[ci]:
                acc |= win_rob[cj]
            changed |= acc != win_cop[ci]
            new_cop.append(acc)
        win_rob, win_cop = new_rob, new_cop
        if not changed:
            break
    return MultisetTables(msets, index, tuple(succ), tuple(win_cop), tuple(win_rob),
                          tuple(tuple(lv) for lv in rob_level), sweep)


def multiset_placement(g, k):
    """Lex-smallest winning multiset, or None."""
    t = multiset_solve(g, k)
    full = (1 << g.n) - 1
    for ci, w in enumerate(t.win_cop):
        if w == full:
            return t.msets[ci]
    return None


class MultisetSolverCop:
    """The cop strategy read from the multiset tables.

    It plays the successor multiset minimizing (first-won sweep, multiset),
    realised by the lexicographically smallest ordered per-cop assignment.
    """

    name = "solver-optimal"

    def __init__(self, g, k):
        self._tables = multiset_solve(g, k)
        self._k = k
        self._placement = multiset_placement(g, k)
        if self._placement is None:
            raise ValueError(f"{k} cops do not win on this graph")

    def place(self, g, cfg):
        return self._placement

    def move(self, g, view, state):
        r = view.robber_position
        t = self._tables
        ci = t.index[tuple(sorted(view.cop_positions))]
        if (t.win_cop[ci] >> r) & 1 == 0:
            return view.cop_positions, state
        best_key = None
        for cj in t.succ[ci]:
            if (t.win_rob[cj] >> r) & 1:
                key = (t.rob_level[cj][r], t.msets[cj])
                if best_key is None or key < best_key:
                    best_key = key
        return _realize(g, view.cop_positions, best_key[1]), state


def some_neighbor_reference(table, closed, stride, width):
    """Bit (.., c, ..) of the result is set iff some x in N[c] has bit
    (.., x, ..) set in the `width`-bit `table`, along the base-n digit of
    weight `stride`: slab x (digit = x, moved to digit 0) is ORed into digit
    c for every c in N[x]."""
    n = len(closed)
    period = n * stride
    # the bits whose digit is 0: a stride-wide field times the repunit of the period
    zero = ((1 << stride) - 1) * (((1 << width) - 1) // ((1 << period) - 1))
    out = 0
    for x, nbhd in enumerate(closed):
        slab = (table >> (x * stride)) & zero
        for c in nbhd:
            out |= slab << (c * stride)
    return out


def solver_reference_move(g, tables, cops, r):
    """The joint move with the least (first-won sweep, sorted target, ordered
    target) from a winning cops-to-move state, else ``cops``: every joint move
    is listed and the list is narrowed plane by plane, keeping it nonempty."""
    if not _bit(tables.win_cop, tables.state(cops, r)):
        return cops
    tied = [(tables.state(m, r), m)
            for m in itertools.product(*((c,) + g.neighbors(c) for c in cops))]
    for plane in tables.planes:
        zeros = [(b, m) for b, m in tied if not _bit(plane, b)]
        if zeros:
            tied = zeros
    return min((m for b, m in tied), key=lambda m: (sorted(m), m))


def _realize(g, current, target_ms):
    """Lexicographically smallest ordered per-cop moves from `current` onto
    the target multiset, by backtracking."""
    k = len(current)
    remaining = list(target_ms)
    out = [None] * k

    def bt(i):
        if i == k:
            return True
        tried = set()
        for idx, tgt in enumerate(remaining):
            if tgt is None or tgt in tried:
                continue
            tried.add(tgt)
            if tgt == current[i] or tgt in g.neighbors(current[i]):
                out[i] = tgt
                remaining[idx] = None
                if bt(i + 1):
                    return True
                remaining[idx] = tgt
        return False

    if not bt(0):
        raise RuntimeError("unrealizable successor multiset")
    return tuple(out)


def replay_final_state(g, strategy, transcript):
    """The cop strategy's state after the last recorded round, by replaying
    every round of the transcript through ``strategy.move`` (the robber is
    visible in every view)."""
    state = None
    cop_pos = transcript.cop_placement
    r_pos = transcript.robber_placement
    for idx, (moves, r_move) in enumerate(transcript.rounds):
        view = View(cop_positions=cop_pos, robber_position=r_pos)
        _, state = strategy.move(g, view, state)
        cop_pos = moves
        if r_move is not None:
            r_pos = r_move
    return state


def robber_minimax_line(g, cops, cfg, depth):
    """The robber's best line against a deterministic cop team, by recursion.

    ``best(k, node)`` is the capture round under the robber's best play from
    a live node (cop positions, robber position, cop state) after round k, or
    inf if the robber lasts to round ``depth``, with the first best move in
    ascending order; it is memoized per (round, node).  The robber places on
    the first vertex of best value, a vertex under a cop counting 0.
    Returns (value, robber placement, rounds as a transcript records them).
    """

    @functools.cache
    def best(k, node):
        if k == depth:
            return INF, None
        cop_pos, r, state = node
        moves, state = cops.move(g, View(cop_pos, r), state)
        moves = tuple(moves)
        if r in moves:
            return k + 1, None
        value, move = -1, None
        for m in sorted({r, *g.neighbors(r)}):
            v = k + 1 if m in moves else best(k + 1, (moves, m, state))[0]
            if v > value:
                value, move = v, m
        return value, move

    placement = tuple(cops.place(g, cfg))
    starts = [0 if r in placement else best(0, (placement, r, None))[0] for r in range(g.n)]
    value = max(starts)
    r0 = starts.index(value)
    rounds, node = [], (placement, r0, None)
    while r0 not in placement and len(rounds) < depth:
        k = len(rounds)
        cop_pos, r, state = node
        moves, state = cops.move(g, View(cop_pos, r), state)
        move = best(k, node)[1]
        rounds.append((tuple(moves), move))
        if move is None or move in moves:
            break
        node = (tuple(moves), move, state)
    return value, r0, tuple(rounds)


def per_layer_expansion(g, cops, cfg, depth):
    """The exhaustive expansion layer by layer, with no record shared: each
    layer lists the nodes alive after its round, a node that several layers
    hold in each of them, and ``move`` is called at every node of every
    layer.  Returns (placement, None, layers), each
    record as (moves, state after the move, captured on the cop half-move,
    children), children mapping each robber move, ascending, to "caught" or
    to the next node."""
    placement = tuple(cops.place(g, cfg))
    layers = [{(placement, r, None): None for r in range(g.n) if r not in placement}]
    for _ in range(depth):
        layer, nxt = layers[-1], {}
        for node in layer:
            cop_pos, r, state = node
            view = View(cop_pos, r if cfg.robber_visible else None)
            moves, state = cops.move(g, view, state)
            moves = tuple(moves)
            children = {}
            if r not in moves:
                for m in sorted({r, *g.neighbors(r)}):
                    children[m] = "caught" if m in moves else (moves, m, state)
                    if m not in moves:
                        nxt[children[m]] = None
            layer[node] = (moves, state, r in moves, children)
        layers.append(nxt)
    return placement, None, layers


def eager_meyniel(g, threshold, params, seed):
    """The recursion analysis with every cop object built up front.

    Returns (nodes, pool size, timeline bound).  Each node is a dict with the
    library node's id, depth, kind, entry, duration and parent id, its
    ``vertices`` (the component's ids, ascending, as the library node lists
    them in ``members``), its children's ids, the ids of the guard nodes
    deployed there (root first), and either its ``guard`` or its leaf fields:
    ``broken``, ``resamples``, ``family_set_sizes``, ``deadlines``, ``team``
    and ``march_routes``.
    """
    v0 = 0
    dist_v0 = masked_bfs_oracle(g, (v0,))
    nodes = []

    def build(comp, depth, entry, label, guards):
        node = {"node_id": len(nodes), "depth": depth, "vertices": comp, "entry": entry,
                "parent": guards[-1] if guards else None, "children": (), "guards": guards}
        nodes.append(node)
        d, u, v = diameter_pair_allpairs(g, comp)
        sub, idmap = delete_vertices_oracle(g, set(range(g.n)) - set(comp))
        rmap = sorted(comp)
        if d > threshold:
            path = walk_back(g, masked_bfs_oracle(g, (u,), comp), v)
            shadow = masked_bfs_oracle(g, (path[0],), comp)
            guard = GuardCop(g, path, component=([shadow[w] for w in rmap], rmap))
            node.update(kind="guard", guard=guard, guards=guards + (node["node_id"],),
                        duration=max(1, guard.approach[v0] + guard.length))
            rest = set(comp) - set(path)
            children = []
            while rest:
                part = component_oracle(g, min(rest), rest)
                children.append(build(tuple(sorted(part)), depth + 1, entry + node["duration"],
                                      f"{label}.{len(children)}", node["guards"])["node_id"])
                rest -= part
            node["children"] = tuple(children)
            return node
        family, plans, attempts = resample_family(sub, params, seed, f"{label}:fam")
        node.update(kind="leaf", broken=family is None, resamples=attempts, duration=0,
                    family_set_sizes=(), deadlines=None, team=None, march_routes=())
        if family is None:
            return node
        homes, scripts = start_scripts(family, plans)
        team = ScriptedCop("meyniel-leaf", tuple(rmap[w] for w in homes),
                           {rmap[s]: tuple(tuple(rmap[p] for p in t) for t in tracks)
                            for s, tracks in scripts.items()})
        routes = tuple(tuple(walk_back(g, dist_v0, h)) for h in team.homes)
        node.update(family_set_sizes=tuple(len(c) for c in family.sets),
                    deadlines={rmap[s]: p.capture_deadline for s, p in plans.items()},
                    team=team, march_routes=routes,
                    duration=0 if depth == 0 else max((len(r) - 1 for r in routes), default=0))
        return node

    build(tuple(range(g.n)), 0, 0, "r", ())
    need = [n["depth"] + (sum(n["family_set_sizes"]) if n["kind"] == "leaf" else 1)
            for n in nodes]
    bound = 1
    for n in nodes:
        if n["kind"] == "guard":
            bound = max(bound, n["entry"] + n["duration"] + 1)
        elif not n["broken"]:
            bound = max(bound, n["entry"] + n["duration"] + max(n["deadlines"].values()))
    return nodes, max(max(need), 1), bound + 2


def boundary_bisection_oracle(tol):
    """The trivial-region boundary's bisection with every midpoint signed by
    interval evaluation of ``trivial_margin_log``."""
    a, b = mpmath.mpf(2), mpmath.mpf(4096)

    def sign(x):
        m = trivial_margin_log(x)
        if mpmath.mpf(m.b) < 0:
            return -1
        if mpmath.mpf(m.a) > 0:
            return 1
        return 0

    while b - a > tol:
        mid = (a + b) / 2
        s = sign(mid)
        if s == 0:
            a, b = mid - tol / 4, mid + tol / 4
            break
        if s > 0:
            a = mid
        else:
            b = mid
    return BoundaryBracket(low=a, high=b)


def invisible_mode_oracle(g, family, params, seed, max_repeats):
    """``invisible_mode`` with each phase's track read round by round with
    ``track_at``: the plan's route for rounds 1..deadline, then the reversed
    route for as many rounds."""
    roster = _family_roster(family)
    rng = make_rng(seed, "guesses")
    tracks = [[w] for _, w in roster]
    guesses = []
    phase_starts = []
    for _ in range(max_repeats):
        guess = rng.randrange(g.n)
        guesses.append(guess)
        phase_starts.append(len(tracks[0]))
        plan = build_plan(g, guess, family, params)
        if isinstance(plan, PlanFailure):
            continue
        steps = range(1, plan.capture_deadline + 1)
        for track, s in zip(tracks, _plan_scripts(plan, roster)):
            back = s[::-1]
            track.extend(track_at(s, r) for r in steps)
            track.extend(track_at(back, r) for r in steps)
    cop = ScriptedCop("expander-invisible", tuple(w for _, w in roster),
                      tuple(tuple(t) for t in tracks))
    cfg = GameConfig(cop_count=family.total_cops, max_rounds=len(tracks[0]) + g.n,
                     robber_visible=False, seed=seed)
    transcript = play(g, cop, GreedyFarRobber(), cfg)
    if transcript.caught:
        repeats = sum(1 for first in phase_starts if first <= transcript.outcome.round)
    else:
        repeats = max_repeats
    return InvisibleResult(transcript=transcript, caught=transcript.caught,
                           repeats=repeats, guesses=tuple(guesses))
