"""Immutable simple undirected graphs and their metric primitives.

Vertices are exactly the integers ``0..n-1``, and the package passes them as
plain ids: a BFS starts from a sequence of ids, and a ball is returned as an
ascending tuple of them (``VertexSet.of`` makes such a tuple from any ids, and
checks their range).  A :class:`Graph` holds sorted adjacency tuples and
the values it derives from them (below).  Distances are exact integers;
``UNREACHABLE`` (-1) is the only sentinel and is never a "large number".

BFS tie-breaking is pinned everywhere: when several predecessors realize a
shortest path, the lowest vertex id wins.  This makes every derived object
(geodesics, transcripts) reproducible.

The metric functions measure a whole graph.  To measure inside a vertex set
C, build the subgraph C induces and measure that (``_components`` builds one
for each component of what deleted vertices leave): its vertices are C's
members in ascending order, relabelled 0..|C|-1, so a search costs
O(|C| + m_C), m_C the edges at C's members, however large the original
graph is.  The relabel is monotone, so every lowest-id tie-break
picks what it would pick in the original graph, and results map back
through the ascending member list (the recursion keeps that list and a
guard's shadow row, not the subgraph).

``diameter_pair`` returns the same lexicographically first diametral pair as
one BFS per vertex would, from a bounded scan: eccentricity bounds from the
BFS rows already run skip every source that cannot change the answer, and
on a 2-connected graph the scan stops once an eccentricity reaches n // 2,
the most any distance there can be.  So a cycle takes two BFS passes and
one DFS, while other vertex-transitive graphs (hypercubes, Petersen) leave
nothing to skip and keep one BFS per vertex.  The whole-graph result is
computed once per :class:`Graph` and kept on it for its lifetime, so the
recursion's root, the desk-scale parameters and the guard's settle bound
share one scan.

A :class:`Graph` keeps every value it derives (the diameter triple, the
connectivity bit, the edge-list hash, the closed-neighbourhood table, the
solver's tables) in one private store, filled through ``Graph._keep``.  A
value that also depends on arguments beyond the adjacency (the recursion
tree of :mod:`copsrobbers.meyniel`, fixed by its threshold, parameters and
seed) is kept through ``Graph._keep_latest``, one value per slot: the last
one made.  No kept value refers to its graph, so the store lives and dies
with the graph without a reference cycle, its memory follows the live
graphs, and equal but distinct graphs keep their own.

``Graph._row`` makes every single-source BFS row and keeps it beside that
store: the diameter scan, ``shortest_path``, ``is_connected``, the guard, the
recursion, the greedy robber, the chaser and the expander read them, so work
on one graph runs one BFS per source (``bfs_distances`` runs multi-source
fields).  The rows hold at most ``ROW_ENTRIES`` list entries in all (one row
on a graph with more vertices), 8 MiB of list slots, which a scan from every
source (on a hypercube) can fill; the next row past that drops them all.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from typing import Iterable, Sequence

from .errors import NoPathError, ParseError

__all__ = [
    "UNREACHABLE",
    "MAX_PARSE_VERTICES",
    "FREE_PARSE_VERTICES",
    "Graph",
    "bfs_distances",
    "ball",
    "shortest_path",
    "walk_back",
    "step_toward",
    "diameter",
    "diameter_pair",
    "girth",
    "min_degree",
    "is_connected",
    "parse_edge_list",
    "format_edge_list",
    "to_dot",
    "graph_hash",
]

UNREACHABLE = -1

# Largest vertex count an edge-list header may declare; checked before the
# graph allocates its adjacency lists.  Above FREE_PARSE_VERTICES it is also
# capped by the input's length, so a few bytes cannot buy a huge allocation.
MAX_PARSE_VERTICES = 1 << 20
FREE_PARSE_VERTICES = 1 << 16

# List entries the BFS rows kept on one graph may hold in all (one row on a
# graph with more vertices), 8 MiB of list slots; Q10's scan fills it exactly.
# In the tests, demos, CI and bench pools only CI's guard game on C4000 fills
# (262 rows, the scan's 2 among them) and clears it; next come C1200's guard
# game, 304 rows, and the 20x20 grid's expander planning, all 400 rows.
ROW_ENTRIES = 1 << 20


# Nothing in the package builds a VertexSet.  Its last caller is the
# benchmark's diameter_geodesic, which passes VertexSet.of(g.n, [u]) to
# bfs_distances as a sequence of ids.
class VertexSet(tuple):
    """Ascending distinct vertex ids of ``0..n-1``, as a tuple."""

    __slots__ = ()

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "VertexSet":
        ids = sorted(set(members))
        for v in ids:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside [0, {n})")
        return cls(ids)


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Construction validates the input and rejects (never silently fixes)
    self-loops, duplicate edges, and out-of-range endpoints.  Instances are
    immutable and safe to share across concurrent tasks.  ``_kept`` maps a
    key to a value derived from the adjacency once it has been asked for
    (see :meth:`_keep`), and ``_rows`` maps a vertex to its kept BFS row
    (see :meth:`_row`); equality and hashing ignore both.  No caller
    mutates a kept row: every row is handed out as the list that is kept.
    """

    __slots__ = ("n", "_adj", "_kept", "_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{n})")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._fill(tuple(tuple(sorted(a)) for a in adj))

    @classmethod
    def _trusted(cls, adj: tuple) -> "Graph":
        """The graph whose adjacency is ``adj`` as given.  Nothing is
        checked: the caller hands over nonempty, sorted, symmetric,
        loop-free tuples of in-range ids."""
        g = object.__new__(cls)
        g._fill(adj)
        return g

    def _fill(self, adj: tuple) -> None:
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_kept", {})
        object.__setattr__(self, "_rows", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _keep(self, key, make):
        """The value kept under ``key``, made by ``make()`` (never None) on
        the first call.

        Every kept value is immutable and fixed by the adjacency, so callers
        sharing the graph see one value, and two tasks racing to fill a key
        make and store equal values: the graph stays safe to share.  No kept
        value refers to the graph, so none forms a cycle through ``_kept``
        that only the cyclic garbage collector could free.
        """
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = make()
        return value

    def _keep_latest(self, slot, key, make):
        """The value kept in ``slot`` if it was made for an equal ``key``;
        otherwise ``make()``, which then replaces it.

        The slot holds the last value made, so a sweep over keys keeps one
        value, never a value per key.  It holds one ``(key, value)`` tuple,
        read once, so a task sharing the graph never pairs a key with the
        value made for another.  As with :meth:`_keep`, the value is fixed by
        the adjacency (and here the key) and does not refer to the graph.
        """
        kept = self._kept.get(slot)
        if kept is not None and kept[0] == key:
            return kept[1]
        value = make()
        self._kept[slot] = (key, value)
        return value

    def _row(self, v: int) -> list[int]:
        """The BFS hop distances from vertex v, ``UNREACHABLE`` off its
        component; kept after the first call.

        A caller reading many rows fetches ``_rows`` once and calls this
        only on a miss, which refuses a v outside the graph as
        ``bfs_distances`` does.  The kept rows hold at most ``ROW_ENTRIES``
        list entries: when the next row would pass that, all of them are
        dropped first.  A row is fixed by the graph and v, so two tasks
        racing to fill the store keep equal rows, and a row handed out
        stays valid after the store drops it.
        """
        rows = self._rows
        row = rows.get(v)
        if row is None:
            if not 0 <= v < self.n:
                raise ValueError(f"source vertex outside [0, {self.n})")
            if (len(rows) + 1) * self.n > ROW_ENTRIES:
                rows.clear()
            row = rows[v] = _bfs(self._adj, [UNREACHABLE] * self.n, (v,))
        return row

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def closed_neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's closed neighborhood (itself and its neighbors),
        ascending, indexed by vertex.  The table is built in O(n + m) on the
        first call and kept."""
        return self._keep("closed", lambda: tuple(tuple(sorted((v, *a)))
                                                  for v, a in enumerate(self._adj)))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _bfs(adj, dist: list[int], sources) -> list[int]:
    """BFS over the adjacency lists ``adj``, filling a seeded distance list
    in place.  Only ``UNREACHABLE`` entries are filled, so a seeded row may
    block vertices with another marker."""
    queue = list(sources)
    for s in queue:
        dist[s] = 0
    # one FIFO queue: the loop reads the vertices it appends
    for u in queue:
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = d
                queue.append(v)
    return dist


def _induced(g: Graph, pos: dict[int, int]) -> Graph:
    """The subgraph of g induced by the keys of ``pos``, which map g's
    vertices, ascending, to 0, 1, ... in order.  The relabel is monotone, so
    sorted neighbor lists stay sorted.  Costs O(|pos| + m), m the edges at
    those vertices."""
    get = pos.get
    adj = g._adj
    return Graph._trusted(tuple(tuple(i for w in adj[v] if (i := get(w)) is not None)
                                for v in pos))


def _components(g: Graph, removed) -> list[tuple[list[int], Graph]]:
    """The components of g minus the vertices ``removed``, in the order of
    their lowest vertex: each as its ascending vertex list and the subgraph
    it induces (vertex i of the list relabelled i).  Costs O(n + m)."""
    adj = g._adj
    taken = [False] * g.n
    for v in removed:
        taken[v] = True
    parts = []
    for s in range(g.n):
        if taken[s]:
            continue
        taken[s] = True
        part = [s]
        for u in part:
            for v in adj[u]:
                if not taken[v]:
                    taken[v] = True
                    part.append(v)
        part.sort()
        parts.append((part, _induced(g, {v: i for i, v in enumerate(part)})))
    return parts


def bfs_distances(g: Graph, sources: Sequence[int]) -> list[int]:
    """Multi-source BFS hop distances from the vertex ids ``sources`` (repeats
    allowed); ``UNREACHABLE`` marks the rest."""
    _check_sources(g, sources)
    return _bfs(g._adj, [UNREACHABLE] * g.n, sources)


def _check_sources(g: Graph, sources: Sequence[int]) -> None:
    """Refuse the sources ``bfs_distances`` refuses: none, or one outside g."""
    if not sources:
        raise ValueError("sources must be nonempty")
    if not 0 <= min(sources) <= max(sources) < g.n:
        raise ValueError(f"source vertex outside [0, {g.n})")


def ball(g: Graph, ids: Sequence[int], r: int) -> tuple[int, ...]:
    """The vertices within hop distance ``r`` of the vertex ids ``ids``,
    ascending.  It scans the adjacency of the vertices it reaches and
    nothing else."""
    _check_sources(g, ids)
    if r < 0:
        raise ValueError("radius must be >= 0")
    adj = g._adj
    seen = set(ids)
    frontier = list(seen)
    while frontier and r:
        r -= 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return tuple(sorted(seen))


def walk_back(g: Graph, dist: list[int], v: int) -> list[int]:
    """Geodesic from a source of the BFS field ``dist`` to v.

    Walks back from v through the lowest-id predecessor at every step.
    """
    if dist[v] < 0:
        raise NoPathError(f"vertex {v} is not reachable from the BFS sources")
    return _walk(g._adj, dist, v)


def _walk(adj, dist: list[int], v: int) -> list[int]:
    """``walk_back`` over the adjacency lists ``adj``, v reachable."""
    d = dist[v]
    path = [v]
    while d:
        d -= 1
        # neighbor lists are sorted, so the first predecessor is the lowest id
        for w in adj[v]:
            if dist[w] == d:
                v = w
                break
        path.append(v)
    path.reverse()
    return path


def step_toward(g: Graph, dist: list[int], v: int) -> int:
    """The lowest-id neighbor of v one step closer to a source of the BFS
    field ``dist``; v itself where ``dist[v] <= 0`` (a source, or unreachable).

    ``walk_back`` repeats this step inline: its loop is on the hot path.
    """
    d = dist[v] - 1
    if d < 0:
        return v
    for w in g._adj[v]:  # sorted, so the first predecessor is the lowest id
        if dist[w] == d:
            return w
    raise AssertionError("BFS distance field has no descent step")


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """A geodesic from u to v over u's kept row, by lowest-id predecessors."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint outside vertex range")
    if u == v:
        return [u]
    dist = g._row(u)
    if dist[v] == UNREACHABLE:
        raise NoPathError(f"no path between {u} and {v}")
    return _walk(g._adj, dist, v)


def diameter_pair(g: Graph) -> tuple[int | float, int, int]:
    """``(d, u, v)``: the diameter of g and the lexicographically first pair
    u < v realizing it.

    u is the first vertex whose eccentricity is the diameter, and v the first
    vertex at that distance from u.  The vertices are scanned in ascending
    order, but a BFS runs only from a source that could still be u: a double
    sweep from vertex 0 gives a lower bound on the diameter, and BFS rows
    give upper bounds ``ecc(w) + d(w, v)`` on the later vertices'
    eccentricities (bounding diameters; Takes & Kosters 2011).  On
    long graphs a few BFS passes suffice.  When the best eccentricity first
    reaches n // 2, and no distance known so far passes n // 2, one
    O(n + m) DFS tests 2-connectivity; every distance of a 2-connected graph
    is at most n // 2 (Whitney 1932), so the scan then stops: a cycle takes
    two BFS passes and the DFS, a path no DFS.  On other
    vertex-transitive graphs (hypercubes, Petersen) nothing can be skipped
    and the scan keeps one BFS per vertex.  A disconnected graph gives
    ``(math.inf, u, v)`` for the first unreachable pair, found at the first
    source; a single vertex gives ``(0, 0, 0)``.

    The triple is kept on g for its lifetime after the first call, and later
    calls return it.
    """
    return g._keep("diameter", lambda: _diameter_scan(g))


def _diameter_scan(g: Graph) -> tuple[int | float, int, int]:
    """The bounded scan behind :func:`diameter_pair`; every source's row is
    ``g._row``, so the rows it runs stay kept on g."""
    n = g.n
    row_first = g._row(0)
    if UNREACHABLE in row_first:
        return math.inf, 0, row_first.index(UNREACHABLE)
    far = row_first.index(max(row_first))
    row_far = g._row(far)
    # A source u is skipped when hi[u] < need.  need starts at ecc(far), a
    # lower bound on the diameter, and stays above the eccentricity best
    # holds, since only a strict raise moves best.  hi[v] is a minimum of
    # ecc(w) + d(w, v) over BFS rows from sources w, so hi[v] >= ecc(v) by
    # the triangle inequality.
    need = far_ecc = max(row_far)
    hi = [need + d for d in row_far]
    best = (0, 0, 0)
    tested = False
    for u in range(n):
        if hi[u] < need:
            continue
        dist = g._row(u)
        ecc = max(dist)
        if ecc > best[0]:
            # a vertex w < u at the eccentricity would have raised best
            # already from source w, so the first index is the first v > u
            best = (ecc, u, dist.index(ecc))
            # Whitney (1932): in a 2-connected graph every two vertices lie
            # on a common cycle, so no distance passes n // 2 and no later
            # source can raise best.  Considered once, when best first gets
            # there; a distance already known above n // 2 proves a cut
            # vertex, so the DFS runs only when none is.
            if 2 * ecc >= n - 1 and not tested:
                tested = True
                if max(ecc, far_ecc) <= n // 2 and _biconnected(g._adj):
                    return best
            need = max(need, ecc + 1)
        if ecc + 1 < need:
            # ecc + d(u, v) >= ecc + 1 off u, so only then can the row
            # prune a later source
            hi = [h if h <= ecc + d else ecc + d for h, d in zip(hi, dist)]
    return best


def _biconnected(adj) -> bool:
    """Whether the graph on the adjacency lists ``adj`` is 2-connected: at
    least 3 vertices, connected, and no cut vertex.  One iterative lowpoint
    DFS from vertex 0 (Hopcroft & Tarjan 1973), O(n + m)."""
    n = len(adj)
    if n < 3:
        return False
    order = [0] * n  # DFS discovery number from 1; 0 while unvisited
    low = [0] * n
    parent = [0] * n
    nxt = [0] * n  # index of the next neighbour to look at
    order[0] = low[0] = t = 1
    root_children = 0
    stack = [0]
    while stack:
        u = stack[-1]
        i = nxt[u]
        if i < len(adj[u]):
            nxt[u] = i + 1
            v = adj[u][i]
            if not order[v]:
                t += 1
                order[v] = low[v] = t
                parent[v] = u
                stack.append(v)
            elif order[v] < low[u]:
                # the tree edge to the parent counts too; it lowers low[u]
                # only to order[parent], which leaves the test below alone
                low[u] = order[v]
            continue
        stack.pop()
        if u == 0:
            break  # the root is done; it has no parent to report to
        p = parent[u]
        if p == 0:
            # the root is a cut vertex exactly when it has two DFS children
            root_children += 1
            if root_children > 1:
                return False
        elif low[u] >= order[p]:
            return False  # nothing below u reaches above p
        if low[u] < low[p]:
            low[p] = low[u]
    return t == n


def diameter(g: Graph) -> int | float:
    """Max distance over connected pairs; ``math.inf`` if disconnected."""
    return diameter_pair(g)[0]


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    BFS from every root; a non-tree edge (x,y) seen from root s witnesses a
    closed walk of length dist[x]+dist[y]+1, and the minimum over all roots
    equals the girth.
    """
    best = math.inf
    for s in range(g.n):
        dist = [UNREACHABLE] * g.n
        parent = [UNREACHABLE] * g.n
        dist[s] = 0
        q: deque[int] = deque([s])
        while q:
            x = q.popleft()
            if 2 * dist[x] >= best:
                continue
            for y in g.neighbors(x):
                if dist[y] == UNREACHABLE:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y and parent[y] != x:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
    return best


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.n))


def is_connected(g: Graph) -> bool:
    """Whether every vertex is in vertex 0's kept row; kept on g."""
    return g._keep("connected", lambda: UNREACHABLE not in g._row(0))


# ---------------------------------------------------------------------------
# Edge-list text format: line 1 "n m", then m lines "u v" with 0 <= u < v < n.
# Lines whose first non-blank character is '#' are comments.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    header = None
    edges: list[tuple[int, int]] = []
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {raw!r}", line=lineno) from None
        if header is None:
            header = lineno
            n, m = a, b
            if n < 1 or m < 0:
                raise ParseError(f"invalid header n={n} m={m}", line=lineno)
            limit = min(MAX_PARSE_VERTICES, max(FREE_PARSE_VERTICES, len(text)))
            if n > limit:
                raise ParseError(
                    f"header n={n} exceeds the limit of {limit} vertices "
                    f"for an input of {len(text)} characters",
                    line=lineno,
                )
            continue
        if not (0 <= a < b < n):
            raise ParseError(f"edge must satisfy 0 <= u < v < n, got {a} {b}", line=lineno)
        edges.append((a, b))
    if header is None:
        raise ParseError("missing 'n m' header", line=1)
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    lines = ["graph g {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_hash(g: Graph) -> str:
    """Stable 16-hex-digit digest of the canonical edge list; kept on g."""
    return g._keep("hash",
                   lambda: hashlib.sha256(format_edge_list(g).encode()).hexdigest()[:16])
