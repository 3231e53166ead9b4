"""Immutable simple undirected graphs and their metric primitives.

Vertices are exactly the integers ``0..n-1``.  A :class:`Graph` holds sorted
adjacency tuples only, so its memory is linear in n + m.  A
:class:`VertexSet` is a fixed-width membership bitmask over those ids, so set
algebra costs O(n/wordsize).  Distances are exact integers; ``UNREACHABLE``
(-1) is the only sentinel and is never a "large number".

BFS tie-breaking is pinned everywhere: when several predecessors realize a
shortest path, the lowest vertex id wins.  This makes every derived object
(geodesics, transcripts) reproducible.

The metric functions take an optional ``within`` vertex set.  They then
measure the subgraph induced by that set while keeping the original vertex
ids, so a caller working on a component never relabels the graph.  Every
masked metric (``bfs_distances``, ``shortest_path``, ``diameter_pair``) and
``delete_vertices`` run on one order-preserving compact copy of the set
(members ascending, their adjacency kept in that order), so with ``within``
= C the search costs O(|C| + m_C), m_C the edges at C's members, however
large g is, plus O(|C|·n/w) to list C's members from the bitmask;
``bfs_distances`` then writes its row back into an n-long list.  The copy is
monotone in the ids, so every lowest-id tie-break picks what it would pick
in g.  A full mask is all of g: it is recognised by its member count and
never listed.

``diameter_pair`` returns the same lexicographically first diametral pair as
one BFS per vertex would, from a bounded scan: eccentricity bounds from the
BFS rows already run skip every source that cannot change the answer.
Vertex-transitive graphs (cycles, hypercubes) leave nothing to skip and keep
one BFS per vertex.  The whole-graph result is computed once per
:class:`Graph` and kept on it for its lifetime, so the recursion's root, the
desk-scale parameters and the guard's settle bound share one scan.  The kept
value is an immutable tuple that only depends on the adjacency, and two
tasks that fill it at once write the same value, so a graph stays safe to
share.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator

from .errors import NoPathError, ParseError

__all__ = [
    "UNREACHABLE",
    "MAX_PARSE_VERTICES",
    "FREE_PARSE_VERTICES",
    "Graph",
    "VertexSet",
    "bfs_distances",
    "ball",
    "shortest_path",
    "walk_back",
    "step_toward",
    "diameter",
    "diameter_pair",
    "girth",
    "min_degree",
    "delete_vertices",
    "component_of",
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


class VertexSet:
    """Immutable subset of ``0..n-1`` backed by an integer bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("universe size must be >= 0")
        if mask < 0 or mask >> n:
            raise ValueError("mask has members outside [0, n)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside [0, {n})")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("VertexSets over different universes")

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Construction validates the input and rejects (never silently fixes)
    self-loops, duplicate edges, and out-of-range endpoints.  Instances are
    immutable and safe to share across concurrent tasks.  ``_diameter``
    holds the whole-graph :func:`diameter_pair` once it has been asked for;
    equality and hashing ignore it.
    """

    __slots__ = ("n", "_adj", "_diameter")

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_diameter", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

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


def _check_universe(g: Graph, s: VertexSet) -> None:
    """Refuse a vertex set over another universe than g's vertices."""
    if s.n != g.n:
        raise ValueError("vertex set over wrong universe")


def _bfs(adj, dist: list[int], sources) -> list[int]:
    """Layered BFS over the adjacency lists ``adj``, filling a seeded
    distance list in place."""
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == UNREACHABLE:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _local(g: Graph, within: VertexSet | None):
    """``(members, adj)``: the members of ``within`` ascending, and the
    adjacency of the subgraph they induce with member i relabelled i.  The
    relabel is monotone, so sorted neighbor lists stay sorted.  All of g
    (``within`` None or full) is its own copy; a full mask is told by its
    member count, without listing it."""
    if within is None:
        return range(g.n), g._adj
    _check_universe(g, within)
    if len(within) == g.n:
        return range(g.n), g._adj
    members = list(within)
    pos = {v: i for i, v in enumerate(members)}
    get = pos.get
    adj = g._adj
    return members, [[i for w in adj[v] if (i := get(w)) is not None] for v in members]


def bfs_distances(g: Graph, sources: VertexSet, within: VertexSet | None = None) -> list[int]:
    """Multi-source BFS hop distances; ``UNREACHABLE`` marks the rest.

    With ``within``, distances are those of the subgraph induced by that
    vertex set, in the original ids; every vertex outside it is unreachable.
    """
    if not sources:
        raise ValueError("sources must be nonempty")
    _check_universe(g, sources)
    members, adj = _local(g, within)
    if within is not None and sources.mask & ~within.mask:
        raise ValueError("sources must lie inside the vertex mask")
    if len(members) == g.n:
        return _bfs(adj, [UNREACHABLE] * g.n, sources)
    row = _bfs(adj, [UNREACHABLE] * len(members), [bisect_left(members, s) for s in sources])
    dist = [UNREACHABLE] * g.n
    for v, d in zip(members, row):
        dist[v] = d
    return dist


def ball(g: Graph, a: VertexSet, r: int) -> VertexSet:
    """All vertices within hop distance ``r`` of the set ``a``."""
    if not a:
        raise ValueError("ball center must be nonempty")
    _check_universe(g, a)
    if r < 0:
        raise ValueError("radius must be >= 0")
    return VertexSet(g.n, _flood(g, a.mask, -1, r))


def _flood(g: Graph, mask: int, region: int, steps: int = -1) -> int:
    """Grow the bitmask ``mask`` by ``steps`` BFS layers (every layer when
    negative), entering only vertices of the bitmask ``region``.  It scans
    the adjacency of the vertices it reaches and nothing else."""
    adj = g._adj
    frontier = list(VertexSet(g.n, mask))
    while frontier and steps:
        steps -= 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if not mask >> v & 1 and region >> v & 1:
                    mask |= 1 << v
                    nxt.append(v)
        frontier = nxt
    return mask


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


def shortest_path(g: Graph, u: int, v: int, within: VertexSet | None = None) -> list[int]:
    """A geodesic from u to v (inside ``within`` if given), deterministic via
    lowest-id predecessors."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("endpoint outside vertex range")
    members, adj = _local(g, within)
    if within is not None and u not in within:
        raise ValueError("sources must lie inside the vertex mask")
    if u == v:
        return [u]
    dist = _bfs(adj, [UNREACHABLE] * len(members), (bisect_left(members, u),))
    target = bisect_left(members, v)
    if within is not None and v not in within or dist[target] == UNREACHABLE:
        raise NoPathError(f"no path between {u} and {v}")
    return [members[w] for w in _walk(adj, dist, target)]


def diameter_pair(g: Graph, within: VertexSet | None = None) -> tuple[int | float, int, int]:
    """``(d, u, v)``: the diameter of the subgraph induced by ``within`` (all
    of g by default) and the lexicographically first pair u < v realizing it.

    u is the first member whose eccentricity is the diameter, and v the first
    vertex at that distance from u.  The members are scanned in ascending
    order, but a BFS runs only from a source that could still be u: a double
    sweep from the first member gives a lower bound on the diameter, and BFS
    rows give upper bounds ``ecc(w) + d(w, v)`` on the later members'
    eccentricities (bounding diameters; Takes & Kosters 2011).  On
    long graphs a few BFS passes suffice; on vertex-transitive graphs
    (cycles, hypercubes, Petersen) nothing can be skipped and the scan keeps
    one BFS per vertex.  A disconnected set gives ``(math.inf, u, v)`` for
    the first unreachable pair, found at the first source; a single vertex
    gives ``(0, v, v)``.

    The whole-graph triple (``within`` None or full) is kept on g for its
    lifetime after the first call, and later calls return it; a strict
    sub-mask is scanned on every call and leaves the kept value alone.  The
    triple is immutable and fixed by g's adjacency, so callers sharing g see
    one value, and two calls racing to fill it write the same one.
    """
    members, adj = _local(g, within)
    if len(members) == g.n:
        if g._diameter is None:
            object.__setattr__(g, "_diameter", _diameter_scan(members, adj))
        return g._diameter
    if not members:
        raise ValueError("vertex mask must be nonempty")
    return _diameter_scan(members, adj)


def _diameter_scan(members, adj) -> tuple[int | float, int, int]:
    """The bounded scan behind :func:`diameter_pair`, on the compact copy
    ``(members, adj)`` of a nonempty vertex set."""
    # source i is members[i]
    seed = [UNREACHABLE] * len(members)
    row_first = _bfs(adj, seed.copy(), (0,))
    if UNREACHABLE in row_first:
        return math.inf, members[0], members[row_first.index(UNREACHABLE)]
    far = row_first.index(max(row_first))
    row_far = _bfs(adj, seed.copy(), (far,))
    # A source u is skipped when hi[u] < need.  need starts at ecc(far), a
    # lower bound on the diameter, and stays above the eccentricity best
    # holds, since only a strict raise moves best.  hi[v] is a minimum of
    # ecc(w) + d(w, v) over BFS rows from sources w, so hi[v] >= ecc(v) by
    # the triangle inequality inside the mask.
    need = max(row_far)
    hi = [need + d for d in row_far]
    best = (0, 0, 0)
    for u in range(len(members)):
        if hi[u] < need:
            continue
        dist = row_first if u == 0 else row_far if u == far else _bfs(adj, seed.copy(), (u,))
        ecc = max(dist)
        if ecc > best[0]:
            # a vertex w < u at the eccentricity would have raised best
            # already from source w, so the first index is the first v > u
            best = (ecc, u, dist.index(ecc))
            need = max(need, ecc + 1)
        if ecc + 1 < need:
            # ecc + d(u, v) >= ecc + 1 off u, so only then can the row
            # prune a later source
            hi = [h if h <= ecc + d else ecc + d for h, d in zip(hi, dist)]
    d, u, v = best
    return d, members[u], members[v]


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


def delete_vertices(g: Graph, s: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V - s, relabeled compactly; returns old->new map."""
    members, adj = _local(g, s.complement())
    if not members:
        raise ValueError("cannot delete every vertex")
    edges = [(i, j) for i, a in enumerate(adj) for j in a if i < j]
    return Graph(len(members), edges), {v: i for i, v in enumerate(members)}


def component_of(g: Graph, v: int, within: VertexSet | None = None) -> VertexSet:
    """Maximal connected vertex set containing v (inside ``within`` if given)."""
    if not 0 <= v < g.n:
        raise ValueError("vertex outside range")
    region = -1
    if within is not None:
        _check_universe(g, within)
        if v not in within:
            raise ValueError("vertex outside the vertex mask")
        region = within.mask
    return VertexSet(g.n, _flood(g, 1 << v, region))


def is_connected(g: Graph) -> bool:
    return UNREACHABLE not in _bfs(g._adj, [UNREACHABLE] * g.n, (0,))


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
    """Stable 16-hex-digit digest of the canonical edge list."""
    return hashlib.sha256(format_edge_list(g).encode()).hexdigest()[:16]
