"""Deletion recursion over long geodesics, ending in an expander sweep.

Above the diameter threshold, take the lexicographically first pair of
vertices realizing the component's exact diameter, guard the geodesic between
them, treat it as deleted once the guard has settled, and recurse on the
robber's component.  At or below the threshold, march a sampled cop family
onto its home vertices inside the component, read the robber's position and
run the level-decomposition plan.  Components are vertex masks of the
original graph, so the diameter, the geodesic, the split and the guard's
shadow are all measured in original ids; only a leaf builds the induced
subgraph, for the expander.

The whole object is realized inside a single engine game with a fixed pool of
cops placed up front (start positions are irrelevant on a connected graph;
unassigned cops idle).  The recursion is precomputed as a tree over
components -- branching on which component the robber ends up in -- with one
*stage window* per node:

  guard node:  rounds (entry, entry + d(v0, p0) + len(P)]  -- approach+settle
  leaf node:   march window, then plan execution relative to the read round

Stage windows are fixed deadlines, so the cop team's behavior is a
deterministic function of (round, current node, robber view).  The engine's
view carries no round, so :class:`MeynielCop` keeps it in its state, which
keeps transcripts replayable and the exhaustive adversary's memoization sound.
Every guard keeps shadowing its geodesic forever once deployed; the robber
therefore can never re-cross a deleted path alive, and the active component
shrinks at every recursion step.

The analysis computes what sizes the pool and fixes the timeline: every
node's diameter pair and geodesic, its window, and every leaf's family and
deadlines.  Both windows read d(v0, .) from one BFS at v0.  A game walks one
root-to-leaf chain, so a node's cop objects (a guard's ``GuardCop``, a leaf's
``ScriptedCop`` team and march routes) are built on first use, through
:meth:`MeynielAnalysis.cops`, and kept on the node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import GameConfig, GreedyFarRobber, View, play
from .expander import (
    CopSetFamily,
    ScriptedCop,
    StrategyParams,
    resample_family,
    start_scripts,
    track_at,
)
# Not called here; bench/tracing.py looks these two names up in this module.
from .expander import build_plan, sample_cop_sets  # noqa: F401
from .graph import (
    UNREACHABLE,
    Graph,
    VertexSet,
    bfs_distances,
    component_of,
    delete_vertices,
    diameter_pair,
    shortest_path,
    walk_back,
)
from .guard import GuardCop

__all__ = [
    "MeynielAnalysis",
    "MeynielCop",
    "MeynielResult",
    "run_meyniel",
]

@dataclass(frozen=True)
class _Cops:
    """A node's cop objects: the guards deployed there, and a leaf's team and
    the routes marching it from v0 to its homes (none for a broken leaf)."""

    # (entry, cop index, GuardCop) per deployed guard, root first; a guard
    # node's own guard is the last one
    guards: tuple = ()
    team: ScriptedCop | None = None  # homes, per-start tracks; original ids
    march_routes: tuple = ()         # per fielded cop, route v0 -> home


@dataclass
class _Node:
    node_id: int
    depth: int
    kind: str                      # "guard" | "leaf"
    vertices: VertexSet            # component, original ids
    entry: int                     # stage starts at round entry + 1
    duration: int                  # guard: settle window; leaf: march window
    children: tuple = ()           # (VertexSet, _Node) pairs
    parent: int | None = None      # id of the guard node split into this one
    path: tuple = ()               # guard: the geodesic, original ids
    # leaf fields
    broken: bool = False
    # the family and its plans, in the ids of the leaf's induced subgraph;
    # the team is built from them (None when broken)
    family: CopSetFamily | None = None
    plans: dict | None = None
    family_set_sizes: tuple = ()   # () when broken
    deadlines: dict | None = None  # robber start -> capture deadline
    resamples: int = 0
    built: _Cops | None = None     # set by MeynielAnalysis.cops


class MeynielAnalysis:
    """Precomputed recursion tree, stage windows and cop-pool sizing."""

    def __init__(self, g: Graph, threshold: int, params: StrategyParams, seed: int):
        if threshold < 1:
            raise ValueError("diameter threshold must be >= 1")
        self.g = g
        self.threshold = threshold
        self.params = params
        self.seed = seed
        self.v0 = 0  # every cop starts here
        self._dist_v0 = bfs_distances(g, VertexSet.of(g.n, [self.v0]))
        if UNREACHABLE in self._dist_v0:
            raise ValueError("recursion requires a connected graph")
        self.nodes: list[_Node] = []
        self.root = self._build(VertexSet.full(g.n), depth=0, entry=0, label="r", parent=None)
        self.pool_size = max(
            max((self._need(n) for n in self.nodes), default=1), 1
        )

    def _need(self, node: _Node) -> int:
        """Cops in play at `node`: one guard per ancestor, then its own
        guard or its leaf family."""
        if node.kind == "leaf":
            return node.depth + sum(node.family_set_sizes)
        return node.depth + 1

    def _build(self, comp: VertexSet, depth: int, entry: int, label: str,
               parent: int | None) -> _Node:
        g = self.g
        node_id = len(self.nodes)
        d, u, v = diameter_pair(g, comp)
        if d <= self.threshold:
            node = self._build_leaf(node_id, comp, depth, entry, label)
            node.parent = parent
            self.nodes.append(node)
            return node
        path = tuple(shortest_path(g, u, v, within=comp))
        # the guard reaches p0 after d(v0, p0) rounds, then settles within
        # len(P) more
        settle = self._dist_v0[path[0]] + len(path) - 1
        node = _Node(
            node_id=node_id,
            depth=depth,
            kind="guard",
            vertices=comp,
            entry=entry,
            duration=max(1, settle),
            parent=parent,
            path=path,
        )
        self.nodes.append(node)
        rest = comp - VertexSet.of(g.n, path)
        children = []
        while rest:
            part = component_of(g, next(iter(rest)), within=rest)
            child = self._build(
                part, depth + 1, entry + node.duration,
                f"{label}.{len(children)}", node_id,
            )
            children.append((part, child))
            rest -= part
        node.children = tuple(children)
        return node

    def _build_leaf(self, node_id, comp, depth, entry, label) -> _Node:
        # The expander samples over a Graph, so the leaf works on the induced
        # subgraph; its compact ids map back through the sorted members.
        g = self.g
        sub, _ = delete_vertices(g, comp.complement())
        family, plans, attempts = resample_family(sub, self.params, self.seed, f"{label}:fam")
        if family is None:
            return _Node(
                node_id=node_id, depth=depth, kind="leaf", vertices=comp,
                entry=entry, duration=0, broken=True, resamples=attempts,
            )
        rmap = tuple(comp)
        # the march ends when the cop with the farthest home arrives; the
        # root leaf's cops are placed on their homes directly
        march = 0 if depth == 0 else max(
            (self._dist_v0[rmap[w]] for s in family.sets for w in s), default=0)
        return _Node(
            node_id=node_id, depth=depth, kind="leaf", vertices=comp,
            entry=entry, duration=march, broken=False,
            family=family, plans=plans,
            family_set_sizes=tuple(len(s) for s in family.sets),
            deadlines={rmap[v]: plan.capture_deadline for v, plan in plans.items()},
            resamples=attempts,
        )

    def cops(self, node: _Node) -> _Cops:
        """The node's cop objects, built on its first call and kept on it."""
        if node.built is None:
            node.built = self._cops(node)
        return node.built

    def _cops(self, node: _Node) -> _Cops:
        g = self.g
        # every node above is a guard node, and its guards stay deployed
        guards = () if node.parent is None else self.cops(self.nodes[node.parent]).guards
        if node.kind == "guard":
            own = GuardCop(g, node.path, within=node.vertices)
            return _Cops(guards=guards + ((node.entry, node.depth, own),))
        if node.broken:
            return _Cops(guards=guards)
        rmap = tuple(node.vertices)
        homes, scripts = start_scripts(node.family, node.plans)
        team = ScriptedCop("meyniel-leaf", tuple(rmap[w] for w in homes),
                           {rmap[v]: tuple(tuple(rmap[p] for p in t) for t in tracks)
                            for v, tracks in scripts.items()})
        march_routes = tuple(tuple(walk_back(g, self._dist_v0, h)) for h in team.homes)
        return _Cops(guards=guards, team=team, march_routes=march_routes)

    def timeline_bound(self) -> int:
        bound = 1
        for node in self.nodes:
            if node.kind == "guard":
                bound = max(bound, node.entry + node.duration + 1)
            elif not node.broken:
                worst_exec = max(node.deadlines.values(), default=1)
                bound = max(bound, node.entry + node.duration + worst_exec)
        return bound + 2


class MeynielCop:
    """Engine strategy walking a precomputed recursion tree.

    The strategy state is ``(node id, leaf team state, rounds moved)``: the
    current node, the state of its leaf's ``ScriptedCop`` team (``None``
    until the team first moves, and again whenever the node changes) and the
    round count that times the stage windows.
    """

    name = "meyniel"

    def __init__(self, analysis: MeynielAnalysis):
        self.analysis = analysis
        root = analysis.root
        self._root_is_leaf = root.kind == "leaf" and not root.broken

    def place(self, g, cfg):
        a = self.analysis
        if self._root_is_leaf:
            return a.cops(a.root).team.homes
        return tuple([a.v0] * a.pool_size)

    def _advance(self, node: _Node, rnd: int, r: int) -> _Node:
        while node.kind == "guard" and rnd > node.entry + node.duration:
            nxt = None
            for comp_mask, child in node.children:
                if r in comp_mask:
                    nxt = child
                    break
            if nxt is None:
                return node  # robber is on a guarded path; capture is imminent
            node = nxt
        return node

    def move(self, g, view: View, state):
        r = view.robber_position
        if r is None:
            raise ValueError("the recursion strategy needs a visible robber")
        a = self.analysis
        node_id, leaf_state, rnd = (a.root.node_id, None, 0) if state is None else state
        rnd += 1
        node = self._advance(a.nodes[node_id], rnd, r)
        if node.node_id != node_id:
            leaf_state = None
        moves = list(view.cop_positions)

        built = a.cops(node)
        # Every deployed guard keeps shadowing its geodesic.
        for entry, idx, guard in built.guards:
            if rnd > entry:
                moves[idx] = guard.step(g, view.cop_positions[idx], r)

        if node.kind == "leaf" and not node.broken:
            base = node.depth
            rel = rnd - node.entry
            if rel <= node.duration:
                for i, route in enumerate(built.march_routes):
                    moves[base + i] = track_at(route, rel)
            else:
                # the team's own round count is rel - node.duration: its
                # state starts at None on the round after the march
                own = slice(base, base + built.team.cop_count)
                moves[own], leaf_state = built.team.move(
                    g, View(view.cop_positions[own], r), leaf_state)
        return tuple(moves), (node.node_id, leaf_state, rnd)


@dataclass(frozen=True)
class MeynielResult:
    transcript: object
    caught: bool
    cops_used: int
    guards_used: int
    expander_cops: int
    pool_size: int
    threshold: int
    regime: str
    final_node: int
    leaf_broken: bool
    leaf_set_sizes: tuple


def run_meyniel(g: Graph, diameter_threshold_override: int,
                expander_params: StrategyParams, cfg: GameConfig,
                robber=None) -> MeynielResult:
    """Play the full recursion against a robber; reports cops consumed.

    The engine config's cop count is replaced by the analysis pool size, and
    max_rounds is raised to the precomputed timeline bound if it is smaller.
    """
    analysis = MeynielAnalysis(
        g, diameter_threshold_override, expander_params, seed=cfg.seed
    )
    strategy = MeynielCop(analysis)
    rounds = max(cfg.max_rounds, analysis.timeline_bound())
    run_cfg = GameConfig(
        cop_count=analysis.pool_size,
        max_rounds=rounds,
        robber_visible=True,
        seed=cfg.seed,
    )
    if robber is None:
        robber = GreedyFarRobber()
    transcript = play(g, strategy, robber, run_cfg)
    state = transcript.final_state  # None: caught at placement, still at the root
    final = analysis.root if state is None else analysis.nodes[state[0]]
    cops_used = analysis._need(final)
    guards_used = final.depth + (final.kind == "guard")
    return MeynielResult(
        transcript=transcript,
        caught=transcript.caught,
        cops_used=cops_used,
        guards_used=guards_used,
        expander_cops=cops_used - guards_used,
        pool_size=analysis.pool_size,
        threshold=diameter_threshold_override,
        regime=f"desk-scale-override(threshold={diameter_threshold_override})",
        final_node=final.node_id,
        leaf_broken=final.kind == "leaf" and final.broken,
        leaf_set_sizes=final.family_set_sizes if final.kind == "leaf" else (),
    )
