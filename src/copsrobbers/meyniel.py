"""Deletion recursion over long geodesics, ending in an expander sweep.

Above the diameter threshold, take the lexicographically first pair of
vertices realizing the component's exact diameter, guard the geodesic between
them, treat it as deleted once the guard has settled, and recurse on the
robber's component.  At or below the threshold, march a sampled cop family
onto its home vertices inside the component, read the robber's position and
run the level-decomposition plan.  The build measures each component on the
subgraph it induces (at the root on the graph itself, so the root reads and
fills the graph's kept diameter and rows): the diameter, the geodesic, the
split, the guard's shadow and the leaf's expander all run there, and their
results map back to original ids through the component's ascending id list.
The relabel is monotone, so every lowest-id choice is the one the original
ids would give.  No node keeps its subgraph.  The list is the node's one
record of its component: the cops find the robber's component among a guard
node's children by a binary search in each child's list, and a guard node
keeps beside it its shadow, the BFS row from its geodesic's first vertex
that the component's diameter scan kept, indexed by position in the list.

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
deadlines.  Windows and marches read d(v0, .) from the graph's kept row at v0.
A game walks one root-to-leaf chain, so a node's cop objects (a guard's
``GuardCop``, a leaf's ``ScriptedCop`` team and march routes) are built on
first use, through :meth:`MeynielAnalysis.cops`, and kept on the node.

The tree (the tuple of its nodes) is kept on the graph, as the diameter and
the solver's tables are: a second analysis with the same threshold,
parameters and seed, such as the second robber's game or an exhaustive check
after a game, reads it instead of building it again, cop objects included.
A graph keeps only the last tree built on it, so a seed sweep holds one.
No node refers to a graph, so the graph's store forms no reference cycle;
:class:`MeynielAnalysis` is the per-call view that holds the graph and
builds the cop objects from it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

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
    _components,
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
    """One component of the recursion, recorded as its ascending original
    ids; position i in ``members`` is vertex i of the subgraph it induces."""

    node_id: int
    depth: int
    kind: str                      # "guard" | "leaf"
    members: Sequence[int]         # the component's original ids, ascending
    entry: int                     # stage starts at round entry + 1
    duration: int = 0              # guard: settle window; leaf: march window
    children: tuple = ()           # guard: a _Node per component of the rest
    parent: int | None = None      # id of the guard node split into this one
    path: tuple = ()               # guard: the geodesic, original ids
    shadow: list | None = None     # guard: d(p0, .) in the component, by position
    # leaf fields: the family and its plans, by position in `members`; the
    # team is built from them (None when broken)
    family: CopSetFamily | None = None
    plans: dict | None = None
    resamples: int = 0
    built: _Cops | None = None     # set by MeynielAnalysis.cops

    @property
    def broken(self) -> bool:
        return self.kind == "leaf" and self.family is None

    @property
    def family_set_sizes(self) -> tuple:
        return () if self.family is None else tuple(len(s) for s in self.family.sets)

    @property
    def deadlines(self) -> dict | None:
        """Robber start (original id) -> capture deadline; None off a
        planned leaf."""
        if self.family is None:
            return None
        return {self.members[v]: plan.capture_deadline for v, plan in self.plans.items()}


class MeynielAnalysis:
    """Precomputed recursion tree, stage windows and cop-pool sizing.

    The tree, the tuple of its nodes with the root first, is kept on ``g``
    under its (threshold, params, seed) and built only when the last one
    kept there has another key; the pool size is read off its nodes.
    """

    def __init__(self, g: Graph, threshold: int, params: StrategyParams, seed: int):
        if threshold < 1:
            raise ValueError("diameter threshold must be >= 1")
        self.g = g
        self.threshold = threshold
        self.params = params
        self.seed = seed
        self.v0 = 0  # every cop starts here
        self.nodes = g._keep_latest("meyniel", (threshold, params, seed), self._grow)
        self.root = self.nodes[0]
        self.pool_size = max(1, max(self._need(n) for n in self.nodes))

    def _grow(self) -> tuple:
        g = self.g
        if UNREACHABLE in g._row(self.v0):
            raise ValueError("recursion requires a connected graph")
        self.nodes = []
        self._build(g, range(g.n), depth=0, entry=0, label="r", parent=None)
        return tuple(self.nodes)

    def _need(self, node: _Node) -> int:
        """Cops in play at `node`: one guard per ancestor, then its own
        guard or its leaf family."""
        if node.kind == "leaf":
            return node.depth + sum(node.family_set_sizes)
        return node.depth + 1

    def _build(self, h: Graph, members: Sequence[int], depth: int, entry: int, label: str,
               parent: int | None) -> _Node:
        d, u, v = diameter_pair(h)
        dist_v0 = self.g._row(self.v0)
        node = _Node(node_id=len(self.nodes), depth=depth,
                     kind="leaf" if d <= self.threshold else "guard",
                     members=members, entry=entry, parent=parent)
        self.nodes.append(node)
        if node.kind == "leaf":
            family, plans, node.resamples = resample_family(
                h, self.params, self.seed, f"{label}:fam")
            if family is not None:
                node.family, node.plans = family, plans
                # the march ends when the cop with the farthest home arrives;
                # the root leaf's cops are placed on their homes directly
                node.duration = 0 if depth == 0 else max(
                    (dist_v0[members[w]] for s in family.sets for w in s), default=0)
            return node
        path = shortest_path(h, u, v)
        node.path = tuple(members[w] for w in path)
        node.shadow = h._row(u)  # the row the scan and the geodesic read
        # the guard reaches p0 after d(v0, p0) rounds, then settles within
        # len(P) more
        node.duration = max(1, dist_v0[node.path[0]] + len(path) - 1)
        children = []
        for part, sub in _components(h, path):
            children.append(self._build(sub, tuple(members[w] for w in part), depth + 1,
                                        entry + node.duration, f"{label}.{len(children)}",
                                        node.node_id))
        node.children = tuple(children)
        return node

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
            # the root's component is g itself, so its guard measures on g
            own = GuardCop(g, node.path, component=None if node.parent is None
                           else (node.shadow, node.members))
            return _Cops(guards=guards + ((node.entry, node.depth, own),))
        if node.broken:
            return _Cops(guards=guards)
        rmap = node.members
        homes, scripts = start_scripts(node.family, node.plans)
        team = ScriptedCop("meyniel-leaf", tuple(rmap[w] for w in homes),
                           {rmap[v]: tuple(tuple(rmap[p] for p in t) for t in tracks)
                            for v, tracks in scripts.items()})
        march_routes = tuple(tuple(walk_back(g, g._row(self.v0), h)) for h in team.homes)
        return _Cops(guards=guards, team=team, march_routes=march_routes)

    def timeline_bound(self) -> int:
        bound = 1
        for node in self.nodes:
            if node.kind == "guard":
                bound = max(bound, node.entry + node.duration + 1)
            elif not node.broken:
                worst_exec = max((p.capture_deadline for p in node.plans.values()),
                                 default=1)
                bound = max(bound, node.entry + node.duration + worst_exec)
        return bound + 2


class MeynielCop:
    """Engine strategy walking a precomputed recursion tree.

    The strategy state is ``(node id, leaf team state, rounds moved)``: the
    current node, the state of its leaf's ``ScriptedCop`` team (``None``
    until the team first moves, and again whenever the node changes) and the
    round count that times the stage windows.

    A guard's step depends on the guard, the cop's vertex and the robber's
    vertex alone, given the analysis's graph, which the engine passes to
    every ``move``.  So the strategy keeps each step it computes: at most
    (guard nodes)·n² entries, shared by every node the adversary expands.
    """

    name = "meyniel"

    def __init__(self, analysis: MeynielAnalysis):
        self.analysis = analysis
        self._steps: dict = {}  # (GuardCop, cop, robber) -> the guard's step
        root = analysis.root
        self._root_is_leaf = root.kind == "leaf" and not root.broken

    def place(self, g, cfg):
        a = self.analysis
        if self._root_is_leaf:
            return a.cops(a.root).team.homes
        return tuple([a.v0] * a.pool_size)

    def _advance(self, node: _Node, rnd: int, r: int) -> _Node:
        while node.kind == "guard" and rnd > node.entry + node.duration:
            for child in node.children:
                i = bisect_left(child.members, r)
                if i < len(child.members) and child.members[i] == r:
                    node = child
                    break
            else:
                return node  # robber is on a guarded path; capture is imminent
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
        steps = self._steps
        for entry, idx, guard in built.guards:
            if rnd > entry:
                c = view.cop_positions[idx]
                step = steps.get((guard, c, r))
                if step is None:
                    step = steps[guard, c, r] = guard.step(g, c, r)
                moves[idx] = step

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
        leaf_broken=final.broken,
        leaf_set_sizes=final.family_set_sizes,
    )
