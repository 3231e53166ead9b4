"""One cop guarding a geodesic.

The guard projects the robber onto the path P = p_0..p_L through the
*shadow* index j = min(d(p_0, r), L).  Because d(p_0, .) changes by at most
one per robber move, the shadow is 1-Lipschitz, so a cop standing on the
shadow can keep standing on it forever; a robber stepping onto P then stands
on its own shadow and is caught by the next cop move.

The approach phase is pinned as follows: off the path, step along a shortest
route toward p_0 (lowest-id tie-break); once on the path, step toward the
current shadow index.  Both kinds of step are shortest-route steps toward a
path target, and the second is a one-dimensional pursuit that must close
because the shadow is trapped in [0, L].  Together they settle within
diameter(g) + L rounds, the bound exported by :func:`settle_bound`.
(A naive "always chase the current shadow" cop can loop forever on even
cycles when distance ties flip its direction, which is why the p_0 anchor is
part of the construction.)

:class:`GuardCop` is the one guard object: it holds the path's indices and
both metrics, computes the shadow, owns the move rule (:meth:`GuardCop.step`)
and plays it as a one-cop engine strategy.  The recursion in
:mod:`copsrobbers.meyniel` calls ``step`` for each deployed guard;
:func:`shadow` and :func:`settle_bound` are one-shot helpers over it.
"""

from __future__ import annotations

from typing import Sequence

from .graph import (
    UNREACHABLE,
    Graph,
    bfs_distances,
    diameter,
    step_toward,
)

__all__ = [
    "shadow",
    "settle_bound",
    "GuardCop",
    "check_guard_soundness",
]


class GuardCop:
    """One cop guarding the geodesic `path`; also a one-cop engine strategy.

    With ``component = (h, members)``, h is the subgraph of g induced by a
    vertex set, with ``members[i]`` the vertex of g that is h's vertex i.
    The path is then a geodesic of h and the shadow is measured in h, by one
    BFS there, while the cop still approaches p_0 through all of g.  Without
    it both metrics are the same list.  The cop starts on p_0.
    """

    __slots__ = ("path", "length", "index_of", "dist0", "approach")
    name = "guard"

    def __init__(self, g: Graph, path, component: tuple[Graph, Sequence[int]] | None = None):
        path = tuple(path)
        if not path:
            raise ValueError("path must be nonempty")
        for v in path:
            if not 0 <= v < g.n:
                raise ValueError(f"path vertex {v} outside [0, {g.n})")
        for a, b in zip(path, path[1:]):
            if b not in g.neighbors(a):
                raise ValueError(f"path step {a}->{b} is not an edge")
        if len(set(path)) != len(path):
            raise ValueError("path revisits a vertex")
        self.path = path
        self.length = len(path) - 1
        self.index_of = {v: i for i, v in enumerate(path)}
        self.approach = bfs_distances(g, (path[0],))
        self.dist0 = self.approach
        if component is not None:
            h, members = component
            local = {v: i for i, v in enumerate(members)}
            if any(v not in local for v in path):
                raise ValueError("path leaves the component")
            self.dist0 = [UNREACHABLE] * g.n
            for v, d in zip(members, bfs_distances(h, (local[path[0]],))):
                self.dist0[v] = d
        if self.dist0[path[-1]] != self.length:
            raise ValueError("path is not a geodesic")

    def shadow_index(self, r: int) -> int:
        d = self.dist0[r]
        if d == UNREACHABLE:
            raise ValueError(f"vertex {r} is not connected to the path")
        return min(d, self.length)

    def step(self, g: Graph, cop: int, robber: int) -> int:
        """The guard's move from `cop` against a robber standing on `robber`."""
        # Capture dominates everything else.
        if robber == cop or robber in g.neighbors(cop):
            return robber
        if self.dist0[robber] == UNREACHABLE:
            return cop  # outside the guarded component: another guard's robber
        j = self.shadow_index(robber)
        i = self.index_of.get(cop)
        if i is not None:
            if i == j:
                return cop
            return self.path[i + (1 if j > i else -1)]
        if self.approach[cop] == UNREACHABLE:
            raise ValueError(f"cop at {cop} is not connected to the path")
        return step_toward(g, self.approach, cop)

    def place(self, g, cfg):
        return (self.path[0],)

    def move(self, g, view, state):
        r = view.robber_position
        if r is None:
            raise ValueError("guard requires a visible robber")
        return (self.step(g, view.cop_positions[0], r),), state


def shadow(g: Graph, path, r: int) -> int:
    """Shadow index of r on the geodesic `path`; the path and r are checked
    (``GuardCop.shadow_index``, on the hot path, leaves r to its caller)."""
    if not 0 <= r < g.n:
        raise ValueError(f"vertex {r} outside [0, {g.n})")
    return GuardCop(g, path).shadow_index(r)


def _settle_bound(g: Graph, guard: GuardCop) -> int:
    d = diameter(g)
    if d == float("inf"):
        raise ValueError("settle bound requires a connected graph")
    return int(d) + guard.length


def settle_bound(g: Graph, path) -> int:
    """Rounds after which the guard of `path` stands on the robber's shadow."""
    return _settle_bound(g, GuardCop(g, path))


def check_guard_soundness(g: Graph, path, extra_rounds: int = 4) -> dict:
    """Exhaustively verify the guard promise over every robber line.

    Checks, across all robber behaviors up to settle_bound +
    max(2, extra_rounds) rounds (so at least two rounds past the bound):
      * at every cop half-move from round settle_bound on, the cop stands on
        the robber's shadow (or has captured) -- the invariant whose
        persistence the Lipschitz property guarantees;
      * any robber standing on the path after settle_bound is captured on the
        following cop half-move.

    Returns a report dict with a (hopefully empty) violation list.
    """
    from .engine import GameConfig, expand_game_layers

    cop = GuardCop(g, path)
    bound = _settle_bound(g, cop)
    depth = bound + max(2, extra_rounds)
    cfg = GameConfig(cop_count=1, max_rounds=depth, robber_visible=True, seed=0)
    _, (keys, recs), layers = expand_game_layers(g, cop, cfg, depth)

    violations = []
    states = 0
    for k in range(depth):
        for i in layers[k]:
            states += 1
            _, r_pos, _ = keys[i]
            rec = recs[i]
            cop_after = rec.moves[0]
            if k + 1 >= bound and not rec.caught_cop_half:
                if cop_after != cop.path[cop.shadow_index(r_pos)]:
                    violations.append(
                        {"round": k + 1, "robber": r_pos, "cop": cop_after, "kind": "off-shadow"}
                    )
            if k >= bound and r_pos in cop.index_of and not rec.caught_cop_half:
                violations.append(
                    {"round": k, "robber": r_pos, "cop": cop_after, "kind": "uncaught-on-path"}
                )
    return {
        "path": list(cop.path),
        "settle_bound": bound,
        "depth": depth,
        "states_checked": states,
        "violations": violations,
    }
