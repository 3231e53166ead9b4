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

:func:`check_guard_soundness` proves the promise for one instance as an
induction on the rounds: a base, the exhaustive adversary expanded once
over distinct nodes to the settle bound, where every robber line must be
caught or shadowed within the bound (the longest line before a settled node,
by :func:`copsrobbers.engine.line_lengths`); and a step, a closure over
every settled (cop, robber) pair and robber move, where one ``step`` must
keep the shadow or capture.  Together they cover every round past the
bound, with no horizon (Aigner and Fromme's geodesic-guarding argument,
checked per instance).
"""

from __future__ import annotations

from typing import Sequence

from .graph import (
    UNREACHABLE,
    Graph,
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

    The cop approaches p_0 over g's kept BFS row from it (``Graph._row``).
    With ``component = (row, members)``, ``members`` lists the vertices of
    g that span a component, and ``row[i]`` is the distance from p_0 to
    ``members[i]`` inside the subgraph they induce.  The path is then a
    geodesic of that subgraph and the shadow is measured there, over the row
    written back to g's ids, while the approach still runs through all of g.
    Without it both metrics are that one row of g.  The cop starts on p_0.
    """

    __slots__ = ("path", "length", "index_of", "dist0", "approach")
    name = "guard"

    def __init__(self, g: Graph, path, component: tuple[list[int], Sequence[int]] | None = None):
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
        self.approach = self.dist0 = g._row(path[0])
        if component is not None:
            row, members = component
            if len(row) != len(members):
                raise ValueError("the shadow row does not match the members")
            self.dist0 = [UNREACHABLE] * g.n
            for v, d in zip(members, row):
                self.dist0[v] = d
            if any(self.dist0[v] == UNREACHABLE for v in path):
                raise ValueError("path leaves the component")
            if self.dist0[path[0]] != 0:
                raise ValueError("the shadow row is not measured from p_0")
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


def check_guard_soundness(g: Graph, path) -> dict:
    """Verify the guard promise over every robber line, at every round.

    The proof is an induction on the rounds past the settle bound B:
      * base -- the exhaustive adversary is expanded once, to depth
        max(B, 1), over distinct nodes.  A node is settled when the cop's
        half-move from it captures or lands on the robber's shadow vertex.
        Every line from a placement must reach a settled node, or a capture,
        within B rounds: a placement whose ``line_lengths`` before a settled
        node is at least B (a cycle of unsettled nodes counts as infinite)
        is an ``unsettled`` violation with its start and round B;
      * step (the closure) -- for every robber vertex r whose shadow vertex
        c is not r, and every robber move r2 in N[r] other than c, the
        guard's step from c against r2 captures or lands on r2's shadow
        vertex, and captures whenever r2 is on the path.
    The closure says that a settled line stays settled, so a line settled by
    round B is settled at every later round; then every live node of any
    layer k >= B is (c, r2) for such an r and r2, and the two together
    cover every later round.  ``GuardCop`` keeps no clock (its ``move`` only
    wraps ``step``), so checking ``step`` checks the move; a step off N[c]
    is reported as an illegal move.  A bound of 0 is a one-vertex graph,
    where the robber has nowhere to stand.

    Returns a report dict with a (hopefully empty) violation list; a base
    violation names its start and round, a closure violation holds at any
    round past B and names none.  ``states_checked`` counts the base's
    distinct nodes and the closure's (r, r2) pairs.
    """
    from .engine import GameConfig, expand_game_layers, line_lengths

    cop = GuardCop(g, path)
    bound = _settle_bound(g, cop)
    depth = max(bound, 1)  # GameConfig needs a round; B = 0 only on one vertex
    cfg = GameConfig(cop_count=1, max_rounds=depth, robber_visible=True, seed=0)
    _, (keys, recs), layers = expand_game_layers(g, cop, cfg, depth)

    shadows = [cop.path[cop.shadow_index(r)] for r in range(g.n)]
    # settled: the cop's half-move captures or lands on the robber's shadow vertex
    settled = [rec is not None and (rec.caught_cop_half or rec.moves[0] == shadows[r])
               for (_, r, _), rec in zip(keys, recs)]
    lengths = line_lengths(recs, settled)
    violations = [{"start": keys[i][1], "round": bound, "kind": "unsettled"}
                  for i in layers[0] if lengths[i] >= bound]
    states = len(keys)
    closed = g.closed_neighborhoods()
    for r, c in enumerate(shadows):
        for r2 in closed[r]:
            if c in (r, r2):
                continue
            states += 1
            c2 = cop.step(g, c, r2)
            # on the path the robber must be caught, off it shadowed
            want = r2 if r2 in cop.index_of else shadows[r2]
            if c2 in closed[c] and c2 in (r2, want):
                continue
            kind = "uncaught-on-path" if want == r2 else "off-shadow"
            v = {"robber": r2, "cop": c2, "kind": kind if c2 in closed[c] else "illegal-move"}
            if v not in violations:
                violations.append(v)
    return {
        "path": list(cop.path),
        "settle_bound": bound,
        "states_checked": states,
        "violations": violations,
    }
