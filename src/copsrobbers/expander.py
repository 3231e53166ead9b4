"""Cop teams built from random vertex sets, scheduled by ball expansion.

The strategy samples t+1 random cop sets ``C_1..C_{t+1}`` (one cop per set
membership, standing on its home vertex).  Around the robber's start v it
peels the reachable region level by level:

  level 1:    candidate = B(v, 1),   matching radius 1,   deadline round 1
  level i:    candidate = B(A_{i-1}, 2^{i-2}), radius = deadline = 2^{i-1}

At each level the candidate set splits into a *shell* D_i that admits a
complete distance-<=radius matching into C_i (those cops walk their routes
and then hold, occupying D_i by the deadline) and a *core* A_i that does not.
The split is computed as the Hall-deficiency closure of a maximum bipartite
matching: A_i is everything reachable by alternating paths from unmatched
candidate vertices (read from Hopcroft-Karp's last, failing BFS), which
guarantees the complete matching on the rest.
A surviving robber is confined to A_i at deadline 2^{i-1}; when some A_s is
empty the robber is caught by round 2^{s-1}.

If a vertex has at least ``lam`` closed neighbors and C_1 intersects them,
one adjacent cop simply walks onto the robber in the first move
(immediate-capture plan).

Plan construction is pure given (graph, family, v); a failed plan is a value
(``PlanFailure``).  ``resample_family`` is the one resampling loop: it draws
families from fresh derived seeds until one plans every start, for the
expander strategy and for the recursion's leaves alike.

Every team that walks plans is one ``ScriptedCop``: each cop has a track
(its route onto a matched shell vertex, then holding there), read at round r
by ``track_at``.  The visible team keys its tracks by the robber's start; the
invisible team walks one start-independent guess-and-sweep track set; each
recursion leaf keeps a keyed team built with ``start_scripts``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .errors import ResourceLimitError
from .graph import (
    UNREACHABLE,
    Graph,
    ball,
    diameter,
    walk_back,
)
from .seeds import derive_seed, make_rng

__all__ = [
    "StrategyParams",
    "CopSetFamily",
    "sample_cop_sets",
    "desk_params",
    "verify_claim",
    "PlanLevel",
    "CapturePlan",
    "PlanFailure",
    "build_plan",
    "resample_family",
    "track_at",
    "start_scripts",
    "ScriptedCop",
    "make_expander_cop",
    "invisible_mode",
    "InvisibleResult",
    "plan_summary",
]


@dataclass(frozen=True)
class StrategyParams:
    """Expansion factor, sampling density, level count, resampling budget."""

    lam: float
    density: float
    levels: int
    resample_limit: int = 16

    def __post_init__(self):
        if not self.lam > 1:
            raise ValueError("expansion factor must exceed 1")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.levels < 1:
            raise ValueError("need at least one level")
        if self.resample_limit < 1:
            raise ValueError("resample limit must be >= 1")


def desk_params(g: Graph, lam: float = 2.0, density: float = 0.5) -> StrategyParams:
    """Default desk-scale parameters: levels = ceil(log2 diameter)."""
    d = diameter(g)
    if d == math.inf:
        raise ValueError("parameters need a connected graph")
    levels = max(1, math.ceil(math.log2(max(2, d))))
    return StrategyParams(lam=lam, density=density, levels=levels)


@dataclass(frozen=True)
class CopSetFamily:
    """The sampled sets C_1..C_{t+1}; one cop lives on each membership."""

    sets: tuple[tuple[int, ...], ...]   # each set's vertex ids, ascending
    n: int                              # vertices of the graph sampled from
    density: float
    seed: int

    @property
    def total_cops(self) -> int:
        return sum(len(s) for s in self.sets)

    @property
    def oversized(self) -> bool:
        """The total exceeds twice its expectation."""
        return self.total_cops > 2 * len(self.sets) * self.density * self.n

    def fingerprint(self):
        return (self.seed, self.density, self.sets)


def sample_cop_sets(g: Graph, params: StrategyParams, seed: int) -> CopSetFamily:
    """t+1 independent Bernoulli(density) subsets from one seeded stream."""
    rng = make_rng(seed)
    sets = tuple(tuple(v for v in range(g.n) if rng.random() < params.density)
                 for _ in range(params.levels + 1))
    return CopSetFamily(sets=sets, n=g.n, density=params.density, seed=seed)


# ---------------------------------------------------------------------------
# Exhaustive check of the sampled sets' hitting property.
# ---------------------------------------------------------------------------

def verify_claim(g: Graph, family: CopSetFamily, params: StrategyParams,
                 budget: int = 1 << 20) -> bool:
    """Exhaustive check over all vertex subsets A with 1 <= |A| <= n/lam.

    True iff for every such A, every radius 2^i (i <= levels) at which the
    ball B(A, 2^i) has at least lam*|A| vertices, and every sampled set C_j:
    |B(A, 2^i) intersect C_j| >= |A|.

    A depth-first walk visits the subsets in ascending element order,
    carrying one union ball per radius down the stack, and stops at the
    first violation.  Each vertex's balls are read off its kept BFS row.
    `budget` limits the subset-radius checks,
    sum_{a <= n/lam} C(n, a) * (levels+1), counted before any work.
    """
    n = g.n
    amax = math.floor(n / params.lam)
    if amax < 1:
        return True  # no nonempty subset is small enough
    work = sum(math.comb(n, a) for a in range(1, amax + 1)) * (params.levels + 1)
    if work > budget:
        raise ResourceLimitError(
            f"{work} subset-radius checks exceed the budget of {budget}")
    radii = [1 << i for i in range(params.levels + 1)]
    # the walk ORs balls together, so balls and sets are bitmasks here
    per_vertex = [_ball_masks(g._row(v), radii) for v in range(n)]
    set_masks = [_mask(s) for s in family.sets]
    return _claim_walk(0, (0,) * len(radii), 1, amax, per_vertex, set_masks, params.lam)


def _claim_walk(first: int, balls: tuple, a: int, amax: int, per_vertex: list,
                set_masks: list, lam: float) -> bool:
    """``verify_claim``'s walk below the current subset A of size a-1, whose
    union balls are ``balls[i] = B(A, 2^i)``: extend A by each v >= first.
    A module function, not a closure, so a call leaves no reference cycle."""
    for v in range(first, len(per_vertex)):
        grown = tuple(b | pv for b, pv in zip(balls, per_vertex[v]))
        for bmask in grown:
            if bmask.bit_count() >= lam * a:
                for smask in set_masks:
                    if (bmask & smask).bit_count() < a:
                        return False
        if a < amax and not _claim_walk(v + 1, grown, a + 1, amax, per_vertex, set_masks, lam):
            return False
    return True


def _ball_masks(row: list[int], radii: list[int]) -> tuple[int, ...]:
    """The bitmask of the ball of each radius of ``radii`` around the source
    of the BFS row ``row``: the OR of the rings at distance 0..r."""
    rings = [0] * (max(row) + 1)
    for u, d in enumerate(row):
        if d != UNREACHABLE:
            rings[d] |= 1 << u
    prefix = list(accumulate(rings, or_))
    return tuple(prefix[min(r, len(prefix) - 1)] for r in radii)


def _mask(ids) -> int:
    """The bitmask whose set bits are the distinct ``ids``."""
    return sum(1 << v for v in ids)


# ---------------------------------------------------------------------------
# Maximum bipartite matching (Hopcroft-Karp) and the deficiency split.
# ---------------------------------------------------------------------------

def _hopcroft_karp(left: list[int], adj: dict[int, list[int]]):
    """Deterministic maximum matching (adjacency lists sorted) and its core:
    the left vertices the last, failing BFS reaches by alternating paths, i.e.
    those some maximum matching leaves unmatched (Dulmage-Mendelsohn)."""
    INF = math.inf
    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        q = deque()
        for u in left:
            if u not in pair_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for w in adj[u]:
                u2 = pair_r.get(w)
                if u2 is None:
                    found = True
                elif dist[u2] == INF:
                    dist[u2] = dist[u] + 1
                    q.append(u2)
        return found

    while bfs():
        for u in left:
            if u not in pair_l:
                _augment(u, adj, pair_l, pair_r, dist)
    return pair_l, {u for u in left if dist[u] != INF}


def _augment(u: int, adj: dict, pair_l: dict, pair_r: dict, dist: dict) -> bool:
    """Hopcroft-Karp's DFS: an augmenting path from u along the BFS layers
    ``dist``, lowest neighbour first, flipped into the matching if found.  A
    module function, not a closure, so a call leaves no reference cycle."""
    for w in adj[u]:
        u2 = pair_r.get(w)
        if u2 is None or (dist[u2] == dist[u] + 1 and _augment(u2, adj, pair_l, pair_r, dist)):
            pair_l[u] = w
            pair_r[w] = u
            return True
    dist[u] = math.inf
    return False


@dataclass(frozen=True)
class PlanLevel:
    """One level of a plan; its radius is also its deadline round."""

    candidate: tuple[int, ...]          # ids, ascending
    core: tuple[int, ...]               # A: Hall-deficiency closure, ascending
    shell: tuple[int, ...]              # D: completely matched remainder, ascending
    routes: dict                        # shell vertex -> path home..shell
    radius: int

    @property
    def matching(self) -> dict:
        """Shell vertex -> its cop home, the first vertex of its route."""
        return {u: route[0] for u, route in self.routes.items()}


def _decompose(g, candidate, cops, radius):
    """Split the ascending ids ``candidate`` into a matchable shell and a
    deficiency core.

    Every shell vertex is assigned a distinct cop home of ``cops`` within
    ``radius``, with the connecting geodesic recorded: the lowest-id walk
    back from the shell vertex over the home's BFS row.  The split is purely
    matching-theoretic: the core is the Hall-deficiency closure of a
    maximum matching.  Both the candidates' rows and the homes' are the
    graph's kept rows, so every start planned on g shares them.
    """
    row_of = g._row
    adj = {}
    for u in candidate:
        row = row_of(u)
        adj[u] = [w for w in cops if row[w] != UNREACHABLE and row[w] <= radius]
    matching, core = _hopcroft_karp(candidate, adj)
    shell = tuple(u for u in candidate if u not in core)
    routes = {u: tuple(walk_back(g, row_of(matching[u]), u)) for u in shell}
    return PlanLevel(
        candidate=candidate,
        core=tuple(u for u in candidate if u in core),
        shell=shell,
        routes=routes,
        radius=radius,
    )


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapturePlan:
    """A successful plan: an immediate capture, or levels ending in an
    empty core, whose radius is the capture deadline."""

    start_vertex: int
    levels: tuple[PlanLevel, ...]  # () for an immediate capture
    family_fingerprint: tuple
    immediate_route: tuple | None = None  # the first set's cop home .. start

    @property
    def kind(self) -> str:
        return "levels" if self.levels else "immediate"

    @property
    def terminal_level(self) -> int:
        return max(1, len(self.levels))

    @property
    def capture_deadline(self) -> int:
        return self.levels[-1].radius if self.levels else 1


@dataclass(frozen=True)
class PlanFailure:
    start_vertex: int
    levels: tuple[PlanLevel, ...]
    reason = "levels-exhausted"


def build_plan(g: Graph, v: int, family: CopSetFamily, params: StrategyParams):
    """Level decomposition around robber start v; Failure is a value.

    Every BFS row it reads (the level split's and every route's) is one of
    g's kept rows, so planning all starts of a family, and resampled
    families after it, runs at most one BFS per vertex of g.
    """
    if not 0 <= v < g.n:
        raise ValueError("robber vertex outside range")
    if len(family.sets) != params.levels + 1:
        raise ValueError("family size does not match the level count")
    fp = family.fingerprint()
    b1 = g.closed_neighborhoods()[v]  # B(v, 1), ascending
    first = family.sets[0]
    hit = [w for w in b1 if w in first] if len(b1) >= params.lam else ()
    if hit:
        w = hit[0]
        return CapturePlan(
            start_vertex=v,
            levels=(),
            family_fingerprint=fp,
            immediate_route=tuple(walk_back(g, g._row(w), v)),
        )
    levels: list[PlanLevel] = []
    candidate = b1
    for i, cops in enumerate(family.sets, 1):
        if levels:  # B(A_{i-1}, 2^{i-2})
            candidate = ball(g, levels[-1].core, levels[-1].radius)
        level = _decompose(g, candidate, cops, 1 << (i - 1))
        levels.append(level)
        if not level.core:
            return CapturePlan(start_vertex=v, levels=tuple(levels), family_fingerprint=fp)
    return PlanFailure(start_vertex=v, levels=tuple(levels))


# ---------------------------------------------------------------------------
# Resampling, and the one scripted cop team that walks the plans.
# ---------------------------------------------------------------------------

def resample_family(g: Graph, params: StrategyParams, seed: int, label: str):
    """Sample families until one yields a successful plan for every start.

    Attempt i samples from ``derive_seed(seed, f"{label}:{i}")``.  Returns
    (family, plans, attempts); once ``params.resample_limit`` attempts have
    failed, family is None and plans are the last attempt's.
    """
    for attempt in range(params.resample_limit):
        family = sample_cop_sets(g, params, derive_seed(seed, f"{label}:{attempt}"))
        plans = {v: build_plan(g, v, family, params) for v in range(g.n)}
        if all(isinstance(p, CapturePlan) for p in plans.values()):
            return family, plans, attempt + 1
    return None, plans, params.resample_limit


def _family_roster(family: CopSetFamily) -> list[tuple[int, int]]:
    """One cop per set membership: (set index, home vertex), stable order."""
    return [(j, w) for j, s in enumerate(family.sets) for w in s]


def track_at(track: tuple[int, ...], r: int) -> int:
    """A cop's position at round r; a walked-out track holds its last vertex."""
    return track[min(r, len(track) - 1)]


def _plan_scripts(plan: CapturePlan, roster) -> tuple[tuple[int, ...], ...]:
    """Per-cop track of one plan, in roster order."""
    if plan.kind == "immediate":
        route = plan.immediate_route
        return tuple(route if j == 0 and w == route[0] else (w,) for j, w in roster)
    by_level: dict[tuple[int, int], tuple[int, ...]] = {}
    for j, lv in enumerate(plan.levels):
        for route in lv.routes.values():
            by_level[(j, route[0])] = route
    return tuple(tuple(by_level.get((j, w), (w,))) for j, w in roster)


def start_scripts(family: CopSetFamily, plans: dict):
    """Cop homes, and the per-cop tracks of every start whose plan succeeded."""
    roster = _family_roster(family)
    fp = family.fingerprint()
    scripts = {}
    for v, plan in plans.items():
        if isinstance(plan, CapturePlan):
            if plan.family_fingerprint != fp:
                raise ValueError("plan was built from a different family")
            scripts[v] = _plan_scripts(plan, roster)
    return tuple(w for _, w in roster), scripts


class ScriptedCop:
    """Cop team walking precomputed per-cop tracks, read with `track_at`.

    `tracks` is either one tuple of per-cop tracks, walked without ever
    reading the robber, or a dict from robber start to such a tuple.  The
    strategy state is ``(start, rounds moved)``, start ``None`` for an
    unkeyed team.  A keyed team reads the robber's placement on its first
    move as its start and holds if the start has no tracks.
    """

    def __init__(self, name: str, homes: tuple[int, ...], tracks):
        self.name = name
        self.homes = homes
        self.tracks = tracks

    @property
    def cop_count(self) -> int:
        return len(self.homes)

    def place(self, g, cfg):
        return self.homes

    def move(self, g, view, state):
        start, rounds = (None, 0) if state is None else state
        rounds += 1
        tracks = self.tracks
        if isinstance(tracks, dict):
            if state is None:
                if view.robber_position is None:
                    raise ValueError("expander cops read the robber placement once")
                start = view.robber_position
            tracks = tracks.get(start)
            if tracks is None:
                return view.cop_positions, (start, rounds)  # no plan for this start: hold
        return tuple(track_at(t, rounds) for t in tracks), (start, rounds)


def make_expander_cop(g: Graph, params: StrategyParams, seed: int):
    """Resample families until one yields a successful plan for every start.

    Returns (strategy, family, plans, attempts); raises PlanningError-style
    ValueError if the resample limit is exhausted.
    """
    family, plans, attempts = resample_family(g, params, seed, "family")
    if family is None:
        failed = sum(isinstance(p, PlanFailure) for p in plans.values())
        raise ValueError(
            f"no family produced plans for every start within {params.resample_limit} "
            f"resamples (last attempt failed on {failed} starts)"
        )
    return ScriptedCop("expander", *start_scripts(family, plans)), family, plans, attempts


# ---------------------------------------------------------------------------
# Invisible-robber mode: guess, walk the plan, walk home, repeat.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvisibleResult:
    transcript: object
    caught: bool
    repeats: int
    guesses: tuple[int, ...]


def invisible_mode(g: Graph, family: CopSetFamily, params: StrategyParams,
                   seed: int, max_repeats: int) -> InvisibleResult:
    """Play the guess-and-sweep loop against an invisible robber.

    Each guess adds one phase to every cop's track: the guessed start's plan
    up to its capture deadline, then the same number of rounds walking back
    home.  A guess whose plan fails adds no rounds.  The team never reads
    the robber's position, and plays against the greedy robber.
    """
    from .engine import GameConfig, GreedyFarRobber, play

    if family.total_cops == 0:
        raise ValueError("family has no cops to field")
    roster = _family_roster(family)
    rng = make_rng(seed, "guesses")
    tracks: list[list[int]] = [[w] for _, w in roster]
    guesses: list[int] = []
    phase_starts: list[int] = []  # first round of each guess's phase
    plan_cache: dict[int, object] = {}
    for _ in range(max_repeats):
        guess = rng.randrange(g.n)
        guesses.append(guess)
        phase_starts.append(len(tracks[0]))
        if guess not in plan_cache:
            plan_cache[guess] = build_plan(g, guess, family, params)
        plan = plan_cache[guess]
        if isinstance(plan, PlanFailure):
            continue
        d = plan.capture_deadline
        for track, s in zip(tracks, _plan_scripts(plan, roster)):
            # rounds 1..d of the route, then of its reverse, as track_at
            # reads them: a walked-out route holds its last vertex
            for t in (s, s[::-1]):
                track.extend(t[1:d + 1] + t[-1:] * (d + 1 - len(t)))
    cop = ScriptedCop("expander-invisible", tuple(w for _, w in roster),
                      tuple(tuple(t) for t in tracks))
    cfg = GameConfig(
        cop_count=family.total_cops,
        # the scripted rounds (track length - 1), then n + 1 rounds of holding
        max_rounds=len(tracks[0]) + g.n,
        robber_visible=False,
        seed=seed,
    )
    transcript = play(g, cop, GreedyFarRobber(), cfg)
    caught = transcript.caught
    if caught:
        repeats = sum(1 for first in phase_starts if first <= transcript.outcome.round)
    else:
        repeats = max_repeats
    return InvisibleResult(
        transcript=transcript,
        caught=caught,
        repeats=repeats,
        guesses=tuple(guesses),
    )


def plan_summary(plan, family: CopSetFamily, params: StrategyParams) -> dict:
    """JSON-ready overview: set sizes, level sizes, terminal level, deadlines.

    Level i is numbered from 1 and its deadline is its radius.  Each growth
    row compares level i's core A_i with the next level's candidate
    B(A_i, 2^{i-1}) against the cap lam*|A_i| (a diagnostic, not an
    invariant).
    """
    doc = {
        "set_sizes": [len(s) for s in family.sets],
        "total_cops": family.total_cops,
        "oversized": family.oversized,
        "start_vertex": plan.start_vertex,
    }
    if isinstance(plan, PlanFailure):
        doc["outcome"] = "failure"
        doc["reason"] = plan.reason
    else:
        doc["outcome"] = "plan"
        doc["kind"] = plan.kind
        doc["terminal_level"] = plan.terminal_level
        doc["capture_deadline"] = plan.capture_deadline
    doc["levels"] = [
        {
            "index": i,
            "candidate": len(lv.candidate),
            "core": len(lv.core),
            "shell": len(lv.shell),
            "radius": lv.radius,
            "deadline": lv.radius,
        }
        for i, lv in enumerate(plan.levels, 1)
    ]
    doc["growth"] = []
    for i, (lv, nxt) in enumerate(zip(plan.levels, plan.levels[1:]), 1):
        cap = params.lam * len(lv.core)
        doc["growth"].append({
            "level": i,
            "core_size": len(lv.core),
            "ball_size": len(nxt.candidate),
            "lam_cap": cap,
            "lam_cap_held": len(nxt.candidate) <= cap,
        })
    return doc
