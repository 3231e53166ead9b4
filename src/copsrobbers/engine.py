"""Game mechanics: placement, alternating moves with cops first, capture.

A *round* is one cop half-move followed by one robber half-move.  Capture is
checked after each half-move: a cop stepping onto the robber wins, and so does
the robber stepping onto a cop.  Round 0 is placement (cops first, then the
robber, who sees the cop placement).

Strategies are deterministic functions of the visible history.  Cop
strategies use an explicit functional state so games can be replayed and the
exhaustive robber adversary can memoize:

    place(g, cfg)              -> tuple of k start vertices
    move(g, view, state)       -> (tuple of k moves, new state)   # pure

The engine starts every team at state ``None`` and checks that ``place``
fields exactly ``cfg.cop_count`` cops; a strategy repeats neither.

The view carries no round, so a team that keeps time counts rounds in its
state.

``view.robber_position`` is ``None`` when the config hides the robber.
Robber strategies receive the same two-field view, robber always shown, plus
the engine-owned RNG:

    place(g, cop_positions, cfg, rng) -> vertex
    move(g, view, rng)                -> vertex

One round rule serves every game: ``play`` walks one robber line through the
same cop half-move step (move check, capture, the robber's options) that
``expand_game_layers`` applies to every line for the exhaustive adversary,
and both record the line through one transcript builder.  The step numbers
the positions it reaches; the expansion gives each distinct position one
int id, hashing its key once where it occurs, and the records, the
adversary's layers, its line-length label and the transcript walk all
hold ids.  A transcript also carries ``final_state``, the cop strategy's
state after the team's last move.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, StrategyFault
from .graph import (
    UNREACHABLE,
    Graph,
    _check_sources,
    bfs_distances,
    graph_hash,
    is_connected,
    step_toward,
)
from .seeds import make_rng

__all__ = [
    "GameConfig",
    "View",
    "Outcome",
    "Transcript",
    "play",
    "adversarial_robber_search",
    "expand_game_layers",
    "line_lengths",
    "GreedyFarRobber",
    "RandomRobber",
    "ChaserCop",
    "validate_transcript",
    "transcript_to_json",
    "TRANSCRIPT_SCHEMA",
]

TRANSCRIPT_SCHEMA = "copsrobbers.transcript/1"

# Distinct nodes the exhaustive adversary may number: each is expanded once
# (two cops.move calls) and keeps one key and one record, so the bound counts
# the work and the memory alike.  It is checked before each layer, on the
# nodes numbered so far, which include the layer about to be expanded; the
# last layer's nodes are numbered but never expanded, so they are not
# counted.  The largest expansion in the tests, demos, CI and bench pools is
# C450's default guard check, 51,073 nodes.
DEFAULT_NODE_BUDGET = 1 << 18


@dataclass(frozen=True)
class GameConfig:
    cop_count: int
    max_rounds: int
    robber_visible: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.cop_count < 1:
            raise ValueError("need at least one cop")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")


@dataclass(frozen=True)
class View:
    """What a strategy sees when asked to move."""

    cop_positions: tuple[int, ...]
    robber_position: int | None


@dataclass(frozen=True)
class Outcome:
    kind: str  # "caught" | "robber_wins"
    round: int  # capture round, or the cutoff round count


@dataclass(frozen=True)
class Transcript:
    graph_hash: str
    config: GameConfig
    cop_strategy: str
    robber_strategy: str
    cop_placement: tuple[int, ...]
    robber_placement: int
    rounds: tuple[tuple[tuple[int, ...], int | None], ...]
    outcome: Outcome
    # cop strategy state after the team's last move (None if the robber was
    # caught at placement); not part of the serialized transcript
    final_state: object = field(default=None, compare=False, repr=False)

    @property
    def caught(self) -> bool:
        return self.outcome.kind == "caught"


# ---------------------------------------------------------------------------
# The round rule.
#
# A live game position is a node ``(cop_positions, robber_position,
# strategy_state)``, known by an int id: its index in the caller's key list.
# One cop half-move from a node gives a transition record: the cops' moves,
# their new state, whether they captured, and -- otherwise -- the robber's
# options: every legal move in ascending order, paired with -1 for capture or
# with the next node's id.  ``play`` follows one robber line through these
# records; ``expand_game_layers`` builds them for every line.
# ---------------------------------------------------------------------------

class _Trans(NamedTuple):
    moves: tuple[int, ...]
    state2: object
    caught_cop_half: bool
    children: list  # (robber move, -1 for capture or the next node's id)


def _place_cops(g: Graph, cops, cfg: GameConfig) -> tuple[int, ...]:
    placement = tuple(cops.place(g, cfg))
    if len(placement) != cfg.cop_count or not all(0 <= v < g.n for v in placement):
        raise StrategyFault("cops", 0, f"bad placement {placement}: {len(placement)} "
                                       f"cops for a team of {cfg.cop_count}")
    return placement


def _view(cfg: GameConfig, node) -> View:
    cop_pos, r_pos, _ = node
    return View(cop_pos, r_pos if cfg.robber_visible else None)


def _cop_half(g: Graph, closed, cops, cfg: GameConfig, view: View, node, rnd: int,
              number, keys: list) -> _Trans:
    """The cops' checked move from a live node, and the robber's options after
    it; rnd only names the round in a fault.

    ``keys[i]`` is node i's key.  ``number(key, n)`` returns the id a next
    node's key already has, or n, the next free id, for a key it has not
    numbered; that key is then appended to ``keys``.  The expansion passes a
    dict's ``setdefault``, which hashes each key once; ``play`` passes
    ``_new_id``, which hashes none.

    ``closed`` is ``g.closed_neighborhoods()``, fetched once per game or
    expansion by the caller.  The moves are checked only if some cop moved:
    a cop's move is legal if it stays or steps into its closed neighborhood,
    and a target outside ``0..n-1`` is in no closed neighborhood, so it fails
    the same test.  The robber's options are the closed neighborhood of the
    robber's vertex, ascending.
    """
    cop_pos, r_pos, state = node
    moves, state2 = cops.move(g, view, state)
    moves = tuple(moves)
    if len(moves) != cfg.cop_count:
        raise StrategyFault("cops", rnd,
                            f"returned {len(moves)} moves for {cfg.cop_count} cops")
    if moves != cop_pos:
        for a, b in zip(cop_pos, moves):
            if a != b and b not in closed[a]:
                # the first cop to make this move is the first illegal one
                i = list(zip(cop_pos, moves)).index((a, b))
                raise StrategyFault("cops", rnd, f"cop {i} illegal move {a}->{b}")
    if r_pos in moves:
        return _Trans(moves, state2, True, [])
    n = len(keys)
    children = []
    for m in closed[r_pos]:
        if m in moves:
            children.append((m, -1))
            continue
        key = (moves, m, state2)
        i = number(key, n)
        if i == n:
            keys.append(key)
            n += 1
        children.append((m, i))
    return _Trans(moves, state2, False, children)


def _new_id(key, n: int) -> int:
    """A new id for every key: ``play`` follows one line, so it never looks a
    node up."""
    return n


def _transcript(g: Graph, cfg: GameConfig, cops, robber_name: str, placement, r_start: int,
                i: int, depth: int, step, choose) -> Transcript:
    """Walk one robber line from its placement node, id i (unused if the
    robber starts on a cop), for at most depth rounds.

    ``step(i, rnd)`` is the transition record of live node i at round rnd and
    ``choose(i, rec, rnd)`` the robber's move there; a move that is not among
    ``rec.children`` is a robber fault.
    """
    rounds: list[tuple[tuple[int, ...], int | None]] = []
    state, r_pos = None, r_start
    caught = r_start in placement
    while not caught and len(rounds) < depth:
        rnd = len(rounds) + 1
        rec = step(i, rnd)
        state = rec.state2
        m = None
        if rec.caught_cop_half:
            caught = True
        else:
            m = choose(i, rec, rnd)
            for move, child in rec.children:
                if move == m:
                    break
            else:
                raise StrategyFault("robber", rnd, f"illegal move {r_pos}->{m}")
            i, r_pos, caught = child, m, child < 0
        rounds.append((rec.moves, m))
    return Transcript(
        graph_hash=graph_hash(g),
        config=cfg,
        cop_strategy=getattr(cops, "name", type(cops).__name__),
        robber_strategy=robber_name,
        cop_placement=placement,
        robber_placement=r_start,
        rounds=tuple(rounds),
        outcome=Outcome("caught" if caught else "robber_wins", len(rounds)),
        final_state=state,
    )


def play(g: Graph, cops, robber, cfg: GameConfig) -> Transcript:
    """Run one full game; deterministic given strategies and cfg.seed."""
    if not is_connected(g):
        raise ValueError("play requires a connected graph")
    placement = _place_cops(g, cops, cfg)
    rng = make_rng(cfg.seed, "robber")
    r_start = robber.place(g, placement, cfg, rng)
    if not 0 <= r_start < g.n:
        raise StrategyFault("robber", 0, f"bad placement {r_start}")

    closed = g.closed_neighborhoods()
    keys = [(placement, r_start, None)]

    def step(i, rnd):
        node = keys[i]
        return _cop_half(g, closed, cops, cfg, _view(cfg, node), node, rnd, _new_id, keys)

    def choose(i, rec, rnd):
        return robber.move(g, View(rec.moves, keys[i][1]), rng)

    return _transcript(g, cfg, cops, getattr(robber, "name", type(robber).__name__),
                       placement, r_start, 0, cfg.max_rounds, step, choose)


# ---------------------------------------------------------------------------
# Exhaustive robber adversary.
#
# Against a deterministic cop strategy the game tree branches only on robber
# choices, so the reachable positions form a graph of nodes, one per distinct
# (cop positions, robber position, strategy state).  A forward expansion
# numbers and expands each distinct node once, where a line first reaches
# it; a retrograde label then gives every node the longest robber line from
# it, and so, for every line, the latest capture the robber can force.  Both
# work on node ids: a node's key is hashed once where it occurs, as a
# placement or as a robber option.
# ---------------------------------------------------------------------------

def expand_game_layers(g: Graph, cops, cfg: GameConfig, depth: int):
    """Forward-expand all robber lines to the given depth, each distinct node
    once.

    Returns ``(placement, (keys, records), layers)``.  Ids are given in the
    order lines first reach the nodes: ``layers[k]`` is the ``range`` of the
    ids first reached after round k (``layers[0]`` holds the placement
    nodes, robber start ascending).  A line alive after round k stands on a
    node of ``layers[j]`` for some j <= k; a team that counts rounds in its
    state (``ScriptedCop``, ``MeynielCop``) has each node in one layer, so
    there the layers are exactly the nodes alive after each round.  Node i's
    key is ``keys[i] = (cop_positions, robber_position, strategy_state)`` and
    its transition record ``records[i]``, whose children pair each robber
    option, ascending, with -1 for capture or the next node's id; the nodes
    first reached after round ``depth`` alone have no record (``None``).  A
    node's record (the cop half-move, its legality and a second ``move``
    call that checks determinism) is computed once, at its first layer: the
    view carries no round, so a node moves alike at every round.  Before
    each layer is expanded, the nodes numbered so far (the records made and
    to be made) are counted; above ``DEFAULT_NODE_BUDGET``, read at call
    time, the call raises ``ResourceLimitError``.  The graph's
    closed-neighborhood table is fetched once, for every node's move check
    and robber options.
    """
    if depth < 0:
        raise ValueError("depth must not be negative")
    if depth > cfg.max_rounds:
        raise ValueError("depth must not exceed cfg.max_rounds")
    placement = _place_cops(g, cops, cfg)
    keys = [(placement, r0, None) for r0 in range(g.n) if r0 not in placement]
    number = {key: i for i, key in enumerate(keys)}.setdefault  # one hash per call
    layers = [range(len(keys))]
    recs: list = []
    closed = g.closed_neighborhoods()
    for k in range(depth):
        if len(keys) > DEFAULT_NODE_BUDGET:
            raise ResourceLimitError(f"{len(keys)} adversary nodes by round {k} exceed "
                                     f"the budget of {DEFAULT_NODE_BUDGET}")
        for i in layers[k]:
            node = keys[i]
            view = _view(cfg, node)
            rec = _cop_half(g, closed, cops, cfg, view, node, k + 1, number, keys)
            again, st_again = cops.move(g, view, node[2])
            if (tuple(again), st_again) != (rec.moves, rec.state2):
                raise StrategyFault("cops", k + 1, "nondeterministic strategy detected")
            recs.append(rec)
        layers.append(range(len(recs), len(keys)))
    recs += [None] * (len(keys) - len(recs))
    return placement, (keys, recs), layers


def line_lengths(records, ends=None) -> list:
    """``line_lengths(records)[i]``: the most rounds a robber line from node i
    lasts before capture.  With ``ends``, one truth value per node, it is the
    most rounds a line lasts before a node where ``ends`` holds; there it is
    0.  It is ``inf`` where a line can reach a cycle or a node with no record.

    One iterative depth-first pass.  A node is open (read as ``inf``) from
    its first visit until its children are labelled, so a child still open
    closes a cycle.  Roots are taken in descending id: a child of a clocked
    team's node was first reached later and has a higher id, so there each
    node is labelled in one visit.  ``inf`` at a node with no record is
    exact: it is first reached at the cutoff, and a line reaches a node only
    at or after the node's first layer.
    """
    lengths = [None] * len(records) if ends is None else [0 if end else None for end in ends]
    stack = list(range(len(records)))  # the roots, highest id on top
    while stack:
        i = stack.pop()
        if i < 0:  # ~i: its children are labelled now
            i = ~i
        elif lengths[i] is None:
            lengths[i] = math.inf  # open; and a node with no record ends here
            if records[i] is None:
                continue
        else:
            continue
        children = records[i].children
        longest = 0
        for _, c in children:
            if c >= 0:
                t = lengths[c]
                if t is None:  # a first visit: label the children, then i again
                    stack.append(~i)
                    stack += [c for _, c in children if c >= 0 and lengths[c] is None]
                    break
                if t > longest:
                    longest = t
        else:
            lengths[i] = longest + 1
    return lengths


def adversarial_robber_search(g: Graph, cops, cfg: GameConfig, depth: int) -> Transcript:
    """Worst-case robber line against a deterministic cop strategy.

    The returned transcript follows the robber line that survives longest
    (ties broken toward the lowest-id move); the outcome is ``caught`` only
    if every robber line is caught within ``depth`` rounds.
    """
    placement, (keys, recs), layers = expand_game_layers(g, cops, cfg, depth)
    lengths = line_lengths(recs) + [0]  # id -1, a capture, ends a line at once

    def survival(k, i):
        """The capture round under the robber's best play from node i, alive
        after round k (i = -1: caught in round k); inf past the depth cutoff."""
        return k + lengths[i] if k + lengths[i] <= depth else math.inf

    # The robber places to maximize survival; placing onto a cop (survival 0)
    # is dominated but legal, and the only option when cops cover every vertex.
    start = {keys[i][1]: i for i in layers[0]}
    best_r0 = max(range(g.n), key=lambda r0: survival(0, start.get(r0, -1)))

    # the first best move, moves ascending
    return _transcript(g, cfg, cops, "adversarial-search", placement, best_r0,
                       start.get(best_r0, -1), depth, lambda i, rnd: recs[i],
                       lambda i, rec, rnd: max(rec.children, key=lambda o: survival(rnd, o[1]))[0])


# ---------------------------------------------------------------------------
# Baseline robbers.
# ---------------------------------------------------------------------------

def _first_farthest(candidates, dist) -> int:
    """The first candidate farthest from the cops; unreachable counts as infinite."""
    return max(candidates, key=lambda v: math.inf if dist[v] == UNREACHABLE else dist[v])


class GreedyFarRobber:
    """Places and moves as far from the cops as it can; ties -> lowest id.

    ``place`` runs one multi-source BFS from the cops.  ``move`` reads the
    cops' field only at its options, the robber's closed neighbourhood
    N[r], and reads it from the BFS row of each option x: the graph is
    undirected, so d(c, x) = d(x, c), and the least ``row_x[c]`` over the
    cops c is the multi-source field at x, exactly.  Cops that the row
    does not reach are left out; if it reaches none, x counts as infinitely
    far.  Both calls refuse cops off the graph.

    The rows are the graph's kept BFS rows (``Graph._row``), so they live on
    the graph and outlive one robber: a second game on the same graph, and
    the expander's planning before it, share them.  The robber keeps
    returning to a few vertices, so a game pays at most one BFS per
    distinct vertex of its closed neighbourhoods rather than one per move.
    The graph caps its rows at ``graph.ROW_ENTRIES`` list entries and drops
    them all when the next row would pass that.  The worst case is a robber
    that reaches new vertices on every move: it pays up to Δ BFS per move,
    where one multi-source BFS would do.
    """

    name = "greedy-far"

    def place(self, g, cop_positions, cfg, rng):
        return _first_farthest(range(g.n), bfs_distances(g, cop_positions))

    def move(self, g, view, rng):
        """Move (or stay) maximizing the min-distance to the cops; ties -> lowest id."""
        cops = view.cop_positions
        _check_sources(g, cops)
        rows = g._rows
        best, far = None, -1
        for x in g.closed_neighborhoods()[view.robber_position]:
            row = rows.get(x)
            if row is None:
                row = g._row(x)
            d = min(map(row.__getitem__, cops))
            if d == UNREACHABLE:  # some cops stand outside x's component
                d = min((e for e in map(row.__getitem__, cops) if e != UNREACHABLE),
                        default=math.inf)
            if d > far:
                best, far = x, d
        return best


class RandomRobber:
    name = "random"

    def place(self, g, cop_positions, cfg, rng):
        free = [v for v in range(g.n) if v not in cop_positions]
        return rng.choice(free) if free else rng.randrange(g.n)

    def move(self, g, view, rng):
        """Uniform choice among legal moves (neighbors and staying put)."""
        return rng.choice(g.closed_neighborhoods()[view.robber_position])


# ---------------------------------------------------------------------------
# Baseline cops.
# ---------------------------------------------------------------------------

class ChaserCop:
    """Every cop steps along a shortest path toward the visible robber."""

    name = "chaser"

    def __init__(self, placement: Iterable[int] | None = None):
        self._placement = None if placement is None else tuple(placement)

    def place(self, g, cfg):
        if self._placement is not None:
            return self._placement
        return tuple([0] * cfg.cop_count)

    def move(self, g, view, state):
        r = view.robber_position
        if r is None:
            raise ValueError("chaser needs a visible robber")
        dist = g._row(r)
        return tuple(step_toward(g, dist, c) for c in view.cop_positions), state


# ---------------------------------------------------------------------------
# Independent legality validation and serialization.
# ---------------------------------------------------------------------------

def validate_transcript(g: Graph, t: Transcript) -> None:
    """Replay a transcript against the raw graph and the stated rules.

    Raises ValueError on the first violation.  Deliberately reimplements the
    rules from the edge set up rather than reusing the engine's step logic.
    """
    edges = {frozenset(e) for e in g.edges()}

    def step_ok(a, b):
        return a == b or frozenset((a, b)) in edges

    k = t.config.cop_count
    if len(t.cop_placement) != k:
        raise ValueError("placement size does not match cop count")
    if not all(0 <= v < g.n for v in t.cop_placement):
        raise ValueError("cop placement out of range")
    if not 0 <= t.robber_placement < g.n:
        raise ValueError("robber placement out of range")

    cop_pos = t.cop_placement
    r_pos = t.robber_placement
    caught_round = None
    if r_pos in cop_pos:
        caught_round = 0
        if t.rounds:
            raise ValueError("moves recorded after a placement capture")
    for idx, (moves, r_move) in enumerate(t.rounds):
        rnd = idx + 1
        if caught_round is not None:
            raise ValueError(f"moves recorded after capture at round {caught_round}")
        if len(moves) != k:
            raise ValueError(f"round {rnd}: wrong number of cop moves")
        for a, b in zip(cop_pos, moves):
            if not step_ok(a, b):
                raise ValueError(f"round {rnd}: illegal cop move {a}->{b}")
        cop_pos = tuple(moves)
        if r_pos in cop_pos:
            if r_move is not None:
                raise ValueError(f"round {rnd}: robber moved after cop-half capture")
            caught_round = rnd
            continue
        if r_move is None:
            raise ValueError(f"round {rnd}: missing robber move without capture")
        if not step_ok(r_pos, r_move):
            raise ValueError(f"round {rnd}: illegal robber move {r_pos}->{r_move}")
        r_pos = r_move
        if r_pos in cop_pos:
            caught_round = rnd

    if t.outcome.kind == "caught":
        if caught_round != t.outcome.round:
            raise ValueError(
                f"outcome says caught at {t.outcome.round}, replay says {caught_round}"
            )
    elif t.outcome.kind == "robber_wins":
        if caught_round is not None:
            raise ValueError("outcome says robber wins but replay shows a capture")
        if len(t.rounds) != t.outcome.round:
            raise ValueError("robber_wins cutoff does not match recorded rounds")
    else:
        raise ValueError(f"unknown outcome kind {t.outcome.kind!r}")


def transcript_to_json(t: Transcript) -> str:
    """Canonical (byte-stable) JSON for a transcript."""
    doc = {
        "schema": TRANSCRIPT_SCHEMA,
        "graph_hash": t.graph_hash,
        "config": {
            "cop_count": t.config.cop_count,
            "max_rounds": t.config.max_rounds,
            "robber_visible": t.config.robber_visible,
            "seed": t.config.seed,
        },
        "cop_strategy": t.cop_strategy,
        "robber_strategy": t.robber_strategy,
        "cop_placement": list(t.cop_placement),
        "robber_placement": t.robber_placement,
        "rounds": [
            {"cops": list(moves), "robber": r_move} for moves, r_move in t.rounds
        ],
        "outcome": {"kind": t.outcome.kind, "round": t.outcome.round},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
