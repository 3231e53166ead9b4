import importlib
import inspect
import json
import math
import pkgutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copsrobbers
import copsrobbers.graph as graph_mod
from copsrobbers import (
    GameConfig,
    Graph,
    ResourceLimitError,
    StrategyFault,
    Transcript,
    adversarial_robber_search,
    checks,
    engine,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_petersen,
    play,
    transcript_to_json,
    validate_transcript,
)
from copsrobbers.engine import (
    ChaserCop,
    GreedyFarRobber,
    Outcome,
    RandomRobber,
    View,
    expand_game_layers,
    line_lengths,
)
from copsrobbers.checks import confinement_violations
from copsrobbers.expander import ScriptedCop, desk_params, make_expander_cop
from copsrobbers.graph import diameter_pair, shortest_path
from copsrobbers.guard import GuardCop, check_guard_soundness
from copsrobbers.meyniel import MeynielAnalysis, MeynielCop
from copsrobbers.seeds import make_rng
from copsrobbers.solver import SolverCop, cop_number

from conftest import random_connected
from oracles import (greedy_far_oracle, masked_bfs_oracle, per_layer_expansion,
                     robber_minimax_line)


def cfg(k=1, rounds=50, visible=True, seed=0):
    return GameConfig(cop_count=k, max_rounds=rounds, robber_visible=visible, seed=seed)


class HoldCop:
    """Cops that never move from their placement."""

    name = "hold"

    def __init__(self, placement):
        self._placement = tuple(placement)

    def place(self, g, cfg):
        return self._placement

    def move(self, g, view, state):
        return view.cop_positions, state


# ---------------------------------------------------------------------------
# play().
# ---------------------------------------------------------------------------

def test_p2_forced_capture():
    g = gen_path(2)
    t = play(g, ChaserCop([0]), GreedyFarRobber(), cfg())
    assert t.outcome == Outcome("caught", 1)
    assert t.robber_placement == 1
    validate_transcript(g, t)


def test_cops_everywhere_caught_at_placement():
    g = gen_path(3)
    t = play(g, HoldCop([0, 1, 2]), GreedyFarRobber(), cfg(k=3))
    assert t.outcome == Outcome("caught", 0)
    assert t.rounds == ()
    validate_transcript(g, t)


def test_one_cop_loses_c4():
    # the 4-cycle needs two cops, so any single cop fails against greedy
    g = gen_cycle(4)
    t = play(g, ChaserCop([0]), GreedyFarRobber(), cfg(rounds=50))
    assert t.outcome == Outcome("robber_wins", 50)
    validate_transcript(g, t)


def test_play_requires_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        play(g, ChaserCop([0]), GreedyFarRobber(), cfg())


def test_replay_is_byte_identical():
    g = random_connected(9, seed=3)
    c = cfg(k=2, rounds=40, seed=11)
    t1 = play(g, ChaserCop([0, 0]), RandomRobber(), c)
    t2 = play(g, ChaserCop([0, 0]), RandomRobber(), c)
    assert transcript_to_json(t1) == transcript_to_json(t2)
    t3 = play(g, ChaserCop([0, 0]), RandomRobber(), cfg(k=2, rounds=40, seed=12))
    assert transcript_to_json(t1) != transcript_to_json(t3)


class _JumpCop(HoldCop):
    """Two cops that hold on (0, 2) and return `jump` on round `at`; the
    state counts rounds."""

    def __init__(self, jump, at):
        super().__init__([0, 2])
        self._jump, self._at = jump, at

    def move(self, g, view, state):
        rnd = (state or 0) + 1
        return (self._jump if rnd == self._at else view.cop_positions), rnd


def test_illegal_cop_move_faulted():
    class TeleportCop(HoldCop):
        def move(self, g, view, state):
            return (g.n - 1,), state

    g = gen_path(5)
    with pytest.raises(StrategyFault) as exc:
        play(g, TeleportCop([0]), GreedyFarRobber(), cfg())
    assert exc.value.agent == "cops" and exc.value.round == 1

    # play and the expansion fault alike, naming the first illegal cop
    c = GameConfig(cop_count=2, max_rounds=4)
    for jump, message in [
        ((5, 2), "cop 0 illegal move 0->5"),     # past the last vertex, g.n
        ((0, -1), "cop 1 illegal move 2->-1"),   # below the first vertex
        ((0, 4), "cop 1 illegal move 2->4"),     # a vertex, but no neighbor
        ((3, 4), "cop 0 illegal move 0->3"),     # two illegal cops: the lower is named
    ]:
        for at in (1, 2):
            with pytest.raises(StrategyFault) as played:
                play(g, _JumpCop(jump, at), GreedyFarRobber(), c)
            with pytest.raises(StrategyFault) as expanded:
                expand_game_layers(g, _JumpCop(jump, at), c, c.max_rounds)
            for exc in (played, expanded):
                assert (exc.value.agent, exc.value.round) == ("cops", at)
                assert str(exc.value) == f"cops strategy fault at round {at}: {message}"


def test_invisible_mode_hides_robber():
    seen = []

    class Spy(HoldCop):
        def move(self, g, view, state):
            seen.append(view.robber_position)
            return view.cop_positions, state

    g = gen_path(4)
    play(g, Spy([0]), GreedyFarRobber(), cfg(rounds=3, visible=False))
    assert seen == [None, None, None]


# ---------------------------------------------------------------------------
# Baseline robbers.
# ---------------------------------------------------------------------------

def test_greedy_far_moves_away():
    g = gen_path(5)
    v = View(cop_positions=(0,), robber_position=2)
    assert GreedyFarRobber().move(g, v, None) == 3


def test_greedy_tie_takes_lowest_id():
    # all moves equally bad on a complete graph: stay at the lowest option
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    v = View(cop_positions=(0,), robber_position=2)
    assert GreedyFarRobber().move(k3, v, None) == 1


# One call of a greedy-robber sequence: the graph (0 connected, 1 not), a
# repeat of the last cops, the cops passed as the one list mutated in place,
# place rather than move, the cop vertices and the robber's vertex.
GREEDY_CALL = st.tuples(st.integers(0, 1), st.booleans(), st.booleans(), st.booleans(),
                        st.lists(st.integers(0, 5), min_size=1, max_size=5),
                        st.integers(0, 8))


def _greedy_graphs():
    return random_connected(9, seed=7), Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])


@settings(max_examples=80, deadline=None)
@given(st.lists(GREEDY_CALL, min_size=1, max_size=14), st.booleans())
# rows from the first graph, then the second graph from the same vertices:
# the rows belong to their graph
@example([(0, False, False, False, [1, 1, 2], 0), (1, False, False, False, [0, 3], 2),
          (1, False, False, True, [1, 1, 5], 2), (0, False, False, False, [1, 1, 5], 2)], False)
# the one list mutated in place between calls
@example([(0, False, True, False, [1, 1, 2], 0), (0, False, True, False, [1, 1, 5], 0),
          (0, True, True, True, [], 0), (0, False, True, False, [1, 3, 5], 4)], False)
# vertex 1 has five options: three rows fill the capped store, which is
# cleared inside the move, and again on the next
@example([(0, False, False, False, [0, 5], 1), (0, False, False, False, [3], 2),
          (0, False, False, False, [4, 4], 1)], True)
def test_greedy_far_matches_stateless_oracle(calls, capped):
    """One robber over a sequence of views against a fresh field per call:
    repeated cop tuples, stacks that form and dissolve, two graphs in turn,
    a cop list mutated in place and direct calls on a disconnected graph.
    Capped, each graph's store may hold three rows of the larger graph, so
    it is cleared in mid-sequence and its answers must not change."""
    graphs = _greedy_graphs()
    cap = 3 * max(g.n for g in graphs) if capped else graph_mod.ROW_ENTRIES
    robber = GreedyFarRobber()
    held: list[int] = []
    last = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "ROW_ENTRIES", cap)
        for which, repeat, in_place, place, cops, r in calls:
            g = graphs[which]
            cops = last if repeat else cops
            last = cops
            if in_place:
                held[:] = cops
                arg = held
            else:
                arg = tuple(cops)
            r %= g.n
            if place:
                got, want = robber.place(g, arg, None, None), greedy_far_oracle(g, cops, range(g.n))
            else:
                got = robber.move(g, View(arg, r), None)
                want = greedy_far_oracle(g, cops, g.closed_neighborhoods()[r])
            assert got == want
            assert all(len(h._rows) * h.n <= cap for h in graphs)


def test_greedy_far_refuses_cops_off_the_graph():
    g = gen_path(5)
    for cops in ((2, 2, 5), (2, 2, -1), ()):
        with pytest.raises(ValueError):
            GreedyFarRobber().place(g, cops, None, None)
        with pytest.raises(ValueError):
            GreedyFarRobber().move(g, View(cops, 0), None)
        robber = GreedyFarRobber()
        robber.move(g, View((2,), 0), None)  # with rows kept from a valid call
        with pytest.raises(ValueError):
            robber.move(g, View(cops, 0), None)


def _watch_greedy(monkeypatch, robber, g):
    """Record the whole-graph BFS passes on g that ``robber`` runs, and the
    rows g keeps after each of its calls; returns both lists."""
    passes, held, inside = [], [], []
    bfs = graph_mod._bfs

    def counting_bfs(adj, dist, sources):
        if inside and adj is g._adj:
            passes.append(tuple(sources))
        return bfs(adj, dist, sources)

    def watched(call):
        def run(*args):
            inside.append(call)
            try:
                return call(*args)
            finally:
                inside.pop()
                held.append(len(g._rows))
        return run

    monkeypatch.setattr(graph_mod, "_bfs", counting_bfs)
    monkeypatch.setattr(robber, "place", watched(robber.place))
    monkeypatch.setattr(robber, "move", watched(robber.move))
    return passes, held


def _robber_options(g, t):
    """Every vertex of the closed neighbourhoods the robber moved from."""
    moves = [m for _, m in t.rounds if m is not None]
    closed = g.closed_neighborhoods()
    return {x for r in (t.robber_placement, *moves[:-1]) for x in closed[r]}


def test_greedy_far_keeps_a_bfs_row_per_option_in_a_meyniel_game(monkeypatch):
    """Against MeynielCop on the 12x12 grid the robber runs one BFS to place
    and then one per distinct vertex of its closed neighbourhoods, fewer
    than its moves.  The graph then keeps the rows the analysis's diameter
    scan kept, the robber's options and the p0 row of each guard the game
    built, and nothing else; every kept row is the BFS row from its
    vertex."""
    g = gen_grid(12, 12)
    analysis = MeynielAnalysis(g, 3, desk_params(g), seed=0)
    before = set(g._rows)
    cops = MeynielCop(analysis)
    c = GameConfig(cop_count=analysis.pool_size, max_rounds=analysis.timeline_bound())
    robber = GreedyFarRobber()
    passes, _ = _watch_greedy(monkeypatch, robber, g)
    t = play(g, cops, robber, c)
    monkeypatch.undo()
    assert t.caught
    options = _robber_options(g, t)
    moves = sum(m is not None for _, m in t.rounds)
    assert 0 < len(passes) <= 1 + len(options) and len(passes) < moves
    guards = {guard.path[0] for node in analysis.nodes if node.built is not None
              for _, _, guard in node.built.guards}
    assert guards and not guards <= before | options
    assert set(g._rows) == before | options | guards
    for x, row in g._rows.items():
        assert row == masked_bfs_oracle(g, (x,))


def test_greedy_far_rows_stay_under_the_cap_on_a_long_path(monkeypatch):
    """On a 60-vertex path one cop holds vertex 0 while another walks in
    from the far end, so the robber keeps backing onto new vertices.  Under
    a cap of three rows the store is cleared again and again but never
    holds more, and the game is the uncapped one on an equal graph."""
    g = gen_path(60)
    cops = ScriptedCop("sweep", (0, 59), ((0,), tuple(range(59, -1, -1))))
    c = cfg(k=2, rounds=80)
    free = play(gen_path(60), cops, GreedyFarRobber(), c)
    monkeypatch.setattr(graph_mod, "ROW_ENTRIES", 3 * g.n)
    robber = GreedyFarRobber()
    passes, held = _watch_greedy(monkeypatch, robber, g)
    t = play(g, cops, robber, c)
    assert t.caught and t.rounds == free.rounds
    assert held and max(held) <= 3
    assert len(passes) > 1 + len(_robber_options(g, t))  # cleared rows were built again


def test_random_robber_reproducible():
    g = gen_cycle(8)
    v = View(cop_positions=(0,), robber_position=4)
    a = [RandomRobber().move(g, v, make_rng(99)) for _ in range(5)]
    b = [RandomRobber().move(g, v, make_rng(99)) for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# Adversarial search.
# ---------------------------------------------------------------------------

def test_p3_center_catches_all_lines():
    g = gen_path(3)
    t = adversarial_robber_search(g, ChaserCop([1]), cfg(rounds=10), 5)
    assert t.caught and t.outcome.round <= 1


def test_c4_robber_survives_any_single_cop():
    g = gen_cycle(4)
    t = adversarial_robber_search(g, ChaserCop([0]), cfg(rounds=40), 30)
    assert t.outcome == Outcome("robber_wins", 30)
    validate_transcript(g, t)


def test_adversary_at_least_as_good_as_fixed_robbers():
    g = random_connected(8, seed=5)
    c = cfg(rounds=30, seed=2)
    worst = adversarial_robber_search(g, ChaserCop([0]), c, 30)

    def survival(t):
        return float("inf") if not t.caught else t.outcome.round

    for robber in (GreedyFarRobber(), RandomRobber()):
        t = play(g, ChaserCop([0]), robber, c)
        assert survival(worst) >= survival(t)


def test_nondeterministic_strategy_detected():
    class FlipFlop:
        name = "flipflop"

        def __init__(self):
            self.n_calls = 0

        def place(self, g, cfg):
            return (0,)

        def move(self, g, view, state):
            self.n_calls += 1
            pos = view.cop_positions[0]
            nbrs = g.neighbors(pos)
            return (nbrs[self.n_calls % len(nbrs)],), state

    g = gen_cycle(5)
    with pytest.raises(StrategyFault) as exc:
        adversarial_robber_search(g, FlipFlop(), cfg(rounds=10), 5)
    assert "nondeterministic" in str(exc.value)


@pytest.mark.parametrize("placement", [(7,), (-1,)])
def test_adversary_rejects_out_of_range_placement(placement):
    # the same placement check as play: faulted at round 0, never read through
    # Python's negative indexing or reported as an illegal round-1 move
    with pytest.raises(StrategyFault) as exc:
        adversarial_robber_search(gen_path(4), HoldCop(placement), cfg(rounds=5), 3)
    assert (exc.value.agent, exc.value.round) == ("cops", 0)
    assert "bad placement" in str(exc.value)


def _assert_line_of_layers(g, cops, robber, c):
    """The game `play` records is one of the lines `expand_game_layers`
    expands: its node after round k was first reached by round k and lies in
    the per-layer oracle's layer k, every record holds the recorded cop
    moves, and the capture round and final strategy state agree."""
    t = play(g, cops, robber, c)
    placement, (keys, recs), layers = expand_game_layers(g, cops, c, c.max_rounds)
    ref_layers = per_layer_expansion(g, cops, c, c.max_rounds)[2]
    assert t.cop_placement == placement
    ids = {key: i for i, key in enumerate(keys)}
    node, state, caught_at = (placement, t.robber_placement, None), None, None
    if t.robber_placement in placement:
        caught_at = 0
    for k, (moves, r_move) in enumerate(t.rounds):
        assert ids[node] < layers[k].stop and node in ref_layers[k]
        rec = recs[ids[node]]
        assert moves == rec.moves and (r_move is None) == rec.caught_cop_half
        state = rec.state2
        child = -1 if r_move is None else dict(rec.children)[r_move]
        if child < 0:
            caught_at = k + 1
            break
        node = keys[child]
    if caught_at is None:
        assert ids[node] < layers[c.max_rounds].stop and node in ref_layers[c.max_rounds]
        assert t.outcome == Outcome("robber_wins", c.max_rounds)
    else:
        assert t.outcome == Outcome("caught", caught_at)
        assert len(t.rounds) == caught_at
    assert t.final_state == state


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_play_follows_an_expanded_line(seed):
    g = random_connected(7 + seed, seed=seed, p=0.35)
    k = cop_number(g, 3)
    teams = [
        (1, ChaserCop()),
        (2, ChaserCop([0, g.n - 1])),
        (1, HoldCop([seed % g.n])),
        (2, HoldCop([0, g.n // 2])),
        (k, SolverCop(g, k)),
    ]
    for cop_count, cops in teams:
        for robber in (GreedyFarRobber(), RandomRobber()):
            c = cfg(k=cop_count, rounds=12, seed=seed)
            _assert_line_of_layers(g, cops, robber, c)


class CountingCop:
    """Forwards to a cop team and counts its move calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def place(self, g, c):
        return self.inner.place(g, c)

    def move(self, g, view, state):
        self.calls += 1
        return self.inner.move(g, view, state)


def test_node_budget_stops_the_expansion_before_full_depth(monkeypatch):
    # checked before each layer, against the nodes numbered so far: a node
    # that several layers reach counts once
    g, depth = gen_grid(5, 5), 8
    c = cfg(rounds=depth)
    _, _, layers = expand_game_layers(g, ChaserCop([12]), c, depth)
    assert [len(layer) for layer in layers] == [24, 32, 36, 28, 16, 7, 3, 0, 0]
    # held cops: the oracle's every layer repeats the 24 placement nodes
    assert {len(layer) for layer in per_layer_expansion(g, HoldCop([12]), c, depth)[2]} == {24}
    monkeypatch.setattr(engine, "DEFAULT_NODE_BUDGET", 24)
    expand_game_layers(g, HoldCop([12]), c, depth)
    # a budget of exactly the nodes expanded is enough, one less is not
    monkeypatch.setattr(engine, "DEFAULT_NODE_BUDGET", layers[depth - 1].stop)
    expand_game_layers(g, ChaserCop([12]), c, depth)
    monkeypatch.setattr(engine, "DEFAULT_NODE_BUDGET", layers[depth - 1].stop - 1)
    with pytest.raises(ResourceLimitError):
        expand_game_layers(g, ChaserCop([12]), c, depth)
    # the nodes first reached by round 1: the check before layer 2 fires, and
    # no node past them is expanded (each distinct node calls move twice)
    monkeypatch.setattr(engine, "DEFAULT_NODE_BUDGET", layers[1].stop)
    cops = CountingCop(ChaserCop([12]))
    with pytest.raises(ResourceLimitError,
                       match="^92 adversary nodes by round 2 exceed the budget of 56$"):
        expand_game_layers(g, cops, c, depth)
    assert cops.calls == 2 * layers[1].stop == 2 * 56


class _CountedState:
    """A strategy state that counts the hashes of every state of its team."""

    def __init__(self, value, hashes):
        self.value, self.hashes = value, hashes

    def __eq__(self, other):
        return isinstance(other, _CountedState) and self.value == other.value

    def __hash__(self):
        self.hashes[0] += 1
        return hash(self.value)


class _CountedChaser(ChaserCop):
    """Chases, keeping the round modulo 3 in a state that counts its hashes,
    so that nodes repeat across layers."""

    def __init__(self, placement):
        super().__init__(placement)
        self.hashes = [0]

    def move(self, g, view, state):
        moves, _ = super().move(g, view, None)
        rnd = 0 if state is None else state.value
        return moves, _CountedState((rnd + 1) % 3, self.hashes)


def test_each_node_key_is_hashed_once_per_occurrence():
    # one hash per placement node, and one per robber option of each distinct
    # expanded node that is not a capture; the backward induction and the
    # transcript walk hash no key, and play, which follows one line, none
    g, depth = gen_cycle(24), 20
    c = cfg(rounds=depth)
    cops = _CountedChaser([0])
    _, (keys, recs), layers = expand_game_layers(g, cops, c, depth)
    occurrences = len(layers[0]) + sum(child >= 0 for rec in recs if rec is not None
                                       for _, child in rec.children)
    assert 0 < cops.hashes[0] <= occurrences
    expanded = cops.hashes[0]
    cops.hashes[0] = 0
    t = adversarial_robber_search(g, cops, c, depth)
    assert not t.caught and cops.hashes[0] == expanded
    cops.hashes[0] = 0
    assert not play(g, cops, GreedyFarRobber(), c).caught
    assert cops.hashes[0] == 0
    # some node repeats across the per-layer oracle's layers
    assert sum(map(len, per_layer_expansion(g, cops, c, depth)[2])) > len(keys)


def test_line_lengths_are_infinite_on_a_cycle():
    # held cops on C6: staying put is a one-node cycle; one chaser on C6 is
    # outrun around the cycle; both catch only a robber next to the cop
    inf = math.inf
    g = gen_cycle(6)
    for cops, want in [(HoldCop([0]), [inf] * 5), (ChaserCop([0]), [1, inf, inf, inf, 1])]:
        _, (keys, recs), layers = expand_game_layers(g, cops, cfg(rounds=4), 4)
        assert [keys[i][1] for i in layers[0]] == [1, 2, 3, 4, 5]
        assert [line_lengths(recs)[i] for i in layers[0]] == want


def test_line_lengths_at_the_cutoff():
    # a chaser from 0 on P5 catches every robber by round 4 (the robber on 1
    # in round 1); expanded for 3 rounds, the lines past them reach nodes
    # with no record, where the length is inf.  With ends at the nodes with
    # the cop on 2, a line lasts 2 rounds before one, whatever the cutoff
    g, inf = gen_path(5), math.inf
    for depth, want in [(3, [1, inf, inf, inf]), (4, [1, 4, 4, 4]), (6, [1, 4, 4, 4])]:
        _, (keys, recs), layers = expand_game_layers(g, ChaserCop([0]), cfg(rounds=6), depth)
        lengths = line_lengths(recs)
        assert [lengths[i] for i in layers[0]] == want
        assert all(lengths[i] == inf for i, rec in enumerate(recs) if rec is None)
        ends = [cops == (2,) for cops, _, _ in keys]
        assert [line_lengths(recs, ends)[i] for i in layers[0]] == [1, 2, 2, 2]


def test_negative_depth_rejected():
    for search in (expand_game_layers, adversarial_robber_search):
        with pytest.raises(ValueError, match="negative"):
            search(gen_cycle(6), HoldCop([0]), cfg(rounds=5), -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.floats(0.25, 0.8), st.integers(0, 10**6), st.integers(1, 6))
def test_adversary_matches_plain_minimax(n, p, seed, depth):
    # the layered backward induction against a memoized recursion over robber
    # lines: the same value, and the same line under lowest-id tie-breaks
    g = random_connected(n, seed=seed, p=p)
    k = cop_number(g, 2)
    _, u, v = diameter_pair(g)
    expander, family, _, _ = make_expander_cop(g, desk_params(g, lam=1.5, density=0.9), seed)
    teams = [
        (1, HoldCop([seed % n])),
        (1, ChaserCop()),
        (k, SolverCop(g, k)),
        (1, GuardCop(g, shortest_path(g, u, v))),
        (family.total_cops, expander),
    ]
    for cop_count, cops in teams:
        c = cfg(k=cop_count, rounds=depth)
        t = adversarial_robber_search(g, cops, c, depth)
        value, r0, rounds = robber_minimax_line(g, cops, c, depth)
        assert (t.caught, t.outcome.round) == (
            (True, value) if value < math.inf else (False, depth))
        assert (t.robber_placement, t.rounds) == (r0, rounds)
        validate_transcript(g, t)


# ---------------------------------------------------------------------------
# Round-free expansion: every team's node is numbered and its record computed
# once, at its first layer, against the per-layer oracle, which repeats it in
# every layer that holds it.
# ---------------------------------------------------------------------------

def _expander(g, seed):
    return make_expander_cop(g, desk_params(g, lam=1.5, density=0.9), seed)[0]


def _blind(g, seed):
    """An unkeyed team that never reads the robber, as invisible_mode builds."""
    keyed = _expander(g, seed)
    return ScriptedCop("blind", keyed.homes, keyed.tracks[g.n - 1])


def _meyniel(g, seed):
    cop = MeynielCop(MeynielAnalysis(g, 3, desk_params(g, lam=1.5, density=0.9), seed))
    a = cop.analysis
    return cop, cfg(k=a.pool_size, rounds=a.timeline_bound())


def _fielded(team, depth, visible=True):
    return team, cfg(k=len(team.homes), rounds=depth, visible=visible)


def _solver(g, depth):
    k = cop_number(g, 3)
    return SolverCop(g, k), cfg(k=k, rounds=depth)


# every kind of cop team, built on g for `depth` rounds: (team, config); the
# recursion runs to its own timeline bound
_TEAMS = {
    "GuardCop": lambda g, depth, seed: (
        GuardCop(g, shortest_path(g, *diameter_pair(g)[1:])), cfg(rounds=depth)),
    "SolverCop": lambda g, depth, seed: _solver(g, depth),
    "HoldCop": lambda g, depth, seed: (HoldCop([0, g.n // 2]), cfg(k=2, rounds=depth)),
    "ChaserCop": lambda g, depth, seed: (ChaserCop(), cfg(rounds=depth)),
    "ScriptedCop": lambda g, depth, seed: _fielded(_expander(g, seed), depth),
    "blind-ScriptedCop": lambda g, depth, seed: _fielded(_blind(g, seed), depth, visible=False),
    "MeynielCop": lambda g, depth, seed: _meyniel(g, seed),
}

_GRAPHS = {"C30": gen_cycle(30), "grid4x8": gen_grid(4, 8), "grid6x10": gen_grid(6, 10),
           "petersen": gen_petersen(), "C20": gen_cycle(20), "grid4x5": gen_grid(4, 5),
           "C8": gen_cycle(8)}

_CASES = ([(gn, team) for gn in ("C30", "grid4x8", "grid6x10", "petersen")
           for team in ("GuardCop", "SolverCop", "HoldCop", "ChaserCop")]
          + [(gn, team) for gn in ("C20", "grid4x5", "petersen")
             for team in ("ScriptedCop", "MeynielCop")]
          + [(gn, "blind-ScriptedCop") for gn in ("petersen", "C8")])


def _is_cop_team(cls) -> bool:
    place = getattr(cls, "place", None)
    return (callable(getattr(cls, "move", None)) and callable(place)
            and list(inspect.signature(place).parameters) == ["self", "g", "cfg"])


def test_every_cop_team_class_is_checked_against_the_per_layer_oracle():
    teams = set()
    for info in pkgutil.iter_modules(copsrobbers.__path__):
        module = importlib.import_module(f"copsrobbers.{info.name}")
        teams |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and _is_cop_team(cls)}
    g = gen_petersen()
    # HoldCop is this file's fixture, not a package class
    assert teams == {type(make(g, 4, 0)[0]) for make in _TEAMS.values()} - {HoldCop}


def _assert_same_as_per_layer(g, cops, c, clocked):
    """The expansion to c.max_rounds, its ids mapped back to node keys, equals
    the per-layer oracle's: the keys are the oracle's layer keys, each at its
    first occurrence, in order; ``layers[k]`` holds those first reached after
    round k; and every record's moves, state, capture flag and children, in
    order, are the oracle's at every layer that holds the node.  Each
    distinct node has one id and calls ``move`` twice.  A clocked team's
    nodes never repeat, so its layers are the oracle's."""
    counted = CountingCop(cops)
    placement, (keys, recs), layers = expand_game_layers(g, counted, c, c.max_rounds)
    ref_placement, _, ref_layers = per_layer_expansion(g, cops, c, c.max_rounds)
    assert placement == ref_placement
    assert len(set(keys)) == len(keys) == len(recs)
    assert keys == list(dict.fromkeys(key for layer in ref_layers for key in layer))
    first = [[keys[i] for i in layer] for layer in layers]
    assert first == [[key for key in layer if key not in set().union(*ref_layers[:k])]
                     for k, layer in enumerate(ref_layers)]
    if clocked:
        assert first == [list(layer) for layer in ref_layers]
    assert counted.calls == 2 * sum(rec is not None for rec in recs) == 2 * layers[-1].start
    ids = {key: i for i, key in enumerate(keys)}
    for ref_layer in ref_layers[:-1]:
        for key, (moves, state2, caught, children) in ref_layer.items():
            rec = recs[ids[key]]
            assert (rec.moves, rec.state2, rec.caught_cop_half) == (moves, state2, caught)
            assert [(m, "caught" if child < 0 else keys[child]) for m, child in rec.children] == \
                list(children.items())


_CLOCKED = {"ScriptedCop", "blind-ScriptedCop", "MeynielCop"}


@pytest.mark.parametrize("gname, team", _CASES, ids=[f"{gn}-{team}" for gn, team in _CASES])
def test_round_free_expansion_matches_per_layer(gname, team):
    g = _GRAPHS[gname]
    cops, c = _TEAMS[team](g, 2 * diameter_pair(g)[0] + 4, 0)
    _assert_same_as_per_layer(g, cops, c, team in _CLOCKED)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.floats(0.2, 0.8), st.integers(0, 10**6), st.integers(1, 10))
def test_round_free_expansion_matches_per_layer_on_random_graphs(n, p, seed, depth):
    g = random_connected(n, seed=seed, p=p)
    for team, make in _TEAMS.items():
        _assert_same_as_per_layer(g, *make(g, depth, seed), team in _CLOCKED)


def test_a_team_reading_the_round_fails():
    class ParityCop(ChaserCop):
        """Chases on odd rounds and holds on even ones."""

        def move(self, g, view, state):
            if view.round % 2:
                return super().move(g, view, state)
            return view.cop_positions, state

    g = gen_cycle(30)
    with pytest.raises(AttributeError):
        expand_game_layers(g, ParityCop([0]), cfg(rounds=12), 12)
    with pytest.raises(AttributeError):
        play(g, ParityCop([0]), GreedyFarRobber(), cfg(rounds=12))


def test_depth_capped_by_max_rounds():
    with pytest.raises(ValueError):
        adversarial_robber_search(gen_path(3), ChaserCop([0]), cfg(rounds=5), 6)


def test_callers_read_the_expansion_by_position(monkeypatch):
    # a wrapper that hands back the expansion as a plain tuple, as a tracer
    # counting layer nodes does, changes nothing its callers report
    g = gen_grid(4, 5)
    path = shortest_path(g, *diameter_pair(g)[1:])
    team, _, plans, _ = make_expander_cop(g, desk_params(g, lam=1.5, density=0.9), 3)
    deadline = max(p.capture_deadline for p in plans.values())

    def reports():
        t = adversarial_robber_search(g, GuardCop(g, path), cfg(rounds=14), 14)
        return (check_guard_soundness(g, path), confinement_violations(g, team, plans, deadline),
                transcript_to_json(t), t.final_state)

    before = reports()
    real, calls = engine.expand_game_layers, []

    def expand_game_layers(*args, **kwargs):
        calls.append(args)
        placement, nodes, layers = real(*args, **kwargs)
        return tuple([placement, nodes, layers])

    monkeypatch.setattr(engine, "expand_game_layers", expand_game_layers)
    # checks binds the name when it is imported
    monkeypatch.setattr(checks, "expand_game_layers", expand_game_layers)
    assert reports() == before
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Transcript validation and serialization.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cops, robber, message", [
    (1, 3, None),                                       # a step and a stay are legal
    (2, 3, "round 1: illegal cop move 0->2"),           # a vertex, but no neighbour
    (4, 3, "round 1: illegal cop move 0->4"),           # past the last vertex, g.n
    (-1, 3, "round 1: illegal cop move 0->-1"),         # below the first vertex
    (0, 1, "round 1: illegal robber move 3->1"),
    (0, 4, "round 1: illegal robber move 3->4"),
], ids=["legal", "cop-jump", "cop-past-n", "cop-negative", "robber-jump", "robber-past-n"])
def test_validator_checks_each_step_against_the_edge_list(cops, robber, message):
    g = gen_path(4)
    t = Transcript(graph_hash="h", config=cfg(rounds=1), cop_strategy="c",
                   robber_strategy="r", cop_placement=(0,), robber_placement=3,
                   rounds=(((cops,), robber),), outcome=Outcome("robber_wins", 1))
    if message is None:
        validate_transcript(g, t)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_transcript(g, t)


def test_validator_rejects_corruption():
    g = gen_path(4)
    t = play(g, ChaserCop([0]), GreedyFarRobber(), cfg(rounds=20))
    assert t.caught
    # illegal cop jump
    bad_rounds = ((t.cop_placement, 3),) + t.rounds
    bad = Transcript(
        graph_hash=t.graph_hash, config=t.config, cop_strategy=t.cop_strategy,
        robber_strategy=t.robber_strategy, cop_placement=(3,),
        robber_placement=t.robber_placement, rounds=bad_rounds, outcome=t.outcome,
    )
    with pytest.raises(ValueError):
        validate_transcript(g, bad)
    # wrong outcome round
    bad2 = Transcript(
        graph_hash=t.graph_hash, config=t.config, cop_strategy=t.cop_strategy,
        robber_strategy=t.robber_strategy, cop_placement=t.cop_placement,
        robber_placement=t.robber_placement, rounds=t.rounds,
        outcome=Outcome("caught", t.outcome.round + 1),
    )
    with pytest.raises(ValueError):
        validate_transcript(g, bad2)


def test_transcript_json_schema():
    g = gen_path(3)
    t = play(g, ChaserCop([0]), GreedyFarRobber(), cfg())
    doc = json.loads(transcript_to_json(t))
    assert doc["schema"] == "copsrobbers.transcript/1"
    assert set(doc) == {
        "schema", "graph_hash", "config", "cop_strategy", "robber_strategy",
        "cop_placement", "robber_placement", "rounds", "outcome",
    }
    assert doc["config"]["seed"] == 0
