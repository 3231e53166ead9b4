
import pytest

from copsrobbers import (
    GameConfig,
    Graph,
    StrategyFault,
    adversarial_robber_search,
    diameter,
    diameter_pair,
    gen_cycle,
    gen_grid,
    gen_path,
    play,
    settle_bound,
    shadow,
    shortest_path,
)
from copsrobbers import engine, guard
from copsrobbers.engine import GreedyFarRobber, RandomRobber, View
from copsrobbers.guard import GuardCop, check_guard_soundness

from conftest import random_connected
from oracles import masked_bfs_oracle, per_layer_expansion


def test_shadow_on_path_is_identity():
    g = gen_cycle(8)
    path = shortest_path(g, 0, 3)
    for j, p in enumerate(path):
        assert shadow(g, path, p) == j


def test_shadow_clamps_far_robber():
    g = gen_path(10)
    path = [0, 1, 2]
    assert shadow(g, path, 9) == 2


def test_shadow_c6_example():
    assert shadow(gen_cycle(6), [0, 1, 2, 3], 5) == 1


def test_shadow_rejects_non_geodesic():
    g = gen_cycle(6)
    with pytest.raises(ValueError):
        shadow(g, [0, 1, 2, 3, 4], 5)  # length 4 but d(0,4)=2
    with pytest.raises(ValueError):
        shadow(g, [0, 2], 5)  # not even a path


def test_guard_metrics_are_kept_rows():
    # the approach is g's kept row from p0, handed out uncopied; a component
    # guard's shadow is the row it is given, the subgraph's kept row, written
    # back to g's ids
    g = gen_grid(5, 6)
    path = shortest_path(g, 0, 29)
    cop = GuardCop(g, path)
    assert cop.approach is g._row(path[0]) and cop.dist0 is cop.approach
    members = [v for v in range(g.n) if v % 5 < 3]  # the three left columns
    h = Graph(len(members), [(members.index(a), members.index(b))
                             for a, b in g.edges() if a in members and b in members])
    side = GuardCop(g, [0, 1, 2, 7], component=(h._row(0), members))
    assert side.approach is g._row(0) and list(h._rows) == [0]
    assert [side.dist0[v] for v in members] == h._row(0)
    masked = masked_bfs_oracle(g, (0,), members)
    assert side.dist0 == masked and masked != g._row(0)


@pytest.mark.parametrize("r", [-1, -8, 8, 100])
def test_shadow_rejects_a_robber_outside_the_graph(r):
    # -1 would otherwise read the last vertex's distance: the shadow of 7
    g = gen_cycle(8)
    assert shadow(g, [0, 1, 2, 3, 4], 7) == 1
    with pytest.raises(ValueError, match=rf"vertex {r} outside \[0, 8\)"):
        shadow(g, [0, 1, 2, 3, 4], r)


@pytest.mark.parametrize("path", [(999, 1000), (0, 999), (-1, 0), (9,), (-1,)])
def test_guard_cop_rejects_vertices_outside_the_graph(path):
    # checked before any adjacency is read: -1 would index the last vertex's list
    with pytest.raises(ValueError, match=r"path vertex -?\d+ outside \[0, 9\)"):
        GuardCop(gen_grid(3, 3), path)


def test_guard_cop_refuses_hidden_robber():
    g = gen_path(4)
    cop = GuardCop(g, (0, 1, 2))
    with pytest.raises(ValueError):
        cop.move(g, View(cop_positions=(3,), robber_position=None), None)


def test_stationary_robber_settles_then_guards():
    g = gen_grid(3, 3)
    path = shortest_path(g, 0, 8)
    guard = GuardCop(g, path)
    robber = 6
    on_shadow = path[guard.shadow_index(robber)]
    cop = 4  # off the path: approach p_0, then walk along the path
    for _ in range(settle_bound(g, path)):
        cop = guard.step(g, cop, robber)
        if cop == on_shadow:
            break
    assert cop == on_shadow
    # stays on the shadow forever after
    for _ in range(5):
        cop = guard.step(g, cop, robber)
        assert cop == on_shadow


def test_guarding_captures_robber_on_path():
    g = gen_cycle(6)
    # cop already on the shadow of a robber standing on the path
    guard = GuardCop(g, (0, 1, 2, 3))
    assert guard.step(g, 2, 2) == 2  # robber moved onto p_2 under the cop: grab
    assert guard.step(g, 2, 3) == 3  # robber on p_3, shadow is p_3, cop adjacent


def test_shadow_lipschitz_along_transcripts():
    for seed in range(6):
        g = random_connected(10, seed=seed)
        path = shortest_path(g, 0, max(range(g.n), key=lambda v: len(shortest_path(g, 0, v))))
        cop = GuardCop(g, path)
        cfg = GameConfig(cop_count=1, max_rounds=30, seed=seed)
        t = play(g, cop, RandomRobber(), cfg)
        prev = shadow(g, path, t.robber_placement)
        for _, r_move in t.rounds:
            if r_move is None:
                break
            cur = shadow(g, path, r_move)
            assert abs(cur - prev) <= 1
            prev = cur


def test_settle_bound_examples():
    g = gen_cycle(6)
    assert settle_bound(g, [0]) == diameter(g)
    assert settle_bound(g, [0, 1, 2, 3]) == 6
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert settle_bound(k4, [0, 1]) == 2


def test_c6_guard_confines_robber():
    # after the settle bound every surviving robber line lives in {4, 5}
    g = gen_cycle(6)
    path = [0, 1, 2, 3]
    cop = GuardCop(g, path)
    bound = settle_bound(g, path)
    depth = bound + 6
    cfg = GameConfig(cop_count=1, max_rounds=depth, seed=0)
    layers = per_layer_expansion(g, cop, cfg, depth)[2]
    assert all(layers[bound:depth])
    for k in range(bound, depth):
        for (_, r_pos, _), (_, _, caught, _) in layers[k].items():
            if r_pos in path:
                assert caught  # stepping onto the path is fatal
            else:
                assert r_pos in (4, 5)
    # and some line does survive: one cop cannot catch on the 6-cycle
    t = adversarial_robber_search(g, cop, cfg, depth)
    assert not t.caught


def test_guard_soundness_small_corpus():
    graphs = [
        gen_cycle(9),
        gen_grid(3, 4),
        random_connected(12, seed=2),
        random_connected(14, seed=9, p=0.3),
    ]
    for g in graphs:
        far = max(range(g.n), key=lambda v: len(shortest_path(g, 0, v)))
        path = shortest_path(g, 0, far)
        report = check_guard_soundness(g, path)
        assert report["violations"] == [], (g, path)


def test_guard_soundness_expands_each_distinct_node_once(monkeypatch):
    # the diameter geodesic of the 6x10 grid (settle bound 28): the base
    # expansion reaches all 514 distinct nodes, and each calls move twice (the
    # second checks determinism); the closure calls step, not move.  The
    # states checked are the 514 nodes and the closure's 211 pairs
    g = gen_grid(6, 10)
    _, u, v = diameter_pair(g)
    path = shortest_path(g, u, v)
    calls = []
    real_move = GuardCop.move

    def move(self, g, view, state):
        calls.append(view)
        return real_move(self, g, view, state)

    monkeypatch.setattr(GuardCop, "move", move)
    report = check_guard_soundness(g, path)
    assert len(calls) == 2 * 514
    assert report["states_checked"] == 514 + 211 and report["violations"] == []


@pytest.mark.parametrize("g, path, bound", [(gen_path(1), [0], 0), (gen_path(2), [0, 1], 2)])
def test_guard_soundness_of_the_smallest_graphs(g, path, bound):
    # bound 0 still expands one round; K2's robber is caught in round 1.  The
    # states are the placement nodes, n - 1 of them, and no closure pair
    assert check_guard_soundness(g, path) == {
        "path": path, "settle_bound": bound, "states_checked": g.n - 1, "violations": []}


def _hold_on_p0(monkeypatch):
    """A guard that never leaves p_0 unless it can capture."""
    real_step = GuardCop.step

    def step(self, g, cop, robber):
        if cop == self.path[0] and robber not in g.closed_neighborhoods()[cop]:
            return cop
        return real_step(self, g, cop, robber)

    monkeypatch.setattr(GuardCop, "step", step)


def test_guard_soundness_base_reports_a_guard_that_never_settles(monkeypatch):
    # the closure sees no settled position with the cop on p_0 = 0 away from
    # the robber, so only the base can report it: every start but 1 and 19,
    # which the cop catches in round 1, has a line never settled by round 20
    g, path = gen_cycle(20), list(range(11))
    _hold_on_p0(monkeypatch)
    assert check_guard_soundness(g, path)["violations"] == [
        {"start": r0, "round": 20, "kind": "unsettled"} for r0 in range(2, 19)]


def _layered_base_failures(g, path):
    """The starts from which some line of the per-layer oracle stands, after
    round B - 1, on a node whose cop half-move neither captures nor lands on
    the robber's shadow vertex: the base walked start by start, layer by
    layer."""
    cop = GuardCop(g, path)
    bound = settle_bound(g, path)
    layers = per_layer_expansion(g, cop, GameConfig(cop_count=1, max_rounds=bound), bound)[2]
    failing = []
    for start in layers[0]:
        line = {start}
        for layer in layers[:bound - 1]:
            line = {child for node in line for child in layer[node][3].values()
                    if child != "caught"}
        last = layers[bound - 1]
        if any(not last[node][2] and last[node][0][0] != path[cop.shadow_index(node[1])]
               for node in line):
            failing.append(start[1])
    return failing


@pytest.mark.parametrize("mutant", ["guard", "hold-on-p0", "a-third-of-the-bound"])
def test_guard_soundness_base_matches_a_per_start_layered_walk(monkeypatch, mutant):
    # the third cuts the settle bound to a third, so that the real guard,
    # too, has lines still unsettled at the bound
    if mutant == "hold-on-p0":
        _hold_on_p0(monkeypatch)
    elif mutant == "a-third-of-the-bound":
        real_bound = guard._settle_bound
        monkeypatch.setattr(guard, "_settle_bound", lambda g, cop: max(1, real_bound(g, cop) // 3))
    reported = 0
    for seed in range(30):
        g = random_connected(4 + seed % 9, seed=seed, p=0.3)
        _, u, v = diameter_pair(g)
        path = shortest_path(g, u, v)
        report = check_guard_soundness(g, path)
        starts = [x["start"] for x in report["violations"]]
        assert starts == _layered_base_failures(g, path), (seed, path)
        assert report["violations"] == [
            {"start": r0, "round": report["settle_bound"], "kind": "unsettled"} for r0 in starts]
        reported += len(starts)
    assert (reported > 0) == (mutant != "guard")


def test_guard_soundness_of_c450_completes():
    # the default geodesic of C450: the base expands 51,073 distinct nodes
    # to the settle bound 450, well inside the node budget, and the closure
    # checks 672 pairs
    g = gen_cycle(450)
    _, u, v = diameter_pair(g)
    report = check_guard_soundness(g, shortest_path(g, u, v))
    assert report["settle_bound"] == 450 and report["violations"] == []
    assert report["states_checked"] == 51073 + 672


def test_guard_soundness_closure_reports_a_step_off_the_shadow(monkeypatch):
    # C20 guarded along 0..10: a robber leaving 15 for 14 moves its shadow
    # from 5 to 6, and a guard that holds on 5 there falls off the shadow
    g, path = gen_cycle(20), list(range(11))
    real_step = GuardCop.step
    assert real_step(GuardCop(g, path), g, 5, 14) == 6

    def step(self, g, cop, robber):
        return cop if (cop, robber) == (5, 14) else real_step(self, g, cop, robber)

    monkeypatch.setattr(GuardCop, "step", step)
    violations = check_guard_soundness(g, path)["violations"]
    # closure violations name no round; the base's carry round 20
    assert [v for v in violations if "round" not in v] == [
        {"robber": 14, "cop": 5, "kind": "off-shadow"}]


def test_guard_soundness_closure_reports_an_illegal_step(monkeypatch):
    # the guard jumps from 5 onto a robber on 14 only once the base is
    # expanded, so the engine's move check never sees the jump
    g, path = gen_cycle(20), list(range(11))
    real_step, real_expand, expanded = GuardCop.step, engine.expand_game_layers, []

    def step(self, g, cop, robber):
        jump = expanded and (cop, robber) == (5, 14)
        return robber if jump else real_step(self, g, cop, robber)

    def expand_game_layers(*args):
        result = real_expand(*args)
        expanded.append(True)
        return result

    monkeypatch.setattr(GuardCop, "step", step)
    monkeypatch.setattr(engine, "expand_game_layers", expand_game_layers)
    assert check_guard_soundness(g, path)["violations"] == [
        {"robber": 14, "cop": 14, "kind": "illegal-move"}]


def test_guard_soundness_reports_an_uncaught_robber_on_the_path(monkeypatch):
    # a shadow that sends the on-path vertex 3 to index 5 parks the cop on 5,
    # and the cop holds there while the robber stays on 3: the cop is on the
    # robber's shadow vertex, yet the robber stands on the path uncaught
    g, path = gen_cycle(20), list(range(11))
    real_shadow = GuardCop.shadow_index

    def shadow_index(self, r):
        return 5 if r == 3 else real_shadow(self, r)

    monkeypatch.setattr(GuardCop, "shadow_index", shadow_index)
    violations = check_guard_soundness(g, path)["violations"]
    assert {"robber": 3, "cop": 5, "kind": "uncaught-on-path"} in violations


def test_guard_cop_requires_single_cop():
    g = gen_path(4)
    cop = GuardCop(g, [0, 1])
    with pytest.raises(StrategyFault, match="1 cops for a team of 2"):
        play(g, cop, GreedyFarRobber(), GameConfig(cop_count=2, max_rounds=5))


def test_masked_guard_shadows_inside_the_mask_and_approaches_through_g():
    g = gen_cycle(8)
    # C8 minus {6, 7} is the path 0..5; the row is measured there from p0 = 1
    component = (gen_path(6)._row(1), range(6))
    guard = GuardCop(g, [1, 2, 3], component=component)
    assert guard.dist0[5] == 4 and guard.approach[5] == 4
    assert guard.dist0[7] == -1 and guard.approach[7] == 2
    assert guard.shadow_index(5) == 2
    # a cop off the mask walks toward p_0 through the whole graph
    assert guard.step(g, 7, 4) == 0
    # a robber outside the mask is another guard's problem: hold
    assert guard.step(g, 3, 6) == 3
    with pytest.raises(ValueError, match="path leaves the component"):
        GuardCop(g, [5, 6, 7], component=component)
    plain = GuardCop(g, [1, 2, 3])
    assert plain.approach is plain.dist0


def test_guard_cop_refuses_a_shadow_row_that_does_not_fit_the_component():
    g = gen_cycle(8)
    row = gen_path(6)._row(1)  # C8 minus {6, 7}, from p0 = 1
    GuardCop(g, [1, 2, 3], component=(row, range(6)))
    for short_or_long in (row[:5], row + [5]):
        with pytest.raises(ValueError, match="does not match the members"):
            GuardCop(g, [1, 2, 3], component=(short_or_long, range(6)))
    # the component's row from vertex 0 reads 1 at p0
    with pytest.raises(ValueError, match="not measured from p_0"):
        GuardCop(g, [1, 2, 3], component=(gen_path(6)._row(0), range(6)))
