import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import (
    CapturePlan,
    CopSetFamily,
    GameConfig,
    Graph,
    PlanFailure,
    ResourceLimitError,
    StrategyParams,
    adversarial_robber_search,
    build_plan,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_path,
    gen_petersen,
    invisible_mode,
    make_expander_cop,
    play,
    sample_cop_sets,
    shortest_path,
    transcript_to_json,
    verify_claim,
)
import copsrobbers.graph as graph_mod
from copsrobbers.checks import confinement_violations
from copsrobbers.expander import (
    ScriptedCop,
    _decompose,
    desk_params,
    plan_summary,
    start_scripts,
)
from copsrobbers.seeds import derive_seed, make_rng

from conftest import random_connected
from oracles import (
    fw_distances,
    hall_condition_holds,
    invisible_mode_oracle,
    largest_nonexpanding_subset,
    matching_size,
    verify_claim_allsubsets,
)


def full_family(g, levels, density=1.0):
    sets = tuple(tuple(range(g.n)) for _ in range(levels + 1))
    return CopSetFamily(sets=sets, n=g.n, density=density, seed=0)


def empty_plus_one(g, levels, cop_vertex=0):
    sets = ((cop_vertex,),) + ((),) * levels
    return CopSetFamily(sets=sets, n=g.n, density=0.05, seed=0)


# ---------------------------------------------------------------------------
# Params and sampling.
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        StrategyParams(lam=1.0, density=0.5, levels=1)
    with pytest.raises(ValueError):
        StrategyParams(lam=2.0, density=0.0, levels=1)
    with pytest.raises(ValueError):
        StrategyParams(lam=2.0, density=0.5, levels=0)


def test_sampling_density_one_and_determinism():
    g = gen_cycle(7)
    params = StrategyParams(lam=2.0, density=1.0, levels=2)
    fam = sample_cop_sets(g, params, seed=4)
    assert all(s == tuple(range(7)) for s in fam.sets)
    assert fam.total_cops == 21
    p2 = StrategyParams(lam=2.0, density=0.4, levels=3)
    assert sample_cop_sets(g, p2, seed=9).fingerprint() == sample_cop_sets(g, p2, seed=9).fingerprint()
    assert sample_cop_sets(g, p2, seed=9).fingerprint() != sample_cop_sets(g, p2, seed=10).fingerprint()


def test_oversized_flag():
    g = gen_path(12)
    params = StrategyParams(lam=2.0, density=0.05, levels=1)
    for seed in range(40):
        fam = sample_cop_sets(g, params, seed=seed)
        assert fam.n == g.n
        expected = 2 * params.density * g.n
        assert fam.oversized == (fam.total_cops > 2 * expected)


# ---------------------------------------------------------------------------
# verify_claim.
# ---------------------------------------------------------------------------

def test_claim_full_sets_always_true():
    g = gen_path(8)
    params = StrategyParams(lam=2.0, density=1.0, levels=3)
    assert verify_claim(g, full_family(g, 3), params)


def test_claim_empty_set_false():
    g = gen_path(8)
    params = StrategyParams(lam=2.0, density=0.5, levels=3)
    assert not verify_claim(g, empty_plus_one(g, 3), params)


def test_claim_budget():
    g = gen_path(8)
    params = StrategyParams(lam=2.0, density=0.5, levels=2)
    with pytest.raises(ResourceLimitError):
        verify_claim(g, full_family(g, 2), params, budget=100)


def test_claim_budget_counts_subset_radius_checks():
    # p8 with lam 2 and 3 radii: C(8,1..4) = 162 subsets, 486 checks
    g = gen_path(8)
    params = StrategyParams(lam=2.0, density=0.5, levels=2)
    assert verify_claim(g, full_family(g, 2), params, budget=486)
    with pytest.raises(ResourceLimitError):
        verify_claim(g, full_family(g, 2), params, budget=485)


def test_claim_without_small_subsets_does_no_work(monkeypatch):
    # n < lam: no nonempty A has |A| <= n/lam, so no ball is computed
    import copsrobbers.expander as expander_mod

    calls = []
    monkeypatch.setattr(expander_mod, "ball", lambda *a: calls.append(a))
    g = gen_path(5)
    params = StrategyParams(lam=6.0, density=0.5, levels=3)
    assert verify_claim(g, empty_plus_one(g, 3), params, budget=0)
    assert calls == [] and not g._rows


@pytest.mark.parametrize("n, lam", [(8, 2.0), (9, 1.5), (12, 3.0)])
def test_claim_reaches_the_largest_subsets(n, lam):
    # on K_n every ball is V, so sets of size s fail exactly when some
    # |A| <= n/lam exceeds s: only the largest subsets can fail here
    g = gen_gnp(n, 1.0, 0)
    amax = int(n // lam)
    params = StrategyParams(lam=lam, density=0.5, levels=1)
    for size, expected in ((amax - 1, False), (amax, True)):
        sets = (tuple(range(size)),) * 2
        fam = CopSetFamily(sets=sets, n=n, density=0.5, seed=0)
        assert verify_claim(g, fam, params) is expected
        assert verify_claim_allsubsets(g, fam, params) is expected


@pytest.mark.parametrize("missing, expected", [
    ((6, 7), False), ((0, 1), False), ((7,), True), ((0,), True)])
def test_claim_reaches_both_ends_of_the_path(missing, expected):
    # on p8 with lam 2 and radii 1, 2, sets missing two end vertices fail
    # only at subsets holding that end; missing one end vertex never fails
    g = gen_path(8)
    params = StrategyParams(lam=2.0, density=0.5, levels=1)
    cops = tuple(v for v in range(8) if v not in missing)
    fam = CopSetFamily(sets=(cops, cops), n=8, density=0.5, seed=0)
    assert verify_claim(g, fam, params) is expected
    assert verify_claim_allsubsets(g, fam, params) is expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.sampled_from([1.5, 2.0, 3.0, 6.0]),
       st.integers(1, 3), st.floats(0.05, 1.0), st.integers(0, 10**6))
def test_claim_walk_matches_allsubsets_oracle(n, p, lam, levels, density, seed):
    g = gen_gnp(n, p, derive_seed(seed, "claim:g"))
    params = StrategyParams(lam=lam, density=density, levels=levels)
    fam = sample_cop_sets(g, params, derive_seed(seed, "claim:f"))
    assert verify_claim(g, fam, params) == verify_claim_allsubsets(g, fam, params)


def test_claim_walk_feasible_where_allsubsets_is_not():
    # G(30, 0.3), lam 6, 3 levels: 174,436 subsets * 4 radii = 697,744 checks,
    # inside the default budget of 2^20; the 2^30 tables are not
    g = random_connected(30, seed=3, p=0.3)
    params = StrategyParams(lam=6.0, density=1.0, levels=3)
    assert verify_claim(g, full_family(g, 3), params)
    assert not verify_claim(g, empty_plus_one(g, 3), params)
    with pytest.raises(ResourceLimitError):
        verify_claim_allsubsets(g, full_family(g, 3), params)


def test_claim_fraction_and_resampling_policy_p8():
    # exhaustively evaluate sampled families on the 8-path, recording the
    # pass fraction; whenever the claim holds, planning must succeed for
    # every start on the first attempt (no resampling needed)
    g = gen_path(8)
    fractions = {}
    for density in (0.5, 0.8):
        params = StrategyParams(lam=2.0, density=density, levels=3)
        passing = 0
        for seed in range(20):
            fam = sample_cop_sets(g, params, seed=derive_seed(77, f"claim:{seed}"))
            ok = verify_claim(g, fam, params)
            passing += ok
            if ok:
                plans = {v: build_plan(g, v, fam, params) for v in range(g.n)}
                assert all(isinstance(p, CapturePlan) for p in plans.values())
        fractions[density] = passing / 20
    # denser sampling passes more often; at 0.8 the majority of seeds do
    assert fractions[0.8] >= fractions[0.5]
    assert fractions[0.8] > 0


# ---------------------------------------------------------------------------
# The level split.
# ---------------------------------------------------------------------------

def test_identity_matching_radius_zero():
    g = gen_path(5)
    cand = (1, 2, 3)
    split = _decompose(g, cand, cand, 0)
    assert not split.core
    assert split.shell == cand
    assert split.matching == {1: 1, 2: 2, 3: 3}
    assert all(len(r) == 1 for r in split.routes.values())


def test_hall_violation_pulls_whole_closure():
    # two candidates can only reach one cop: the alternating closure absorbs both
    g = gen_path(3)  # 0-1-2
    split = _decompose(g, (0, 1), (1,), 1)
    assert split.core == (0, 1)
    assert not split.shell


def test_shell_satisfies_hall_exhaustively():
    for seed in range(8):
        g = random_connected(9, seed=seed)
        params = StrategyParams(lam=2.0, density=0.5, levels=2)
        fam = sample_cop_sets(g, params, seed=seed)
        cand = tuple(range(9))
        radius = 2
        split = _decompose(g, cand, fam.sets[0], radius)
        dist = fw_distances(g)
        adjacency = {
            u: {w for w in fam.sets[0] if dist[u][w] <= radius}
            for u in split.shell
        }
        assert hall_condition_holds(split.shell, adjacency)
        # matching is injective and within radius
        targets = list(split.matching.values())
        assert len(targets) == len(set(targets))
        for u, w in split.matching.items():
            assert dist[u][w] <= radius
            assert len(split.routes[u]) - 1 <= radius


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 10**6),
       st.integers(0, 4), st.data())
def test_core_is_the_vertices_some_maximum_matching_misses(n, p, seed, radius, data):
    # Dulmage-Mendelsohn: u is in the core iff dropping u keeps the maximum
    # matching size, i.e. some maximum matching leaves u unmatched
    g = random_connected(n, seed=seed, p=p)
    cand = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    cops = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    dist = fw_distances(g)
    adjacency = {u: [w for w in cops if dist[u][w] <= radius] for u in cand}
    nu = matching_size(cand, adjacency)
    expected = {u for u in cand if matching_size([x for x in cand if x != u], adjacency) == nu}
    split = _decompose(g, cand, cops, radius)
    assert set(split.core) == expected
    assert split.core == tuple(sorted(split.core))
    assert split.shell == tuple(u for u in cand if u not in expected)


def test_core_vs_bruteforce_largest_subset():
    # the exponential "largest non-expanding subset" need not equal the
    # Hall-deficiency closure; both must be self-consistent on tiny instances
    g = gen_path(6)
    cand = (1, 2, 3)
    cops = (0,)
    split = _decompose(g, cand, cops, 1)
    brute = largest_nonexpanding_subset(g, [1, 2, 3], 1, 2.0)
    dist = fw_distances(g)
    if brute:
        ball_size = sum(1 for v in range(6) if any(dist[a][v] <= 1 for a in brute))
        assert ball_size < 2.0 * len(brute)
    for u in split.shell:
        assert split.matching[u] in cops


# ---------------------------------------------------------------------------
# build_plan.
# ---------------------------------------------------------------------------

def test_complete_graph_immediate_capture():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    params = StrategyParams(lam=2.0, density=1.0, levels=1)
    plan = build_plan(k5, 2, full_family(k5, 1), params)
    assert isinstance(plan, CapturePlan) and plan.kind == "immediate"
    assert plan.capture_deadline == 1


def test_star_all_of_b1_matches_at_radius_one():
    # with cops everywhere the whole closed neighborhood of the center is a
    # matchable shell: empty core at the first level
    star = Graph(6, [(0, i) for i in range(1, 6)])
    split = _decompose(star, tuple(range(6)), tuple(range(6)), 1)
    assert not split.core and len(split.shell) == 6


def test_star_plan_catches_by_round_one():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    params = StrategyParams(lam=2.0, density=1.0, levels=2)
    fam = full_family(star, 2)
    plan = build_plan(star, 0, fam, params)
    assert isinstance(plan, CapturePlan) and plan.capture_deadline == 1
    cop = ScriptedCop("expander", *start_scripts(fam, {0: plan}))
    cfg = GameConfig(cop_count=fam.total_cops, max_rounds=5, seed=0)

    class Still:
        name = "still"

        def place(self, g, cop_positions, cfg, rng):
            return 0

        def move(self, g, view, rng):
            return view.robber_position

    t = play(star, cop, Still(), cfg)
    assert t.caught and t.outcome.round <= 1


def test_sparse_family_fails():
    g = gen_path(10)
    params = StrategyParams(lam=3.0, density=0.05, levels=2)
    fam = empty_plus_one(g, 2, cop_vertex=0)
    plan = build_plan(g, 6, fam, params)
    assert isinstance(plan, PlanFailure) and plan.reason == "levels-exhausted"
    # growth bookkeeping: each recorded level's candidate contains its core
    growth = plan_summary(plan, fam, params)["growth"]
    assert len(growth) == len(plan.levels) - 1
    for lv, gr in zip(plan.levels, growth):
        assert gr["core_size"] == len(lv.core) <= len(lv.candidate)


def test_plan_level_partition_and_growth():
    g = random_connected(12, seed=21)
    params = StrategyParams(lam=2.0, density=0.6, levels=3)
    fam = sample_cop_sets(g, params, seed=3)
    for v in range(g.n):
        plan = build_plan(g, v, fam, params)
        for lv in plan.levels:
            assert lv.candidate == tuple(sorted(set(lv.candidate)))
            assert not set(lv.core) & set(lv.shell)
            assert sorted(lv.core + lv.shell) == list(lv.candidate)
        if isinstance(plan, CapturePlan) and plan.kind == "levels":
            assert not plan.levels[-1].core
            assert plan.capture_deadline == 1 << (plan.terminal_level - 1)
        for gr in plan_summary(plan, fam, params)["growth"]:
            assert gr["core_size"] <= gr["ball_size"]  # next candidate is the ball


# plan_summary pinned to the bytes of an earlier revision: SHA-256 of the
# canonical JSON list of every start's summary.  The path case is mostly
# PlanFailures, C16 plans 3 levels at every start, the G(14, 0.3) case
# mixes immediate, 1- and 2-level plans with failures, and on C12 some
# growth rows have a ball of exactly lam*|A|.
PINNED_PLAN_SUMMARY = {
    "c12-cap-tight": "6013fc52f86e80b706d134c2a025388d8347f1ec6454e4c201c389a9d0669849",
    "path10-failing": "e82a21546c18a646c7737aefaacda598a4b010c78c6344147d7ed88e6149e32b",
    "c16-deep": "f4974e7cec75e425f6ca09287f09c8d3cde21dc187cb240a664af554eb992d5e",
    "gnp14-mixed": "4bdb0235a9b62eeca1e9f61ef5aa656fbe7f93eec074a15c0fb83adc9c85b85a",
}


def _summary_case(name):
    if name == "path10-failing":
        g = gen_path(10)
        params = StrategyParams(lam=3.0, density=0.05, levels=2)
        fam = empty_plus_one(g, 2, cop_vertex=0)
    elif name == "c16-deep":
        g = gen_cycle(16)
        params = StrategyParams(lam=6.0, density=0.4, levels=5)
        _, fam, _, _ = make_expander_cop(g, params, seed=0)
    elif name == "c12-cap-tight":
        g = gen_cycle(12)
        params = StrategyParams(lam=2.0, density=0.3, levels=3)
        fam = sample_cop_sets(g, params, seed=0)
    else:
        g = random_connected(14, seed=3, p=0.3)
        params = StrategyParams(lam=4.0, density=0.3, levels=3)
        fam = sample_cop_sets(g, params, seed=3)
    return [build_plan(g, v, fam, params) for v in range(g.n)], fam, params


@pytest.mark.parametrize("name", sorted(PINNED_PLAN_SUMMARY))
def test_plan_summary_pinned(name):
    plans, fam, params = _summary_case(name)
    if name != "c16-deep":
        assert any(isinstance(p, PlanFailure) for p in plans)
    if name != "path10-failing":
        assert max(len(p.levels) for p in plans) >= (3 if name == "c16-deep" else 2)
    docs = [plan_summary(p, fam, params) for p in plans]
    if name == "c12-cap-tight":
        assert any(r["ball_size"] == r["lam_cap"] for d in docs for r in d["growth"])
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PLAN_SUMMARY[name]


def test_plan_family_mismatch_rejected():
    g = gen_cycle(6)
    params = StrategyParams(lam=2.0, density=1.0, levels=1)
    fam1 = sample_cop_sets(g, params, seed=1)
    fam2 = sample_cop_sets(g, StrategyParams(lam=2.0, density=0.5, levels=1), seed=2)
    plan = build_plan(g, 0, fam1, params)
    with pytest.raises(ValueError):
        start_scripts(fam2, {0: plan})


def _count_bfs(monkeypatch, adj=None):
    """The sources of every BFS pass (over ``adj`` only, if given), recorded
    by wrapping ``graph._bfs``."""
    passes = []
    bfs = graph_mod._bfs

    def counting_bfs(a, dist, sources):
        if adj is None or a is adj:
            passes.append(tuple(sources))
        return bfs(a, dist, sources)

    monkeypatch.setattr(graph_mod, "_bfs", counting_bfs)
    return passes


def test_planning_the_20x20_grid_runs_one_bfs_per_vertex(monkeypatch):
    """make_expander_cop on the 20x20 grid at lam 6, density 0.4 (6 levels,
    one family for seed 1) reads every row it needs, the level split's and
    the routes', from the graph's store: besides the diameter scan behind
    ``desk_params``, at most one BFS per vertex, though its 400 starts run
    thousands of splits and routes."""
    passes = _count_bfs(monkeypatch)
    g = gen_grid(20, 20)
    params = desk_params(g, lam=6, density=0.4)
    scan = len(passes)
    _, _, plans, attempts = make_expander_cop(g, params, seed=1)
    assert (params.levels, attempts) == (6, 1)
    assert len(passes) - scan <= g.n
    assert all(len(p) == 1 for p in passes[scan:])
    routes = {r for p in plans.values() for lv in p.levels for r in lv.routes.values()}
    assert len(routes) > 2 * g.n


@pytest.mark.parametrize("seed", range(3))
def test_routes_are_the_lowest_id_geodesics_from_the_cop_home(seed):
    """Every route, level or immediate, is ``shortest_path`` from its cop
    home to its vertex: the walk back from the vertex over the home's row.
    On the grid as generated, the walk from the other end gives the same
    routes; relabelled, it gives other routes of three or more steps."""
    grid = gen_grid(8, 8)
    perm = list(range(grid.n))
    make_rng(seed).shuffle(perm)
    g = Graph(grid.n, [(perm[u], perm[v]) for u, v in grid.edges()])
    params = StrategyParams(lam=4.0, density=0.3, levels=3)
    fam = sample_cop_sets(g, params, seed=seed)
    plans = [build_plan(g, v, fam, params) for v in range(g.n)]
    routes = [r for p in plans for lv in p.levels for r in lv.routes.values()]
    routes += [p.immediate_route for p in plans if isinstance(p, CapturePlan) and p.immediate_route]
    assert sum(len(r) > 3 for r in routes) > 40
    for r in routes:
        assert r == tuple(shortest_path(g, r[0], r[-1]))


def test_capped_row_store_changes_no_plan_or_transcript(monkeypatch):
    """On a 60-vertex path, planning every start and then the invisible game
    under a cap of three rows clear the store again and again but never let
    it hold more, and give the plans and transcript of an equal graph whose
    store was never capped."""
    params = StrategyParams(lam=2.5, density=0.3, levels=5)
    free_g = gen_path(60)
    fam = sample_cop_sets(free_g, params, seed=3)
    free_plans = {v: build_plan(free_g, v, fam, params) for v in range(free_g.n)}
    free = invisible_mode(free_g, fam, params, seed=3, max_repeats=12)
    g = gen_path(60)
    monkeypatch.setattr(graph_mod, "ROW_ENTRIES", 3 * g.n)
    passes, held = _count_bfs(monkeypatch, g._adj), []
    real_row = Graph._row

    def watched_row(self, v):
        row = real_row(self, v)
        if self is g:
            held.append(len(g._rows))
        return row

    monkeypatch.setattr(Graph, "_row", watched_row)
    plans = {v: build_plan(g, v, fam, params) for v in range(g.n)}
    got = invisible_mode(g, fam, params, seed=3, max_repeats=12)
    assert plans == free_plans
    assert {p.kind for p in plans.values() if isinstance(p, CapturePlan)} == {"immediate",
                                                                              "levels"}
    assert transcript_to_json(got.transcript) == transcript_to_json(free.transcript)
    assert max(held) <= 3
    singles = [s for s in passes if len(s) == 1]
    assert len(singles) > len(set(singles))  # cleared rows were built again


# ---------------------------------------------------------------------------
# Scripted expander teams against the exhaustive adversary.
# ---------------------------------------------------------------------------

def test_expander_confines_and_catches_small_corpus():
    graphs = [
        gen_cycle(8),
        gen_petersen(),
        random_connected(10, seed=4, p=0.5),
        random_connected(12, seed=6, p=0.45),
    ]
    for g in graphs:
        params = desk_params(g, lam=1.5, density=0.9)
        cop, fam, plans, attempts = make_expander_cop(g, params, seed=13)
        assert attempts <= params.resample_limit
        depth = max(p.capture_deadline for p in plans.values())
        assert confinement_violations(g, cop, plans, depth) == []
        t = adversarial_robber_search(
            g, cop, GameConfig(cop_count=fam.total_cops, max_rounds=depth, seed=0), depth
        )
        assert t.caught and t.outcome.round <= depth


@pytest.mark.parametrize("n, graph_seed, density", [(12, 0, 0.3), (16, 22, 0.4)])
def test_late_immediate_capture_is_a_confinement_violation(n, graph_seed, density):
    # an immediate-capture cop that waits one round at home still catches
    # every robber by the deepest deadline, so the adversary passes it; the
    # robber alive after its deadline round 1 must be flagged
    g = random_connected(n, seed=graph_seed, p=0.3)
    params = StrategyParams(lam=2.0, density=density, levels=2)
    cop, fam, plans, _ = make_expander_cop(g, params, seed=0)
    depth = max(p.capture_deadline for p in plans.values())
    assert depth == 2
    late = ScriptedCop("late", cop.homes, {
        v: tuple(t[:1] + t for t in tracks) if plans[v].kind == "immediate" else tracks
        for v, tracks in cop.tracks.items()})
    cfg = GameConfig(cop_count=fam.total_cops, max_rounds=depth, seed=0)
    assert adversarial_robber_search(g, late, cfg, depth).caught
    assert confinement_violations(g, cop, plans, depth) == []
    assert confinement_violations(g, late, plans, depth)


def test_stationary_robber_is_caught():
    g = gen_cycle(9)
    params = desk_params(g, lam=1.5, density=0.9)
    cop, fam, plans, _ = make_expander_cop(g, params, seed=2)

    class Still:
        name = "still"

        def place(self, g, cop_positions, cfg, rng):
            return 4

        def move(self, g, view, rng):
            return view.robber_position

    depth = max(p.capture_deadline for p in plans.values())
    t = play(g, cop, Still(), GameConfig(cop_count=fam.total_cops, max_rounds=depth + 1, seed=0))
    assert t.caught


def test_shells_occupied_by_their_deadlines():
    # transcript-level check: at each level's deadline every matched shell
    # vertex hosts its assigned cop (and they hold from then on)
    g = gen_cycle(16)
    params = StrategyParams(lam=6.0, density=0.4, levels=5)
    cop, fam, plans, _ = make_expander_cop(g, params, seed=0)
    deep_v = max(plans, key=lambda v: plans[v].capture_deadline)
    plan = plans[deep_v]
    assert plan.kind == "levels" and plan.terminal_level >= 3

    class StillAt:
        name = "still"

        def place(self, g, cop_positions, cfg, rng):
            return deep_v

        def move(self, g, view, rng):
            return view.robber_position

    t = play(g, cop, StillAt(),
             GameConfig(cop_count=fam.total_cops, max_rounds=plan.capture_deadline, seed=0))
    assert t.caught and t.outcome.round <= plan.capture_deadline
    for i, lv in enumerate(plan.levels, 1):
        for u, w in lv.matching.items():
            assert len(lv.routes[u]) - 1 <= lv.radius
            for idx in range(lv.radius - 1, len(t.rounds)):
                moves = t.rounds[idx][0]
                assert u in moves, (
                    f"shell vertex {u} (level {i}) unoccupied at round {idx + 1}"
                )


# ---------------------------------------------------------------------------
# Invisible mode.
# ---------------------------------------------------------------------------

def test_invisible_complete_graph_first_repeat():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    params = StrategyParams(lam=2.0, density=1.0, levels=1)
    fam = full_family(k5, 1)
    res = invisible_mode(k5, fam, params, seed=8, max_repeats=10)
    assert res.caught and res.repeats <= 1


def test_invisible_star_catches_with_few_repeats():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    params = StrategyParams(lam=2.0, density=0.7, levels=2)
    repeats = []
    for seed in range(30):
        fam = sample_cop_sets(star, params, seed=derive_seed(5, f"inv:{seed}"))
        if fam.total_cops == 0:
            continue
        res = invisible_mode(star, fam, params, seed=seed, max_repeats=60)
        if res.caught:
            repeats.append(res.repeats)
    assert repeats, "no run caught the robber"
    repeats.sort()
    assert repeats[len(repeats) // 2] <= 6


def test_invisible_always_failing_family_hits_repeat_limit():
    g = gen_path(10)
    params = StrategyParams(lam=3.0, density=0.05, levels=2)
    fam = empty_plus_one(g, 2, cop_vertex=0)
    res = invisible_mode(g, fam, params, seed=1, max_repeats=12)
    assert not res.caught
    assert res.repeats == 12
    assert res.transcript.outcome.kind == "robber_wins"


# invisible_mode pinned to the bytes of an earlier revision: SHA-256 of the
# canonical transcript JSON, repeats, and every guess drawn.
PINNED_INVISIBLE = {
    "k5": ("0b96bc96e9c3b8a734b4e8a85f9d8f14ab5e92328f176fb8f51a59f261489ae4", 0,
           (2, 2, 1, 2, 4, 2, 3, 3, 2, 1)),
    "star-5": ("f80876eeaeac1bd15c7ce651cacf592a40bc7ccfcb2e785463c32dcdcd314204", 4,
               (2, 0, 2, 1, 0, 1, 5, 5, 5, 0, 5, 2, 2, 1, 3, 0, 1, 1, 0, 5,
                5, 1, 0, 3, 5, 1, 0, 1, 3, 4, 4, 4, 2, 3, 2, 4, 0, 3, 5, 4,
                1, 4, 2, 4, 4, 1, 1, 0, 2, 2, 5, 1, 5, 1, 3, 0, 1, 2, 4, 5)),
    "star-20": ("91c2a283739af2ae9ec998514d7d7f89498c3c8ccab37e0385efbdd0fde7023c", 6,
                (1, 3, 2, 5, 1, 4, 3, 1, 3, 0, 5, 3, 3, 1, 4, 3, 1, 0, 4, 2,
                 1, 3, 2, 1, 3, 5, 2, 5, 1, 4, 5, 1, 1, 0, 2, 1, 2, 4, 3, 5,
                 4, 2, 4, 5, 5, 3, 5, 1, 1, 4, 4, 2, 2, 1, 2, 1, 0, 3, 0, 3)),
    "path10-failing": ("d5d843e0fe855b4a5d80d885413a0c6c447605198c7eec73f9c8c8da1f3e88b6", 12,
                       (4, 6, 3, 6, 4, 0, 4, 6, 7, 5, 5, 7)),
}


def _invisible_case(name):
    if name == "k5":
        k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        return invisible_mode(k5, full_family(k5, 1),
                              StrategyParams(lam=2.0, density=1.0, levels=1),
                              seed=8, max_repeats=10)
    if name.startswith("star-"):
        seed = int(name[5:])
        star = Graph(6, [(0, i) for i in range(1, 6)])
        params = StrategyParams(lam=2.0, density=0.7, levels=2)
        fam = sample_cop_sets(star, params, seed=derive_seed(5, f"inv:{seed}"))
        return invisible_mode(star, fam, params, seed=seed, max_repeats=60)
    g = gen_path(10)
    return invisible_mode(g, empty_plus_one(g, 2, cop_vertex=0),
                          StrategyParams(lam=3.0, density=0.05, levels=2),
                          seed=1, max_repeats=12)


@pytest.mark.parametrize("name", sorted(PINNED_INVISIBLE))
def test_invisible_mode_pinned(name):
    digest, repeats, guesses = PINNED_INVISIBLE[name]
    res = _invisible_case(name)
    text = transcript_to_json(res.transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (res.repeats, res.guesses) == (repeats, guesses)


def _sliced_track_cases():
    """(name, graph, family, params, seed, max_repeats) for invisible_mode.
    K5 with full sets has immediate plans (routes (0, v) against deadline 1)
    and cops holding at home; the stars and G(n, 0.3) mix level plans whose
    routes end before their deadline with holding cops; on the paths one
    cop and lam = 4 fail every plan, so no guess adds rounds."""
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    cases = [("k5", k5, full_family(k5, 1), StrategyParams(lam=2.0, density=1.0, levels=1),
              8, 10)]
    star = Graph(6, [(0, i) for i in range(1, 6)])
    star_params = StrategyParams(lam=2.0, density=0.7, levels=2)
    for seed in (3, 5, 20):
        fam = sample_cop_sets(star, star_params, seed=derive_seed(5, f"inv:{seed}"))
        cases.append((f"star-{seed}", star, fam, star_params, seed, 40))
    for n in (6, 10):
        g = gen_path(n)
        cases.append((f"path-{n}-failing", g, empty_plus_one(g, 2, cop_vertex=0),
                      StrategyParams(lam=4.0, density=0.05, levels=2), n, 12))
        params = StrategyParams(lam=2.0, density=0.6, levels=2)
        cases.append((f"path-{n}", g, sample_cop_sets(g, params, seed=n), params, n, 20))
    for n in (7, 9, 12):
        g = random_connected(n, seed=n, p=0.3)
        for levels in (1, 2):
            params = StrategyParams(lam=2.0, density=0.5, levels=levels)
            cases.append((f"gnp-{n}-levels-{levels}", g, sample_cop_sets(g, params, seed=n),
                          params, n + levels, 20))
    return [c for c in cases if c[2].total_cops]


@pytest.mark.parametrize("case", _sliced_track_cases(), ids=lambda c: c[0])
def test_invisible_mode_matches_track_at_reference(case):
    _, g, fam, params, seed, max_repeats = case
    got = invisible_mode(g, fam, params, seed=seed, max_repeats=max_repeats)
    want = invisible_mode_oracle(g, fam, params, seed, max_repeats)
    assert transcript_to_json(got.transcript) == transcript_to_json(want.transcript)
    assert (got.caught, got.repeats, got.guesses) == (want.caught, want.repeats, want.guesses)
