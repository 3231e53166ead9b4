import gc
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copsrobbers import (
    GameConfig,
    Graph,
    ResourceLimitError,
    adversarial_robber_search,
    cop_number,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_hypercube,
    gen_path,
    gen_petersen,
    gen_projective_incidence,
    is_dismantlable,
    is_k_copwin,
    k_copwin_placement,
    play,
    transcript_to_json,
)
from copsrobbers import solver
from copsrobbers.engine import GreedyFarRobber, RandomRobber, View
from copsrobbers.solver import (
    DEFAULT_STATE_BUDGET, SolverCop, _bit, _by_chunks, _capture, _chunk_slabs, _diagonal_masks,
    _first_reach, _halve, _horner, _slabs, _solve, _spread_cops, _tables, _unhalve)

from conftest import all_connected_graphs, random_connected, random_girth5
from oracles import (
    MultisetSolverCop, multiset_placement, multiset_solve, solver_reference_move,
    some_neighbor_reference)


def test_trees_are_one_cop_win():
    for g in (gen_path(7), Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])):
        assert is_k_copwin(g, 1)
        ok, order = is_dismantlable(g)
        assert ok and sorted(order) == list(range(g.n))


def test_cycle_cop_numbers():
    assert not is_k_copwin(gen_cycle(4), 1)
    assert is_k_copwin(gen_cycle(4), 2)
    for n in range(4, 10):
        assert cop_number(gen_cycle(n), 3) == 2


def test_petersen_cop_number(petersen):
    assert not is_k_copwin(petersen, 2)
    assert is_k_copwin(petersen, 3)
    assert cop_number(petersen, 3) == 3


def test_cop_number_exceeds_kmax(petersen):
    assert cop_number(petersen, 2) is None


def test_paths_and_placement():
    assert cop_number(gen_path(7), 3) == 1
    assert k_copwin_placement(gen_path(7), 1) is not None
    assert k_copwin_placement(gen_cycle(5), 1) is None


def test_dismantlable_examples():
    assert is_dismantlable(gen_path(9))[0]
    ok, order = is_dismantlable(gen_cycle(4))
    assert not ok and order == []  # no closed neighborhood contains another
    # 3x3 grid: the corner's closed neighborhood {c, right, down} is dominated
    # by no vertex (the center is not adjacent to the corner), so elimination
    # stalls immediately; cross-checked against the game solver below.
    g33 = gen_grid(3, 3)
    assert is_dismantlable(g33)[0] is False
    assert is_k_copwin(g33, 1) is False
    assert cop_number(g33, 2) == 2


def test_complete_and_universal_vertex():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert cop_number(k5, 2) == 1
    # C4 plus a universal vertex becomes one-cop-win
    wheel = Graph(5, gen_cycle(4).edges() + [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert cop_number(wheel, 2) == 1
    assert is_dismantlable(wheel)[0]


def test_monotonicity_in_k():
    for seed in range(5):
        g = random_connected(7, seed=seed)
        wins = [is_k_copwin(g, k) for k in (1, 2, 3)]
        for a, b in zip(wins, wins[1:]):
            assert (not a) or b


def test_oracle_agreement_small_exhaustive():
    for n in (2, 3, 4):
        for g in all_connected_graphs(n):
            assert is_dismantlable(g)[0] == is_k_copwin(g, 1)


def test_budget_enforced():
    with pytest.raises(ResourceLimitError):
        is_k_copwin(gen_cycle(6), 2, budget=10)


def test_budget_counts_table_bits_outside_the_cache(monkeypatch):
    g = gen_cycle(7)
    bits = g.n ** 3
    assert is_k_copwin(g, 2, budget=bits)
    kept = _tables(g, 2, bits)
    monkeypatch.setattr(solver, "_solve", lambda g, k: pytest.fail("kept tables solved again"))
    assert k_copwin_placement(g, 2, budget=bits + 1) is not None
    assert _tables(g, 2, bits + 1) is kept
    for call in (is_k_copwin, k_copwin_placement, SolverCop):
        with pytest.raises(ResourceLimitError):
            call(g, 2, budget=bits - 1)


def test_solve_memory_is_a_few_tables():
    # a long path makes many sweeps and many slabs; neither may cost a table each
    g = gen_path(128)
    table_bytes = g.n ** 2 // 8
    tracemalloc.start()
    try:
        t = _solve(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.sweeps > 100
    assert len(t.planes) == t.sweeps.bit_length()
    assert peak < (20 + 2 * len(t.planes)) * table_bytes


@pytest.mark.parametrize("g, k", [(gen_path(40), 2), (random_girth5(24, seed=5), 3),
                                  (gen_hypercube(5), 3), (random_connected(16, seed=2, p=0.3), 4)],
                         ids=["path40-k2", "girth5-24-k3", "q5-k3", "gnp16-k4"])
def test_solve_memory_is_a_few_tables_with_more_cops(g, k):
    # the robber step holds all n robber slabs of one table at once: one table, not n
    table_bytes = g.n ** (k + 1) // 8
    tracemalloc.start()
    try:
        t = _solve(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.sweeps > 5
    assert peak < (20 + 2 * len(t.planes)) * table_bytes


def test_solve_memory_allows_the_diagonal_masks():
    # below 2**15 bits a slab, a chunk holds several slabs, and each of the k
    # cop digits keeps a mask one chunk wide per offset d in 1..n-1: at most
    # k(n - 1) chunks
    g, k = random_connected(60, seed=1, p=0.05), 2
    table_bytes = g.n ** (k + 1) // 8
    masks_bytes = k * (g.n - 1) * _chunk_slabs(g.n, k) * g.n ** k // 8
    assert _chunk_slabs(g.n, k) > 1
    tracemalloc.start()
    try:
        t = _solve(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.sweeps > 5
    assert peak < (10 + 2 * len(t.planes)) * table_bytes + masks_bytes


@pytest.mark.parametrize("g, k", [(gen_hypercube(5), 3), (random_connected(16, seed=2, p=0.3), 4)],
                         ids=["q5-k3", "gnp16-k4"])
def test_solver_cop_memory_is_its_selectors_and_robber_slabs(g, k):
    # on top of the solved tables a SolverCop holds k*n selectors of at most
    # n**k bits (k tables) and, once every robber vertex has been asked, the
    # complement of each plane's robber slabs (one table per plane)
    t = _tables(g, k, DEFAULT_STATE_BUDGET)
    table_bytes = g.n ** (k + 1) // 8
    rng = random.Random(0)
    states = []
    for r in range(g.n):
        while len(states) < 3 * (r + 1):
            cops = tuple(rng.randrange(g.n) for _ in range(k))
            if r not in cops and _bit(t.win_cop, t.state(cops, r)):
                states.append((cops, r))
    tracemalloc.start()
    try:
        cop = SolverCop(g, k)
        built = tracemalloc.get_traced_memory()[0]
        for cops, r in states:
            cop.move(g, View(cop_positions=cops, robber_position=r), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < (k + 1) * table_bytes
    assert peak < (k + len(t.planes) + 2) * table_bytes


def test_solver_cop_at_every_winning_state_stays_within_the_solve_and_k_tables():
    # the solve's allowance plus k label tables, the bound SolverCop's
    # docstring states for its selectors; every winning state is asked, one
    # per cop multiset
    g, k = random_connected(16, seed=2, p=0.3), 4
    t = _solve(g, k)    # not kept on g, so SolverCop solves inside the trace
    table_bytes = g.n ** (k + 1) // 8
    states = [(cops, r) for cops in itertools.combinations_with_replacement(range(g.n), k)
              for r in range(g.n) if r not in cops and _bit(t.win_cop, t.state(cops, r))]
    tracemalloc.start()
    try:
        cop = SolverCop(g, k)
        for cops, r in states:
            cop.move(g, View(cop_positions=cops, robber_position=r), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) > 40_000
    assert peak < (20 + 2 * len(t.planes) + k) * table_bytes


def test_solved_tables_are_freed_with_their_graph():
    # the tables are kept on their graph, so a loop over distinct graphs
    # that drops each one holds less than one solve's tables afterwards
    t = _solve(random_connected(40, seed=0, p=0.1), 2)
    one_solve = len(t.win_cop) + sum(map(len, t.planes))
    tracemalloc.start()
    try:
        for seed in range(24):
            g = random_connected(40, seed=seed, p=0.1)
            is_k_copwin(g, 2)
            del g
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < one_solve


def _tables_digest(t):
    h = hashlib.sha256(repr((t.n, t.sweeps, t.placement)).encode())
    h.update(t.win_cop)
    for plane in t.planes:
        h.update(plane)
    return h.hexdigest()


@pytest.mark.parametrize("g, k, per, digest", [
    (gen_hypercube(5), 3, 1, "85a4fd5fed9ba9572868adf54e5ff872873d309de25778e47f38038671ef5899"),
    (random_girth5(14, seed=3), 3, 12,
     "62aa226a5135ad61051606e054bf0a112bf944085c0d29e5b8118ced6b4731d7"),
], ids=["q5-k3", "girth5-14-k3"])
def test_tables_are_pinned_where_chunks_are_narrower_than_the_table(g, k, per, digest):
    # Q5 runs one robber slab per chunk; 14 vertices run a 12-slab chunk and a
    # 2-slab one.  The multiset-oracle tests stop where the table is one chunk.
    assert _chunk_slabs(g.n, k) == per
    assert _tables_digest(_solve(g, k)) == digest


@pytest.mark.parametrize("g, k, sweeps, digest", [
    (gen_cycle(36), 2, 37, "81181b64faab416b90ba1c173963c90b7d53220804d34de38eb91169fb06bbf3"),
    (random_girth5(22, seed=1), 3, 11,
     "3f6b1854fc5a66cbe0060bea03ec5513aedddf81e299db1c721db1ce65349ca2"),
], ids=["c36-k2", "girth5-22-k3"])
def test_tables_are_pinned_over_many_sweeps(g, k, sweeps, digest):
    # each sweep spreads only the robber-to-move states the last one won, and
    # skips the robber step after a sweep that won no cops-to-move state; C36
    # runs many sweeps that win few states, girth-5 n = 22 runs 4-slab chunks
    t = _solve(g, k)
    assert t.sweeps == sweeps
    assert _tables_digest(t) == digest


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(1, 14), st.floats(0.1, 0.9),
       st.integers(0, 6), st.integers(0, 10**6))
@example(n=14, k=3, per=1, p=0.3, sparsity=4, seed=0)     # one slab per chunk
@example(n=14, k=3, per=14, p=0.3, sparsity=4, seed=1)    # the whole table
@example(n=14, k=2, per=4, p=0.3, sparsity=2, seed=2)     # an uneven last chunk
@example(n=9, k=1, per=9, p=0.5, sparsity=0, seed=3)      # the lowest digit alone
def test_chunked_cop_passes_match_the_per_vertex_reference(n, k, per, p, sparsity, seed):
    # every cop digit, the lowest (stride 1) included; a chunk whose slabs of
    # `free` are all 0 (all won) is left out, so it is 0 in the result
    g = gen_gnp(n, p, seed)        # the pass needs no connected graph
    closed = [(v,) + g.neighbors(v) for v in range(n)]
    cells, size = n ** k, n ** (k + 1)
    per = min(per, n)
    rng = random.Random(seed)
    table = (1 << size) - 1         # each bit set with probability 2**-(sparsity + 1)
    for _ in range(sparsity + 1):
        table &= rng.getrandbits(size)
    free = [int(rng.random() < 0.7) for _ in range(n)]
    expected = table
    for q in range(k):
        expected = some_neighbor_reference(expected, closed, n ** q, size)
    for first in range(0, n, per):
        if not any(free[first:first + per]):
            expected &= ~(((1 << (per * cells)) - 1) << (first * cells))
    masks = _diagonal_masks(closed, k, per * cells)
    assert _by_chunks(table, 0, n, per, cells, free, masks) == expected


# gen's labellings: offsets {1}, {1, n - 1}, {1, w} and the d powers of two
FEW_OFFSETS = {
    "path9": (gen_path(9), {1}),
    "c10": (gen_cycle(10), {1, 9}),
    "grid3x4": (gen_grid(3, 4), {1, 3}),
    "q3": (gen_hypercube(3), {1, 2, 4}),
    "q4": (gen_hypercube(4), {1, 2, 4, 8}),
}


def _cop_pass_matches_reference(g, k, per, seed):
    """Whether the chunked cop pass over a random table of (g, k), with
    random won slabs, is the per-vertex reference along every digit.  The
    pass and its masks are looked up on the module, so a patched one is
    the one tested."""
    n = g.n
    closed = g.closed_neighborhoods()
    cells, size = n ** k, n ** (k + 1)
    rng = random.Random(seed)
    table = rng.getrandbits(size) & rng.getrandbits(size)
    free = [int(rng.random() < 0.7) for _ in range(n)]
    expected = table
    for q in range(k):
        expected = some_neighbor_reference(expected, closed, n ** q, size)
    for first in range(0, n, per):
        if not any(free[first:first + per]):
            expected &= ~(((1 << (per * cells)) - 1) << (first * cells))
    masks = solver._diagonal_masks(closed, k, per * cells)
    return solver._by_chunks(table, 0, n, per, cells, free, masks) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FEW_OFFSETS))
def test_cop_passes_on_few_offsets_match_the_per_vertex_reference(name, k):
    # one chunk of the whole table, and one or three slabs a chunk
    g = FEW_OFFSETS[name][0]
    for per in (g.n, 3, 1):
        for seed in range(3):
            assert _cop_pass_matches_reference(g, k, per, seed), (per, seed)


@pytest.mark.parametrize("name", sorted(FEW_OFFSETS))
def test_each_digit_shifts_by_the_distinct_offsets(name):
    # digit p, the lowest included, shifts by each offset c - x > 0 times n**p
    g, offsets = FEW_OFFSETS[name]
    n, k = g.n, 3
    masks = _diagonal_masks(g.closed_neighborhoods(), k, n ** (k + 1))
    assert [[shift for shift, _ in diagonals] for diagonals in masks] == \
        [[d * n ** p for d in sorted(offsets)] for p in range(k)]


def _capture_reference(n, k):
    """The capture table bit by bit: bit r*n**k + i is set iff some base-n
    digit of cop tuple i equals r."""
    cells = n ** k
    bits = bytearray((n * cells + 7) // 8)
    for i in range(cells):
        for r in {i // n**q % n for q in range(k)}:
            b = r * cells + i
            bits[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(bits, "little")


@pytest.mark.parametrize("g, k, per", [
    (gen_cycle(5), 1, 5), (gen_cycle(5), 2, 5), (gen_cycle(5), 3, 5), (gen_cycle(5), 4, 5),
    (gen_petersen(), 3, 10), (gen_petersen(), 4, 4),
    (gen_projective_incidence(2), 3, 12),
    (random_connected(16, seed=2, p=0.3), 4, 1),
], ids=["c5-k1", "c5-k2", "c5-k3", "c5-k4", "petersen-k3", "petersen-k4", "heawood-k3",
        "gnp16-k4"])
def test_first_sweep_is_capture_and_its_spread(g, k, per):
    # one chunk (C5, Petersen at k = 3), several (Petersen at k = 4, Heawood),
    # and 16 vertices at k = 4, whose 65,536-bit slab is wider than a chunk:
    # the halving cut stops at one slab.  Tables of one chunk spread capture
    # by the chunk's pass, wider ones take the closed form.
    n, cells = g.n, g.n ** k
    assert _chunk_slabs(n, k) == per
    closed = g.closed_neighborhoods()
    capture = _capture_reference(n, k)
    spread = capture
    for q in range(k):
        spread = some_neighbor_reference(spread, closed, n ** q, n * cells)
    caps = _capture(n, k)
    assert caps == _slabs(capture, n, cells) == _halve(capture, n, cells)
    first = _first_reach(caps, closed)
    assert _horner(first, cells) == _unhalve(first, cells) == spread
    masks = _diagonal_masks(closed, k, per * cells)
    assert _by_chunks(capture, 0, n, per, cells, [1] * n, masks) == spread
    if per == n:
        assert _spread_cops(capture, masks) == spread


# Pinned at the solver before chunks the cops have won were skipped.
MULTI_CHUNK_PINS = {
    "heawood": (lambda: gen_projective_incidence(2), 7,
                "5cc360c61664beadd73c265143065fdd5f9ff8746f4655406071ae9be31524c2"),
    "girth5-28": (lambda: random_girth5(28, seed=0), 13,
                  "27428a6a1f0cf0cfde61f711d64b263af319142f92f6d2017fb8ee8366a07d0d"),
}


def _count_skips(monkeypatch):
    """The (first slab, slab count) of every nonzero part of a cop pass that
    ``_by_chunks`` leaves out because all its slabs are won."""
    skips = []
    real = solver._by_chunks

    def counting(table, first, count, per, cells, free, *rest):
        if table and not any(free[first:first + count]):
            skips.append((first, count))
        return real(table, first, count, per, cells, free, *rest)

    monkeypatch.setattr(solver, "_by_chunks", counting)
    return skips


@pytest.mark.parametrize("name", sorted(MULTI_CHUNK_PINS))
def test_multi_chunk_solves_that_skip_won_slabs_match_the_multiset_oracle(monkeypatch, name):
    # Heawood runs a 12-slab and a 2-slab chunk, 28 vertices 14 chunks of 2
    # slabs; on both, cop passes with new wins reach slabs already all won
    make, sweeps, digest = MULTI_CHUNK_PINS[name]
    g = make()
    assert _chunk_slabs(g.n, 3) < g.n
    skips = _count_skips(monkeypatch)
    t = _solve(g, 3)
    assert skips
    assert t.sweeps == sweeps
    assert _tables_digest(t) == digest
    _assert_matches_multiset_oracle(g, 3)


@pytest.mark.parametrize("mutant", ["none", "skip-a-chunk-with-a-live-slab",
                                    "first-reach-drops-a-neighbour"])
def test_sweep_mutants_change_the_pinned_tables(monkeypatch, mutant):
    if mutant == "skip-a-chunk-with-a-live-slab":
        real = solver._by_chunks

        def skip_part_won(table, first, count, per, cells, free, *rest):
            if count <= per and not all(free[first:first + count]):
                return 0
            return real(table, first, count, per, cells, free, *rest)

        monkeypatch.setattr(solver, "_by_chunks", skip_part_won)
    elif mutant == "first-reach-drops-a-neighbour":
        real = solver._first_reach
        monkeypatch.setattr(solver, "_first_reach",
                            lambda caps, closed: real(caps, (closed[0][:-1],) + tuple(closed[1:])))
    make, _, digest = MULTI_CHUNK_PINS["girth5-28"]
    assert (_tables_digest(_solve(make(), 3)) == digest) == (mutant == "none")


# Pinned at the solver whose lowest cop digit multiplied each vertex's field
# by its closed neighbourhood: 144 vertices run 2-slab chunks, two offsets
GRID12_PIN = (lambda: gen_grid(12, 12), 2, 45,
              "901bb2590f646a3b86922709d2a8c59716bd778fc2e5bc6926d6800f8b263f28")


def test_tables_are_pinned_where_the_graph_has_few_offsets():
    make, k, sweeps, digest = GRID12_PIN
    g = make()
    assert _chunk_slabs(g.n, k) == 2
    t = _solve(g, k)
    assert t.sweeps == sweeps
    assert _tables_digest(t) == digest


@pytest.mark.parametrize("mutant", ["none", "digit-0-drops-an-offset",
                                    "digit-0-shifts-the-wrong-way"])
def test_lowest_digit_mutants_fail_the_differential_and_change_the_pinned_tables(
        monkeypatch, mutant):
    if mutant == "digit-0-drops-an-offset":
        real_masks = solver._diagonal_masks

        def drop_last_offset(closed, k, width):
            low, *rest = real_masks(closed, k, width)
            return (low[:-1], *rest)

        monkeypatch.setattr(solver, "_diagonal_masks", drop_last_offset)
    elif mutant == "digit-0-shifts-the-wrong-way":
        real_spread = solver._spread_cops

        def wrong_way(chunk, masks):
            out = chunk
            for shift, mask in masks[0]:
                out |= ((chunk & mask) >> shift) | ((chunk << shift) & mask)
            return real_spread(out, masks[1:])

        monkeypatch.setattr(solver, "_spread_cops", wrong_way)
    matches = [_cop_pass_matches_reference(g, k, per, 0)
               for g, _ in FEW_OFFSETS.values() for k in (1, 2) for per in (g.n, 3)]
    assert all(matches) if mutant == "none" else not any(matches)
    make, k, _, digest = GRID12_PIN
    assert (_tables_digest(_solve(make(), k)) == digest) == (mutant == "none")


def test_solver_strategy_beats_adversary():
    cases = [(gen_cycle(4), 2), (gen_cycle(5), 2), (gen_petersen(), 3)]
    for g, k in cases:
        cop = SolverCop(g, k)
        bound = g.n * math.comb(g.n + k - 1, k)
        depth = min(bound, 200)
        cfg = GameConfig(cop_count=k, max_rounds=depth, seed=0)
        t = adversarial_robber_search(g, cop, cfg, depth)
        assert t.caught, f"solver strategy failed on {g}"
        assert t.outcome.round <= bound


def test_solver_strategy_rejects_unwinnable():
    with pytest.raises(ValueError):
        SolverCop(gen_cycle(4), 1)


def test_small_planar_graphs_need_at_most_three_cops():
    # classical fact, checked here only through the oracle's values
    octahedron = Graph(6, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5),
        (2, 3), (2, 5), (3, 4), (3, 5), (4, 5),
    ])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    wheel6 = Graph(7, [(i, (i % 6) + 1) for i in range(1, 7)]
                   + [(0, i) for i in range(1, 7)])
    cases = [gen_grid(3, 4), octahedron, prism, wheel6, gen_cycle(8)]
    for g in cases:
        assert cop_number(g, 3) is not None


def _assert_matches_multiset_oracle(g, k):
    t = _solve(g, k)
    o = multiset_solve(g, k)
    assert t.sweeps == o.sweeps
    for ci, ms in enumerate(o.msets):
        for r in range(g.n):
            b = t.state(ms, r)
            assert _bit(t.win_cop, b) == (o.win_cop[ci] >> r) & 1
            assert (t.level(b) >= 0) == (o.win_rob[ci] >> r) & 1
            assert t.level(b) == o.rob_level[ci][r]
    placement = multiset_placement(g, k)
    assert k_copwin_placement(g, k) == placement
    assert is_k_copwin(g, k) == (placement is not None)


def test_tables_match_multiset_oracle_on_all_small_graphs():
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            for k in (1, 2):
                _assert_matches_multiset_oracle(g, k)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_tables_match_multiset_oracle_on_random_graphs(n):
    for seed in range(4):
        for p in (0.3, 0.6):
            g = random_connected(n, seed=100 * n + seed, p=p)
            for k in (1, 2, 3):
                _assert_matches_multiset_oracle(g, k)


@pytest.mark.parametrize("g, k", [
    (gen_cycle(36), 1),
    (gen_cycle(36), 2),
    (Graph(33, [(v, v + 1) for v in range(32)]
           + [(0, 5), (3, 11), (8, 20), (14, 16), (21, 30), (25, 32)]), 2),
], ids=["c36-k1", "c36-k2", "chorded-path33-k2"])
def test_tables_match_multiset_oracle_on_masks_wider_than_a_digit(g, k):
    # n > 30: the lowest cop digit's neighbourhood mask spans two 30-bit digits
    assert 30 < g.n <= 40
    _assert_matches_multiset_oracle(g, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.floats(0.2, 0.9), st.integers(0, 10**6))
def test_packed_solver_matches_multiset_oracle_on_hypothesis_graphs(n, p, seed):
    g = random_connected(n, seed=seed, p=p)
    placements = {k: multiset_placement(g, k) for k in (1, 2)}
    for k, placement in placements.items():
        assert is_k_copwin(g, k) == (placement is not None)
        assert k_copwin_placement(g, k) == placement
    expected = next((k for k, pl in placements.items() if pl is not None), None)
    assert cop_number(g, 2) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.floats(0.2, 0.9), st.integers(0, 10**6))
def test_tables_match_multiset_oracle_on_hypothesis_graphs(n, k, p, seed):
    # every state's label and first-won sweep, not only the placement
    _assert_matches_multiset_oracle(random_connected(n, seed=seed, p=p), k)


PIN_GRAPHS = {
    "petersen": gen_petersen,
    "c5": lambda: gen_cycle(5),
    "grid4x5": lambda: gen_grid(4, 5),
    "q4": lambda: gen_hypercube(4),
    "girth5-14": lambda: random_girth5(14, seed=3),
}


@pytest.mark.parametrize("name", sorted(PIN_GRAPHS))
def test_solver_cop_transcripts_match_multiset_oracle(name):
    g = PIN_GRAPHS[name]()
    for k in range(cop_number(g, 3), 4):
        new, old = SolverCop(g, k), MultisetSolverCop(g, k)
        for seed in (0, 1):
            cfg = GameConfig(cop_count=k, max_rounds=200, seed=seed)
            for robber in (GreedyFarRobber(), RandomRobber()):
                assert (transcript_to_json(play(g, new, robber, cfg))
                        == transcript_to_json(play(g, old, robber, cfg)))
        assert (transcript_to_json(adversarial_robber_search(g, new, cfg, 200))
                == transcript_to_json(adversarial_robber_search(g, old, cfg, 200)))


def test_solver_cop_moves_match_multiset_oracle_on_every_state():
    cases = [(gen_cycle(5), 2), (gen_grid(3, 3), 2), (gen_petersen(), 3)]
    cases += [(random_connected(7, seed=s, p=0.4), k) for s in range(3) for k in (2, 3)]
    for g, k in cases:
        if not is_k_copwin(g, k):
            continue
        new, old = SolverCop(g, k), MultisetSolverCop(g, k)
        for cops in itertools.product(range(g.n), repeat=k):
            for r in range(g.n):
                if r not in cops:
                    view = View(cop_positions=cops, robber_position=r)
                    assert new.move(g, view, None) == old.move(g, view, None)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.sampled_from([2, 3]), st.floats(0.2, 0.9), st.integers(0, 10**6))
def test_solver_cop_moves_match_the_enumerating_reference(n, k, p, seed):
    # dense graphs give large tie sets and cop tuples with repeated vertices
    g = random_connected(n, seed=seed, p=p)
    if not is_k_copwin(g, k):
        return
    cop, t = SolverCop(g, k), _solve(g, k)
    for cops in itertools.product(range(n), repeat=k):
        for r in range(n):
            if r not in cops and _bit(t.win_cop, t.state(cops, r)):
                view = View(cop_positions=cops, robber_position=r)
                assert cop.move(g, view, None)[0] == solver_reference_move(g, t, cops, r)


@pytest.mark.parametrize("g, k", [
    (gen_path(6), 1), (Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]), 1),
    (gen_cycle(5), 2), (random_connected(6, seed=1, p=0.8), 2), (gen_cycle(6), 3),
    (random_connected(6, seed=2, p=0.6), 3),
    (Graph(4, list(itertools.combinations(range(4), 2))), 4), (gen_cycle(5), 4),
    (random_connected(5, seed=3, p=0.8), 4),
], ids=["path6-k1", "tree6-k1", "c5-k2", "dense6-k2", "c6-k3", "dense6-k3", "k4-k4", "c5-k4",
        "dense5-k4"])
def test_solver_cop_moves_match_the_reference_in_shuffled_interleaved_order(g, k):
    # the kept last-tuple mask and the selectors must not carry one state's
    # answer into another: one cop asks every state in a random order, a
    # second one of the same graph asks each tuple's robbers back to back
    t = _solve(g, k)
    states = [(cops, r) for cops in itertools.product(range(g.n), repeat=k)
              for r in range(g.n) if r not in cops and _bit(t.win_cop, t.state(cops, r))]
    rng = random.Random(k * 100 + g.n)
    scattered = rng.sample(states, len(states))
    robbers: dict = {}
    for cops, r in states:
        robbers.setdefault(cops, []).append(r)
    tuples = list(robbers)
    rng.shuffle(tuples)
    grouped = [(cops, r) for cops in tuples for r in rng.sample(robbers[cops], len(robbers[cops]))]
    a, b = SolverCop(g, k), SolverCop(g, k)
    for pair in zip(scattered, grouped):
        for cop, (cops, r) in zip((a, b), pair):
            view = View(cop_positions=cops, robber_position=r)
            assert cop.move(g, view, None)[0] == solver_reference_move(g, t, cops, r)


def test_solver_cop_moves_leave_no_cyclic_garbage(petersen):
    # a move's search must free itself by reference counting: garbage left
    # to the cycle collector piles up between collections
    g, k = petersen, 3
    cop = SolverCop(g, k)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for cops in itertools.product(range(g.n), repeat=k):
            for r in range(g.n):
                if r not in cops:
                    cop.move(g, View(cop_positions=cops, robber_position=r), None)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
