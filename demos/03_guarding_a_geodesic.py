#!/usr/bin/env python3
"""One cop guarding a shortest path via the shadow projection.

The cop pins itself to the robber's shadow on the geodesic; the shadow moves
at most one step per robber move, so once matched the cop never loses it, and
a robber touching the path is standing on its own shadow -- fatal.
"""

from copsrobbers import GameConfig, gen_cycle, play, settle_bound, shadow
from copsrobbers.engine import GreedyFarRobber, expand_game_layers
from copsrobbers.guard import GuardCop, check_guard_soundness

g = gen_cycle(10)
path = [0, 1, 2, 3, 4]
print("guarding the geodesic", path, "on the 10-cycle")
print("settle bound (diameter + path length):", settle_bound(g, path))

for r in (7, 8, 2):
    print(f"  shadow of a robber at {r}: index {shadow(g, path, r)}"
          f" -> vertex {path[shadow(g, path, r)]}")

cop = GuardCop(g, path)
cfg = GameConfig(cop_count=1, max_rounds=30, seed=4)
t = play(g, cop, GreedyFarRobber(), cfg)
print("\nagainst a distance-maximizing robber:", t.outcome.kind,
      f"(cutoff {t.config.max_rounds} rounds; one cop cannot win the cycle)")

# where can the robber still be once the guard has settled?  (touching the
# path is suicide: the next cop move lands on it, so only the far arc is safe)
# The expansion numbers each distinct position once, so the lines alive after
# a round are found by following the records from the placements.
bound = settle_bound(g, path)
_, (keys, recs), layers = expand_game_layers(g, cop, cfg, bound + 4)
alive = set(layers[0])
for _ in range(bound + 4):
    alive = {child for i in alive for _, child in recs[i].children if child >= 0}
surviving = {keys[i][1] for i in alive} - set(path)
print(f"safe robber territory {4} rounds past the settle bound:",
      sorted(surviving))

# the promise for every round: every line up to the settle bound, then one
# step from every settled position
report = check_guard_soundness(g, path)
print("soundness check (base to the settle bound + one-step closure):",
      f"{report['states_checked']} states, {len(report['violations'])} violations")
