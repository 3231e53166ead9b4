#!/usr/bin/env python3
"""The level-decomposition cop team on a small-diameter graph.

Random cop sets C_1..C_{t+1} are sampled; around the robber's start the
candidate region splits level by level into a matchable shell (occupied by
cops walking their assigned routes) and a shrinking core.  The robber is
provably inside the core at each level's deadline, so when the core empties
the robber is gone.
"""

import json

from copsrobbers import (
    GameConfig,
    StrategyParams,
    adversarial_robber_search,
    gen_cycle,
    make_expander_cop,
    verify_claim,
    sample_cop_sets,
)
from copsrobbers.expander import plan_summary

g = gen_cycle(16)
params = StrategyParams(lam=6.0, density=0.4, levels=5)
cop, family, plans, attempts = make_expander_cop(g, params, seed=0)
print(f"16-cycle, lam={params.lam}, density={params.density}: "
      f"family of {family.total_cops} cops found after {attempts} attempt(s)")
print("set sizes:", [len(s) for s in family.sets])

deep = max(plans.values(), key=lambda p: p.capture_deadline)
print(f"\ndeepest plan starts at vertex {deep.start_vertex} "
      f"(terminal level {deep.terminal_level}, capture by round {deep.capture_deadline}):")
print(json.dumps(plan_summary(deep, family, params)["levels"], indent=2))

deadline = max(p.capture_deadline for p in plans.values())
cfg = GameConfig(cop_count=family.total_cops, max_rounds=deadline, seed=0)
t = adversarial_robber_search(g, cop, cfg, deadline)
print(f"\nworst robber line: {t.outcome.kind} at round {t.outcome.round} "
      f"(schedule bound {deadline})")

# the exhaustive hitting property behind the matchings, on a tiny graph
small = gen_cycle(8)
small_params = StrategyParams(lam=2.0, density=0.8, levels=2)
fam = sample_cop_sets(small, small_params, seed=1)
print("\nexhaustive subset check of the sampled sets on the 8-cycle:",
      verify_claim(small, fam, small_params))
