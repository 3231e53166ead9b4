#!/usr/bin/env python3
"""The full recursion, and the log-space arithmetic behind its cop count.

On a desk-scale graph: guard a diameter-realizing geodesic, treat it as
deleted, recurse on the robber's component, and finish with the expander
sweep once the component's diameter drops below the threshold.

The asymptotic ledger lives in log space: at scale L = log2(n) the recursion
consumes f(n) = 2n(log n)^3 2^{-sqrt(log n)} cops, the induction step's
inequality chain is verified with interval arithmetic, and the boundary of
the trivial region (where f(n) >= n) is bisected to 1e-6.
"""

import mpmath

from copsrobbers import GameConfig, StrategyParams, gen_grid, run_meyniel
from copsrobbers.bounds import bound_params, check_eq1_chain, trivial_region_boundary

g = gen_grid(5, 6)
params = StrategyParams(lam=2.0, density=0.8, levels=3)
res = run_meyniel(g, 3, params, GameConfig(cop_count=1, max_rounds=500, seed=3))
print(f"5x6 grid, diameter threshold 3 ({res.regime}):")
print(f"  outcome: {'caught' if res.caught else 'escaped'} "
      f"at round {res.transcript.outcome.round}")
print(f"  cops used: {res.cops_used} = {res.guards_used} guard(s) "
      f"+ {res.expander_cops} expander cops (pool fielded: {res.pool_size})")

print("\nscale parameters at L = log2(n) = 1024:")
p = bound_params(1024)
for name in ("t", "p_log", "diameter_threshold_log", "f_log"):
    x = getattr(p, name)
    print(f"  {name:24} = {mpmath.nstr(mpmath.mpf(x.a), 8)}")

b = trivial_region_boundary()
print(f"\nthe bound is vacuous (f(n) >= n) up to L* in "
      f"[{mpmath.nstr(b.low, 12)}, {mpmath.nstr(b.high, 12)}]")

print("\ninduction-step inequality chain at L = 1600, deleted path at the threshold:")
report = check_eq1_chain(1600)
VERDICT = {True: "holds", False: "FAILS", None: "inconclusive"}
for s in report.steps:
    print(f"  {s.name:>16}: {VERDICT[s.holds]} "
          f"(slack >= {mpmath.nstr(s.slack_lo, 6)})")
e = report.end_to_end
print(f"  {'end_to_end':>16}: {VERDICT[e.holds]} "
      f"(slack >= {mpmath.nstr(e.slack_lo, 6)})")
