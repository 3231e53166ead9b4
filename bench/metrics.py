"""Every metric the benchmark prints: name, unit and how it is derived.

End-to-end metrics come from the untraced run.  Per-layer metrics come from
the traced run:

* ``("self", span)``: self time of the named spans, in seconds per block
  (one pass of the workload's mix), averaged over the blocks of the run;
* ``("setup", span)``: total time of the named spans during set-up;
* ``("count", key)``: a deterministic count over the first block;
* ``("ratio", key, base)``: two such counts divided (0 when the base is 0);
* ``("overhead", which)``: untraced minus traced ``instances_per_s`` on the
  same inputs, as a rate or as a share of the untraced rate.

A layer a workload does not call reports 0 on that workload.
"""

END_TO_END = [
    # name, unit, better, bound
    ("instances_per_s", "1/s", "higher", 0.25),
    ("instance_p50_s", "s", "lower", 0.25),
    ("instance_tail_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

PER_LAYER = [
    ("graph.parse_s", "s", ("self", "graph.parse")),
    ("graph.vertices", "count", ("count", "graph.vertices")),
    ("graph.edges", "count", ("count", "graph.edges")),
    ("generators.gen_s", "s", ("setup", "generators.gen")),
    ("solver.solve_s", "s", ("self", "solver.solve")),
    ("solver.solves", "count", ("count", "solver.solves")),
    ("solver.states", "count", ("count", "solver.states")),
    ("solver.strategy_s", "s", ("self", "solver.strategy")),
    ("solver.move_s", "s", ("self", "solver.move")),
    ("engine.play_s", "s", ("self", "engine.play")),
    ("engine.robber_move_s", "s", ("self", "engine.robber_move")),
    ("engine.rounds", "count", ("count", "engine.rounds")),
    ("engine.adversary_s", "s", ("self", "engine.adversary")),
    ("engine.adversary_nodes", "count", ("count", "engine.adversary_nodes")),
    ("engine.validate_s", "s", ("self", "engine.validate")),
    ("guard.soundness_s", "s", ("self", "guard.soundness")),
    ("guard.states_checked", "count", ("count", "guard.states_checked")),
    ("expander.plan_s", "s", ("self", "expander.plan")),
    ("expander.families_sampled", "count", ("count", "expander.families_sampled")),
    ("expander.family_yield", "ratio",
     ("ratio", "expander.family_successes", "expander.families_sampled")),
    ("expander.level_plan_frac", "ratio", ("ratio", "expander.level_plans", "expander.plans")),
    ("expander.claim_s", "s", ("self", "expander.claim")),
    ("expander.claim_subsets", "count", ("count", "expander.claim_subsets")),
    ("expander.invisible_s", "s", ("self", "expander.invisible")),
    ("meyniel.analysis_s", "s", ("self", "meyniel.analysis")),
    ("meyniel.nodes", "count", ("count", "meyniel.nodes")),
    ("meyniel.pool_size", "count", ("count", "meyniel.pool_size")),
    ("meyniel.leaf_resamples", "count", ("count", "meyniel.leaf_resamples")),
    ("meyniel.move_s", "s", ("self", "meyniel.move")),
    ("bounds.chain_s", "s", ("self", "bounds.chain")),
    ("bounds.boundary_s", "s", ("self", "bounds.boundary")),
    ("trace.overhead_ips", "1/s", ("overhead", "rate")),
    ("trace.overhead_frac", "ratio", ("overhead", "share")),
]


def per_layer_values(self_times, setup_times, counts, blocks):
    """Per-layer values from one traced run, except the overhead pair."""
    out = {}
    for name, _, source in PER_LAYER:
        kind = source[0]
        if kind == "self":
            out[name] = self_times.get(source[1], 0.0) / blocks
        elif kind == "setup":
            out[name] = setup_times.get(source[1], 0.0)
        elif kind == "count":
            out[name] = counts.get(source[1], 0)
        elif kind == "ratio":
            base = counts.get(source[2], 0)
            out[name] = counts.get(source[1], 0) / base if base else 0.0
    return out
