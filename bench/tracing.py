"""Span tracing from outside the package, used only by the traced run.

Spans are recorded around calls into the public functions of each layer.
The traced run installs wrappers on the module attributes the workloads and
the package itself look up at call time (``solver.is_k_copwin``,
``engine.play``, ``meyniel.build_plan`` ...), so the instance code is the
same in the traced and the untraced run; the untraced run installs nothing.

Where a public wrapper hides a layer boundary, the hidden pieces are wrapped
in the namespace the wrapper looks them up in:

* ``cop_number`` calls ``solver.is_k_copwin`` once per k, so every table
  build is its own ``solver.solve`` span;
* ``run_meyniel`` builds ``MeynielAnalysis`` and ``MeynielCop`` and calls
  ``play`` through ``copsrobbers.meyniel``'s globals, and the analysis plans
  its leaves through ``meyniel.sample_cop_sets`` / ``meyniel.build_plan``;
* ``invisible_mode`` and ``check_guard_soundness`` import ``play`` and
  ``expand_game_layers`` from ``copsrobbers.engine`` when called.

Strategy objects (``SolverCop``, ``MeynielCop``, the robbers) are replaced by
timing proxies that forward everything and time ``move`` (and the robber's
``place``).

A span is ``[name, parent index, instance id, start, end]``, with start and
end in process CPU seconds; a span's self time is its duration minus the
durations of its direct children, brought to the reference speed with its
instance's factor (see ``speed.py``).  Counts are recorded only while
``counting`` is set (the first block of a run), so they repeat exactly for a
given seed.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

from copsrobbers import engine, expander, graph, guard, meyniel, solver
from copsrobbers import bounds
from copsrobbers.expander import CapturePlan


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None
        self.counting = False
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """`fn` timed as a span called `name`; `on_result(args, result)` counts."""
        spans, stack, clock = self.spans, self.stack, time.process_time

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.instance, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if on_result is not None and self.counting:
                on_result(args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, key, amount=1):
        if self.counting:
            self.counts[key] += amount

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        count = self.count

        def parsed(args, kwargs, g):
            count("graph.vertices", g.n)
            count("graph.edges", g.edge_count)

        def solved(args, kwargs, result):
            g, k = args[0], args[1]
            count("solver.solves")
            count("solver.states", math.comb(g.n + k - 1, k) * 2 * g.n)

        def played(args, kwargs, t):
            count("engine.rounds", len(t.rounds))

        def soundness(args, kwargs, rep):
            count("guard.states_checked", rep["states_checked"])

        def claimed(args, kwargs, ok):
            count("expander.claim_subsets", 1 << args[0].n)

        def analysed(args, kwargs, an):
            count("meyniel.nodes", len(an.nodes))
            count("meyniel.pool_size", an.pool_size)
            for node in an.nodes:
                if node.kind == "leaf":
                    count("meyniel.leaf_resamples", node.resamples - 1)
                    count("expander.family_successes", 0 if node.broken else 1)

        def planned(args, kwargs, plan):
            count("expander.plans")
            if isinstance(plan, CapturePlan) and plan.kind == "levels":
                count("expander.level_plans")

        def sampled(args, kwargs, family):
            count("expander.families_sampled")

        proxy = self.proxy
        real_make = expander.make_expander_cop

        def make_expander_cop(g, params, seed):
            try:
                result = real_make(g, params, seed)
            except ValueError:
                count("expander.families_sampled", params.resample_limit)
                raise
            _, _, plans, attempts = result
            count("expander.families_sampled", attempts)
            count("expander.family_successes")
            for plan in plans.values():
                planned((), {}, plan)
            return result

        real_expand = engine.expand_game_layers

        def expand_game_layers(*args, **kwargs):
            placement, s0, layers = real_expand(*args, **kwargs)
            if self.current() == "engine.adversary":
                count("engine.adversary_nodes", sum(len(layer) for layer in layers))
            return placement, s0, layers

        real_solver_cop = solver.SolverCop
        real_meyniel_cop = meyniel.MeynielCop
        real_greedy, real_random = engine.GreedyFarRobber, engine.RandomRobber
        play = self.wrap("engine.play", engine.play, played)

        patches = [
            (graph, "parse_edge_list", self.wrap("graph.parse", graph.parse_edge_list, parsed)),
            (solver, "is_k_copwin", self.wrap("solver.solve", solver.is_k_copwin, solved)),
            (solver, "k_copwin_placement",
             self.wrap("solver.strategy", solver.k_copwin_placement)),
            (solver, "SolverCop", self.wrap(
                "solver.strategy",
                lambda *a, **kw: proxy(real_solver_cop(*a, **kw), "solver.move"))),
            (engine, "play", play),
            (meyniel, "play", play),
            (engine, "GreedyFarRobber", lambda: proxy(real_greedy(), "engine.robber_move", True)),
            (engine, "RandomRobber", lambda: proxy(real_random(), "engine.robber_move", True)),
            (engine, "adversarial_robber_search",
             self.wrap("engine.adversary", engine.adversarial_robber_search)),
            (engine, "expand_game_layers", expand_game_layers),
            (engine, "validate_transcript",
             self.wrap("engine.validate", engine.validate_transcript)),
            (engine, "transcript_to_json",
             self.wrap("engine.validate", engine.transcript_to_json)),
            (guard, "check_guard_soundness",
             self.wrap("guard.soundness", guard.check_guard_soundness, soundness)),
            (expander, "make_expander_cop", self.wrap("expander.plan", make_expander_cop)),
            (meyniel, "sample_cop_sets",
             self.wrap("expander.plan", meyniel.sample_cop_sets, sampled)),
            (meyniel, "build_plan", self.wrap("expander.plan", meyniel.build_plan, planned)),
            (expander, "verify_claim", self.wrap("expander.claim", expander.verify_claim, claimed)),
            (expander, "invisible_mode", self.wrap("expander.invisible", expander.invisible_mode)),
            (meyniel, "MeynielAnalysis",
             self.wrap("meyniel.analysis", meyniel.MeynielAnalysis, analysed)),
            (meyniel, "MeynielCop",
             lambda an: proxy(real_meyniel_cop(an), "meyniel.move")),
            (meyniel, "run_meyniel", self.wrap("meyniel.run", meyniel.run_meyniel)),
            (bounds, "check_eq1_chain", self.wrap("bounds.chain", bounds.check_eq1_chain)),
            (bounds, "trivial_region_boundary",
             self.wrap("bounds.boundary", bounds.trivial_region_boundary)),
        ]
        for module, attr, replacement in patches:
            self._patch(module, attr, replacement)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def proxy(self, inner, move_span, time_place=False):
        return _StrategyProxy(self, inner, move_span, time_place)

    # -- analysis ----------------------------------------------------------

    def self_times(self, scale: dict) -> dict[str, float]:
        """Sum of self time per span name, each span's time times ``scale[instance]``."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _, instance, start, end) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * scale[instance]
        return totals

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class _StrategyProxy:
    """Forwards to a strategy object; its moves are timed as spans."""

    def __init__(self, tracer, inner, move_span, time_place):
        self._inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)
        self.move = tracer.wrap(move_span, inner.move)
        if time_place:
            self.place = tracer.wrap(move_span, inner.place)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)
