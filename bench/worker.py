"""One workload run in a fresh interpreter; started by run.py.

Prints one JSON object on its last stdout line.

Times are CPU time of this process (user + system), not wall time, brought
to the reference speed of ``speed.py``: each instance's CPU time is scaled
by the reference kernel's nominal time over its time measured around the
instance.  CPU time leaves out the stretches in which other tenants hold the
CPU; the scaling takes out the stretches in which they slow every
instruction.  BLAS and OpenMP pools are held to one thread (see run.py), so
CPU time is not inflated by parallel library calls either.  ``setup_s`` is
the CPU time the process has used when the first instance starts
(interpreter start, package import and making the input pool), scaled by
kernel samples taken right after it.  The unscaled figures are kept under
``raw`` in the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import copsrobbers

    where = Path(copsrobbers.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"copsrobbers imported from {where}, not from this checkout")


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten instances beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)

    _import_package()
    import metrics
    import speed
    from workloads import RUNNERS, build_pool, check

    # kernel samples after the import and after the pool is made; their own
    # time is taken out of setup_s
    clock = time.process_time
    probe = speed.Probe(clock)
    for _ in range(speed.MIN_SAMPLES):
        probe.sample()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        pool = tracer.call("generators.gen", build_pool, args.workload, args.seed, args.size)
    else:
        pool = build_pool(args.workload, args.seed, args.size)
    setup_raw = clock() - probe.spent
    for _ in range(speed.MIN_SAMPLES):
        probe.sample()
    setup_s = setup_raw * probe.scale(0.0, clock())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    intervals, ids, done, failures = [], [], [], []
    start, wall_start = clock(), time.perf_counter()
    blocks = 0
    for b, block in enumerate(pool):
        if tracer is not None:
            tracer.counting = b == 0
        for i, inst in enumerate(block):
            run = RUNNERS[inst.kind]
            ids.append(f"{b}:{i}")
            t0 = clock()
            try:
                if tracer is None:
                    out = run(inst)
                else:
                    tracer.instance = f"{b}:{i}"
                    out = tracer.call("bench.instance", run, inst)
            except Exception as exc:  # every instance failure is counted, not fatal
                failures.append(f"{inst.label} block {b}: {type(exc).__name__}: {exc}")
                continue
            finally:
                intervals.append((t0, clock()))
                probe.maybe_sample()
            done.append((b, inst, out))
        blocks += 1
        if clock() - start >= args.seconds:
            break
    probe.sample()
    elapsed = clock() - start
    wall_elapsed = time.perf_counter() - wall_start
    scales = [probe.scale(t0, t1) for t0, t1 in intervals]
    raw_times = [t1 - t0 for t0, t1 in intervals]
    times = [t * f for t, f in zip(raw_times, scales)]
    if tracer is not None:
        tracer.counting = False
        tracer.uninstall()

    # reference checks, outside the timed interval
    passed = 0
    for b, inst, out in done:
        try:
            problems = check(inst, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{inst.label} block {b}: {'; '.join(problems)}")
        else:
            passed += 1

    percentile, tail_s = tail(times)
    result = {
        "attempted": len(times),
        "failed": len(times) - passed,
        "failures": failures[:20],
        "blocks": blocks,
        "elapsed_s": elapsed,
        "wall_elapsed_s": wall_elapsed,
        "setup_s": setup_s,
        "instances_per_s": passed / sum(times),
        "instance_p50_s": statistics.median(times),
        "instance_tail_s": tail_s,
        "tail_percentile": percentile,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_samples": len(probe.durations),
        "kernel_median_s": statistics.median(probe.durations),
        "raw": {
            "setup_s": setup_raw,
            "instances_per_s": passed / sum(raw_times),
            "instance_p50_s": statistics.median(raw_times),
            "instance_tail_s": tail(raw_times)[1],
        },
    }
    if tracer is not None:
        scale = dict(zip(ids, scales))
        scale[None] = setup_s / setup_raw
        self_times = tracer.self_times(scale)
        setup_times = {"generators.gen": self_times.pop("generators.gen", 0.0)}
        result["layers"] = metrics.per_layer_values(
            self_times, setup_times, tracer.counts, blocks)
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
