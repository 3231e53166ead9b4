"""Benchmark of the copsrobbers toolkit: one command, three workloads.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a single process with one
thread runs one instance after another until ``--seconds`` have passed
(finishing the block it is in).  Every run is a fresh interpreter, so the
solver's ``lru_cache`` starts empty and ``setup_s`` and ``peak_rss_mb``
belong to one workload.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over the measured run and four set-up-only runs.  Times are CPU time
brought to the reference speed of ``bench/speed.py``, so that a slow
stretch of a shared machine does not read as a slower program.

``--trace 1`` prints the per-layer metrics: it runs the workload untraced
and then traced, ``--seconds / 2`` each on the same inputs, takes the
per-layer numbers from the traced half and the tracing overhead from the
difference of the two ``instances_per_s``.

``--seed2 N`` repeats the untraced measurement on a second seed and prints
it, so a gain can be confirmed on a seed not used while it was written.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a run whose instances raise or
fail their reference checks exits with code 1.  The full result and the
traced run's spans are written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_ONLY_RUNS = 4
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("solve", "recurse", "verify")


class WorkerError(RuntimeError):
    pass


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, seed, seconds, trace=0, setup_only=False, spans=None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.args.workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace), "--size", self.args.size]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        # one thread: numerical libraries must not fan out behind the loop
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("time limit reached before the run finished")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError("worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self, seed):
        setups = [self.worker(seed, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        res = self.worker(seed, self.args.seconds)
        setups.append(res["setup_s"])
        res["setup_samples"] = setups
        values = {name: res[name] for name, *_ in metrics.END_TO_END}
        values["setup_s"] = statistics.median(setups)
        return res, values

    def traced(self, seed, spans):
        half = self.args.seconds / 2
        plain = self.worker(seed, half)
        res = self.worker(seed, half, trace=1, spans=spans)
        values = dict(res["layers"])
        values["trace.overhead_ips"] = plain["instances_per_s"] - res["instances_per_s"]
        values["trace.overhead_frac"] = values["trace.overhead_ips"] / plain["instances_per_s"]
        res["attempted"] += plain["attempted"]
        res["failed"] += plain["failed"]
        res["failures"] = plain["failures"] + res["failures"]
        res["untraced"] = {k: plain[k] for k in ("instances_per_s", "blocks", "attempted")}
        return res, values


def _fmt(x) -> str:
    return str(x) if isinstance(x, int) else f"{x:.6g}"


def report_lines(res, values, units, trace) -> list[str]:
    lines = []
    for name, value in values.items():
        line = f"{name:28} {_fmt(value):>14} {units[name]}"
        if name == "instance_tail_s":
            line += f"  (p{res['tail_percentile']:.1f} of {res['attempted']} instances)"
        elif name == "setup_s":
            line += f"  (median of {len(res['setup_samples'])} set-ups)"
        lines.append(line)
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    lines.append(f"{'failed_frac':28} {_fmt(frac):>14} ratio  "
                 f"({res['failed']} of {res['attempted']} instances)")
    lines.append(f"# times are CPU seconds at the reference speed (bench/speed.py); the kernel's "
                 f"median over {res['kernel_samples']} samples was {res['kernel_median_s']:.6g} s "
                 f"against {speed.REF_KERNEL_S} s nominal")
    if trace:
        lines.append(f"# counts cover block 0; times are per block over "
                     f"{res['blocks']} blocks; {res['span_count']} spans")
    else:
        raw = res["raw"]
        lines.append("# unscaled CPU time: " + " ".join(
            f"{name}={_fmt(raw[name])}"
            for name in ("instances_per_s", "instance_p50_s", "instance_tail_s")))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed2", type=int, help="also measure on this second seed")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the self-test")
    args = ap.parse_args(argv)

    runner = Runner(args)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    e2e_units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    units = {name: unit for name, unit, _ in metrics.PER_LAYER} if args.trace else e2e_units
    meta = {
        "workload": args.workload, "seed": args.seed, "seed2": args.seed2,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "revision": git_revision(), "python": platform.python_version(), "nproc": nproc(),
    }
    try:
        if args.trace:
            res, values = runner.traced(args.seed, RESULTS / f"{stem}.spans.jsonl")
        else:
            res, values = runner.end_to_end(args.seed)
        second = runner.end_to_end(args.seed2) if args.seed2 is not None else None
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    lines = report_lines(res, values, units, args.trace)
    if second is not None:
        lines.append(f"# seed2={args.seed2}")
        lines += report_lines(*second, e2e_units, trace=0)
    for line in lines:
        print(line)
    attempted, failed, failures = res["attempted"], res["failed"], res["failures"]
    if second is not None:
        attempted += second[0]["attempted"]
        failed += second[0]["failed"]
        failures = failures + second[0]["failures"]
    for failure in failures:
        print(f"FAILED {failure}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = dict(meta, result=doc, detail=res,
                  seed2_result=None if second is None else {"detail": second[0],
                                                            "metrics": second[1]})
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
