"""Self-test of the benchmark at tiny size (about half a minute).

    python3 bench/selftest.py

Checks that every workload, untraced and traced, prints every metric named
in BENCHMARK.json with its unit, both as a text line and in the final JSON
line; that BENCHMARK.json agrees with bench/metrics.py; that the traced
counts repeat exactly for one seed; that the full-size verify workload
makes level plans (``expander.level_plan_frac`` > 0); and that the
benchmark fails without printing a result when the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402
from run import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str):
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def bench(root: Path, workload: str, trace: int, size: str = "tiny", seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", str(trace), "--size", size],
        cwd=root, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc, workload, trace, names):
    tag = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    expect(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
           f"{tag}: correct={doc['correct']} failed={doc['failed']}")
    expect(set(doc["metrics"]) == set(names), f"{tag}: metric names")
    for name, unit in names.items():
        m = doc["metrics"].get(name, {})
        expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
               f"{tag}: {name} in the JSON line")
        printed = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        expect(bool(printed) and printed[0][2] == unit, f"{tag}: {name} printed with {unit}")
    return doc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == {n: u for n, u, *_ in metrics.END_TO_END}, "BENCHMARK.json end_to_end")
    expect({(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]}
           == {(n, b, bound) for n, _, b, bound in metrics.END_TO_END},
           "BENCHMARK.json bounds")
    expect(layers == {n: u for n, u, _ in metrics.PER_LAYER}, "BENCHMARK.json per_layer")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")

    for workload in WORKLOADS:
        parse(bench(ROOT, workload, 0), workload, 0, e2e)
        first = parse(bench(ROOT, workload, 1), workload, 1, layers)
        again = parse(bench(ROOT, workload, 1), workload, 1, layers)
        counts = [n for n, u in layers.items() if u in ("count", "ratio") and "overhead" not in n]
        expect(all(first["metrics"][n]["value"] == again["metrics"][n]["value"] for n in counts),
               f"{workload}: counts differ between two traced runs of one seed")

    full = parse(bench(ROOT, "verify", 1, size="full"), "verify full", 1, layers)
    expect(full["metrics"]["expander.level_plan_frac"]["value"] > 0,
           "verify: every expander plan is an immediate capture")

    # Without the package the benchmark must fail and print no result.
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "solve", 0)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "benchmark without the package must fail without a result")
    shutil.rmtree(bare)

    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
