"""Self-test of the benchmark: run from the root of a checkout.

    python3 perfbench/selftest.py

Prints each workload's end-to-end metrics from a short run, and checks
that every workload completes a short run with no failed op, that
the traced run's operation counts repeat exactly for a seed, that the
metric names and units match BENCHMARK.json, and that the benchmark
refuses to run without the library's sources.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = "2"
SEED = "7"
# Per-layer metrics that are operation counts and must repeat exactly.
COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit == "count"]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    """Exit code, result line (None on failure) and detail line or stderr."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, proc.stderr
    return proc.returncode, json.loads(lines[-1]), lines[-2]


def summary(workload: str, result: dict, detail: dict) -> str:
    timing = detail["run"]["timing"]
    cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
    cells += [f"{key}={timing[key]:.4g} 1/s" for key in sorted(timing)
              if key.startswith("pts_per_s.") and not key.endswith("_raw")]
    cells.append(f"op_ms_tail is p{timing['op_ms_tail_percentile']} "
                 f"({timing['op_ms_tail_beyond']} beyond, {timing['samples']} samples)")
    cells.append(f"ops_failed_frac={detail['ops_failed_frac']}")
    return f"{workload}: " + ", ".join(cells)


def check_result(result: dict, expected: dict, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {got} != {expected}")
    return problems


def main() -> int:
    problems: list[str] = []

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != run.END_TO_END:
            problems.append(f"BENCHMARK.json end_to_end {declared} != run.py {run.END_TO_END}")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != run.PER_LAYER:
            problems.append("BENCHMARK.json per_layer differs from run.py")
        if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")

    for workload in run.WORKLOADS:
        code, result, extra = bench(workload, 0)
        if result is None:
            problems.append(f"{workload} trace 0: exit {code}: {extra[-500:]}")
        else:
            print(summary(workload, result, json.loads(extra)), flush=True)
            problems += check_result(result, run.END_TO_END, f"{workload} trace 0")
            problems += [f"{workload}: {name} is {m['value']}"
                         for name, m in result["metrics"].items() if not m["value"] > 0]

        traced = []
        for attempt in (1, 2):
            code, result, extra = bench(workload, 1)
            if result is None:
                problems.append(f"{workload} trace 1: exit {code}: {extra[-500:]}")
                break
            problems += check_result(result, run.PER_LAYER, f"{workload} trace 1 #{attempt}")
            traced.append({name: result["metrics"][name]["value"] for name in COUNT_METRICS})
        if len(traced) == 2 and traced[0] != traced[1]:
            diff = {k: (traced[0][k], traced[1][k]) for k in traced[0]
                    if traced[0][k] != traced[1][k]}
            problems.append(f"{workload}: counts differ between runs with one seed: {diff}")

    # Without the library's sources the benchmark must fail, not report.
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if spec_path.is_file():
        shutil.copy(spec_path, bare / "BENCHMARK.json")
    code, result, _ = bench(run.WORKLOADS[0], 0, cwd=bare)
    if code == 0 or result is not None:
        problems.append("benchmark ran without the library's sources")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
