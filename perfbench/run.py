"""Benchmark entry point for hodgeheights.

    python3 perfbench/run.py --workload {sweep,height-laws,polylog-eval}
                             --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory (nothing is installed).  Every workload runs in fresh
worker processes with BLAS pinned to one thread:

* several set-up probes, each a fresh interpreter timed from its start
  to the end of its first op (the median is ``setup_s``);
* one measured run: warm-up from its own input stream, then a closed
  loop with one client for T seconds (and at least the workload's
  ``rss_ops`` ops, after which its peak memory is read).

Timings are normalised by the interleaved reference kernel (see
refkernel.py).  The line before the last is a detail record with the
raw values and speed factors beside the normalised ones, the tail's
percentile and sample count, ``ops_failed_frac`` and, for sweep, the
points per second at N = 4, 6 and 10.  With ``--trace 0`` the last line
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones
(a fixed counting block, then half the time untraced and half traced).
Outputs are checked against independent references; a failed op is
counted, never skipped.  Details and spans are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "height-laws", "polylog-eval")
TIME_LIMIT_S = 170.0
SETUP_PROBES = {0: 5, 1: 3}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

_COUNTS = {
    "mhs.validate.calls": "mhs.validate",
    "rational.rref.calls": "rational.rref",
    "deligne.bigrading.computes": "deligne.bigrading",
    "linalg.svd.calls": "linalg.svd",
    "polylog.transport.passes": "polylog.transport.passes",
    "polylog.transport.panels": "polylog.transport.panels",
}
_LAYER_MS = ("mhs.validate", "mhs.derive", "rational.rref", "deligne.bigrading",
             "deligne.projectors", "deligne.solve_delta", "deligne.delta_splitting",
             "linalg.svd", "framed.frame_elements", "framed.height1",
             "framed.height2", "polylog.polylog_mhs", "polylog.transport",
             "polylog.closed_forms")
_SWEEP_NS = (4, 6, 10)

PER_LAYER = {
    **{name: "count" for name in _COUNTS},
    **{f"{name}.ms": "ms" for name in _LAYER_MS},
    "mem.retained_mb": "MB",
    "cache.entries": "count",
    "setup.import_s": "s",
    "setup.first_op_s": "s",
    "trace.overhead_ms": "ms",
    "acc.ht_max_err": "abs",
    "acc.li_max_err": "rel",
    **{f"acc.delta_gap.N{n}": "abs" for n in _SWEEP_NS},
    **{f"sweep.pts_per_s.N{n}": "1/s" for n in _SWEEP_NS},
    **{f"sweep.svd.N{n}.{col}": "count" for n in _SWEEP_NS
       for col in ("validate", "bigrading", "heights")},
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def call_worker(args: list[str], deadline: float, stamp_start: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line.

    With stamp_start the worker gets the launch time as --t0.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    if stamp_start:
        cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    out = json.loads(lines[-1])
    if Path(out["library"]).resolve() != (ROOT / "src" / "hodgeheights").resolve():
        raise BenchError(f"imported hodgeheights from {out['library']}, not this checkout")
    return out


def setup_probes(workload: str, seed: int, count: int, deadline: float) -> dict:
    """Median over fresh interpreters of the time to the end of the first
    op, each normalised by the kernel samples taken in its interpreter."""
    probes = [call_worker(["setup", "--workload", workload, "--seed", str(seed),
                           "--probe", str(probe)], deadline, stamp_start=True)
              for probe in range(count)]

    def median(key, scale=True):
        return statistics.median(p[key] * (p["speed_factor"] if scale else 1.0)
                                 for p in probes)

    return {"setup_s": median("setup_s"), "setup_s_raw": median("setup_s", False),
            "speed_factor": median("speed_factor", False),
            "import_s": median("import_s"), "first_op_s": median("first_op_s"),
            "probes": count,
            "attempted": sum(p["attempted"] for p in probes),
            "failed": sum(p["failed"] for p in probes),
            "errors": [e for p in probes for e in p["errors"]]}


def end_to_end(setup: dict, run: dict) -> dict:
    t = run["timing"]
    return {"setup_s": setup["setup_s"], "ops_per_s": t["ops_per_s"],
            "op_ms_p50": t["op_ms_p50"], "op_ms_tail": t["op_ms_tail"],
            "peak_rss_mb": run["peak_rss_mb"]}


def per_layer(setup: dict, run: dict) -> dict:
    counting = run["counting"]
    counts = counting["counts_per_op"]
    out = {name: counts.get(key, 0.0) for name, key in _COUNTS.items()}
    out.update({f"{name}.ms": run["layer_ms_per_op"].get(name, 0.0) for name in _LAYER_MS})
    out["mem.retained_mb"] = counting["retained_mb_per_op"]
    out["cache.entries"] = counting["cache_entries_per_op"]
    out["setup.import_s"] = setup["import_s"]
    out["setup.first_op_s"] = setup["first_op_s"]
    out["trace.overhead_ms"] = run["trace_overhead_ms"]
    acc = run["acc"]
    out["acc.ht_max_err"] = acc.get("ht_max_err", 0.0)
    out["acc.li_max_err"] = acc.get("li_max_err", 0.0)
    table = counting.get("svd_table", {})
    for n in _SWEEP_NS:
        out[f"acc.delta_gap.N{n}"] = acc.get(f"delta_gap.N{n}", 0.0)
        out[f"sweep.pts_per_s.N{n}"] = run["untraced"].get(f"pts_per_s.N{n}", 0.0)
        for col in ("validate", "bigrading", "heights"):
            out[f"sweep.svd.N{n}.{col}"] = table.get(f"N{n}", {}).get(col, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hodgeheights" / "__init__.py").is_file():
        print(f"error: no hodgeheights sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = setup_probes(args.workload, args.seed, SETUP_PROBES[args.trace], deadline)
        run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(OUT / f"spans-{tag}")]
        run = call_worker(run_args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer(setup, run), PER_LAYER
    else:
        values, units = end_to_end(setup, run), END_TO_END
    attempted = setup["attempted"] + run["attempted"]
    failed = setup["failed"] + run["failed"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops_failed_frac": failed / attempted,
              "setup": setup, "run": run}
    (OUT / f"detail-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
