"""One workload process: a set-up probe or a measured run.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
The last line of standard output is one JSON object for run.py.

    worker.py setup --workload W --seed S --probe J --t0 T
        import the library and run the workload's first op; the set-up
        time is measured from T, run.py's time.monotonic() just before
        it started this interpreter (CLOCK_MONOTONIC is system-wide).
    worker.py run --workload W --seed S --seconds T --trace 0|1 --spans F
        warm up, then a closed loop of ops for T seconds (trace 0), or a
        fixed counting block, an untraced half and a traced half (trace 1).
"""

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback

import hodgeheights

import refkernel
import tracing
import workloads

_T_IMPORTED = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))


class Loop:
    """Runs one workload's ops: fresh inputs, timing, checks, and the
    failure and accuracy bookkeeping."""

    def __init__(self, workload):
        self.workload = workload
        self.seen: set = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.acc: dict[str, float] = {}
        self.first_results: list = []

    def fresh(self, stream_iter):
        """Next payload whose input this process has not used yet."""
        for payload in stream_iter:
            if payload["key"] not in self.seen:
                self.seen.add(payload["key"])
                return payload
        raise RuntimeError("input stream ended")

    def one(self, payload, tracer=None, op_id=None):
        """Run, time and check one op; returns (seconds, result or None)."""
        watch, result = self.execute(payload, tracer, op_id)
        return watch.total, self.verify(payload, result)

    def execute(self, payload, tracer=None, op_id=None, kernel=None, reps=1):
        """Run and time one op; a raised exception counts as a failure.

        With a `kernel` list, a kernel sample is appended at every tick.
        """
        self.attempted += 1
        watch = Stopwatch(kernel, reps)
        span = tracer.begin_op(op_id) if tracer is not None else None
        watch.start()
        try:
            result = self.workload.run(payload, watch.tick)
        except Exception:  # a failed op is counted, not fatal
            result = None
            self._fail(traceback.format_exc(limit=3))
        watch.stop()
        if span is not None:
            tracer.end_op(span)
        return watch, result

    def verify(self, payload, result):
        """Check a result against its reference; returns it, or None if wrong."""
        if result is None:
            return None
        errors, acc = self.workload.check(payload, result)
        for name, value in acc.items():
            self.acc[name] = max(self.acc.get(name, 0.0), value)
        for e in errors:
            self._fail(e)
        return None if errors else result

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def timed(self, stream_iter, seconds, op_seconds, tracer=None, min_ops=1,
              rss_after=None):
        """Closed loop for `seconds`, and for at least `min_ops` ops: kernel
        sample, op, kernel sample, ... with more kernel samples at the ticks
        inside long ops.

        `op_seconds`, a typical op time, sets how long each kernel sample is.
        Returns per-op (class, raw seconds, normalised seconds, normalised
        seconds per part, segments), the kernel samples, and the peak RSS
        (MB) of this process when `rss_after` ops had completed.
        """
        kernel, ops = [], []
        reps = refkernel.reps_for(op_seconds)
        deadline = time.perf_counter() + seconds
        rss_mb, started = None, 0
        while started < max(min_ops, rss_after or 0) or time.perf_counter() < deadline:
            started += 1
            payload = self.fresh(stream_iter)
            kernel.append(refkernel.kernel_ms(reps))
            watch, result = self.execute(payload, tracer, len(ops), kernel, reps)
            if self.verify(payload, result) is not None:
                ops.append((payload["cls"], watch))
                if len(self.first_results) < 2:
                    self.first_results.append((payload, result))
            if started == rss_after:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        kernel.append(refkernel.kernel_ms(reps))
        out = []
        for cls, watch in ops:
            norm, parts = 0.0, {}
            for label, seconds, before in watch.segments:
                scaled = seconds * refkernel.factor(kernel, before)
                norm += scaled
                if label is not None:
                    parts[label] = parts.get(label, 0.0) + scaled
            out.append((cls, watch.total, norm, parts,
                        [(before, seconds) for _, seconds, before in watch.segments]))
        return out, kernel, rss_mb


class Stopwatch:
    """Times one op in segments split at its ticks.

    Each segment records (label, seconds, index of the kernel sample taken
    just before it); kernel sampling time is not part of any segment.
    """

    def __init__(self, kernel=None, reps=1):
        self.kernel, self.reps = kernel, reps
        self.segments: list[tuple] = []
        self._t = 0.0

    def _before(self):
        return len(self.kernel) - 1 if self.kernel is not None else -1

    def start(self):
        self._t = time.perf_counter()

    def tick(self, label):
        self.segments.append((label, time.perf_counter() - self._t, self._before()))
        if self.kernel is not None:
            self.kernel.append(refkernel.kernel_ms(self.reps))
        self._t = time.perf_counter()

    def stop(self):
        self.segments.append((None, time.perf_counter() - self._t, self._before()))

    @property
    def total(self):
        return sum(seg[1] for seg in self.segments)


def _weighted_mean(workload, samples, index):
    """Class-weighted mean of samples[index]; classes not seen are skipped
    and the remaining weights renormalised."""
    by_cls: dict = {}
    for s in samples:
        by_cls.setdefault(s[0], []).append(s[index])
    total = sum(w for c, w in workload.class_weights.items() if c in by_cls)
    return sum(w * statistics.fmean(by_cls[c])
               for c, w in workload.class_weights.items() if c in by_cls) / total


def latency_stats(workload, samples):
    """End-to-end timing metrics from timed() samples."""
    n = len(samples)
    norm = sorted(s[2] for s in samples)
    raw = sorted(s[1] for s in samples)
    # highest percentile with at least ten samples beyond it (the maximum
    # when a short run has too few samples for that)
    tail_idx = n - 11 if n > 10 else n - 1
    mean_norm = _weighted_mean(workload, samples, 2)
    mean_raw = _weighted_mean(workload, samples, 1)
    out = {
        "samples": n,
        "ops_per_s": 1.0 / mean_norm,
        "ops_per_s_raw": 1.0 / mean_raw,
        "op_ms_p50": statistics.median(norm) * 1e3,
        "op_ms_p50_raw": statistics.median(raw) * 1e3,
        "op_ms_tail": norm[tail_idx] * 1e3,
        "op_ms_tail_raw": raw[tail_idx] * 1e3,
        "op_ms_tail_percentile": round(100.0 * (tail_idx + 1) / n, 2),
        "op_ms_tail_beyond": n - tail_idx - 1,
        "speed_factor": sum(s[2] for s in samples) / sum(s[1] for s in samples),
        "ops": [[cls, round(r * 1e3, 3), round(x * 1e3, 3),
                 [[b, round(t * 1e3, 3)] for b, t in segs]]
                for cls, r, x, _, segs in samples],
    }
    for part in samples[0][3]:
        out[f"pts_per_s.{part}"] = n / sum(s[3][part] for s in samples)
    return out


def clear_caches():
    for _, module, attr in tracing.CACHES:
        clear = getattr(getattr(module, attr, None), "cache_clear", None)
        if clear is not None:
            clear()


def cli_cross_check(loop):
    """Rerun the first two points at N=4 through `mhs polylog --sweep` from
    cold caches; each CSV must reproduce the in-process results exactly."""
    from hodgeheights import cli, jsonio

    points = [(p, part) for p, parts in loop.first_results for part in parts
              if part[0] == 4]
    if not points:
        return "no N=4 point completed"
    clear_caches()
    for p, (n, gap, rows) in points:
        spec = {"grid": [jsonio.format_complex(p["z"])], "N": n,
                "framings": [list(f) for f in p["framings"][n]]}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            spec_path = os.path.join(tmp, "spec.json")
            csv_path = os.path.join(tmp, "out.csv")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["polylog", "--sweep", spec_path, "--csv", csv_path])
            if code != 0:
                return f"mhs polylog --sweep exited {code}"
            with open(csv_path, encoding="utf-8") as fh:
                got = list(csv.reader(fh))[1:]
        want = [[p["z"].real, p["z"].imag, n, a, b,
                 repr(ht1), repr(c1), repr(ht2), repr(c2), repr(gap)]
                for a, b, ht1, c1, ht2, c2 in rows]
        got = [[float(r[0]), float(r[1]), int(r[2]), int(r[3]), int(r[4])] + r[5:]
               for r in got]
        if got != want:
            return f"CLI rows {got} differ from in-process {want}"
    return None


def svd_table(tracer, root):
    """SVD calls per stage of each truncation of one sweep op: validation
    and bigrading of the fresh structure (inside its delta_splitting), and
    both heights at its first framing, once its bigrading is cached."""
    spans = tracer.spans
    kids = [i for i in tracer.descendants(root) if spans[i][3] == root]
    splits = [i for i in kids if spans[i][0] == "deligne.delta_splitting"]
    table = {}
    for n, start, end in zip(workloads.SWEEP_NS, splits, splits[1:] + [len(spans)]):
        first = {name: tracer.first(start, name) for name in ("mhs.validate", "deligne.bigrading")}
        for name in ("framed.height1", "framed.height2"):
            first[name] = next((i for i in kids if start < i < end and spans[i][0] == name), None)
        svds = {name: 0 if idx is None else tracer.inclusive_counts(idx, "linalg.svd")
                for name, idx in first.items()}
        table[f"N{n}"] = {"validate": svds["mhs.validate"],
                          "bigrading": svds["deligne.bigrading"],
                          "heights": svds["framed.height1"] + svds["framed.height2"]}
    return table


def counting_block(workload, loop, seed):
    """A fixed block of ops from its own stream, traced and under
    tracemalloc: operation counts, the SVD table, cache growth and
    retained memory.  Everything here repeats exactly for a seed."""
    tracer = tracing.Tracer()
    before = tracer.cache_sizes()
    it = workload.inputs(seed, workloads.COUNTING)
    roots, results = [], []
    block_start = time.perf_counter()
    tracer.install()
    tracemalloc.start()
    try:
        for i in range(workload.counting_ops):
            payload = loop.fresh(it)
            roots.append((payload, len(tracer.spans)))
            results.append(loop.execute(payload, tracer, op_id=i)[1])
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        block_s = time.perf_counter() - block_start
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    # checked after tracemalloc stops: the references allocate heavily
    for (payload, _), result in zip(roots, results):
        loop.verify(payload, result)
    del results
    # what the ops left alive, less the benchmark's own bookkeeping
    kept = snapshot.filter_traces([tracemalloc.Filter(False, os.path.join(HERE, "*"))])
    retained = sum(stat.size for stat in kept.statistics("filename"))
    after = tracer.cache_sizes()
    k = workload.counting_ops
    out = {
        "ops": k,
        "seconds": block_s,
        "counts_per_op": {name: c / k for name, c in sorted(tracer.counts.items())},
        "retained_mb_per_op": retained / k / 2**20,
        "cache_sizes": after,
        "cache_entries_per_op": sum(
            after[c] - before[c] for c in after
            if isinstance(after[c], int) and isinstance(before[c], int)) / k,
        "missing_seams": tracer.missing,
    }
    if isinstance(workload, workloads.Sweep):
        out["svd_table"] = svd_table(tracer, roots[0][1])
    return out, tracer


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    loop = Loop(workload)
    refkernel.warm()
    warm = workload.inputs(args.seed, workloads.WARMUP)
    steps = []
    for _ in range(workload.warmup_ops):
        payload = loop.fresh(warm)
        watch, result = loop.execute(payload)
        loop.verify(payload, result)
        steps += [seg[1] for seg in watch.segments]
    # typical time between kernel samples: one op, or one step of a long op
    op_seconds = statistics.median(steps)
    out = {}
    if args.trace == 0:
        # Peak memory is read after a fixed number of ops: the module caches
        # grow with every op, so a whole-run peak would track machine speed.
        # At least 21 ops, so that the tail has ten samples beyond it and
        # lies above the median even when the host is slow.
        samples, kernel, rss_mb = loop.timed(
            workload.inputs(args.seed, workloads.TIMED), args.seconds, op_seconds,
            min_ops=21, rss_after=workload.rss_ops)
        out["timing"] = latency_stats(workload, samples)
        out["timing"]["kernel_ms"] = [round(k, 4) for k in kernel]
        out["peak_rss_mb"] = rss_mb
        out["peak_rss_ops"] = workload.rss_ops
    else:
        counting, count_tracer = counting_block(workload, loop, args.seed)
        out["counting"] = counting
        untraced, _, _ = loop.timed(workload.inputs(args.seed, workloads.TIMED),
                                    args.seconds / 2, op_seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, _ = loop.timed(workload.inputs(args.seed, workloads.TRACED),
                                      args.seconds / 2, op_seconds, tracer)
        finally:
            tracer.uninstall()
        a, b = latency_stats(workload, untraced), latency_stats(workload, traced)
        selfs = tracer.self_times()
        per_op = b["speed_factor"] * 1e3 / len(traced)
        out["untraced"], out["traced"] = a, b
        out["layer_ms_per_op"] = {name: t * per_op for name, t in sorted(selfs.items())}
        out["trace_overhead_ms"] = 1e3 / b["ops_per_s"] - 1e3 / a["ops_per_s"]
        if args.spans:
            count_tracer.write(args.spans + "-counting.jsonl")
            tracer.write(args.spans + "-traced.jsonl")
    if isinstance(workload, workloads.Sweep):
        out["cli_check"] = cli_cross_check(loop)
        if out["cli_check"] is not None:
            loop._fail(out["cli_check"])
    out.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
               acc=loop.acc)
    return out


def setup_probe(args):
    """First op in this fresh interpreter; set-up time counts from args.t0."""
    workload = workloads.WORKLOADS[args.workload]
    loop = Loop(workload)
    payload = loop.fresh(workload.inputs(args.seed, workloads.SETUP, args.probe))
    op_start = time.monotonic()
    elapsed, result = loop.one(payload)
    done = op_start + elapsed
    # a few hundred ms of kernel samples right after the op: short windows
    # catch transient machine states that the op did not see
    kernel = [refkernel.kernel_ms() for _ in range(200)]
    return {"setup_s": done - args.t0, "import_s": _T_IMPORTED - args.t0,
            "first_op_s": elapsed,
            "speed_factor": refkernel.speed_factor(statistics.median(kernel)),
            "attempted": loop.attempted, "failed": loop.failed, "errors": loop.errors}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args()
    out = setup_probe(args) if args.mode == "setup" else run(args)
    out["library"] = os.path.dirname(hodgeheights.__file__)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
