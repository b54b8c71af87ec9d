"""speclab benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Workloads (why each was chosen is in BENCHMARK.json and layers.json):

- verify-cold: each request is a fresh `speclab --jobs 1 verify all --n 2
  --cap 4 --N 2` process, so every cache starts empty.
- scalar-sweep: each pass is a fresh interpreter making a fixed list of
  library calls on the Fraction path (criteria 02 and 03, eigenspaces,
  harmonic decomposition and integration of seeded random polynomials).
- session: one long-lived interpreter sends a seeded stream of CLI
  requests through `speclab.cli.main`, in a closed loop with one client;
  a warm-up pass fills the caches, then passes over the same stream are
  timed.

This process never imports speclab.  All speclab work happens in child
processes started from perfbench/child.py, one at a time, pinned to one
CPU with numpy's BLAS held to one thread.  Every answer is checked and
every failure is counted.  peak_rss_mb is the largest VmHWM of the
processes that did the work.

Times are normalized for the speed of the host.  On a shared host the
speed of a core drifts by tens of percent within a minute, which would
swamp any change to speclab.  While children run, a thread here runs a
fixed reference loop every PERIOD_S on the same CPU and records how long
it took.  Each request is scaled by REF_S over the median reference time
while it ran (the 25 nearest samples for a short request): the result
is the time it would take on a host that runs the reference loop in
REF_S.  A pass is scaled by the time-weighted mean of its requests'
factors.  The raw wall times are printed beside them (``wall_*``), with
the measured relative speed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run is split into an untraced and a traced part, and the
line holds the per-layer metrics and the tracing overhead.  Exit code 2,
with no result line, means the run could not be made: no speclab source
in this checkout, a kernel backend other than pure Python, or a child
that died or overran the time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import clireq  # noqa: E402
from tracer import load_layers  # noqa: E402

WORKLOADS = ("verify-cold", "scalar-sweep", "session")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
PERIOD_S = 0.1
MIN_SAMPLES = 25
REF_TABLE = 200_000
REF_LOOKUPS = 2000
# The sampler shares its CPU with the child, so REF_S, a typical time of
# the reference loop under that sharing, is about three times its time
# on an idle core.
REF_S = 7.0e-3


class HarnessError(RuntimeError):
    """The run cannot be made; no result is printed."""


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


class SpeedSampler:
    """Times a reference loop every PERIOD_S in a background thread.

    The loop sums Fractions looked up at random keys of a table of some
    40 MB, so that, like speclab, it slows down both when the core is
    shared and when the memory caches are.
    """

    def __init__(self):
        rng = random.Random(0)
        self._table = {(i, i % 13): Fraction(i, 7) for i in range(REF_TABLE)}
        self._keys = [(k, k % 13) for k in (rng.randrange(REF_TABLE) for _ in range(REF_LOOKUPS))]
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _reference(self) -> Fraction:
        acc = Fraction(0)
        for key in self._keys:
            acc += self._table[key]
        return acc

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._reference()
            self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """REF_S over the median reference time in [start, end], or over
        the MIN_SAMPLES samples nearest the middle when fewer fall inside."""
        samples = list(self.samples)
        if not samples:
            raise HarnessError("no host speed samples")
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        return REF_S / statistics.median(inside)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Children:
    """Starts and reaps the child processes of one run, within its time limit."""

    def __init__(self, limit_s: float):
        self.deadline = time.perf_counter() + limit_s
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        # the same hash seed in every child, so that str-keyed set and dict
        # order, and with it the work done, cannot differ between runs
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, args: list) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, CHILD, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        )

    def finish(self, proc: subprocess.Popen, feed: bytes = b"") -> tuple:
        """Send ``feed``, read stdout to the end and reap the child.

        Returns (stdout, exit code).  A child still running at the run's
        deadline is killed, and the run fails.
        """
        timer = threading.Timer(max(self.deadline - time.perf_counter(), 0.1), proc.kill)
        timer.start()
        try:
            if feed:
                proc.stdin.write(feed)
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
        if time.perf_counter() > self.deadline:
            raise HarnessError(f"the run overran its {RUN_LIMIT_S:.0f} s limit")
        return out, proc.returncode

    def start_worker(self, workload: str, seed: int, trace_out: str) -> tuple:
        """Start a worker and wait until it is ready: (process, seconds, stamp)."""
        t0 = time.perf_counter()
        proc = self.spawn(["worker", workload, str(seed), trace_out])
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not line.startswith(b"READY "):
            _, rc = self.finish(proc)
            raise HarnessError(f"{workload} worker exited with code {rc} before it was ready")
        return proc, ready_s, json.loads(line[6:])

    def run_worker(self, proc: subprocess.Popen, seconds: float) -> tuple:
        feed = b"GO " + json.dumps({"seconds": seconds}).encode() + b"\n"
        out, rc = self.finish(proc, feed)
        lines = [ln for ln in out.splitlines() if ln.startswith(b"RESULT ")]
        if rc != 0 or not lines:
            raise HarnessError(f"worker exited with code {rc} without a result")
        return json.loads(lines[-1][7:])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Run:
    """Everything one part of a run measured, traced or not.

    A pass is {"start", "end", "requests": [[start, seconds], ...]} in
    raw perf_counter time: one request for verify-cold, one worker for
    scalar-sweep, one sweep over the stream for session.
    """

    def __init__(self):
        self.passes: list = []
        self.rss_mb: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}
        self.trace_files: list = []

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def check_first(self, key: str, digest: str):
        first = self.digests.setdefault(key, digest)
        return None if first == digest else "answer differs from the first answer to the same request"

    def merge_worker(self, result: dict):
        self.passes += result["passes"]
        self.rss_mb.append(result["peak_rss_mb"])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]
        for key, digest in result["digests"].items():
            error = self.check_first(key, digest)
            if error:
                self.fail(f"{key}: {error}")

    def fits(self, start: float, seconds: float, max_passes) -> bool:
        if not self.passes:
            return True
        if max_passes is not None and len(self.passes) >= max_passes:
            return False
        typical = statistics.median(p["end"] - p["start"] for p in self.passes)
        return time.perf_counter() - start + typical <= seconds

    def normalized(self, sampler: SpeedSampler) -> tuple:
        """(pass seconds, latencies in ms, speeds), scaled to REF_S."""
        passes_s, latencies, speeds = [], [], []
        for p in self.passes:
            weighted = busy = 0.0
            for start, seconds in p["requests"]:
                speed = sampler.speed(start, start + seconds)
                latencies.append(seconds * speed * 1000.0)
                weighted += seconds * speed
                busy += seconds
            speed = weighted / busy
            speeds.append(speed)
            passes_s.append((p["end"] - p["start"]) * speed)
        return passes_s, latencies, speeds


def _trace_out(workload: str, index: int, traced: bool) -> str:
    if not traced:
        return "-"
    return os.path.join(OUT_DIR, f"trace-{workload}-{index}.json")


def verify_cold(kids: Children, seed: int, seconds: float, traced: bool, max_passes=None) -> Run:
    run = Run()
    key = " ".join(clireq.VERIFY_COLD_ARGV)
    rss_out = os.path.join(OUT_DIR, "verify-cold-rss.txt")
    start = time.perf_counter()
    while run.fits(start, seconds, max_passes):
        trace_out = _trace_out("verify-cold", len(run.passes), traced)
        if os.path.exists(rss_out):
            os.remove(rss_out)
        t0 = time.perf_counter()
        out, rc = kids.finish(kids.spawn(["cli", trace_out, rss_out, *clireq.VERIFY_COLD_ARGV]))
        t1 = time.perf_counter()
        if rc == 3:
            raise HarnessError("verify-cold child refused the environment")
        run.attempted += 1
        run.passes.append({"start": t0, "end": t1, "requests": [[t0, t1 - t0]]})
        error = clireq.check_answer(clireq.VERIFY_COLD_ARGV, rc, out.decode())
        if os.path.exists(rss_out):
            with open(rss_out) as fh:
                run.rss_mb.append(float(fh.read()))
        else:
            error = error or "the request reported no peak memory"
        error = error or run.check_first(key, clireq.digest(out))
        if error:
            run.fail(f"{key}: {error}")
        if traced:
            run.trace_files.append(trace_out)
    return run


def scalar_sweep(kids: Children, seed: int, seconds: float, traced: bool, max_passes=None) -> Run:
    run = Run()
    start = time.perf_counter()
    while run.fits(start, seconds, max_passes):
        trace_out = _trace_out("scalar-sweep", len(run.passes), traced)
        proc, _, _ = kids.start_worker("scalar-sweep", seed, trace_out)
        run.merge_worker(kids.run_worker(proc, seconds))
        if traced:
            run.trace_files.append(trace_out)
    return run


def session(kids: Children, seed: int, seconds: float, traced: bool, max_passes=None) -> Run:
    run = Run()
    trace_out = _trace_out("session", 0, traced)
    proc, _, _ = kids.start_worker("session", seed, trace_out)
    run.merge_worker(kids.run_worker(proc, seconds))
    if traced:
        run.trace_files.append(trace_out)
    return run


RUNNERS = {"verify-cold": verify_cold, "scalar-sweep": scalar_sweep, "session": session}


def setup_probes(kids: Children, workload: str, seed: int, sampler: SpeedSampler) -> tuple:
    """Start SETUP_PROBES fresh workers up to READY and stop them.

    Returns (normalized median, raw median, stamps).
    """
    times, stamps = [], []
    start = time.perf_counter()
    for _ in range(SETUP_PROBES):
        proc, ready_s, stamp = kids.start_worker(workload, seed, "-")
        kids.finish(proc, b"QUIT\n")
        times.append(ready_s)
        stamps.append(stamp)
    raw = statistics.median(times)
    return raw * sampler.speed(start, time.perf_counter()), raw, stamps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies: list):
    """(percentile, value, samples beyond) for the highest percentile with
    at least ten samples beyond it, or None when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def per_layer_metrics() -> list:
    """(name, unit, better, workloads that must exercise it) for every
    per-layer metric, in layers.json order."""
    out = []
    for layer in load_layers():
        for boundary, workloads in layer["boundaries"].items():
            prefix = f"{layer['layer']}.{boundary}"
            out.append((f"{prefix}.calls", "count", "lower", workloads))
            out.append((f"{prefix}.self_s", "s", "lower", workloads))
        for name, spec in layer["counters"].items():
            out.append((name, spec["unit"], spec["better"], spec["expect"]))
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(stats: list, import_s: float, overhead: float) -> dict:
    calls: dict = {}
    self_s: dict = {}
    c: dict = {}
    spans = 0
    for st in stats:
        spans += st["spans"]
        for name, v in st["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in st["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in st["counters"].items():
            c[name] = max(c.get(name, 0), v) if name == "peak_terms" else c.get(name, 0) + v

    def hit_ratio(kind):
        hits = c.get(f"{kind}_hits", 0)
        return _ratio(hits, hits + c.get(f"{kind}_misses", 0))

    derived = {
        "kernel.coeff_ops": c.get("coeff_ops", 0),
        "kernel.crat_share": _ratio(c.get("crat_calls", 0), c.get("kernel_calls", 0)),
        "kernel.peak_terms": c.get("peak_terms", 0),
        "linalg.rref.cells": c.get("rref_cells", 0),
        "scalar_ops.build_eigenspace.hit_ratio": hit_ratio("eigenspace"),
        "clifford.dirac_apply.hit_ratio": hit_ratio("dirac"),
        "clifford.basis_cache.hit_ratio": hit_ratio("basis"),
        "cli.output_bytes": c.get("output_bytes", 0),
        "cli.import_s": import_s,
        "trace.overhead_ratio": overhead,
        "trace.spans": spans,
    }
    values = {}
    for name, _unit, _better, _expect in per_layer_metrics():
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = derived[name]
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "speclab")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def environment(stamps: list, seed: int) -> dict:
    return {
        "python": stamps[0]["python"],
        "kernel_backend": stamps[0]["backend"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _end_to_end(record: dict, setup: tuple, run: Run, sampler: SpeedSampler) -> dict:
    passes_s, latencies, speeds = run.normalized(sampler)
    raw_passes = [p["end"] - p["start"] for p in run.passes]
    raw_latencies = [seconds * 1000.0 for p in run.passes for _, seconds in p["requests"]]
    t = tail(latencies)
    record["wall"] = {
        "setup_s": setup[1],
        "run_s": statistics.median(raw_passes),
        "latency_p50_ms": statistics.median(raw_latencies),
        "host_speed": statistics.median(speeds),
    }
    record["latency_tail"] = (
        {"percentile": t[0], "value_ms": t[1], "samples_beyond": t[2], "samples": len(latencies)}
        if t
        else {"omitted": f"{len(latencies)} samples, fewer than 10 beyond p75"}
    )
    record["samples"] = {
        "passes_s": passes_s,
        "speeds": speeds,
        "raw_passes": run.passes,
        "speed_samples": sampler.samples,
    }
    metrics = {
        "setup_s": setup[0],
        "run_s": statistics.median(passes_s),
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": max(run.rss_mb),
    }
    units = {"setup_s": "s", "run_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
    return {name: {"value": metrics[name], "unit": units[name]} for name in metrics}


def _per_layer(record: dict, workload: str, stamps: list, parts: tuple, sampler) -> tuple:
    untraced, traced = parts
    stats = []
    for path in traced.trace_files:
        with open(path) as fh:
            stats.append(json.load(fh))
    overhead = statistics.median(traced.normalized(sampler)[0]) / statistics.median(
        untraced.normalized(sampler)[0]
    )
    values = layer_values(stats, statistics.median(s["import_s"] for s in stamps), overhead)
    self_check = []
    for name, _unit, _better, expect in per_layer_metrics():
        if workload in expect and not values[name]:
            self_check.append(f"{name} is 0 on {workload}: a boundary slipped past the tracer")
    for st in stats:
        self_check += [f"unwrapped name left: {name}" for name in st["leftovers"]]
    for key, digest in traced.digests.items():
        if untraced.digests.get(key, digest) != digest:
            self_check.append(f"traced answer differs from untraced: {key}")
    record["trace_files"] = [os.path.relpath(p, ROOT) for p in traced.trace_files]
    units = {name: unit for name, unit, _, _ in per_layer_metrics()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, self_check


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result record."""
    kids = Children(RUN_LIMIT_S)
    runner = RUNNERS[workload]
    with SpeedSampler() as sampler:
        setup = setup_probes(kids, workload, seed, sampler)
        if not trace:
            runs = (runner(kids, seed, seconds, False),)
        else:
            # the untraced and the traced part get half the time and at
            # least one pass each; the per-process workloads run one pass
            single = None if workload == "session" else 1
            runs = (
                runner(kids, seed, seconds / 2, False, single),
                runner(kids, seed, seconds / 2, True, single),
            )
    record = {"workload": workload, "environment": environment(setup[2], seed)}
    if trace:
        metrics, self_check = _per_layer(record, workload, setup[2], runs, sampler)
    else:
        metrics, self_check = _end_to_end(record, setup, runs[0], sampler), []
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record.update(
        {
            "correct": not failed and not self_check,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "errors": [e for r in runs for e in r.errors][:20],
            "self_check": self_check,
            "metrics": metrics,
        }
    )
    return record


def report(record: dict) -> None:
    w = record["workload"]
    env = record["environment"]
    print(
        f"# {w}: python {env['python']}, backend {env['kernel_backend']}, nproc {env['nproc']}, "
        f"commit {env['commit']}, source {env['source_sha256']}, seed {env['seed']}"
    )
    for name, m in record["metrics"].items():
        print(f"{w}  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if "latency_tail" in record:
        t = record["latency_tail"]
        if "value_ms" in t:
            print(
                f"{w}  {'latency_tail_ms':<48} {t['value_ms']:>14.6g} ms"
                f"  (p{t['percentile']:g}, {t['samples_beyond']} of {t['samples']} samples beyond)"
            )
        else:
            print(f"{w}  {'latency_tail_ms':<48} {'omitted':>14}  ({t['omitted']})")
    for name, value in record.get("wall", {}).items():
        label = name if name == "host_speed" else f"wall_{name}"
        print(f"{w}  {label:<48} {value:>14.6g}")
    print(
        f"{w}  {'error_rate':<48} {record['error_rate']:>14.6g}"
        f"  ({record['failed']} of {record['attempted']} requests)"
    )
    for line in record["errors"] + record["self_check"]:
        print(f"{w}  FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "speclab", "cli.py")):
        print(f"error: no speclab source under {ROOT}/src", file=sys.stderr)
        return 2
    # children inherit the CPU; the speed sampler thread shares it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for w in workloads:
            for stale in os.listdir(OUT_DIR):
                if stale.startswith(f"trace-{w}-"):
                    os.remove(os.path.join(OUT_DIR, stale))
            records.append(measure(w, args.seed, args.seconds, bool(args.trace)))
            report(records[-1])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mode = "trace" if args.trace else "e2e"
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{mode}.json"), "w") as fh:
        json.dump(records, fh, indent=1)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
