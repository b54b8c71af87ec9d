"""Child process of the benchmark: the only code that imports speclab.

    child.py cli TRACE_OUT RSS_OUT ARGV...   one CLI request, as `speclab ARGV`
    child.py worker WORKLOAD SEED TRACE_OUT

TRACE_OUT is ``-`` for an untraced run, else the path the tracer's stats
(and, beside it, its spans) are written to when the process ends.

``cli`` is the bootstrap for verify-cold: it calls ``speclab.cli.main``
like the console script does, with the tracer installed first when
asked.  Its exit code, stdout and stderr are the request's; its peak
resident memory goes to the file RSS_OUT.

``worker`` imports speclab.cli, builds the workload's requests from the
seed and prints ``READY {...}``.  It then reads one line from stdin:
``QUIT`` ends it (a set-up probe); ``GO {"seconds": s}`` runs the
workload and prints ``RESULT {...}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_speclab() -> dict:
    """Import speclab.cli from this checkout and stamp the environment.

    Exits with code 3 when speclab resolves elsewhere or the kernel
    backend is not the pure-Python one: a stray compiled kernel would
    otherwise pass as a speed-up.
    """
    t0 = time.perf_counter()
    import speclab
    import speclab.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    origin = os.path.dirname(os.path.dirname(os.path.abspath(speclab.__file__)))
    if origin != SRC:
        sys.stderr.write(f"speclab imported from {origin}, not from {SRC}\n")
        sys.exit(3)
    if speclab.kernel_backend != "python":
        sys.stderr.write(f"kernel backend is {speclab.kernel_backend!r}, not 'python'\n")
        sys.exit(3)
    return {
        "import_s": import_s,
        "backend": speclab.kernel_backend,
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    """High-water resident memory of this process since exec.

    Read from VmHWM: getrusage's ru_maxrss also counts the memory of the
    parent the process was forked from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer(trace_out: str):
    if trace_out == "-":
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _call_cli(main, argv: list):
    """One in-process CLI request: (exit code, stdout, stderr, start, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a traceback is a failed request, not a crash
        rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), t0, time.perf_counter() - t0


def run_cli(trace_out: str, rss_out: str, argv: list) -> int:
    _import_speclab()
    tracer = _tracer(trace_out)
    from speclab.cli import main

    rc, out, err, _, _ = _call_cli(main, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.stderr.write(err)
    with open(rss_out, "w") as fh:
        fh.write(f"{peak_rss_mb()}\n")
    if tracer is not None:
        tracer.counters["output_bytes"] += len(out.encode())
        tracer.write(trace_out)
    return rc if isinstance(rc, int) else 1


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


class Record:
    """Timed passes of one worker, with the failures found in them.

    Each pass keeps its perf_counter start and end, which the harness
    matches with its CPU speed samples (the clock is system-wide).
    """

    def __init__(self):
        self.passes: list = []
        self.attempted = 0
        self.errors: list = []
        self.first: dict = {}

    def add_pass(self, start: float, end: float, answers: list, timed: bool = True):
        """``answers`` holds (key, start, seconds, error or None, digest)
        per request."""
        for key, _start, _seconds, error, digest in answers:
            self.attempted += 1
            first = self.first.setdefault(key, digest)
            if error is None and first != digest:
                error = "answer differs from the first answer to the same request"
            if error is not None:
                self.errors.append(f"{key}: {error}")
        if timed:
            self.passes.append(
                {"start": start, "end": end, "requests": [[a[1], a[2]] for a in answers]}
            )

    def result(self) -> dict:
        return {
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:20],
            "digests": self.first,
        }


def _scalar_sweep(reqs: list, record: Record) -> None:
    done = []
    start = time.perf_counter()
    for key, call, check in reqs:
        t = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failed call is a failed request
            value = exc
        done.append((key, t, time.perf_counter() - t, value, check))
    end = time.perf_counter()
    answers = []
    for key, t, seconds, value, check in done:
        if isinstance(value, Exception):
            error, digest = f"uncaught {type(value).__name__}: {value}", ""
        else:
            error, digest = check(value)
        answers.append((key, t, seconds, error, digest))
    record.add_pass(start, end, answers)


def _session(reqs: list, seconds: float, record: Record, tracer) -> None:
    """Closed loop, one client: a warm-up pass fills the caches, then timed
    passes over the same stream while the next one fits in ``seconds``."""
    import clireq
    from speclab.cli import main

    def one_pass(timed: bool) -> float:
        replies = []
        start = time.perf_counter()
        for argv in reqs:
            replies.append((argv, *_call_cli(main, argv)))
        end = time.perf_counter()
        answers = []
        for argv, rc, out, _err, t, dt in replies:
            if tracer is not None:
                tracer.counters["output_bytes"] += len(out.encode())
            error = clireq.check_answer(argv, rc, out) if isinstance(rc, int) else rc
            answers.append((" ".join(argv), t, dt, error, clireq.digest(out)))
        record.add_pass(start, end, answers, timed)
        return end - start

    start = time.perf_counter()
    one_pass(False)
    last = 0.0
    while not record.passes or time.perf_counter() - start + last <= seconds:
        last = one_pass(True)


def run_worker(workload: str, seed: int, trace_out: str) -> int:
    stamp = _import_speclab()
    tracer = _tracer(trace_out)
    if workload == "scalar-sweep":
        import sweep

        reqs = sweep.requests(seed)
    elif workload == "session":
        import clireq

        reqs = clireq.session_requests(seed)
    else:
        reqs = None
    proto = sys.stdout
    proto.write("READY " + json.dumps(stamp) + "\n")
    proto.flush()
    line = sys.stdin.readline().split(" ", 1)
    if line[0] != "GO":
        return 0
    seconds = json.loads(line[1])["seconds"]
    record = Record()
    with contextlib.redirect_stdout(sys.stderr):
        if workload == "scalar-sweep":
            _scalar_sweep(reqs, record)
        else:
            _session(reqs, seconds, record, tracer)
    result = {**record.result(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.write(trace_out)
    proto.write("RESULT " + json.dumps(result) + "\n")
    proto.flush()
    return 0


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    return run_worker(argv[1], int(argv[2]), argv[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
