"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
                                [--setup-only] [--trace]

Imports framecalc from the checkout's `src/` (and nowhere else), builds the
workload's inputs, runs its job once and prints one JSON object as the last
line of standard output.  `--spawned` is the parent's `time.monotonic()`
just before it started this process; the clock is system-wide, so set-up
time counts from interpreter start until the inputs are ready.  Every round
is a fresh process, so the interned `WittRing` memos and the lru-cached
sympy polynomials start empty, as they do for every CLI call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Recorder:
    """Explicit answer checks, step times and per-operation latencies."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.answers = hashlib.sha256()
        self.steps = {}
        self.ops = []
        self.notes = {}

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, name, got, want):
        self.attempted += 1
        self.answers.update(repr((name, got)).encode())
        if got != want:
            self._fail(f"{name}: got {got!r:.200}, want {want!r:.200}")

    def note(self, name, value):
        self.notes[name] = value

    @contextlib.contextmanager
    def _span(self, name):
        sid = self.tracer.open_span(name) if self.tracer else None
        try:
            yield
        finally:
            if sid is not None:
                self.tracer.close_span(sid)

    @contextlib.contextmanager
    def step(self, name):
        """A job step; an exception in it counts as one failed operation."""
        t0 = time.perf_counter()
        try:
            with self._span("step:" + name):
                yield
        except Exception:
            self.attempted += 1
            self.answers.update(repr((name, "raised")).encode())
            self._fail(f"{name}: raised\n{traceback.format_exc(limit=4)}")
        finally:
            self.steps[name] = self.steps.get(name, 0.0) + time.perf_counter() - t0

    @contextlib.contextmanager
    def op(self):
        """One operation of the workload's seeded stream, timed on its own."""
        with self._span("op"):
            t0 = time.perf_counter()
            yield
            self.ops.append(time.perf_counter() - t0)


def memo_entries(witt):
    return sum(len(w._memo) for w in witt.WittRing._instances.values()
               if w._memo is not None)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import framecalc
    if not os.path.abspath(framecalc.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"framecalc imported from {framecalc.__file__}, "
                         f"not from {SRC}\n")
        return 3
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(framecalc)
        setup_snap = tracer.begin_phase()
    inp = wl.setup(random.Random(args.seed))
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "op": wl.OP}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rec = Recorder(tracer)
    if tracer:
        setup_stats, setup_counts = tracer.delta(setup_snap)
        job_snap = tracer.begin_phase()
        root_span = tracer.open_span("job")
    t0 = time.perf_counter()
    wl.job(inp, rec)
    job_s = time.perf_counter() - t0
    from framecalc import witt
    result.update({
        "job_s": job_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rec.ops,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "answers_sha256": rec.answers.hexdigest(),
        "steps": rec.steps,
        "notes": rec.notes,
        "memo_entries": memo_entries(witt),
    })
    if tracer:
        tracer.close_span(root_span)
        stats, counts = tracer.delta(job_snap)
        result["trace"] = {
            "run_id": tracer.run_id,
            "stats": stats,
            "counts": counts,
            "setup_stats": setup_stats,
            "setup_counts": setup_counts,
            "self_s": dict(tracer.self_time),
            "spans": tracer.spans,
            "wrapper_us": tracing.wrapper_cost_us(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
