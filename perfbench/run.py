"""framecalc benchmark entry point (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client, one operation at a
time, no threads: every round is a fresh interpreter (perfbench/worker.py)
that builds the workload's inputs from the seed, runs the workload's fixed
job once and checks every answer against its frozen value.

--trace 0: rounds run back to back while the next one is expected to end
    within --seconds (at least one); set-up is measured in at least five
    interpreters (extra ones only build the inputs).  Reports the median
    set-up time, job time and peak memory; the record adds the latency of
    the workload's seeded operations.
--trace 1: one untraced and one traced round of the same seed.  Reports the
    per-layer counters, unit costs and self times of the traced round, the
    tracing overhead, and fails the run if tracing changed an answer or if a
    counter the workload exercises reads zero.

The last line of standard output is the result JSON; the full record (run
environment, every round, spans) goes to perfbench/out/.  Exits non-zero
without a result when a round cannot run, e.g. when src/framecalc is absent.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("frame-axioms", "witt-kernel", "k3-iso", "display-census")
SETUPS = 5            # set-up is measured in at least this many interpreters
TIME_LIMIT = 170.0    # a run must end within 180 s


class RoundFailed(RuntimeError):
    pass


def spawn(workload, seed, deadline, *flags):
    """Run one worker to completion and return its result dict."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("time limit reached before the round started")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--spawned", repr(time.monotonic()), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {flags} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RoundFailed(f"worker printed no result:\n{proc.stdout[-500:]}")


def percentile(values, pct):
    """The pct-th percentile, None unless at least ten samples lie beyond it."""
    if len(values) * (100 - pct) < 1000:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(workload, seed, seconds, deadline):
    def setup_only():
        return spawn(workload, seed, deadline, "--setup-only")["setup_s"]

    # set-up probes on both sides of the rounds, so that their median does
    # not rest on one short stretch of a shared machine's time
    setups = [setup_only() for _ in range(SETUPS // 2)]
    start = time.monotonic()
    rounds = [spawn(workload, seed, deadline)]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
        rounds.append(spawn(workload, seed, deadline))
    setups += [r["setup_s"] for r in rounds]
    while len(setups) < SETUPS:
        setups.append(setup_only())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(r["job_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MiB"),
    }
    # per-operation latency goes to the record only: a run holds 6 to 100
    # operations in a few seconds, and their median spreads by up to 24%
    # between runs on a shared 2-core box, more than any bound allowed
    ops = [x for r in rounds for x in r["ops"]]
    p90 = percentile(ops, 90)
    extra = {"setups_s": setups, "op": rounds[0]["op"], "op_samples": len(ops),
             "op_p50_ms": statistics.median(ops) * 1e3,
             "op_p90_ms": None if p90 is None else p90 * 1e3}
    return rounds, metrics, extra, []


def run_traced(workload, seed, deadline):
    import tracing
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, "--trace")
    values = tracing.layer_metrics(traced, plain["job_s"], traced["trace"]["wrapper_us"])
    units = dict(tracing.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    problems = []
    if traced["answers_sha256"] != plain["answers_sha256"]:
        problems.append("tracing changed an answer")
    if values["trace.other_s"] < 0:
        problems.append(f"self times exceed the job: other_s = {values['trace.other_s']}")
    for name in tracing.EXERCISED[workload]:
        if not values[name]:
            problems.append(f"{name} reads 0 on {workload}")
    run_id = traced["trace"]["run_id"]
    spans = [dict(zip(("id", "parent", "name", "start_s", "end_s"), s), run=run_id)
             for s in traced["trace"]["spans"]]
    extra = {"spans": spans, "stats": traced["trace"]["stats"],
             "counts": traced["trace"]["counts"]}
    return [plain, traced], metrics, extra, problems


def git_sha():
    """HEAD of the checkout's git repository, None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "framecalc", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "sympy": sympy_version,
            "git_sha": git_sha(), "src_sha256": src.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "framecalc")):
        sys.stderr.write(f"no framecalc sources under {ROOT}/src\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            rounds, metrics, extra, problems = run_traced(
                args.workload, args.seed, deadline)
        else:
            rounds, metrics, extra, problems = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
    except RoundFailed as exc:
        sys.stderr.write(f"benchmark round failed: {exc}\n")
        return 1

    # each run-level problem (changed answer, zero counter) is one failed check
    attempted = sum(r["attempted"] for r in rounds) + len(problems)
    failed = sum(r["failed"] for r in rounds) + len(problems)
    notes = problems + [line for r in rounds for line in r["failures"]]
    for line in notes:
        sys.stderr.write(line + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failed_frac=failed / attempted, run=run_record(),
                  rounds=[{k: v for k, v in r.items() if k != "trace"}
                          for r in rounds],
                  problems=notes, **extra)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"{'-trace' if args.trace else ''}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("run: " + json.dumps(record["run"]))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
