"""riglab benchmark: one workload, timed as a closed loop, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload passive-wedge --seed 0 --seconds 24 --trace 0

Workloads and why each exists are described in ``workloads.py``.  A run

1. starts one fresh worker interpreter that runs the workload alone, at
   ``jobs=1`` and the given seed, one operation after another, so its
   peak RSS belongs to that workload;
2. starts SETUP_PROBES fresh interpreters that only set the workload up,
   half of them before the worker and half after it, so that their
   median spans the run; each reports the CPU seconds it spent from
   interpreter start until the first operation could begin;
3. prints the input sizes, versions and per-metric details, then, as the
   last line, one JSON object ``{"correct", "attempted", "failed",
   "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``op_s``,
``peak_rss_mb`` and ``setup_s`` (median over the set-up samples of the
probes and the worker).  ``setup_s`` is CPU time rather than wall time:
start-up reads hundreds of files, and on a shared host the wall time of
that drifted by a quarter from one set of runs to the next while the
CPU time of the same work did not move with it.
``op_s`` is the timed seconds divided by the operations completed, the
inverse of the closed loop's throughput; the median and quartiles of the
single operations are printed beside it.  On a host shared with other
machines the CPU speed drifts within a run, and this mean varied less
from run to run than the median did.

With ``--trace 1`` the worker spends half of ``--seconds`` untraced and
half with every layer entry point wrapped, and the metrics are the
per-layer ones (``tracing.py``); the spans go to ``--out``.  The layer
counts of a traced run must equal those of every earlier traced run of
the same workload, seed and commit in ``runs.jsonl``; a mismatch makes
the result incorrect.  Every
operation is checked (``workloads.py``); a failed one is counted in
``failed``, never dropped.  Each run appends its record to
``<out>/runs.jsonl``, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

SETUP_PROBES = 6
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def _child(argv: list[str], timeout: float) -> dict:
    """Run a worker interpreter; return its last JSON line.  Raises if it
    fails or outlives ``timeout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _count_key(rec: dict) -> tuple:
    return rec["workload"], rec["seed"], rec["env"]["commit"]


def count_mismatches(records: list[dict]) -> list[str]:
    """Traced records whose layer counts differ from those of the first
    traced record of the same workload, seed and commit."""
    first: dict[tuple, dict] = {}
    out = []
    for rec in records:
        if rec["trace"] != 1 or "counts" not in rec:
            continue
        expected = first.setdefault(_count_key(rec), rec["counts"])
        if rec["counts"] != expected:
            out.append(
                f"{rec['workload']} seed {rec['seed']}: counts {json.dumps(rec['counts'])} "
                f"differ from {json.dumps(expected)} of an earlier run"
            )
    return out


def read_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def probe():
        return _child(["--workload", args.workload, "--setup-only"], deadline - time.monotonic())["ready_cpu"]

    setup = [probe() for _ in range(SETUP_PROBES // 2)]
    os.makedirs(args.out, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")]
    res = _child(argv, deadline - time.monotonic())
    setup.append(res["ready_cpu"])
    setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    ops = res["ops"]
    failed = [op for op in ops if op["problems"]]
    timed_phase = "timed" if args.trace == 0 else "untraced"
    times = [op["seconds"] for op in ops if op["phase"] == timed_phase and not op["problems"]]
    env = {
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(res['inputs'])}")
    print(f"env {json.dumps(env)}")
    for op in failed:
        print(f"FAILED {op['phase']} op: {'; '.join(op['problems'])}")
    print(f"fail_rate {len(failed)}/{len(ops)} = {len(failed) / len(ops)}")
    q1, q2, q3 = quartiles(times) if times else (0.0, 0.0, 0.0)
    mean = statistics.fmean(times) if times else 0.0
    print(f"op_s mean {mean}, median {q2} (q1 {q1}, q3 {q3}) over {len(times)} {timed_phase} operations")
    print(f"setup_s CPU samples {setup}")
    if args.trace == 0:
        metrics = {
            "op_s": (mean, "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        metrics = dict(res["layers"])
        metrics["trace.overhead"] = (metrics["trace.op_s"][0] / mean if mean else 0.0, "ratio")
        print(f"counts {json.dumps(res['counts'])} at inputs {json.dumps(res['inputs'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    runs_path = os.path.join(args.out, "runs.jsonl")
    mismatches = []
    if args.trace:
        new = {"workload": args.workload, "seed": args.seed, "trace": 1, "env": env, "counts": res["counts"]}
        earlier = read_runs(runs_path) if os.path.exists(runs_path) else []
        same = [r for r in earlier if r["trace"] == 1 and "counts" in r and _count_key(r) == _count_key(new)]
        mismatches = count_mismatches(same[:1] + [new])
        for line in mismatches:
            print(f"FAILED repeat check: {line}")
    result = {
        "correct": not failed and not mismatches and bool(times),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "result": result,
        "op_times": [op["seconds"] for op in ops],
    }
    if args.trace:
        record["counts"] = res["counts"]
    with open(runs_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"), help="where runs.jsonl and spans go")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
