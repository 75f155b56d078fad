"""One benchmark process: set up one workload, then run it as a closed loop.

Run by ``run.py`` in a fresh interpreter, so that its peak RSS belongs to
one workload alone.  It prints one JSON object as its last line:

- ``ready_cpu``: the process's CPU seconds (``time.process_time()``)
  when the first operation could begin, that is from interpreter start
  through importing riglab, parsing the config and building the size
  laws;
- ``ops``: one record per operation (phase, seconds, problems);
- ``peak_rss_kb``, the input sizes, the numpy and Python versions and,
  with ``--trace 1``, the per-layer metrics of the traced phase.

``--setup-only`` exits right after printing ``ready_cpu``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 3  # per timed phase, so a median and a repeat check exist


def import_riglab():
    """Import riglab from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import riglab

    if os.path.dirname(os.path.dirname(os.path.abspath(riglab.__file__))) != src:
        raise ImportError(f"riglab imported from {riglab.__file__}, not from {src}")
    return riglab


def attempt(workload, seed: int, reference: str | None, span=None):
    """Run one operation and check it: (seconds, body, problems).

    The operation is timed alone, inside ``span`` when one is given; its
    checks run after the clock stops.  A raise is a failed operation,
    not the end of the run.
    """
    t0 = time.perf_counter()
    try:
        with span or contextlib.nullcontext():
            out = workload.run(seed)
    except Exception as exc:  # the gate counts it; the loop goes on
        return time.perf_counter() - t0, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    body = workload.body(out)
    return seconds, body, workload.problems(out, body, reference)


def closed_loop(workload, seed: int, seconds: float, phase: str, reference, ops: list, span=None):
    """Run operations back to back for ``seconds`` (at least MIN_OPS).

    ``span(op_index)``, when given, opens a traced operation around each
    run.  Returns the reference body: the given one, else the first.
    """
    start = time.perf_counter()
    count = 0
    while count < MIN_OPS or time.perf_counter() - start < seconds:
        dt, body, problems = attempt(workload, seed, reference, span and span(len(ops)))
        ops.append({"phase": phase, "seconds": dt, "problems": problems})
        reference = body if reference is None else reference
        count += 1
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_riglab()
    import numpy as np

    import workloads

    workload = workloads.make(args.workload)
    result = {"ready_cpu": time.process_time()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops: list[dict] = []
    # warm-up: lets lazy set-up finish, and its body is the reference
    dt, reference, problems = attempt(workload, args.seed, None)
    ops.append({"phase": "warmup", "seconds": dt, "problems": problems})
    if args.trace == 0:
        closed_loop(workload, args.seed, args.seconds, "timed", reference, ops)
    else:
        from tracing import Tracer, layer_metrics, spans_json

        reference = closed_loop(workload, args.seed, args.seconds / 2, "untraced", reference, ops)
        tracer = Tracer()
        with tracer.patched():
            closed_loop(workload, args.seed, args.seconds / 2, "traced", reference, ops, span=tracer.operation)
        metrics, op_counts = layer_metrics(tracer.spans, args.workload)
        if any(c != op_counts[0] for c in op_counts):
            ops[-1]["problems"].append(f"layer counts differ between operations at one seed: {op_counts}")
        result["layers"] = metrics
        result["counts"] = op_counts[0]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(spans_json(tracer.spans), fh)
    result.update(
        ops=ops,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        inputs=workload.inputs(),
        numpy=np.__version__,
        python=platform.python_version(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
