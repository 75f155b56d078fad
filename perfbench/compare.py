"""Compare two result sets of the benchmark, one row per workload × metric.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE/runs.jsonl NEW/runs.jsonl

Each file holds the records ``run.py`` appends, one run per line.  Runs
of one workload pair up in file order (the i-th base run with the i-th
new run), so make them alternately.  Only untraced runs count.  For each
end-to-end metric of ``BENCHMARK.json`` a row shows each side's median
and quartiles, the share of pairs the new side won (ties count for
neither) and a verdict:

- ``unresolved``: a side's spread (quartile distance ÷ median) is wider
  than the metric's bound, and not every new run beats every base run;
- ``regression``: the new median is worse by more than the bound;
- ``gain``: the new side won at least 9 in 10 pairs and the medians
  differ by more than the base side's quartile distance;
- ``no change`` otherwise.

Traced runs are checked too: within each file, every traced run of one
workload, seed and commit must repeat the layer counts of the first
(``sampler.pairs``, ``sampler.edges``, ``stats.wedges``,
``stats.triangles``, ...).  A mismatch is printed as ``FAILED`` and makes
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import count_mismatches, quartiles, read_runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def untraced_metrics(records: list[dict]) -> dict[str, list[dict]]:
    """Untraced run metrics by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
    return runs


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> dict:
    """Median, quartiles, pair wins and the verdict for one metric."""
    sign = -1.0 if lower_is_better else 1.0
    bq, nq = quartiles(base), quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf") for q in (bq, nq))
    worse_by = sign * (bq[1] - nq[1]) / abs(bq[1]) if bq[1] else 0.0
    if spread > bound:
        all_better = all(sign * (n - b) > 0 for b in base for n in new)
        call = "gain" if all_better else "unresolved"
    elif worse_by > bound:
        call = "regression"
    elif share >= WIN_SHARE and sign * (nq[1] - bq[1]) > bq[2] - bq[0]:
        call = "gain"
    else:
        call = "no change"
    return {"base": bq, "new": nq, "wins": share, "pairs": len(pairs), "spread": spread, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    records = {side: read_runs(path) for side, path in (("base", args.base), ("new", args.new))}
    mismatches = [f"{side}: {line}" for side, recs in records.items() for line in count_mismatches(recs)]
    for line in mismatches:
        print(f"FAILED repeat check, {line}")
    base, new = untraced_metrics(records["base"]), untraced_metrics(records["new"])
    header = f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':<34} {'new median [q1, q3]':<34} {'won':>9}  verdict"
    print(header)
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base or name not in new:
            print(f"{name:<18} (no untraced runs on one side or both)")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [m[key]["value"] for m in base[name]]
            n = [m[key]["value"] for m in new[name]]
            row = verdict(b, n, metric["bound"], metric["better"] == "lower")
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"  # noqa: E731
            print(
                f"{name:<18} {key:<12} {fmt(row['base']):<34} {fmt(row['new']):<34} "
                f"{row['wins']:>5.0%} of {row['pairs']:<2} {row['verdict']}"
            )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
