"""Tests of the benchmark's own logic: self time, the correctness gate,
the tracer's patching, and the compare verdicts.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

TINY = {
    "scenario": {
        "model": {"kind": "passive", "n": 400, "m": 300, "s": 1, "size_dist": {"kind": "degenerate", "x": 4}},
        "replicates": 2,
        "outputs": ["degree", "clustering", "theorem1_stats"],
        "tolerances": {"tv_degree": 0.5, "alpha_abs": 0.5, "alpha_k_rel": 0.5},
    }
}


def test_self_time_on_a_synthetic_span_tree():
    # one call stack: children run one after another inside their parent
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("cli.run", 0.5, 9.5, 0, 0),
        Span("sampler.sample", 1.0, 3.0, 1, 0),
        Span("sampler.build", 3.0, 6.0, 1, 0),
        Span("sampler.csr", 4.0, 5.5, 3, 0),
        Span("stats.count", 6.5, 9.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([1.0, 9 - 2 - 3 - 2.5, 2.0, 1.5, 1.5, 2.5])


def test_per_op_totals_split_by_operation():
    spans = [
        Span("op", 0.0, 2.0, None, 0),
        Span("stats.count", 0.5, 1.5, 0, 0, {"wedges": 7, "triangles": 1, "peak_bytes": 10}),
        Span("op", 5.0, 6.0, None, 1),
        Span("stats.count", 5.0, 5.25, 2, 1, {"wedges": 7, "triangles": 1, "peak_bytes": 30}),
    ]
    ops = tracing.per_op_totals(spans)
    assert ops[0]["self"] == pytest.approx({"op": 1.0, "stats.count": 1.0})
    assert ops[1]["self"] == pytest.approx({"op": 0.75, "stats.count": 0.25})
    assert ops[0]["counts"] == ops[1]["counts"] == {"wedges": 7, "triangles": 1}
    assert ops[1]["count_peaks"] == [30]


@pytest.fixture(scope="module")
def tiny():
    wl = workloads.Scenario(TINY)
    out = wl.run(3)
    return wl, out, wl.body(out)


def test_gate_passes_an_untouched_report(tiny):
    wl, out, body = tiny
    assert wl.problems(out, body, body) == []


def test_gate_fires_on_a_tampered_report_body(tiny):
    wl, out, body = tiny
    report = out[0]
    report.body["analyses"]["degree"]["tv"] += 1e-12
    try:
        problems = wl.problems(out, wl.body(out), body)
    finally:
        report.body["analyses"]["degree"]["tv"] -= 1e-12
    assert problems == ["report body differs from the first body at this seed"]


def test_gate_fires_on_a_failed_comparison(tiny):
    wl, out, body = tiny
    report = out[0]
    report.body["passes"]["degree"] = False
    try:
        problems = wl.problems(out, body, body)
    finally:
        report.body["passes"]["degree"] = True
    assert problems == ["report.passed is false (degree)"]


@pytest.fixture(scope="module")
def small_dense():
    """The dense-sets workload at n = 2000: same m, x and per-row sampler."""
    doc = copy.deepcopy(workloads.SCENARIOS["dense-sets"])
    doc["scenario"]["model"]["n"] = 2000
    wl = workloads.Scenario(doc)
    out = wl.run(3)
    return wl, out, wl.body(out)


def _tampered_sampler(monkeypatch, tamper):
    """Replace the sampler cli calls with one whose rows ``tamper`` edits."""
    from riglab import cli
    from riglab.sampler import Incidence

    real = cli.sample_incidence

    def sample(params, rng):
        inc = real(params, rng)
        rows = inc.attrs.reshape(inc.n, -1).copy()
        tamper(rows)
        return Incidence(m=inc.m, sizes=inc.sizes, offsets=inc.offsets, attrs=rows.ravel())

    monkeypatch.setattr(cli, "sample_incidence", sample)


def _repeat_rows(rows):
    half = rows.shape[0] // 2
    rows[half : 2 * half] = rows[:half]


def _repeat_an_attribute(rows):
    rows[::2, 1] = rows[::2, 0]


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (_repeat_rows, "repeated rows"),
        (_repeat_an_attribute, "not strictly increasing"),
    ],
)
def test_gate_fires_on_a_tampered_sampler(monkeypatch, small_dense, tamper, problem):
    wl, out, body = small_dense
    assert wl.problems(out, body, body) == []
    _tampered_sampler(monkeypatch, tamper)
    tampered = wl.run(3)
    problems = wl.problems(tampered, wl.body(tampered), body)
    assert any(problem in p for p in problems), problems
    assert "report body differs from the first body at this seed" in problems


def test_dense_sets_check_fires_on_a_biased_sampler():
    from riglab.sampler import Incidence

    n, m, x = 20_000, 100, 10
    rng = np.random.default_rng(5)
    fair = np.stack([np.sort(rng.choice(m, x, replace=False)) for _ in range(n)])
    # attribute 0 is drawn a little more often than the rest
    biased = fair.copy()
    hit = (biased[:, 0] != 0) & (rng.random(n) < 0.1)
    biased[hit, 0] = 0
    biased.sort(axis=1)

    def inc(rows):
        return Incidence(m=m, sizes=np.full(n, x), offsets=np.arange(n + 1) * x, attrs=rows.ravel())

    assert workloads.incidence_problems(inc(fair), n, m, x) == []
    assert any("off uniform" in p for p in workloads.incidence_problems(inc(biased), n, m, x))


def test_a_raising_operation_is_counted_not_fatal():
    class Broken:
        def run(self, seed):
            raise MemoryError("out of pairs")

    ops = []
    worker.closed_loop(Broken(), 0, 0.0, "timed", None, ops)
    assert len(ops) == worker.MIN_OPS
    assert all(op["problems"] == ["raised MemoryError: out of pairs"] for op in ops)


def test_palm_check_fires_on_a_tampered_curve():
    from riglab import theory
    from riglab.model import TruncatedPowerLaw, make_size_dist

    dist = make_size_dist(TruncatedPowerLaw(3.5, 2, 12), 2000)
    spec = theory.passive_compound_spec(dist, 2000, 2000)
    curve = theory.alpha_k_passive_curve(spec, 15)
    palm = workloads.palm_alpha_k(spec, 15)
    assert all(workloads._close(v, palm[k]) for k, v in curve.items())
    assert not workloads._close(curve[6] * (1 + 1e-6), palm[6])


def _entry_points():
    from riglab import cli, sampler, stats, theory

    owners = [sampler, cli, stats, theory, sampler.Graph]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_entry_points_are_restored_after_a_traced_run(tiny):
    wl, _, _ = tiny
    before = _entry_points()
    tracer = Tracer()
    with tracer.patched():
        with tracer.operation(0):
            wl.run(3)
        with tracer.operation(1):
            wl.run(3)
    after = _entry_points()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"op", "cli.run", "sampler.sample", "sampler.build", "sampler.csr", "stats.count"} <= names
    assert {"stats.report", "stats.pool", "theory.approx_stats", "theory.degree_pmf"} <= names


def test_entry_points_are_restored_when_the_run_raises(tiny):
    wl, _, _ = tiny
    before = _entry_points()
    with pytest.raises(RuntimeError):
        with Tracer().patched():
            raise RuntimeError("boom")
    after = _entry_points()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reports_every_per_layer_metric(tiny):
    wl, _, _ = tiny
    tracer = Tracer()
    with tracer.patched():
        for op in range(2):
            with tracer.operation(op):
                wl.run(3)
    metrics, counts = layer_metrics(tracer.spans, "passive-wedge")
    assert counts[0] == counts[1] and counts[0]["pairs"] == 2 * 400 * 6
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    produced["trace.overhead"] = "ratio"  # added by run.py from both phases
    assert produced == declared


def _traced(seed, commit, wedges):
    return {"workload": "passive-wedge", "seed": seed, "trace": 1, "env": {"commit": commit},
            "counts": {"pairs": 10, "wedges": wedges}}


def test_counts_must_repeat_across_runs_at_one_seed():
    from run import count_mismatches

    same = [_traced(0, "a", 5), _traced(1, "a", 6), _traced(0, "a", 5), _traced(0, "b", 7)]
    assert count_mismatches(same) == []
    changed = same + [_traced(1, "a", 8)]
    assert count_mismatches(changed) == [
        'passive-wedge seed 1: counts {"pairs": 10, "wedges": 8} differ from {"pairs": 10, "wedges": 6} of an earlier run'
    ]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, True)["verdict"] == "gain"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, True)["verdict"] == "regression"
    assert compare.verdict(base, list(reversed(base)), 0.1, True)["verdict"] == "no change"
    wide = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, wide, 0.1, True)["verdict"] == "unresolved"
