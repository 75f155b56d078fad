"""Span tracing of riglab's layers from outside the package.

The tracer replaces each layer's entry points in the namespaces they are
looked up from, records one span per call while an operation is open,
and puts every original back when the ``patched()`` block exits.  Spans
stay in memory; ``spans_json`` turns them into plain data for writing
out at the end of a run.

A layer's self time is its span's duration minus its child spans'
durations.  Theory functions call each other
(``alpha_k_active`` builds a degree pmf), so only the outermost theory
call of a chain becomes a span: the family split then charges a call to
the function the caller asked for.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

THEORY_FAMILIES = {
    "alpha_k_active": "alpha_k",
    "alpha_k_passive": "alpha_k",
    "alpha_k_passive_curve": "alpha_k",
    "mixed_poisson_degree_pmf": "degree_pmf",
    "compound_poisson_pmf": "degree_pmf",
    "poisson_approx_stats": "approx_stats",
}

# per-op lead layer of each workload: the span names whose self time is
# the share of op_s the workload was chosen to exercise
LEAD_SPANS = {
    "passive-wedge": ("stats.count", "stats.report", "stats.pool"),
    "active-threshold": ("sampler.build", "sampler.csr"),
    "dense-sets": ("sampler.sample",),
    "theory-sweep": ("theory.alpha_k", "theory.degree_pmf", "theory.approx_stats", "theory.other"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counters: dict = field(default_factory=dict)


def _pairs_active(inc) -> int:
    deg = np.bincount(inc.attrs, minlength=inc.m).astype(np.int64)
    return int((deg * (deg - 1) // 2).sum())


def _pairs_passive(inc) -> int:
    sizes = inc.sizes.astype(np.int64)
    return int((sizes * (sizes - 1) // 2).sum())


def _build_counters(pair_count):
    def counters(args, result):
        return {"pairs": pair_count(args[0]), "edges": int(result.edge_count)}

    return counters


def _sample_counters(args, result):
    return {"entries": int(result.attrs.size)}


def _count_counters(args, result):
    return {"wedges": int(result.n2.sum()), "triangles": int(result.n3.sum()) // 3}


class Tracer:
    """Collects spans of the calls made while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def operation(self, op: int):
        """Open operation ``op``: calls inside it are recorded under a root
        span named ``op``."""
        self._op = op
        try:
            with self._span("op"):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def _span(self, name: str, memory: bool = False):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op)
        self.spans.append(span)
        self._stack.append(index)
        own_memory = memory and not tracemalloc.is_tracing()
        if own_memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if own_memory:
                span.counters["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def wrap(self, fn, name: str, counters=None, memory: bool = False, outermost: str | None = None):
        """Return ``fn`` wrapped so each call inside an operation is a span.

        ``outermost`` names a span prefix: a call made while the innermost
        open span already has that prefix is passed through unrecorded.
        """

        def traced(*args, **kwargs):
            if self._op is None or (
                outermost and self._stack and self.spans[self._stack[-1]].name.startswith(outermost)
            ):
                return fn(*args, **kwargs)
            with self._span(name, memory) as span:
                result = fn(*args, **kwargs)
            if counters is not None:
                # a span of its own, so the caller's self time excludes it
                with self._span("trace.counters"):
                    span.counters.update(counters(args, result))
            return result

        return traced

    def entry_points(self):
        """(owner, attribute, replacement) for every patched entry point.

        ``cli`` binds the sampler functions by name, so they are replaced
        in both namespaces; ``Graph.from_edge_arrays`` is replaced on the
        class; ``clustering_report`` finds ``local_counts`` as a module
        global, and ``cli`` reaches theory through the module object.
        """
        from riglab import cli, sampler, stats, theory

        sample = self.wrap(sampler.sample_incidence, "sampler.sample", _sample_counters)
        build_a = self.wrap(sampler.build_active, "sampler.build", _build_counters(_pairs_active), memory=True)
        build_p = self.wrap(sampler.build_passive, "sampler.build", _build_counters(_pairs_passive), memory=True)
        csr = staticmethod(self.wrap(sampler.Graph.from_edge_arrays, "sampler.csr"))
        out = []
        for module in (sampler, cli):
            out += [
                (module, "sample_incidence", sample),
                (module, "build_active", build_a),
                (module, "build_passive", build_p),
            ]
        out += [
            (sampler.Graph, "from_edge_arrays", csr),
            (stats, "local_counts", self.wrap(stats.local_counts, "stats.count", _count_counters, memory=True)),
            (stats, "clustering_report", self.wrap(stats.clustering_report, "stats.report")),
            (stats, "pooled_estimates", self.wrap(stats.pooled_estimates, "stats.pool")),
            (cli, "run_scenario", self.wrap(cli.run_scenario, "cli.run")),
        ]
        for name in theory.__all__:
            fn = getattr(theory, name)
            if callable(fn) and not isinstance(fn, type):
                family = THEORY_FAMILIES.get(name, "other")
                out.append((theory, name, self.wrap(fn, f"theory.{family}", outermost="theory.")))
        return out

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every original on exit."""
        saved = []
        try:
            for owner, attr, replacement in self.entry_points():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its children.

    Spans come from one call stack, so a span's children run one after
    another inside it and never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - inner for span, inner in zip(spans, child_time)]


def per_op_totals(spans: list[Span]) -> dict[int, dict]:
    """Per operation: self time by span name, theory call count, summed
    counters, per-build memory peaks and the op's wall time."""
    ops: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        rec = ops.setdefault(
            span.op, {"self": {}, "theory_calls": 0, "counts": {}, "builds": [], "count_peaks": [], "op_s": 0.0}
        )
        rec["self"][span.name] = rec["self"].get(span.name, 0.0) + own
        if span.name == "op":
            rec["op_s"] = span.end - span.start
        if span.name.startswith("theory."):
            rec["theory_calls"] += 1
        for key, value in span.counters.items():
            if key != "peak_bytes":
                rec["counts"][key] = rec["counts"].get(key, 0) + value
        if span.name == "sampler.build":
            rec["builds"].append((span.counters["peak_bytes"], span.counters["pairs"]))
        if span.name == "stats.count":
            rec["count_peaks"].append(span.counters["peak_bytes"])
    return ops


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], workload: str) -> tuple[dict, dict]:
    """(per-layer metrics, per-op counts) of a traced run.

    Times and rates are medians over operations, except ``trace.op_s``,
    the mean like the untraced ``op_s``.  Counts are those of the first
    operation; the caller checks that every operation repeats
    them exactly.
    """
    ops = per_op_totals(spans)
    recs = [ops[k] for k in sorted(ops)]
    mb = 1.0 / (1024 * 1024)

    def t(name):
        return [r["self"].get(name, 0.0) for r in recs]

    def theory_total(r):
        return sum(v for k, v in r["self"].items() if k.startswith("theory."))

    counts = recs[0]["counts"] if recs else {}
    lead = LEAD_SPANS[workload]

    def lead_time(r):
        return sum(r["self"].get(k, 0.0) for k in lead)

    pairs = counts.get("pairs", 0)
    wedges = counts.get("wedges", 0)
    sample_s, count_s = _median(t("sampler.sample")), _median(t("stats.count"))
    metrics = {
        "sampler.sample_s": (sample_s, "s"),
        "sampler.entries_per_s": (_rate(counts.get("entries", 0), sample_s), "1/s"),
        "sampler.build_s": (_median(t("sampler.build")), "s"),
        "sampler.csr_s": (_median(t("sampler.csr")), "s"),
        "sampler.pairs": (pairs, "count"),
        "sampler.edges": (counts.get("edges", 0), "count"),
        "sampler.edge_yield": (_rate(counts.get("edges", 0), pairs), "ratio"),
        "sampler.build_peak_mb": (_median(max((p for p, _ in r["builds"]), default=0) * mb for r in recs), "MB"),
        "sampler.bytes_per_pair": (_median(p / n for r in recs for p, n in r["builds"] if n > 0), "B/pair"),
        "stats.count_s": (count_s, "s"),
        "stats.wedges": (wedges, "count"),
        "stats.wedges_per_s": (_rate(wedges, count_s), "1/s"),
        "stats.triangles": (counts.get("triangles", 0), "count"),
        "stats.count_peak_mb": (_median(max(r["count_peaks"], default=0) * mb for r in recs), "MB"),
        "stats.report_s": (_median(t("stats.report")), "s"),
        "stats.pool_s": (_median(t("stats.pool")), "s"),
        "theory.s": (_median(theory_total(r) for r in recs), "s"),
        "theory.calls": (_median(r["theory_calls"] for r in recs), "count"),
        "theory.alpha_k_s": (_median(t("theory.alpha_k")), "s"),
        "theory.degree_pmf_s": (_median(t("theory.degree_pmf")), "s"),
        "theory.approx_stats_s": (_median(t("theory.approx_stats")), "s"),
        "cli.self_s": (_median(t("cli.run")), "s"),
        "lead.share": (_median(_rate(lead_time(r), r["op_s"]) for r in recs), "ratio"),
        "trace.op_s": (statistics.fmean(r["op_s"] for r in recs) if recs else 0.0, "s"),
    }
    return metrics, [r["counts"] for r in recs]


def spans_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "counters": s.counters}
        for s in spans
    ]
