"""Empirical estimators on realized graphs and comparison utilities.

Triangle counting orients every edge from its lower- to its
higher-ranked end, ranking vertices by (degree, id) as in Chiba and
Nishizeki (1985) and Latapy (2008).  Each triangle is then one wedge
(a, b) of out-neighbors around its lowest-ranked corner, so only the
sum_v C(d+(v), 2) oriented wedges are probed against the edge set
(d+ the out-degree, at most sqrt(2 * edges)), not all sum_v C(d(v), 2)
wedges: 1.8 M instead of 8.4 M on the example5 graph.  A closed wedge
credits all three corners, so triangle counts stay per vertex; the
2-star counts C(d, 2) come from the degrees alone.

The wedges of a block of centers are packed into one int64 key each,
(a * V + b) * S + (c - lo) for a block [lo, lo + S), and sorted before
the lookup, so the binary search over the sorted edge keys receives
ascending needles and narrows each search from the last one.  S is
bounded so the packed keys fit in int64.

The vertex-averaged clustering estimate skips vertices with no 2-star
(degree < 2): the 0/0 terms are undefined and excluding them is the
standard convention, recorded in report metadata.  The global estimate
(ratio of sums) is unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DiscretePmf
from .sampler import Graph, group_pair_indices

__all__ = [
    "LocalCounts",
    "ClusteringReport",
    "SlopeFit",
    "degree_histogram",
    "local_counts",
    "clustering_report",
    "tv_distance",
    "loglog_slope",
    "pooled_estimates",
    "DEFAULT_MIN_BUCKET",
]

DEFAULT_MIN_BUCKET = 30
WEDGE_CHUNK = 8_000_000  # oriented wedges probed per block of centers
KEY_LIMIT = 2**63  # packed wedge keys stay below this (int64)
ALPHA_HAT_CONVENTION = "vertices with no 2-star excluded from the average"


@dataclass(frozen=True)
class LocalCounts:
    """Per-vertex degree, 2-star count n2 = C(d, 2) and triangle count n3
    (edges among the neighborhood)."""

    degree: np.ndarray
    n2: np.ndarray
    n3: np.ndarray


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


@dataclass
class ClusteringReport:
    """Clustering estimates of one graph (or a pool of replicates).

    ``alpha_hat`` averages n3/n2 over vertices that have a 2-star;
    ``alpha_hat_hat`` is the ratio of sums.  ``per_degree[k]`` estimates
    the clustering of degree-k vertices and is only reported for buckets
    holding at least ``min_bucket`` vertices; the raw sums behind every
    bucket are kept so replicates can be pooled exactly.  Standard
    errors appear only on pooled reports (from replicate spread).
    """

    alpha_hat: float | None
    alpha_hat_hat: float | None
    per_degree: dict[int, float]
    bucket_counts: dict[int, int]
    min_bucket: int
    n2_sum: int
    n3_sum: int
    n3_by_degree: dict[int, int]
    alpha_hat_count: int
    replicates: int = 1
    se_alpha_hat_hat: float | None = None
    per_degree_se: dict[int, float] = field(default_factory=dict)


def degree_histogram(graph: Graph) -> DiscretePmf:
    """Empirical degree pmf over all vertices (tail mass zero)."""
    counts = np.bincount(graph.degrees, minlength=1)
    return DiscretePmf(counts / graph.vertex_count, 0.0)


def local_counts(graph: Graph) -> LocalCounts:
    """Degrees, 2-star counts and per-vertex triangle counts.

    Each edge is kept in the out-list of its end of lower (degree, id)
    rank; out-lists stay sorted by id.  A pair a < b of one out-list
    closes a triangle iff a * V + b is among the sorted edge keys (V the
    vertex count), and every triangle is found exactly once, from its
    lowest-ranked corner; its closed pair then credits all three corners.

    Pairs are formed for blocks of centers [lo, hi), each pair as one
    packed key (a * V + b) * S + (c - lo) with c its center and
    S = hi - lo.  The keys are sorted before they are split back into
    a * V + b and c, so the edge-key search sees ascending needles.  A
    block's sum of C(d+, 2) stays within ``WEDGE_CHUNK``, which bounds
    the transient memory (a single center may exceed it, with at most
    C(sqrt(2 * edges), 2) pairs), and S stays within
    (``KEY_LIMIT`` - 1) // V**2, so packed keys fit in int64; every
    block holds at least one center, which V**2 < 2**63 always allows.
    """
    n = graph.vertex_count
    deg = graph.degrees.astype(np.int64)
    n2 = deg * (deg - 1) // 2
    n3 = np.zeros(n, dtype=np.int64)
    nn = np.int64(n)
    rank = deg * nn + np.arange(n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    up = rank[graph.indices] > rank[rows]
    out = graph.indices[up]
    outdeg = np.bincount(rows[up], minlength=n)
    del rank, up
    forward = rows < graph.indices
    ekeys = rows[forward] * nn + graph.indices[forward]  # CSR order: sorted
    del rows, forward
    pairs = outdeg * (outdeg - 1) // 2
    ends = np.cumsum(pairs)
    starts = np.concatenate([[0], np.cumsum(outdeg)])
    max_span = max((KEY_LIMIT - 1) // max(n * n, 1), 1)
    lo = 0
    while lo < n:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + WEDGE_CHUNK, side="right")), lo + 1)
        hi = min(hi, lo + max_span)
        span = hi - lo
        li, ri = group_pair_indices(outdeg[lo:hi])
        li += starts[lo]
        ri += starts[lo]
        keys = out[li]
        del li
        keys *= nn
        keys += out[ri]  # out-lists are sorted, so a < b
        del ri
        keys *= span
        keys += np.repeat(np.arange(span, dtype=np.int64), pairs[lo:hi])
        keys.sort()
        ab, c = np.divmod(keys, span)
        del keys
        # "clip" maps a needle past the last edge key onto that key
        closed = np.take(ekeys, np.searchsorted(ekeys, ab), mode="clip") == ab
        if closed.any():
            a, b = np.divmod(ab[closed], nn)
            n3[lo:hi] += np.bincount(c[closed], minlength=hi - lo)
            n3 += np.bincount(a, minlength=n)
            n3 += np.bincount(b, minlength=n)
        lo = hi
    return LocalCounts(degree=deg, n2=n2, n3=n3)


def clustering_report(graph: Graph, min_bucket: int = DEFAULT_MIN_BUCKET) -> ClusteringReport:
    """Clustering estimates of one graph; see :class:`ClusteringReport`."""
    if min_bucket < 1:
        raise ValueError("min_bucket must be >= 1")
    lc = local_counts(graph)
    has_wedge = lc.n2 > 0
    count_w = int(has_wedge.sum())
    alpha_hat = (
        float(np.mean(lc.n3[has_wedge] / lc.n2[has_wedge])) if count_w else None
    )
    n2_sum = int(lc.n2.sum())
    n3_sum = int(lc.n3.sum())
    alpha_hat_hat = n3_sum / n2_sum if n2_sum > 0 else None
    counts = np.bincount(lc.degree)
    n3_by_deg = np.bincount(lc.degree, weights=lc.n3.astype(float))
    bucket_counts: dict[int, int] = {}
    n3_by_degree: dict[int, int] = {}
    for k in range(2, counts.size):
        if counts[k] > 0:
            bucket_counts[k] = int(counts[k])
            n3_by_degree[k] = int(round(n3_by_deg[k]))
    per_degree = _per_degree(n3_by_degree, bucket_counts, min_bucket)
    return ClusteringReport(
        alpha_hat=alpha_hat,
        alpha_hat_hat=alpha_hat_hat,
        per_degree=per_degree,
        bucket_counts=bucket_counts,
        min_bucket=min_bucket,
        n2_sum=n2_sum,
        n3_sum=n3_sum,
        n3_by_degree=n3_by_degree,
        alpha_hat_count=count_w,
    )


def _per_degree(
    n3_by_degree: dict[int, int], bucket_counts: dict[int, int], min_bucket: int
) -> dict[int, float]:
    out = {}
    for k, cnt in sorted(bucket_counts.items()):
        if cnt >= min_bucket and k >= 2:
            out[k] = n3_by_degree.get(k, 0) / (math.comb(k, 2) * cnt)
    return out


def tv_distance(p: DiscretePmf, q: DiscretePmf) -> float:
    """Total variation: half the L1 gap over {0..max k} plus half the
    tail-mass gap."""
    size = max(p.probs.size, q.probs.size)
    pa = np.zeros(size)
    qa = np.zeros(size)
    pa[: p.probs.size] = p.probs
    qa[: q.probs.size] = q.probs
    return float(0.5 * np.abs(pa - qa).sum() + 0.5 * abs(p.tail_mass - q.tail_mass))


def loglog_slope(points: dict) -> SlopeFit:
    """Least-squares slope of log(value) against log(k).

    Nonpositive values are excluded; fewer than 3 surviving points is an
    error.
    """
    ks, vs = [], []
    for k, v in points.items():
        if v > 0:
            ks.append(float(k))
            vs.append(float(v))
    if len(ks) < 3:
        raise ValueError("need at least 3 positive points for a log-log fit")
    lx = np.log(np.array(ks))
    ly = np.log(np.array(vs))
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - design @ coef
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=slope, intercept=intercept, r2=r2)


def _se(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def pooled_estimates(reports: list[ClusteringReport]) -> ClusteringReport:
    """Pool replicate reports: count-weighted sums for the point
    estimates, between-replicate spread for the standard errors."""
    if not reports:
        raise ValueError("need at least one report")
    if len(reports) == 1:
        return reports[0]
    min_bucket = reports[0].min_bucket
    n2_sum = sum(r.n2_sum for r in reports)
    n3_sum = sum(r.n3_sum for r in reports)
    alpha_hat_hat = n3_sum / n2_sum if n2_sum > 0 else None
    wsum = sum(r.alpha_hat_count for r in reports)
    alpha_hat = (
        sum(r.alpha_hat * r.alpha_hat_count for r in reports if r.alpha_hat is not None)
        / wsum
        if wsum
        else None
    )
    bucket_counts: dict[int, int] = {}
    n3_by_degree: dict[int, int] = {}
    for r in reports:
        for k, cnt in r.bucket_counts.items():
            bucket_counts[k] = bucket_counts.get(k, 0) + cnt
            n3_by_degree[k] = n3_by_degree.get(k, 0) + r.n3_by_degree.get(k, 0)
    per_degree = _per_degree(n3_by_degree, bucket_counts, min_bucket)
    per_degree_se: dict[int, float] = {}
    for k in per_degree:
        vals = [
            r.n3_by_degree[k] / (math.comb(k, 2) * r.bucket_counts[k])
            for r in reports
            if r.bucket_counts.get(k, 0) > 0
        ]
        se = _se(vals)
        if se is not None:
            per_degree_se[k] = se
    return ClusteringReport(
        alpha_hat=alpha_hat,
        alpha_hat_hat=alpha_hat_hat,
        per_degree=per_degree,
        bucket_counts=dict(sorted(bucket_counts.items())),
        min_bucket=min_bucket,
        n2_sum=n2_sum,
        n3_sum=n3_sum,
        n3_by_degree=dict(sorted(n3_by_degree.items())),
        alpha_hat_count=wsum,
        replicates=sum(r.replicates for r in reports),
        se_alpha_hat_hat=_se(
            [r.alpha_hat_hat for r in reports if r.alpha_hat_hat is not None]
        ),
        per_degree_se=per_degree_se,
    )
