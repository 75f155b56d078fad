"""Empirical estimators on realized graphs and comparison utilities.

Triangle counting orients every edge key u * V + v of the graph (V the
vertex count) from its lower- to its higher-ranked end c as c * V + x,
ranking vertices by (degree, id) as in Chiba and Nishizeki (1985) and
Latapy (2008); one sort of these keys gives the out-lists.  An edge
with a degree-1 end lies in no triangle and is not oriented.  Each
triangle is then one wedge (a, b), a < b, of out-neighbors around its
lowest-ranked corner, so only the sum_v C(d+(v), 2) oriented wedges are
probed against the edge keys (d+ the out-degree, at most
sqrt(2 * edges)), not all sum_v C(d(v), 2) wedges: 1.8 M instead of
8.4 M on the example5 graph.  A closed wedge credits all three corners,
so triangle counts stay per vertex; the 2-star counts C(d, 2) come from
the degrees alone.

The wedges of a block of centers are packed into one int64 key each,
(a * V + b) * S + (c - lo) for a block [lo, lo + S): the sorted
2-subset keys of the out-lists (:func:`riglab.sampler.subset_keys`).
S is bounded so the packed keys fit in int64, and a block holds about
``WEDGE_CHUNK`` wedges (2 MiB of keys).  The keys are probed
``PROBE_CHUNK`` at a time: the a * V + b of a chunk ascend, so each
chunk searches only the slice of edge keys between its first and last
one, which stays in cache.  Closed keys are gathered at the front of the
block's array and decoded once.  Beside the graph, the count so holds
the out-lists as int32 (4 B per edge), a few vertex-sized arrays and
one block of keys, never an array sized by all the wedges; its peak is
where the sorted oriented keys (8 B per edge) are reduced to the
out-lists.

The vertex-averaged clustering estimate skips vertices with no 2-star
(degree < 2): the 0/0 terms are undefined and excluding them is the
standard convention, recorded in report metadata.  The global estimate
(ratio of sums) is unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscretePmf
from .sampler import Graph, subset_keys

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
    "stack_rows",
    "DEFAULT_MIN_BUCKET",
]

DEFAULT_MIN_BUCKET = 30
WEDGE_CHUNK = 2**18  # oriented wedges packed per block of centers (2 MiB of keys)
PROBE_CHUNK = 2**14  # wedges probed, or edges oriented, per vectorized step
KEY_LIMIT = 2**63  # packed wedge keys stay below this (int64)
ALPHA_HAT_CONVENTION = "vertices with no 2-star excluded from the average"


@dataclass(frozen=True)
class LocalCounts:
    """Per-vertex degree and triangle count n3 (edges among the
    neighborhood); the 2-star count n2 = C(d, 2) is read off the degree.
    ``degree`` is the graph's own degree array, not a copy."""

    degree: np.ndarray
    n3: np.ndarray

    @property
    def n2(self) -> np.ndarray:
        return self.degree * (self.degree - 1) // 2


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class ClusteringReport:
    """Clustering sums of R replicate graphs: ``counts`` and ``n3`` are
    int64 arrays of shape (R, K), 16 B per replicate per degree column,
    whose row r, column k holds replicate r's degree-k vertices and the
    sum of their triangle counts (columns 0 and 1 stay zero).  A pool
    stacks rows, so it sums the disjoint union of the graphs.  Estimates
    read the column sums as Python ints, so every ratio is exact:
    ``alpha_hat`` averages n3/n2 = n3/C(k, 2) over the vertices with a
    2-star, ``alpha_hat_hat`` is the ratio of sums, and ``per_degree[k]``
    covers the buckets of at least ``min_bucket`` vertices.  Standard
    errors are the spread of the rows' estimates, so only a pool has them.
    """

    counts: np.ndarray
    n3: np.ndarray
    min_bucket: int

    def _rows(self) -> list[ClusteringReport]:
        """Each replicate as a one-row report that keeps every bucket."""
        return [ClusteringReport(c[None], t[None], 1) for c, t in zip(self.counts, self.n3)]

    @property
    def bucket_counts(self) -> dict[int, int]:
        return {k: cnt for k, cnt in enumerate(self.counts.sum(axis=0).tolist()) if cnt}

    @property
    def n3_by_degree(self) -> dict[int, int]:
        n3 = self.n3.sum(axis=0).tolist()
        return {k: n3[k] for k in self.bucket_counts}

    @property
    def alpha_hat(self) -> float | None:
        count = sum(self.bucket_counts.values())
        if not count:
            return None
        return math.fsum(n3 / math.comb(k, 2) for k, n3 in self.n3_by_degree.items()) / count

    @property
    def n2_sum(self) -> int:
        return sum(math.comb(k, 2) * cnt for k, cnt in self.bucket_counts.items())

    @property
    def n3_sum(self) -> int:
        return sum(self.n3_by_degree.values())

    @property
    def alpha_hat_hat(self) -> float | None:
        n2_sum = self.n2_sum
        return self.n3_sum / n2_sum if n2_sum > 0 else None

    @property
    def replicates(self) -> int:
        return len(self.counts)

    @property
    def per_degree(self) -> dict[int, float]:
        n3 = self.n3_by_degree
        return {k: n3[k] / (math.comb(k, 2) * cnt) for k, cnt in self.bucket_counts.items() if cnt >= self.min_bucket}

    @property
    def se_alpha_hat_hat(self) -> float | None:
        return _se([row.alpha_hat_hat for row in self._rows() if row.alpha_hat_hat is not None])

    @property
    def per_degree_se(self) -> dict[int, float]:
        rows = [row.per_degree for row in self._rows()]
        ses = {k: _se([row[k] for row in rows if k in row]) for k in self.per_degree}
        return {k: se for k, se in ses.items() if se is not None}


def degree_histogram(graph: Graph) -> DiscretePmf:
    """Empirical degree pmf over all vertices (tail mass zero)."""
    counts = np.bincount(graph.degrees, minlength=1)
    return DiscretePmf(counts / graph.vertex_count, 0.0)


def local_counts(graph: Graph) -> LocalCounts:
    """Degrees and per-vertex triangle counts, by the oriented wedge
    probe of the module docstring.

    Centers are taken in blocks [lo, hi) whose sum of C(d+, 2) stays
    within ``WEDGE_CHUNK`` (a single center may exceed it, with at most
    C(sqrt(2 * edges), 2) pairs), and whose span S = hi - lo stays
    within (``KEY_LIMIT`` - 1) // V**2, so packed keys fit in int64;
    every block holds at least one center, which V**2 < 2**63 always
    allows.

    Memory: beside the graph (whose degrees are read, not copied), the
    transients are the oriented keys, 8 B per edge, until they are
    reduced to the int32 out-lists, 4 B per edge; 8 B per vertex for
    the out-degrees, then for each of three vertex arrays in the block
    loop; and 8 B per wedge of the current block, plus the block's
    vertex arrays and one slab of its out-lists as rows and of keys
    while :func:`riglab.sampler.subset_keys` writes the keys in place
    (8.8 to 9.4 B per wedge of a full block at that peak on the
    example5 graph).  Everything else is sized by ``PROBE_CHUNK``.  On
    the example5 graph (600 k edges, 1.8 M oriented wedges) the
    tracemalloc peak is 8.5 MB, at the reduction to out-lists (12 B per
    edge beside the out-degrees).
    """
    n = graph.vertex_count
    deg = graph.degrees
    out, outdeg = _out_lists(graph, deg)
    # out-list of c: out[starts[c] : starts[c + 1]], sorted by id
    starts = np.concatenate([[0], np.cumsum(outdeg)])
    ends = outdeg * (outdeg - 1) // 2
    np.cumsum(ends, out=ends)
    del outdeg
    n3 = np.zeros(n, dtype=np.int64)
    max_span = max((KEY_LIMIT - 1) // max(n * n, 1), 1)
    lo = 0
    while lo < n:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + WEDGE_CHUNK, side="right")), lo + 1)
        hi = min(hi, lo + max_span)
        span = hi - lo
        keys = subset_keys(np.diff(starts[lo : hi + 1]), out[starts[lo] : starts[hi]], 2, n, span)
        _credit_closed(n3, graph, keys, lo, span)
        del keys  # freed before the next block's keys are made
        lo = hi
    return LocalCounts(degree=deg, n3=n3)


def _credit_closed(n3: np.ndarray, graph: Graph, keys: np.ndarray, lo: int, span: int) -> None:
    """Add to ``n3`` the corners of the closed wedges among the sorted
    packed keys (a * V + b) * S + (c - lo) of one block, overwriting
    ``keys``.

    The keys are probed ``PROBE_CHUNK`` at a time against the edge keys
    between the chunk's first and last a * V + b, a slice that stays in
    cache.  Closed keys are moved to the front of ``keys``, which the
    chunks already probed have freed, and decoded there once: the
    centers by a count over the block's span, the ends a and b by
    ``np.add.at``, so the work is sized by the block, not by V.
    """
    kept = 0
    for at in range(0, keys.size, PROBE_CHUNK):
        chunk = keys[at : at + PROBE_CHUNK]
        ab = chunk // span
        first = np.searchsorted(graph.keys, ab[0])
        edges = graph.keys[first : np.searchsorted(graph.keys, ab[-1], side="right")]
        if not edges.size:
            continue
        found = np.searchsorted(edges, ab)
        # "clip" maps a needle past the slice onto its last key; the
        # take may write in place, since slot i reads found[i] first
        np.take(edges, found, mode="clip", out=found)
        hit = chunk[found == ab]
        keys[kept : kept + hit.size] = hit
        kept += hit.size
    wedges = keys[:kept]
    n = np.int64(n3.size)
    n3[lo : lo + span] += np.bincount(wedges % span, minlength=span)
    wedges //= span  # a * V + b
    np.add.at(n3, wedges // n, 1)
    np.add.at(n3, wedges % n, 1)


def _out_lists(graph: Graph, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The out-lists x of the edges {c, x} oriented from the end c of
    lower (degree, id) rank, ascending by c and then by x, in the
    narrower integer type that holds a vertex, and the out-degrees.

    An edge with a degree-1 end lies in no triangle and is left out.
    The rest are oriented ``PROBE_CHUNK`` edges at a time into keys
    c * V + x, and one sort of the keys gives the lists.  The sorted keys
    are then split a chunk at a time: the x go into the lists, and the
    c, which ascend, are counted over the chunk's own range of centers.
    """
    nn = np.int64(graph.vertex_count)
    oriented = np.empty(graph.keys.size, dtype=np.int64)
    size = 0
    for at in range(0, graph.keys.size, PROBE_CHUNK):
        keys = graph.keys[at : at + PROBE_CHUNK]
        u, v = np.divmod(keys, nn)
        du, dv = deg[u], deg[v]
        # u < v, so u outranks v exactly when its degree is higher
        kept = np.where(du > dv, v * nn + u, keys)[np.minimum(du, dv) > 1]
        del u, v, du, dv  # freed before the lists are made
        oriented[size : size + kept.size] = kept
        size += kept.size
    oriented = oriented[:size]
    oriented.sort()
    out = np.empty(size, dtype=np.int32 if graph.vertex_count <= 2**31 else np.int64)
    outdeg = np.zeros(graph.vertex_count, dtype=np.int64)
    for at in range(0, size, PROBE_CHUNK):
        c, out[at : at + PROBE_CHUNK] = np.divmod(oriented[at : at + PROBE_CHUNK], nn)
        outdeg[c[0] : c[-1] + 1] += np.bincount(c - c[0])
    return out, outdeg


def clustering_report(graph: Graph, min_bucket: int = DEFAULT_MIN_BUCKET) -> ClusteringReport:
    """Clustering sums of one graph, exact in int64; see :class:`ClusteringReport`."""
    if min_bucket < 1:
        raise ValueError("min_bucket must be >= 1")
    lc = local_counts(graph)
    counts = np.bincount(lc.degree)
    counts[:2] = 0
    n3 = np.zeros(counts.size, dtype=np.int64)
    np.add.at(n3, lc.degree, lc.n3)
    return ClusteringReport(counts=counts[None], n3=n3[None], min_bucket=min_bucket)


def tv_distance(p: DiscretePmf, q: DiscretePmf) -> float:
    """Total variation: half the L1 gap over {0..max k} plus half the
    tail-mass gap."""
    pa, qa = stack_rows([p.probs, q.probs])
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


def stack_rows(rows: list[np.ndarray]) -> np.ndarray:
    """Rows, or (R, K) blocks of rows, stacked in order and zero-padded to the widest."""
    rows = [np.atleast_2d(r) for r in rows]
    width = max(r.shape[1] for r in rows)
    return np.concatenate([np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in rows])


def pooled_estimates(reports: list[ClusteringReport]) -> ClusteringReport:
    """Pool reports: their rows stacked in order, so a pool of pools is the same stack."""
    if not reports:
        raise ValueError("need at least one report")
    return ClusteringReport(
        counts=stack_rows([r.counts for r in reports]),
        n3=stack_rows([r.n3 for r in reports]),
        min_bucket=reports[0].min_bucket,
    )
