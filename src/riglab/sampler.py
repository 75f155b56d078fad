"""Random attribute sets and the graphs they induce.

Sampling is driven by counter-based (Philox) streams addressed by a
(seed, stream_id) pair, so replicates are reproducible bit for bit and
independent streams can run concurrently in any order.

Both graph constructions funnel through the same machinery: group the
bipartite incidence by one side, emit every within-group pair, and
threshold the pair multiplicities at s.  Grouping by attribute projects
onto actors (the "active" graph); grouping by actor projects onto
attributes (the "passive" graph).  The projected pair count is checked
against a hard cap first, because dense regimes explode quadratically
and are outside the sparse scope of this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

__all__ = [
    "PAIR_CAP_DEFAULT",
    "ResourceLimitError",
    "RngStream",
    "Incidence",
    "Graph",
    "sample_subset",
    "sample_incidence",
    "build_active",
    "build_passive",
    "group_pair_indices",
    "write_edge_list",
]

PAIR_CAP_DEFAULT = 200_000_000


class ResourceLimitError(RuntimeError):
    """A graph build would exceed its configured resource cap."""


@dataclass
class RngStream:
    """Addressable random stream: (seed, stream_id) -> Philox generator.

    Streams with equal addresses reproduce identical draws from a fresh
    object; distinct stream_ids are statistically independent.  The
    underlying generator is created lazily and advances as it is used.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be >= 0")

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self.stream_id,)
            )
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen


def _as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


def sample_subset(m: int, x: int, rng: "RngStream | np.random.Generator") -> np.ndarray:
    """Uniform x-subset of {0..m-1}, sorted ascending.

    Partial-selection algorithm (Floyd): exactly x draws regardless of
    how close x is to m, so there is no rejection loop to stall in the
    dense regime.
    """
    if not 0 <= x <= m:
        raise ValueError(f"need 0 <= x <= m, got x={x}, m={m}")
    gen = _as_generator(rng)
    if x == 0:
        return np.empty(0, dtype=np.int64)
    if x == m:
        return np.arange(m, dtype=np.int64)
    chosen: set[int] = set()
    for j in range(m - x, m):
        t = int(gen.integers(0, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    return np.array(sorted(chosen), dtype=np.int64)


@dataclass(frozen=True)
class Incidence:
    """Realized attribute sets, stored flat.

    ``attrs[offsets[i]:offsets[i+1]]`` is the sorted set of actor i.
    """

    m: int
    sizes: np.ndarray
    offsets: np.ndarray
    attrs: np.ndarray

    @property
    def n(self) -> int:
        return self.sizes.size

    def set(self, i: int) -> np.ndarray:
        return self.attrs[self.offsets[i] : self.offsets[i + 1]]

    @staticmethod
    def from_sets(m: int, sets) -> "Incidence":
        """Incidence of explicit sets; each is sorted, and must hold
        distinct attributes in [0, m)."""
        arrays = [np.sort(np.asarray(s, dtype=np.int64)) for s in sets]
        for i, a in enumerate(arrays):
            if a.size and (a[0] < 0 or a[-1] >= m or np.any(a[1:] == a[:-1])):
                raise ValueError(f"set {i} must hold distinct attributes in [0, {m})")
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        attrs = np.concatenate(arrays) if arrays else np.empty(0, np.int64)
        return Incidence(m=m, sizes=sizes, offsets=offsets, attrs=attrs)


def _batch_subsets(
    gen: np.random.Generator, m: int, x: int, count: int
) -> np.ndarray:
    """(count, x) matrix of independent uniform x-subsets, rows sorted.

    Sparse sizes (x(x-1) <= m // 2) use a vectorized draw-and-redraw of the
    few colliding rows; larger sizes fall back to per-row partial
    selection, which never stalls.
    """
    if x == 1:
        return gen.integers(0, m, size=(count, 1), dtype=np.int64)
    if x * (x - 1) <= m // 2:
        rows = np.sort(gen.integers(0, m, size=(count, x), dtype=np.int64), axis=1)
        bad = np.flatnonzero((np.diff(rows, axis=1) == 0).any(axis=1))
        while bad.size:
            redraw = np.sort(
                gen.integers(0, m, size=(bad.size, x), dtype=np.int64), axis=1
            )
            rows[bad] = redraw
            bad = bad[(np.diff(redraw, axis=1) == 0).any(axis=1)]
        return rows
    return np.stack([sample_subset(m, x, gen) for _ in range(count)])


def sample_incidence(
    params: ModelParams, rng: "RngStream | np.random.Generator"
) -> Incidence:
    """Draw n independent attribute sets: a size from the size law, then
    a uniform subset of that size."""
    gen = _as_generator(rng)
    n, m, dist = params.n, params.m, params.size_dist
    support = dist.support
    if support.size == 0:
        raise ValueError("size distribution has empty support")
    probs = dist.weights[support]
    probs = probs / probs.sum()
    sizes = gen.choice(support, size=n, p=probs).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    attrs = np.empty(int(offsets[-1]), dtype=np.int64)
    for x in np.unique(sizes):
        x = int(x)
        if x == 0:
            continue
        idx = np.flatnonzero(sizes == x)
        rows = _batch_subsets(gen, m, x, idx.size)
        flat_pos = (offsets[idx][:, None] + np.arange(x)[None, :]).ravel()
        attrs[flat_pos] = rows.ravel()
    return Incidence(m=m, sizes=sizes, offsets=offsets, attrs=attrs)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in CSR form with sorted neighbor lists."""

    vertex_count: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def adjacency(self) -> list[np.ndarray]:
        return [self.neighbors(v) for v in range(self.vertex_count)]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge arrays (u, v) with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.vertex_count), self.degrees)
        mask = rows < self.indices
        return rows[mask], self.indices[mask]

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys u * vertex_count + v over edges u < v."""
        u, v = self.edges()
        return u * np.int64(self.vertex_count) + v

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return bool(i < nb.size and nb[i] == v)

    def validate(self) -> None:
        """Check simplicity, symmetry and sortedness (test support)."""
        rows = np.repeat(np.arange(self.vertex_count), self.degrees)
        if np.any(rows == self.indices):
            raise AssertionError("self-loop present")
        for v in range(self.vertex_count):
            nb = self.neighbors(v)
            if nb.size and (np.any(np.diff(nb) <= 0)):
                raise AssertionError(f"neighbors of {v} not strictly sorted")
        fwd = set(zip(rows.tolist(), self.indices.tolist()))
        for a, b in fwd:
            if (b, a) not in fwd:
                raise AssertionError(f"asymmetric edge ({a}, {b})")

    @staticmethod
    def from_edge_arrays(vertex_count: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Build from unique undirected edges u < v.

        Both directions of every edge become one int64 key row * V + col
        (V the vertex count); sorting the keys orders the rows and each
        neighbor list at once.
        """
        width = np.int64(vertex_count)
        keys = np.concatenate([u * width + v, v * width + u])
        keys.sort()
        counts = np.bincount(u, minlength=vertex_count) + np.bincount(v, minlength=vertex_count)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return Graph(vertex_count=vertex_count, indptr=indptr, indices=keys % width)

    @staticmethod
    def empty(vertex_count: int) -> "Graph":
        return Graph(
            vertex_count=vertex_count,
            indptr=np.zeros(vertex_count + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )


def group_pair_indices(group_sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat-index pairs (i, j), i < j, within every contiguous group.

    For each element the fan of pairs it starts is materialized with one
    repeat/cumsum pass, so the cost is O(total pairs) with no Python
    loop.  Pairs come out in group-then-position order.
    """
    total = int(group_sizes.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sizes = group_sizes.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
    fanout = np.repeat(sizes, sizes) - pos - 1
    pair_total = int(fanout.sum())
    if pair_total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    left = np.repeat(np.arange(total, dtype=np.int64), fanout)
    fan_starts = np.concatenate([[0], np.cumsum(fanout)[:-1]])
    right = np.arange(1, pair_total + 1, dtype=np.int64)
    right -= np.repeat(fan_starts, fanout)
    right += left
    return left, right


def _threshold_pairs(keys: np.ndarray, s: int) -> np.ndarray:
    """Distinct keys with multiplicity >= s (sorts in place).

    After the sort, a key repeats at least s times iff its run starts at
    some i with keys[i] == keys[i + s - 1].
    """
    keys.sort()
    starts = keys.size - s + 1
    if starts <= 0:
        return keys[:0]
    keep = keys[s - 1 :] == keys[:starts]
    keep[1:] &= keys[1:starts] != keys[: starts - 1]
    return keys[:starts][keep]


def _project(
    kind: str, members: np.ndarray, group_sizes: np.ndarray, vertex_count: int, s: int, pair_cap: int
) -> Graph:
    """Graph on ``vertex_count`` vertices with an edge {a, b} iff a and b
    share at least s groups of ``members`` (a flat array, grouped
    contiguously by ``group_sizes`` and ascending inside each group)."""
    g = group_sizes.astype(np.int64)
    projected = int(np.sum(g * (g - 1) // 2))
    if projected > pair_cap:
        raise ResourceLimitError(
            f"{kind} build needs {projected} within-group pairs (cap {pair_cap}); "
            "this regime is too dense for pair counting"
        )
    left, right = group_pair_indices(group_sizes)
    # key a * V + b with a < b; each index array is dropped once read
    keys = members[left].astype(np.int64, copy=False)
    del left
    keys *= np.int64(vertex_count)
    keys += members[right]
    del right
    keys = _threshold_pairs(keys, s)
    return Graph.from_edge_arrays(vertex_count, keys // vertex_count, keys % vertex_count)


def build_active(
    inc: Incidence, s: int, pair_cap: int = PAIR_CAP_DEFAULT
) -> Graph:
    """Actor graph: edge {i, j} iff the sets share at least s attributes.

    Inverted index (attribute -> actors) feeding a pair-keyed
    co-occurrence count, thresholded at s.  Aborts with
    :class:`ResourceLimitError` when the projected pair count
    sum_w C(deg(w), 2) exceeds ``pair_cap``.
    """
    if not 1 <= s <= inc.m:
        raise ValueError("need 1 <= s <= m")
    # stable sort keeps actor ids ascending inside each attribute group
    order = np.argsort(inc.attrs, kind="stable")
    actors_by_attr = np.repeat(np.arange(inc.n, dtype=np.int64), inc.sizes)[order]
    attr_deg = np.bincount(inc.attrs, minlength=inc.m)
    return _project("active", actors_by_attr, attr_deg, inc.n, s, pair_cap)


def build_passive(
    inc: Incidence, s: int, pair_cap: int = PAIR_CAP_DEFAULT
) -> Graph:
    """Attribute graph: edge {w, w'} iff the pair lies in >= s sets.

    For s = 1 this is the union of cliques over the sets; s >= 2 counts
    multigraph link multiplicities, which is well defined even where no
    limiting theory is provided.
    """
    if not 1 <= s <= inc.n:
        raise ValueError("need 1 <= s <= n")
    return _project("passive", inc.attrs, inc.sizes, inc.m, s, pair_cap)


def write_edge_list(
    graph: Graph, path, *, kind: str, n: int, m: int, s: int, seed: int
) -> None:
    """Plain-text edge list: a metadata header line, then one sorted
    ``u v`` pair per line with u < v."""
    u, v = graph.edges()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# rig-lab graph kind={kind} n={n} m={m} s={s} seed={seed}\n")
        for a, b in zip(u.tolist(), v.tolist()):
            fh.write(f"{a} {b}\n")
