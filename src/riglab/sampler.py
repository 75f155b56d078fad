"""Random attribute sets and the graphs they induce.

Sampling is driven by counter-based (Philox) streams addressed by a
(seed, stream_id) pair, so replicates are reproducible bit for bit and
independent streams can run concurrently in any order.

Both graph constructions funnel through one routine.  Every vertex has
a group list: an actor's attributes for the actor ("active") graph, the
actors holding an attribute for the attribute ("passive") graph.  The
routine keys each vertex by the t-subsets of its group list, t in
{1, s}, sorts the keys once, emits pairs only within equal signatures
and keeps the pairs formed at least C(s, t) times.  t = 1 counts
co-occurrences and thresholds them at s; t = s rests on two lists
sharing at least s groups iff they share an s-subset, so it keeps the
distinct pairs, and it is taken when its signature count is the smaller.
Each count of the chosen route is checked against a hard cap before the
array it sizes is allocated, because dense regimes explode
quadratically and are outside the sparse scope of this package.
"""

from __future__ import annotations

import itertools
import math
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
# bytes of draws per block of rows in the batched Floyd sampler
_FLOYD_BLOCK_BYTES = 1 << 22


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

    Floyd's partial selection: exactly x draws however close x is to m
    (none when x == m), so nothing stalls in the dense regime.  This
    scalar loop is the reference that the batched draws of
    :func:`sample_incidence` reproduce row for row.
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


def _floyd_rows(gen: np.random.Generator, m: int, x: int, count: int) -> np.ndarray:
    """(count, x) matrix of Floyd subsets for 0 < x < m, rows sorted.

    Column c holds step j = m - x + c of every row, all drawn by one
    ``integers`` call, which consumes the stream as ``count`` calls of
    :func:`sample_subset` do.  A step takes j when its draw is already
    taken: the taken entries are the row's earlier draws (a stable row
    sort finds repeats) and the j of each earlier such step (one pass
    per column).  Blocks of ``_FLOYD_BLOCK_BYTES`` of draws bound the
    temporaries for any m.
    """
    top = m - x
    rows = gen.integers(0, np.arange(top + 1, m + 1), size=(count, x), dtype=np.int64)
    late = np.arange(top, m, dtype=np.int64)
    block = max(1, _FLOYD_BLOCK_BYTES // (8 * x))
    for lo in range(0, count, block):
        part = rows[lo : lo + block]
        order = np.argsort(part, axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        replaced = np.zeros(part.shape, dtype=bool)
        np.put_along_axis(replaced, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
        for c in range(1, x):
            step = part[:, c] - top
            hit = np.flatnonzero((step >= 0) & (step < c))
            replaced[hit, c] |= replaced[hit, step[hit]]
        np.copyto(part, late, where=replaced)
    rows.sort(axis=1)
    return rows


def _batch_subsets(
    gen: np.random.Generator, m: int, x: int, count: int
) -> np.ndarray:
    """(count, x) matrix of independent uniform x-subsets, rows sorted.

    A full set (x == m) takes no draws.  Sparse sizes (x(x-1) <= m // 2)
    use a vectorized draw-and-redraw of the few colliding rows; larger
    sizes run :func:`_floyd_rows`, which draws what per-row
    :func:`sample_subset` would.
    """
    if x == m:
        return np.tile(np.arange(m, dtype=np.int64), (count, 1))
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
    return _floyd_rows(gen, m, x, count)


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
    # draw order: size classes ascending, actors ascending inside each
    by_size = np.argsort(sizes, kind="stable")
    hist = np.bincount(sizes)
    ends = np.cumsum(hist)
    for x in np.flatnonzero(hist[1:]) + 1:
        x = int(x)
        idx = by_size[ends[x] - hist[x] : ends[x]]
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

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge arrays (u, v) with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.vertex_count), self.degrees)
        mask = rows < self.indices
        return rows[mask], self.indices[mask]

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


def _comb_total(counts: np.ndarray, r: int) -> int:
    """Exact sum of C(c, r) over the non-negative integers ``counts``."""
    hist = np.bincount(counts)
    return sum(math.comb(int(c), r) * int(hist[c]) for c in np.flatnonzero(hist[r:]) + r)


def _actors_by_attribute(inc: Incidence) -> np.ndarray:
    """The actors holding each attribute, attribute by attribute and
    ascending inside each, from one sort of the int64 key attr * n + actor."""
    keys = inc.attrs * np.int64(inc.n)
    keys += np.repeat(np.arange(inc.n, dtype=np.int64), inc.sizes)
    keys.sort()
    return keys % inc.n


def _subset_table(length: int, t: int) -> np.ndarray:
    """The t-subsets of range(length), one per row, lexicographically."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(length), t))
    return np.fromiter(flat, dtype=np.int64, count=math.comb(length, t) * t).reshape(-1, t)


def _subset_keys(
    lens: np.ndarray, groups: np.ndarray, t: int, group_count: int, vertex_count: int
) -> np.ndarray:
    """Sorted int64 keys signature * V + v over every t-subset of every
    vertex's group list.

    Vertex v's list is the v-th run of ``groups`` (runs of length
    ``lens``, ascending inside); a subset's signature is its groups read
    as t digits in base ``group_count``.  The caller checks that
    group_count**t * V fits in int64.  Vertices are handled one list
    length at a time, each length with one index table.
    """
    offsets = np.concatenate([[0], np.cumsum(lens)])
    hist = np.bincount(lens)
    ends = np.cumsum(hist)
    by_length = np.argsort(lens, kind="stable")
    parts = [np.empty(0, np.int64)]
    for length in np.flatnonzero(hist[t:]) + t:
        vertices = by_length[ends[length] - hist[length] : ends[length]]
        rows = groups[offsets[vertices][:, None] + np.arange(length)]
        table = _subset_table(int(length), t)
        sig = rows[:, table[:, 0]]
        for j in range(1, t):
            sig *= np.int64(group_count)
            sig += rows[:, table[:, j]]
        sig *= np.int64(vertex_count)
        sig += vertices[:, None]
        parts.append(sig.ravel())
    keys = np.concatenate(parts)
    keys.sort()
    return keys


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal entries of a sorted array."""
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    return np.diff(np.append(starts, values.size))


def _edges_within(members: np.ndarray, runs: np.ndarray, vertex_count: int, threshold: int) -> Graph:
    """Graph whose edges are the member pairs formed inside at least
    ``threshold`` runs (``members`` in runs of length ``runs``, ascending
    inside each).  A run with a single member emits no pair, so it is
    dropped first; with none to drop, ``members`` is not copied."""
    shared = runs >= 2
    if not shared.all():
        members, runs = members[np.repeat(shared, runs)], runs[shared]
    left, right = group_pair_indices(runs)
    # key a * V + b with a < b; each index array is dropped once read
    keys = members[left].astype(np.int64, copy=False)
    del left
    keys *= np.int64(vertex_count)
    keys += members[right]
    del right
    keys = _threshold_pairs(keys, threshold)
    return Graph.from_edge_arrays(vertex_count, keys // vertex_count, keys % vertex_count)


def _project(kind: str, inc: Incidence, s: int, pair_cap: int) -> Graph:
    """Graph with an edge {a, b} iff the group lists of a and b share at
    least s groups, by the t-subset keying of the module docstring.

    Active: the vertices are actors and an actor's groups are its
    attributes.  Passive: the vertices are attributes and an attribute's
    groups are the actors that hold it (the transposed incidence).

    t = s is taken when s >= 2, the keys fit in int64 and the signature
    count sum C(len, s) is at most the t = 1 pair count sum C(deg, 2).
    Identical lists can still give it more within-signature pairs than
    t = 1 emits; the build then falls back to t = 1.  Every count is
    checked against ``pair_cap`` before the array it sizes is allocated.
    """
    active = kind == "active"
    attr_deg = np.bincount(inc.attrs, minlength=inc.m)
    V, G = (inc.n, inc.m) if active else (inc.m, inc.n)
    lens, group_sizes = (inc.sizes, attr_deg) if active else (attr_deg, inc.sizes)
    pair_count = _comb_total(group_sizes, 2)
    # max key G**s * V - 1 must fit in int64
    if s > 1 and G**s * V <= 2**63 and (signatures := _comb_total(lens, s)) <= pair_count:
        if signatures > pair_cap:
            raise ResourceLimitError(
                f"{kind} build needs {signatures} {s}-subset signatures (cap {pair_cap}); "
                "this regime is too dense for subset keying"
            )
        groups = inc.attrs if active else _actors_by_attribute(inc)
        sig, members = np.divmod(_subset_keys(lens, groups, s, G, V), V)
        runs = _run_lengths(sig)
        del sig
        within = _comb_total(runs, 2)
        if within <= pair_count:
            if within > pair_cap:
                raise ResourceLimitError(
                    f"{kind} build needs {within} within-signature pairs (cap {pair_cap}); "
                    "this regime is too dense for pair counting"
                )
            return _edges_within(members, runs, V, 1)
    if pair_count > pair_cap:
        raise ResourceLimitError(
            f"{kind} build needs {pair_count} within-group pairs (cap {pair_cap}); "
            "this regime is too dense for pair counting"
        )
    # t = 1: the signatures are the groups themselves; the passive groups
    # (actors) are the incidence as stored
    members = _actors_by_attribute(inc) if active else inc.attrs
    return _edges_within(members, group_sizes, V, s)


def build_active(
    inc: Incidence, s: int, pair_cap: int = PAIR_CAP_DEFAULT
) -> Graph:
    """Actor graph: edge {i, j} iff the sets share at least s attributes.

    Each actor is keyed by the t-subsets of its attribute set, t in
    {1, s} (see :func:`_project`).  Aborts with
    :class:`ResourceLimitError` when the chosen route's count exceeds
    ``pair_cap``: at t = 1 the pair count sum_w C(deg(w), 2) over
    attribute degrees; at t = s first the signature count
    sum_i C(x_i, s), then the within-signature pair count.
    """
    if not 1 <= s <= inc.m:
        raise ValueError("need 1 <= s <= m")
    return _project("active", inc, s, pair_cap)


def build_passive(
    inc: Incidence, s: int, pair_cap: int = PAIR_CAP_DEFAULT
) -> Graph:
    """Attribute graph: edge {w, w'} iff the pair lies in >= s sets.

    For s = 1 this is the union of cliques over the sets; s >= 2 counts
    multigraph link multiplicities, which is well defined even where no
    limiting theory is provided.  Each attribute is keyed by the
    t-subsets of the actors that hold it, t in {1, s} (see
    :func:`_project`); the cap counts sum_i C(x_i, 2) over set sizes at
    t = 1, and at t = s the signature count sum_w C(deg(w), s) over
    attribute degrees, then the within-signature pair count.
    """
    if not 1 <= s <= inc.n:
        raise ValueError("need 1 <= s <= n")
    return _project("passive", inc, s, pair_cap)


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
