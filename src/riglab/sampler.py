"""Random attribute sets and the graphs they induce.

Sampling draws from a counter-based (Philox) generator addressed by a
(seed, stream_id) pair, :func:`rng_stream`, so replicates are
reproducible bit for bit and independent streams can run concurrently
in any order.

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

Memory of the t = s route: the subset keys are written in place into
one sorted array, 8 B per signature, while the lists are read beside it
one slab of ``_SLAB_CELLS`` keys at a time; their signatures are then
decoded a slab at a time to find the repeats, and only the keys whose
signature repeats go on.  At the scaled example1 shape (60k sets of 6,
s = 2: 900,000 signatures, of which 43,869 repeat) the build's
tracemalloc peak is 10.5 B per signature, and 10.1 B at s = 3 (1.2 M
signatures).  Sets are drawn into the incidence a block at a time
(see :func:`_write_subsets`): a size class of consecutive actors, as
every class of a fixed-size law is, fills its rows of ``attrs`` in
place, and any other class fills a scratch block that it scatters by
index.  For 100,000 sets of 10 from m = 100 the tracemalloc peak of
:func:`sample_incidence` is 1.3 times its 9.6 MB result, and for
100,000 sets of 4 from m = 100,000 1.4 times its 4.8 MB.

Every subset is listed by one enumerator: the lists of one length are
read a slab of vertices at a time against one colex-ordered table of
index subsets.  It gives the s-subset signatures, the pairs within each
signature or group, and, through :func:`subset_keys`, the wedge keys of
stats.  Every build writes its pair keys u * V + v, u < v (V the vertex
count), into one array of the size its cap checked, and
:meth:`Graph.from_edge_arrays` thresholds them in place: the distinct
keys kept, moved to the front of the sorted array, are the
:class:`Graph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelParams

__all__ = [
    "PAIR_CAP_DEFAULT",
    "ResourceLimitError",
    "rng_stream",
    "Incidence",
    "Graph",
    "sample_subset",
    "sample_incidence",
    "build_active",
    "build_passive",
    "subset_keys",
    "write_edge_list",
]

PAIR_CAP_DEFAULT = 200_000_000
# bytes of set entries per block that the sampler draws or writes
_BLOCK_BYTES = 1 << 20
# keys that the subset enumerator fills, or that a decode reads, per slab
_SLAB_CELLS = 1 << 13
# edges formatted per string by write_edge_list
_EXPORT_BLOCK = 1 << 16


class ResourceLimitError(RuntimeError):
    """A graph build would exceed its configured resource cap."""


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Philox generator of stream ``stream_id`` of ``seed``.

    Equal addresses reproduce identical draws; distinct stream ids are
    statistically independent.
    """
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be >= 0")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


def sample_subset(m: int, x: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform x-subset of {0..m-1}, sorted ascending.

    Floyd's partial selection: exactly x draws however close x is to m
    (none when x == m), so nothing stalls in the dense regime.  This
    scalar loop is the reference that the batched draws of
    :func:`sample_incidence` reproduce row for row.
    """
    if not 0 <= x <= m:
        raise ValueError(f"need 0 <= x <= m, got x={x}, m={m}")
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


def _floyd_rows(gen: np.random.Generator, m: int, x: int, rows: np.ndarray) -> None:
    """Fill the (count, x) array ``rows`` with Floyd subsets for
    0 < x < m, each row sorted.

    Column c holds step j = m - x + c of every row, all drawn by one
    ``integers`` call, which consumes the stream as ``count`` calls of
    :func:`sample_subset` do.  Philox keeps a spare 32-bit half-draw in
    its state, so consecutive calls draw what one call over all their
    rows would.  A step takes j when its draw equals the final value of
    an earlier step in its row.  The draws are copied as one contiguous
    (x, count) array, so a step is one compare of its column with the
    columns before it: C(x, 2) compares per set.
    """
    top = m - x
    cols = gen.integers(0, np.arange(top + 1, m + 1), size=rows.shape, dtype=np.int64).T.copy()
    for c in range(1, x):
        cols[c][(cols[:c] == cols[c]).any(axis=0)] = top + c
    rows[...] = cols.T
    rows.sort(axis=1)


def _has_repeat(rows: np.ndarray) -> np.ndarray:
    """Whether each sorted row holds a value twice, one column pair at a
    time."""
    repeat = np.zeros(rows.shape[0], dtype=bool)
    for c in range(1, rows.shape[1]):
        repeat |= rows[:, c] == rows[:, c - 1]
    return repeat


def _write_subsets(
    gen: np.random.Generator, m: int, x: int, attrs: np.ndarray, offsets: np.ndarray, actors: np.ndarray
) -> None:
    """Write an independent uniform x-subset, sorted, into
    ``attrs[offsets[a] : offsets[a] + x]`` for each actor a of
    ``actors`` (ascending) in turn, ``_BLOCK_BYTES`` of rows at a time.

    Each block of rows is filled in its target: when the actors are
    consecutive ids (every class of a fixed-size law), their rows lie
    side by side in ``attrs`` and the target is a block of that
    (count, x) view; otherwise it is a block-sized scratch array,
    scattered by index into ``attrs`` once filled.  A full set (x == m)
    takes no draws.  Sparse sizes (x(x-1) <= m // 2) copy each block's
    draws in, sort them there and note the rows with a repeated value;
    after the last block those rows are redrawn, in rounds, until none
    repeats.  Every redraw thus follows all first draws, as when the
    class is drawn in one call.  Larger sizes fill each block by
    :func:`_floyd_rows`, which draws what per-row :func:`sample_subset`
    would.  Split calls consume the stream as one call would, since
    Philox keeps its spare 32-bit half-draw in its state.
    """
    count = actors.size
    block = max(1, _BLOCK_BYTES // (8 * x))
    span = np.arange(x, dtype=np.int64)
    if actors[-1] - actors[0] == count - 1:
        start = int(offsets[actors[0]])
        view = attrs[start : start + count * x].reshape(count, x)
    else:
        view, scratch = None, np.empty((min(block, count), x), dtype=np.int64)

    def write(rows, values: np.ndarray) -> None:
        # ``values`` into the class's rows ``rows``, a slice or indices
        if view is None:
            attrs[offsets[actors[rows], None] + span] = values
        else:
            view[rows] = values

    def blocks():
        # (rows, target) per block; a scratch target is scattered once filled
        for lo in range(0, count, block):
            rows = slice(lo, min(lo + block, count))
            target = scratch[: rows.stop - lo] if view is None else view[rows]
            yield rows, target
            if view is None:
                write(rows, target)

    if x == m:
        for _, target in blocks():
            target[...] = span
    elif x * (x - 1) <= m // 2:
        bad = []
        for rows, target in blocks():
            target[...] = gen.integers(0, m, size=target.shape, dtype=np.int64)
            target.sort(axis=1)
            bad.append(rows.start + np.flatnonzero(_has_repeat(target)))
        bad = np.concatenate(bad)
        while bad.size:
            redraw = gen.integers(0, m, size=(bad.size, x), dtype=np.int64)
            redraw.sort(axis=1)
            write(bad, redraw)
            bad = bad[_has_repeat(redraw)]
    else:
        for _, target in blocks():
            _floyd_rows(gen, m, x, target)


def sample_incidence(params: ModelParams, gen: np.random.Generator) -> Incidence:
    """Draw n independent attribute sets: a size from the size law, then
    a uniform subset of that size.

    Each size class is drawn straight into ``attrs`` a block at a time
    (see :func:`_write_subsets`), so beside the result and the sets'
    draw order (8 B per set) only one block of draws is live (two on
    the Floyd route), and for a class of scattered actors a scratch
    block and its positions.
    """
    n, m, dist = params.n, params.m, params.size_dist
    support = dist.support
    if support.size == 0:
        raise ValueError("size distribution has empty support")
    probs = dist.probs[support]
    probs = probs / probs.sum()
    sizes = gen.choice(support, size=n, p=probs).astype(np.int64, copy=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    attrs = np.empty(int(offsets[-1]), dtype=np.int64)
    # draw order: size classes ascending, actors ascending inside each
    by_size = np.argsort(sizes, kind="stable")
    hist = np.bincount(sizes)
    ends = np.cumsum(hist)
    for x in np.flatnonzero(hist[1:]) + 1:
        x = int(x)
        _write_subsets(gen, m, x, attrs, offsets, by_size[ends[x] - hist[x] : ends[x]])
    return Incidence(m=m, sizes=sizes, offsets=offsets, attrs=attrs)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph as its sorted edge keys.

    Edge {u, v}, u < v, is the int64 key u * V + v (V the vertex count);
    ``keys`` holds each edge once, strictly increasing.  ``degrees`` is
    counted from the keys on first read.
    Graphs compare by value and are unhashable.
    """

    vertex_count: int
    keys: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(self.keys, other.keys)

    @cached_property
    def degrees(self) -> np.ndarray:
        # both ends of one slab of keys at a time: beside the result one
        # slab-sized temporary, and O(slab) work per slab
        V = np.int64(self.vertex_count)
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        for lo in range(0, self.keys.size, _SLAB_CELLS):
            keys = self.keys[lo : lo + _SLAB_CELLS]
            np.add.at(deg, keys // V, 1)
            np.add.at(deg, keys % V, 1)
        return deg

    @property
    def edge_count(self) -> int:
        return self.keys.size

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge arrays (u, v) with u < v, lexicographically sorted."""
        return np.divmod(self.keys, np.int64(self.vertex_count))

    @staticmethod
    def from_edge_arrays(vertex_count: int, keys: np.ndarray, threshold: int = 1) -> "Graph":
        """Graph of the edges whose key u * V + v, u < v, occurs at least
        ``threshold`` times in ``keys``, in any order (sorted in place).

        After the sort, a key occurs at least t = ``threshold`` times iff
        its run starts at some i with keys[i] == keys[i + t - 1].  The
        distinct keys kept are moved to the front of ``keys`` one slab of
        ``_SLAB_CELLS`` run starts at a time; a slab reads only keys at
        or after the last one written, since a slab of i run starts
        writes at most i keys.  So beside ``keys`` only a slab's masks
        and kept keys are live.  The graph holds the front of ``keys``
        as it stands, or a copy when fewer than half the keys are kept,
        so that a dropped majority is not kept alive through it.
        """
        keys.sort()
        t = threshold
        kept = 0
        for lo in range(0, keys.size - t + 1, _SLAB_CELLS):
            hi = min(lo + _SLAB_CELLS, keys.size - t + 1)
            keep = keys[lo + t - 1 : hi + t - 1] == keys[lo:hi]
            # ... and keys[i] != keys[i - 1], for i > 0
            first = max(lo, 1)
            keep[first - lo :] &= keys[first:hi] != keys[first - 1 : hi - 1]
            hit = keys[lo:hi][keep]
            keys[kept : kept + hit.size] = hit
            kept += hit.size
        return Graph(vertex_count, keys[:kept].copy() if 2 * kept < keys.size else keys[:kept])

    @staticmethod
    def empty(vertex_count: int) -> "Graph":
        return Graph(vertex_count, np.empty(0, dtype=np.int64))


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


def _subset_table(size: int, t: int) -> np.ndarray:
    """(t, C(size, t)) table of the t-subsets of range(size), one per
    column, ascending down it, in colex order: for every l <= size the
    first C(l, t) columns are the t-subsets of range(l).  Each row is one
    contiguous index array for ``np.take``."""
    table = np.arange(size, dtype=np.int64)[None, :]
    for j in range(1, t):
        # the (j + 1)-subsets topped by c: the first C(c, j) columns, then c
        counts = [math.comb(c, j) for c in range(size)]
        below = np.concatenate([table[:, :0]] + [table[:, :k] for k in counts], axis=1)
        table = np.vstack([below, np.repeat(np.arange(size, dtype=np.int64), counts)])
    return table


def _index_dtype(limit: int) -> type:
    """The narrower integer type that holds every index in [0, limit)."""
    return np.int32 if limit <= 2**31 else np.int64


def _subset_rows(
    lens: np.ndarray, values: np.ndarray, t: int, base: int, vertex_count: int | None = None
) -> np.ndarray:
    """Every t-subset of every list, read as t digits in base ``base``,
    the first list entry the most significant, and then, if
    ``vertex_count`` is given, times it plus the list's vertex.

    Vertex v's list is the v-th run of ``values`` (runs of length
    ``lens``).  The lists of length l >= t, ascending l and ascending
    vertex inside each l, are taken in slabs of at most
    ``_SLAB_CELLS`` keys (at least one list), and each slab of k lists
    is the next (C(l, t), k) block of the result: column j holds the
    j-th list's t-subsets in colex order.  A slab's lists are gathered
    as (l, k) int64 rows, entry i of every list in row i, and one
    :func:`_subset_table` serves every length: the first digit is taken
    into the block, which is then multiplied by ``base`` and given each
    later digit through one slab-sized temporary.

    The vertices are placed by length, and their list starts counted,
    before the result is allocated, each in the narrower integer type
    that holds it.  So beside the result the transients are these two
    vertex-sized arrays and O(t * ``_SLAB_CELLS``), or one list's
    C(l, t) keys when those exceed the slab.
    """
    hist = np.bincount(lens)
    listed = np.flatnonzero(lens >= t)
    # a stable sort of 16-bit keys is numpy's counting (radix) sort
    order = np.argsort(lens[listed].astype(np.uint16 if hist.size <= 2**16 else np.int64), kind="stable")
    by_length = listed[order].astype(_index_dtype(lens.size))
    del listed, order  # freed before the keys are allocated
    ends = np.cumsum(hist) - int(hist[:t].sum())
    offsets = np.zeros(lens.size + 1, dtype=_index_dtype(values.size + 1))
    np.cumsum(lens, out=offsets[1:])
    table = _subset_table(hist.size - 1, t)
    out = np.empty(_comb_total(lens, t), dtype=np.int64)
    at = 0
    for length in np.flatnonzero(hist[t:]) + t:
        vertices = by_length[ends[length] - hist[length] : ends[length]]
        cols = table[:, : math.comb(int(length), t)]
        entries = np.arange(length)[:, None]
        step = max(1, _SLAB_CELLS // cols.shape[1])
        for lo in range(0, vertices.size, step):
            slab = vertices[lo : lo + step]
            rows = values[entries + offsets[slab]].astype(np.int64, copy=False)
            block = out[at : at + cols.shape[1] * slab.size].reshape(-1, slab.size)
            at += block.size
            # mode "raise" would buffer the output; the table's indices are in range
            np.take(rows, cols[0], axis=0, out=block, mode="clip")
            for j in range(1, t):
                block *= np.int64(base)
                block += np.take(rows, cols[j], axis=0)
            if vertex_count is not None:
                block *= np.int64(vertex_count)
                block += slab
    return out


def subset_keys(
    lens: np.ndarray, groups: np.ndarray, t: int, group_count: int, vertex_count: int
) -> np.ndarray:
    """Sorted int64 keys signature * V + v over every t-subset of every
    vertex's group list.

    Vertex v's list is the v-th run of ``groups`` (runs of length
    ``lens``, ascending inside); a subset's signature is its groups read
    as t digits in base ``group_count`` (see :func:`_subset_rows`).  The
    caller checks that group_count**t * V fits in int64.

    The keys are written straight into the result (8 B per key) a slab
    at a time, then sorted in place.  Beside the result the transients
    are the two vertex-sized arrays of :func:`_subset_rows`, one slab's
    lists as rows and one slab of keys.  For 60k lists of 6 the
    tracemalloc peak is 7.8 MB at t = 2 (900,000 keys, 8.7 B per key)
    and 10.2 MB at t = 3 (1.2 M keys, 8.5 B per key).
    """
    keys = _subset_rows(lens, groups, t, group_count, vertex_count)
    keys.sort()
    return keys


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal entries of a sorted array."""
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    return np.diff(np.append(starts, values.size))


def _shared_signatures(keys: np.ndarray, vertex_count: int) -> np.ndarray:
    """The sorted keys signature * V + v whose signature another key
    shares, in order.  Signatures are decoded ``_SLAB_CELLS`` keys at a
    time, so beside the keys only 2 B per key are live."""
    same = np.empty(max(keys.size - 1, 0), dtype=bool)
    for lo in range(0, same.size, _SLAB_CELLS):
        sig = keys[lo : lo + _SLAB_CELLS + 1] // np.int64(vertex_count)
        np.equal(sig[1:], sig[:-1], out=same[lo : lo + _SLAB_CELLS])
    shared = np.zeros(keys.size, dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    return keys[shared]


def _edges_within(members: np.ndarray, runs: np.ndarray, vertex_count: int, threshold: int) -> Graph:
    """Graph whose edges are the member pairs formed inside at least
    ``threshold`` runs (``members`` in runs of length ``runs``, ascending
    inside each): the sum C(run, 2) 2-subsets of the runs, read in base
    V, are the edge keys a * V + b, a < b, written into one array."""
    return Graph.from_edge_arrays(vertex_count, _subset_rows(runs, members, 2, vertex_count), threshold)


def _check_cap(kind: str, count: int, what: str, pair_cap: int, method: str) -> None:
    """Abort a build whose ``count`` of ``what`` exceeds ``pair_cap``."""
    if count > pair_cap:
        raise ResourceLimitError(
            f"{kind} build needs {count} {what} (cap {pair_cap}); "
            f"this regime is too dense for {method}"
        )


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

    At t = s the transients are those of :func:`subset_keys`, then the
    sorted keys, 8 B per signature, and 2 B more for the repeat masks of
    :func:`_shared_signatures`, which decodes one slab of signatures at a
    time; the members, runs and pairs are sized by the repeated
    signatures alone.  The peak, 10.5 B per signature at the scaled
    example1 shape (10.1 B at s = 3), falls in
    :func:`_shared_signatures`.  Either route's pair keys are one array,
    8 B per checked pair, which the threshold compacts in place a slab
    at a time: at the example2 shape (10.7 M pairs at t = 1) the peak
    is 1.09 times the keys.
    """
    active = kind == "active"
    attr_deg = np.bincount(inc.attrs, minlength=inc.m)
    V, G = (inc.n, inc.m) if active else (inc.m, inc.n)
    lens, group_sizes = (inc.sizes, attr_deg) if active else (attr_deg, inc.sizes)
    pair_count = _comb_total(group_sizes, 2)
    # max key G**s * V - 1 must fit in int64
    if s > 1 and G**s * V <= 2**63 and (signatures := _comb_total(lens, s)) <= pair_count:
        _check_cap(kind, signatures, f"{s}-subset signatures", pair_cap, "subset keying")
        groups = inc.attrs if active else _actors_by_attribute(inc)
        keys = subset_keys(lens, groups, s, G, V)
        # a signature held once forms no pair: keep only the repeated ones
        sig, members = np.divmod(_shared_signatures(keys, V), V)
        del keys
        runs = _run_lengths(sig)
        within = _comb_total(runs, 2)
        if within <= pair_count:
            _check_cap(kind, within, "within-signature pairs", pair_cap, "pair counting")
            return _edges_within(members, runs, V, 1)
    _check_cap(kind, pair_count, "within-group pairs", pair_cap, "pair counting")
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
    ``u v`` pair per line with u < v, formatted ``_EXPORT_BLOCK`` at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# rig-lab graph kind={kind} n={n} m={m} s={s} seed={seed}\n")
        for lo in range(0, graph.edge_count, _EXPORT_BLOCK):
            pairs = np.divmod(graph.keys[lo : lo + _EXPORT_BLOCK], np.int64(graph.vertex_count))
            fh.write("%d %d\n" * pairs[0].size % tuple(np.stack(pairs, axis=1).ravel().tolist()))
