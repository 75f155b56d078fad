"""Random set sampling and graph construction."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riglab import oracle, sampler
from riglab.cli import PRESETS, preset_config
from riglab.model import Degenerate, ModelParams, Table, make_size_dist
from riglab.sampler import (
    Graph,
    Incidence,
    ResourceLimitError,
    build_active,
    build_passive,
    rng_stream,
    sample_incidence,
    sample_subset,
    write_edge_list,
)

from fanout import group_pair_indices


def brute_force_active(inc, s):
    """Quadratic comparator: sorted-merge intersection of every pair."""
    edges = set()
    sets = [set(members(inc, i).tolist()) for i in range(inc.n)]
    for i, j in itertools.combinations(range(inc.n), 2):
        if len(sets[i] & sets[j]) >= s:
            edges.add((i, j))
    return edges


def brute_force_passive(inc, s):
    """Exhaustive pair-count over all attribute pairs."""
    edges = set()
    sets = [set(members(inc, i).tolist()) for i in range(inc.n)]
    for w1, w2 in itertools.combinations(range(inc.m), 2):
        covering = sum(1 for d in sets if w1 in d and w2 in d)
        if covering >= s:
            edges.add((w1, w2))
    return edges


def members(inc, i):
    """The sorted attribute set of actor i."""
    return inc.attrs[inc.offsets[i] : inc.offsets[i + 1]]


def adjacency(graph):
    """Neighbour list of every vertex, read off the lexsort CSR."""
    indptr, indices = lexsort_csr(graph.vertex_count, *graph.edges())
    return [indices[indptr[v] : indptr[v + 1]] for v in range(graph.vertex_count)]


def has_edge(graph, u, v):
    """Whether v is in u's sorted neighbour list."""
    nb = adjacency(graph)[u]
    i = np.searchsorted(nb, v)
    return bool(i < nb.size and nb[i] == v)


def check_keys(graph):
    """The key invariant: int64 keys u * V + v, strictly increasing, with
    0 <= u < v < V."""
    keys = graph.keys
    assert keys.dtype == np.int64
    assert np.all(np.diff(keys) > 0), "keys not strictly increasing"
    u, v = np.divmod(keys, np.int64(graph.vertex_count))
    assert np.all(u >= 0) and np.all(u < v) and np.all(v < graph.vertex_count)


def validate(graph):
    """Check the key invariant, which rules out self-loops and repeated
    edges, and the degrees against the keys."""
    check_keys(graph)
    counted = np.bincount(np.concatenate(graph.edges()), minlength=graph.vertex_count)
    assert graph.degrees.dtype == counted.dtype and np.array_equal(graph.degrees, counted)


def edge_set(graph):
    u, v = graph.edges()
    return set(zip(u.tolist(), v.tolist()))


def pair_count_reference(kind, inc, s):
    """The co-occurrence route: group the incidence by the other side
    (stable argsort), emit every within-group pair and keep the pairs
    formed at least s times."""
    if kind == "active":
        order = np.argsort(inc.attrs, kind="stable")
        members = np.repeat(np.arange(inc.n, dtype=np.int64), inc.sizes)[order]
        sizes, width = np.bincount(inc.attrs, minlength=inc.m), inc.n
    else:
        members, sizes, width = inc.attrs, inc.sizes, inc.m
    left, right = group_pair_indices(sizes)
    keys, counts = np.unique(members[left] * width + members[right], return_counts=True)
    keys = keys[counts >= s]
    return Graph(width, keys)


def assert_same_graph(got, want):
    check_keys(got)
    assert got == want


def write_edge_list_by_line(graph, path, *, kind, n, m, s, seed):
    """Reference export: the header, then one formatted line per edge."""
    u, v = graph.edges()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# rig-lab graph kind={kind} n={n} m={m} s={s} seed={seed}\n")
        for a, b in zip(u.tolist(), v.tolist()):
            fh.write(f"{a} {b}\n")


def assert_same_export(graph, tmp_path, **meta):
    """The export and the line-per-edge reference write the same bytes."""
    write_edge_list(graph, tmp_path / "fast.txt", **meta)
    write_edge_list_by_line(graph, tmp_path / "ref.txt", **meta)
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


@st.composite
def edge_sets(draw):
    """(V, u, v): a unique edge set u < v on V <= 12 vertices, in random
    order."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = np.array(draw(st.permutations(chosen)), dtype=np.int64).reshape(-1, 2)
    return n, edges[:, 0], edges[:, 1]


def graph_from_ends(vertex_count, u, v):
    """Graph of the unique edges u < v, given as their ends in any order."""
    return Graph.from_edge_arrays(vertex_count, np.asarray(u, np.int64) * vertex_count + v)


def lexsort_csr(vertex_count, u, v):
    """Reference CSR: both edge directions ordered by (row, col) with
    np.lexsort."""
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=vertex_count)
    return np.concatenate([[0], np.cumsum(counts)]), cols[order]


class TestRngStream:
    def test_identical_addresses_reproduce(self):
        a = rng_stream(99, 4).integers(0, 1 << 30, 64)
        b = rng_stream(99, 4).integers(0, 1 << 30, 64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_stream(99, 0).integers(0, 1 << 30, 64)
        b = rng_stream(99, 1).integers(0, 1 << 30, 64)
        assert not np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rng_stream(-1, 0)
        with pytest.raises(ValueError):
            rng_stream(0, -1)

    def test_is_a_philox_generator_at_its_address(self):
        gen = rng_stream(99, 4)
        assert isinstance(gen.bit_generator, np.random.Philox)
        assert gen.bit_generator.seed_seq.entropy == 99
        assert gen.bit_generator.seed_seq.spawn_key == (4,)


class TestSampleSubset:
    def test_edges_of_domain(self):
        rng = rng_stream(0)
        assert sample_subset(5, 0, rng).size == 0
        assert np.array_equal(sample_subset(5, 5, rng), np.arange(5))
        with pytest.raises(ValueError):
            sample_subset(5, 6, rng)

    def test_sorted_distinct(self):
        rng = rng_stream(1)
        for _ in range(200):
            out = sample_subset(20, 7, rng)
            assert out.size == 7
            assert np.all(np.diff(out) > 0)
            assert out[0] >= 0 and out[-1] < 20

    def test_all_subsets_equally_likely(self):
        """Chi-square on the 10 possible 2-subsets of {0..4}."""
        rng = rng_stream(7)
        counts = {}
        draws = 20_000
        for _ in range(draws):
            key = tuple(sample_subset(5, 2, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        expected = draws / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 27.9  # 99.9% quantile, 9 dof

    def test_inclusion_frequency_direct(self):
        gen = rng_stream(3)
        draws = 100_000
        hits = np.zeros(100)
        for _ in range(draws):
            hits[sample_subset(100, 10, gen)] += 1
        freq = hits / draws
        np.testing.assert_allclose(freq, 0.10, atol=0.004)  # > 4 sigma


@st.composite
def dense_shapes(draw):
    """(m, x, count, block_rows) on the dense route, x(x-1) > m // 2, with
    x up to m; blocks of 1-4 rows, so most counts cross a block edge."""
    m = draw(st.integers(2, 300))
    x_min = next(x for x in range(2, m + 1) if x * (x - 1) > m // 2)
    return m, draw(st.integers(x_min, m)), draw(st.integers(1, 12)), draw(st.integers(1, 4))


@st.composite
def sparse_shapes(draw):
    """(m, x, count, block_rows) on the redraw route, 0 < x < m and
    x(x-1) <= m // 2, with m small enough that many rows repeat a value;
    blocks of 1-4 rows."""
    m = draw(st.integers(2, 60))
    x_max = max(x for x in range(1, m) if x * (x - 1) <= m // 2)
    return m, draw(st.integers(1, x_max)), draw(st.integers(1, 12)), draw(st.integers(1, 4))


def assert_same_position(gen, twin):
    """The two generators stand at the same place of their stream,
    spare 32-bit half-draw included."""
    assert repr(gen.bit_generator.state) == repr(twin.bit_generator.state)


def written_rows(gen, m, x, count):
    """The rows :func:`sampler._write_subsets` writes for ``count``
    actors laid out in reverse, read back in draw order: their ids are
    not consecutive, so each block is filled in scratch and scattered
    by index."""
    offsets = np.arange(count + 1, dtype=np.int64) * x
    actors = np.arange(count)[::-1]
    attrs = np.full(count * x, -1, dtype=np.int64)
    sampler._write_subsets(gen, m, x, attrs, offsets, actors)
    return attrs.reshape(count, x)[actors]


def consecutive_rows(gen, m, x, count):
    """Twin of :func:`written_rows` whose actors are the consecutive ids
    1..count, between two actors of size 1, so each block is filled in
    place in a view of their rows; the rows of the two others stay
    unwritten."""
    offsets = np.concatenate([[0], 1 + np.arange(count + 1, dtype=np.int64) * x, [2 + count * x]])
    attrs = np.full(2 + count * x, -1, dtype=np.int64)
    sampler._write_subsets(gen, m, x, attrs, offsets, np.arange(1, count + 1))
    assert attrs[0] == attrs[-1] == -1
    return attrs[1:-1].reshape(count, x)


def floyd_blocks(gen, m, x, count):
    """:func:`sampler._floyd_rows` called once per block of rows, as
    :func:`sampler._write_subsets` calls it, each block filled in place."""
    block = max(1, sampler._BLOCK_BYTES // (8 * x))
    rows = np.full((count, x), -1, dtype=np.int64)
    for lo in range(0, count, block):
        sampler._floyd_rows(gen, m, x, rows[lo : lo + block])
    return rows


def scalar_rows(gen, m, x, count):
    """``count`` rows of :func:`sample_subset`, stacked."""
    return np.stack([sample_subset(m, x, gen) for _ in range(count)])


def whole_class_rows(gen, m, x, count):
    """Reference rows of one size class drawn whole: each route by one
    call over all its rows, the redraw route's repeats found by
    ``np.diff``, Floyd's rule applied row by row to one call's draws."""
    if x == m:
        return np.tile(np.arange(m, dtype=np.int64), (count, 1))
    if x * (x - 1) <= m // 2:
        rows = np.sort(gen.integers(0, m, size=(count, x), dtype=np.int64), axis=1)
        bad = np.flatnonzero((np.diff(rows, axis=1) == 0).any(axis=1))
        while bad.size:
            redraw = np.sort(gen.integers(0, m, size=(bad.size, x), dtype=np.int64), axis=1)
            rows[bad] = redraw
            bad = bad[(np.diff(redraw, axis=1) == 0).any(axis=1)]
        return rows
    draws = gen.integers(0, np.arange(m - x + 1, m + 1), size=(count, x), dtype=np.int64)
    rows = np.empty_like(draws)
    for i, row in enumerate(draws.tolist()):
        chosen = set()
        for j, t in enumerate(row, start=m - x):
            chosen.add(j if t in chosen else t)
        rows[i] = sorted(chosen)
    return rows


def assert_matches(draw, reference, m, x, count, block_rows, seed):
    """``draw``, with blocks of ``block_rows`` rows, gives row for row
    the rows ``reference`` draws from a twin generator, and leaves it
    where ``reference`` leaves the twin."""
    gen, twin = rng_stream(seed), rng_stream(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_BLOCK_BYTES", 8 * x * block_rows)
        rows = draw(gen, m, x, count)
    want = reference(twin, m, x, count)
    assert rows.dtype == want.dtype and np.array_equal(rows, want)
    assert_same_position(gen, twin)
    assert gen.integers(2**63 - 1) == twin.integers(2**63 - 1)


def assert_matches_scalar(draw, m, x, count, block_rows, seed):
    """:func:`assert_matches` against per-row :func:`sample_subset`."""
    assert_matches(draw, scalar_rows, m, x, count, block_rows, seed)


def whole_class_incidence(params, gen):
    """Reference sampler: each size class drawn whole by
    :func:`whole_class_rows` and scattered into ``attrs`` through one
    index."""
    n, m, dist = params.n, params.m, params.size_dist
    probs = dist.probs[dist.support]
    sizes = gen.choice(dist.support, size=n, p=probs / probs.sum()).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    attrs = np.empty(int(offsets[-1]), dtype=np.int64)
    by_size = np.argsort(sizes, kind="stable")
    for x in np.unique(sizes[sizes > 0]).tolist():
        idx = by_size[sizes[by_size] == x]
        rows = whole_class_rows(gen, m, x, idx.size)
        attrs[(offsets[idx][:, None] + np.arange(x)).ravel()] = rows.ravel()
    return Incidence(m=m, sizes=sizes, offsets=offsets, attrs=attrs)


@st.composite
def mixed_laws(draw):
    """(params, block_bytes): a table size law over up to five sizes in
    [0, m], so redraw, Floyd and full-set classes hold interleaved
    actors, and a block size that gives every class blocks of 1-4
    rows."""
    m = draw(st.integers(1, 40))
    support = draw(st.lists(st.integers(0, m), min_size=1, max_size=5, unique=True))
    weights = [0.0] * (max(support) + 1)
    for x in support:
        weights[x] = float(draw(st.integers(1, 4)))
    params = ModelParams(n=draw(st.integers(1, 40)), m=m, s=1, size_dist=make_size_dist(Table(weights), m))
    x_min = min([x for x in support if x > 0], default=1)
    return params, draw(st.integers(1, 32 * x_min))


def incidence_bytes(inc):
    return inc.attrs.nbytes + inc.sizes.nbytes + inc.offsets.nbytes


def sampling_peak(params):
    """(incidence, tracemalloc peak) of one :func:`sample_incidence` call,
    its generator made before tracing (a process's first one allocates
    a one-off 0.7 MB)."""
    gen = rng_stream(0)
    tracemalloc.start()
    try:
        inc = sample_incidence(params, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return inc, peak


def assert_subset_rows_layout(lists, t, base=12):
    """``_subset_rows`` takes the lists of length l >= t, ascending l and
    ascending vertex inside each l, in slabs of at most ``_SLAB_CELLS``
    keys (at least one list), and writes each slab of k lists as the
    next (C(l, t), k) block: column j holds the j-th list's t-subsets in
    colex order, read as t digits in ``base``, and then, when a vertex
    count V is given, times V plus the list's vertex."""
    lens = np.array([len(a) for a in lists], dtype=np.int64)
    values = np.array([g for a in lists for g in a], dtype=np.int64)
    vertex_count = max(len(lists), 1)
    want = []  # (subset read in base, vertex) in the written order
    for length in sorted({len(a) for a in lists if len(a) >= t}):
        vertices = [v for v, a in enumerate(lists) if len(a) == length]
        step = max(1, sampler._SLAB_CELLS // math.comb(length, t))
        for lo in range(0, len(vertices), step):
            slab = vertices[lo : lo + step]
            colex = [sorted(itertools.combinations(lists[v], t), key=lambda c: c[::-1]) for v in slab]
            for row in range(math.comb(length, t)):
                for v, subsets in zip(slab, colex):
                    want.append((sum(d * base ** (t - 1 - i) for i, d in enumerate(subsets[row])), v))
    got = sampler._subset_rows(lens, values, t, base)
    assert got.dtype == np.int64 and got.tolist() == [sig for sig, _ in want]
    keyed = sampler._subset_rows(lens, values, t, base, vertex_count)
    assert keyed.dtype == np.int64 and keyed.tolist() == [sig * vertex_count + v for sig, v in want]


class TestBatchedFloyd:
    """The batched Floyd route against the scalar reference."""

    @settings(deadline=None, max_examples=200)
    @given(shape=dense_shapes(), seed=st.integers(0, 2**32))
    @example(shape=(7, 7, 5, 1), seed=0)  # full sets take no draws
    @example(shape=(100, 10, 9, 4), seed=1)  # blocks of 4, 4 and 1 rows
    # m above 2**32: 64-bit bounds, and the smallest dense x there
    @example(shape=(2**32 + 1000, 46342, 2, 1), seed=2)
    def test_dense_route_matches_scalar(self, shape, seed):
        """Full sets and Floyd rows, written through scratch blocks and
        in place, match per-row :func:`sample_subset`."""
        m, x, count, block_rows = shape
        assert x * (x - 1) > m // 2
        for layout in (written_rows, consecutive_rows):
            assert_matches_scalar(layout, m, x, count, block_rows, seed)

    @settings(deadline=None, max_examples=200)
    @given(shape=sparse_shapes(), seed=st.integers(0, 2**32))
    # rows 7 and 8 repeat a value, in two blocks of 2 rows, and a redraw
    # repeats one again
    @example(shape=(12, 3, 9, 2), seed=1)
    def test_sparse_route_matches_whole_class(self, shape, seed):
        """Sparse rows, written through scratch blocks and in place, with
        their repeats redrawn after the last block, match the class drawn
        whole."""
        m, x, count, block_rows = shape
        assert x * (x - 1) <= m // 2 and x < m
        for layout in (written_rows, consecutive_rows):
            assert_matches(layout, whole_class_rows, m, x, count, block_rows, seed)

    @settings(deadline=None, max_examples=100)
    @given(
        m=st.integers(2**32 + 1, 2**62),
        x=st.integers(2, 30),
        count=st.integers(1, 10),
        block_rows=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_wide_bounds_match_scalar(self, m, x, count, block_rows, seed):
        """Bounds above 2**32 draw 64-bit words where smaller ones draw
        32-bit halves; the Floyd blocks must consume the stream alike."""
        assert_matches_scalar(floyd_blocks, m, x, count, block_rows, seed)

    def test_dense_sets_memory_stays_within_a_block_of_the_result(self):
        """100,000 sets of 10 from m = 100, consecutive actors, written
        into a preallocated incidence: each block is filled in place in
        its rows, with no positions array, so beside the incidence the
        temporaries are one block of draws, its copy as columns and one
        column compare, and the tracemalloc peak stays under 2.4 blocks.
        Drawing the class whole before writing it exceeds that."""
        m, x, count = 100, 10, 100_000
        offsets = np.arange(count + 1, dtype=np.int64) * x
        attrs = np.empty(count * x, dtype=np.int64)
        actors = np.arange(count)
        gen = rng_stream(0)
        tracemalloc.start()
        try:
            sampler._write_subsets(gen, m, x, attrs, offsets, actors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count * x * 8 > 7 * sampler._BLOCK_BYTES
        assert peak < 2.4 * sampler._BLOCK_BYTES


class TestSampleIncidence:
    def make_params(self, n=10_000, m=100, weights=(0, 0.5, 0, 0.5)):
        return ModelParams(
            n=n, m=m, s=1, size_dist=make_size_dist(Table(list(weights)), m)
        )

    def test_empty_and_full(self):
        p = ModelParams(n=3, m=5, s=1, size_dist=make_size_dist(Degenerate(0), 5))
        inc = sample_incidence(p, rng_stream(0))
        assert all(members(inc, i).size == 0 for i in range(3))
        p = ModelParams(n=1, m=5, s=1, size_dist=make_size_dist(Degenerate(5), 5))
        inc = sample_incidence(p, rng_stream(0))
        assert np.array_equal(members(inc, 0), np.arange(5))

    def test_sets_sorted_distinct_in_range(self):
        p = self.make_params(n=500, weights=(0.1, 0.2, 0.3, 0.2, 0.2))
        inc = sample_incidence(p, rng_stream(5))
        for i in range(inc.n):
            row = members(inc, i)
            assert np.all(np.diff(row) > 0) if row.size > 1 else True
            if row.size:
                assert 0 <= row[0] and row[-1] < inc.m

    def test_size_histogram_chi_square(self):
        """Observed sizes against P at the 99% chi-square level."""
        p = self.make_params(n=10_000, weights=(0, 0.5, 0, 0.5))
        inc = sample_incidence(p, rng_stream(11))
        n1 = int((inc.sizes == 1).sum())
        n3 = int((inc.sizes == 3).sum())
        assert n1 + n3 == 10_000
        chi2 = (n1 - 5000) ** 2 / 5000 + (n3 - 5000) ** 2 / 5000
        assert chi2 < 6.63  # 99% quantile, 1 dof

    def test_inclusion_frequency_batched(self):
        # million-draw inclusion check through the batched path
        p = ModelParams(
            n=1_000_000, m=100, s=1, size_dist=make_size_dist(Degenerate(10), 100)
        )
        inc = sample_incidence(p, rng_stream(13))
        freq = np.bincount(inc.attrs, minlength=100) / 1_000_000
        np.testing.assert_allclose(freq, 0.10, atol=0.003)

    def test_deterministic(self):
        p = self.make_params(n=300)
        a = sample_incidence(p, rng_stream(17, 2))
        b = sample_incidence(p, rng_stream(17, 2))
        assert np.array_equal(a.attrs, b.attrs) and np.array_equal(a.sizes, b.sizes)

    def test_large_sizes_take_partial_selection_path(self, monkeypatch):
        # x(x-1) > m // 2: all 40 rows go through one batched Floyd call
        calls = []
        floyd_rows = sampler._floyd_rows

        def spy(gen, m, x, rows):
            calls.append((m, x, rows.shape[0]))
            floyd_rows(gen, m, x, rows)

        monkeypatch.setattr(sampler, "_floyd_rows", spy)
        p = ModelParams(
            n=40, m=30, s=1, size_dist=make_size_dist(Degenerate(25), 30)
        )
        inc = sample_incidence(p, rng_stream(23))
        assert calls == [(30, 25, 40)]
        for i in range(inc.n):
            row = members(inc, i)
            assert row.size == 25 and np.all(np.diff(row) > 0)

    @settings(deadline=None, max_examples=200)
    @given(law=mixed_laws(), seed=st.integers(0, 2**32))
    # x = 1 and 2 redraw, 4 and 5 take Floyd, 12 is full
    @example(law=(ModelParams(n=40, m=12, s=1, size_dist=make_size_dist(Table([1, 1, 1, 0, 1, 1] + [0] * 6 + [1]), 12)), 8), seed=0)
    def test_blocks_match_whole_classes(self, law, seed):
        """Under blocks of 1-4 rows, every class is drawn and written as
        when it is drawn whole, and the stream ends in the same place."""
        params, block_bytes = law
        gen, twin = rng_stream(seed), rng_stream(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_BLOCK_BYTES", block_bytes)
            inc = sample_incidence(params, gen)
        want = whole_class_incidence(params, twin)
        assert np.array_equal(inc.sizes, want.sizes) and np.array_equal(inc.offsets, want.offsets)
        assert inc.attrs.dtype == want.attrs.dtype and np.array_equal(inc.attrs, want.attrs)
        assert_same_position(gen, twin)

    def test_dense_sets_memory_stays_near_the_incidence(self):
        """100,000 sets of 10 from m = 100 take the Floyd route: beside
        the incidence only a block and the sets' draw order are live, so
        the tracemalloc peak stays under 1.75 times the incidence.  Three
        full copies of the sets (rows, their index and the incidence)
        read 2.9 times."""
        p = ModelParams(n=100_000, m=100, s=1, size_dist=make_size_dist(Degenerate(10), 100))
        inc, peak = sampling_peak(p)
        assert peak < 1.75 * incidence_bytes(inc)

    def test_sparse_sets_memory_stays_near_the_incidence(self):
        """100,000 sets of 4 from m = 100,000 take the redraw route: the
        first draws are made and written a block at a time and only the
        rows with a repeat are redrawn after them, so the tracemalloc
        peak stays under 1.9 times the incidence.  Drawing the class
        whole reads 2.1 times, and adding a full-size index and a sorted
        copy 2.7."""
        p = ModelParams(n=100_000, m=100_000, s=1, size_dist=make_size_dist(Degenerate(4), 100_000))
        inc, peak = sampling_peak(p)
        assert peak < 1.9 * incidence_bytes(inc)


class TestBuildActive:
    def test_spec_examples(self):
        inc = Incidence.from_sets(4, [[0, 1], [1, 2], [3]])
        assert edge_set(build_active(inc, 1)) == {(0, 1)}
        assert edge_set(build_active(inc, 2)) == set()

    def test_matches_brute_force(self):
        rng = rng_stream(31)
        for trial in range(8):
            n = int(rng.integers(5, 120))
            p = ModelParams(
                n=n,
                m=25,
                s=1,
                size_dist=make_size_dist(Table([0.1, 0.3, 0.3, 0.2, 0.1]), 25),
            )
            inc = sample_incidence(p, rng_stream(31, trial + 1))
            for s in (1, 2, 3):
                got = edge_set(build_active(inc, s))
                assert got == brute_force_active(inc, s)

    def test_threshold_monotone(self):
        p = ModelParams(
            n=80, m=20, s=1, size_dist=make_size_dist(Table([0, 0, 0.5, 0, 0.5]), 20)
        )
        inc = sample_incidence(p, rng_stream(37))
        prev = edge_set(build_active(inc, 1))
        for s in (2, 3, 4):
            cur = edge_set(build_active(inc, s))
            assert cur <= prev
            prev = cur

    def test_invariants_hold(self):
        p = ModelParams(
            n=200, m=40, s=2, size_dist=make_size_dist(Degenerate(4), 40)
        )
        g = build_active(sample_incidence(p, rng_stream(41)), 2)
        validate(g)

    def test_determinism_bit_identical(self):
        p = ModelParams(n=150, m=30, s=1, size_dist=make_size_dist(Degenerate(3), 30))
        g1 = build_active(sample_incidence(p, rng_stream(43, 9)), 1)
        g2 = build_active(sample_incidence(p, rng_stream(43, 9)), 1)
        assert g1 == g2

    def test_pair_cap_aborts(self):
        inc = Incidence.from_sets(3, [[0, 1, 2]] * 40)
        with pytest.raises(ResourceLimitError, match="active build needs 2340 .*pair"):
            build_active(inc, 1, pair_cap=100)

    def test_edge_frequency_matches_exact_tail(self):
        """Edge indicator between two fixed vertices across replicates
        stays inside a 4-sigma band of the exact overlap tail."""
        m, x, s, reps = 30, 5, 2, 3000
        p_exact = oracle.intersection_tail(m, x, x, s)
        params = ModelParams(n=2, m=m, s=s, size_dist=make_size_dist(Degenerate(x), m))
        hits = 0
        for r in range(reps):
            g = build_active(sample_incidence(params, rng_stream(47, r)), s)
            hits += g.edge_count
        freq = hits / reps
        sigma = (p_exact * (1 - p_exact) / reps) ** 0.5
        assert abs(freq - p_exact) <= 4 * sigma


class TestBuildPassive:
    def test_spec_examples(self):
        assert edge_set(build_passive(Incidence.from_sets(3, [[0, 1, 2]]), 1)) == {
            (0, 1),
            (0, 2),
            (1, 2),
        }
        inc = Incidence.from_sets(4, [[0, 1], [0, 1]])
        assert edge_set(build_passive(inc, 2)) == {(0, 1)}

    def test_matches_brute_force(self):
        rng = rng_stream(53)
        for trial in range(6):
            n = int(rng.integers(3, 50))
            p = ModelParams(
                n=n,
                m=30,
                s=1,
                size_dist=make_size_dist(Table([0.1, 0.2, 0.3, 0.3, 0.1]), 30),
                kind="passive",
            )
            inc = sample_incidence(p, rng_stream(53, trial + 1))
            for s in (1, 2):
                got = edge_set(build_passive(inc, s))
                assert got == brute_force_passive(inc, s)

    def test_threshold_monotone_and_valid(self):
        p = ModelParams(
            n=60, m=25, s=1, size_dist=make_size_dist(Degenerate(4), 25), kind="passive"
        )
        inc = sample_incidence(p, rng_stream(59))
        prev = None
        for s in (1, 2, 3):
            g = build_passive(inc, s)
            validate(g)
            cur = edge_set(g)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_s_bounds(self):
        inc = Incidence.from_sets(5, [[0, 1]])
        with pytest.raises(ValueError):
            build_passive(inc, 2)  # s > n

    def test_pair_cap_aborts(self):
        inc = Incidence.from_sets(40, [range(40)])
        with pytest.raises(ResourceLimitError, match="passive build needs 780 .*pair"):
            build_passive(inc, 1, pair_cap=100)


@st.composite
def tiny_incidences(draw):
    """Up to 10 sets over at most 9 attributes; each set is either one of
    a few shared base sets (so identical sets repeat) or drawn on its
    own, of any size up to m (so x can far exceed s)."""
    m = draw(st.integers(3, 9))
    subsets = st.lists(st.integers(0, m - 1), unique=True, max_size=m)
    bases = draw(st.lists(subsets, min_size=1, max_size=3))
    sets = draw(st.lists(st.one_of(st.sampled_from(bases), subsets), min_size=1, max_size=10))
    return Incidence.from_sets(m, sets)


@pytest.fixture
def routes(monkeypatch):
    """Record how each build projects: whether it keyed the vertices by
    s-subsets, and the multiplicity its edges were thresholded at (1 on
    the s-subset route, s on the single-group route) by the one
    ``Graph.from_edge_arrays`` call that ends the build."""
    seen = {"subset_keys": 0, "thresholds": []}
    subset_keys, from_edge_arrays = sampler.subset_keys, Graph.from_edge_arrays

    def spy_subset_keys(*args):
        seen["subset_keys"] += 1
        return subset_keys(*args)

    def spy_from_edge_arrays(vertex_count, keys, threshold):
        seen["thresholds"].append(threshold)
        return from_edge_arrays(vertex_count, keys, threshold)

    monkeypatch.setattr(sampler, "subset_keys", spy_subset_keys)
    monkeypatch.setattr(Graph, "from_edge_arrays", staticmethod(spy_from_edge_arrays))
    return seen


class TestSubsetProjection:
    """Both builders against the brute-force references, on both sides
    of the choice between s-subset keys and single-group keys."""

    @settings(deadline=None, max_examples=300)
    @given(inc=tiny_incidences(), s=st.sampled_from([1, 2, 3]))
    def test_active_matches_brute_force(self, inc, s):
        g = build_active(inc, s)
        validate(g)
        assert edge_set(g) == brute_force_active(inc, s)

    @settings(deadline=None, max_examples=300)
    @given(inc=tiny_incidences(), s=st.sampled_from([1, 2, 3]))
    def test_passive_matches_brute_force(self, inc, s):
        assume(s <= inc.n)
        g = build_passive(inc, s)
        validate(g)
        assert edge_set(g) == brute_force_passive(inc, s)

    @pytest.mark.parametrize(
        "kind, m, sets, s, subset_keys, threshold",
        [
            # sparse sets: C(x, s) signatures undercut the co-occurrence pairs
            ("active", 12, [[0, 1, 2], [1, 2, 3], [0, 2, 5], [1, 2, 7], [2, 3, 9]], 2, 1, 1),
            # x >> s: C(9, 3) = 84 signatures per set outnumber the pairs
            ("active", 10, [[0, 1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 9], [0, 2, 4]], 3, 0, 3),
            # identical sets: 15 signatures each, but 675 within-signature
            # pairs against 270 co-occurrence pairs, so the build falls back
            ("active", 8, [[0, 1, 2, 3, 4, 5]] * 10, 2, 1, 2),
            # attributes held by the same few actors
            ("passive", 40, [range(40), range(1, 40), range(0, 40, 2)], 2, 1, 1),
            # popular attributes: 19 signatures against 6 pairs
            ("passive", 3, [[0, 1]] * 3 + [[1, 2]] * 2 + [[0, 2]], 2, 0, 2),
        ],
    )
    def test_route_choice(self, routes, kind, m, sets, s, subset_keys, threshold):
        inc = Incidence.from_sets(m, sets)
        build, brute = (build_active, brute_force_active) if kind == "active" else (build_passive, brute_force_passive)
        assert edge_set(build(inc, s)) == brute(inc, s)
        assert routes == {"subset_keys": subset_keys, "thresholds": [threshold]}

    @pytest.mark.parametrize(
        "m, sets, edges",
        [
            # the 12 lines of the affine plane over Z_3: two lines share at
            # most one point, so no 2-subset signature repeats, yet the 36
            # signatures undercut the 54 co-occurrence pairs
            (
                9,
                [[3 * x + (a * x + b) % 3 for x in range(3)] for a in range(3) for b in range(3)]
                + [[3 * x + y for y in range(3)] for x in range(3)],
                set(),
            ),
            # identical sets: every signature repeats, 28 within-signature
            # pairs against 29 co-occurrence pairs, so no fallback
            (
                8,
                [[0, 1, 2]] * 3 + [[3, 4, 5]] * 4 + [[6, 7]] * 2,
                set(itertools.combinations(range(3), 2))
                | set(itertools.combinations(range(3, 7), 2))
                | {(7, 8)},
            ),
            # every signature held by exactly two actors, the runs side by side
            (3, [[0, 1], [0, 1], [1, 2], [1, 2], [0, 2], [0, 2]], {(0, 1), (2, 3), (4, 5)}),
        ],
        ids=["none-repeats", "all-repeat", "pairs-repeat"],
    )
    def test_repeated_signature_filter(self, routes, m, sets, edges):
        """The s-subset route keeps only the keys whose signature repeats."""
        inc = Incidence.from_sets(m, sets)
        g = build_active(inc, 2)
        validate(g)
        assert edge_set(g) == edges == brute_force_active(inc, 2)
        assert routes == {"subset_keys": 1, "thresholds": [1]}

    @settings(deadline=None, max_examples=200)
    @given(
        lists=st.lists(st.lists(st.integers(0, 7), unique=True, max_size=6).map(sorted), max_size=12),
        t=st.integers(1, 3),
        slab=st.sampled_from([1, 2, 5, sampler._SLAB_CELLS]),
    )
    # one list's C(6, 2) = 15 keys exceed the slab: a slab of one vertex
    @example(lists=[[0, 1, 2], [0, 1, 2, 3, 4, 5], [1, 3, 5, 7], [2, 3, 4, 5, 6, 7]], t=2, slab=5)
    def test_subset_keys_match_combinations(self, lists, t, slab):
        """Every t-subset of every list read as t digits in base G, times
        V plus its vertex, sorted, with the classes filled in slabs of
        any size."""
        G, V = 8, max(len(lists), 1)
        lens = np.array([len(a) for a in lists], dtype=np.int64)
        groups = np.array([g for a in lists for g in a], dtype=np.int64)
        want = sorted(
            sum(d * G ** (t - 1 - i) for i, d in enumerate(c)) * V + v
            for v, a in enumerate(lists)
            for c in itertools.combinations(a, t)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_SLAB_CELLS", slab)
            got = sampler.subset_keys(lens, groups, t, G, V)
        assert got.dtype == np.int64 and got.tolist() == want

    @settings(deadline=None, max_examples=200)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=30),
        vertex_count=st.integers(1, 5),
        slab=st.sampled_from([1, 2, 5, sampler._SLAB_CELLS]),
    )
    def test_shared_signatures_match_counts(self, pairs, vertex_count, slab):
        """Sorted keys signature * V + v: exactly those whose signature
        occurs at least twice are kept, in order, with the signatures
        decoded in slabs of any size."""
        keys = sorted(sig * vertex_count + v % vertex_count for sig, v in pairs)
        counts = Counter(k // vertex_count for k in keys)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_SLAB_CELLS", slab)
            got = sampler._shared_signatures(np.array(keys, dtype=np.int64), vertex_count)
        assert got.dtype == np.int64
        assert got.tolist() == [k for k in keys if counts[k // vertex_count] >= 2]

    @pytest.mark.parametrize("s, signatures", [(2, 900_000), (3, 1_200_000)], ids=["s2", "s3"])
    def test_subset_route_memory_within_1_4_signature_arrays(self, s, signatures):
        """The active-threshold shape (n = 60k, m = 6k, sets of 6) has
        900,000 signatures at s = 2 and 1.2 M at s = 3.  Building it keeps
        the sorted keys and, beside them, a few vertex-sized arrays, one
        slab of keys and 2 B per key for the repeat masks, so its
        tracemalloc peak stays within 1.4 signature-sized int64 arrays.
        Gathering a whole length class at once, or decoding every
        signature at once, would exceed it."""
        n, m = 60_000, 6_000
        params = ModelParams(n=n, m=m, s=s, size_dist=make_size_dist(Degenerate(6), m))
        inc = sample_incidence(params, rng_stream(0, 0))
        assert sampler._comb_total(inc.sizes, s) == signatures
        bound = 1.4 * 8 * signatures  # 10.08 MB at s = 2, 13.44 MB at s = 3
        tracemalloc.start()
        try:
            g = build_active(inc, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0
        assert peak <= bound

    def test_subset_keys_memory_within_1_1_keys(self):
        """60k lists of 6 (the active-threshold sets) have 900,000
        2-subsets.  The vertices are placed by length, and their list
        starts counted, before the keys are allocated, as int32, so
        beside the keys stay 8 B per vertex and one slab's rows and keys:
        the tracemalloc peak stays within 1.1 times the keys.  Sorting
        by length beside them with an int64 argsort would exceed it."""
        n, m = 60_000, 6_000
        params = ModelParams(n=n, m=m, s=2, size_dist=make_size_dist(Degenerate(6), m))
        inc = sample_incidence(params, rng_stream(0, 0))
        tracemalloc.start()
        try:
            keys = sampler.subset_keys(inc.sizes, inc.attrs, 2, m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.size == 900_000
        assert peak <= 1.1 * keys.nbytes

    def test_pair_count_route_memory_stays_near_the_keys(self):
        """Sets of 24 from m = 40 at s = 20 (the example2 law at n = 300)
        take the single-group route; its pair keys are one array, sized
        by the checked count and thresholded in place, so the tracemalloc
        peak stays under 1.5 times 8 B per checked pair.  A second copy
        of the keys would take it to 2."""
        params = ModelParams(n=300, m=40, s=20, size_dist=make_size_dist(Degenerate(24), 40))
        inc = sample_incidence(params, rng_stream(0, 0))
        pairs = sampler._comb_total(np.bincount(inc.attrs, minlength=40), 2)
        assert sampler._comb_total(inc.sizes, 20) > pairs
        tracemalloc.start()
        try:
            g = build_active(inc, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0
        assert peak < 1.5 * 8 * pairs

    @settings(deadline=None, max_examples=100)
    @given(
        lists=st.lists(st.lists(st.integers(0, 9), unique=True, max_size=7).map(sorted), max_size=12),
        t=st.integers(1, 3),
        slab=st.sampled_from([1, 2, 5, sampler._SLAB_CELLS]),
    )
    # the out-lists of K_12 (vertex i lists i+1..11): each length class
    # holds a single list
    @example(lists=[list(range(i + 1, 12)) for i in range(12)], t=1, slab=sampler._SLAB_CELLS)
    @example(lists=[list(range(i + 1, 12)) for i in range(12)], t=2, slab=sampler._SLAB_CELLS)
    @example(lists=[list(range(i + 1, 12)) for i in range(12)], t=3, slab=sampler._SLAB_CELLS)
    # three lists of 7 at t = 3, C(7, 3) = 35 keys each: a slab of 5
    # holds one vertex (the floor), one of 70 two, then the last one
    @example(lists=[[0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 8], [0, 9]], t=3, slab=5)
    @example(lists=[[0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 8], [0, 9]], t=3, slab=70)
    def test_subset_rows_hold_one_list_per_column(self, lists, t, slab):
        """The layout holds with the classes filled in slabs of any size."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_SLAB_CELLS", slab)
            assert_subset_rows_layout(lists, t)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_subset_table_is_colex_prefix(self, t):
        """One table serves every list length: its first C(l, t) columns
        are exactly the t-subsets of range(l), each once and ascending."""
        size = 8
        table = sampler._subset_table(size, t)
        assert table.dtype == np.int64 and table.shape == (t, math.comb(size, t))
        for length in range(size + 1):
            got = table[:, : math.comb(length, t)].T
            assert np.all(np.diff(got, axis=1) > 0)
            assert sorted(map(tuple, got.tolist())) == list(itertools.combinations(range(length), t))

    def test_key_overflow_takes_single_groups(self, routes):
        """Subset keys would pay off here, but 3-subsets of m = 10**6
        attributes read as base-m digits, times n = 12, overflow int64."""
        m = 10**6
        top = [m - 10 + j for j in range(10)]
        sets = [[top[(i + j) % 10] for j in (0, 1, 2, 4)] for i in range(12)]
        inc = Incidence.from_sets(m, sets)
        assert sampler._comb_total(inc.sizes, 3) <= sampler._comb_total(np.bincount(inc.attrs), 2)
        assert m**3 * inc.n > 2**63
        g = build_active(inc, 3)
        assert edge_set(g) == brute_force_active(inc, 3)
        assert routes == {"subset_keys": 0, "thresholds": [3]}

    def test_signature_cap_aborts(self):
        inc = Incidence.from_sets(3, [[0, 1, 2]] * 40)
        with pytest.raises(ResourceLimitError, match="active build needs 120 2-subset signatures"):
            build_active(inc, 2, pair_cap=100)
        inc = Incidence.from_sets(40, [range(40)] * 3)
        with pytest.raises(ResourceLimitError, match="passive build needs 120 2-subset signatures"):
            build_passive(inc, 2, pair_cap=100)

    def test_within_signature_cap_aborts(self):
        inc = Incidence.from_sets(2, [[0, 1]] * 40)
        with pytest.raises(ResourceLimitError, match="active build needs 780 within-signature pairs"):
            build_active(inc, 2, pair_cap=100)
        inc = Incidence.from_sets(40, [range(40)] * 3)
        with pytest.raises(ResourceLimitError, match="passive build needs 2340 within-signature pairs"):
            build_passive(inc, 2, pair_cap=200)

    def test_subset_route_lifts_pair_cap(self):
        """The cap counts the route taken: 780 co-occurrence pairs would
        exceed it, 40 signatures and 20 within-signature pairs do not."""
        sets = [[2 * i, 2 * i + 1] for i in range(20)] * 2
        inc = Incidence.from_sets(40, sets)
        assert edge_set(build_active(inc, 2, pair_cap=100)) == brute_force_active(inc, 2)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_matches_pair_count_reference(self, name):
        """Replicate 0 of every preset at seed 0, both graph kinds, s = 1, 2, 3."""
        inc = sample_incidence(preset_config(name).params(), rng_stream(0, 0))
        for kind, build in (("active", build_active), ("passive", build_passive)):
            for s in (1, 2, 3):
                assert_same_graph(build(inc, s), pair_count_reference(kind, inc, s))


class TestIncidenceFromSets:
    def test_unsorted_sets_are_sorted(self):
        inc = Incidence.from_sets(3, [[1, 0], [0, 1]])
        assert inc.attrs.tolist() == [0, 1, 0, 1]
        assert edge_set(build_passive(inc, 2)) == {(0, 1)}

    def test_repeated_attribute_rejected(self):
        with pytest.raises(ValueError, match="set 0"):
            build_active(Incidence.from_sets(3, [[0, 0], [0]]), 1)

    @pytest.mark.parametrize("sets, bad", [([[5], [5]], 0), ([[0], [2, -1]], 1)])
    def test_out_of_range_attribute_rejected(self, sets, bad):
        with pytest.raises(ValueError, match=f"set {bad} "):
            Incidence.from_sets(3, sets)


class TestGraph:
    def test_from_edge_arrays(self):
        g = graph_from_ends(4, np.array([0, 1]), np.array([2, 3]))
        assert g.edge_count == 2
        assert has_edge(g, 0, 2) and has_edge(g, 2, 0) and not has_edge(g, 0, 1)
        assert [list(nb) for nb in adjacency(g)] == [[2], [3], [0], [1]]

    @settings(deadline=None, max_examples=200)
    @given(
        keys=st.lists(st.sampled_from([u * 6 + v for u, v in itertools.combinations(range(6), 2)]), max_size=40),
        threshold=st.integers(1, 4),
    )
    def test_from_edge_arrays_keeps_the_keys_formed_threshold_times(self, keys, threshold):
        """Keys in any order, repeats allowed: the graph holds the distinct
        keys that occur at least ``threshold`` times, increasing."""
        counts = Counter(keys)
        g = Graph.from_edge_arrays(6, np.array(keys, dtype=np.int64), threshold)
        validate(g)
        assert g.keys.tolist() == sorted(k for k, c in counts.items() if c >= threshold)

    @settings(deadline=None, max_examples=200)
    @given(
        runs=st.lists(
            st.tuples(st.sampled_from([u * 6 + v for u, v in itertools.combinations(range(6), 2)]), st.integers(1, 5)),
            max_size=20,
        ),
        threshold=st.integers(1, 3),
        slab=st.sampled_from([1, 2, 3, 5, sampler._SLAB_CELLS]),
    )
    # slabs of 2 run starts end inside the runs of 3: the second slab
    # opens on a repeat of the first one's last key
    @example(runs=[(1, 3), (2, 3), (3, 1), (4, 2)], threshold=2, slab=2)
    @example(runs=[(1, 3), (2, 3), (3, 1), (4, 2)], threshold=3, slab=2)
    def test_from_edge_arrays_in_slabs_matches_unique_counts(self, runs, threshold, slab):
        """Runs of repeated keys, shuffled, compacted ``slab`` run starts
        at a time, so that slab edges fall inside runs: the graph holds
        the keys that ``np.unique`` counts at least ``threshold`` times."""
        keys = np.array([key for key, size in runs for _ in range(size)], dtype=np.int64)
        np.random.default_rng(keys.size).shuffle(keys)
        values, counts = np.unique(keys, return_counts=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_SLAB_CELLS", slab)
            g = Graph.from_edge_arrays(6, keys, threshold)
        validate(g)
        assert g.keys.tolist() == values[counts >= threshold].tolist()

    def test_a_mostly_dropped_input_is_not_kept_alive(self):
        """The graph's keys are the front of the sorted input while at
        least half the keys are kept, and a copy once fewer are, so a
        threshold that drops most pairs frees their array."""
        many = np.arange(1, 100, dtype=np.int64)  # the edges {0, v} of 100 vertices
        g = Graph.from_edge_arrays(100, many, 1)
        assert g.edge_count == 99 and g.keys.base is many
        few = np.concatenate([many, [5, 5]])
        g = Graph.from_edge_arrays(100, few, 2)
        assert g.keys.tolist() == [5] and g.keys.base is None

    def test_degrees_memory_within_one_vertex_array_and_a_slab(self):
        """The degrees of the example5 graph (replicate 0 at seed 0: 100k
        vertices, 600k edges) are counted one slab of keys at a time, so
        the tracemalloc peak stays within the degree array, one slab of
        ends and 8 KiB for ``np.add.at``'s bookkeeping (0.87 MB).
        Counting every end at once, through an edge-sized quotient,
        peaks at 6.4 MB here."""
        cfg = preset_config("example5")
        g = build_passive(sample_incidence(cfg.params(), rng_stream(0, 0)), cfg.s)
        assert (g.vertex_count, g.edge_count) == (100_000, 599_967)
        bound = 8 * (g.vertex_count + sampler._SLAB_CELLS) + 8192
        tracemalloc.start()
        try:
            degrees = g.degrees
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert degrees.sum() == 2 * g.edge_count
        assert peak <= bound

    @pytest.mark.parametrize(
        "vertex_count, density",
        [(0, 0.0), (6, 0.0), (40, 0.02), (40, 0.1), (60, 0.3), (9, 1.0)],
    )
    def test_from_edge_arrays_matches_lexsort_reference(self, vertex_count, density):
        """Random unsorted unique edges u < v: empty graphs, sparse graphs
        with isolated vertices, and a complete graph."""
        gen = np.random.default_rng(vertex_count)
        pairs = [(a, b) for a in range(vertex_count) for b in range(a + 1, vertex_count)]
        keep = gen.random(len(pairs)) < density
        chosen = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        chosen = chosen[gen.permutation(len(chosen))]
        u, v = chosen[:, 0], chosen[:, 1]
        g = graph_from_ends(vertex_count, u, v)
        validate(g)
        got, want = lexsort_csr(vertex_count, *g.edges()), lexsort_csr(vertex_count, u, v)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))

    @settings(deadline=None, max_examples=200)
    @given(edges=edge_sets())
    @example(edges=(0, np.empty(0, np.int64), np.empty(0, np.int64)))
    @example(edges=(1, np.empty(0, np.int64), np.empty(0, np.int64)))
    def test_derived_views_match_lexsort_reference(self, edges):
        """Keys strictly increasing with u < v < V; edges and degrees
        equal the lexsort reference, dtypes too."""
        n, u, v = edges
        g = graph_from_ends(n, u, v)
        validate(g)
        assert g.edge_count == u.size
        indptr, _ = lexsort_csr(n, u, v)
        order = np.lexsort((v, u))
        pairs = zip(
            (g.degrees, *g.edges()),
            (np.diff(indptr), u[order], v[order]),
        )
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_value_equality(self):
        g = graph_from_ends(4, np.array([0, 1]), np.array([2, 3]))
        assert g == graph_from_ends(4, np.array([1, 0]), np.array([3, 2]))
        assert g != graph_from_ends(4, np.array([0]), np.array([2]))
        assert Graph.empty(4) != Graph.empty(5)
        assert g != (4, g.keys)

    def test_unhashable(self):
        g = Graph.empty(3)
        with pytest.raises(TypeError, match="unhashable type: 'Graph'"):
            hash(g)
        with pytest.raises(TypeError, match="unhashable type"):
            {g}

    def test_empty(self):
        g = Graph.empty(5)
        assert g.edge_count == 0 and g.degrees.sum() == 0

    def test_adjacency_view(self):
        g = graph_from_ends(3, np.array([0, 0]), np.array([1, 2]))
        adj = adjacency(g)
        assert [a.tolist() for a in adj] == [[1, 2], [0], [0]]


class TestEdgeListExport:
    def test_format(self, tmp_path):
        g = graph_from_ends(4, np.array([0, 0, 2]), np.array([3, 1, 3]))
        path = tmp_path / "graph.txt"
        write_edge_list(g, path, kind="active", n=4, m=9, s=2, seed=77)
        lines = path.read_text().splitlines()
        assert lines[0] == "# rig-lab graph kind=active n=4 m=9 s=2 seed=77"
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
        assert set(pairs) == {(0, 1), (0, 3), (2, 3)}

    @pytest.mark.parametrize(
        "graph",
        [
            Graph.empty(0),
            Graph.empty(3),
            graph_from_ends(4, np.array([0, 0, 2]), np.array([3, 1, 3])),
            graph_from_ends(12, *np.triu_indices(12, 1)),
        ],
    )
    def test_bytes_match_line_writer(self, graph, tmp_path):
        assert_same_export(graph, tmp_path, kind="active", n=graph.vertex_count, m=9, s=2, seed=77)

    def test_bytes_match_line_writer_on_example5(self, tmp_path):
        """600 k edges, so the export spans several blocks."""
        cfg = preset_config("example5")
        graph = build_passive(sample_incidence(cfg.params(), rng_stream(0, 0)), cfg.s)
        assert graph.edge_count > 4 * sampler._EXPORT_BLOCK
        assert_same_export(graph, tmp_path, kind=cfg.kind, n=cfg.n, m=cfg.m, s=cfg.s, seed=0)
