"""Empirical estimators, checked against dense-matrix triangle oracles."""

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riglab import sampler, stats
from riglab.cli import PRESETS, preset_config
from riglab.model import DiscretePmf, ModelParams, Table, make_size_dist
from riglab.sampler import (
    Graph,
    build_active,
    build_passive,
    rng_stream,
    sample_incidence,
)
from riglab.stats import (
    clustering_report,
    degree_histogram,
    local_counts,
    loglog_slope,
    pooled_estimates,
    tv_distance,
)

from fanout import group_pair_indices


def k3():
    return graph_from_pairs(3, [(0, 1), (0, 2), (1, 2)])


def star_k13():
    return graph_from_pairs(4, [(0, 1), (0, 2), (0, 3)])


def k4_minus_edge():
    return graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def path3():
    return graph_from_pairs(3, [(0, 1), (1, 2)])


def dense_triangle_oracle(graph):
    """n3 per vertex from the cubed adjacency matrix (independent route)."""
    n = graph.vertex_count
    a = np.zeros((n, n), dtype=np.int64)
    u, v = graph.edges()
    a[u, v] = 1
    a[v, u] = 1
    return np.diag(a @ a @ a) // 2


def csr(graph):
    """(indptr, indices): both edge directions, neighbor lists sorted."""
    u, v = graph.edges()
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return np.concatenate([[0], np.cumsum(graph.degrees)]), cols[np.lexsort((cols, rows))]


def triangle_total_by_edge_iteration(graph):
    """Global triangle count: sum of common-neighbor counts over edges / 3."""
    indptr, indices = csr(graph)
    u, v = graph.edges()
    total = 0
    for a, b in zip(u.tolist(), v.tolist()):
        total += np.intersect1d(indices[indptr[a] : indptr[a + 1]], indices[indptr[b] : indptr[b + 1]]).size
    return total // 3


def random_graph(seed, n=60):
    p = ModelParams(
        n=n, m=20, s=1, size_dist=make_size_dist(Table([0, 0.3, 0.4, 0.3]), 20)
    )
    return build_active(sample_incidence(p, rng_stream(seed)), 1)


def wedge_probe_counts(graph):
    """Reference n3: probe every wedge (u, w), u < w, around every center
    against the sorted edge keys, and credit the center alone."""
    n = graph.vertex_count
    deg = graph.degrees.astype(np.int64)
    u, v = graph.edges()
    ekeys = u * np.int64(n) + v  # sorted: edges() lists u < v in CSR order
    centers = np.repeat(np.arange(n, dtype=np.int64), deg)
    li, ri = group_pair_indices(deg)
    _, indices = csr(graph)
    wkeys = indices[li] * np.int64(n) + indices[ri]
    slot = np.searchsorted(ekeys, wkeys)
    slot[slot == ekeys.size] = 0
    closed = ekeys[slot] == wkeys
    return np.bincount(centers[li[closed]], minlength=n)


def graph_from_pairs(n, pairs):
    """Graph of the unique edges (a, b), a < b, in any order."""
    return Graph.from_edge_arrays(n, np.array([a * n + b for a, b in pairs], dtype=np.int64))


def complete_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def small_graphs(draw, min_n=0, max_n=12):
    """(vertex count, sorted unique edges u < v) of a graph on
    ``min_n`` to ``max_n`` vertices."""
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return n, []
    return n, sorted(draw(st.lists(st.sampled_from(complete_pairs(n)), unique=True)))


class TestDegreeHistogram:
    def test_triangle(self):
        pmf = degree_histogram(k3())
        assert pmf.prob(2) == 1.0

    def test_empty_graph(self):
        pmf = degree_histogram(Graph.empty(5))
        assert pmf.prob(0) == 1.0

    def test_path(self):
        pmf = degree_histogram(path3())
        np.testing.assert_allclose(pmf.probs, [0, 2 / 3, 1 / 3], atol=1e-15)

    def test_mean_is_2e_over_v(self):
        for seed in (1, 2, 3):
            g = random_graph(seed)
            pmf = degree_histogram(g)
            assert pmf.mean() == pytest.approx(2 * g.edge_count / g.vertex_count, abs=1e-12)


class TestLocalCounts:
    def test_triangle(self):
        lc = local_counts(k3())
        assert lc.degree.tolist() == [2, 2, 2]
        assert lc.n2.tolist() == [1, 1, 1]
        assert lc.n3.tolist() == [1, 1, 1]

    def test_star_center(self):
        lc = local_counts(star_k13())
        assert (lc.degree[0], lc.n2[0], lc.n3[0]) == (3, 3, 0)

    def test_matches_matrix_oracle(self):
        for seed in range(6):
            g = random_graph(seed + 10)
            lc = local_counts(g)
            np.testing.assert_array_equal(lc.n3, dense_triangle_oracle(g))
            np.testing.assert_array_equal(
                lc.n2, lc.degree * (lc.degree - 1) // 2
            )
            assert np.all(lc.n3 <= lc.n2)

    def test_triangle_sum_identity(self):
        for seed in (21, 22):
            g = random_graph(seed)
            lc = local_counts(g)
            assert lc.n3.sum() == 3 * triangle_total_by_edge_iteration(g)

    @settings(deadline=None, max_examples=200)
    @given(
        graph=small_graphs(),
        chunk=st.sampled_from([1, 2, 5, stats.WEDGE_CHUNK]),
        span=st.sampled_from([0, 1, 2, 5, None]),
        probe=st.sampled_from([1, 2, 5, stats.PROBE_CHUNK]),
        slab=st.sampled_from([1, 2, 5, sampler._SLAB_CELLS]),
    )
    @example(graph=(0, []), chunk=stats.WEDGE_CHUNK, span=None, probe=stats.PROBE_CHUNK, slab=sampler._SLAB_CELLS)
    @example(graph=(6, []), chunk=stats.WEDGE_CHUNK, span=None, probe=stats.PROBE_CHUNK, slab=sampler._SLAB_CELLS)
    @example(  # isolated vertices
        graph=(9, [(0, 1), (0, 2), (1, 2), (4, 5)]), chunk=1, span=None, probe=1, slab=sampler._SLAB_CELLS
    )
    @example(  # octahedron: every degree tied, eight triangles
        graph=(6, [p for p in complete_pairs(6) if p not in ((0, 1), (2, 3), (4, 5))]),
        chunk=1,
        span=None,
        probe=2,
        slab=sampler._SLAB_CELLS,
    )
    @example(graph=(8, complete_pairs(8)), chunk=1, span=None, probe=1, slab=sampler._SLAB_CELLS)
    # every out-degree class of K_8 holds one list, and each slab one key
    @example(graph=(8, complete_pairs(8)), chunk=stats.WEDGE_CHUNK, span=None, probe=stats.PROBE_CHUNK, slab=1)
    @example(graph=(8, complete_pairs(8)), chunk=stats.WEDGE_CHUNK, span=None, probe=2, slab=sampler._SLAB_CELLS)
    @example(graph=(8, complete_pairs(8)), chunk=stats.WEDGE_CHUNK, span=0, probe=5, slab=sampler._SLAB_CELLS)
    @example(graph=(8, complete_pairs(8)), chunk=stats.WEDGE_CHUNK, span=3, probe=stats.PROBE_CHUNK, slab=sampler._SLAB_CELLS)
    @example(  # open wedge (0, 1) around 2: needle 1 below the first edge key 2
        graph=(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6)]),
        chunk=stats.WEDGE_CHUNK,
        span=None,
        probe=1,
        slab=sampler._SLAB_CELLS,
    )
    @example(  # open wedge (5, 6) around 0: needle 41 past the last edge key 34
        graph=(7, [(0, 5), (0, 6), (1, 5), (2, 5), (3, 6), (4, 6)]),
        chunk=stats.WEDGE_CHUNK,
        span=None,
        probe=1,
        slab=sampler._SLAB_CELLS,
    )
    @example(  # 4-cycle: needle 7 between edge keys 6 and 11, so its slice is empty
        graph=(4, [(0, 1), (0, 3), (1, 2), (2, 3)]), chunk=stats.WEDGE_CHUNK, span=None, probe=1, slab=sampler._SLAB_CELLS
    )
    @example(  # one chunk: needle 1 below the first edge key 2, needle 4
        # closed by triangle (0, 3, 4), needle 181 past the last edge key 167
        graph=(
            14,
            [(0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (3, 4)]
            + [(7, 12), (8, 12), (9, 13), (10, 13), (11, 12), (11, 13)],
        ),
        chunk=stats.WEDGE_CHUNK,
        span=None,
        probe=stats.PROBE_CHUNK,
        slab=sampler._SLAB_CELLS,
    )
    def test_matches_networkx_triangles(self, graph, chunk, span, probe, slab):
        """Per-vertex n3 equals networkx's triangle count, with the
        oriented wedges probed in blocks of any size and ``probe`` at a
        time, their keys filled ``slab`` at a time.  ``span`` lowers
        ``KEY_LIMIT`` so that a block holds at most that many centers (0
        leaves only the one-center floor); None keeps 2**63."""
        n, pairs = graph
        g = graph_from_pairs(n, pairs)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(pairs)
        expected = nx.triangles(nxg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "WEDGE_CHUNK", chunk)
            mp.setattr(stats, "PROBE_CHUNK", probe)
            mp.setattr(sampler, "_SLAB_CELLS", slab)
            if span is not None:
                mp.setattr(stats, "KEY_LIMIT", span * n * n + 1)
            lc = local_counts(g)
        assert lc.n3.tolist() == [expected[v] for v in range(n)]
        assert lc.degree.tolist() == [nxg.degree(v) for v in range(n)]
        np.testing.assert_array_equal(lc.n2, lc.degree * (lc.degree - 1) // 2)

    def test_memory_stays_within_one_block_and_the_edges(self):
        """The tracemalloc peak of counting the example5 graph (replicate 0
        at seed 0: V = 100k vertices, E = 600k edges, 1.8 M oriented
        wedges) stays within 12 B per edge, one block of 2**18 packed
        keys and one vertex-sized int64 array:
        12 E + 8 * 2**18 + 8 V = 10.1 MB.  It peaks where the sorted
        oriented keys (8 B per edge) are reduced to int32 out-lists (4 B
        per edge) beside the out-degrees; in the block loop the
        out-lists, three vertex-sized arrays, one block and the probe's
        chunks stay below it.  One wedge-sized array (14.4 MB here), or
        int64 out-lists (10.9 MB), would exceed it."""
        cfg = preset_config("example5")
        g = build_passive(sample_incidence(cfg.params(), rng_stream(0, 0)), cfg.s)
        g.degrees  # counted outside the traced call
        assert (g.vertex_count, g.edge_count) == (100_000, 599_967)
        bound = 10_096_756  # 12 * 599_967 + 8 * 2**18 + 8 * 100_000
        tracemalloc.start()
        try:
            local_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_packed_key_fits_int64_at_largest_vertex_count(self):
        """At the largest V whose a * V + b keys fit (V**2 < 2**63) the
        span bound still admits one center, and the packed key of the
        largest wedge (a, b, c - lo) = (V - 2, V - 1, S - 1) fits."""
        v = math.isqrt(stats.KEY_LIMIT)
        span = (stats.KEY_LIMIT - 1) // (v * v)
        assert span == 1
        assert ((v - 2) * v + (v - 1)) * span + (span - 1) < 2**63

    @pytest.mark.parametrize("seed", [1, 2, 3, *range(10, 16), 21, 22, 33])
    def test_matches_all_wedge_reference(self, seed):
        for n in (60, 80, 120):
            g = random_graph(seed, n=n)
            np.testing.assert_array_equal(local_counts(g).n3, wedge_probe_counts(g))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_matches_all_wedge_reference(self, name):
        """Replicate 0 of every preset at seed 0."""
        cfg = preset_config(name)
        inc = sample_incidence(cfg.params(), rng_stream(0, 0))
        g = build_active(inc, cfg.s) if cfg.kind == "active" else build_passive(inc, cfg.s)
        np.testing.assert_array_equal(local_counts(g).n3, wedge_probe_counts(g))


class TestClusteringReport:
    def test_triangle(self):
        rep = clustering_report(k3(), min_bucket=1)
        assert rep.alpha_hat == 1.0 and rep.alpha_hat_hat == 1.0
        assert rep.per_degree == {2: 1.0}

    def test_star(self):
        rep = clustering_report(star_k13(), min_bucket=1)
        assert rep.alpha_hat == 0.0 and rep.alpha_hat_hat == 0.0

    def test_k4_minus_edge_frozen_values(self):
        # degrees (3,3,2,2); n3 = (2,2,1,1); checked against the matrix oracle
        g = k4_minus_edge()
        np.testing.assert_array_equal(dense_triangle_oracle(g), [2, 2, 1, 1])
        rep = clustering_report(g, min_bucket=1)
        assert rep.alpha_hat == pytest.approx(5 / 6)
        assert rep.alpha_hat_hat == pytest.approx(0.75)
        assert rep.per_degree == {2: pytest.approx(1.0), 3: pytest.approx(2 / 3)}

    def test_no_wedges_reported_absent(self):
        g = graph_from_pairs(4, [(0, 1)])
        rep = clustering_report(g, min_bucket=1)
        assert rep.alpha_hat is None and rep.alpha_hat_hat is None

    def test_per_degree_definition(self):
        """per_degree[k] recomputed straight from the definition."""
        g = random_graph(33, n=120)
        lc = local_counts(g)
        rep = clustering_report(g, min_bucket=1)
        for k, value in rep.per_degree.items():
            sel = lc.degree == k
            want = lc.n3[sel].sum() / (math.comb(k, 2) * sel.sum())
            assert value == pytest.approx(want, abs=1e-12)

    def test_sums_match_local_counts(self):
        """The 2-star and triangle sums a report derives from its buckets
        are those of the vertices."""
        g = random_graph(34, n=120)
        lc = local_counts(g)
        rep = clustering_report(g, min_bucket=1)
        assert rep.n2_sum == int(lc.n2.sum())
        assert rep.n3_sum == int(lc.n3.sum())
        assert sum(rep.bucket_counts.values()) == int((lc.degree >= 2).sum())
        assert rep.parts == () and rep.replicates == 1 and rep.per_degree_se == {}

    def test_alpha_hat_is_the_vertex_mean(self):
        """alpha_hat, read off the per-degree sums, is the mean of n3/n2
        over the vertices with a 2-star."""
        for seed in (35, 36, 37):
            g = random_graph(seed, n=120)
            lc = local_counts(g)
            kept = [(int(d), int(t)) for d, t in zip(lc.degree, lc.n3) if d >= 2]
            want = math.fsum(t / math.comb(d, 2) for d, t in kept) / len(kept)
            assert clustering_report(g).alpha_hat == pytest.approx(want, rel=1e-14)

    def test_n3_sums_exact_past_2_53(self, monkeypatch):
        """Per-degree triangle sums are added as integers: three degree-3
        vertices with n3 = 2**52 + 1 sum to 3 * 2**52 + 3, which a float
        sum rounds."""
        fake = stats.LocalCounts(degree=np.array([3, 3, 3]), n3=np.full(3, 2**52 + 1, dtype=np.int64))
        monkeypatch.setattr(stats, "local_counts", lambda graph: fake)
        rep = clustering_report(Graph.empty(3), min_bucket=1)
        assert rep.n3_by_degree == {3: 3 * 2**52 + 3}

    def test_min_bucket_filters(self):
        g = k4_minus_edge()
        rep = clustering_report(g, min_bucket=3)
        assert rep.per_degree == {}
        assert rep.bucket_counts == {2: 2, 3: 2}


    def test_counts_through_the_module_global(self, monkeypatch):
        """clustering_report looks local_counts up in the module at call
        time, so a wrapper installed there (as a tracer does) sees it."""
        seen = []
        real = stats.local_counts

        def spy(graph):
            seen.append(graph)
            return real(graph)

        monkeypatch.setattr(stats, "local_counts", spy)
        g = k4_minus_edge()
        assert clustering_report(g, min_bucket=1).n3_sum == 6
        assert seen == [g]


class TestTvDistance:
    def test_identity_and_extremes(self):
        p = DiscretePmf(np.array([0.5, 0.5]))
        assert tv_distance(p, p) == 0.0
        assert tv_distance(DiscretePmf.point_mass(0), DiscretePmf.point_mass(1)) == 1.0
        q = DiscretePmf(np.array([0.25, 0.75]))
        assert tv_distance(p, q) == pytest.approx(0.25)

    def test_tail_mass_counts(self):
        p = DiscretePmf(np.array([1.0]))
        q = DiscretePmf(np.array([0.6]), 0.4)
        assert tv_distance(p, q) == pytest.approx(0.4)

    def test_metric_axioms(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            pmfs = []
            for _ in range(3):
                w = rng.random(int(rng.integers(1, 6)))
                pmfs.append(DiscretePmf(w / w.sum()))
            p, q, r = pmfs
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
            assert 0 <= tv_distance(p, q) <= 1


class TestLogLogSlope:
    def test_exact_inverse_law(self):
        fit = loglog_slope({k: 1.0 / k for k in range(2, 21)})
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fit = loglog_slope({k: 3.7 for k in range(2, 12)})
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_inverse_law(self):
        rng = np.random.default_rng(5)
        pts = {k: 2.0 / k * (1 + 0.01 * rng.standard_normal()) for k in range(2, 40)}
        fit = loglog_slope(pts)
        assert -1.05 < fit.slope < -0.95

    def test_nonpositive_excluded_then_error(self):
        with pytest.raises(ValueError):
            loglog_slope({2: 1.0, 3: 0.0, 4: -1.0})


class TestPooledEstimates:
    def make_report(self, alpha, n2=10):
        n3 = int(round(alpha * n2))
        return clustering_report_like(n3=n3, n2=n2)

    def test_single_is_identity(self):
        g = k4_minus_edge()
        rep = clustering_report(g, min_bucket=1)
        pooled = pooled_estimates([rep])
        assert pooled is rep
        assert pooled.se_alpha_hat_hat is None

    def test_two_identical_reports(self):
        rep = clustering_report(k4_minus_edge(), min_bucket=1)
        pooled = pooled_estimates([rep, rep])
        assert pooled.alpha_hat_hat == rep.alpha_hat_hat
        assert pooled.se_alpha_hat_hat == 0.0
        assert pooled.replicates == 2

    def test_equal_weight_spread(self):
        """Values {0.4, 0.6} with equal weights: pooled 0.5, SE 0.1."""
        a = clustering_report_like(n3=4, n2=10)
        b = clustering_report_like(n3=6, n2=10)
        pooled = pooled_estimates([a, b])
        assert pooled.alpha_hat_hat == pytest.approx(0.5)
        assert pooled.se_alpha_hat_hat == pytest.approx(0.1)

    def test_pooled_per_degree_sums(self):
        reps = [clustering_report(random_graph(s, n=80), min_bucket=1) for s in (1, 2, 3)]
        pooled = pooled_estimates(reps)
        for k, value in pooled.per_degree.items():
            n3 = sum(r.n3_by_degree.get(k, 0) for r in reps)
            cnt = sum(r.bucket_counts.get(k, 0) for r in reps)
            assert value == pytest.approx(n3 / (math.comb(k, 2) * cnt), abs=1e-12)
        assert pooled.n3_sum == sum(r.n3_sum for r in reps)

    def test_pool_keeps_its_parts(self):
        """A pool sums its parts, and a pool of pools counts the leaf
        replicates."""
        reps = [clustering_report(random_graph(s, n=80), min_bucket=1) for s in (4, 5, 6)]
        pooled = pooled_estimates(reps[:2])
        assert pooled.parts == tuple(reps[:2])
        assert pooled.n2_sum == reps[0].n2_sum + reps[1].n2_sum
        nested = pooled_estimates([pooled, reps[2]])
        assert nested.replicates == 3
        assert nested.bucket_counts == pooled_estimates(reps).bucket_counts

    @settings(deadline=None, max_examples=200)
    @given(graphs=st.lists(small_graphs(3, 29), min_size=2, max_size=4), split=st.integers(1, 3))
    def test_pool_is_its_union_graph(self, graphs, split):
        """A pool of reports, and a pool of pools, equals the report of
        the disjoint union of the graphs in every estimate."""
        reps = [clustering_report(graph_from_pairs(n, pairs), min_bucket=1) for n, pairs in graphs]
        union_pairs, offset = [], 0
        for n, pairs in graphs:
            union_pairs += [(a + offset, b + offset) for a, b in pairs]
            offset += n
        union = clustering_report(graph_from_pairs(offset, union_pairs), min_bucket=1)
        split = min(split, len(reps) - 1)
        flat = pooled_estimates(reps)
        nested = pooled_estimates([pooled_estimates(reps[:split]), pooled_estimates(reps[split:])])
        for pool in (flat, nested):
            for field in ("bucket_counts", "n3_by_degree", "alpha_hat", "alpha_hat_hat", "per_degree"):
                assert getattr(pool, field) == getattr(union, field), field


def clustering_report_like(n3, n2):
    """Minimal synthetic report for pooling arithmetic tests: n2 vertices
    of degree 2, n3 of them closed."""
    from riglab.stats import ClusteringReport

    return ClusteringReport(
        bucket_counts={2: n2},
        n3_by_degree={2: n3},
        min_bucket=30,
    )
