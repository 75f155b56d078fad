"""Random set sampling and graph construction."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riglab import oracle, sampler
from riglab.cli import PRESETS, preset_config
from riglab.model import Degenerate, ModelParams, Table, make_size_dist
from riglab.sampler import (
    Graph,
    Incidence,
    ResourceLimitError,
    RngStream,
    build_active,
    build_passive,
    group_pair_indices,
    sample_incidence,
    sample_subset,
    write_edge_list,
)


def brute_force_active(inc, s):
    """Quadratic comparator: sorted-merge intersection of every pair."""
    edges = set()
    sets = [set(inc.set(i).tolist()) for i in range(inc.n)]
    for i, j in itertools.combinations(range(inc.n), 2):
        if len(sets[i] & sets[j]) >= s:
            edges.add((i, j))
    return edges


def brute_force_passive(inc, s):
    """Exhaustive pair-count over all attribute pairs."""
    edges = set()
    sets = [set(inc.set(i).tolist()) for i in range(inc.n)]
    for w1, w2 in itertools.combinations(range(inc.m), 2):
        covering = sum(1 for d in sets if w1 in d and w2 in d)
        if covering >= s:
            edges.add((w1, w2))
    return edges


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
    return Graph.from_edge_arrays(width, keys // width, keys % width)


def assert_same_csr(got, want):
    assert got.vertex_count == want.vertex_count
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


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
        a = RngStream(99, 4).generator().integers(0, 1 << 30, 64)
        b = RngStream(99, 4).generator().integers(0, 1 << 30, 64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(99, 0).generator().integers(0, 1 << 30, 64)
        b = RngStream(99, 1).generator().integers(0, 1 << 30, 64)
        assert not np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)


class TestSampleSubset:
    def test_edges_of_domain(self):
        rng = RngStream(0)
        assert sample_subset(5, 0, rng).size == 0
        assert np.array_equal(sample_subset(5, 5, rng), np.arange(5))
        with pytest.raises(ValueError):
            sample_subset(5, 6, rng)

    def test_sorted_distinct(self):
        rng = RngStream(1)
        for _ in range(200):
            out = sample_subset(20, 7, rng)
            assert out.size == 7
            assert np.all(np.diff(out) > 0)
            assert out[0] >= 0 and out[-1] < 20

    def test_all_subsets_equally_likely(self):
        """Chi-square on the 10 possible 2-subsets of {0..4}."""
        rng = RngStream(7)
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
        rng = RngStream(3)
        draws = 100_000
        hits = np.zeros(100)
        gen = rng.generator()
        for _ in range(draws):
            hits[sample_subset(100, 10, gen)] += 1
        freq = hits / draws
        np.testing.assert_allclose(freq, 0.10, atol=0.004)  # > 4 sigma


class TestSampleIncidence:
    def make_params(self, n=10_000, m=100, weights=(0, 0.5, 0, 0.5)):
        return ModelParams(
            n=n, m=m, s=1, size_dist=make_size_dist(Table(list(weights)), m)
        )

    def test_empty_and_full(self):
        p = ModelParams(n=3, m=5, s=1, size_dist=make_size_dist(Degenerate(0), 5))
        inc = sample_incidence(p, RngStream(0))
        assert all(inc.set(i).size == 0 for i in range(3))
        p = ModelParams(n=1, m=5, s=1, size_dist=make_size_dist(Degenerate(5), 5))
        inc = sample_incidence(p, RngStream(0))
        assert np.array_equal(inc.set(0), np.arange(5))

    def test_sets_sorted_distinct_in_range(self):
        p = self.make_params(n=500, weights=(0.1, 0.2, 0.3, 0.2, 0.2))
        inc = sample_incidence(p, RngStream(5))
        for i in range(inc.n):
            row = inc.set(i)
            assert np.all(np.diff(row) > 0) if row.size > 1 else True
            if row.size:
                assert 0 <= row[0] and row[-1] < inc.m

    def test_size_histogram_chi_square(self):
        """Observed sizes against P at the 99% chi-square level."""
        p = self.make_params(n=10_000, weights=(0, 0.5, 0, 0.5))
        inc = sample_incidence(p, RngStream(11))
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
        inc = sample_incidence(p, RngStream(13))
        freq = np.bincount(inc.attrs, minlength=100) / 1_000_000
        np.testing.assert_allclose(freq, 0.10, atol=0.003)

    def test_deterministic(self):
        p = self.make_params(n=300)
        a = sample_incidence(p, RngStream(17, 2))
        b = sample_incidence(p, RngStream(17, 2))
        assert np.array_equal(a.attrs, b.attrs) and np.array_equal(a.sizes, b.sizes)

    def test_large_sizes_take_partial_selection_path(self):
        # x(x-1) > m // 2 forces the per-row fallback
        p = ModelParams(
            n=40, m=30, s=1, size_dist=make_size_dist(Degenerate(25), 30)
        )
        inc = sample_incidence(p, RngStream(23))
        for i in range(inc.n):
            row = inc.set(i)
            assert row.size == 25 and np.all(np.diff(row) > 0)


class TestBuildActive:
    def test_spec_examples(self):
        inc = Incidence.from_sets(4, [[0, 1], [1, 2], [3]])
        assert edge_set(build_active(inc, 1)) == {(0, 1)}
        assert edge_set(build_active(inc, 2)) == set()

    def test_matches_brute_force(self):
        rng = RngStream(31)
        for trial in range(8):
            n = int(rng.generator().integers(5, 120))
            p = ModelParams(
                n=n,
                m=25,
                s=1,
                size_dist=make_size_dist(Table([0.1, 0.3, 0.3, 0.2, 0.1]), 25),
            )
            inc = sample_incidence(p, RngStream(31, trial + 1))
            for s in (1, 2, 3):
                got = edge_set(build_active(inc, s))
                assert got == brute_force_active(inc, s)

    def test_threshold_monotone(self):
        p = ModelParams(
            n=80, m=20, s=1, size_dist=make_size_dist(Table([0, 0, 0.5, 0, 0.5]), 20)
        )
        inc = sample_incidence(p, RngStream(37))
        prev = edge_set(build_active(inc, 1))
        for s in (2, 3, 4):
            cur = edge_set(build_active(inc, s))
            assert cur <= prev
            prev = cur

    def test_invariants_hold(self):
        p = ModelParams(
            n=200, m=40, s=2, size_dist=make_size_dist(Degenerate(4), 40)
        )
        g = build_active(sample_incidence(p, RngStream(41)), 2)
        g.validate()

    def test_determinism_bit_identical(self):
        p = ModelParams(n=150, m=30, s=1, size_dist=make_size_dist(Degenerate(3), 30))
        g1 = build_active(sample_incidence(p, RngStream(43, 9)), 1)
        g2 = build_active(sample_incidence(p, RngStream(43, 9)), 1)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

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
            g = build_active(sample_incidence(params, RngStream(47, r)), s)
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
        rng = RngStream(53)
        for trial in range(6):
            n = int(rng.generator().integers(3, 50))
            p = ModelParams(
                n=n,
                m=30,
                s=1,
                size_dist=make_size_dist(Table([0.1, 0.2, 0.3, 0.3, 0.1]), 30),
                kind="passive",
            )
            inc = sample_incidence(p, RngStream(53, trial + 1))
            for s in (1, 2):
                got = edge_set(build_passive(inc, s))
                assert got == brute_force_passive(inc, s)

    def test_threshold_monotone_and_valid(self):
        p = ModelParams(
            n=60, m=25, s=1, size_dist=make_size_dist(Degenerate(4), 25), kind="passive"
        )
        inc = sample_incidence(p, RngStream(59))
        prev = None
        for s in (1, 2, 3):
            g = build_passive(inc, s)
            g.validate()
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
    the s-subset route, s on the single-group route)."""
    seen = {"subset_keys": 0, "thresholds": []}
    subset_keys, edges_within = sampler._subset_keys, sampler._edges_within

    def spy_subset_keys(*args):
        seen["subset_keys"] += 1
        return subset_keys(*args)

    def spy_edges_within(members, runs, vertex_count, threshold):
        seen["thresholds"].append(threshold)
        return edges_within(members, runs, vertex_count, threshold)

    monkeypatch.setattr(sampler, "_subset_keys", spy_subset_keys)
    monkeypatch.setattr(sampler, "_edges_within", spy_edges_within)
    return seen


class TestSubsetProjection:
    """Both builders against the brute-force references, on both sides
    of the choice between s-subset keys and single-group keys."""

    @settings(deadline=None, max_examples=300)
    @given(inc=tiny_incidences(), s=st.sampled_from([1, 2, 3]))
    def test_active_matches_brute_force(self, inc, s):
        g = build_active(inc, s)
        g.validate()
        assert edge_set(g) == brute_force_active(inc, s)

    @settings(deadline=None, max_examples=300)
    @given(inc=tiny_incidences(), s=st.sampled_from([1, 2, 3]))
    def test_passive_matches_brute_force(self, inc, s):
        assume(s <= inc.n)
        g = build_passive(inc, s)
        g.validate()
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
        inc = sample_incidence(preset_config(name).params(), RngStream(0, 0))
        for kind, build in (("active", build_active), ("passive", build_passive)):
            for s in (1, 2, 3):
                assert_same_csr(build(inc, s), pair_count_reference(kind, inc, s))


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
        g = Graph.from_edge_arrays(4, np.array([0, 1]), np.array([2, 3]))
        assert g.edge_count == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0) and not g.has_edge(0, 1)
        assert [list(g.neighbors(v)) for v in range(4)] == [[2], [3], [0], [1]]

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
        g = Graph.from_edge_arrays(vertex_count, u, v)
        indptr, indices = lexsort_csr(vertex_count, u, v)
        assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
        g.validate()

    def test_empty(self):
        g = Graph.empty(5)
        assert g.edge_count == 0 and g.degrees.sum() == 0

    def test_adjacency_view(self):
        g = Graph.from_edge_arrays(3, np.array([0, 0]), np.array([1, 2]))
        adj = g.adjacency
        assert [a.tolist() for a in adj] == [[1, 2], [0], [0]]


class TestEdgeListExport:
    def test_format(self, tmp_path):
        g = Graph.from_edge_arrays(4, np.array([0, 0, 2]), np.array([3, 1, 3]))
        path = tmp_path / "graph.txt"
        write_edge_list(g, path, kind="active", n=4, m=9, s=2, seed=77)
        lines = path.read_text().splitlines()
        assert lines[0] == "# rig-lab graph kind=active n=4 m=9 s=2 seed=77"
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
        assert set(pairs) == {(0, 1), (0, 3), (2, 3)}
