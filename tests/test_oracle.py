"""Exact oracles, checked against independent in-test enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from riglab import oracle
from riglab.model import Degenerate, DiscretePmf, ModelParams, Table, make_size_dist
from riglab.theory import CompoundPoissonSpec, compound_poisson_pmf
from riglab.stats import tv_distance


def enumerated_overlap_pmf(m, d1, d2):
    """Exact overlap law by iterating every (D1, D2) pair; Fractions."""
    counts = {}
    total = 0
    for a in itertools.combinations(range(m), d1):
        sa = set(a)
        for b in itertools.combinations(range(m), d2):
            r = len(sa & set(b))
            counts[r] = counts.get(r, 0) + 1
            total += 1
    return {r: Fraction(c, total) for r, c in counts.items()}


class TestIntersectionPmf:
    def test_small_exact_values(self):
        pmf = oracle.intersection_pmf(5, 2, 2)
        np.testing.assert_allclose(pmf.probs, [0.3, 0.6, 0.1], atol=1e-14)

    def test_degenerate_endpoints(self):
        assert oracle.intersection_pmf(6, 0, 3).prob(0) == 1.0
        pmf = oracle.intersection_pmf(6, 6, 4)  # containment forced
        assert pmf.prob(4) == pytest.approx(1.0)

    def test_against_enumeration(self):
        """Full agreement with brute enumeration for every m <= 6."""
        for m in range(1, 7):
            for d1 in range(m + 1):
                for d2 in range(m + 1):
                    pmf = oracle.intersection_pmf(m, d1, d2)
                    exact = enumerated_overlap_pmf(m, d1, d2)
                    for r in range(pmf.k_max + 1):
                        want = float(exact.get(r, 0))
                        assert pmf.prob(r) == pytest.approx(want, abs=1e-13)

    def test_normalization_sweep(self):
        for m in range(1, 201, 7):
            for d1 in {0, 1, m // 4, m // 2, m - 1, m}:
                for d2 in {0, 1, m // 3, m // 2, m}:
                    pmf = oracle.intersection_pmf(m, d1, d2)
                    assert abs(float(pmf.probs.sum()) - 1.0) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracle.intersection_pmf(5, 6, 2)


class TestIntersectionTail:
    def test_examples(self):
        assert oracle.intersection_tail(5, 2, 2, 1) == pytest.approx(0.7, abs=1e-14)
        # equality of s-sets
        for m, s in [(6, 2), (9, 3)]:
            assert oracle.intersection_tail(m, s, s, s) == pytest.approx(
                1 / math.comb(m, s), rel=1e-12
            )
        # forced overlap: d1 + d2 > m
        assert oracle.intersection_tail(4, 3, 3, 2) == pytest.approx(1.0)

    def test_s_zero_is_certain(self):
        assert oracle.intersection_tail(9, 2, 3, 0) == 1.0


class TestTailBounds:
    def test_small_example(self):
        b = oracle.intersection_tail_bounds(5, 2, 2, 1)
        assert (b.lower, b.upper) == (pytest.approx(0.6), pytest.approx(0.8))
        assert b.contains(oracle.intersection_tail(5, 2, 2, 1))

    def test_collapses_when_d1_equals_s(self):
        b = oracle.intersection_tail_bounds(12, 3, 7, 3)
        want = math.comb(7, 3) / math.comb(12, 3)
        assert b.lower == pytest.approx(want, rel=1e-12)
        assert b.upper == pytest.approx(want, rel=1e-12)

    def test_s_above_min_size(self):
        b = oracle.intersection_tail_bounds(10, 2, 8, 3)
        assert (b.lower, b.upper) == (0.0, 0.0)

    def test_exhaustive_sandwich_small(self):
        """No violation anywhere for m <= 12 (the m <= 25 sweep is an
        acceptance criterion; this keeps the unit suite quick)."""
        for m in range(1, 13):
            for d1 in range(1, m + 1):
                for d2 in range(d1, m + 1):
                    tail_pmf = oracle.intersection_pmf(m, d1, d2)
                    for s in range(1, d1 + 1):
                        exact = float(tail_pmf.probs[s:].sum())
                        b = oracle.intersection_tail_bounds(m, d1, d2, s)
                        assert b.lower <= exact + 1e-12
                        assert exact <= b.upper + 1e-12


def two_point_dist(m):
    return make_size_dist(Table([0, 0.5, 0.5]), m)


class TestExactActiveDegreePmf:
    def test_two_sets_of_four(self):
        d = make_size_dist(Degenerate(2), 4)
        pmf = oracle.exact_active_degree_pmf(d, 2, 4, 1)
        np.testing.assert_allclose(pmf.probs, [1 / 6, 5 / 6], atol=1e-14)

    def test_pigeonhole(self):
        d = make_size_dist(Degenerate(2), 3)
        pmf = oracle.exact_active_degree_pmf(d, 2, 3, 1)
        assert pmf.prob(1) == pytest.approx(1.0)

    def test_single_vertex(self):
        d = make_size_dist(Degenerate(2), 5)
        assert oracle.exact_active_degree_pmf(d, 1, 5, 1).prob(0) == 1.0

    def test_matches_brute_force(self):
        """Cross-oracle agreement on a tiny sweep (full sweep runs in the
        acceptance suite with its timing budget)."""
        for m in (3, 4):
            for n in (2, 3):
                for s in (1, 2):
                    for dist in (make_size_dist(Degenerate(2), m), two_point_dist(m)):
                        params = ModelParams(n=n, m=m, s=s, size_dist=dist)
                        exact = oracle.exact_active_degree_pmf(dist, n, m, s)
                        brute = oracle.brute_force_degree_pmf(params)
                        for k in range(max(exact.k_max, brute.k_max) + 1):
                            assert exact.prob(k) == pytest.approx(
                                brute.prob(k), abs=1e-12
                            )

    def test_mean_identity(self):
        d = two_point_dist(10)
        n, m, s = 7, 10, 1
        pmf = oracle.exact_active_degree_pmf(d, n, m, s)
        qbar = {
            x1: sum(
                d.prob(x) * oracle.intersection_tail(m, x1, x, s) for x in (1, 2)
            )
            for x1 in (1, 2)
        }
        want = (n - 1) * sum(d.prob(x1) * qbar[x1] for x1 in (1, 2))
        assert pmf.mean() == pytest.approx(want, abs=1e-10)


class TestExactPassiveLinksPmf:
    def test_always_covered(self):
        d = make_size_dist(Degenerate(3), 3)
        pmf = oracle.exact_passive_links_pmf(d, 1, 3)
        assert pmf.prob(2) == pytest.approx(1.0)

    def test_half_coverage(self):
        d = make_size_dist(Degenerate(2), 4)
        pmf = oracle.exact_passive_links_pmf(d, 1, 4)
        np.testing.assert_allclose(pmf.probs, [0.5, 0.5], atol=1e-14)

    def test_close_to_compound_poisson(self):
        d = make_size_dist(Degenerate(4), 100)
        links = oracle.exact_passive_links_pmf(d, 100, 100)
        cp = compound_poisson_pmf(CompoundPoissonSpec(4.0, DiscretePmf.point_mass(3)))
        assert tv_distance(links, cp) < 0.03

    def test_mean_identity(self):
        d = make_size_dist(Table([0.1, 0.3, 0.4, 0.2]), 12)
        n, m = 40, 12
        pmf = oracle.exact_passive_links_pmf(d, n, m)
        want = n * sum(d.prob(x) * max(x - 1, 0) * x / m for x in range(4))
        assert pmf.mean() == pytest.approx(want, abs=1e-9)

    def test_k_max_truncation_tracked(self):
        d = make_size_dist(Degenerate(4), 100)
        pmf = oracle.exact_passive_links_pmf(d, 100, 100, k_max=5)
        assert pmf.k_max == 5
        assert pmf.tail_mass > 0.1  # mean is 12; most mass sits past 5


class TestLeCamBound:
    def test_examples(self):
        assert oracle.lecam_bound([0.5]) == 0.5
        assert oracle.lecam_bound([]) == 0.0
        assert oracle.lecam_bound([0.1, 0.2]) == pytest.approx(0.1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            oracle.lecam_bound([1.5])

    def test_dominates_true_tv_binomial_vs_poisson(self):
        """2 n q^2 really bounds TV(Binomial(n, q), Poisson(nq))."""
        sp_stats = pytest.importorskip("scipy.stats")
        n = 10_000 - 1
        for q in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
            k = np.arange(0, int(n * q + 10 * math.sqrt(n * q + 1) + 20))
            binom = sp_stats.binom.pmf(k, n, q)
            pois = sp_stats.poisson.pmf(k, n * q)
            true_tv = 0.5 * np.abs(binom - pois).sum() + 0.5 * abs(
                (1 - binom.sum()) - (1 - pois.sum())
            )
            assert true_tv <= oracle.lecam_bound([q] * n) + 1e-12


class TestBruteForce:
    def test_active_pigeonhole(self):
        params = ModelParams(n=2, m=3, s=1, size_dist=make_size_dist(Degenerate(2), 3))
        pmf = oracle.brute_force_degree_pmf(params)
        assert pmf.prob(1) == pytest.approx(1.0)

    def test_passive_tiny_enumeration(self):
        params = ModelParams(
            n=2, m=3, s=1, size_dist=make_size_dist(Degenerate(2), 3), kind="passive"
        )
        pmf = oracle.brute_force_degree_pmf(params)
        # 9 equally likely configurations; attribute 0 sees degree
        # 0 once, 1 six times, 2 twice
        np.testing.assert_allclose(pmf.probs, [1 / 9, 6 / 9, 2 / 9], atol=1e-14)

    def test_passive_against_independent_enumerator(self):
        dist = two_point_dist(4)
        params = ModelParams(n=2, m=4, s=1, size_dist=dist, kind="passive")
        pmf = oracle.brute_force_degree_pmf(params)
        hist = {}
        sets_w = []
        for x in (1, 2):
            for combo in itertools.combinations(range(4), x):
                sets_w.append((set(combo), dist.prob(x) / math.comb(4, x)))
        for (s1, w1), (s2, w2) in itertools.product(sets_w, repeat=2):
            nbrs = set()
            for ss in (s1, s2):
                if 0 in ss:
                    nbrs |= ss - {0}
            hist[len(nbrs)] = hist.get(len(nbrs), 0.0) + w1 * w2
        for k, w in hist.items():
            assert pmf.prob(k) == pytest.approx(w, abs=1e-13)

    def test_budget_enforced(self):
        params = ModelParams(
            n=3, m=30, s=1, size_dist=make_size_dist(Degenerate(10), 30)
        )
        with pytest.raises(ValueError, match="budget"):
            oracle.brute_force_degree_pmf(params)

    def test_budget_refused_without_the_power(self):
        """120^(10^9) configurations are refused at once, not after
        forming a billion-digit integer."""
        params = ModelParams(n=10**9, m=10, s=1, size_dist=make_size_dist(Degenerate(3), 10))
        with pytest.raises(ValueError, match=r"^enumeration budget exceeded: 120\^1000000000 configurations > 10000000$"):
            oracle.brute_force_degree_pmf(params)


class TestDenseOverlapDiagnostics:
    def test_reference_point(self):
        d = oracle.dense_overlap_diagnostics(40, 0.1)
        assert d.ratio_prime == pytest.approx(43680 / 116280, abs=1e-12)
        assert d.bound == pytest.approx(0.8**4, rel=1e-12)
        assert d.ratio_prime <= d.bound
        assert d.tail_within_10pct

    def test_ratio_strictly_decreasing(self):
        values = [oracle.dense_overlap_diagnostics(m, 0.1).ratio_prime for m in (20, 40, 60, 80)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            oracle.dense_overlap_diagnostics(41, 0.1)  # odd m
        with pytest.raises(ValueError):
            oracle.dense_overlap_diagnostics(10, 0.13)  # non-integral x
        with pytest.raises(ValueError):
            oracle.dense_overlap_diagnostics(40, 0.6)  # x > m
