"""Distribution types, transforms and scaling constants."""

import math

import numpy as np
import pytest

from riglab.model import (
    BinomialSizes,
    Degenerate,
    DiscretePmf,
    ModelParams,
    Table,
    TruncatedPowerLaw,
    binomial,
    conditional_ge2,
    derive_params,
    falling_factorial,
    log_binomial,
    make_size_dist,
    moments,
    size_biased,
    trim_tail,
)
from riglab.theory import passive_compound_spec


def generator_log_binomial(n, k):
    """log C(n, k) with the exact branch as a generator of
    log(n - i) terms: the reference for ``log_binomial``'s floats."""
    if n < 0 or k < 0 or k > n:
        return -math.inf
    kk = min(k, n - k)
    if kk == 0:
        return 0.0
    if kk <= 64:
        return math.fsum(math.log(n - i) for i in range(kk)) - math.lgamma(kk + 1)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def random_table_dist(rng, m=20, max_support=10):
    """Random finitely supported size distribution on {0..max_support}."""
    width = int(rng.integers(1, max_support + 1))
    w = rng.random(width + 1)
    w[rng.random(width + 1) < 0.3] = 0.0
    if w.sum() == 0:
        w[int(rng.integers(0, width + 1))] = 1.0
    return make_size_dist(Table(w.tolist()), m)


class TestBinomialCoefficients:
    def test_small_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            k = int(rng.integers(0, 65))
            assert binomial(n, k) == float(math.comb(n, k)) if k <= n else binomial(n, k) == 0.0

    def test_out_of_domain(self):
        assert binomial(5, -1) == 0.0
        assert binomial(5, 6) == 0.0
        assert log_binomial(5, 6) == -math.inf

    def test_log_matches_exact(self):
        for n, k in [(10, 3), (200, 71), (1000, 500)]:
            np.testing.assert_allclose(
                log_binomial(n, k), math.log(math.comb(n, k)), rtol=1e-12
            )

    def test_log_matches_generator_form_bitwise(self):
        """Every n < 3000 at every k with min(k, n - k) <= 65 (the exact
        branch and the first lgamma k on either side) and at every 97th
        k between: the exact branch sums the same terms, and fsum is
        correctly rounded, so the floats agree.  The lgamma branch is
        the same expression on both sides; sampling it keeps the test
        at a few seconds."""
        for n in range(3000):
            ks = {-1, n + 1, *range(min(n, 65) + 1), *range(max(0, n - 65), n + 1)}
            ks.update(range(66, n - 65, 97))
            for k in ks:
                assert log_binomial(n, k) == generator_log_binomial(n, k), (n, k)

    def test_log_matches_generator_form_near_1e9(self):
        """Both sides of the min(k, n - k) = 64/65 switch at n ~ 1e9."""
        for n in range(10**9 - 70, 10**9 + 70, 7):
            for k in [*range(67), *range(n - 66, n + 1)]:
                assert log_binomial(n, k) == generator_log_binomial(n, k), (n, k)

    def test_huge_arguments_do_not_overflow(self):
        # C(1e9, 5e8) has ~3e8 digits; the log path must stay finite
        lb = log_binomial(10**9, 5 * 10**8)
        assert math.isfinite(lb) and lb > 0
        assert binomial(10**9, 3) == pytest.approx(
            10**9 * (10**9 - 1) * (10**9 - 2) / 6, rel=1e-12
        )


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(2, 3) == 0
        assert falling_factorial(0, 0) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)
        with pytest.raises(ValueError):
            falling_factorial(3, -1)


class TestDiscretePmf:
    def test_point_mass(self):
        p = DiscretePmf.point_mass(3)
        assert p.prob(3) == 1.0 and p.prob(2) == 0.0 and p.prob(99) == 0.0
        assert p.mean() == 3.0 and p.tail_mass == 0.0

    def test_mass_accounting_enforced(self):
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0.5, 0.4]), 0.0)  # missing 0.1
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0.5, -0.5, 1.0]))
        DiscretePmf(np.array([0.5, 0.4]), 0.1)  # fine

    def test_moments(self):
        p = DiscretePmf(np.array([0.25, 0.5, 0.25]))
        assert p.mean() == 1.0
        assert p.second_moment() == pytest.approx(1.5)
        assert p.factorial_moment(2) == pytest.approx(0.5)

    def test_trim_tail_drops_light_trailing_run(self):
        probs = np.array([0.5, 0.3, 0.2 - 2e-9, 1e-9, 1e-9, 0.0])
        assert trim_tail(probs, 1e-8).tolist() == probs[:3].tolist()
        assert trim_tail(probs, 1e-9).tolist() == probs[:5].tolist()
        # a run of total mass below tol from the start keeps one entry
        assert trim_tail(np.array([1e-12, 1e-12]), 1e-10).tolist() == [1e-12]


class TestMakeSizeDist:
    def test_degenerate(self):
        d = make_size_dist(Degenerate(5), 10)
        assert d.support_max == 10
        assert d.prob(5) == 1.0 and d.prob_ge(2) == 1.0
        assert list(d.support) == [5]

    def test_power_law_two_point(self):
        # weights 1/1^2 : 1/2^2 renormalize to 4/5, 1/5
        d = make_size_dist(TruncatedPowerLaw(2.0, 1, 2), 10)
        np.testing.assert_allclose([d.prob(1), d.prob(2)], [0.8, 0.2], atol=1e-15)

    def test_binomial(self):
        d = make_size_dist(BinomialSizes(4, 0.5), 10)
        np.testing.assert_allclose(
            d.weights, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15
        )

    def test_table_renormalizes(self):
        d = make_size_dist(Table([2.0, 2.0]), 5)
        np.testing.assert_allclose(d.weights, [0.5, 0.5])

    def test_support_exceeding_m_rejected(self):
        with pytest.raises(ValueError):
            make_size_dist(Degenerate(11), 10)
        with pytest.raises(ValueError):
            make_size_dist(TruncatedPowerLaw(2.0, 1, 11), 10)
        with pytest.raises(ValueError):
            make_size_dist(Table([0.0] * 11 + [1.0]), 10)
        with pytest.raises(ValueError):
            make_size_dist(BinomialSizes(11, 0.5), 10)

    def test_non_normalizable_rejected(self):
        with pytest.raises(ValueError):
            make_size_dist(Table([0.0, 0.0]), 5)
        with pytest.raises(ValueError):
            make_size_dist(TruncatedPowerLaw(0.9, 1, 5), 10)
        with pytest.raises(ValueError):
            make_size_dist(TruncatedPowerLaw(2.0, 3, 2), 10)

    def test_all_constructors_normalize(self):
        """Every constructed distribution sums to 1 within 1e-12."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = random_table_dist(rng)
            assert abs(d.weights.sum() - 1.0) <= 1e-12
        for gamma in (1.5, 2.0, 3.7, 4.5):
            d = make_size_dist(TruncatedPowerLaw(gamma, 1, 200), 500)
            assert abs(d.weights.sum() - 1.0) <= 1e-12
        for trials, p in [(10, 0.3), (50, 0.9), (3, 0.0)]:
            d = make_size_dist(BinomialSizes(trials, p), 60)
            assert abs(d.weights.sum() - 1.0) <= 1e-12


class TestMoments:
    def test_point_mass_five(self):
        mom = moments(make_size_dist(Degenerate(5), 10), 2)
        assert (mom.a1, mom.a2) == (10.0, 100.0)
        assert (mom.f1, mom.f2, mom.f3) == (5.0, 20.0, 60.0)

    def test_empty_sets(self):
        mom = moments(make_size_dist(Degenerate(0), 10), 1)
        assert mom.a1 == mom.a2 == mom.f1 == mom.f2 == mom.f3 == 0.0

    def test_two_point_weighted_sum(self):
        mom = moments(make_size_dist(Table([0, 0, 0.5, 0, 0.5]), 10), 1)
        assert mom.a1 == pytest.approx(3.0)
        assert mom.a2 == pytest.approx(10.0)
        assert mom.f2 == pytest.approx(7.0)

    def test_cauchy_schwarz(self):
        """a1^2 <= a2 for every size distribution and threshold."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = random_table_dist(rng)
            for s in (1, 2, 3):
                mom = moments(d, s)
                assert mom.a1**2 <= mom.a2 * (1 + 1e-12) + 1e-15


class TestDeriveParams:
    def test_uniform_two(self):
        d = make_size_dist(Degenerate(2), 10_000)
        dp = derive_params(ModelParams(n=10_000, m=10_000, s=1, size_dist=d))
        assert dp.z_scale(2) == pytest.approx(2.0, rel=1e-12)
        assert dp.mu1 == pytest.approx(2.0, rel=1e-12)
        assert dp.beta_active == pytest.approx(1.0, rel=1e-12)

    def test_empty_sets_zero_mean(self):
        d = make_size_dist(Degenerate(0), 10)
        dp = derive_params(ModelParams(n=100, m=10, s=1, size_dist=d))
        assert dp.mu1 == 0.0

    def test_beta_exact_ratio(self):
        d = make_size_dist(Degenerate(5), 100)
        dp = derive_params(ModelParams(n=101, m=100, s=2, size_dist=d))
        assert dp.beta_active == pytest.approx(4950 / 101, rel=1e-12)

    def test_beta_star_reciprocal(self):
        d = make_size_dist(Degenerate(3), 50)
        dp = derive_params(ModelParams(n=320, m=50, s=1, size_dist=d))
        assert dp.beta_star * dp.beta_passive == pytest.approx(1.0, abs=1e-12)
        assert dp.n_star == 320.0

    def test_n_star_counts_ge2(self):
        d = make_size_dist(Table([0.25, 0.25, 0.5]), 10)
        dp = derive_params(ModelParams(n=1000, m=10, s=1, size_dist=d))
        assert dp.n_star == pytest.approx(500.0)

    def test_z_scale_nondecreasing(self):
        d = make_size_dist(Degenerate(4), 30)
        dp = derive_params(ModelParams(n=500, m=30, s=2, size_dist=d))
        zs = [dp.z_scale(x) for x in range(31)]
        assert all(b >= a for a, b in zip(zs, zs[1:]))

    def test_mu1_two_evaluation_orders(self):
        """Pushforward mean and the direct weighted sum must agree."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_table_dist(rng, m=40)
            dp = derive_params(ModelParams(n=777, m=40, s=2, size_dist=d))
            zs = np.array([dp.z_scale(int(x)) for x in range(d.weights.size)])
            pushforward = float(np.dot(d.weights, zs))
            assert abs(pushforward - dp.mu1) <= 1e-12 * max(1.0, abs(dp.mu1))


class TestSizeBiased:
    def test_point_mass_shifts_down(self):
        out = size_biased(DiscretePmf.point_mass(4))
        assert out.prob(3) == 1.0 and out.k_max == 3

    def test_zero_mean_convention(self):
        out = size_biased(DiscretePmf.point_mass(0))
        assert out.prob(0) == 1.0

    def test_two_point(self):
        out = size_biased(DiscretePmf(np.array([0.0, 0.5, 0.5])))
        np.testing.assert_allclose(np.asarray(out.probs), [1 / 3, 2 / 3], atol=1e-15)

    def test_mass_and_mean_identity(self):
        """Total mass stays 1 and mean(Q~) = E[Q(Q-1)] / E[Q]."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            w = rng.random(int(rng.integers(2, 9)))
            w /= w.sum()
            q = DiscretePmf(w)
            if q.mean() == 0:
                continue
            out = size_biased(q)
            assert abs(float(out.probs.sum()) + out.tail_mass - 1.0) <= 1e-12
            expected = q.factorial_moment(2) / q.mean()
            assert out.mean() == pytest.approx(expected, abs=1e-12)


class TestConditionalGe2:
    def test_examples(self):
        d = make_size_dist(Table([0.2, 0.3, 0.5]), 10)
        out = conditional_ge2(d)
        assert out.prob(2) == pytest.approx(1.0)

        d4 = make_size_dist(Degenerate(4), 10)
        np.testing.assert_allclose(conditional_ge2(d4).weights, d4.weights)

        quarter = make_size_dist(Table([0, 0.25, 0.25, 0.25, 0.25]), 10)
        out = conditional_ge2(quarter)
        np.testing.assert_allclose(
            [out.prob(k) for k in (2, 3, 4)], [1 / 3, 1 / 3, 1 / 3], atol=1e-15
        )

    def test_no_mass_is_error(self):
        d = make_size_dist(Table([0.5, 0.5]), 10)
        with pytest.raises(ValueError, match="no mass at or above 2"):
            conditional_ge2(d)


class TestValueEquality:
    """Size laws and pmfs compare by value; they hold arrays, so they
    have no hash."""

    def test_size_distribution(self):
        a, b = (make_size_dist(Degenerate(3), 10) for _ in range(2))
        assert a == b and not a != b
        assert a != make_size_dist(Degenerate(3), 11)
        assert a != make_size_dist(Degenerate(4), 10)
        # the same law stored with a trailing zero is a different value
        assert a != make_size_dist(Table([0, 0, 0, 1, 0]), 10)
        assert a != a.as_pmf() and a != 3

    def test_discrete_pmf(self):
        p = DiscretePmf(np.array([0.5, 0.4]), 0.1)
        assert p == DiscretePmf(np.array([0.5, 0.4]), 0.1)
        assert p != DiscretePmf(np.array([0.5, 0.5]), 0.0)
        assert p != DiscretePmf(np.array([0.5, 0.4, 0.0]), 0.1)
        assert DiscretePmf.point_mass(2) == size_biased(DiscretePmf.point_mass(3))

    def test_holders_compare_through_them(self):
        a, b = (make_size_dist(Table([0.2, 0.3, 0.5]), 10) for _ in range(2))
        assert passive_compound_spec(a, 30, 10) == passive_compound_spec(b, 30, 10)
        assert passive_compound_spec(a, 30, 10) != passive_compound_spec(a, 40, 10)
        assert ModelParams(n=5, m=10, s=1, size_dist=a) == ModelParams(n=5, m=10, s=1, size_dist=b)

    def test_unhashable(self):
        d = make_size_dist(Degenerate(3), 10)
        values = [d, d.as_pmf(), passive_compound_spec(d, 10, 10), ModelParams(n=5, m=10, s=1, size_dist=d)]
        for value in values:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)


class TestModelParamsValidation:
    def test_support_max_must_match_m(self):
        d = make_size_dist(Degenerate(2), 10)
        with pytest.raises(ValueError):
            ModelParams(n=5, m=11, s=1, size_dist=d)

    def test_s_bounds(self):
        d = make_size_dist(Degenerate(2), 10)
        with pytest.raises(ValueError):
            ModelParams(n=5, m=10, s=0, size_dist=d)
        with pytest.raises(ValueError):
            ModelParams(n=5, m=10, s=11, size_dist=d)

    def test_kind_checked(self):
        d = make_size_dist(Degenerate(2), 10)
        with pytest.raises(ValueError):
            ModelParams(n=5, m=10, s=1, size_dist=d, kind="sideways")
