"""Distribution types, transforms and scaling constants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from riglab import model
from riglab.model import (
    BinomialSizes,
    Degenerate,
    DiscretePmf,
    ModelParams,
    SIZE_KINDS,
    Table,
    TruncatedPowerLaw,
    binomial,
    falling_factorial,
    log_binomial,
    make_size_dist,
    moments,
    scale_constants,
    size_biased,
    trim_tail,
)
from riglab.theory import passive_compound_spec, passive_regime_classify


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

    @pytest.mark.parametrize(
        "probs, tail, name",
        [
            ([0.5, np.nan], 0.0, "probs"),
            ([np.nan], 0.0, "probs"),
            ([1.0], np.nan, "tail_mass"),
            ([0.5, np.inf], 0.0, "probs and tail_mass"),
        ],
    )
    def test_nan_and_inf_rejected(self, probs, tail, name):
        """NaN fails every check, and the error names the field."""
        with pytest.raises(ValueError, match=f"^{name} "):
            DiscretePmf(np.array(probs), tail)

    def test_moments(self):
        p = DiscretePmf(np.array([0.25, 0.5, 0.25]))
        assert p.mean() == 1.0
        assert p.second_moment() == pytest.approx(1.5)

    def test_trim_tail_drops_light_trailing_run(self):
        probs = np.array([0.5, 0.3, 0.2 - 2e-9, 1e-9, 1e-9, 0.0])
        assert trim_tail(probs, 1e-8).tolist() == probs[:3].tolist()
        assert trim_tail(probs, 1e-9).tolist() == probs[:5].tolist()
        # a run of total mass below tol from the start keeps one entry
        assert trim_tail(np.array([1e-12, 1e-12]), 1e-10).tolist() == [1e-12]

    def test_truncated_records_the_missing_mass(self):
        p = DiscretePmf.truncated(np.array([0.5, 0.3, 0.2 - 2e-9, 1e-9]))
        assert p.k_max == 3 and p.tail_mass == pytest.approx(1e-9, abs=1e-15)
        trimmed = DiscretePmf.truncated(np.array([0.5, 0.3, 0.2 - 2e-9, 1e-9, 1e-9]), tol=1e-8)
        assert trimmed.k_max == 2 and trimmed.tail_mass == pytest.approx(2e-9, abs=1e-15)
        # rounding past 1 records no negative tail
        assert DiscretePmf.truncated(np.array([0.5, 0.5 + 1e-13])).tail_mass == 0.0


class TestMakeSizeDist:
    def test_degenerate(self):
        d = make_size_dist(Degenerate(5), 10)
        assert d.k_max == 5
        assert d.prob(5) == 1.0 and d.prob_ge(2) == 1.0
        assert list(d.support) == [5]

    def test_power_law_two_point(self):
        # weights 1/1^2 : 1/2^2 renormalize to 4/5, 1/5
        d = make_size_dist(TruncatedPowerLaw(2.0, 1, 2), 10)
        np.testing.assert_allclose([d.prob(1), d.prob(2)], [0.8, 0.2], atol=1e-15)

    def test_binomial(self):
        d = make_size_dist(BinomialSizes(4, 0.5), 10)
        np.testing.assert_allclose(
            d.probs, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15
        )

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_binomial_past_float_coefficients(self, p):
        """C(2000, 1000) exceeds a float: the terms go through log space."""
        d = make_size_dist(BinomialSizes(2000, p), 2000)
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert d.mean() == pytest.approx(2000 * p, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
    def test_binomial_million_trials(self, p):
        """Past 1029 trials each term is one log_binomial call, so 10^6
        trials build at once; p in {0, 1} is an exact point mass."""
        t = 10**6
        d = make_size_dist(BinomialSizes(t, p), t)
        assert d.k_max == t
        if p in (0.0, 1.0):
            assert d.support.tolist() == [round(p * t)] and d.prob(round(p * t)) == 1.0
        else:
            assert abs(d.probs.sum() - 1.0) < 1e-12
            assert d.mean() == pytest.approx(t * p, rel=1e-12)

    def test_binomial_exact_up_to_float_coefficients(self):
        """While every C(t, k) fits a float the term is the exact one."""
        t, p = 1029, 0.3
        want = np.array([math.comb(t, k) * p**k * (1 - p) ** (t - k) for k in range(t + 1)])
        np.testing.assert_array_equal(make_size_dist(BinomialSizes(t, p), t).probs, want / want.sum())

    def test_power_law_underflow_is_a_point_mass(self):
        """Every x^-gamma underflows at gamma = 1e9; weighted relative to
        x_min the law is the point mass at x_min, with no 0/0 warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = make_size_dist(TruncatedPowerLaw(1e9, 2, 3), 1000)
        assert d.support.tolist() == [2] and d.prob(2) == 1.0

    @pytest.mark.parametrize("cls", [Degenerate, Table, TruncatedPowerLaw, BinomialSizes])
    def test_size_kind_names_its_class(self, cls):
        assert SIZE_KINDS[cls.kind] is cls
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}

    def test_table_renormalizes(self):
        d = make_size_dist(Table([2.0, 2.0]), 5)
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

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

    def test_table_sum_past_float_range_rejected(self):
        """Finite weights whose sum overflows are rejected by name, with
        no overflow warning on the way."""
        with pytest.raises(ValueError, match="^table weights sum past"):
            make_size_dist(Table([0.5, 1e308, 1e308]), 10)

    def test_all_constructors_normalize(self):
        """Every constructed distribution sums to 1 within 1e-12."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = random_table_dist(rng)
            assert abs(d.probs.sum() - 1.0) <= 1e-12
        for gamma in (1.5, 2.0, 3.7, 4.5):
            d = make_size_dist(TruncatedPowerLaw(gamma, 1, 200), 500)
            assert abs(d.probs.sum() - 1.0) <= 1e-12
        for trials, p in [(10, 0.3), (50, 0.9), (3, 0.0)]:
            d = make_size_dist(BinomialSizes(trials, p), 60)
            assert abs(d.probs.sum() - 1.0) <= 1e-12


class TestMoments:
    def test_point_mass_five(self):
        mom = moments(make_size_dist(Degenerate(5), 10), 2)
        assert (mom.a1, mom.a2) == (10.0, 100.0)
        assert (mom.f2, mom.f3) == (20.0, 60.0)

    def test_empty_sets(self):
        mom = moments(make_size_dist(Degenerate(0), 10), 1)
        assert mom.a1 == mom.a2 == mom.f2 == mom.f3 == 0.0

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
        dp = scale_constants(d, 10_000, 10_000, 1)
        assert dp.support.tolist() == [2]
        assert dp.z[0] == pytest.approx(2.0, rel=1e-12)
        assert dp.mu1 == pytest.approx(2.0, rel=1e-12)
        assert dp.beta_active == pytest.approx(1.0, rel=1e-12)

    def test_empty_sets_zero_mean(self):
        d = make_size_dist(Degenerate(0), 10)
        dp = scale_constants(d, 100, 10, 1)
        assert dp.mu1 == 0.0

    def test_beta_exact_ratio(self):
        d = make_size_dist(Degenerate(5), 100)
        dp = scale_constants(d, 101, 100, 2)
        assert dp.beta_active == pytest.approx(4950 / 101, rel=1e-12)

    def test_n_star_counts_ge2(self):
        d = make_size_dist(Table([0.25, 0.25, 0.5]), 10)
        assert passive_regime_classify(1000, 10, d).n_star == pytest.approx(500.0)

    def test_z_scale_nondecreasing(self):
        d = make_size_dist(Table([1.0] * 31), 30)
        dp = scale_constants(d, 500, 30, 2)
        assert dp.support.tolist() == list(range(31))
        assert dp.z[:2].tolist() == [0.0, 0.0]  # C(x, 2) = 0 below x = 2
        assert all(b >= a for a, b in zip(dp.z, dp.z[1:]))

    def test_mu1_two_evaluation_orders(self):
        """The pushforward mean of exact z(x) = C(x, s) sqrt(n / C(m, s))
        over every size and the weighted sum over the support agree."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_table_dist(rng, m=40)
            dp = scale_constants(d, 777, 40, 2)
            zs = np.array([math.comb(x, 2) * math.sqrt(777 / math.comb(40, 2)) for x in range(d.probs.size)])
            pushforward = float(np.dot(d.probs, zs))
            assert abs(pushforward - dp.mu1) <= 1e-12 * max(1.0, abs(dp.mu1))

    @pytest.mark.parametrize("s", [1, 2, 3, 65])
    def test_z_and_mu1_match_per_size_log_binomials(self, s):
        """z and mu1 equal, float for float, the per-size formula
        exp(log C(x, s) + half_log) over log_binomial; s = 65 passes the
        exact branch's 64, so the larger sizes take the lgamma one."""
        rng = np.random.default_rng(s)
        for n, m in ((1, 400), (777, 400), (10**6, 10**4)):
            w = rng.random(300)
            w[rng.random(300) < 0.3] = 0.0
            w[[0, s - 1, s, s + 1, 299]] = 1.0  # sizes below s, x = s and x - s = 1
            d = make_size_dist(Table(w.tolist()), m)
            dp = scale_constants(d, n, m, s)
            half_log = 0.5 * (math.log(n) - log_binomial(m, s))
            ref = []
            for x in dp.support.tolist():
                lb = log_binomial(x, s)
                ref.append(0.0 if lb == -math.inf else math.exp(lb + half_log))
            assert dp.z.tolist() == ref
            assert dp.mu1 == float(np.dot(dp.weights, np.array(ref)))

    def test_beta_from_the_log_form_past_float_coefficients(self):
        """C(1030, 515) ~ e^710 overflows a float, C(1030, 515)/1e6 does
        not: beta comes from the log form and the law stays usable."""
        d = make_size_dist(Degenerate(515), 1030)
        dp = scale_constants(d, 10**6, 1030, 515)
        log_beta = log_binomial(1030, 515) - math.log(10**6)
        assert 695 < log_beta < 697
        assert dp.beta_active == math.exp(log_beta)
        assert dp.z.tolist() == [math.exp(0.5 * -log_beta)]

    def test_beta_underflow_keeps_the_law_usable(self):
        """C(10, 1)/1e620 underflows to beta = 0: the constants are still
        returned, with mu1/sqrt(beta) read as inf, not a division by 0."""
        d = make_size_dist(Degenerate(0), 10)
        dp = scale_constants(d, 10**620, 10, 1)
        assert (dp.beta_active, dp.mu1, dp.mu1_per_root_beta) == (0.0, 0.0, math.inf)

    def test_overflow_names_the_quantity(self):
        d = make_size_dist(Degenerate(1500), 3000)
        with pytest.raises(ValueError, match=r"^C\(m, s\)/n overflows a float"):
            scale_constants(d, 10**6, 3000, 1500)
        # n = 1e620 brings C(m, s)/n back to ~e^648, but z(3000) = sqrt(n C(m, s)) ~ e^1752
        d = make_size_dist(Degenerate(3000), 3000)
        with pytest.raises(ValueError, match=r"^z\(x\) overflows a float"):
            scale_constants(d, 10**620, 3000, 1500)


def fresh_scale_constants(d, n, m, s):
    """The scale constants computed anew, past the memo."""
    return model._scale_constants.__wrapped__(d.probs.tobytes(), n, m, s)


def assert_same_scale(got, want):
    for field in dataclasses.fields(model.DerivedParams):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


class TestScaleMemo:
    """``scale_constants`` memoises by value on (probs, n, m, s)."""

    LAWS = [
        (Degenerate(2), 10_000, 10_000, 1),
        (TruncatedPowerLaw(2.5, 1, 200), 200_000, 200_000, 1),
        (TruncatedPowerLaw(2.5, 1, 200), 200_000, 200_000, 2),
        (Table([0.0, 1.0, 2.0, 0.0, 3.0, 1.0]), 777, 40, 2),
        (BinomialSizes(40, 0.5), 1_000, 40, 3),
        # C(1030, 515) overflows a float: beta comes from the log form
        (Degenerate(515), 10**6, 1030, 515),
    ]

    @pytest.mark.parametrize("spec, n, m, s", LAWS)
    def test_memoised_equals_fresh_float_for_float(self, spec, n, m, s):
        d = make_size_dist(spec, m)
        first = scale_constants(d, n, m, s)
        assert_same_scale(first, fresh_scale_constants(d, n, m, s))
        assert scale_constants(d, n, m, s) is first
        # a second law object with the same probabilities shares the entry
        assert scale_constants(make_size_dist(spec, m), n, m, s) is first

    def test_derived_fields_use_the_readers_expressions(self):
        d = make_size_dist(TruncatedPowerLaw(2.5, 1, 200), 200_000)
        dp = scale_constants(d, 200_000, 200_000, 1)
        assert dp.ez2 == float(np.dot(dp.weights, dp.z * dp.z))
        assert dp.mu1_per_root_beta == dp.mu1 / math.sqrt(dp.beta_active)
        assert dp.lam.tolist() == (dp.z * dp.mu1).tolist()
        assert dp.log_lam.tolist() == [math.log(x) for x in dp.lam.tolist()]
        zero = scale_constants(make_size_dist(Table([1.0, 1.0, 1.0]), 10), 100, 10, 2)
        assert zero.lam[:2].tolist() == zero.log_lam[:2].tolist() == [0.0, 0.0]

    def test_other_n_m_or_s_is_a_distinct_entry(self):
        d = make_size_dist(Table([0.0, 1.0, 2.0, 3.0]), 40)
        base = scale_constants(d, 500, 40, 1)
        for n, m, s in ((501, 40, 1), (500, 41, 1), (500, 40, 2)):
            other = scale_constants(d, n, m, s)
            assert other is not base
            assert other.beta_active != base.beta_active
            assert_same_scale(other, fresh_scale_constants(d, n, m, s))
        assert scale_constants(d, 500, 40, 1).beta_active == base.beta_active

    def test_overflow_raises_again_and_is_not_stored(self):
        model._scale_constants.cache_clear()
        cases = [
            (make_size_dist(Degenerate(1500), 3000), 10**6, r"^C\(m, s\)/n overflows a float"),
            (make_size_dist(Degenerate(3000), 3000), 10**620, r"^z\(x\) overflows a float"),
        ]
        for d, n, message in cases:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    scale_constants(d, n, 3000, 1500)
        assert model._scale_constants.cache_info().currsize == 0

    def test_entry_count_stays_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scale_constants(random_table_dist(rng, m=40), 777, 40, 2)
        assert model._scale_constants.cache_info().currsize == model._SCALE_MEMO_SIZE

    def test_shared_arrays_are_read_only(self):
        dp = scale_constants(make_size_dist(Table([0.0, 1.0, 2.0]), 10), 100, 10, 1)
        for name in ("support", "weights", "z", "lam", "log_lam"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dp, name)[0] = 1
        assert dp.support.tolist() == [1, 2] and dp.support.dtype == np.intp


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
            ks = np.arange(q.probs.size)
            expected = float(np.dot(ks * (ks - 1), q.probs)) / q.mean()
            assert out.mean() == pytest.approx(expected, abs=1e-12)


class TestValueEquality:
    """Size laws and pmfs compare by value; they hold arrays, so they
    have no hash."""

    def test_size_distribution(self):
        a, b = (make_size_dist(Degenerate(3), 10) for _ in range(2))
        assert a == b and not a != b
        assert a != make_size_dist(Degenerate(4), 10)
        # the same law stored with a trailing zero is a different value
        assert a != make_size_dist(Table([0, 0, 0, 1, 0]), 10)
        assert a != 3

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
        values = [d, passive_compound_spec(d, 10, 10), ModelParams(n=5, m=10, s=1, size_dist=d)]
        for value in values:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)


class TestModelParamsValidation:
    def test_size_law_must_fit_m(self):
        """A law fits any m at or above its largest size; one with sizes
        above m, or with tail mass, is rejected."""
        d = make_size_dist(Degenerate(2), 10)
        assert ModelParams(n=5, m=2, s=1, size_dist=d).size_dist == d
        with pytest.raises(ValueError, match="above m=1"):
            ModelParams(n=5, m=1, s=1, size_dist=d)
        with pytest.raises(ValueError, match="tail mass"):
            ModelParams(n=5, m=10, s=1, size_dist=DiscretePmf(np.array([0.5, 0.4]), 0.1))

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
