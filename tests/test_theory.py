"""Closed-form laws: reference values, identities and dual-route checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riglab import theory
from riglab.cli import PRESETS, preset_config
from riglab.model import (
    Degenerate,
    DiscretePmf,
    Table,
    TruncatedPowerLaw,
    binomial,
    make_size_dist,
    moments,
    scale_constants,
    trim_tail,
)


def poisson_pmf(lam, k_max):
    ks = np.arange(k_max + 1)
    return np.exp(ks * math.log(lam) - lam - np.array([math.lgamma(k + 1) for k in ks]))


def random_dist(rng, m=60):
    """Random table distribution with some mass at sizes >= 1."""
    width = int(rng.integers(2, 9))
    w = rng.random(width + 1)
    w[0] *= 0.2
    return make_size_dist(Table((w / w.sum()).tolist()), m)


class TestActiveEdgeProb:
    def test_fixed_sizes(self):
        d = make_size_dist(Degenerate(10), 10**4)
        res = theory.active_edge_prob_asymptotic(d, 10**4, 1)
        assert res.value == pytest.approx(0.01, rel=1e-12)
        assert not res.clamped

    def test_single_joint(self):
        for m, s in [(30, 2), (12, 3)]:
            d = make_size_dist(Degenerate(s), m)
            res = theory.active_edge_prob_asymptotic(d, m, s)
            assert res.value == pytest.approx(1 / math.comb(m, s), rel=1e-12)

    def test_dense_value_flagged_and_sandwiched(self):
        d = make_size_dist(Degenerate(2), 5)
        res = theory.active_edge_prob_asymptotic(d, 5, 1)
        assert res.raw == pytest.approx(0.8, rel=1e-12)
        assert not res.clamped
        from riglab.oracle import intersection_tail, intersection_tail_bounds

        exact = intersection_tail(5, 2, 2, 1)
        assert exact == pytest.approx(0.7)
        assert intersection_tail_bounds(5, 2, 2, 1).contains(exact)

    def test_clamping(self):
        d = make_size_dist(Degenerate(4), 5)
        res = theory.active_edge_prob_asymptotic(d, 5, 1)
        assert res.clamped and res.value == 1.0 and res.raw > 1.0


class TestMixedPoissonDegreePmf:
    def test_degenerate_is_poisson(self):
        """Fixed sizes with z = mu: degree law is Poisson(mu^2)."""
        d = make_size_dist(Degenerate(2), 1000)
        pmf = theory.mixed_poisson_degree_pmf(d, 1000, 1000, 1)
        want = poisson_pmf(4.0, pmf.k_max)
        np.testing.assert_allclose(pmf.probs, want, atol=1e-12)

    def test_empty_sets(self):
        d = make_size_dist(Degenerate(0), 100)
        pmf = theory.mixed_poisson_degree_pmf(d, 50, 100, 1)
        assert pmf.prob(0) == pytest.approx(1.0)

    def test_two_point_mixture_term_by_term(self):
        d = make_size_dist(Table([0, 0.5, 0, 0.5]), 400)
        n, m, s = 400, 400, 1
        pmf = theory.mixed_poisson_degree_pmf(d, n, m, s)
        mu = 0.5 * 1 + 0.5 * 3  # z(x) = x at n = m, s = 1
        want = 0.5 * poisson_pmf(1 * mu, pmf.k_max) + 0.5 * poisson_pmf(3 * mu, pmf.k_max)
        np.testing.assert_allclose(pmf.probs, want, atol=1e-12)

    def test_normalizes_with_tail(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = random_dist(rng)
            pmf = theory.mixed_poisson_degree_pmf(d, 500, 60, 1)
            assert abs(float(pmf.probs.sum()) + pmf.tail_mass - 1.0) <= 1e-10
            assert pmf.tail_mass <= 2e-10

    def test_explicit_k_max(self):
        d = make_size_dist(Degenerate(2), 100)
        pmf = theory.mixed_poisson_degree_pmf(d, 100, 100, 1, k_max=3)
        assert pmf.k_max == 3 and pmf.tail_mass > 0


def loop_cap(lams, k_max):
    """Truncation point of the reference loop below."""
    if k_max is not None:
        return k_max
    cap = 5
    for lam in lams:
        cap = max(cap, int(lam + 12.0 * math.sqrt(lam + 1.0) + 30.0))
    return cap


def loop_mixed_poisson_pmf(scale, k_max):
    """The mixed Poisson pmf as one numpy pass per support size, summed
    in support order: the reference the row-block evaluation must
    reproduce bit for bit."""
    lams = scale.z * scale.mu1
    cap = loop_cap(lams, k_max)
    ks = np.arange(cap + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in ks])
    probs = np.zeros(cap + 1)
    for weight, lam in zip(scale.weights, lams):
        lam = float(lam)
        if lam <= 0.0:
            probs[0] += weight
        else:
            probs += weight * np.exp(ks * math.log(lam) - lam - log_fact)
    if k_max is None:
        probs = trim_tail(probs, theory.TAIL_TOL)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DiscretePmf(probs, tail)


def loop_alpha_k_curve(scale, k_max):
    p = loop_mixed_poisson_pmf(scale, k_max).probs
    ratio = scale.mu1 / math.sqrt(scale.beta_active)
    return {
        k: (1.0 / k) * ratio * float(p[k - 1]) / float(p[k])
        for k in range(2, k_max + 1)
        if p[k] > 0.0
    }


def assert_same_pmf(got, want):
    assert np.array_equal(got.probs, want.probs)
    assert got.tail_mass == want.tail_mass


class TestMixedPoissonRowBlocks:
    """The row-block pmf against the per-support loop, float for float."""

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 3.5, 4.0, 4.5])
    def test_wide_power_law_support(self, gamma):
        """200 support sizes at n = m = 200 000 span many default blocks."""
        n = m = 200_000
        d = make_size_dist(TruncatedPowerLaw(gamma, 1, 200), m)
        scale = scale_constants(d, n, m, 1)
        for k_max in (None, 0, 1):  # k_max = 0 sums one column over 200 rows
            got = theory.mixed_poisson_degree_pmf(d, n, m, 1, k_max=k_max)
            assert_same_pmf(got, loop_mixed_poisson_pmf(scale, k_max))
        curve = theory.alpha_k_active_curve(d, n, m, 1, 60)
        assert curve == loop_alpha_k_curve(scale, 60)
        # width 61 takes two row blocks, the two columns of one alpha^[k] one
        assert sorted(curve) == list(range(2, 61))
        assert all(theory.alpha_k_active(d, n, m, 1, k) == value for k, value in curve.items())

    @settings(deadline=None, max_examples=150)
    @given(
        weights=st.lists(st.integers(0, 4), min_size=1, max_size=30).filter(any),
        s=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 3_000),
        extra_m=st.integers(0, 200),
        k_max=st.none() | st.integers(0, 12),
        rows=st.integers(1, 3),
    )
    @example(weights=[1], s=1, n=10, extra_m=0, k_max=0, rows=3)  # all at zero intensity
    @example(weights=[1], s=1, n=10, extra_m=0, k_max=6, rows=2)  # no mass past degree 0
    @example(weights=[2, 1, 0, 3], s=2, n=40, extra_m=3, k_max=12, rows=1)  # sizes below s, k_max >= 2
    @example(weights=[0, 3, 1, 2, 0, 1], s=1, n=50, extra_m=5, k_max=0, rows=2)  # one column
    @example(weights=[1, 1, 1, 1, 1], s=3, n=400, extra_m=35, k_max=None, rows=1)  # sizes below s
    def test_matches_per_support_loop(self, weights, s, n, extra_m, k_max, rows):
        """Tables whose supports span several blocks of 1-3 rows, with
        sizes below s (zero intensity) and k_max both None and small.  A
        single alpha^[k], from the pmf columns k-1 and k alone, equals the
        curve's value, or raises the zero-mass error where it has none."""
        m = max(len(weights) - 1, s) + extra_m
        d = make_size_dist(Table(weights), m)
        scale = scale_constants(d, n, m, s)
        width = max(loop_cap(scale.z * scale.mu1, k_max) + 1, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theory, "_PMF_BLOCK_BYTES", 8 * width * (rows + 1))
            got = theory.mixed_poisson_degree_pmf(d, n, m, s, k_max=k_max)
            assert_same_pmf(got, loop_mixed_poisson_pmf(scale, k_max))
            if k_max is not None and k_max >= 2:
                curve = theory.alpha_k_active_curve(d, n, m, s, k_max)
                assert curve == loop_alpha_k_curve(scale, k_max)
                for k in range(2, k_max + 1):
                    if k in curve:
                        assert theory.alpha_k_active(d, n, m, s, k) == curve[k], k
                    else:
                        with pytest.raises(ValueError, match=f"^degree {k} has zero asymptotic mass$"):
                            theory.alpha_k_active(d, n, m, s, k)


class TestDegreeMoments:
    def test_plug_in(self):
        # z == 2: E d = 4, E d^2 = 4 * 4 + 4 = 20
        d = make_size_dist(Degenerate(2), 1000)
        ed, ed2 = theory.asymptotic_degree_moments(d, 1000, 1000, 1)
        assert ed == pytest.approx(4.0, rel=1e-12)
        assert ed2 == pytest.approx(20.0, rel=1e-12)

    def test_zero(self):
        d = make_size_dist(Degenerate(0), 10)
        assert theory.asymptotic_degree_moments(d, 10, 10, 1) == (0.0, 0.0)

    def test_match_numeric_moments_of_pmf(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = random_dist(rng)
            n, m, s = 60, 60, 1
            ed, ed2 = theory.asymptotic_degree_moments(d, n, m, s)
            pmf = theory.mixed_poisson_degree_pmf(d, n, m, s)
            assert pmf.mean() == pytest.approx(ed, abs=1e-8)
            assert pmf.second_moment() == pytest.approx(ed2, abs=1e-6)


class TestAlphaForms:
    def test_reference_values(self):
        d5 = make_size_dist(Degenerate(5), 1000)
        assert theory.alpha_active(d5, 1000, 2) == pytest.approx(0.1, rel=1e-12)
        ds = make_size_dist(Degenerate(3), 50)
        assert theory.alpha_active(ds, 50, 3) == pytest.approx(1.0)
        two = make_size_dist(Table([0, 0, 0.5, 0, 0.5]), 100)
        assert theory.alpha_active(two, 100, 1) == pytest.approx(0.3, rel=1e-12)

    def test_no_joints_error(self):
        d = make_size_dist(Degenerate(1), 10)
        with pytest.raises(ValueError, match="no vertex can hold a joint"):
            theory.alpha_active(d, 10, 2)

    def test_beta_form_explicit(self):
        # z == mu, beta: alpha = 1 / (mu sqrt(beta))
        d = make_size_dist(Degenerate(2), 40_000)
        n = 10_000  # beta = 4
        got = theory.alpha_active_beta_form(d, n, 40_000, 1)
        mu = 2 * math.sqrt(n / 40_000)
        assert got == pytest.approx(1 / (mu * 2.0), rel=1e-10)

    def test_from_degree_moments(self):
        assert theory.alpha_active_from_degree_moments(1.0, 4.0, 20.0) == pytest.approx(0.5)
        assert theory.alpha_active_from_degree_moments(4.0, 4.0, 20.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            theory.alpha_active_from_degree_moments(1.0, 4.0, 4.0)

    def test_three_way_identity(self):
        """All three clustering routes agree to 1e-10 (spot check; the
        100-distribution sweep is an acceptance criterion)."""
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 25:
            d = random_dist(rng)
            s = int(rng.integers(1, 3))
            n = int(rng.integers(10, 5000))
            m = 60
            if moments(d, s).a2 <= 0:
                continue
            a = theory.alpha_active(d, m, s)
            b = theory.alpha_active_beta_form(d, n, m, s)
            beta = binomial(m, s) / n
            ed, ed2 = theory.asymptotic_degree_moments(d, n, m, s)
            c = theory.alpha_active_from_degree_moments(beta, ed, ed2)
            assert abs(a - b) <= 1e-10 and abs(a - c) <= 1e-10
            checked += 1


class TestAlphaKActive:
    def test_constant_for_fixed_sizes(self):
        """Degenerate scale: alpha^[k] = 1/(mu sqrt(beta)), flat in k."""
        d = make_size_dist(Degenerate(2), 10_000)
        vals = [theory.alpha_k_active(d, 10_000, 10_000, 1, k) for k in range(2, 51)]
        assert vals[0] == pytest.approx(0.5, rel=1e-10)
        assert max(vals) - min(vals) <= 1e-12

    def test_single_joint_k2(self):
        # s-sets at beta = 1: Poisson(1) degrees, p1/p2 = 2, alpha = 1
        m, s = 300, 2
        n = math.comb(m, s)
        d = make_size_dist(Degenerate(s), m)
        assert theory.alpha_k_active(d, n, m, s, 2) == pytest.approx(1.0, rel=1e-9)

    def test_power_law_k_scaling(self):
        """alpha^[k] * k approaches beta^(-1/2) E[z] from above as k grows."""
        d = make_size_dist(TruncatedPowerLaw(4.5, 1, 200), 5000)
        n = m = 5000
        mu = sum(d.prob(x) * x for x in range(1, 201))
        ratios = [
            theory.alpha_k_active(d, n, m, 1, k) * k / mu for k in (10, 20, 40, 80)
        ]
        assert all(r > 1 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == pytest.approx(1.0, abs=0.15)

    def test_zero_mass_error(self):
        d = make_size_dist(Degenerate(0), 10)
        with pytest.raises(ValueError, match="zero asymptotic mass"):
            theory.alpha_k_active(d, 10, 10, 1, 5)

    @pytest.mark.parametrize(
        "weights, n, m, s",
        [
            ({2: 0.7, 9: 0.3}, 500, 200, 1),
            ({3: 0.5, 4: 0.3, 12: 0.2}, 900, 60, 2),
        ],
    )
    def test_curve_against_term_by_term_reference(self, weights, n, m, s):
        """alpha^[k] = (1/k) (mu1/sqrt(beta)) p_{k-1}/p_k, with z, mu1,
        beta and the mixed Poisson pmf rebuilt here from exact binomials."""
        k_max = 25
        table = [0.0] * (max(weights) + 1)
        for x, w in weights.items():
            table[x] = w
        d = make_size_dist(Table(table), m)
        beta = math.comb(m, s) / n
        z = {x: math.comb(x, s) / math.sqrt(beta) for x in weights}
        mu1 = sum(w * z[x] for x, w in weights.items())
        p = sum(w * poisson_pmf(z[x] * mu1, k_max) for x, w in weights.items())
        curve = theory.alpha_k_active_curve(d, n, m, s, k_max)
        assert sorted(curve) == list(range(2, k_max + 1))
        for k, value in curve.items():
            ref = (1.0 / k) * (mu1 / math.sqrt(beta)) * p[k - 1] / p[k]
            assert value == pytest.approx(ref, rel=1e-12)
            assert theory.alpha_k_active(d, n, m, s, k) == value

    def test_curve_omits_zero_mass_degrees(self):
        assert theory.alpha_k_active_curve(make_size_dist(Degenerate(0), 10), 10, 10, 1, 8) == {}
        # intensity n/m = 1e-4: p_k underflows to 0 well before k = 80
        d = make_size_dist(Degenerate(1), 100_000)
        probs = theory.mixed_poisson_degree_pmf(d, 10, 100_000, 1, k_max=80).probs
        curve = theory.alpha_k_active_curve(d, 10, 100_000, 1, 80)
        assert probs[80] == 0.0 and 80 not in curve
        assert sorted(curve) == [k for k in range(2, 81) if probs[k] > 0.0]

    def test_curve_needs_k_max_two(self):
        d = make_size_dist(Degenerate(2), 100)
        with pytest.raises(ValueError, match="k_max must be >= 2"):
            theory.alpha_k_active_curve(d, 100, 100, 1, 1)


class TestPassiveCompoundSpec:
    def test_fixed_size_four(self):
        d = make_size_dist(Degenerate(4), 1000)
        spec = theory.passive_compound_spec(d, 1000, 1000)
        assert spec.lam == pytest.approx(4.0)
        assert spec.jump_pmf.prob(3) == 1.0

    def test_empty(self):
        d = make_size_dist(Degenerate(0), 10)
        spec = theory.passive_compound_spec(d, 10, 10)
        assert spec.lam == 0.0 and spec.jump_pmf.prob(0) == 1.0

    def test_two_point(self):
        d = make_size_dist(Table([0, 0.5, 0, 0.5]), 100)
        spec = theory.passive_compound_spec(d, 100, 100)
        assert spec.lam == pytest.approx(2.0)
        assert spec.jump_pmf.prob(0) == pytest.approx(0.25)
        assert spec.jump_pmf.prob(2) == pytest.approx(0.75)


class TestCompoundPoissonPmf:
    def test_lattice_values(self):
        spec = theory.CompoundPoissonSpec(2.0, DiscretePmf.point_mass(3))
        pmf = theory.compound_poisson_pmf(spec)
        assert pmf.prob(0) == pytest.approx(math.exp(-2), rel=1e-12)
        assert pmf.prob(3) == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert pmf.prob(1) == 0.0 and pmf.prob(2) == 0.0

    def test_zero_rate(self):
        spec = theory.CompoundPoissonSpec(0.0, DiscretePmf.point_mass(3))
        assert theory.compound_poisson_pmf(spec).prob(0) == 1.0

    def test_against_direct_mixture_convolution(self):
        """Recursion output == sum_t Pois_t(lam) * (jump pmf)^(*t)."""
        rng = np.random.default_rng(3)
        for _ in range(6):
            w = rng.random(int(rng.integers(2, 6)))
            jump = DiscretePmf(w / w.sum())
            lam = float(rng.uniform(0.2, 5.0))
            pmf = theory.compound_poisson_pmf(theory.CompoundPoissonSpec(lam, jump))
            direct = np.zeros(pmf.k_max + 1)
            conv = np.zeros(pmf.k_max + 1)
            conv[0] = 1.0
            t, weight = 0, math.exp(-lam)
            while weight > 1e-14 or t < lam:
                direct += weight * conv
                full = np.convolve(conv, np.asarray(jump.probs))[: pmf.k_max + 1]
                conv = np.zeros(pmf.k_max + 1)
                conv[: full.size] = full
                t += 1
                weight *= lam / t
            np.testing.assert_allclose(pmf.probs, direct, atol=1e-10)

    def test_moment_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = rng.random(4)
            jump = DiscretePmf(w / w.sum())
            spec = theory.CompoundPoissonSpec(float(rng.uniform(0.5, 6)), jump)
            pmf = theory.compound_poisson_pmf(spec)
            assert pmf.mean() == pytest.approx(spec.mean(), abs=1e-8)


class TestAlphaPassive:
    def test_finite_reference(self):
        d = make_size_dist(Degenerate(3), 1000)
        assert theory.alpha_passive_finite(d, 1000, 1000) == pytest.approx(
            6.216 / 42, rel=1e-12
        )

    def test_no_triples_vanishes_like_f2_over_m(self):
        # sizes fixed at 2: f3 = 0, expression collapses to f2 / m
        for m in (100, 1000, 10_000):
            d = make_size_dist(Degenerate(2), m)
            assert theory.alpha_passive_finite(d, m, m) == pytest.approx(2 / m, rel=1e-12)

    def test_finite_approaches_limit(self):
        d = make_size_dist(Degenerate(3), 10**6)
        finite = theory.alpha_passive_finite(d, 10**6, 10**6)
        assert finite == pytest.approx(1 / 7, abs=1e-4)

    def test_finite_rejects_dense_regime(self):
        """Past n E[(X)_2] = m^2 the formula would read above 1; at the
        edge it reads exactly 1."""
        d = make_size_dist(Degenerate(2), 10)
        with pytest.raises(ValueError, match=r"sparse regime: n E\[\(X\)_2\] = 200 > m\^2 = 100"):
            theory.alpha_passive_finite(d, 100, 10)
        assert theory.alpha_passive_finite(d, 50, 10) == 1.0
        assert theory.alpha_passive_finite(d, 49, 10) < 1.0

    def test_limit_reference(self):
        spec = theory.CompoundPoissonSpec(3.0, DiscretePmf.point_mass(2))
        assert theory.alpha_passive_limit(spec) == pytest.approx(1 / 7, rel=1e-12)

    def test_limit_is_zero_when_every_jump_is_one(self):
        """Sets of size 2 at n = 1, m = 10**15: every jump J is 1, so
        E[(J)_2] = 0 and the limit is exactly 0.  The difference of
        degree moments E[(d)_2] - (E d)^2 cancelled here to -0.0141."""
        d = make_size_dist(Degenerate(2), 10**15)
        assert theory.alpha_passive_limit(theory.passive_compound_spec(d, 1, 10**15)) == 0.0

    def test_limit_degenerate_error(self):
        spec = theory.CompoundPoissonSpec(3.0, DiscretePmf.point_mass(0))
        with pytest.raises(ValueError, match="no two-stars"):
            theory.alpha_passive_limit(spec)

    def test_size_moment_identities(self):
        """E[(X)_2] = beta lam E[J] and E[(X)_3] = beta lam E[(J)_2] for
        the jump law J of the passive degree."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = random_dist(rng)
            n, m = int(rng.integers(50, 4000)), 60
            beta = m / n
            mom = moments(d, 1)
            spec = theory.passive_compound_spec(d, n, m)
            ej, ej2 = spec.jump_pmf.mean(), spec.jump_pmf.second_moment()
            assert mom.f2 == pytest.approx(beta * spec.lam * ej, abs=1e-10, rel=1e-10)
            assert mom.f3 == pytest.approx(beta * spec.lam * (ej2 - ej), abs=1e-9, rel=1e-9)


def dp_alpha_k_curve(spec, k_max, count_tail_tol=1e-12):
    """Independent route to alpha*[k]: an exact bivariate dynamic program
    over the joint law of (total, sum of within-jump pairs).  Each jump
    adds (j, j (j-1)) with probability f_j, the Poisson count is cut where
    its tail drops below ``count_tail_tol``, and
    alpha*[k] = E[pair sum | total = k] / (k (k-1)).  Needs lam > 0.
    """
    f = np.asarray(spec.jump_pmf.probs, dtype=float)
    s2_cap = k_max * (k_max - 1)
    joint = np.zeros((k_max + 1, s2_cap + 1))  # law of (total, pair sum) after t jumps
    joint[0, 0] = 1.0
    acc = np.zeros_like(joint)
    t, cdf = 0, 0.0
    while True:
        weight = math.exp(t * math.log(spec.lam) - spec.lam - math.lgamma(t + 1))
        acc += weight * joint
        cdf += weight
        if 1.0 - cdf < count_tail_tol:
            break
        t += 1
        nxt = f[0] * joint
        for j in range(1, min(f.size - 1, k_max) + 1):
            j2 = j * (j - 1)
            nxt[j:, j2:] += f[j] * joint[:-j, : s2_cap + 1 - j2]
        joint = nxt
    out = {}
    for k in range(2, k_max + 1):
        pk = acc[k].sum()
        if pk > 0.0:
            out[k] = float(np.dot(np.arange(s2_cap + 1), acc[k]) / pk) / (k * (k - 1))
    return out


class TestAlphaKPassive:
    def test_fixed_size_reference_points(self):
        d = make_size_dist(Degenerate(4), 1000)
        spec = theory.passive_compound_spec(d, 1000, 1000)
        curve = theory.alpha_k_passive_curve(spec, 9)
        assert curve[6] == pytest.approx(0.4, abs=1e-10)
        assert curve[3] == pytest.approx(1.0, abs=1e-10)
        assert curve[9] == pytest.approx(0.25, abs=1e-10)

    def test_fixed_size_closed_form_everywhere(self):
        """alpha*[k] = (x-2)/(k-1) at every reachable k = t (x-1)."""
        for x in (3, 4, 6):
            d = make_size_dist(Degenerate(x), 500)
            spec = theory.passive_compound_spec(d, 500, 500)
            curve = theory.alpha_k_passive_curve(spec, 7 * (x - 1))
            for t in range(1, 8):
                k = t * (x - 1)
                if k < 2:
                    continue
                want = (x - 2) / (k - 1)
                assert curve[k] == pytest.approx(want, abs=1e-10)

    def test_pair_sets_have_zero_triangles(self):
        d = make_size_dist(Degenerate(2), 300)
        spec = theory.passive_compound_spec(d, 300, 300)
        curve = theory.alpha_k_passive_curve(spec, 5)
        for k in (2, 3, 5):
            assert curve[k] == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_degree_errors(self):
        d = make_size_dist(Degenerate(4), 100)
        spec = theory.passive_compound_spec(d, 100, 100)
        # only multiples of 3 are reachable: the curve omits the rest
        assert sorted(theory.alpha_k_passive_curve(spec, 7)) == [3, 6]

    def test_against_palm_identity(self):
        """The Palm-formula curve equals the independent bivariate DP."""
        rng = np.random.default_rng(21)
        for _ in range(8):
            w = rng.random(int(rng.integers(3, 7)))
            w[0] *= 0.1
            d = make_size_dist(Table((w / w.sum()).tolist()), 200)
            if d.mean() == 0:
                continue
            spec = theory.passive_compound_spec(d, int(rng.integers(50, 400)), 200)
            curve = theory.alpha_k_passive_curve(spec, 12)
            reference = dp_alpha_k_curve(spec, 12)
            # the DP's count cut can drop degrees of mass below 1e-12
            assert reference and reference.keys() <= curve.keys()
            for k, want in reference.items():
                assert curve[k] == pytest.approx(want, abs=1e-11)


def law_case(name):
    """(size law, n, m) of a preset, or of a small table law."""
    if name == "table":
        return make_size_dist(Table([0, 0.5, 0.5]), 400), 800, 400
    cfg = preset_config(name)
    return cfg.size_dist, cfg.n, cfg.m


def direct_laws(kind, dist, n, m, s):
    """(degree pmf, alpha, alpha^[k] curve) of ``kind`` by direct theory
    calls, each taking the k_max its row takes."""
    if kind == "active":
        return (
            lambda k_max: theory.mixed_poisson_degree_pmf(dist, n, m, s, k_max=k_max),
            lambda: theory.alpha_active(dist, m, s),
            lambda k_max: theory.alpha_k_active_curve(dist, n, m, s, k_max),
        )
    spec = theory.passive_compound_spec(dist, n, m)
    return (
        lambda k_max: theory.compound_poisson_pmf(spec, k_max=k_max),
        lambda: theory.alpha_passive_finite(dist, n, m),
        lambda k_max: theory.alpha_k_passive_curve(spec, k_max),
    )


def outcome(call, *args):
    """A law's value as exactly comparable data, or the ValueError it raises."""
    try:
        value = call(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(value, DiscretePmf):
        return value.probs.tolist(), value.tail_mass
    return value


class TestLimitLaws:
    @pytest.mark.parametrize("name", [*sorted(PRESETS), "table"])
    @pytest.mark.parametrize("kind, s", [("active", 1), ("active", 2), ("passive", 1)])
    def test_row_equals_the_direct_calls(self, name, kind, s):
        dist, n, m = law_case(name)
        row = theory.limit_laws(kind, s)
        degree_pmf, alpha, alpha_k_curve = direct_laws(kind, dist, n, m, s)
        for k_max in (None, 12):
            assert outcome(row.degree_pmf, dist, n, m, s, k_max) == outcome(degree_pmf, k_max)
        assert outcome(row.alpha, dist, n, m, s) == outcome(alpha)
        assert outcome(row.alpha_k_curve, dist, n, m, s, 12) == outcome(alpha_k_curve, 12)

    def test_passive_threshold_two_and_up_has_no_row(self):
        assert theory.limit_laws("passive", 2) is None
        assert theory.limit_laws("passive", 3) is None
        assert theory.limit_laws("active", 3) is not None

    def test_dense_passive_alpha_raises(self):
        """n E[(X)_2] = 200 > m^2 = 100: the row's alpha raises like
        ``alpha_passive_finite``, so a report's clustering law reads null."""
        d = make_size_dist(Degenerate(2), 10)
        with pytest.raises(ValueError, match="sparse regime"):
            theory.limit_laws("passive", 1).alpha(d, 100, 10, 1)


class TestPoissonApproxStats:
    def test_uniform_sizes(self):
        stats = theory.poisson_approx_stats([10] * 101, 100, 1)
        assert stats.lambda_bar == pytest.approx(100.0, rel=1e-12)

    def test_all_sizes_at_threshold(self):
        stats = theory.poisson_approx_stats([3] * 50, 20, 3)
        assert stats.kappa2 == 0.0

    def test_half_overlap_regime_kappa2_formula(self):
        """Uniform x = (eps + 1/2) m at s = m/2 with n tuned so the mean
        is ~1: kappa2 = eps^2 m / (0.5 - eps) * lambda, large while the
        mean stays put."""
        m, eps = 40, 0.1
        s, x = 20, 24
        p_star = binomial(x, s) ** 2 / binomial(m, s)
        n = max(2, round(1.0 / p_star) + 1)
        stats = theory.poisson_approx_stats([x] * n, m, s)
        lam = (n - 1) * p_star
        want = eps * eps * m / (0.5 - eps) * lam
        assert stats.lambda_bar == pytest.approx(lam, rel=1e-9)
        assert stats.kappa2 == pytest.approx(want, rel=1e-9)
        assert stats.kappa2 > 0.9  # large relative to a vanishing statistic

    def test_full_set_divides_by_zero(self):
        stats = theory.poisson_approx_stats([20, 5, 5], 20, 2)
        assert math.isinf(stats.kappa2)

    @settings(deadline=None, max_examples=200)
    @given(
        data=st.integers(1, 12).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.integers(1, m),
                st.lists(st.integers(0, m), min_size=2, max_size=40),
            )
        ),
        kind=st.sampled_from([list, tuple, np.array]),
    )
    @example(data=(6, 2, [6, 0, 1, 6, 3]), kind=list)  # x1 = m: kappa2 = inf
    @example(data=(6, 4, [0, 3, 6, 2]), kind=tuple)  # x1 = 0 and s > x
    @example(data=(5, 5, [5, 5, 4]), kind=np.array)  # s = m = x1, s > x
    def test_matches_per_actor_loop(self, data, kind):
        """Tabulated C(x, s) gives the floats of the per-actor loop,
        summed in the same order, for any sequence type."""
        m, s, sizes = data
        got = theory.poisson_approx_stats(kind(sizes), m, s)
        big_m = binomial(m, s)
        u = binomial(sizes[0], s) * np.array([binomial(x, s) for x in sizes[1:]])
        x1p = max(0, sizes[0] - s)
        if x1p == 0:
            kappa2 = 0.0
        elif sizes[0] == m:
            kappa2 = math.inf
        else:
            xkp = np.array([max(0, x - s) for x in sizes[1:]], dtype=float)
            kappa2 = float(x1p / (m - sizes[0]) * np.dot(u, xkp) / big_m)
        assert got.lambda_bar == float(u.sum() / big_m)
        assert got.kappa1 == float(np.dot(u, u) / (big_m * big_m))
        assert got.kappa2 == kappa2

    def test_validation(self):
        with pytest.raises(ValueError):
            theory.poisson_approx_stats([5], 10, 1)
        with pytest.raises(ValueError):
            theory.poisson_approx_stats([5, 11], 10, 1)


class TestThresholdAboveM:
    """s > m leaves C(m, s) = 0: no two sets can share s attributes, and
    every law below would divide by zero, so each rejects it."""

    DIST = make_size_dist(Degenerate(5), 5)

    def test_poisson_approx_stats(self):
        with pytest.raises(ValueError, match="s must"):
            theory.poisson_approx_stats([5, 5], 5, 7)
        assert theory.poisson_approx_stats([5, 5], 5, 5).lambda_bar == 1.0

    def test_edge_prob(self):
        with pytest.raises(ValueError, match="s must"):
            theory.active_edge_prob_asymptotic(self.DIST, 5, 7)
        assert theory.active_edge_prob_asymptotic(self.DIST, 5, 5).raw == 1.0

    def test_scale_constants_and_degree_pmf(self):
        with pytest.raises(ValueError, match="s must"):
            scale_constants(self.DIST, 10, 5, 7)
        with pytest.raises(ValueError, match="s must"):
            theory.mixed_poisson_degree_pmf(self.DIST, 10, 5, 7)
        assert scale_constants(self.DIST, 10, 5, 5).beta_active == pytest.approx(0.1)


class TestOutOfDomain:
    """A threshold below 1 or a set count below 1 lies outside the model;
    each law rejects it with an error that names the parameter."""

    DIST = make_size_dist(Degenerate(2), 10)

    @pytest.mark.parametrize("s", [0, -1])
    def test_threshold_below_one(self, s):
        with pytest.raises(ValueError, match="^s must"):
            theory.alpha_active(self.DIST, 10, s)
        with pytest.raises(ValueError, match="^s must"):
            theory.poisson_approx_stats([2, 2], 10, s)

    @pytest.mark.parametrize("n", [0, -5])
    def test_set_count_below_one(self, n):
        with pytest.raises(ValueError, match="^n must"):
            theory.alpha_passive_finite(self.DIST, n, 10)
        with pytest.raises(ValueError, match="^n must"):
            theory.passive_compound_spec(self.DIST, n, 10)

    def test_attribute_count_below_one(self):
        with pytest.raises(ValueError, match="^m must"):
            theory.alpha_passive_finite(self.DIST, 10, 0)
        with pytest.raises(ValueError, match="^m must"):
            theory.passive_compound_spec(self.DIST, 10, 0)

    def test_smallest_valid_values_pass(self):
        assert theory.alpha_active(self.DIST, 10, 1) == 0.5  # 1 / C(2, 1)
        assert theory.poisson_approx_stats([2, 2], 10, 1).lambda_bar == pytest.approx(0.4)
        assert theory.passive_compound_spec(self.DIST, 1, 10).lam == pytest.approx(0.2)
        assert theory.alpha_passive_finite(self.DIST, 1, 10) > 0


class TestRegimeClassify:
    def test_labels(self):
        d3 = make_size_dist(Degenerate(3), 10**6)
        assert theory.passive_regime_classify(100, 10**6, d3).case_label == "m_dominates"
        d4 = make_size_dist(Degenerate(4), 10**3)
        assert (
            theory.passive_regime_classify(10**6, 10**3, d4).case_label
            == "n_star_dominates"
        )
        d4b = make_size_dist(Degenerate(4), 10**5)
        rep = theory.passive_regime_classify(10**5, 10**5, d4b)
        assert rep.case_label == "balanced"
        assert rep.n_star == pytest.approx(10**5)

    def test_n_star_small(self):
        # plenty of sets but almost none of size >= 2
        d = make_size_dist(Table([0.5, 0.4995, 0.0005]), 10**4)
        rep = theory.passive_regime_classify(10**5, 10**4, d)
        assert rep.case_label == "n_star_small"
        assert "n_star" in rep.advice or rep.advice
