"""Closed-form asymptotic laws for sparse intersection graphs.

Actor ("active") side: the degree of a typical vertex is asymptotically
mixed Poisson with random intensity z(X) * mu1, where z is the rescaled
joint count and mu1 its mean; the clustering coefficient collapses to
a1/a2 and can equivalently be written in terms of the scale ratio beta
or of the asymptotic degree moments.  Conditioned on degree k it decays
like c/k for heavy-tailed sizes.

The mixed Poisson pmf is evaluated over a range [lo, hi] of degree
columns, as array passes over blocks of support rows, each row one
size's weighted Poisson(z(x) mu1) pmf on those columns, in one buffer of
at most ``_PMF_BLOCK_BYTES``.  Row 0 of the buffer carries the running
sum, and a reduce over axis 0 adds the rows in support order, so the
floats equal those of one pass per size, whatever the range.  The pmf
reads [0, cap], the alpha^[k] curve [0, k_max] and a single alpha^[k]
only [k-1, k].  Each row's intensity z(x) mu1 and its ``math.log`` are
scale constants: :func:`riglab.model.scale_constants` computes them once
per (size law, n, m, s) and hands every later call the same memoised
instance.  So a warm alpha^[k] costs two pmf columns, 2 |support|
array exps and no Python call per size; only the first call for a law
pays the per-size ``math.log``/``math.exp`` maps.  A size with zero
intensity puts its weight at k = 0.

Attribute ("passive") side, threshold 1: the degree is asymptotically
compound Poisson, with Poisson count mean (n/m) E[X] and jumps drawn
from the size-biased-and-shifted size law.  Clustering again has a
closed form in falling-factorial moments, and conditioned on degree k
it equals E[sum of within-jump pairs | total = k] / (k (k-1)).

Every value here is an asymptotic prediction evaluated at finite (n, m):
the o(1) corrections are dropped, except for the finite-size clustering
formula ``alpha_passive_finite`` which keeps its 1/m term.

A graph kind's limit laws are one :class:`LimitLaws` row: its degree
pmf, alpha and alpha^[k] curve, all called as (dist, n, m, s, ...).
:func:`limit_laws` looks the row up, and is the one place that states
which parameters have no limit law: the attribute graph's laws hold at
threshold 1 only, so passive s >= 2 is construction only and has no row.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    DerivedParams,
    DiscretePmf,
    SizeDistribution,
    binomial,
    moments,
    scale_constants,
    size_biased,
    truncation_point,
)

__all__ = [
    "TAIL_TOL",
    "ClampedProbability",
    "CompoundPoissonSpec",
    "LimitLaws",
    "RegimeReport",
    "PoissonApproxStats",
    "active_edge_prob_asymptotic",
    "mixed_poisson_degree_pmf",
    "asymptotic_degree_moments",
    "alpha_active",
    "alpha_active_beta_form",
    "alpha_active_from_degree_moments",
    "alpha_k_active",
    "alpha_k_active_curve",
    "passive_compound_spec",
    "compound_poisson_pmf",
    "alpha_passive_finite",
    "alpha_passive_limit",
    "alpha_k_passive_curve",
    "limit_laws",
    "poisson_approx_stats",
    "passive_regime_classify",
]

TAIL_TOL = 1e-10  # auto-truncation target for returned pmfs
_REGIME_RATIO = 0.01  # "<<" convention for regime classification
_PMF_BLOCK_BYTES = 1 << 16  # row block of the mixed Poisson pmf, running-sum row included


@dataclass(frozen=True)
class ClampedProbability:
    """A probability-valued formula together with its raw value.

    ``clamped`` flags that the raw expression left [0, 1] (the formula is
    asymptotic; outside the sparse regime it can exceed 1).
    """

    value: float
    raw: float
    clamped: bool


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Compound Poisson law: a Poisson(lam) number of i.i.d. jumps."""

    lam: float
    jump_pmf: DiscretePmf

    def __post_init__(self) -> None:
        if self.lam < 0 or not math.isfinite(self.lam):
            raise ValueError("lam must be finite and >= 0")

    def mean(self) -> float:
        return self.lam * self.jump_pmf.mean()


@dataclass(frozen=True)
class RegimeReport:
    """Which passive-degree regime the parameters fall into."""

    case_label: str
    n_star: float
    advice: str


@dataclass(frozen=True)
class PoissonApproxStats:
    """Per-vertex diagnostics for the Poisson degree approximation.

    ``lambda_bar`` is the conditional mean number of neighbors of vertex
    1 given all set sizes; ``kappa1`` and ``kappa2`` are the two
    negligibility statistics that must vanish for the approximation to
    hold (kappa2 can blow up when s grows with m even while lambda_bar
    and kappa1 stay tame).
    """

    lambda_bar: float
    kappa1: float
    kappa2: float


def active_edge_prob_asymptotic(
    dist: SizeDistribution, m: int, s: int
) -> ClampedProbability:
    """First-order edge probability a1^2 / C(m, s) of the actor graph.

    The raw value is clamped into [0, 1]; ``clamped`` is set when the
    parameters leave the sparse regime where the formula is meaningful.
    """
    if not 1 <= s <= m:
        raise ValueError("s must satisfy 1 <= s <= m")
    a1 = moments(dist, s).a1
    big_m = binomial(m, s)
    # where a1 * a1 overflows, a1 / C(m, s) <= 1 comes first and keeps raw finite
    raw = a1 * a1 / big_m if a1 * a1 < math.inf else a1 * (a1 / big_m)
    clamped = not 0.0 <= raw <= 1.0
    return ClampedProbability(value=min(max(raw, 0.0), 1.0), raw=raw, clamped=clamped)


def mixed_poisson_degree_pmf(
    dist: SizeDistribution, n: int, m: int, s: int, k_max: int | None = None
) -> DiscretePmf:
    """Asymptotic actor degree law: p_k = sum_x P(x) Pois_k(z(x) mu1).

    With ``k_max=None`` the truncation point is extended until the
    recorded tail mass drops below ``TAIL_TOL``.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be >= 0")
    scale = scale_constants(dist, n, m, s)
    if k_max is None:
        # the bound grows with lam, so the largest intensity sets it
        top = float(scale.lam.max())
        cap = max(5, int(truncation_point(top, top)))
    else:
        cap = k_max
    probs = _mixed_poisson_columns(scale, 0, cap)
    return DiscretePmf.truncated(probs, TAIL_TOL if k_max is None else None)


def _mixed_poisson_columns(scale: DerivedParams, lo: int, hi: int) -> np.ndarray:
    """p_k for k in [lo, hi]: the sum over the support of weight *
    Pois_k(lam), one 2-D block of support rows at a time (see the module
    docstring)."""
    lams, logs = scale.lam, scale.log_lam
    # a one-column reduce would sum pairwise, not row by row
    width = max(hi - lo + 1, 2)
    # allocated before the lgamma loop, so an impossible width fails at once
    log_fact = np.empty(width)
    log_fact[:] = [math.lgamma(k + 1) for k in range(lo, lo + width)]
    ks = np.arange(lo, lo + width, dtype=float)
    rows = max(1, _PMF_BLOCK_BYTES // (8 * width) - 1)
    buf = np.zeros((min(rows, lams.size) + 1, width))
    for first in range(0, lams.size, rows):
        last = min(first + rows, lams.size)
        block = buf[1 : 1 + last - first]
        np.multiply(logs[first:last, None], ks, out=block)
        block -= lams[first:last, None]
        block -= log_fact
        np.exp(block, out=block)
        block *= scale.weights[first:last, None]
        zero = lams[first:last] <= 0.0
        if zero.any():
            block[zero] = 0.0
            if lo == 0:
                block[zero, 0] = scale.weights[first:last][zero]
        buf[0] = np.add.reduce(buf[: 1 + last - first], axis=0)
    return buf[0, : hi - lo + 1]


def asymptotic_degree_moments(
    dist: SizeDistribution, n: int, m: int, s: int
) -> tuple[float, float]:
    """(E d, E d^2) of the asymptotic actor degree law.

    E d = mu1^2 and E d^2 = mu1^2 E[z(X)^2] + mu1^2.
    """
    scale = scale_constants(dist, n, m, s)
    ed = scale.mu1 * scale.mu1
    return ed, ed * scale.ez2 + ed


def alpha_active(dist: SizeDistribution, m: int, s: int) -> float:
    """Clustering coefficient of the actor graph: a1 / a2.

    For a fixed set size x this is 1 / C(x, s); it degrades to 0 as the
    second combinatorial moment blows up.  Where a2 passes the float
    range, both moments are taken relative to the largest C(x, s).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    mom = moments(dist, s)
    if mom.a2 <= 0.0:
        raise ValueError("clustering undefined: no vertex can hold a joint")
    if mom.a2 < math.inf:
        return mom.a1 / mom.a2
    w = dist.probs[dist.support]
    cs = np.array([binomial(x, s) for x in dist.support.tolist()])
    top = cs.max()
    cs /= top
    return float(np.dot(w, cs)) / float(np.dot(w, cs * cs)) / top


def alpha_active_beta_form(dist: SizeDistribution, n: int, m: int, s: int) -> float:
    """Clustering via the scale ratio: (1/sqrt(beta)) E[z] / E[z^2].

    Algebraically identical to :func:`alpha_active`; kept as a separate
    route so the identity can be checked numerically.  The value a1/a2
    is at most 1: every C(x, s) is 0 or at least 1, so C(x, s)^2 >=
    C(x, s) term by term and a2 >= a1.  The rounding of the scale
    constants can carry this route a few ulps past 1, so it returns at
    most 1.0.
    """
    scale = scale_constants(dist, n, m, s)
    if scale.ez2 <= 0.0:
        raise ValueError("clustering undefined: E[z^2] = 0")
    return min((1.0 / math.sqrt(scale.beta_active)) * scale.mu1 / scale.ez2, 1.0)


def alpha_active_from_degree_moments(beta: float, ed: float, ed2: float) -> float:
    """Clustering from asymptotic degree moments:
    (1/sqrt(beta)) * E[d]^(3/2) / (E[d^2] - E[d]).

    Where E[d]^(3/2) or the product overflows, the law is read as
    E[d] * (sqrt(E[d]) / (E[d^2] - E[d])) / sqrt(beta); a value that
    still overflows raises ``ValueError``."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if not ed2 > ed > 0:
        raise ValueError("need E[d^2] > E[d] > 0 (nondegenerate degree)")
    try:
        alpha = (1.0 / math.sqrt(beta)) * ed**1.5 / (ed2 - ed)
    except OverflowError:
        alpha = math.inf
    if math.isinf(alpha):
        alpha = ed * (math.sqrt(ed) / (ed2 - ed)) / math.sqrt(beta)
    if math.isinf(alpha):
        raise ValueError(f"alpha overflows a float at beta={beta}, E[d]={ed}, E[d^2]={ed2}")
    return alpha


def alpha_k_active_curve(
    dist: SizeDistribution, n: int, m: int, s: int, k_max: int
) -> dict[int, float]:
    """Degree-conditional clustering alpha^[k] of the actor graph for
    every k in [2, k_max]: (1/k) (E[z]/sqrt(beta)) p_{k-1} / p_k, with p
    the mixed Poisson degree law.  Constant in k for a fixed set size;
    ~ c/k for heavy-tailed sizes.  Degrees k with zero probability are
    omitted from the result.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    scale = scale_constants(dist, n, m, s)
    p = _mixed_poisson_columns(scale, 0, k_max).tolist()
    return {
        k: (1.0 / k) * scale.mu1_per_root_beta * p[k - 1] / p[k]
        for k in range(2, k_max + 1)
        if p[k] > 0.0
    }


def alpha_k_active(dist: SizeDistribution, n: int, m: int, s: int, k: int) -> float:
    """alpha^[k] for a single degree, from the pmf columns k-1 and k
    alone; equal, float for float, to ``alpha_k_active_curve(..., k)[k]``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    scale = scale_constants(dist, n, m, s)
    p_prev, p_k = _mixed_poisson_columns(scale, k - 1, k).tolist()
    if not p_k > 0.0:
        raise ValueError(f"degree {k} has zero asymptotic mass")
    return (1.0 / k) * scale.mu1_per_root_beta * p_prev / p_k


def _check_n_m(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")


def passive_compound_spec(
    dist: SizeDistribution, n: int, m: int
) -> CompoundPoissonSpec:
    """Compound Poisson spec of the asymptotic attribute degree.

    Count mean (n/m) E[X]; jumps are the size-biased-and-shifted size
    law (covering sets are seen size-biased; the covered vertex itself
    does not count).  E[X] = 0 degenerates to zero jumps at rate 0.
    """
    _check_n_m(n, m)
    lam = (n / m) * dist.mean()
    return CompoundPoissonSpec(lam=lam, jump_pmf=size_biased(dist))


def compound_poisson_pmf(
    spec: CompoundPoissonSpec, k_max: int | None = None
) -> DiscretePmf:
    """Pmf of the compound Poisson total, by the standard recursion:

        g_0 = exp(-lam (1 - f_0)),
        g_k = (lam / k) sum_{j=1..k} j f_j g_{k-j}.

    With ``k_max=None`` the truncation is extended until the tail mass
    drops below ``TAIL_TOL``.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be >= 0")
    f = np.asarray(spec.jump_pmf.probs, dtype=float)
    lam = spec.lam
    if lam == 0.0 or f.size == 1:
        out = np.zeros((k_max or 0) + 1)
        out[0] = 1.0
        return DiscretePmf(out, 0.0)
    mean = spec.mean()
    var = lam * spec.jump_pmf.second_moment()
    cap = k_max if k_max is not None else int(truncation_point(mean, var) + f.size)
    jf = np.arange(f.size) * f  # j * f_j
    g = np.zeros(cap + 1)
    g[0] = math.exp(-lam * (1.0 - f[0]))
    for k in range(1, cap + 1):
        jmax = min(k, f.size - 1)
        # sum_{j=1..jmax} j f_j g_{k-j}
        acc = float(np.dot(jf[1 : jmax + 1], g[k - 1 :: -1][:jmax]))
        g[k] = (lam / k) * acc
    return DiscretePmf.truncated(g, TAIL_TOL if k_max is None else None)


def alpha_passive_finite(dist: SizeDistribution, n: int, m: int) -> float:
    """Finite-size clustering of the attribute graph (threshold 1):

        (beta*^2 m^{-1} f2^3 + f3) / (beta* f2^2 + f3),   beta* = n/m,

    with f_k the falling-factorial size moments.  The numerator exceeds
    the denominator exactly when n f2 > m^2, outside the sparse regime
    the formula describes; that is a ``ValueError``, not a value above 1.
    """
    _check_n_m(n, m)
    mom = moments(dist, 1)
    if mom.f2 <= 0.0:
        raise ValueError("clustering undefined: E[(X)_2] = 0")
    if n * mom.f2 > m * m:
        raise ValueError(
            f"clustering undefined outside the sparse regime: n E[(X)_2] = {n * mom.f2:g} > m^2 = {m * m}"
        )
    beta_star = n / m
    num = beta_star**2 * mom.f2**3 / m + mom.f3
    den = beta_star * mom.f2**2 + mom.f3
    return num / den


def alpha_passive_limit(spec: CompoundPoissonSpec) -> float:
    """Limit clustering of the attribute graph from degree moments,

        (E[(d)_2] - (E d)^2) / E[(d)_2] = E[(J)_2] / (E[(J)_2] + lam (E J)^2),

    by the compound Poisson moment identities E[(d)_2] - (E d)^2 =
    lam E[(J)_2] and (E d)^2 = lam^2 (E J)^2 for the jump J.  The right
    side has no difference of moments to cancel, so it reads exactly 0
    when every jump is 0 or 1.
    """
    js = np.arange(spec.jump_pmf.probs.size)
    fall2 = float(np.dot(js * (js - 1), spec.jump_pmf.probs))  # E[(J)_2]
    denom = fall2 + spec.lam * spec.jump_pmf.mean() ** 2
    if spec.lam == 0.0 or denom == 0.0:
        raise ValueError("clustering undefined: E[(d)_2] <= 0 (no two-stars)")
    return fall2 / denom


def alpha_k_passive_curve(
    spec: CompoundPoissonSpec, k_max: int
) -> dict[int, float]:
    """Degree-conditional clustering alpha*[k] for every k in [2, k_max].

    With g the compound Poisson pmf and f the jump pmf, the Palm (Mecke)
    formula gives E[sum of within-jump pairs; total = k] as
    lam sum_j f_j j (j-1) g_{k-j}, so

        alpha*[k] = lam sum_j f_j j (j-1) g_{k-j} / (k (k-1) g_k).

    Degrees k with zero probability are omitted from the result.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    g = compound_poisson_pmf(spec, k_max=k_max).probs
    f = np.asarray(spec.jump_pmf.probs, dtype=float)[: k_max + 1]
    js = np.arange(f.size)
    pairs = np.convolve(f * js * (js - 1), g)  # sum_j f_j j (j-1) g_{k-j}
    return {
        k: spec.lam * (float(pairs[k]) / float(g[k])) / (k * (k - 1))
        for k in range(2, k_max + 1)
        if g[k] > 0.0
    }


@dataclass(frozen=True)
class LimitLaws:
    """One graph kind's limit laws, each called with (dist, n, m, s) first:
    ``degree_pmf(..., k_max)`` truncated at ``TAIL_TOL`` when ``k_max`` is
    None, ``alpha(...)``, and ``alpha_k_curve(..., k_max)`` over [2, k_max].
    """

    degree_pmf: Callable[[SizeDistribution, int, int, int, int | None], DiscretePmf]
    alpha: Callable[[SizeDistribution, int, int, int], float]
    alpha_k_curve: Callable[[SizeDistribution, int, int, int, int], dict[int, float]]


# one row per graph kind; the lambdas look each law up as a module global
# when called, so a patched law is the one a row runs
_LIMIT_LAWS = {
    "active": LimitLaws(
        degree_pmf=lambda dist, n, m, s, k_max: mixed_poisson_degree_pmf(dist, n, m, s, k_max=k_max),
        alpha=lambda dist, n, m, s: alpha_active(dist, m, s),
        alpha_k_curve=lambda dist, n, m, s, k_max: alpha_k_active_curve(dist, n, m, s, k_max),
    ),
    "passive": LimitLaws(
        degree_pmf=lambda dist, n, m, s, k_max: compound_poisson_pmf(passive_compound_spec(dist, n, m), k_max=k_max),
        alpha=lambda dist, n, m, s: alpha_passive_finite(dist, n, m),
        alpha_k_curve=lambda dist, n, m, s, k_max: alpha_k_passive_curve(passive_compound_spec(dist, n, m), k_max),
    ),
}


def limit_laws(kind: str, s: int) -> LimitLaws | None:
    """The limit laws of the ``kind`` graph at threshold s, or None where
    it has none: the passive laws hold at s = 1 only."""
    return None if kind == "passive" and s >= 2 else _LIMIT_LAWS[kind]


def poisson_approx_stats(sizes, m: int, s: int) -> PoissonApproxStats:
    """Diagnostics of the Poisson degree approximation for vertex 1.

    With u_k = C(x_1, s) C(x_k, s) and x+ = max(0, x - s):

        lambda_bar = C(m,s)^{-1} sum_{k>=2} u_k
        kappa1     = C(m,s)^{-2} sum_{k>=2} u_k^2
        kappa2     = (x1+/(m - x1)) C(m,s)^{-1} sum_{k>=2} u_k xk+

    kappa2 is +inf when x1 = m with s < m (the guard term divides by 0).
    Where u_k or the squares pass the float range, each u_k is divided by
    C(m, s) first; a statistic that still overflows is a ``ValueError``.
    """
    xs = np.asarray(sizes if isinstance(sizes, np.ndarray) else list(sizes), dtype=np.int64)
    if xs.size < 2:
        raise ValueError("need at least 2 set sizes")
    if np.any(xs < 0) or np.any(xs > m):
        raise ValueError("sizes must lie in [0, m]")
    if not 1 <= s <= m:
        raise ValueError("s must satisfy 1 <= s <= m")
    big_m = binomial(m, s)
    support, where = np.unique(xs, return_inverse=True)
    cs = np.array([binomial(int(x), s) for x in support])[where]  # C(x_k, s)
    x1 = int(xs[0])
    x1p = max(0, x1 - s)
    xkp = np.maximum(0, xs[1:] - s).astype(float)
    with np.errstate(over="ignore"):
        u = cs[0] * cs[1:]
        if not (np.dot(u, u) < math.inf and big_m * big_m < math.inf):
            # u_k / C(m, s) first, at most C(x_1, s); the sums then divide by 1
            u, big_m = cs[0] * (cs[1:] / big_m), 1.0
        lam = float(u.sum() / big_m)
        kappa1 = float(np.dot(u, u) / (big_m * big_m))
        if x1p == 0:
            kappa2 = 0.0
        elif x1 == m:
            kappa2 = math.inf
        else:
            kappa2 = float(x1p / (m - x1) * np.dot(u, xkp) / big_m)
    # kappa2 = inf at x1 = m is the law's own value, not an overflow
    for name, value in (("lambda_bar", lam), ("kappa1", kappa1), ("kappa2", kappa2)):
        if value == math.inf and (name != "kappa2" or x1 < m):
            raise ValueError(f"{name} overflows a float at m={m}, s={s}")
    return PoissonApproxStats(lambda_bar=lam, kappa1=kappa1, kappa2=kappa2)


def passive_regime_classify(n: int, m: int, dist: SizeDistribution) -> RegimeReport:
    """Classify the passive-degree regime.

    n_star = n P(X >= 2) counts the sets that can create edges.  The
    report says whether degrees vanish (attributes dominate), diverge
    (effective sets dominate), or admit a nondegenerate compound Poisson
    limit (balanced; then use floor(n_star) sets with sizes conditioned
    on >= 2).  The 0.01 thresholds are a reporting convention for the
    asymptotic orders.
    """
    _check_n_m(n, m)
    n_star = n * dist.prob_ge(2)
    if n / m < _REGIME_RATIO:
        label = "m_dominates"
        advice = (
            "far more attributes than sets: conditioned on having any "
            "neighbor, degrees grow like m/n; no nondegenerate limit"
        )
    elif n_star / m < _REGIME_RATIO:
        label = "n_star_small"
        advice = (
            "few sets of size >= 2: conditioned on having any neighbor, "
            "degrees grow like m/max(1, n_star); no nondegenerate limit"
        )
    elif m / n_star < _REGIME_RATIO:
        label = "n_star_dominates"
        advice = "edge-creating sets dominate: degrees diverge to infinity"
    else:
        label = "balanced"
        advice = (
            "compound Poisson limit applies; when sizes 0/1 carry mass use "
            f"effective parameters n={math.floor(n_star)} with the size law "
            "conditioned on X >= 2"
        )
    return RegimeReport(case_label=label, n_star=n_star, advice=advice)
