"""Exact finite-size ground truth, no asymptotics.

Everything here is computed from first principles at the given (n, m, s):
hypergeometric overlap laws, the sandwich bounds on the overlap tail,
exact single-vertex degree pmfs (conditional-binomial mixture for the
actor graph, n-fold link convolution for the attribute graph), the
Poisson-approximation total-variation bound, exhaustive brute force for
tiny instances, and the dense-overlap diagnostics used to probe where
the sparse approximations break.

Combinatorics run in log space throughout; pmfs are renormalized after a
max-shift exponentiation so they sum to 1 at machine precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DiscretePmf,
    ModelParams,
    SizeDistribution,
    binomial,
    falling_factorial,
    log_binomial,
    trim_tail,
    truncation_point,
)

__all__ = [
    "BoundsPair",
    "DenseOverlapDiagnostics",
    "intersection_pmf",
    "intersection_tail",
    "intersection_tail_bounds",
    "exact_active_degree_pmf",
    "exact_passive_links_pmf",
    "lecam_bound",
    "brute_force_degree_pmf",
    "dense_overlap_diagnostics",
    "dense_overlap_set_size",
    "BRUTE_FORCE_BUDGET",
]

CONV_TAIL_TOL = 1e-12  # convolution truncation, tracked in tail_mass
BRUTE_FORCE_BUDGET = 10**7  # max configurations enumerated


@dataclass(frozen=True)
class BoundsPair:
    """Certified lower/upper bounds on a probability."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"invalid bounds ({self.lower}, {self.upper})")

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


@dataclass(frozen=True)
class DenseOverlapDiagnostics:
    """Diagnostics for the half-overlap regime s = m/2, x = (eps + 1/2) m.

    ``p_star`` is the would-be edge probability C(x,s)^2 / C(m,s);
    ``ratio_prime`` = P(|D1 n D2| = s) / p_star; ``bound`` is the
    analytic envelope (1 - 2 eps)^(eps m) that ratio_prime must respect;
    ``tail_within_10pct`` records whether the full overlap tail stays
    within 10% of its first term (expected for eps < 0.1).
    """

    p_star: float
    ratio_prime: float
    bound: float
    tail_within_10pct: bool


def _check_set_sizes(m: int, d1: int, d2: int) -> None:
    if not (0 <= d1 <= m and 0 <= d2 <= m):
        raise ValueError("d1 and d2 must lie in [0, m]")


def intersection_pmf(m: int, d1: int, d2: int) -> DiscretePmf:
    """Exact law of |D1 n D2| for independent uniform d1- and d2-subsets.

    P(r) = C(d1, r) C(m - d1, d2 - r) / C(m, d2) on the feasible range
    max(0, d1 + d2 - m) <= r <= min(d1, d2).  Evaluated in log space and
    renormalized, so it sums to 1 at machine precision for any m.
    """
    _check_set_sizes(m, d1, d2)
    r_hi = min(d1, d2)
    r_lo = max(0, d1 + d2 - m)
    rs = np.arange(r_lo, r_hi + 1)
    logs = np.array(
        [log_binomial(d1, r) + log_binomial(m - d1, d2 - r) for r in rs]
    ) - log_binomial(m, d2)
    vals = np.exp(logs - logs.max())
    vals /= vals.sum()
    probs = np.zeros(r_hi + 1)
    probs[r_lo:] = vals
    return DiscretePmf(probs, 0.0)


def intersection_tail(m: int, d1: int, d2: int, s: int) -> float:
    """P(|D1 n D2| >= s), exactly."""
    if s <= 0:
        return 1.0
    pmf = intersection_pmf(m, d1, d2)
    if s > pmf.k_max:
        return 0.0
    return float(pmf.probs[s:].sum())


def intersection_tail_bounds(m: int, d1: int, d2: int, s: int) -> BoundsPair:
    """Sandwich bounds on the overlap tail P(|D1 n D2| >= s).

    Upper: p* = C(d1, s) C(d2, s) / C(m, s).  Lower (after ordering
    d1 <= d2): (1 - (d1 - s)(d2 - s) / (m + 1 - d1)) * p*, clamped at 0.
    Returns (0, 0) when s exceeds min(d1, d2).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_set_sizes(m, d1, d2)
    lo, hi = min(d1, d2), max(d1, d2)
    if s > lo:
        return BoundsPair(0.0, 0.0)
    try:
        p_star = binomial(lo, s) * binomial(hi, s) / binomial(m, s)
    except ValueError:  # a coefficient past the float range
        p_star = math.nan
    if not math.isfinite(p_star):
        log_p = log_binomial(lo, s) + log_binomial(hi, s) - log_binomial(m, s)
        # capped inside the float range: past e^700 the bounds read 0 or 1 all the same
        p_star = math.exp(min(log_p, 700.0))
    upper = min(1.0, p_star)
    slack = 1.0 - (lo - s) * (hi - s) / (m + 1 - lo)
    lower = min(max(0.0, slack * p_star), upper)
    return BoundsPair(lower, upper)


def _binomial_pmf(trials: int, p: float, k_hi: int) -> np.ndarray:
    """Binomial(trials, p) pmf on 0..k_hi, log-space."""
    ks = np.arange(k_hi + 1)
    if p <= 0.0:
        out = np.zeros(k_hi + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(k_hi + 1)
        if trials <= k_hi:
            out[trials] = 1.0
        return out
    logs = (
        np.array([log_binomial(trials, int(k)) for k in ks])
        + ks * math.log(p)
        + (trials - ks) * math.log1p(-p)
    )
    return np.exp(logs)


def exact_active_degree_pmf(
    dist: SizeDistribution, n: int, m: int, s: int
) -> DiscretePmf:
    """Exact marginal degree pmf of one actor in the overlap graph.

    Conditional on its own set size x1, edges to the other n-1 actors are
    i.i.d. Bernoulli with success probability
    qbar(x1) = sum_x P(x) * P(|overlap| >= s | sizes x1, x); the marginal
    degree law is the P-mixture of the resulting binomials.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= s <= m:
        raise ValueError("s must satisfy 1 <= s <= m")
    xs = dist.support
    qbars = {}
    for x1 in xs:
        qbars[int(x1)] = math.fsum(
            dist.prob(int(x)) * intersection_tail(m, int(x1), int(x), s) for x in xs
        )
    trials = n - 1
    if trials == 0:
        return DiscretePmf.point_mass(0)
    k_cap = 0
    for q in qbars.values():
        mean = trials * q
        k_cap = max(k_cap, int(truncation_point(mean, mean)))
    k_cap = min(k_cap, trials)
    probs = np.zeros(k_cap + 1)
    for x1 in xs:
        probs += dist.prob(int(x1)) * _binomial_pmf(trials, qbars[int(x1)], k_cap)
    return DiscretePmf.truncated(probs)


def exact_passive_links_pmf(
    dist: SizeDistribution, n: int, m: int, k_max: int | None = None
) -> DiscretePmf:
    """Exact pmf of the multigraph link count at one fixed attribute.

    Each of the n sets independently contributes (x - 1)+ links with
    probability P(x) * x / m (it must cover the attribute) and 0 links
    otherwise; the total is the n-fold convolution, computed by binary
    powering with trailing mass below ``CONV_TAIL_TOL`` tracked in
    ``tail_mass``.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be >= 0")
    xs = dist.support
    vmax = max((int(x) - 1 for x in xs), default=0)
    base = np.zeros(max(vmax, 0) + 1)
    cover = 0.0
    for x in xs:
        x = int(x)
        p_cover = dist.prob(x) * x / m
        cover += p_cover
        base[max(x - 1, 0)] += p_cover
    base[0] += 1.0 - cover
    step_tol = CONV_TAIL_TOL / max(1, 2 * n.bit_length())
    result = np.array([1.0])
    power = base
    e = n
    while e:
        if e & 1:
            result = trim_tail(np.convolve(result, power), step_tol)
        e >>= 1
        if e:
            power = trim_tail(np.convolve(power, power), step_tol)
    if k_max is not None:
        return DiscretePmf.truncated(result[: k_max + 1])
    return DiscretePmf.truncated(result, CONV_TAIL_TOL)


def lecam_bound(probs) -> float:
    """2 * sum(p_i^2): total-variation bound between a sum of independent
    indicators with success probabilities p_i and the Poisson law with the
    same mean."""
    arr = np.asarray(list(probs), dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both
        raise ValueError("probs must be finite and lie in [0, 1]")
    return float(2.0 * np.dot(arr, arr))


def _enumerate_choices(dist: SizeDistribution, m: int):
    """All (frozenset, weight) pairs one actor can realize."""
    choices = []
    for x in dist.support:
        x = int(x)
        w = dist.prob(x) / math.comb(m, x)
        for combo in itertools.combinations(range(m), x):
            choices.append((frozenset(combo), w))
    return choices


def brute_force_degree_pmf(params: ModelParams) -> DiscretePmf:
    """Degree pmf of vertex 0 (active) or attribute 0 (passive) by
    exhaustive weighted enumeration of every set configuration.

    Independent of every other code path; intended as ground truth for
    tiny instances.  Refuses to run past ``BRUTE_FORCE_BUDGET``
    configurations.
    """
    dist, n, m, s = params.size_dist, params.n, params.m, params.s
    per_actor = sum(math.comb(m, int(x)) for x in dist.support)
    if per_actor**n > BRUTE_FORCE_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {per_actor}^{n} configurations "
            f"> {BRUTE_FORCE_BUDGET}"
        )
    choices = _enumerate_choices(dist, m)
    max_degree = (n - 1) if params.kind == "active" else (m - 1)
    hist = np.zeros(max(max_degree, 0) + 1)
    for combo in itertools.product(choices, repeat=n):
        sets = [c[0] for c in combo]
        weight = math.prod(c[1] for c in combo)
        if params.kind == "active":
            d0 = sets[0]
            degree = sum(1 for other in sets[1:] if len(d0 & other) >= s)
        else:
            degree = 0
            for w_other in range(1, m):
                covering = sum(1 for d in sets if 0 in d and w_other in d)
                if covering >= s:
                    degree += 1
        hist[degree] += weight
    return DiscretePmf(hist, 0.0)


def dense_overlap_set_size(m: int, epsilon: float) -> int:
    """The set size x = (epsilon + 1/2) m of the half-overlap regime;
    ``ValueError`` unless m is positive and even, epsilon lies in
    (0, 1/2) and x is an integer."""
    if m <= 0 or m % 2 != 0:
        raise ValueError("m must be positive and even")
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    x_float = (epsilon + 0.5) * m
    x = round(x_float)
    if abs(x_float - x) > 1e-9:
        raise ValueError(f"x = (epsilon + 0.5) m = {x_float} is not integral")
    return x


def dense_overlap_diagnostics(m: int, epsilon: float) -> DenseOverlapDiagnostics:
    """Diagnostics at s = m/2, x = (epsilon + 1/2) m.

    In this regime the product form C(x,s)^2/C(m,s) stops approximating
    the edge probability: the exact point mass at overlap s is smaller by
    the factor ``ratio_prime`` = (m-x)_{x-s} / (m-s)_{x-s}, itself at
    most (1 - 2 eps)^(eps m).
    """
    x = dense_overlap_set_size(m, epsilon)
    s = m // 2
    p_star = math.exp(2.0 * log_binomial(x, s) - log_binomial(m, s))
    num = falling_factorial(m - x, x - s)
    den = falling_factorial(m - s, x - s)
    ratio_prime = num / den
    bound = (1.0 - 2.0 * epsilon) ** (epsilon * m)
    p_prime = intersection_pmf(m, x, x).prob(s)
    p_tail = intersection_tail(m, x, x, s)
    tail_ok = p_prime <= p_tail <= 1.1 * p_prime
    return DenseOverlapDiagnostics(
        p_star=p_star, ratio_prime=ratio_prime, bound=bound, tail_within_10pct=tail_ok
    )
