"""Core distribution types for the intersection-graph laboratory.

Attribute-set sizes are described by a finitely supported pmf on
``{0..m}``.  Everything downstream (sampling, closed-form degree and
clustering laws, exact oracles) consumes the small set of transforms
defined here: combinatorial moments, size-biasing, conditioning on a
minimum size, and the scaling constants that govern the sparse regime.

All binomial coefficients go through :func:`binomial` /
:func:`log_binomial`, which take an exact integer fast path when that is
cheap and otherwise evaluate via log-gamma, so quantities like C(m, m/2)
never overflow for m up to 1e9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "NORMALIZATION_TOL",
    "PMF_TOL",
    "log_binomial",
    "binomial",
    "falling_factorial",
    "DiscretePmf",
    "trim_tail",
    "SizeDistribution",
    "ModelParams",
    "DerivedParams",
    "Moments",
    "Degenerate",
    "Table",
    "TruncatedPowerLaw",
    "BinomialSizes",
    "SizeSpec",
    "make_size_dist",
    "moments",
    "scale_constants",
    "derive_params",
    "size_biased",
    "conditional_ge2",
]

NORMALIZATION_TOL = 1e-12  # size distributions must sum to 1 this tightly
PMF_TOL = 1e-10  # truncated pmfs: probs + tail_mass == 1 within this

# Exact big-int evaluation is cheap only while min(k, n-k) stays small;
# beyond that the result cannot fit a float anyway or lgamma is faster.
_EXACT_N_MAX = 10**6
_EXACT_K_MAX = 64


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k); ``-inf`` outside ``0 <= k <= n``.

    For small min(k, n-k) the log-product form avoids the catastrophic
    ulp loss of lgamma differences at large n (lgamma(1e4) already
    carries ~1e-11 absolute error).
    """
    if n < 0 or k < 0 or k > n:
        return -math.inf
    kk = min(k, n - k)
    if kk == 0:
        return 0.0
    if kk <= _EXACT_K_MAX:
        # fsum is correctly rounded, so the order of the terms is immaterial
        return math.fsum(map(math.log, range(n - kk + 1, n + 1))) - math.lgamma(kk + 1)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float.

    Uses exact integer arithmetic when ``min(k, n-k)`` is small and the
    result fits a double; falls back to ``exp(log_binomial)`` otherwise
    (relative error ~1e-13 even for C(1e9, 5e8)-scale arguments).
    """
    if n < 0 or k < 0 or k > n:
        return 0.0
    kk = min(k, n - k)
    if n <= _EXACT_N_MAX and kk <= _EXACT_K_MAX:
        value = math.comb(n, kk)
        if value.bit_length() <= 1000:
            return float(value)
    return math.exp(log_binomial(n, k))


def falling_factorial(x: int, k: int) -> int:
    """(x)_k = x (x-1) ... (x-k+1); the empty product (k=0) is 1.

    Passes through zero once a factor hits 0, so (2)_3 = 0.
    """
    if x < 0 or k < 0:
        raise ValueError("falling_factorial requires x >= 0 and k >= 0")
    out = 1
    for i in range(k):
        factor = x - i
        if factor <= 0:
            return 0
        out *= factor
    return out


def _freeze(array: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(array, dtype=float)
    arr.flags.writeable = False
    return arr


def _unhashable(self) -> int:
    """``__hash__`` of the value types that hold arrays: they compare by
    value, and an array has no hash to agree with that."""
    raise TypeError(f"unhashable type: {type(self).__name__!r} (it holds arrays)")


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Finitely truncated pmf on {0, 1, 2, ...}.

    ``probs[k]`` is the mass at k for k <= k_max; ``tail_mass`` is the
    probability not captured by the truncation.  The two always account
    for the full unit of mass: sum(probs) + tail_mass == 1 within
    ``PMF_TOL``.  Truncation is never silent.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if np.any(probs < -1e-12):
            raise ValueError("probs must be nonnegative")
        probs = np.clip(probs, 0.0, None)
        if self.tail_mass < -1e-12:
            raise ValueError("tail_mass must be nonnegative")
        tail = max(float(self.tail_mass), 0.0)
        total = float(probs.sum()) + tail
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"pmf mass {total!r} differs from 1 beyond {PMF_TOL}")
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "tail_mass", tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscretePmf):
            return NotImplemented
        return self.tail_mass == other.tail_mass and np.array_equal(self.probs, other.probs)

    __hash__ = _unhashable

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def prob(self, k: int) -> float:
        if 0 <= k <= self.k_max:
            return float(self.probs[k])
        return 0.0

    def mean(self) -> float:
        """Mean of the truncated part (the tail contributes nothing)."""
        return float(np.dot(np.arange(self.probs.size), self.probs))

    def second_moment(self) -> float:
        ks = np.arange(self.probs.size, dtype=float)
        return float(np.dot(ks * ks, self.probs))

    def factorial_moment(self, order: int) -> float:
        """E[(K)_order] over the truncated part."""
        ks = np.arange(self.probs.size)
        vals = np.array([falling_factorial(int(k), order) for k in ks], dtype=float)
        return float(np.dot(vals, self.probs))

    @staticmethod
    def point_mass(k: int) -> "DiscretePmf":
        if k < 0:
            raise ValueError("point mass location must be >= 0")
        probs = np.zeros(k + 1)
        probs[k] = 1.0
        return DiscretePmf(probs, 0.0)


def trim_tail(probs: np.ndarray, tol: float) -> np.ndarray:
    """``probs`` without its longest trailing run of total mass < ``tol``
    (at least the first entry stays)."""
    csum = np.cumsum(probs[::-1])[::-1]
    keep = np.nonzero(csum >= tol)[0]
    return probs[: (int(keep[-1]) + 1) if keep.size else 1]


@dataclass(frozen=True, eq=False)
class SizeDistribution:
    """Pmf of attribute-set sizes on {0..support_max}.

    ``weights[x]`` is the probability of size x.  The stored array may be
    shorter than ``support_max + 1``: indices past the end carry zero
    mass (so a point mass at 5 with support_max = 1e9 stays tiny).
    """

    support_max: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.support_max < 0:
            raise ValueError("support_max must be >= 0")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if w.size > self.support_max + 1:
            raise ValueError(
                f"support exceeds m: weights define sizes up to {w.size - 1} "
                f"but support_max is {self.support_max}"
            )
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"weights sum to {total!r}, not 1 within {NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "weights", _freeze(w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeDistribution):
            return NotImplemented
        return self.support_max == other.support_max and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = _unhashable

    @property
    def support(self) -> np.ndarray:
        """Sizes carrying positive mass, ascending."""
        return np.flatnonzero(self.weights > 0.0)

    def prob(self, x: int) -> float:
        if 0 <= x < self.weights.size:
            return float(self.weights[x])
        return 0.0

    def prob_ge(self, x: int) -> float:
        if x <= 0:
            return 1.0
        if x >= self.weights.size:
            return 0.0
        return float(self.weights[x:].sum())

    def mean(self) -> float:
        return float(np.dot(np.arange(self.weights.size), self.weights))

    def as_pmf(self) -> DiscretePmf:
        return DiscretePmf(np.array(self.weights), 0.0)


_KINDS = ("active", "passive")


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of one random intersection graph.

    ``n`` actors each draw an attribute set from ``{0..m-1}`` whose size
    follows ``size_dist``; ``s`` is the overlap threshold.  ``kind``
    selects which side of the bipartite structure becomes the graph:
    actors ("active") or attributes ("passive").
    """

    n: int
    m: int
    s: int
    size_dist: SizeDistribution
    kind: str = "active"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.s <= self.m:
            raise ValueError("s must satisfy 1 <= s <= m")
        if self.size_dist.support_max != self.m:
            raise ValueError(
                f"size_dist.support_max={self.size_dist.support_max} must equal m={self.m}"
            )
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")


@dataclass(frozen=True)
class DerivedParams:
    """Scale constants of the sparse regime.

    ``z_scale(x)`` = C(x, s) * sqrt(n / C(m, s)) is the rescaled joint
    count of an actor with set size x; ``z`` holds it at each size of
    ``support``, whose probabilities are ``weights``, and ``mu1`` is its
    mean under the size distribution.  ``beta_active`` = C(m, s)/n and
    ``beta_passive`` = m/n set the clustering magnitude of the two graph
    kinds; ``beta_star`` = n/m is the reciprocal passive ratio and
    ``n_star`` = n * P(X >= 2) counts the sets that can actually create
    passive edges.
    """

    z_scale: Callable[[int], float]
    mu1: float
    beta_active: float
    beta_passive: float
    beta_star: float
    n_star: float
    support: np.ndarray
    weights: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class Moments:
    """Combinatorial moments of a size distribution at threshold s.

    a_k = E[C(X, s)^k] for k = 1, 2 and f_k = E[(X)_k] for k = 1, 2, 3.
    """

    a1: float
    a2: float
    f1: float
    f2: float
    f3: float


@dataclass(frozen=True)
class Degenerate:
    """All sets share the fixed size ``x``."""

    x: int


@dataclass(frozen=True)
class Table:
    """Explicit weight table indexed from size 0; renormalized."""

    weights: Sequence[float]


@dataclass(frozen=True)
class TruncatedPowerLaw:
    """Weights proportional to x^(-gamma) on [x_min, x_max]."""

    gamma: float
    x_min: int
    x_max: int


@dataclass(frozen=True)
class BinomialSizes:
    """Sizes follow Binomial(trials, p)."""

    trials: int
    p: float


SizeSpec = Union[Degenerate, Table, TruncatedPowerLaw, BinomialSizes]


def make_size_dist(spec: SizeSpec, m: int) -> SizeDistribution:
    """Build a validated :class:`SizeDistribution` on {0..m} from a spec.

    Raises ``ValueError`` when the requested support exceeds m or the
    parameters cannot be normalized into a distribution.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if isinstance(spec, Degenerate):
        if not 0 <= spec.x <= m:
            raise ValueError(f"degenerate size {spec.x} outside [0, {m}]")
        w = np.zeros(spec.x + 1)
        w[spec.x] = 1.0
        return SizeDistribution(m, w)
    if isinstance(spec, Table):
        w = np.asarray(list(spec.weights), dtype=float)
        if w.size == 0 or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("table weights must be finite and nonnegative")
        if w.size > m + 1 and np.any(w[m + 1 :] > 0):
            raise ValueError(f"table support exceeds m={m}")
        w = w[: m + 1]
        total = w.sum()
        if total <= 0:
            raise ValueError("table weights sum to zero; not normalizable")
        return SizeDistribution(m, w / total)
    if isinstance(spec, TruncatedPowerLaw):
        if spec.gamma <= 1:
            raise ValueError("power-law exponent gamma must exceed 1")
        if spec.x_min < 1 or spec.x_min > spec.x_max:
            raise ValueError("power law requires 1 <= x_min <= x_max")
        if spec.x_max > m:
            raise ValueError(f"power-law support [{spec.x_min}, {spec.x_max}] exceeds m={m}")
        xs = np.arange(spec.x_min, spec.x_max + 1, dtype=float)
        raw = xs ** (-spec.gamma)
        w = np.zeros(spec.x_max + 1)
        w[spec.x_min :] = raw / raw.sum()
        return SizeDistribution(m, w)
    if isinstance(spec, BinomialSizes):
        if not 0.0 <= spec.p <= 1.0:
            raise ValueError("binomial p must lie in [0, 1]")
        if spec.trials < 0 or spec.trials > m:
            raise ValueError(f"binomial trials {spec.trials} outside [0, {m}]")
        t = spec.trials
        w = np.array(
            [math.comb(t, k) * spec.p**k * (1 - spec.p) ** (t - k) for k in range(t + 1)]
        )
        return SizeDistribution(m, w / w.sum())
    raise TypeError(f"unknown size spec {type(spec).__name__}")


def moments(dist: SizeDistribution, s: int) -> Moments:
    """Combinatorial moments a_1, a_2 and factorial moments f_1..f_3.

    a_k = sum_x P(x) C(x, s)^k, f_k = sum_x P(x) (x)_k.  A distribution
    degenerate at 0 yields all-zero moments.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    xs = dist.support
    w = dist.weights[xs]
    sizes = xs.tolist()
    cs = np.array([binomial(x, s) for x in sizes])
    a1 = float(np.dot(w, cs))
    a2 = float(np.dot(w, cs * cs))
    fs = [
        float(np.dot(w, np.array([falling_factorial(x, k) for x in sizes], dtype=float)))
        for k in (1, 2, 3)
    ]
    return Moments(a1=a1, a2=a2, f1=fs[0], f2=fs[1], f3=fs[2])


def scale_constants(dist: SizeDistribution, n: int, m: int, s: int) -> DerivedParams:
    """Scale constants of size law ``dist`` at (n, m, s); see
    :class:`DerivedParams`.

    Binomials are evaluated in log space so the map z(x) and the ratio
    C(m, s)/n stay finite for m up to 1e9 and any s <= m.  mu1 is the
    dot product of the support weights with z.
    """
    if s > m:
        raise ValueError("s must be <= m")
    log_m_choose_s = log_binomial(m, s)
    half_log = 0.5 * (math.log(n) - log_m_choose_s)

    def z_scale(x: int) -> float:
        lb = log_binomial(int(x), s)
        if lb == -math.inf:
            return 0.0
        return math.exp(lb + half_log)

    xs = dist.support
    w = dist.weights[xs]
    z = np.array([z_scale(x) for x in xs.tolist()])
    beta_active = binomial(m, s) / n
    if not math.isfinite(beta_active):
        beta_active = math.exp(log_m_choose_s - math.log(n))
    return DerivedParams(
        z_scale=z_scale,
        mu1=float(np.dot(w, z)),
        beta_active=beta_active,
        beta_passive=m / n,
        beta_star=n / m,
        n_star=n * dist.prob_ge(2),
        support=xs,
        weights=w,
        z=z,
    )


def derive_params(params: ModelParams) -> DerivedParams:
    """Scale constants for ``params``; see :class:`DerivedParams`."""
    return scale_constants(params.size_dist, params.n, params.m, params.s)


def size_biased(q: DiscretePmf) -> DiscretePmf:
    """Size-bias-and-shift transform: mass at j becomes (j+1) q_{j+1} / mean.

    A zero-mean input maps to the point mass at 0 by convention.  Any
    tail mass of the input reappears as tail mass of the output.
    """
    mean = q.mean()
    if mean <= 0.0:
        return DiscretePmf.point_mass(0)
    js = np.arange(1, q.probs.size, dtype=float)
    new = js * q.probs[1:] / mean
    if new.size == 0:
        new = np.array([1.0])
    tail = max(0.0, 1.0 - float(new.sum()))
    return DiscretePmf(new, tail)


def conditional_ge2(dist: SizeDistribution) -> SizeDistribution:
    """Restriction of a size distribution to sizes >= 2, renormalized."""
    mass = dist.prob_ge(2)
    if mass <= 0.0:
        raise ValueError("no mass at or above 2")
    w = np.array(dist.weights)
    w[: min(2, w.size)] = 0.0
    return SizeDistribution(dist.support_max, w / w.sum())
