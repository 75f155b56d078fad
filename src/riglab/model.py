"""Core distribution types for the intersection-graph laboratory.

Attribute-set sizes follow a size law: a :class:`DiscretePmf` with no
tail mass (``SizeDistribution`` names it in annotations).  The law does
not store m; :class:`ModelParams` checks its largest size against m.
Everything downstream (sampling, closed-form degree and clustering laws,
exact oracles) consumes the small set of transforms defined here:
combinatorial moments, size-biasing, and the scaling constants that
govern the sparse regime.

All binomial coefficients go through :func:`binomial` /
:func:`log_binomial`, which take an exact integer fast path when that is
cheap and otherwise evaluate via log-gamma, so quantities like C(m, m/2)
never overflow for m up to 1e9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union, get_args

import numpy as np

__all__ = [
    "PMF_TOL",
    "log_binomial",
    "binomial",
    "falling_factorial",
    "DiscretePmf",
    "trim_tail",
    "truncation_point",
    "SizeDistribution",
    "ModelParams",
    "DerivedParams",
    "Moments",
    "Degenerate",
    "Table",
    "TruncatedPowerLaw",
    "BinomialSizes",
    "SizeSpec",
    "SIZE_KINDS",
    "make_size_dist",
    "moments",
    "scale_constants",
    "size_biased",
]

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
    (relative error ~1e-13 even for C(1e9, 5e8)-scale arguments).  A
    ``ValueError`` names a coefficient past the float range.
    """
    if n < 0 or k < 0 or k > n:
        return 0.0
    kk = min(k, n - k)
    if n <= _EXACT_N_MAX and kk <= _EXACT_K_MAX:
        value = math.comb(n, kk)
        if value.bit_length() <= 1000:
            return float(value)
    try:
        return math.exp(log_binomial(n, k))
    except OverflowError:
        raise ValueError(f"C({n}, {k}) overflows a float") from None


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


def _freeze(array: np.ndarray, dtype: type = float) -> np.ndarray:
    arr = np.ascontiguousarray(array, dtype=dtype)
    arr.flags.writeable = False
    return arr


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
        # each check is written so that NaN fails it
        if not np.all(probs >= -1e-12):
            raise ValueError("probs must be nonnegative numbers")
        probs = np.clip(probs, 0.0, None)
        if not self.tail_mass >= -1e-12:
            raise ValueError("tail_mass must be a nonnegative number")
        tail = max(float(self.tail_mass), 0.0)
        total = float(probs.sum()) + tail
        if not abs(total - 1.0) <= PMF_TOL:
            raise ValueError(f"probs and tail_mass sum to {total!r}, not 1 within {PMF_TOL}")
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "tail_mass", tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscretePmf):
            return NotImplemented
        return self.tail_mass == other.tail_mass and np.array_equal(self.probs, other.probs)

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    @property
    def support(self) -> np.ndarray:
        """Values carrying positive mass, ascending."""
        return np.flatnonzero(self.probs > 0.0)

    def prob(self, k: int) -> float:
        if 0 <= k <= self.k_max:
            return float(self.probs[k])
        return 0.0

    def prob_ge(self, k: int) -> float:
        """P(X >= k); past k = 0 only the truncated part counts."""
        if k <= 0:
            return 1.0
        return float(self.probs[k:].sum())

    def mean(self) -> float:
        """Mean of the truncated part (the tail contributes nothing)."""
        return float(np.dot(np.arange(self.probs.size), self.probs))

    def second_moment(self) -> float:
        ks = np.arange(self.probs.size, dtype=float)
        return float(np.dot(ks * ks, self.probs))

    @staticmethod
    def point_mass(k: int) -> "DiscretePmf":
        if k < 0:
            raise ValueError("point mass location must be >= 0")
        probs = np.zeros(k + 1)
        probs[k] = 1.0
        return DiscretePmf(probs, 0.0)

    @staticmethod
    def truncated(probs: np.ndarray, tol: float | None = None) -> "DiscretePmf":
        """``probs`` with the mass they miss of 1 as ``tail_mass``; with a
        ``tol``, first drop their trailing run of mass below it
        (:func:`trim_tail`)."""
        if tol is not None:
            probs = trim_tail(probs, tol)
        return DiscretePmf(probs, max(0.0, 1.0 - float(probs.sum())))


def trim_tail(probs: np.ndarray, tol: float) -> np.ndarray:
    """``probs`` without its longest trailing run of total mass < ``tol``
    (at least the first entry stays)."""
    csum = np.cumsum(probs[::-1])[::-1]
    keep = np.nonzero(csum >= tol)[0]
    return probs[: (int(keep[-1]) + 1) if keep.size else 1]


def truncation_point(mean: float, var: float) -> float:
    """Where a degree pmf of this mean and variance is cut when no k_max
    is given: 12 standard deviations (of var + 1, so never 0) past the
    mean, plus 30."""
    return mean + 12.0 * math.sqrt(var + 1.0) + 30.0


SizeDistribution = DiscretePmf  # a size law: a pmf on {0..m} with no tail mass


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
        if self.size_dist.k_max > self.m:
            raise ValueError(f"size_dist has sizes up to {self.size_dist.k_max}, above m={self.m}")
        if self.size_dist.tail_mass != 0.0:
            raise ValueError("size_dist must have no tail mass")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")


@dataclass(frozen=True)
class DerivedParams:
    """Scale constants of the sparse regime.

    ``z`` holds the rescaled joint count C(x, s) * sqrt(n / C(m, s)) of
    an actor at each set size x of ``support``, whose probabilities are
    ``weights``; ``mu1`` and ``ez2`` are E[z] and E[z^2] under the size
    distribution.  ``beta_active`` = C(m, s)/n sets the clustering
    magnitude of the actor graph, and ``mu1_per_root_beta`` =
    mu1/sqrt(beta_active) scales its clustering laws.  ``lam`` = z * mu1
    is the mixed Poisson degree intensity at each size and ``log_lam``
    its ``math.log`` (0 where the intensity is 0).  The arrays are
    read-only: :func:`scale_constants` hands one instance to every caller
    of the same law.
    """

    mu1: float
    ez2: float
    beta_active: float
    mu1_per_root_beta: float
    support: np.ndarray
    weights: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    log_lam: np.ndarray


@dataclass(frozen=True)
class Moments:
    """Combinatorial moments of a size distribution at threshold s.

    a_k = E[C(X, s)^k] for k = 1, 2 and f_k = E[(X)_k] for k = 2, 3.
    """

    a1: float
    a2: float
    f2: float
    f3: float


@dataclass(frozen=True)
class Degenerate:
    """All sets share the fixed size ``x``."""

    kind: ClassVar[str] = "degenerate"
    x: int

    def pmf(self, m: int) -> SizeDistribution:
        if not 0 <= self.x <= m:
            raise ValueError(f"degenerate size {self.x} outside [0, {m}]")
        w = np.zeros(self.x + 1)
        w[self.x] = 1.0
        return DiscretePmf(w)


@dataclass(frozen=True)
class Table:
    """Explicit weight table indexed from size 0; renormalized."""

    kind: ClassVar[str] = "table"
    weights: Sequence[float]

    def pmf(self, m: int) -> SizeDistribution:
        w = np.asarray(list(self.weights), dtype=float)
        if w.size == 0 or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("table weights must be finite and nonnegative")
        if w.size > m + 1 and np.any(w[m + 1 :] > 0):
            raise ValueError(f"table support exceeds m={m}")
        w = w[: m + 1]
        with np.errstate(over="ignore"):
            total = w.sum()
        if not math.isfinite(total):
            raise ValueError("table weights sum past the largest float; not normalizable")
        if total <= 0:
            raise ValueError("table weights sum to zero; not normalizable")
        return DiscretePmf(w / total)


@dataclass(frozen=True)
class TruncatedPowerLaw:
    """Weights proportional to x^(-gamma) on [x_min, x_max]."""

    kind: ClassVar[str] = "truncated_power_law"
    gamma: float
    x_min: int
    x_max: int

    def pmf(self, m: int) -> SizeDistribution:
        if self.gamma <= 1:
            raise ValueError("power-law exponent gamma must exceed 1")
        if self.x_min < 1 or self.x_min > self.x_max:
            raise ValueError("power law requires 1 <= x_min <= x_max")
        if self.x_max > m:
            raise ValueError(f"power-law support [{self.x_min}, {self.x_max}] exceeds m={m}")
        xs = np.arange(self.x_min, self.x_max + 1, dtype=float)
        # relative to x_min the largest weight is 1, so the sum never underflows to 0
        raw = (xs / self.x_min) ** (-self.gamma)
        w = np.zeros(self.x_max + 1)
        w[self.x_min :] = raw / raw.sum()
        return DiscretePmf(w)


@dataclass(frozen=True)
class BinomialSizes:
    """Sizes follow Binomial(trials, p)."""

    kind: ClassVar[str] = "binomial"
    trials: int
    p: float

    def pmf(self, m: int) -> SizeDistribution:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("binomial p must lie in [0, 1]")
        if self.trials < 0 or self.trials > m:
            raise ValueError(f"binomial trials {self.trials} outside [0, {m}]")
        t, p = self.trials, self.p
        if t <= 1029:  # every C(t, k) fits a float: the exact term
            w = np.array([math.comb(t, k) * p**k * (1 - p) ** (t - k) for k in range(t + 1)])
        elif 0.0 < p < 1.0:  # each term in log space, O(1) per k
            lp, lq = math.log(p), math.log1p(-p)
            w = np.array([math.exp(log_binomial(t, k) + k * lp + (t - k) * lq) for k in range(t + 1)])
        else:  # p in {0, 1}: an exact point mass
            w = np.zeros(t + 1)
            w[t if p == 1.0 else 0] = 1.0
        return DiscretePmf(w / w.sum())


SizeSpec = Union[Degenerate, Table, TruncatedPowerLaw, BinomialSizes]
SIZE_KINDS = {cls.kind: cls for cls in get_args(SizeSpec)}  # each size law by its config name


def make_size_dist(spec: SizeSpec, m: int) -> SizeDistribution:
    """Build the size law on {0..m} of a spec, through its ``pmf``: a
    :class:`DiscretePmf` with no tail mass.

    Raises ``ValueError`` when the requested support exceeds m or the
    parameters cannot be normalized into a distribution.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return spec.pmf(m)


def moments(dist: SizeDistribution, s: int) -> Moments:
    """Combinatorial moments a_1, a_2 and factorial moments f_2, f_3.

    a_k = sum_x P(x) C(x, s)^k, f_k = sum_x P(x) (x)_k.  A distribution
    degenerate at 0 yields all-zero moments.  a_2 reads inf past the
    float range; :func:`riglab.theory.alpha_active` then does without it.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    xs = dist.support
    w = dist.probs[xs]
    sizes = xs.tolist()
    cs = np.array([binomial(x, s) for x in sizes])
    a1 = float(np.dot(w, cs))
    with np.errstate(over="ignore"):
        a2 = float(np.dot(w, cs * cs))
    fs = [
        float(np.dot(w, np.array([falling_factorial(x, k) for x in sizes], dtype=float)))
        for k in (2, 3)
    ]
    return Moments(a1=a1, a2=a2, f2=fs[0], f3=fs[1])


_SCALE_MEMO_SIZE = 4  # laws held at once; every caller reads one law at a time


def scale_constants(dist: SizeDistribution, n: int, m: int, s: int) -> DerivedParams:
    """Scale constants of size law ``dist`` at (n, m, s); see
    :class:`DerivedParams`.

    Binomials are evaluated in log space so the map z(x) and the ratio
    C(m, s)/n stay finite for m up to 1e9 and any s <= m; a ``ValueError``
    names the one that still overflows a float.  mu1 is the dot product
    of the support weights with z.

    The result is memoised by value, on the bytes of ``dist.probs`` and
    (n, m, s): laws with equal probabilities share one instance, a call
    that raises stores nothing, and the ``_SCALE_MEMO_SIZE`` most recently
    used keys are kept.
    """
    return _scale_constants(dist.probs.tobytes(), n, m, s)


# typed: an n of another integer type (np.int64) gives a beta of another float type
@functools.lru_cache(maxsize=_SCALE_MEMO_SIZE, typed=True)
def _scale_constants(probs: bytes, n: int, m: int, s: int) -> DerivedParams:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= s <= m:
        raise ValueError("s must satisfy 1 <= s <= m")
    log_m_choose_s = log_binomial(m, s)
    try:
        beta_active = binomial(m, s) / n
    except (OverflowError, ValueError):  # C(m, s) or n alone past the float range
        try:
            beta_active = math.exp(log_m_choose_s - math.log(n))
        except OverflowError:
            raise ValueError(f"C(m, s)/n overflows a float at n={n}, m={m}, s={s}") from None
    half_log = 0.5 * (math.log(n) - log_m_choose_s)
    pmf = np.frombuffer(probs)
    xs = np.flatnonzero(pmf > 0.0)
    w = pmf[xs]
    try:
        z = np.fromiter(map(math.exp, (_log_binomials(xs, s) + half_log).tolist()), float, xs.size)
    except OverflowError:
        raise ValueError(f"z(x) overflows a float at n={n}, m={m}, s={s}") from None
    mu1 = float(np.dot(w, z))
    lam = z * mu1
    log_lam = np.fromiter(map(math.log, np.where(lam > 0.0, lam, 1.0).tolist()), float, lam.size)
    return DerivedParams(
        mu1=mu1,
        ez2=float(np.dot(w, z * z)),
        beta_active=beta_active,
        # beta is 0 only where n / C(m, s) passes the float range
        mu1_per_root_beta=mu1 / math.sqrt(beta_active) if beta_active > 0.0 else math.inf,
        support=_freeze(xs, xs.dtype),
        weights=_freeze(w),
        z=_freeze(z),
        lam=_freeze(lam),
        log_lam=_freeze(log_lam),
    )


def _log_binomials(xs: np.ndarray, s: int) -> np.ndarray:
    """:func:`log_binomial` of each size in ``xs`` at s, float for float.

    Where min(s, x - s) <= 1 the value is -inf (x < s), 0 (x = s) or
    log x: the fsum of one term is that term and lgamma(2) == 0.0.  Only
    the other sizes take a Python call each.
    """
    kk = np.minimum(s, xs - s)
    out = np.where(kk < 0, -math.inf, 0.0)
    one = np.flatnonzero(kk == 1)
    out[one] = np.fromiter(map(math.log, xs[one].tolist()), float, one.size)
    many = np.flatnonzero(kk > 1)
    out[many] = [log_binomial(x, s) for x in xs[many].tolist()]
    return out


def size_biased(q: DiscretePmf) -> DiscretePmf:
    """Size-bias-and-shift transform: mass at j becomes (j+1) q_{j+1} / mean.

    A zero-mean input maps to the point mass at 0 by convention.  Any
    tail mass of the input reappears as tail mass of the output.
    """
    mean = q.mean()
    if mean <= 0.0:
        return DiscretePmf.point_mass(0)
    js = np.arange(1, q.probs.size, dtype=float)
    return DiscretePmf.truncated(js * q.probs[1:] / mean)
