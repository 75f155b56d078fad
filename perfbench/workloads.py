"""The benchmark's workloads: what one operation runs and how it is checked.

Each workload is led by one riglab layer, so that a change to that layer
shows on its own workload and its absence of effect shows on the others:

- ``passive-wedge``: example5 parameters (passive, n = m = 100 000,
  fixed size 4, s = 1) with two replicates; about 8.4 M wedges on
  600 k edges per replicate, so wedge probing in ``stats`` and CSR
  assembly lead.
- ``active-threshold``: the example1 regime scaled up (active,
  n = 60 000, m = 6 000, fixed size 6, s = 2); about 10.8 M
  co-occurrence pairs threshold down to about 22 k edges, so pair
  emission and thresholding in the ``sampler`` build lead while CSR and
  counting are near zero.
- ``dense-sets``: passive, n = 100 000, m = 100, fixed size 10, s = 1;
  x(x-1) > m/2 sends every row down the per-row subset sampler, and the
  graph is K_100, so ``sampler.sample_incidence`` leads.
- ``theory-sweep``: no simulation; the theory side of a scenario over a
  fixed grid of power-law size laws, so the ``theory`` curves lead.

An operation is one ``run_scenario`` call at ``jobs=1`` and the
benchmark's seed, or one pass over the theory grid.  Besides the report,
a simulation operation checks the sets it sampled for replicate 0 and
puts their digest into the body it compares across operations.  The
theory grid has no random input, so ``theory-sweep`` ignores the seed.

Modules here import riglab lazily, so the parent process can list the
workloads without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import math


def _scenario(kind, n, m, s, x, replicates, outputs, **extra):
    doc = {
        "model": {"kind": kind, "n": n, "m": m, "s": s, "size_dist": {"kind": "degenerate", "x": x}},
        "replicates": replicates,
        "outputs": outputs,
        **extra,
    }
    return {"scenario": doc}


SCENARIOS = {
    "passive-wedge": _scenario(
        "passive", 100_000, 100_000, 1, 4, 2, ["degree", "clustering", "alpha_k", "regime"], k_range=[3, 12]
    ),
    "active-threshold": _scenario("active", 60_000, 6_000, 2, 6, 1, ["degree", "theorem1_stats"]),
    "dense-sets": _scenario("passive", 100_000, 100, 1, 10, 1, ["regime", "theorem1_stats"]),
}

WORKLOADS = (*SCENARIOS, "theory-sweep")

ACTIVE_GAMMAS = (2.5, 3.0, 3.5, 4.0, 4.5)
ACTIVE_NM = 200_000
ACTIVE_X = (1, 200)
ACTIVE_KS = range(2, 61)
PASSIVE_GAMMAS = (3.0, 3.5, 4.0)
PASSIVE_NM = 100_000
PASSIVE_X = (2, 50)
PASSIVE_K_MAX = 40
IDENTITY_RTOL = 1e-9  # the identities are exact; this is float round-off
CHI2_Z = 8.0  # attribute-frequency bound, in standard deviations of chi2
MAX_CHANCE_REPEATS = 3  # repeated rows allowed beyond the chance bound


def make(name: str):
    """Set up workload ``name``: parse its config and build its size laws."""
    if name == "theory-sweep":
        return TheorySweep()
    return Scenario(SCENARIOS[name])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=IDENTITY_RTOL, abs_tol=1e-15)


class Scenario:
    """A simulation workload: one ``run_scenario`` call per operation."""

    def __init__(self, doc: dict) -> None:
        from riglab import cli

        self.cfg = cli.parse_scenario(doc)

    def inputs(self) -> dict:
        cfg = self.cfg
        return {
            "kind": cfg.kind,
            "n": cfg.n,
            "m": cfg.m,
            "x": cfg.size_spec.x,
            "s": cfg.s,
            "replicates": cfg.replicates,
        }

    def run(self, seed: int):
        """One ``run_scenario`` call; returns (report, replicate 0's
        Incidence).  The Incidence is kept by a pass-through around
        whatever ``cli.sample_incidence`` is installed, so that the
        sampled data can be checked after the clock stops."""
        from riglab import cli

        inner = cli.sample_incidence
        kept = []

        def keep_first(*args, **kwargs):
            inc = inner(*args, **kwargs)
            if not kept:
                kept.append(inc)
            return inc

        cli.sample_incidence = keep_first
        try:
            report = cli.run_scenario(self.cfg, seed=seed, jobs=1)
        finally:
            cli.sample_incidence = inner
        return report, kept[0]

    def body(self, out) -> str:
        import numpy as np

        report, inc = out
        digest = hashlib.sha256(np.ascontiguousarray(inc.attrs, dtype=np.int64).tobytes()).hexdigest()
        return f"{report.json_body()}\nattrs sha256 {digest}"

    def problems(self, out, body: str, reference: str | None) -> list[str]:
        report, inc = out
        problems = []
        if not report.passed:
            failing = sorted(k for k, v in report.body["passes"].items() if v is False)
            problems.append(f"report.passed is false ({', '.join(failing)})")
        problems += incidence_problems(inc, self.cfg.n, self.cfg.m, self.cfg.size_spec.x)
        if reference is not None and body != reference:
            problems.append("report body differs from the first body at this seed")
        return problems


def incidence_problems(inc, n: int, m: int, x: int) -> list[str]:
    """Check one sampled Incidence of a fixed set size x.

    Every row holds x distinct sorted attributes in [0, m); no more rows
    repeat than chance allows among C(m, x) equally likely subsets; and
    the attribute frequencies pass a chi-square bound against uniform,
    both ways, so that neither a biased nor an over-regular sampler
    passes.  Under uniform x-subsets each count has variance
    n (x/m)(1 - x/m), so the statistic's mean is (m - 1)(1 - x/m).
    """
    import numpy as np

    if inc.m != m or inc.sizes.shape != (n,) or not np.all(inc.sizes == x):
        return [f"incidence has m={inc.m}, {inc.sizes.size} rows, sizes not all {x}"]
    if not np.array_equal(inc.offsets, np.arange(n + 1) * x) or inc.attrs.size != n * x:
        return ["incidence offsets or attrs do not match its sizes"]
    rows = inc.attrs.reshape(n, x)
    problems = []
    if rows.min() < 0 or rows.max() >= m:
        problems.append(f"attributes outside [0, {m})")
    if x > 1 and not np.all(np.diff(rows, axis=1) > 0):
        problems.append("a row is not strictly increasing (unsorted or repeated attribute)")
    repeats = n - np.unique(rows, axis=0).shape[0]
    expected = n * (n - 1) / 2 / math.comb(m, x)
    if repeats > expected + 6 * math.sqrt(expected) + MAX_CHANCE_REPEATS:
        problems.append(f"{repeats} repeated rows, {expected:.3g} expected by chance")
    counts = np.bincount(rows.ravel(), minlength=m)
    mean = n * x / m
    chi2 = float(((counts - mean) ** 2).sum() / mean)
    z = (chi2 - (m - 1) * (1 - x / m)) / math.sqrt(2 * (m - 1))
    if abs(z) > CHI2_Z:
        problems.append(f"attribute frequencies off uniform: chi2 {chi2:.1f} on {m - 1} df (z {z:.1f})")
    return problems


class TheorySweep:
    """The theory side of a scenario over a fixed grid, one pass per
    operation."""

    def __init__(self) -> None:
        from riglab.model import TruncatedPowerLaw, make_size_dist

        self.active = [make_size_dist(TruncatedPowerLaw(g, *ACTIVE_X), ACTIVE_NM) for g in ACTIVE_GAMMAS]
        self.passive = [make_size_dist(TruncatedPowerLaw(g, *PASSIVE_X), PASSIVE_NM) for g in PASSIVE_GAMMAS]

    def inputs(self) -> dict:
        return {
            "active": {"gamma": ACTIVE_GAMMAS, "x": ACTIVE_X, "n": ACTIVE_NM, "m": ACTIVE_NM, "k": [2, 60]},
            "passive": {"gamma": PASSIVE_GAMMAS, "x": PASSIVE_X, "n": PASSIVE_NM, "m": PASSIVE_NM, "k_max": 40},
        }

    def run(self, seed: int) -> dict:
        from riglab import theory

        n = m = ACTIVE_NM
        active = [
            {
                "degree_pmf": theory.mixed_poisson_degree_pmf(dist, n, m, 1),
                "alpha": theory.alpha_active(dist, m, 1),
                "alpha_k": [theory.alpha_k_active(dist, n, m, 1, k) for k in ACTIVE_KS],
            }
            for dist in self.active
        ]
        passive = []
        for dist in self.passive:
            spec = theory.passive_compound_spec(dist, PASSIVE_NM, PASSIVE_NM)
            passive.append(
                {
                    "spec": spec,
                    "degree_pmf": theory.compound_poisson_pmf(spec),
                    "alpha": theory.alpha_passive_finite(dist, PASSIVE_NM, PASSIVE_NM),
                    "alpha_k": theory.alpha_k_passive_curve(spec, PASSIVE_K_MAX),
                }
            )
        return {"active": active, "passive": passive}

    def body(self, out: dict) -> str:
        def pmf(p):
            return {"probs": p.probs.tolist(), "tail_mass": p.tail_mass}

        doc = {
            "active": [{**row, "degree_pmf": pmf(row["degree_pmf"])} for row in out["active"]],
            "passive": [
                {
                    "degree_pmf": pmf(row["degree_pmf"]),
                    "alpha": row["alpha"],
                    "alpha_k": {str(k): v for k, v in row["alpha_k"].items()},
                }
                for row in out["passive"]
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def problems(self, out: dict, body: str, reference: str | None) -> list[str]:
        """α against its two other closed forms, α*[k] against the Palm
        identity, and the body against the first pass."""
        from riglab import theory

        problems = []
        n = m = ACTIVE_NM
        for gamma, dist, row in zip(ACTIVE_GAMMAS, self.active, out["active"]):
            beta_form = theory.alpha_active_beta_form(dist, n, m, 1)
            ed, ed2 = theory.asymptotic_degree_moments(dist, n, m, 1)
            moment_form = theory.alpha_active_from_degree_moments(m / n, ed, ed2)
            if not (_close(row["alpha"], beta_form) and _close(row["alpha"], moment_form)):
                problems.append(f"active gamma={gamma}: alpha {row['alpha']!r} vs {beta_form!r}, {moment_form!r}")
        for gamma, row in zip(PASSIVE_GAMMAS, out["passive"]):
            palm = palm_alpha_k(row["spec"], PASSIVE_K_MAX)
            bad = [k for k, v in row["alpha_k"].items() if k not in palm or not _close(v, palm[k])]
            if bad or not row["alpha_k"]:
                problems.append(f"passive gamma={gamma}: alpha*[k] off the Palm identity at k={bad}")
        if reference is not None and body != reference:
            problems.append("theory pass differs from the first pass")
        return problems


def palm_alpha_k(spec, k_max: int) -> dict[int, float]:
    """α*[k] = λ Σ_j f_j j(j−1) g(k−j) / (k(k−1) g(k)) for k in [2, k_max],
    with g the compound Poisson pmf and f the jump pmf (Palm/Mecke)."""
    import numpy as np

    from riglab import theory

    g = np.asarray(theory.compound_poisson_pmf(spec, k_max=k_max).probs, dtype=float)
    f = np.asarray(spec.jump_pmf.probs, dtype=float)
    out = {}
    for k in range(2, k_max + 1):
        if k >= g.size or g[k] <= 0.0:
            continue
        j = np.arange(min(f.size - 1, k) + 1)
        h = float(np.sum(f[j] * j * (j - 1) * g[k - j]))
        out[k] = spec.lam * h / (k * (k - 1) * g[k])
    return out
