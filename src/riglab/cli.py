"""Scenario orchestration and the ``riglab`` command line.

A scenario is a JSON object describing one model, a replicate count and
the analyses to run.  Replicate r always draws from stream r of the
scenario seed, workers share nothing, and results are folded in
replicate order, so a report body is a pure function of (config, seed)
at any parallelism level.  Wall-clock numbers live in a separate
``timing`` section so report bodies can be compared byte for byte.

Config parsing is fail-closed: unknown keys anywhere, and numeric
fields holding anything but a JSON number, raise an error naming the
offending field path.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from collections.abc import Iterable
from functools import partial
from itertools import zip_longest
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import oracle, stats, theory
from .model import (
    BinomialSizes,
    Degenerate,
    DiscretePmf,
    ModelParams,
    SizeDistribution,
    SizeSpec,
    Table,
    TruncatedPowerLaw,
    make_size_dist,
)
from .sampler import (
    ResourceLimitError,
    build_active,
    build_passive,
    rng_stream,
    sample_incidence,
    write_edge_list,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Report",
    "parse_scenario",
    "load_config",
    "preset_config",
    "PRESETS",
    "run_scenario",
    "main",
]

DEFAULT_TOLERANCES = {"tv_degree": 0.01, "alpha_abs": 0.02, "alpha_k_rel": 0.25}
ENV_SEED = "RIGLAB_SEED"

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_COMPARISON = 2


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_keys(obj: dict, path: str, required: tuple, optional: Iterable[str] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _int_field(obj: dict, key: str, path: str, minimum: int | None = None) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}", "expected an integer")
    if not -(2**63) <= value < 2**63:
        raise ConfigError(f"{path}.{key}", "must fit in a signed 64-bit integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}")
    return value


SIZE_KINDS = {
    "degenerate": Degenerate,
    "table": Table,
    "truncated_power_law": TruncatedPowerLaw,
    "binomial": BinomialSizes,
}


def _number(value, path: str) -> float:
    """A finite JSON number as a float; bool, null, strings, NaN and
    numbers past the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    if not abs(value) <= sys.float_info.max:  # ints compare exactly; NaN fails
        raise ConfigError(path, "expected a finite number")
    return float(value)


def _float_field(obj: dict, key: str, path: str, inside: tuple[float, float] | None = None) -> float:
    value = _number(obj[key], f"{path}.{key}")
    if inside is not None and not inside[0] < value < inside[1]:
        raise ConfigError(f"{path}.{key}", f"must lie in ({inside[0]}, {inside[1]})")
    return value


def _list_field(obj: dict, key: str, path: str) -> list[float]:
    if not isinstance(obj[key], list):
        raise ConfigError(f"{path}.{key}", "expected a list")
    return [_number(w, f"{path}.{key}[{i}]") for i, w in enumerate(obj[key])]


# reader of each size-spec field, called as reader(obj, key, path)
_SIZE_FIELDS = {
    "x": partial(_int_field, minimum=0),
    "weights": _list_field,
    "gamma": _float_field,
    "x_min": partial(_int_field, minimum=1),
    "x_max": partial(_int_field, minimum=1),
    "trials": partial(_int_field, minimum=0),
    "p": _float_field,
}


def parse_size_spec(obj: dict, path: str) -> SizeSpec:
    _check_keys(obj, path, required=("kind",), optional=_SIZE_FIELDS)
    kind = obj["kind"]
    cls = SIZE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.kind", f"unknown size distribution kind {kind!r}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, path, required=("kind", *names))
    values = {name: _SIZE_FIELDS[name](obj, name, path) for name in names}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _tolerances_field(obj: dict, key: str, path: str) -> dict[str, float]:
    tol, path = obj[key], f"{path}.{key}"
    _check_keys(tol, path, required=(), optional=DEFAULT_TOLERANCES)
    tolerances = dict(DEFAULT_TOLERANCES)
    for name in tol:
        value = _float_field(tol, name, path)
        if not value > 0:
            raise ConfigError(f"{path}.{name}", "must be > 0")
        tolerances[name] = value
    return tolerances


def _k_range_field(obj: dict, key: str, path: str) -> tuple[int, int]:
    kr = obj[key]
    if not (isinstance(kr, list) and len(kr) == 2 and all(isinstance(k, int) for k in kr)):
        raise ConfigError(f"{path}.{key}", "expected [k_min, k_max] integers")
    if not 2 <= kr[0] <= kr[1]:
        raise ConfigError(f"{path}.{key}", "need 2 <= k_min <= k_max")
    return (kr[0], kr[1])


def _or_null(reader):
    """``reader`` that takes null as unset, as the report echo writes it."""
    return lambda obj, key, path: None if obj[key] is None else reader(obj, key, path)


# reader and default of each optional scenario key, in parse order, each
# a ScenarioConfig field; the reader is called as reader(obj, key, path),
# and each config gets its own copy of the default
_SCENARIO_OPTIONS = {
    "seed": (partial(_int_field, minimum=0), None),
    "tolerances": (_tolerances_field, DEFAULT_TOLERANCES),
    "k_range": (_k_range_field, (2, 20)),
    "k_max": (_or_null(partial(_int_field, minimum=1)), None),
    "min_bucket": (partial(_int_field, minimum=1), stats.DEFAULT_MIN_BUCKET),
    "epsilon": (_or_null(partial(_float_field, inside=(0, 0.5))), None),
}


@dataclass
class ScenarioConfig:
    """One validated scenario: model, replication and requested analyses."""

    kind: str
    n: int
    m: int
    s: int
    size_spec: SizeSpec
    size_dist: SizeDistribution
    replicates: int
    seed: int | None
    outputs: tuple[str, ...]
    tolerances: dict[str, float]
    k_range: tuple[int, int]
    k_max: int | None
    min_bucket: int
    epsilon: float | None

    def params(self) -> ModelParams:
        return ModelParams(n=self.n, m=self.m, s=self.s, size_dist=self.size_dist, kind=self.kind)

    def echo(self, seed: int) -> dict:
        """The scenario as a config document body: every key, ``None``
        where unset, and ``seed`` the resolved one."""
        kind = next(name for name, cls in SIZE_KINDS.items() if isinstance(self.size_spec, cls))
        sd = {"kind": kind, **asdict(self.size_spec)}
        options = {key: copy.copy(getattr(self, key)) for key in _SCENARIO_OPTIONS}
        return {
            "model": {"kind": self.kind, "n": self.n, "m": self.m, "s": self.s, "size_dist": sd},
            "replicates": self.replicates,
            "outputs": list(self.outputs),
            **{key: list(v) if isinstance(v, tuple) else v for key, v in options.items()},
            "seed": seed,
        }


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a config document (fail-closed) into a ScenarioConfig."""
    _check_keys(doc, "$", required=("scenario",))
    sc = doc["scenario"]
    _check_keys(sc, "scenario", required=("model", "replicates", "outputs"), optional=_SCENARIO_OPTIONS)
    model = sc["model"]
    _check_keys(model, "scenario.model", required=("kind", "n", "m", "s", "size_dist"))
    kind = model["kind"]
    if kind not in ("active", "passive"):
        raise ConfigError("scenario.model.kind", "must be 'active' or 'passive'")
    n = _int_field(model, "n", "scenario.model", 1)
    m = _int_field(model, "m", "scenario.model", 1)
    s = _int_field(model, "s", "scenario.model", 1)
    spec = parse_size_spec(model["size_dist"], "scenario.model.size_dist")
    try:
        dist = make_size_dist(spec, m)
        params = ModelParams(n=n, m=m, s=s, size_dist=dist, kind=kind)
    except ValueError as exc:
        raise ConfigError("scenario.model", str(exc)) from exc
    replicates = _int_field(sc, "replicates", "scenario", 1)
    outputs = sc["outputs"]
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("scenario.outputs", "expected a non-empty list")
    for i, out in enumerate(outputs):
        if out not in _ANALYSES:
            raise ConfigError(f"scenario.outputs[{i}]", f"unknown analysis {out!r}; known: {tuple(_ANALYSES)}")
    options = {
        key: reader(sc, key, "scenario") if key in sc else copy.copy(default)
        for key, (reader, default) in _SCENARIO_OPTIONS.items()
    }
    if "example2" in outputs:
        if options["epsilon"] is None:
            raise ConfigError("scenario.epsilon", "required when outputs include 'example2'")
        try:
            oracle.dense_overlap_set_size(m, options["epsilon"])
        except ValueError as exc:
            raise ConfigError("scenario.epsilon", str(exc)) from exc
    # no vertex has more than V - 1 neighbours (n - 1 actors, m - 1
    # attributes); the default k range passes on any graph, so that a
    # report's echo always parses back
    top = (n if kind == "active" else m) - 1
    k_hi = options["k_range"][1]
    if k_hi > max(top, _SCENARIO_OPTIONS["k_range"][1][1]):
        raise ConfigError("scenario.k_range", f"upper end {k_hi} exceeds the largest degree {top}")
    if options["k_max"] is not None and options["k_max"] > top:
        raise ConfigError("scenario.k_max", f"{options['k_max']} exceeds the largest degree {top}")
    return ScenarioConfig(
        kind=kind,
        n=n,
        m=m,
        s=s,
        size_spec=spec,
        size_dist=dist,
        replicates=replicates,
        outputs=tuple(outputs),
        **options,
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


# ---------------------------------------------------------------- presets

def _preset(kind, n, m, s, size_dist, replicates, outputs, **extra) -> dict:
    model = {"kind": kind, "n": n, "m": m, "s": s, "size_dist": size_dist}
    return {"scenario": {"model": model, "replicates": replicates, "outputs": outputs, **extra}}


# built-in scenario documents, shared module data: parse, never mutate
PRESETS = {
    # fixed size 6, threshold 2, scale tuned so the degree law is ~Poisson(1)
    "example1": _preset(
        "active", 20000, 3000, 2, {"kind": "degenerate", "x": 6}, 2, ["degree", "theorem1_stats"]
    ),
    # half-overlap diagnostics: s = m/2, x = 0.6 m; n tuned so the
    # conditional degree mean is ~1 while kappa2 stays order-1
    "example2": _preset(
        "active", 1222, 40, 20, {"kind": "degenerate", "x": 24}, 1, ["example2", "theorem1_stats"],
        epsilon=0.1,
    ),
    # heavy-tailed sizes: clustering decays like 1/degree
    "example3": _preset(
        "active", 200000, 200000, 1,
        {"kind": "truncated_power_law", "gamma": 4.5, "x_min": 1, "x_max": 200},
        4, ["degree", "clustering", "alpha_k"], k_range=[4, 20],
    ),
    # fixed size 2 at n = m: Poisson(4) degrees, flat alpha^[k]
    "example4": _preset(
        "active", 100000, 100000, 1, {"kind": "degenerate", "x": 2}, 1,
        ["degree", "clustering", "alpha_k"], k_range=[2, 10],
    ),
    # passive fixed size 4: compound Poisson degrees, alpha*[k] = 2/(k-1)
    "example5": _preset(
        "passive", 100000, 100000, 1, {"kind": "degenerate", "x": 4}, 1,
        ["degree", "clustering", "alpha_k", "regime"], k_range=[3, 12],
    ),
}


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return parse_scenario(PRESETS[name])


# ---------------------------------------------------------------- execution

def _build_graph(cfg: ScenarioConfig, inc, r: int):
    """Replicate r's graph, built by the builder bound to this module's
    global at call time (so a patched one is used); an abort names r."""
    build = build_active if cfg.kind == "active" else build_passive
    try:
        return build(inc, cfg.s)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"replicate {r}: {exc}") from exc


def _replicate_worker(cfg: ScenarioConfig, reads: frozenset, seed: int, r: int) -> dict:
    """Run one replicate on its own stream; returns its value of each
    read as plain picklable data.  The graph is built only for the reads
    that take it, so a scenario that builds nothing never trips the pair
    cap."""
    inc = sample_incidence(cfg.params(), rng_stream(seed, r))
    out = {}
    if "sizes" in reads and r == 0:
        out["sizes"] = inc.sizes
    if reads & {"degrees", "clustering"}:
        graph = _build_graph(cfg, inc, r)
        del inc  # the sets are not read past the build
        if "degrees" in reads:
            out["degrees"] = np.bincount(graph.degrees, minlength=1)
        if "clustering" in reads:
            out["clustering"] = stats.clustering_report(graph, cfg.min_bucket)
    return out


def _pooled_reads(cfg: ScenarioConfig, reads: frozenset, seed: int, jobs: int) -> dict:
    """Each read pooled over the replicates, folded in replicate order:
    the empirical degree pmf, the pooled clustering report, and replicate
    0's sizes.  Only the graph reads take every replicate, so a scenario
    that reads sizes alone samples replicate 0 only."""
    count = cfg.replicates if reads & {"degrees", "clustering"} else int("sizes" in reads)
    work = partial(_replicate_worker, cfg, reads, seed)
    if jobs <= 1 or count <= 1:
        results = [work(r) for r in range(count)]
    else:
        # imported here, so a serial run never loads the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            results = list(pool.map(work, range(count)))
    pooled = {}
    if "degrees" in reads:
        total = np.zeros(max(res["degrees"].size for res in results))
        for res in results:
            total[: res["degrees"].size] += res["degrees"]
        pooled["degrees"] = DiscretePmf(total / total.sum(), 0.0)
    if "clustering" in reads:
        pooled["clustering"] = stats.pooled_estimates([res["clustering"] for res in results])
    if "sizes" in reads:
        pooled["sizes"] = results[0]["sizes"]
    return pooled


def _json_float(x) -> float | str | None:
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else str(x)  # "inf", "-inf" or "nan"


def _json_floats(result) -> dict:
    """A dataclass result as a dict of JSON-safe floats, keyed by field name."""
    return {key: _json_float(value) for key, value in vars(result).items()}


def _pmf_json(pmf: DiscretePmf) -> dict:
    return {"probs": [float(p) for p in pmf.probs], "tail_mass": float(pmf.tail_mass)}


@dataclass
class Report:
    """Scenario result: a deterministic body plus timing metadata."""

    body: dict
    timing: dict = field(default_factory=dict)

    def json_body(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=2)

    def to_json(self) -> str:
        return json.dumps({**self.body, "timing": self.timing}, sort_keys=True, indent=2)

    @property
    def passed(self) -> bool:
        return all(flag for flag in self.body["passes"].values() if flag is not None)


def _degree(cfg: ScenarioConfig, empirical: DiscretePmf) -> tuple[dict, bool | None]:
    entry: dict = {"empirical": _pmf_json(empirical), "theory": None, "tv": None}
    laws = theory.limit_laws(cfg.kind, cfg.s)
    if laws is None:
        return entry, None
    law = laws.degree_pmf(cfg.size_dist, cfg.n, cfg.m, cfg.s, cfg.k_max)
    tv = stats.tv_distance(empirical, law)
    entry.update(theory=_pmf_json(law), tv=tv, tolerance=cfg.tolerances["tv_degree"])
    return entry, bool(tv < cfg.tolerances["tv_degree"])


def _clustering(cfg: ScenarioConfig, rep: stats.ClusteringReport) -> tuple[dict, bool | None]:
    laws, law = theory.limit_laws(cfg.kind, cfg.s), None
    if laws is not None:
        try:
            law = laws.alpha(cfg.size_dist, cfg.n, cfg.m, cfg.s)
        except ValueError:  # no clustering law at these parameters
            pass
    entry = {
        "alpha_hat": _json_float(rep.alpha_hat),
        "alpha_hat_hat": _json_float(rep.alpha_hat_hat),
        "se_alpha_hat_hat": _json_float(rep.se_alpha_hat_hat),
        "theory_alpha": _json_float(law),
        "abs_diff": None,
    }
    if law is None:
        return entry, None
    if rep.alpha_hat_hat is None:
        return entry, False
    diff = abs(rep.alpha_hat_hat - law)
    entry.update(abs_diff=diff, tolerance=cfg.tolerances["alpha_abs"])
    return entry, bool(diff <= cfg.tolerances["alpha_abs"])


def _alpha_k(cfg: ScenarioConfig, rep: stats.ClusteringReport) -> tuple[dict, bool | None]:
    k_min, k_max = cfg.k_range
    laws = theory.limit_laws(cfg.kind, cfg.s)
    curve = {} if laws is None else laws.alpha_k_curve(cfg.size_dist, cfg.n, cfg.m, cfg.s, k_max)
    per_degree, per_degree_se = rep.per_degree, rep.per_degree_se
    per_k, errors = {}, []  # the relative error of each bucket compared
    for k in range(k_min, k_max + 1):
        emp, th = per_degree.get(k), curve.get(k)
        per_k[str(k)] = {
            "empirical": _json_float(emp),
            "theory": _json_float(th),
            "bucket_count": rep.bucket_counts.get(k, 0),
            "se": _json_float(per_degree_se.get(k)),
        }
        if emp is not None and th is not None and th > 0:
            errors.append(abs(emp - th) / th)
    entry = {"per_k": per_k, "buckets_compared": len(errors)}
    emp_points = {k: per_degree[k] for k in range(k_min, k_max + 1) if per_degree.get(k, 0.0) > 0}
    if len(emp_points) >= 3:
        fit = stats.loglog_slope(emp_points)
        entry["loglog"] = {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
    return entry, None if laws is None else bool(errors and max(errors) <= cfg.tolerances["alpha_k_rel"])


def _example2(cfg: ScenarioConfig, _) -> tuple[dict, bool]:
    diag = oracle.dense_overlap_diagnostics(cfg.m, cfg.epsilon)
    return vars(diag), bool(diag.ratio_prime <= diag.bound)


# one row per output: (read, analysis, summary).  ``read`` names what the
# output takes from the replicates (see _pooled_reads), or is None; the
# analysis maps (config, pooled read) to the analyses entry, or to
# (entry, pass flag) for a judged output, the flag None with no law; the
# summary line is formatted over the entry, a missing field reading None,
# plus ``status``: PASS or FAIL from the flag, info when there is none
_ANALYSES = {
    "degree": ("degrees", _degree, "degree: tv={tv} [{status}]"),
    "clustering": (
        "clustering",
        _clustering,
        "clustering: alpha_hat_hat={alpha_hat_hat} theory={theory_alpha} [{status}]",
    ),
    "alpha_k": ("clustering", _alpha_k, "alpha_k: buckets_compared={buckets_compared} [{status}]"),
    "regime": (
        None,
        lambda cfg, _: vars(theory.passive_regime_classify(cfg.n, cfg.m, cfg.size_dist)),
        "regime: {case_label} (n_star={n_star}) [{status}]",
    ),
    "theorem1_stats": (
        "sizes",
        lambda cfg, sizes: _json_floats(theory.poisson_approx_stats(sizes, cfg.m, cfg.s)),
        "theorem1_stats: lambda={lambda_bar} kappa1={kappa1} kappa2={kappa2} [{status}]",
    ),
    "example2": (None, _example2, "example2: ratio_prime={ratio_prime} bound={bound} [{status}]"),
}


def run_scenario(cfg: ScenarioConfig, seed: int | None = None, jobs: int | None = None) -> Report:
    """Execute a scenario: simulate replicates, evaluate theory, compare.

    The report body depends only on (cfg, seed); jobs only changes how
    replicates are scheduled.
    """
    t_start = time.perf_counter()
    resolved_seed = _resolve_seed(seed, cfg.seed)
    jobs = jobs if jobs and jobs > 0 else _usable_cpus()
    reads = frozenset(_ANALYSES[name][0] for name in cfg.outputs)
    pooled = _pooled_reads(cfg, reads, resolved_seed, jobs)
    clamped = cfg.kind == "active" and theory.active_edge_prob_asymptotic(cfg.size_dist, cfg.m, cfg.s).clamped
    metadata = {
        "asymptotic_prediction": True,
        "clamped_probability": clamped,
        "passive_s_ge2_no_theory": theory.limit_laws(cfg.kind, cfg.s) is None,
        "alpha_hat_convention": stats.ALPHA_HAT_CONVENTION,
    }

    analyses: dict[str, dict] = {}
    passes: dict[str, bool | None] = {}
    for name in cfg.outputs:
        read, analyse, _ = _ANALYSES[name]
        result = analyse(cfg, pooled.get(read))
        if isinstance(result, tuple):
            analyses[name], passes[name] = result
        else:  # an information-only output has no pass flag
            analyses[name] = result

    body = {
        "scenario": cfg.echo(resolved_seed),
        "metadata": metadata,
        "analyses": analyses,
        "passes": passes,
    }
    timing = {"wall_clock_s": time.perf_counter() - t_start, "jobs": jobs}
    return Report(body=body, timing=timing)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set (a ``taskset`` or
    cpuset limit) where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_seed(cli_seed: int | None, cfg_seed: int | None) -> int:
    if cli_seed is not None:
        return cli_seed
    if cfg_seed is not None:
        return cfg_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(ENV_SEED, f"not an integer: {env!r}") from exc
    return 0


# ---------------------------------------------------------------- output files

def _write_csvs(report: Report, out_dir: str) -> None:
    analyses = report.body["analyses"]
    if "degree" in analyses and analyses["degree"].get("theory") is not None:
        emp = analyses["degree"]["empirical"]["probs"]
        th = analyses["degree"]["theory"]["probs"]
        with open(os.path.join(out_dir, "degree.csv"), "w", encoding="ascii") as fh:
            fh.write("k,empirical,theory,abs_diff\n")
            for k, (e, t) in enumerate(zip_longest(emp, th, fillvalue=0.0)):
                fh.write(f"{k},{e!r},{t!r},{abs(e - t)!r}\n")
    if "alpha_k" in analyses:
        with open(os.path.join(out_dir, "alpha_k.csv"), "w", encoding="ascii") as fh:
            fh.write("k,empirical,theory,bucket_count,se\n")
            for k, row in sorted(analyses["alpha_k"]["per_k"].items(), key=lambda kv: int(kv[0])):
                emp, th, se = ("" if row[c] is None else repr(row[c]) for c in ("empirical", "theory", "se"))
                fh.write(f"{k},{emp},{th},{row['bucket_count']},{se}\n")


def _summary_lines(report: Report) -> list[str]:
    lines = []
    for name in report.body["scenario"]["outputs"]:
        flag = report.body["passes"].get(name)
        status = "info" if flag is None else ("PASS" if flag else "FAIL")
        entry = defaultdict(lambda: None, report.body["analyses"].get(name, {}), status=status)
        lines.append(_ANALYSES[name][2].format_map(entry))
    return lines


# ---------------------------------------------------------------- CLI plumbing

def _parse_size_dist_arg(text: str, m: int) -> SizeDistribution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("--size-dist", f"invalid JSON: {exc}") from exc
    spec = parse_size_spec(obj, "--size-dist")
    try:
        return make_size_dist(spec, m)
    except ValueError as exc:
        raise ConfigError("--size-dist", str(exc)) from exc


def _load_scenario(args: argparse.Namespace) -> tuple[ScenarioConfig, int]:
    """The scenario named by --config or --preset, and its resolved seed."""
    cfg = preset_config(args.preset) if args.preset else load_config(args.config)
    return cfg, _resolve_seed(args.seed, cfg.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, seed = _load_scenario(args)
    if args.out:  # a path that cannot be a directory fails before the run
        os.makedirs(args.out, exist_ok=True)
    report = run_scenario(cfg, seed=seed, jobs=args.jobs)
    print("\n".join(_summary_lines(report)))
    if args.out:
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        _write_csvs(report, args.out)
        print(f"report written to {args.out}/report.json")
    else:
        print(report.to_json())
    return EXIT_PASS if report.passed else EXIT_COMPARISON


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg, seed = _load_scenario(args)
    # a path that cannot be written fails before the run; a run or a
    # write that fails leaves no file there
    open(args.emit_graph, "w", encoding="ascii").close()
    try:
        graph = _build_graph(cfg, sample_incidence(cfg.params(), rng_stream(seed, 0)), 0)
        write_edge_list(graph, args.emit_graph, kind=cfg.kind, n=cfg.n, m=cfg.m, s=cfg.s, seed=seed)
    except BaseException:
        os.remove(args.emit_graph)
        raise
    print(f"{cfg.kind} graph with {graph.vertex_count} vertices, {graph.edge_count} edges -> {args.emit_graph}")
    return EXIT_PASS


# Each theory/oracle subcommand is one row (law, shown): the function it
# runs, whose parameter names are the subcommand's flags, and how its
# result prints: under that JSON key for a float, else through that
# function.  A flag is ``--`` plus the parameter name with ``-`` for
# ``_``, except ``dist``: the ``--size-dist`` JSON, parsed against ``m``.
# A law that takes something no flag gives (a spec, a list, ModelParams)
# runs through a small adapter whose parameters are flags.

_PARAM_FLAGS = {
    **{name: {"type": int, "required": True} for name in ("n", "m", "s", "k", "d1", "d2")},
    **{name: {"type": float, "required": True} for name in ("beta", "ed", "ed2", "lam", "epsilon")},
    "dist": {"required": True, "help": 'size distribution as JSON, e.g. \'{"kind": "degenerate", "x": 5}\''},
    "k_max": {"type": int, "default": None},
    "jump_probs": {"required": True, "help": "comma list, mass at 0,1,2,..."},
    "sizes": {"default": None, "help": "comma list of set sizes, vertex 1 first"},
    "uniform_size": {"type": int, "default": None},
    "count": {"type": int, "default": None},
    "probs": {"default": "", "help": "comma list of indicator probabilities"},
    "kind": {"choices": ("active", "passive"), "required": True},
}


def _flag(name: str) -> str:
    return "--size-dist" if name == "dist" else "--" + name.replace("_", "-")


def _spec_json(spec: theory.CompoundPoissonSpec) -> dict:
    return {"lam": spec.lam, "jump": _pmf_json(spec.jump_pmf)}


def _alpha_passive_limit(dist: SizeDistribution, n: int, m: int) -> float:
    return theory.alpha_passive_limit(theory.passive_compound_spec(dist, n, m))


def _alpha_k_passive(dist: SizeDistribution, n: int, m: int, k: int) -> float:
    """alpha*[k] read off the curve built up to k."""
    spec = theory.passive_compound_spec(dist, n, m)
    if k < 2:
        raise ValueError("k must be >= 2")
    values = theory.alpha_k_passive_curve(spec, k)
    if k not in values:
        raise ValueError(f"degree {k} has zero asymptotic mass")
    return values[k]


def _compound_pmf(lam: float, jump_probs: str, k_max: int | None) -> DiscretePmf:
    spec = theory.CompoundPoissonSpec(lam, DiscretePmf(np.array([float(p) for p in jump_probs.split(",")])))
    return theory.compound_poisson_pmf(spec, k_max=k_max)


def _degree_stats(
    m: int, s: int, sizes: str | None, uniform_size: int | None, count: int | None
) -> theory.PoissonApproxStats:
    if sizes:
        listed = [int(x) for x in sizes.split(",")]
    elif uniform_size is not None and count is not None:
        listed = [uniform_size] * count
    else:
        raise ConfigError("--sizes", "provide either --sizes or both --uniform-size and --count")
    return theory.poisson_approx_stats(listed, m, s)


def _lecam(probs: str) -> float:
    return oracle.lecam_bound([float(p) for p in probs.split(",")] if probs else [])


def _brute_force(kind: str, n: int, m: int, s: int, dist: SizeDistribution) -> DiscretePmf:
    return oracle.brute_force_degree_pmf(ModelParams(n=n, m=m, s=s, size_dist=dist, kind=kind))


THEORY_COMMANDS = {
    "edge-prob": (theory.active_edge_prob_asymptotic, vars),
    "degree-pmf": (theory.mixed_poisson_degree_pmf, _pmf_json),
    "alpha": (theory.alpha_active, "alpha"),
    "alpha-beta-form": (theory.alpha_active_beta_form, "alpha"),
    "alpha-from-moments": (theory.alpha_active_from_degree_moments, "alpha"),
    "alpha-k": (theory.alpha_k_active, "alpha_k"),
    "passive-spec": (theory.passive_compound_spec, _spec_json),
    "compound-pmf": (_compound_pmf, _pmf_json),
    "alpha-passive": (theory.alpha_passive_finite, "alpha_star"),
    "alpha-passive-limit": (_alpha_passive_limit, "alpha_star"),
    "alpha-k-passive": (_alpha_k_passive, "alpha_star_k"),
    "regime": (theory.passive_regime_classify, vars),
    "degree-stats": (_degree_stats, _json_floats),
}

ORACLE_COMMANDS = {
    "intersection-pmf": (oracle.intersection_pmf, _pmf_json),
    "intersection-tail": (oracle.intersection_tail, "tail"),
    "tail-bounds": (oracle.intersection_tail_bounds, vars),
    "exact-degree-pmf": (oracle.exact_active_degree_pmf, _pmf_json),
    "links-pmf": (oracle.exact_passive_links_pmf, _pmf_json),
    "lecam": (_lecam, "bound"),
    "brute-force": (_brute_force, _pmf_json),
    "dense-overlap": (oracle.dense_overlap_diagnostics, vars),
}


def _cmd_table(law, shown, args: argparse.Namespace) -> int:
    """Run one THEORY_COMMANDS/ORACLE_COMMANDS row and print its JSON."""
    params = inspect.signature(law).parameters
    if "dist" in params:
        args.dist = _parse_size_dist_arg(args.dist, args.m)
    result = law(**{name: getattr(args, name) for name in params})
    doc = {shown: result} if isinstance(shown, str) else shown(result)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riglab",
        description="Simulate sparse random intersection graphs and check them against closed-form degree and clustering laws.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a scenario and emit a report")
    gen_p = subs.add_parser("gen", help="generate one graph and write its edge list")
    for p, func in ((run_p, _cmd_run), (gen_p, _cmd_gen)):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a scenario JSON file")
        src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
    run_p.add_argument("--jobs", type=int, default=None, help="worker processes (default: the CPUs this process may use)")
    run_p.add_argument("--out", default=None, help="directory for report.json and CSV tables")
    gen_p.add_argument("--emit-graph", required=True, help="output path for the edge list")

    for group, commands, help_text in (
        ("theory", THEORY_COMMANDS, "evaluate closed-form laws"),
        ("oracle", ORACLE_COMMANDS, "exact finite-size computations"),
    ):
        group_subs = subs.add_parser(group, help=help_text).add_subparsers(dest=f"{group}_cmd", required=True)
        for name, (law, shown) in commands.items():
            p = group_subs.add_parser(name)
            for param in inspect.signature(law).parameters:
                p.add_argument(_flag(param), dest=param, **_PARAM_FLAGS[param])
            p.set_defaults(func=partial(_cmd_table, law, shown))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
