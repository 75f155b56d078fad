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
import json
import math
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from functools import partial
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
    RngStream,
    build_active,
    build_passive,
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

OUTPUTS = ("degree", "clustering", "alpha_k", "regime", "theorem1_stats", "example2")
_TRIANGLE_OUTPUTS = ("clustering", "alpha_k")  # read the clustering report
_GRAPH_OUTPUTS = ("degree", *_TRIANGLE_OUTPUTS)  # read the built graph
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


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
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
    """A JSON number as a float; bool, null and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    return float(value)


def _float_field(obj: dict, key: str, path: str) -> float:
    return _number(obj[key], f"{path}.{key}")


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
    _check_keys(obj, path, required=("kind",), optional=tuple(_SIZE_FIELDS))
    kind = obj["kind"]
    cls = SIZE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.kind", f"unknown size distribution kind {kind!r}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, path, required=("kind", *names))
    try:
        return cls(**{name: _SIZE_FIELDS[name](obj, name, path) for name in names})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


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
        kind = next(name for name, cls in SIZE_KINDS.items() if isinstance(self.size_spec, cls))
        sd = {"kind": kind, **asdict(self.size_spec)}
        return {
            "model": {"kind": self.kind, "n": self.n, "m": self.m, "s": self.s, "size_dist": sd},
            "replicates": self.replicates,
            "seed": seed,
            "outputs": list(self.outputs),
            "tolerances": dict(sorted(self.tolerances.items())),
            "k_range": list(self.k_range),
            "k_max": self.k_max,
            "min_bucket": self.min_bucket,
            "epsilon": self.epsilon,
        }


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a config document (fail-closed) into a ScenarioConfig."""
    _check_keys(doc, "$", required=("scenario",))
    sc = doc["scenario"]
    _check_keys(
        sc,
        "scenario",
        required=("model", "replicates", "outputs"),
        optional=("seed", "tolerances", "k_range", "k_max", "min_bucket", "epsilon"),
    )
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
        if out not in OUTPUTS:
            raise ConfigError(f"scenario.outputs[{i}]", f"unknown analysis {out!r}; known: {OUTPUTS}")
    seed = None
    if "seed" in sc:
        seed = _int_field(sc, "seed", "scenario", 0)
    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in sc:
        tol = sc["tolerances"]
        _check_keys(tol, "scenario.tolerances", required=(), optional=tuple(DEFAULT_TOLERANCES))
        for key in tol:
            value = _float_field(tol, key, "scenario.tolerances")
            if not value > 0:
                raise ConfigError(f"scenario.tolerances.{key}", "must be > 0")
            tolerances[key] = value
    k_range = (2, 20)
    if "k_range" in sc:
        kr = sc["k_range"]
        if not (isinstance(kr, list) and len(kr) == 2 and all(isinstance(k, int) for k in kr)):
            raise ConfigError("scenario.k_range", "expected [k_min, k_max] integers")
        if not 2 <= kr[0] <= kr[1]:
            raise ConfigError("scenario.k_range", "need 2 <= k_min <= k_max")
        k_range = (kr[0], kr[1])
    k_max = None
    if "k_max" in sc and sc["k_max"] is not None:
        k_max = _int_field(sc, "k_max", "scenario", 1)
    min_bucket = stats.DEFAULT_MIN_BUCKET
    if "min_bucket" in sc:
        min_bucket = _int_field(sc, "min_bucket", "scenario", 1)
    epsilon = None
    if "epsilon" in sc:
        epsilon = _float_field(sc, "epsilon", "scenario")
        if not 0 < epsilon < 0.5:
            raise ConfigError("scenario.epsilon", "must lie in (0, 0.5)")
    if "example2" in outputs and epsilon is None:
        raise ConfigError("scenario.epsilon", "required when outputs include 'example2'")
    return ScenarioConfig(
        kind=kind,
        n=n,
        m=m,
        s=s,
        size_spec=spec,
        size_dist=dist,
        replicates=replicates,
        seed=seed,
        outputs=tuple(outputs),
        tolerances=tolerances,
        k_range=k_range,
        k_max=k_max,
        min_bucket=min_bucket,
        epsilon=epsilon,
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

def _replicate_worker(cfg: ScenarioConfig, seed: int, r: int) -> tuple:
    """Run one replicate on its own stream; returns plain picklable data.

    The graph is built only for the outputs that read it, and the
    clustering report only for those that read triangles; what is not
    computed comes back as None, so a scenario that builds nothing can
    never trip the pair cap.
    """
    inc = sample_incidence(cfg.params(), RngStream(seed, r))
    degree_counts = report = None
    if any(o in cfg.outputs for o in _GRAPH_OUTPUTS):
        try:
            graph = build_active(inc, cfg.s) if cfg.kind == "active" else build_passive(inc, cfg.s)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"replicate {r}: {exc}") from exc
        if "degree" in cfg.outputs:
            degree_counts = np.bincount(graph.degrees, minlength=1)
        if any(o in cfg.outputs for o in _TRIANGLE_OUTPUTS):
            report = stats.clustering_report(graph, cfg.min_bucket)
    sizes = inc.sizes.copy() if r == 0 else None
    return degree_counts, report, sizes


def _run_replicates(cfg: ScenarioConfig, seed: int, jobs: int, count: int) -> list[tuple]:
    """Results of replicates 0..count-1, in replicate order."""
    work = partial(_replicate_worker, cfg, seed)
    if jobs <= 1 or count <= 1:
        return [work(r) for r in range(count)]
    with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
        return list(pool.map(work, range(count)))


def _json_float(x) -> float | str | None:
    if x is None:
        return None
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


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
        flags = [v for v in self.body["passes"].values() if v is not None]
        return all(flags)


def _theory_degree_pmf(cfg: ScenarioConfig) -> DiscretePmf | None:
    if cfg.kind == "active":
        return theory.mixed_poisson_degree_pmf(cfg.size_dist, cfg.n, cfg.m, cfg.s, k_max=cfg.k_max)
    if cfg.s == 1:
        spec = theory.passive_compound_spec(cfg.size_dist, cfg.n, cfg.m)
        return theory.compound_poisson_pmf(spec, k_max=cfg.k_max)
    return None  # passive s >= 2: construction only, no limit law


def _theory_alpha(cfg: ScenarioConfig) -> float | None:
    try:
        if cfg.kind == "active":
            return theory.alpha_active(cfg.size_dist, cfg.m, cfg.s)
        if cfg.s == 1:
            return theory.alpha_passive_finite(cfg.size_dist, cfg.n, cfg.m)
    except ValueError:
        return None
    return None


def _theory_alpha_k(cfg: ScenarioConfig) -> dict[int, float]:
    if cfg.kind == "active":
        return theory.alpha_k_active_curve(cfg.size_dist, cfg.n, cfg.m, cfg.s, cfg.k_range[1])
    if cfg.s == 1:
        spec = theory.passive_compound_spec(cfg.size_dist, cfg.n, cfg.m)
        return theory.alpha_k_passive_curve(spec, cfg.k_range[1])
    return {}  # passive s >= 2: construction only, no limit law


def run_scenario(cfg: ScenarioConfig, seed: int | None = None, jobs: int | None = None) -> Report:
    """Execute a scenario: simulate replicates, evaluate theory, compare.

    The report body depends only on (cfg, seed); jobs only changes how
    replicates are scheduled.
    """
    t_start = time.perf_counter()
    resolved_seed = _resolve_seed(seed, cfg.seed)
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    if any(o in cfg.outputs for o in _GRAPH_OUTPUTS):
        replicates = cfg.replicates
    else:  # theorem1_stats reads only replicate 0's sizes
        replicates = 1 if "theorem1_stats" in cfg.outputs else 0
    results = _run_replicates(cfg, resolved_seed, jobs, replicates)
    vertices_per_rep = cfg.n if cfg.kind == "active" else cfg.m

    analyses: dict[str, dict] = {}
    passes: dict[str, bool | None] = {}
    metadata = {
        "asymptotic_prediction": True,
        "clamped_probability": False,
        "passive_s_ge2_no_theory": cfg.kind == "passive" and cfg.s >= 2,
        "alpha_hat_convention": stats.ALPHA_HAT_CONVENTION,
    }
    if cfg.kind == "active":
        edge = theory.active_edge_prob_asymptotic(cfg.size_dist, cfg.m, cfg.s)
        metadata["clamped_probability"] = edge.clamped

    reports = [rep for _, rep, _ in results if rep is not None]
    pooled_report = stats.pooled_estimates(reports) if reports else None

    if "degree" in cfg.outputs:
        width = max(counts.size for counts, _, _ in results)
        total = np.zeros(width)
        for counts, _, _ in results:
            total[: counts.size] += counts
        empirical = DiscretePmf(total / (vertices_per_rep * cfg.replicates), 0.0)
        theory_pmf = _theory_degree_pmf(cfg)
        entry: dict = {"empirical": _pmf_json(empirical)}
        if theory_pmf is None:
            entry["theory"] = None
            entry["tv"] = None
            passes["degree"] = None
        else:
            tv = stats.tv_distance(empirical, theory_pmf)
            entry["theory"] = _pmf_json(theory_pmf)
            entry["tv"] = tv
            entry["tolerance"] = cfg.tolerances["tv_degree"]
            passes["degree"] = bool(tv < cfg.tolerances["tv_degree"])
        analyses["degree"] = entry

    if "clustering" in cfg.outputs:
        rep = pooled_report
        theory_alpha = _theory_alpha(cfg)
        entry = {
            "alpha_hat": _json_float(rep.alpha_hat),
            "alpha_hat_hat": _json_float(rep.alpha_hat_hat),
            "se_alpha_hat_hat": _json_float(rep.se_alpha_hat_hat),
            "theory_alpha": _json_float(theory_alpha),
        }
        if theory_alpha is None or rep.alpha_hat_hat is None:
            entry["abs_diff"] = None
            passes["clustering"] = None if theory_alpha is None else False
        else:
            diff = abs(rep.alpha_hat_hat - theory_alpha)
            entry["abs_diff"] = diff
            entry["tolerance"] = cfg.tolerances["alpha_abs"]
            passes["clustering"] = bool(diff <= cfg.tolerances["alpha_abs"])
        analyses["clustering"] = entry

    if "alpha_k" in cfg.outputs:
        ks = list(range(cfg.k_range[0], cfg.k_range[1] + 1))
        theory_curve = _theory_alpha_k(cfg)
        per_k = {}
        checked, ok = 0, True
        for k in ks:
            emp = pooled_report.per_degree.get(k)
            th = theory_curve.get(k)
            row = {
                "empirical": _json_float(emp),
                "theory": _json_float(th),
                "bucket_count": pooled_report.bucket_counts.get(k, 0),
                "se": _json_float(pooled_report.per_degree_se.get(k)),
            }
            per_k[str(k)] = row
            if emp is not None and th is not None and th > 0:
                checked += 1
                if abs(emp - th) / th > cfg.tolerances["alpha_k_rel"]:
                    ok = False
        entry = {"per_k": per_k, "buckets_compared": checked}
        emp_points = {
            int(k): row["empirical"]
            for k, row in per_k.items()
            if row["empirical"] is not None and row["empirical"] > 0
        }
        if len(emp_points) >= 3:
            fit = stats.loglog_slope(emp_points)
            entry["loglog"] = {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
        if cfg.kind == "passive" and cfg.s >= 2:
            passes["alpha_k"] = None
        else:
            passes["alpha_k"] = bool(ok and checked > 0)
        analyses["alpha_k"] = entry

    if "regime" in cfg.outputs:
        analyses["regime"] = vars(theory.passive_regime_classify(cfg.n, cfg.m, cfg.size_dist))

    if "theorem1_stats" in cfg.outputs:
        sizes0 = results[0][2]
        analyses["theorem1_stats"] = _json_floats(theory.poisson_approx_stats(sizes0, cfg.m, cfg.s))

    if "example2" in cfg.outputs:
        diag2 = oracle.dense_overlap_diagnostics(cfg.m, cfg.epsilon)
        analyses["example2"] = vars(diag2)
        passes["example2"] = bool(diag2.ratio_prime <= diag2.bound)

    body = {
        "scenario": cfg.echo(resolved_seed),
        "metadata": metadata,
        "analyses": analyses,
        "passes": passes,
    }
    timing = {"wall_clock_s": time.perf_counter() - t_start, "jobs": jobs}
    return Report(body=body, timing=timing)


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
        width = max(len(emp), len(th))
        with open(os.path.join(out_dir, "degree.csv"), "w", encoding="ascii") as fh:
            fh.write("k,empirical,theory,abs_diff\n")
            for k in range(width):
                e = emp[k] if k < len(emp) else 0.0
                t = th[k] if k < len(th) else 0.0
                fh.write(f"{k},{e!r},{t!r},{abs(e - t)!r}\n")
    if "alpha_k" in analyses:
        with open(os.path.join(out_dir, "alpha_k.csv"), "w", encoding="ascii") as fh:
            fh.write("k,empirical,theory,bucket_count,se\n")
            for k, row in sorted(analyses["alpha_k"]["per_k"].items(), key=lambda kv: int(kv[0])):
                emp = "" if row["empirical"] is None else repr(row["empirical"])
                th = "" if row["theory"] is None else repr(row["theory"])
                se = "" if row["se"] is None else repr(row["se"])
                fh.write(f"{k},{emp},{th},{row['bucket_count']},{se}\n")


# summary line of each output, formatted over its analyses entry (a
# missing field reads None) plus ``status``: PASS or FAIL from its pass
# flag, info when it has none
_SUMMARY_FORMATS = {
    "degree": "degree: tv={tv} [{status}]",
    "clustering": "clustering: alpha_hat_hat={alpha_hat_hat} theory={theory_alpha} [{status}]",
    "alpha_k": "alpha_k: buckets_compared={buckets_compared} [{status}]",
    "regime": "regime: {case_label} (n_star={n_star}) [{status}]",
    "theorem1_stats": "theorem1_stats: lambda={lambda_bar} kappa1={kappa1} kappa2={kappa2} [{status}]",
    "example2": "example2: ratio_prime={ratio_prime} bound={bound} [{status}]",
}


def _summary_lines(report: Report) -> list[str]:
    lines = []
    for name in report.body["scenario"]["outputs"]:
        flag = report.body["passes"].get(name)
        status = "info" if flag is None else ("PASS" if flag else "FAIL")
        entry = defaultdict(lambda: None, report.body["analyses"].get(name, {}), status=status)
        lines.append(_SUMMARY_FORMATS[name].format_map(entry))
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


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = preset_config(args.preset) if args.preset else load_config(args.config)
    report = run_scenario(cfg, seed=args.seed, jobs=args.jobs)
    for line in _summary_lines(report):
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        _write_csvs(report, args.out)
        print(f"report written to {args.out}/report.json")
    else:
        print(report.to_json())
    return EXIT_PASS if report.passed else EXIT_COMPARISON


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = preset_config(args.preset) if args.preset else load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.seed)
    rng = RngStream(seed, 0)
    inc = sample_incidence(cfg.params(), rng)
    graph = build_active(inc, cfg.s) if cfg.kind == "active" else build_passive(inc, cfg.s)
    write_edge_list(graph, args.emit_graph, kind=cfg.kind, n=cfg.n, m=cfg.m, s=cfg.s, seed=seed)
    print(f"{cfg.kind} graph with {graph.vertex_count} vertices, {graph.edge_count} edges -> {args.emit_graph}")
    return EXIT_PASS


# Each theory/oracle subcommand is (its flags, a function of the parsed
# arguments returning the JSON document); ``args.dist`` is the parsed
# --size-dist of the commands that take one.

def _ints(*flags: str) -> tuple:
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


def _floats(*flags: str) -> tuple:
    return tuple((flag, {"type": float, "required": True}) for flag in flags)


_SIZE_DIST = (
    "--size-dist",
    {"required": True, "help": 'size distribution as JSON, e.g. \'{"kind": "degenerate", "x": 5}\''},
)
_K_MAX = ("--k-max", {"type": int, "default": None})


def _passive_spec(a: argparse.Namespace) -> theory.CompoundPoissonSpec:
    return theory.passive_compound_spec(a.dist, a.n, a.m)


def _passive_spec_json(a: argparse.Namespace) -> dict:
    spec = _passive_spec(a)
    return {"lam": spec.lam, "jump": _pmf_json(spec.jump_pmf)}


def _compound_pmf(a: argparse.Namespace) -> dict:
    probs = [float(p) for p in a.jump_probs.split(",")]
    spec = theory.CompoundPoissonSpec(a.lam, DiscretePmf(np.array(probs)))
    return _pmf_json(theory.compound_poisson_pmf(spec, k_max=a.k_max))


def _degree_stats(a: argparse.Namespace) -> dict:
    if a.sizes:
        sizes = [int(x) for x in a.sizes.split(",")]
    elif a.uniform_size is not None and a.count is not None:
        sizes = [a.uniform_size] * a.count
    else:
        raise ConfigError("--sizes", "provide either --sizes or both --uniform-size and --count")
    return _json_floats(theory.poisson_approx_stats(sizes, a.m, a.s))


THEORY_COMMANDS = {
    "edge-prob": (
        _ints("--m", "--s") + (_SIZE_DIST,),
        lambda a: vars(theory.active_edge_prob_asymptotic(a.dist, a.m, a.s)),
    ),
    "degree-pmf": (
        _ints("--n", "--m", "--s") + (_K_MAX, _SIZE_DIST),
        lambda a: _pmf_json(theory.mixed_poisson_degree_pmf(a.dist, a.n, a.m, a.s, k_max=a.k_max)),
    ),
    "alpha": (
        _ints("--m", "--s") + (_SIZE_DIST,),
        lambda a: {"alpha": theory.alpha_active(a.dist, a.m, a.s)},
    ),
    "alpha-beta-form": (
        _ints("--n", "--m", "--s") + (_SIZE_DIST,),
        lambda a: {"alpha": theory.alpha_active_beta_form(a.dist, a.n, a.m, a.s)},
    ),
    "alpha-from-moments": (
        _floats("--beta", "--ed", "--ed2"),
        lambda a: {"alpha": theory.alpha_active_from_degree_moments(a.beta, a.ed, a.ed2)},
    ),
    "alpha-k": (
        _ints("--n", "--m", "--s", "--k") + (_SIZE_DIST,),
        lambda a: {"alpha_k": theory.alpha_k_active(a.dist, a.n, a.m, a.s, a.k)},
    ),
    "passive-spec": (
        _ints("--n", "--m") + (_SIZE_DIST,),
        _passive_spec_json,
    ),
    "compound-pmf": (
        _floats("--lam") + (("--jump-probs", {"required": True, "help": "comma list, mass at 0,1,2,..."}), _K_MAX),
        _compound_pmf,
    ),
    "alpha-passive": (
        _ints("--n", "--m") + (_SIZE_DIST,),
        lambda a: {"alpha_star": theory.alpha_passive_finite(a.dist, a.n, a.m)},
    ),
    "alpha-passive-limit": (
        _ints("--n", "--m") + (_SIZE_DIST,),
        lambda a: {"alpha_star": theory.alpha_passive_limit(_passive_spec(a))},
    ),
    "alpha-k-passive": (
        _ints("--n", "--m", "--k") + (_SIZE_DIST,),
        lambda a: {"alpha_star_k": theory.alpha_k_passive(_passive_spec(a), a.k)},
    ),
    "regime": (
        _ints("--n", "--m") + (_SIZE_DIST,),
        lambda a: vars(theory.passive_regime_classify(a.n, a.m, a.dist)),
    ),
    "degree-stats": (
        _ints("--m", "--s")
        + (
            ("--sizes", {"default": None, "help": "comma list of set sizes, vertex 1 first"}),
            ("--uniform-size", {"type": int, "default": None}),
            ("--count", {"type": int, "default": None}),
        ),
        _degree_stats,
    ),
}

ORACLE_COMMANDS = {
    "intersection-pmf": (
        _ints("--m", "--d1", "--d2"),
        lambda a: _pmf_json(oracle.intersection_pmf(a.m, a.d1, a.d2)),
    ),
    "intersection-tail": (
        _ints("--m", "--d1", "--d2", "--s"),
        lambda a: {"tail": oracle.intersection_tail(a.m, a.d1, a.d2, a.s)},
    ),
    "tail-bounds": (
        _ints("--m", "--d1", "--d2", "--s"),
        lambda a: vars(oracle.intersection_tail_bounds(a.m, a.d1, a.d2, a.s)),
    ),
    "exact-degree-pmf": (
        _ints("--n", "--m", "--s") + (_SIZE_DIST,),
        lambda a: _pmf_json(oracle.exact_active_degree_pmf(a.dist, a.n, a.m, a.s)),
    ),
    "links-pmf": (
        _ints("--n", "--m") + (_K_MAX, _SIZE_DIST),
        lambda a: _pmf_json(oracle.exact_passive_links_pmf(a.dist, a.n, a.m, k_max=a.k_max)),
    ),
    "lecam": (
        (("--probs", {"default": "", "help": "comma list of indicator probabilities"}),),
        lambda a: {"bound": oracle.lecam_bound([float(p) for p in a.probs.split(",")] if a.probs else [])},
    ),
    "brute-force": (
        (("--kind", {"choices": ("active", "passive"), "required": True}),)
        + _ints("--n", "--m", "--s")
        + (_SIZE_DIST,),
        lambda a: _pmf_json(
            oracle.brute_force_degree_pmf(ModelParams(n=a.n, m=a.m, s=a.s, size_dist=a.dist, kind=a.kind))
        ),
    ),
    "dense-overlap": (
        _ints("--m") + _floats("--epsilon"),
        lambda a: vars(oracle.dense_overlap_diagnostics(a.m, a.epsilon)),
    ),
}


def _cmd_table(args: argparse.Namespace) -> int:
    """Run one THEORY_COMMANDS/ORACLE_COMMANDS entry and print its JSON."""
    if getattr(args, "size_dist", None) is not None:
        args.dist = _parse_size_dist_arg(args.size_dist, args.m)
    _print_json(args.compute(args))
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riglab",
        description="Simulate sparse random intersection graphs and check them against closed-form degree and clustering laws.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a scenario and emit a report")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a scenario JSON file")
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")
    run_p.add_argument("--out", default=None, help="directory for report.json and CSV tables")
    run_p.set_defaults(func=_cmd_run)

    gen_p = subs.add_parser("gen", help="generate one graph and write its edge list")
    src = gen_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a scenario JSON file")
    src.add_argument("--preset", choices=sorted(PRESETS))
    gen_p.add_argument("--seed", type=int, default=None)
    gen_p.add_argument("--emit-graph", required=True, help="output path for the edge list")
    gen_p.set_defaults(func=_cmd_gen)

    for group, commands, help_text in (
        ("theory", THEORY_COMMANDS, "evaluate closed-form laws"),
        ("oracle", ORACLE_COMMANDS, "exact finite-size computations"),
    ):
        group_subs = subs.add_parser(group, help=help_text).add_subparsers(dest=f"{group}_cmd", required=True)
        for name, (flags, compute) in commands.items():
            p = group_subs.add_parser(name)
            for flag, options in flags:
                p.add_argument(flag, **options)
            p.set_defaults(func=_cmd_table, compute=compute)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
