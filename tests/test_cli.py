"""Scenario configs, the runner contract and the command-line surface."""

import argparse
import concurrent.futures
import copy
import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from riglab.cli import (
    ConfigError,
    EXIT_COMPARISON,
    EXIT_PASS,
    EXIT_USAGE,
    ORACLE_COMMANDS,
    PRESETS,
    THEORY_COMMANDS,
    Report,
    _build_parser,
    _summary_lines,
    _write_csvs,
    main,
    parse_scenario,
    preset_config,
    run_scenario,
)
from riglab.oracle import CONV_TAIL_TOL

# argv, exit code and exact stdout of every theory/oracle subcommand,
# including the optional-flag paths and the usage errors
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

# report bodies of every preset at seed 0, --jobs 1, byte for byte
PRESET_GOLDEN = json.loads(
    (Path(__file__).parent / "preset_golden.json").read_text(encoding="utf-8")
)

# run summary lines and CSV files of fixed report bodies: the preset
# bodies above, plus a failing-tolerance and a passive s = 2 body kept
# in the file itself ("body" is null for the presets)
SUMMARY_GOLDEN = json.loads(
    (Path(__file__).parent / "summary_golden.json").read_text(encoding="utf-8")
)


PAIR = '{"kind": "degenerate", "x": 2}'

# the theory functions that each graph kind's limit-law row calls
ROW_LAWS = {
    "active": {"mixed_poisson_degree_pmf", "alpha_active", "alpha_k_active_curve"},
    "passive": {"passive_compound_spec", "compound_poisson_pmf", "alpha_passive_finite", "alpha_k_passive_curve"},
}

# every theory/oracle subcommand's options, each as (required, type,
# default, choices), recorded from the parser whose rows listed their
# flags by hand: the golden invocations leave most optional flags out,
# so their defaults are pinned here
_INT = (True, "int", None, None)
_FLOAT = (True, "float", None, None)
_DIST = (True, None, None, None)
_K_MAX = (False, "int", None, None)
SUBCOMMAND_FLAGS = {
    "theory": {
        "edge-prob": {"--m": _INT, "--s": _INT, "--size-dist": _DIST},
        "degree-pmf": {"--n": _INT, "--m": _INT, "--s": _INT, "--k-max": _K_MAX, "--size-dist": _DIST},
        "alpha": {"--m": _INT, "--s": _INT, "--size-dist": _DIST},
        "alpha-beta-form": {"--n": _INT, "--m": _INT, "--s": _INT, "--size-dist": _DIST},
        "alpha-from-moments": {"--beta": _FLOAT, "--ed": _FLOAT, "--ed2": _FLOAT},
        "alpha-k": {"--n": _INT, "--m": _INT, "--s": _INT, "--k": _INT, "--size-dist": _DIST},
        "passive-spec": {"--n": _INT, "--m": _INT, "--size-dist": _DIST},
        "compound-pmf": {"--lam": _FLOAT, "--jump-probs": (True, None, None, None), "--k-max": _K_MAX},
        "alpha-passive": {"--n": _INT, "--m": _INT, "--size-dist": _DIST},
        "alpha-passive-limit": {"--n": _INT, "--m": _INT, "--size-dist": _DIST},
        "alpha-k-passive": {"--n": _INT, "--m": _INT, "--k": _INT, "--size-dist": _DIST},
        "regime": {"--n": _INT, "--m": _INT, "--size-dist": _DIST},
        "degree-stats": {
            "--m": _INT,
            "--s": _INT,
            "--sizes": (False, None, None, None),
            "--uniform-size": (False, "int", None, None),
            "--count": (False, "int", None, None),
        },
    },
    "oracle": {
        "intersection-pmf": {"--m": _INT, "--d1": _INT, "--d2": _INT},
        "intersection-tail": {"--m": _INT, "--d1": _INT, "--d2": _INT, "--s": _INT},
        "tail-bounds": {"--m": _INT, "--d1": _INT, "--d2": _INT, "--s": _INT},
        "exact-degree-pmf": {"--n": _INT, "--m": _INT, "--s": _INT, "--size-dist": _DIST},
        "links-pmf": {"--n": _INT, "--m": _INT, "--k-max": _K_MAX, "--size-dist": _DIST},
        "lecam": {"--probs": (False, None, "", None)},
        "brute-force": {
            "--kind": (True, None, None, ("active", "passive")),
            "--n": _INT,
            "--m": _INT,
            "--s": _INT,
            "--size-dist": _DIST,
        },
        "dense-overlap": {"--m": _INT, "--epsilon": _FLOAT},
    },
}


def _subcommands(parser):
    """The subparsers of ``parser``, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def reject_constant(name):
    """``parse_constant`` hook: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


def small_scenario(**overrides):
    doc = {
        "scenario": {
            "model": {
                "kind": "active",
                "n": 800,
                "m": 400,
                "s": 1,
                "size_dist": {"kind": "table", "weights": [0, 0.5, 0.5]},
            },
            "replicates": 3,
            "seed": 5,
            "outputs": ["degree", "clustering", "alpha_k", "regime", "theorem1_stats"],
            "tolerances": {"tv_degree": 0.08, "alpha_abs": 0.05, "alpha_k_rel": 0.5},
            "k_range": [2, 6],
            "min_bucket": 5,
        }
    }
    doc["scenario"].update(overrides)
    return doc


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_scenario(small_scenario())
        assert cfg.n == 800 and cfg.kind == "active"
        assert cfg.tolerances["tv_degree"] == 0.08

    def test_tolerance_defaults_fill_in(self):
        doc = small_scenario()
        del doc["scenario"]["tolerances"]
        cfg = parse_scenario(doc)
        assert cfg.tolerances == {"tv_degree": 0.01, "alpha_abs": 0.02, "alpha_k_rel": 0.25}
        # each config holds its own copy of the defaults
        cfg.tolerances["tv_degree"] = 1.0
        assert parse_scenario(doc).tolerances["tv_degree"] == 0.01

    def test_unknown_keys_rejected_with_path(self):
        doc = small_scenario()
        doc["scenario"]["typo_tolerance"] = 1
        with pytest.raises(ConfigError, match=r"scenario\.typo_tolerance"):
            parse_scenario(doc)

        doc = small_scenario()
        doc["scenario"]["model"]["extra"] = 1
        with pytest.raises(ConfigError, match=r"scenario\.model\.extra"):
            parse_scenario(doc)

        doc = small_scenario()
        doc["scenario"]["model"]["size_dist"]["gamma"] = 2.0
        with pytest.raises(ConfigError, match=r"size_dist"):
            parse_scenario(doc)

        doc = small_scenario(tolerances={"tv_degre": 0.5})
        with pytest.raises(ConfigError, match=r"scenario\.tolerances\.tv_degre"):
            parse_scenario(doc)

    def test_missing_required(self):
        doc = small_scenario()
        del doc["scenario"]["model"]["n"]
        with pytest.raises(ConfigError, match=r"scenario\.model\.n"):
            parse_scenario(doc)

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_scenario(small_scenario(replicates=0))
        with pytest.raises(ConfigError, match="outputs"):
            parse_scenario(small_scenario(outputs=["degrees"]))
        with pytest.raises(ConfigError, match="k_range"):
            parse_scenario(small_scenario(k_range=[7, 3]))
        with pytest.raises(ConfigError, match="tolerances"):
            parse_scenario(small_scenario(tolerances={"tv_degree": 0}))
        # numeric fields take JSON numbers only (epsilon takes null as unset)
        for value in (None, "abc", "0.1", True, [0.1]):
            with pytest.raises(ConfigError, match=r"scenario\.tolerances\.tv_degree: expected a number"):
                parse_scenario(small_scenario(tolerances={"tv_degree": value}))
            if value is not None:
                with pytest.raises(ConfigError, match=r"scenario\.epsilon: expected a number"):
                    parse_scenario(small_scenario(epsilon=value))
            for size_dist, field_path in (
                ({"kind": "table", "weights": [0, value, 0.5]}, r"weights\[1\]"),
                ({"kind": "truncated_power_law", "gamma": value, "x_min": 1, "x_max": 9}, "gamma"),
                ({"kind": "binomial", "trials": 6, "p": value}, "p"),
            ):
                doc = small_scenario()
                doc["scenario"]["model"]["size_dist"] = size_dist
                with pytest.raises(ConfigError, match=rf"size_dist\.{field_path}: expected a number"):
                    parse_scenario(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_numbers_rejected(self, value):
        """JSON's Infinity and NaN (and 1e400, which loads as inf), and
        integer literals past the float range, are not numbers a scenario
        can hold: an infinite tolerance would pass any comparison."""
        with pytest.raises(ConfigError, match=r"scenario\.tolerances\.tv_degree: expected a finite number"):
            parse_scenario(small_scenario(tolerances={"tv_degree": value}))
        doc = small_scenario()
        doc["scenario"]["model"]["size_dist"] = {"kind": "truncated_power_law", "gamma": value, "x_min": 1, "x_max": 9}
        with pytest.raises(ConfigError, match=r"size_dist\.gamma: expected a finite number"):
            parse_scenario(doc)

    def test_epsilon_required_for_overlap_diagnostics(self):
        doc = small_scenario(outputs=["example2"])
        with pytest.raises(ConfigError, match="epsilon"):
            parse_scenario(doc)
        with pytest.raises(ConfigError, match="epsilon"):
            parse_scenario(small_scenario(outputs=["example2"], epsilon=None))

    def test_model_consistency_checked(self):
        doc = small_scenario()
        doc["scenario"]["model"]["size_dist"] = {"kind": "degenerate", "x": 500}
        with pytest.raises(ConfigError, match="scenario.model"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "size_dist",
        [
            {"kind": "degenerate", "x": 3},
            {"kind": "table", "weights": [0.0, 0.25, 0.75]},
            {"kind": "truncated_power_law", "gamma": 2.5, "x_min": 1, "x_max": 9},
            {"kind": "binomial", "trials": 6, "p": 0.5},
        ],
    )
    def test_size_dist_echo_round_trips(self, size_dist):
        doc = small_scenario()
        doc["scenario"]["model"]["size_dist"] = size_dist
        cfg = parse_scenario(doc)
        assert cfg.echo(0)["model"]["size_dist"] == size_dist

    @pytest.mark.parametrize("kind, top", [("active", 799), ("passive", 399)])
    def test_k_bounded_by_the_largest_degree(self, kind, top):
        """No vertex has more than V - 1 neighbours (n - 1 = 799 actors,
        m - 1 = 399 attributes), so a k range or pmf cut past that is
        rejected at parse time, naming the field; the default range
        passes on any graph."""
        def doc(**overrides):
            d = small_scenario(**overrides)
            d["scenario"]["model"]["kind"] = kind
            return d

        cfg = parse_scenario(doc(k_range=[2, top], k_max=top))
        assert (cfg.k_range, cfg.k_max) == ((2, top), top)
        with pytest.raises(ConfigError, match=rf"scenario\.k_range: upper end {top + 1} exceeds the largest degree {top}"):
            parse_scenario(doc(k_range=[2, top + 1]))
        with pytest.raises(ConfigError, match=rf"scenario\.k_max: 200000 exceeds the largest degree {top}"):
            parse_scenario(doc(k_max=200000))
        tiny = doc()
        del tiny["scenario"]["k_range"]
        tiny["scenario"]["model"].update(n=5, m=5)
        assert parse_scenario(tiny).k_range == (2, 20)
        tiny["scenario"]["k_range"] = [2, 21]
        with pytest.raises(ConfigError, match=r"scenario\.k_range: upper end 21 exceeds the largest degree 4"):
            parse_scenario(tiny)

    def test_echo_round_trips(self):
        """A scenario setting every optional key off its default echoes
        to a document that parses back to the same config (the echo
        writes an unset key as null, which a document leaves out)."""
        doc = small_scenario(
            outputs=["degree", "example2"],
            seed=11,
            tolerances={"tv_degree": 0.03, "alpha_abs": 0.04, "alpha_k_rel": 0.3},
            k_range=[3, 9],
            k_max=40,
            min_bucket=7,
            epsilon=0.2,
        )
        cfg = parse_scenario(doc)
        assert cfg.k_max == 40 and cfg.epsilon == 0.2 and cfg.seed == 11
        echo = cfg.echo(cfg.seed)
        assert parse_scenario({"scenario": {k: v for k, v in echo.items() if v is not None}}) == cfg
        bare = parse_scenario(small_scenario(seed=0, k_max=None))
        echo = bare.echo(0)
        assert (echo["k_max"], echo["epsilon"]) == (None, None)
        assert parse_scenario({"scenario": {k: v for k, v in echo.items() if v is not None}}) == bare

    def test_presets_all_parse(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.replicates >= 1


class TestRunScenario:
    def test_deterministic_across_jobs_and_reruns(self):
        cfg = parse_scenario(small_scenario())
        r1 = run_scenario(cfg, seed=9, jobs=1)
        r2 = run_scenario(cfg, seed=9, jobs=2)
        r3 = run_scenario(cfg, seed=9, jobs=1)
        assert r1.json_body() == r2.json_body() == r3.json_body()
        assert r1.body["scenario"]["seed"] == 9

    def test_default_jobs_count_the_usable_cpus(self, monkeypatch):
        """Without ``jobs`` a run takes as many workers as the CPUs this
        process may run on: limited to one, it starts no process pool."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = parse_scenario(small_scenario(outputs=["degree"]))
        assert cfg.replicates > 1
        assert run_scenario(cfg, seed=1).timing["jobs"] == 1

    @pytest.mark.parametrize(
        "name, jobs",
        [pytest.param(name, 1, id=name) for name in sorted(PRESET_GOLDEN)]
        + [pytest.param(name, 2, id=f"{name}-jobs2") for name in sorted(PRESET_GOLDEN)],
    )
    def test_preset_body_is_pinned(self, name, jobs):
        """The golden bodies were recorded at --jobs 1; the process pool
        must fold its replicates to the same bytes."""
        document = copy.deepcopy(PRESETS[name])
        assert run_scenario(preset_config(name), seed=0, jobs=jobs).json_body() == PRESET_GOLDEN[name]
        assert PRESETS[name] == document  # shared module data stays untouched

    @pytest.mark.parametrize("name", sorted(SUMMARY_GOLDEN))
    def test_echo_reruns_to_the_same_body(self, name):
        """A report's ``scenario`` section is a config document: run
        again, it gives the same body byte for byte.  The fixed bodies
        include a failing tolerance and a passive s = 2 scenario."""
        body = SUMMARY_GOLDEN[name]["body"] or PRESET_GOLDEN[name]
        cfg = parse_scenario({"scenario": json.loads(body)["scenario"]})
        assert run_scenario(cfg, jobs=1).json_body() == body

    def test_preset_golden_covers_every_preset(self):
        assert set(PRESET_GOLDEN) == set(PRESETS)

    def test_seed_changes_body(self):
        cfg = parse_scenario(small_scenario())
        assert run_scenario(cfg, seed=1, jobs=1).json_body() != run_scenario(
            cfg, seed=2, jobs=1
        ).json_body()

    def test_analyses_present_and_reasonable(self):
        cfg = parse_scenario(small_scenario())
        rep = run_scenario(cfg, seed=3, jobs=1)
        body = rep.body
        assert set(body["analyses"]) == {
            "degree",
            "clustering",
            "alpha_k",
            "regime",
            "theorem1_stats",
        }
        assert body["analyses"]["degree"]["tv"] is not None
        assert body["analyses"]["regime"]["case_label"] == "balanced"
        assert body["passes"]["degree"] in (True, False)

    def test_config_seed_and_env_fallback(self, monkeypatch):
        """The seed is the flag, else the config's ``seed``, else
        ``RIGLAB_SEED``, else 0; the variable is read only when needed."""
        with_seed = parse_scenario(small_scenario(outputs=["theorem1_stats"]))
        doc = small_scenario(outputs=["theorem1_stats"])
        del doc["scenario"]["seed"]
        without = parse_scenario(doc)
        for flag, cfg, env, want in [
            (7, with_seed, "31", 7),
            (None, with_seed, "31", 5),
            (None, without, "31", 31),
            (7, without, "not-a-seed", 7),
            (None, with_seed, "not-a-seed", 5),
        ]:
            monkeypatch.setenv("RIGLAB_SEED", env)
            assert run_scenario(cfg, seed=flag, jobs=1).body["scenario"]["seed"] == want
        monkeypatch.delenv("RIGLAB_SEED")
        assert run_scenario(without, jobs=1).body["scenario"]["seed"] == 0

    def test_undefined_clustering_law_is_null(self):
        """Passive sets of size 1 make no 2-stars: the clustering law is
        undefined, so it reads null and its pass flag is null."""
        doc = small_scenario(outputs=["clustering"])
        doc["scenario"]["model"].update(kind="passive", size_dist={"kind": "degenerate", "x": 1})
        rep = run_scenario(parse_scenario(doc), seed=1, jobs=1)
        assert rep.body["analyses"]["clustering"]["theory_alpha"] is None
        assert rep.body["passes"]["clustering"] is None

    def test_dense_passive_clustering_law_is_null(self):
        """n E[(X)_2] = 1600 > m^2 = 400 is outside the sparse regime, where
        the passive law's alpha raises: the law reads null, as does its flag."""
        doc = small_scenario(outputs=["clustering"])
        doc["scenario"]["model"].update(kind="passive", m=20, size_dist={"kind": "degenerate", "x": 2})
        rep = run_scenario(parse_scenario(doc), seed=1, jobs=1)
        assert rep.body["analyses"]["clustering"]["theory_alpha"] is None
        assert rep.body["passes"]["clustering"] is None

    def test_passive_s2_has_no_theory(self):
        doc = small_scenario()
        doc["scenario"]["model"]["kind"] = "passive"
        doc["scenario"]["model"]["s"] = 2
        doc["scenario"]["outputs"] = ["degree", "clustering", "alpha_k"]
        cfg = parse_scenario(doc)
        rep = run_scenario(cfg, seed=1, jobs=1)
        assert rep.body["metadata"]["passive_s_ge2_no_theory"] is True
        assert rep.body["analyses"]["degree"]["theory"] is None
        assert rep.body["analyses"]["clustering"]["theory_alpha"] is None
        per_k = rep.body["analyses"]["alpha_k"]["per_k"]
        assert list(per_k) == ["2", "3", "4", "5", "6"]
        assert [row["theory"] for row in per_k.values()] == [None] * 5
        assert rep.body["passes"] == {"degree": None, "clustering": None, "alpha_k": None}
        assert rep.passed  # informational-only runs count as passing

    @pytest.mark.parametrize("kind", sorted(ROW_LAWS))
    def test_limit_laws_are_looked_up_when_called(self, kind, monkeypatch):
        """The judged analyses reach each law through ``theory``'s module
        globals at call time, so a patched law is the one that runs."""
        from riglab import theory

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in set().union(*ROW_LAWS.values()):
            monkeypatch.setattr(theory, name, counting(name, getattr(theory, name)))
        doc = small_scenario(outputs=["degree", "clustering", "alpha_k"], replicates=1)
        doc["scenario"]["model"]["kind"] = kind
        run_scenario(parse_scenario(doc), seed=1, jobs=1)
        assert set(calls) == ROW_LAWS[kind]


class TestCommandLine:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_pass_exit_zero_and_files(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_scenario())
        out_dir = tmp_path / "out"
        code = main(["run", "--config", path, "--seed", "4", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_PASS, captured.out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["scenario"]["seed"] == 4
        assert (out_dir / "degree.csv").exists()
        assert (out_dir / "alpha_k.csv").exists()
        header = (out_dir / "degree.csv").read_text().splitlines()[0]
        assert header == "k,empirical,theory,abs_diff"
        header = (out_dir / "alpha_k.csv").read_text().splitlines()[0]
        assert header == "k,empirical,theory,bucket_count,se"

    def test_run_comparison_failure_exit_two(self, tmp_path, capsys):
        """A tolerance too tight for its comparison fails that output's
        pass flag, and the run exits 2."""
        for tolerances, flag in [
            ({"tv_degree": 1e-9}, "degree"),
            ({"alpha_abs": 1e-9}, "clustering"),
            ({"alpha_k_rel": 1e-9}, "alpha_k"),
        ]:
            path = self.write_config(tmp_path, small_scenario(tolerances=tolerances))
            out_dir = tmp_path / flag
            code = main(["run", "--config", path, "--seed", "4", "--out", str(out_dir)])
            capsys.readouterr()
            assert code == EXIT_COMPARISON, tolerances
            report = json.loads((out_dir / "report.json").read_text())
            assert report["passes"][flag] is False, tolerances

    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys):
        """An Infinity tolerance would turn any TV into a pass: the run
        stops at the config instead."""
        path = self.write_config(tmp_path, small_scenario(tolerances={"tv_degree": math.inf}))
        assert "Infinity" in Path(path).read_text()
        code = main(["run", "--config", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "config error: scenario.tolerances.tv_degree: expected a finite number\n"

    def test_overflowing_size_dist_literal_is_usage_error(self, capsys):
        size = '{"kind": "truncated_power_law", "gamma": 1e400, "x_min": 1, "x_max": 9}'
        code = main(["theory", "alpha", "--m", "10", "--s", "1", "--size-dist", size])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "config error: --size-dist.gamma: expected a finite number\n"

    def test_integer_past_int64_is_usage_error(self, tmp_path, capsys):
        """A model integer too wide for int64 stops at the config, not
        at a float conversion inside the theory."""
        doc = small_scenario(outputs=["regime"])
        doc["scenario"]["model"]["n"] = int("9" * 400)
        code = main(["run", "--config", self.write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "config error: scenario.model.n: must fit in a signed 64-bit integer\n"

    @pytest.mark.parametrize("n, fits", [(2**63 - 1, True), (2**63, False)])
    def test_int64_edge(self, n, fits):
        doc = small_scenario()
        doc["scenario"]["model"]["n"] = n
        if fits:
            assert parse_scenario(doc).n == n
        else:
            with pytest.raises(ConfigError, match=r"scenario\.model\.n: must fit in a signed 64-bit integer"):
                parse_scenario(doc)

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["theory", "alpha", "--m", "10", "--size-dist", PAIR], EXIT_USAGE),
            (["run", "--preset", "nope"], EXIT_USAGE),
            (["theory", "alpha-k", "--n", "1.5", "--m", "10", "--s", "1", "--k", "2", "--size-dist", PAIR], EXIT_USAGE),
            (["theory", "alpha", "--help"], EXIT_PASS),
        ],
        ids=["missing-flag", "bad-preset-choice", "non-integer-n", "help"],
    )
    def test_argument_errors_exit_one(self, argv, exit_code, capsys):
        """A command line the parser rejects is a usage error (exit 1, as
        for a bad config), not a failed comparison (exit 2); --help
        exits 0."""
        assert main(argv) == exit_code
        captured = capsys.readouterr()
        if exit_code == EXIT_PASS:
            assert captured.out.startswith("usage: riglab theory alpha"), captured.out
        else:
            assert captured.out == "" and "usage: riglab" in captured.err, captured.err

    @staticmethod
    def forbid_sampling(monkeypatch):
        def sample_incidence(*args):
            raise AssertionError("the scenario was sampled")

        monkeypatch.setattr("riglab.cli.sample_incidence", sample_incidence)

    @pytest.mark.parametrize("m, message", [(41, "m must be positive and even"), (42, "is not integral")])
    def test_example2_shape_rejected_before_sampling(self, m, message, tmp_path, capsys, monkeypatch):
        """The half-overlap diagnostics need an even m and an integral
        (epsilon + 1/2) m; a config without them fails at parse time,
        before any replicate is drawn."""
        doc = small_scenario(outputs=["example2", "degree"], epsilon=0.1, replicates=3)
        doc["scenario"]["model"].update(n=20000, m=m, s=2, size_dist={"kind": "degenerate", "x": 6})
        with pytest.raises(ConfigError, match=rf"scenario\.epsilon: .*{message}"):
            parse_scenario(doc)
        self.forbid_sampling(monkeypatch)
        code = main(["run", "--config", self.write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("config error: scenario.epsilon: "), captured.err
        assert preset_config("example2").epsilon == 0.1

    def test_gen_into_a_directory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        """--emit-graph naming a directory is an ``error:`` line, given
        before the scenario is sampled."""
        import riglab.cli as cli_mod

        calls = []
        inner = cli_mod.sample_incidence

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(cli_mod, "sample_incidence", counting)
        code = main(["gen", "--preset", "example4", "--emit-graph", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert calls == []

    def test_run_out_on_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        """--out naming an existing file is an ``error:`` line, given
        before the scenario runs, so no summary reaches stdout."""
        target = tmp_path / "taken"
        target.write_text("")
        self.forbid_sampling(monkeypatch)
        code = main(["run", "--preset", "example4", "--out", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: "), captured.err

    def test_usage_error_exit_one(self, tmp_path, capsys):
        doc = small_scenario()
        doc["scenario"]["surprise"] = 1
        path = self.write_config(tmp_path, doc)
        code = main(["run", "--config", path])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "scenario.surprise" in err

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_non_integer_env_seed_is_config_error(self, command, tmp_path, capsys, monkeypatch):
        doc = small_scenario(outputs=["theorem1_stats"])
        del doc["scenario"]["seed"]
        argv = [command, "--config", self.write_config(tmp_path, doc)]
        if command == "gen":
            argv += ["--emit-graph", str(tmp_path / "graph.txt")]
        monkeypatch.setenv("RIGLAB_SEED", "1.5")
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("config error: RIGLAB_SEED: not an integer"), captured.err
        assert not (tmp_path / "graph.txt").exists()

    def test_run_preset(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset",
                "example2",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "example2" in out

    def test_gen_writes_edge_list(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_scenario())
        target = tmp_path / "graph.txt"
        code = main(["gen", "--config", path, "--seed", "8", "--emit-graph", str(target)])
        capsys.readouterr()
        assert code == EXIT_PASS
        lines = target.read_text().splitlines()
        assert lines[0] == "# rig-lab graph kind=active n=800 m=400 s=1 seed=8"
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert pairs == sorted(pairs) and all(u < v for u, v in pairs)
        # deterministic regeneration
        target2 = tmp_path / "graph2.txt"
        main(["gen", "--config", path, "--seed", "8", "--emit-graph", str(target2)])
        capsys.readouterr()
        assert target.read_text() == target2.read_text()

    def test_theory_subcommands(self, capsys):
        code = main(
            [
                "theory",
                "alpha",
                "--m",
                "1000",
                "--s",
                "2",
                "--size-dist",
                '{"kind": "degenerate", "x": 5}',
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS and out["alpha"] == pytest.approx(0.1)

        code = main(
            [
                "theory",
                "compound-pmf",
                "--lam",
                "2.0",
                "--jump-probs",
                "0,0,0,1",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["probs"][0] == pytest.approx(np.exp(-2))

        code = main(
            [
                "theory",
                "degree-stats",
                "--m",
                "100",
                "--s",
                "1",
                "--uniform-size",
                "10",
                "--count",
                "101",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["lambda_bar"] == pytest.approx(100.0)

    def test_oracle_subcommands(self, capsys):
        code = main(["oracle", "intersection-tail", "--m", "5", "--d1", "2", "--d2", "2", "--s", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS and out["tail"] == pytest.approx(0.7)

        code = main(["oracle", "dense-overlap", "--m", "40", "--epsilon", "0.1"])
        out = json.loads(capsys.readouterr().out)
        assert out["ratio_prime"] == pytest.approx(43680 / 116280)

        code = main(
            [
                "oracle",
                "brute-force",
                "--kind",
                "passive",
                "--n",
                "2",
                "--m",
                "3",
                "--s",
                "1",
                "--size-dist",
                '{"kind": "degenerate", "x": 2}',
            ]
        )
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["probs"], [1 / 9, 6 / 9, 2 / 9], atol=1e-12)

    def test_bad_size_dist_json_is_usage_error(self, capsys):
        code = main(
            ["theory", "alpha", "--m", "10", "--s", "1", "--size-dist", "{nope"]
        )
        assert code == EXIT_USAGE
        assert "size-dist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", [pytest.param(case, id=f"argv{i}") for i, case in enumerate(GOLDEN)]
    )
    def test_every_subcommand_emits_json(self, case, capsys):
        """Every recorded invocation reproduces its exit code and stdout
        byte for byte (usage errors exit 1 with nothing on stdout), and
        the stdout is strict JSON: no NaN or Infinity."""
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"])
        if out:
            json.loads(out, parse_constant=reject_constant)

    @pytest.mark.parametrize(
        "argv, exact",
        [
            (
                ["alpha", "--m", "1000", "--s", "300", "--size-dist", '{"kind": "degenerate", "x": 700}'],
                {"alpha": Fraction(1, math.comb(700, 300))},
            ),
            (
                ["edge-prob", "--m", "1000", "--s", "300", "--size-dist", '{"kind": "degenerate", "x": 700}'],
                {"raw": Fraction(math.comb(700, 300) ** 2, math.comb(1000, 300))},
            ),
            (
                ["degree-stats", "--m", "1000", "--s", "300", "--sizes", "700,700"],
                {
                    "lambda_bar": Fraction(math.comb(700, 300) ** 2, math.comb(1000, 300)),
                    "kappa1": Fraction(math.comb(700, 300) ** 2, math.comb(1000, 300)) ** 2,
                    "kappa2": Fraction(400, 300)
                    * Fraction(math.comb(700, 300) ** 2 * 400, math.comb(1000, 300)),
                },
            ),
        ],
        ids=["alpha", "edge-prob", "degree-stats"],
    )
    def test_wide_binomials_match_exact_values(self, argv, exact, capsys):
        """C(700, 300) ~ 1.2e206 squares past the float range; the laws
        built on it still match exact rational values."""
        code = main(["theory", *argv])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        out = json.loads(captured.out, parse_constant=reject_constant)
        for key, value in exact.items():
            assert out[key] == pytest.approx(float(value), rel=1e-9), key

    def test_alpha_from_moments_past_float_power(self, capsys):
        """E[d]^(3/2) = 1e450 is past the float range, the law
        1e450 / (1e308 - 1e300) is not; a law past it (about 1e313 here)
        is an error line."""
        code = main(["theory", "alpha-from-moments", "--beta", "1", "--ed", "1e300", "--ed2", "1e308"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        alpha = json.loads(captured.out, parse_constant=reject_constant)["alpha"]
        assert alpha == pytest.approx(1e142 / (1 - 1e-8), rel=1e-12)
        code = main(["theory", "alpha-from-moments", "--beta", "1e-300", "--ed", "1e300", "--ed2", "1.0000000000001e300"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: alpha overflows a float")

    def test_subcommand_flags_are_pinned(self):
        """Each subcommand keeps its option strings and their required
        flag, type, default and choices (option strings, not dests:
        where a flag stores is the parser's business)."""
        groups = _subcommands(_build_parser())
        built = {
            group: {
                name: {
                    " ".join(action.option_strings): (
                        action.required,
                        getattr(action.type, "__name__", None),
                        action.default,
                        action.choices,
                    )
                    for action in sub._actions
                    if not isinstance(action, argparse._HelpAction)
                }
                for name, sub in _subcommands(groups[group]).items()
            }
            for group in SUBCOMMAND_FLAGS
        }
        assert built == SUBCOMMAND_FLAGS

    def test_golden_covers_every_subcommand(self):
        declared = {("theory", name) for name in THEORY_COMMANDS}
        declared |= {("oracle", name) for name in ORACLE_COMMANDS}
        assert {tuple(case["argv"][:2]) for case in GOLDEN} == declared

    def test_degree_stats_requires_sizes(self, capsys):
        code = main(["theory", "degree-stats", "--m", "10", "--s", "1"])
        assert code == EXIT_USAGE

    def test_threshold_above_m_is_usage_error(self, capsys):
        """Out-of-domain parameters exit with an ``error:`` line, not a
        traceback or a result."""
        empty, pair = '{"kind": "degenerate", "x": 0}', '{"kind": "degenerate", "x": 2}'
        cases = [
            ["theory", "degree-stats", "--m", "5", "--s", "7", "--sizes", "5,5"],
            ["theory", "passive-spec", "--n", "10", "--m", "0", "--size-dist", empty],
            ["theory", "alpha-k-passive", "--n", "10", "--m", "0", "--k", "3", "--size-dist", empty],
            ["oracle", "links-pmf", "--n", "10", "--m", "0", "--size-dist", empty],
            ["theory", "compound-pmf", "--lam", "1", "--jump-probs", "0.5,0.5", "--k-max", "-1"],
            ["theory", "degree-pmf", "--n", "0", "--m", "10", "--s", "1", "--size-dist", pair],
            ["theory", "degree-pmf", "--n", "10", "--m", "10", "--s", "0", "--size-dist", pair],
        ]
        for argv in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_USAGE, ""), argv
            assert captured.err.startswith("error: "), (argv, captured.err)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["oracle", "intersection-tail", "--m", str(10**30), "--d1", "3", "--d2", "3", "--s", "1"], "--m"),
            (["oracle", "intersection-tail", "--m", str(2**63), "--d1", "3", "--d2", "3", "--s", "1"], "--m"),
            (
                ["theory", "degree-stats", "--m", "100", "--s", "1", "--uniform-size", str(10**30), "--count", "3"],
                "--uniform-size",
            ),
            (["theory", "alpha", "--m", "10", "--s", str(-(2**63) - 1), "--size-dist", PAIR], "--s"),
        ],
    )
    def test_integer_flag_past_int64_is_usage_error(self, argv, flag, capsys):
        """An integer flag has the config's signed 64-bit bound: past it
        the command exits 1 with a usage error naming the flag, never an
        OverflowError traceback."""
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == f"config error: {flag}: must fit in a signed 64-bit integer\n"

    def test_integer_flag_at_int64_max_runs(self, capsys):
        argv = ["oracle", "intersection-tail", "--m", str(2**63 - 1), "--d1", "3", "--d2", "3", "--s", "1"]
        assert main(argv) == EXIT_PASS
        assert math.isfinite(json.loads(capsys.readouterr().out)["tail"])

    def test_memory_error_is_an_error_line(self, capsys):
        """A 7.11 PiB table, which numpy refuses before touching memory,
        prints one ``error:`` line and exits 1, not a traceback."""
        code = main(["theory", "compound-pmf", "--lam", "1e8", "--jump-probs", "0,1", "--k-max", str(10**15)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1

    def test_bare_memory_error_names_itself(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("riglab.theory.compound_poisson_pmf", exhausted)
        code = main(["theory", "compound-pmf", "--lam", "1", "--jump-probs", "0,1"])
        assert (code, capsys.readouterr().err) == (EXIT_USAGE, "error: MemoryError\n")

    def test_impossible_degree_window_fails_at_once(self, capsys):
        """--k-max 2^63 - 1 asks for a 2^63-column pmf window: its buffer
        is refused before any column is computed, so the command prints
        one ``error:`` line within a second, not a ``MemoryError`` after
        seconds of lgamma calls."""
        start = time.perf_counter()
        code = main(["theory", "degree-pmf", "--n", "100", "--m", "100", "--s", "1",
                     "--size-dist", PAIR, "--k-max", str(2**63 - 1)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert elapsed < 1.0

    def test_links_pmf_with_k_max_does_not_grow_with_n(self, capsys):
        """With --k-max 5 the convolution keeps six entries and the lumped
        mass past them, so n = 10^15 sets finish within a second; every
        entry up to 5 underflows to 0."""
        start = time.perf_counter()
        code = main(["oracle", "links-pmf", "--n", str(10**15), "--m", "10", "--k-max", "5",
                     "--size-dist", '{"kind": "degenerate", "x": 3}'])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        out = json.loads(captured.out)
        assert out["probs"] == [0.0] * 6 and out["tail_mass"] == 1.0
        assert elapsed < 1.0

    @pytest.mark.parametrize("n, m, k_max", [(100, 100, 5), (40, 12, 3), (3000, 50, 40), (7, 9, 30)])
    def test_links_pmf_k_max_keeps_the_uncut_entries(self, n, m, k_max, capsys):
        """The products cut past --k-max still give the first k_max + 1
        entries of the uncut convolution, within its truncation tolerance."""
        size = ["--size-dist", '{"kind": "table", "weights": [0.1, 0.3, 0.4, 0.2]}']
        argv = ["oracle", "links-pmf", "--n", str(n), "--m", str(m), *size]
        probs = []
        for extra in (["--k-max", str(k_max)], []):
            assert main([*argv, *extra]) == EXIT_PASS
            probs.append(json.loads(capsys.readouterr().out)["probs"])
        cut, full = probs
        assert len(cut) == min(k_max + 1, n * 2 + 1)
        full = (full + [0.0] * len(cut))[: len(cut)]
        np.testing.assert_allclose(cut, full, rtol=0, atol=CONV_TAIL_TOL)

    def test_beta_form_alpha_is_at_most_one(self, capsys):
        """Sets of 3 at s = 3 share their one 3-subset: a1/a2 = 1 exactly,
        which the scale-ratio route, rounded, read as 1.0000000000000009."""
        code = main(["theory", "alpha-beta-form", "--n", "100", "--m", "100", "--s", "3",
                     "--size-dist", '{"kind": "degenerate", "x": 3}'])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        assert json.loads(captured.out) == {"alpha": 1.0}

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["theory", "alpha", "--m", "10", "--s", "0"], "s"),
            (["theory", "degree-stats", "--m", "10", "--s", "0", "--sizes", "2,2"], "s"),
            (["theory", "alpha-passive", "--n", "-5", "--m", "10"], "n"),
            (["theory", "passive-spec", "--n", "-5", "--m", "10"], "n"),
            (["theory", "alpha-passive-limit", "--n", "0", "--m", "10"], "n"),
            (["theory", "alpha-k-passive", "--n", "0", "--m", "10", "--k", "3"], "n"),
            (["theory", "regime", "--n", "0", "--m", "10"], "n"),
            (["theory", "degree-pmf", "--n", "10", "--m", "10", "--s", "1", "--k-max", "-3"], "k_max"),
            (["theory", "alpha-k", "--n", "10", "--m", "10", "--s", "1", "--k", "1"], "k"),
            (["theory", "alpha-k-passive", "--n", "10", "--m", "10", "--k", "1"], "k"),
        ],
    )
    def test_out_of_domain_error_names_the_parameter(self, argv, name, capsys):
        """s < 1, n < 1 and k_max < 0 lie outside the model: exit 1 with
        an ``error:`` line naming the parameter, never a result."""
        if "--sizes" not in argv:
            argv = [*argv, "--size-dist", PAIR]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert captured.err.startswith(f"error: {name} must"), (argv, captured.err)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["tail-bounds", "--m", "2", "--d1", "3", "--d2", "3", "--s", "1"], "d1"),
            (["tail-bounds", "--m", "5", "--d1", "2", "--d2", "6", "--s", "1"], "d1"),
            (["exact-degree-pmf", "--n", "4", "--m", "10", "--s", "0", "--size-dist", PAIR], "s"),
            (["exact-degree-pmf", "--n", "4", "--m", "10", "--s", "11", "--size-dist", PAIR], "s"),
            (["links-pmf", "--n", "4", "--m", "10", "--k-max", "-2", "--size-dist", PAIR], "k_max"),
            (["lecam", "--probs", "0.5,nan"], "probs"),
            (["lecam", "--probs", "0.5,inf"], "probs"),
            (["dense-overlap", "--m", "40", "--epsilon", "0.5"], "epsilon"),
            (["dense-overlap", "--m", "40", "--epsilon", "-0.25"], "epsilon"),
        ],
    )
    def test_oracle_out_of_domain_error_names_the_parameter(self, argv, name, capsys):
        """Oracle parameters outside their domain exit 1 with an
        ``error:`` line naming the parameter, never a traceback or a
        result (a NaN would not even be valid JSON)."""
        code = main(["oracle", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert captured.err.startswith(f"error: {name} "), (argv, captured.err)


    @pytest.mark.parametrize(
        "argv, degree",
        [
            (["alpha-k", "--n", "10", "--m", "10", "--s", "1", "--k", "5", "--size-dist", '{"kind": "degenerate", "x": 0}'], 5),
            # sets of 4 reach only degrees 3, 6, 9, ...
            (["alpha-k-passive", "--n", "100", "--m", "100", "--k", "4", "--size-dist", '{"kind": "degenerate", "x": 4}'], 4),
        ],
    )
    def test_alpha_k_at_a_degree_without_mass(self, argv, degree, capsys):
        code = main(["theory", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == f"error: degree {degree} has zero asymptotic mass\n"

    def test_scale_overflow_is_an_error_line(self, capsys):
        """C(3000, 1500)/1000 ~ e^2068 is past the float range: exit 1
        with an ``error:`` line naming it, never a traceback."""
        size = json.dumps({"kind": "degenerate", "x": 1500})
        full = json.dumps({"kind": "degenerate", "x": 3000})
        cases = [
            (["theory", "degree-pmf", "--n", "1000", "--m", "3000", "--s", "1500", "--size-dist", size],
             "error: C(m, s)/n overflows a float"),
            (["theory", "edge-prob", "--m", "3000", "--s", "1500", "--size-dist", full],
             "error: C(3000, 1500) overflows a float"),
            (["theory", "alpha", "--m", "3000", "--s", "1500", "--size-dist", full],
             "error: C(3000, 1500) overflows a float"),
            (["theory", "degree-stats", "--m", "3000", "--s", "1500", "--sizes", "3000,3000"],
             "error: C(3000, 1500) overflows a float"),
            # lambda_bar ~ 3.4e296 is a float, its square is not
            (["theory", "degree-stats", "--m", "1000", "--s", "500", "--sizes", "990,990"],
             "error: kappa1 overflows a float"),
        ]
        for argv, message in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_USAGE, ""), argv
            assert captured.err.startswith(message), (argv, captured.err)
        # the tail bounds fall back to log space: p* ~ 2^640 reads upper 1,
        # and the negative slack lower 0
        code = main(["oracle", "tail-bounds", "--m", "3000", "--d1", "1500", "--d2", "1500", "--s", "700"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        assert json.loads(captured.out) == {"lower": 0.0, "upper": 1.0}

    def test_dense_passive_clustering_is_an_error_line(self, capsys):
        """n E[(X)_2] = 200 > m^2 = 100: the finite-size formula would
        print 2.0, so the command exits 1 with an ``error:`` line."""
        size = json.dumps({"kind": "degenerate", "x": 2})
        code = main(["theory", "alpha-passive", "--n", "100", "--m", "10", "--size-dist", size])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: clustering undefined outside the sparse regime")

    def test_nan_jump_probs_error_names_probs(self, capsys):
        code = main(["theory", "compound-pmf", "--lam", "1", "--jump-probs", "0.5,nan"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: probs must be nonnegative"), captured.err

    def test_table_sum_overflow_is_a_config_error(self, capsys):
        """Weights that are each finite but sum past the float range are
        rejected on both paths, without a RuntimeWarning."""
        table = {"kind": "table", "weights": [0.5, 1e308, 1e308]}
        code = main(["theory", "alpha", "--m", "10", "--s", "1", "--size-dist", json.dumps(table)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("config error: --size-dist: table weights sum past"), captured.err
        doc = small_scenario()
        doc["scenario"]["model"]["size_dist"] = table
        with pytest.raises(ConfigError, match=r"scenario\.model\.size_dist: table weights sum past"):
            parse_scenario(doc)


class TestRunSummary:
    @pytest.mark.parametrize("name", sorted(SUMMARY_GOLDEN))
    def test_summary_and_csvs_are_pinned(self, name, tmp_path):
        case = SUMMARY_GOLDEN[name]
        report = Report(body=json.loads(case["body"] or PRESET_GOLDEN[name]))
        _write_csvs(report, str(tmp_path))
        csvs = {path.name: path.read_text() for path in tmp_path.iterdir()}
        assert (_summary_lines(report), csvs) == (case["summary"], case["csv"])

    def test_golden_covers_presets_and_every_status(self):
        assert set(PRESETS) <= set(SUMMARY_GOLDEN)
        lines = [line for case in SUMMARY_GOLDEN.values() for line in case["summary"]]
        for status in ("[PASS]", "[FAIL]", "[info]"):
            assert any(line.endswith(status) for line in lines), status
        assert any("=None " in line for line in lines)

    def test_missing_field_reads_none(self):
        body = {"scenario": {"outputs": ["degree", "regime"]}, "analyses": {}, "passes": {}}
        assert _summary_lines(Report(body=body)) == [
            "degree: tv=None [info]",
            "regime: None (n_star=None) [info]",
        ]


class TestReportReproducibility:
    def test_theory_numbers_reproducible_from_echo(self):
        """Every theory value in a report can be recomputed from the
        echoed scenario parameters."""
        from riglab import theory
        from riglab.model import make_size_dist
        from riglab.cli import parse_size_spec

        cfg = parse_scenario(small_scenario())
        rep = run_scenario(cfg, seed=6, jobs=1)
        echo = rep.body["scenario"]["model"]
        spec = parse_size_spec(echo["size_dist"], "echo")
        dist = make_size_dist(spec, echo["m"])
        want_alpha = theory.alpha_active(dist, echo["m"], echo["s"])
        assert rep.body["analyses"]["clustering"]["theory_alpha"] == pytest.approx(
            want_alpha, abs=1e-15
        )
        pmf = theory.mixed_poisson_degree_pmf(dist, echo["n"], echo["m"], echo["s"])
        got = rep.body["analyses"]["degree"]["theory"]["probs"]
        np.testing.assert_allclose(got, np.asarray(pmf.probs), atol=1e-15)

    def test_resource_abort_names_replicate(self, monkeypatch):
        """Resource-cap aborts surface with the replicate index."""
        import riglab.cli as cli_mod
        from riglab.sampler import ResourceLimitError

        def exploding_build(inc, s):
            raise ResourceLimitError("projected pairs exceed cap")

        monkeypatch.setattr(cli_mod, "build_active", exploding_build)
        cfg = parse_scenario(small_scenario())
        with pytest.raises(ResourceLimitError, match="replicate 0"):
            run_scenario(cfg, seed=1, jobs=1)

    def test_gen_resource_abort_names_replicate(self, monkeypatch, tmp_path, capsys):
        """``gen`` builds through the same graph step as ``run``: a
        resource abort is an ``error:`` line naming replicate 0."""
        import riglab.cli as cli_mod
        from riglab.sampler import ResourceLimitError

        def exploding_build(inc, s):
            raise ResourceLimitError("projected pairs exceed cap")

        monkeypatch.setattr(cli_mod, "build_active", exploding_build)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(small_scenario()))
        target = tmp_path / "graph.txt"
        code = main(["gen", "--config", str(path), "--emit-graph", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "error: replicate 0: projected pairs exceed cap\n"
        assert not target.exists()

    def test_gen_write_failure_removes_the_file(self, monkeypatch, tmp_path, capsys):
        """A write that fails part way (a full disk) is an ``error:``
        line and leaves no truncated edge list behind."""
        import errno

        import riglab.cli as cli_mod

        def failing_write(graph, path, **meta):
            with open(path, "w", encoding="ascii") as fh:
                fh.write("# rig-lab graph\n0 1\n")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli_mod, "write_edge_list", failing_write)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(small_scenario()))
        target = tmp_path / "graph.txt"
        code = main(["gen", "--config", str(path), "--emit-graph", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err == "error: [Errno 28] No space left on device\n"
        assert not target.exists()

    def test_sizes_only_outputs_build_no_graph(self, monkeypatch):
        """Outputs that read only the sampled sizes build no graph, so
        they cannot trip the pair cap."""
        import riglab.cli as cli_mod
        from riglab.sampler import ResourceLimitError

        def exploding_build(inc, s):
            raise ResourceLimitError("projected pairs exceed cap")

        monkeypatch.setattr(cli_mod, "build_active", exploding_build)
        cfg = parse_scenario(small_scenario(outputs=["regime", "theorem1_stats"]))
        rep = run_scenario(cfg, seed=1, jobs=1)
        assert sorted(rep.body["analyses"]) == ["regime", "theorem1_stats"]

    def test_sizes_only_outputs_sample_replicate_zero_only(self, monkeypatch):
        """theorem1_stats reads only replicate 0's sizes, so the other
        replicates are not sampled; the body is the one every replicate
        used to be sampled for (its sha256 was recorded then)."""
        import hashlib

        import riglab.cli as cli_mod

        inner = cli_mod.sample_incidence
        streams = []

        def counting_sample(params, rng):
            streams.append(rng.bit_generator.seed_seq.spawn_key[0])
            return inner(params, rng)

        monkeypatch.setattr(cli_mod, "sample_incidence", counting_sample)
        cfg = parse_scenario(small_scenario(outputs=["theorem1_stats"]))
        assert cfg.replicates == 3
        body = run_scenario(cfg, seed=1, jobs=1).json_body()
        assert streams == [0]
        assert (
            hashlib.sha256(body.encode()).hexdigest()
            == "6488aac195f6f54634c06f0a15ea84a8324c4d66cf40ebadecd0e0b130e39b03"
        )

    def test_sets_released_before_clustering(self, monkeypatch):
        """A replicate reads its sets only to build the graph, so they
        are freed before the clustering counts run."""
        import weakref

        import riglab.cli as cli_mod
        from riglab import stats

        inner, report = cli_mod.sample_incidence, stats.clustering_report
        sets, alive = [], []

        def tracked_sample(params, rng):
            inc = inner(params, rng)
            sets.append(weakref.ref(inc))
            return inc

        def checked_report(graph, min_bucket):
            alive.append(sets[-1]() is not None)
            return report(graph, min_bucket)

        monkeypatch.setattr(cli_mod, "sample_incidence", tracked_sample)
        monkeypatch.setattr(stats, "clustering_report", checked_report)
        run_scenario(parse_scenario(small_scenario(outputs=["clustering", "theorem1_stats"])), seed=1, jobs=1)
        assert alive == [False, False, False]

    def test_degree_only_outputs_count_no_triangles(self, monkeypatch):
        from riglab import stats

        def exploding_report(graph, min_bucket):
            raise AssertionError("clustering report built for a degree-only scenario")

        monkeypatch.setattr(stats, "clustering_report", exploding_report)
        cfg = parse_scenario(small_scenario(outputs=["degree"]))
        rep = run_scenario(cfg, seed=1, jobs=1)
        assert sorted(rep.body["analyses"]) == ["degree"]
        assert rep.body["passes"]["degree"] is not None
