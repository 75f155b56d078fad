"""Scenario configs, the runner contract and the command-line surface."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from riglab.cli import (
    ConfigError,
    EXIT_COMPARISON,
    EXIT_PASS,
    EXIT_USAGE,
    ORACLE_COMMANDS,
    OUTPUTS,
    PRESETS,
    THEORY_COMMANDS,
    Report,
    _SUMMARY_FORMATS,
    _summary_lines,
    _write_csvs,
    main,
    parse_scenario,
    preset_config,
    run_scenario,
)

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
        # numeric fields take JSON numbers only
        for value in (None, "abc", "0.1", True, [0.1]):
            with pytest.raises(ConfigError, match=r"scenario\.tolerances\.tv_degree: expected a number"):
                parse_scenario(small_scenario(tolerances={"tv_degree": value}))
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

    def test_epsilon_required_for_overlap_diagnostics(self):
        doc = small_scenario(outputs=["example2"])
        with pytest.raises(ConfigError, match="epsilon"):
            parse_scenario(doc)

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

    @pytest.mark.parametrize("name", sorted(PRESET_GOLDEN))
    def test_preset_body_is_pinned(self, name):
        document = copy.deepcopy(PRESETS[name])
        assert run_scenario(preset_config(name), seed=0, jobs=1).json_body() == PRESET_GOLDEN[name]
        assert PRESETS[name] == document  # shared module data stays untouched

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
        cfg = parse_scenario(small_scenario())
        with_config_seed = run_scenario(cfg, jobs=1)
        assert with_config_seed.body["scenario"]["seed"] == 5

        doc = small_scenario()
        del doc["scenario"]["seed"]
        cfg2 = parse_scenario(doc)
        monkeypatch.setenv("RIGLAB_SEED", "31")
        rep = run_scenario(cfg2, jobs=1)
        assert rep.body["scenario"]["seed"] == 31
        monkeypatch.delenv("RIGLAB_SEED")
        rep = run_scenario(cfg2, jobs=1)
        assert rep.body["scenario"]["seed"] == 0

    def test_passive_s2_has_no_theory(self):
        doc = small_scenario()
        doc["scenario"]["model"]["kind"] = "passive"
        doc["scenario"]["model"]["s"] = 2
        doc["scenario"]["outputs"] = ["degree", "clustering"]
        cfg = parse_scenario(doc)
        rep = run_scenario(cfg, seed=1, jobs=1)
        assert rep.body["metadata"]["passive_s_ge2_no_theory"] is True
        assert rep.body["analyses"]["degree"]["theory"] is None
        assert rep.body["passes"]["degree"] is None
        assert rep.passed  # informational-only runs count as passing


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
        doc = small_scenario(tolerances={"tv_degree": 1e-9})
        path = self.write_config(tmp_path, doc)
        code = main(["run", "--config", path, "--seed", "4"])
        capsys.readouterr()
        assert code == EXIT_COMPARISON

    def test_usage_error_exit_one(self, tmp_path, capsys):
        doc = small_scenario()
        doc["scenario"]["surprise"] = 1
        path = self.write_config(tmp_path, doc)
        code = main(["run", "--config", path])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "scenario.surprise" in err

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
        byte for byte (usage errors exit 1 with nothing on stdout)."""
        code = main(case["argv"])
        assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])

    def test_golden_covers_every_subcommand(self):
        declared = {("theory", name) for name in THEORY_COMMANDS}
        declared |= {("oracle", name) for name in ORACLE_COMMANDS}
        assert {tuple(case["argv"][:2]) for case in GOLDEN} == declared

    def test_degree_stats_requires_sizes(self, capsys):
        code = main(["theory", "degree-stats", "--m", "10", "--s", "1"])
        assert code == EXIT_USAGE

    def test_threshold_above_m_is_usage_error(self, capsys):
        code = main(["theory", "degree-stats", "--m", "5", "--s", "7", "--sizes", "5,5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith("error: ")


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

    def test_every_output_has_a_summary_format(self):
        assert set(_SUMMARY_FORMATS) == set(OUTPUTS)

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
            streams.append(rng.stream_id)
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

    def test_degree_only_outputs_count_no_triangles(self, monkeypatch):
        from riglab import stats

        def exploding_report(graph, min_bucket):
            raise AssertionError("clustering report built for a degree-only scenario")

        monkeypatch.setattr(stats, "clustering_report", exploding_report)
        cfg = parse_scenario(small_scenario(outputs=["degree"]))
        rep = run_scenario(cfg, seed=1, jobs=1)
        assert sorted(rep.body["analyses"]) == ["degree"]
        assert rep.body["passes"]["degree"] is not None
