"""CLI contract: config round-trip, commands, files, exit codes, determinism."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from deltashock import Constant, Exponential, ShockModel, SimulationConfig
from deltashock.cli import (
    EXIT_COMPARE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    OutputSpec,
    RunConfig,
    cmd_analyze,
    cmd_compare,
    cmd_invert,
    cmd_simulate,
    load_config,
    main,
    parse_config,
    serialize_config,
)

LN2 = math.log(2.0)


def exp_config(out_dir, runs=50_000, seed=42, workers=1, k=3, tau=LN2, extra=None):
    config = {
        "model": {
            "k": k,
            "arrivals": {"type": "exponential", "rate": 1.0},
            "threshold": {"type": "constant", "value": tau},
        },
        "analysis": {"grid": {"points": 40}},
        "simulation": {"runs": runs, "seed": seed, "workers": workers},
        "output": {"directory": str(out_dir)},
    }
    if extra:
        config.update(extra)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigParsing:
    def test_round_trip_identity(self, tmp_path):
        config = exp_config(tmp_path)
        parsed = parse_config(config)
        assert parse_config(serialize_config(parsed)) == parsed

    def test_round_trip_with_all_sections(self, tmp_path):
        config = {
            "model": {
                "k": 2,
                "arrivals": {"type": "uniform", "lower": 0.0, "upper": 2.0},
                "threshold": {"type": "exponential", "rate": 0.9},
            },
            "analysis": {
                "grid": {"t_min": 0.05, "t_max": 30.0, "points": 111},
                "inversion": {"target_error": 1e-7, "euler_depth": 14, "discretization": 21.0},
            },
            "simulation": {"runs": 123, "seed": 9, "workers": 2},
            "output": {"directory": "somewhere", "formats": ["json"]},
        }
        parsed = parse_config(config)
        assert parse_config(serialize_config(parsed)) == parsed
        assert serialize_config(parsed)["analysis"]["grid"]["t_max"] == 30.0

    def test_defaults_fill_missing_sections(self):
        parsed = parse_config({"model": {"k": 1,
                                         "arrivals": {"type": "exponential", "rate": 1.0},
                                         "threshold": {"type": "constant", "value": 1.0}}})
        assert parsed.simulation.runs == 100_000
        assert parsed.output.formats == ("csv", "json")

    @pytest.mark.parametrize("mutate,needle", [
        (lambda c: c.pop("model"), "model"),
        (lambda c: c["model"].pop("k"), "model.k"),
        (lambda c: c["model"].update(k=0), "model.k"),
        (lambda c: c["model"].update(k=2.5), "model.k"),
        (lambda c: c["model"]["arrivals"].update(type="weibull"), "model.arrivals.type"),
        (lambda c: c["model"]["arrivals"].update(rate=-1.0), "model.arrivals"),
        (lambda c: c["model"]["arrivals"].pop("rate"), "model.arrivals.rate"),
        (lambda c: c["analysis"]["grid"].update(points=1), "analysis.grid.points"),
        (lambda c: c["analysis"]["grid"].update(t_min=5.0, t_max=1.0), "analysis.grid"),
        (lambda c: c["simulation"].update(runs=0), "simulation"),
        (lambda c: c["simulation"].update(seed=-3), "simulation"),
        (lambda c: c["output"].update(formats=["xml"]), "output.formats"),
    ])
    def test_validation_messages_carry_key_paths(self, tmp_path, mutate, needle):
        config = exp_config(tmp_path)
        mutate(config)
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert needle in str(err.value)

    def test_unrealizable_model_rejected_at_parse(self, tmp_path):
        config = exp_config(tmp_path)
        config["model"]["arrivals"] = {"type": "uniform", "lower": 1.0, "upper": 2.0}
        config["model"]["threshold"] = {"type": "constant", "value": 0.5}
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "lethal" in str(err.value)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "model": {\n')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestAnalyze:
    def test_benchmark_methods_agree(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out"))
        assert cmd_analyze(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        moments = summary["moments"]
        means = [moments["general"]["mean"], moments["transform"]["mean"], moments["closed_form"]["mean"]]
        assert max(means) - min(means) <= 1e-5 * 6.0
        assert moments["general"]["mean"] == pytest.approx(6.0, abs=1e-9)
        assert summary["lethal_prob"] == pytest.approx(0.5, abs=1e-12)
        assert summary["moments"]["closed_form_family"] == "exponential_constant"

    def test_curve_file_shape(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out"))
        cmd_analyze(cfg)
        raw = (tmp_path / "out" / "curves.csv").read_text()
        assert raw.endswith("\n") and not raw.endswith("\n\n")
        rows = read_rows(tmp_path / "out" / "curves.csv")
        assert rows[0] == ["t", "pdf_closed_form", "pdf_inverted", "pdf_normal_approx", "cdf_inverted"]
        assert len(rows) == 1 + 40
        # 17 significant digits, locale-independent decimal point
        assert "." in rows[1][0]
        assert all(float(cell) >= 0 for row in rows[1:] for cell in row if cell)
        cdf_vals = [float(r[4]) for r in rows[1:] if r[4]]
        assert all(b >= a - 1e-8 for a, b in zip(cdf_vals, cdf_vals[1:]))

    def test_every_gap_lethal_gives_erlang_curve(self, tmp_path):
        config = exp_config(tmp_path / "out", k=2, tau=1e6)
        cfg = parse_config(config)
        cmd_analyze(cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["moments"]["general"]["mean"] == pytest.approx(2.0, abs=1e-12)
        rows = read_rows(tmp_path / "out" / "curves.csv")[1:]
        for row in rows[:10]:
            t = float(row[0])
            erlang = t * math.exp(-t)
            assert float(row[1]) == pytest.approx(erlang, rel=1e-10)

    def test_uniform_reports_both_variances(self, tmp_path):
        config = exp_config(tmp_path / "out")
        config["model"] = {
            "k": 1,
            "arrivals": {"type": "uniform", "lower": 0.0, "upper": 2.0},
            "threshold": {"type": "constant", "value": 1.0},
        }
        cmd_analyze(parse_config(config))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        closed = summary["moments"]["closed_form"]
        assert closed["variance"] == pytest.approx(14.0 / 3.0, abs=1e-9)
        assert closed["variance_published"] == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert closed["variance_absolute_difference"] == pytest.approx(7.0 / 3.0, abs=1e-9)
        assert "authoritative" in closed["variance_note"]

    def test_unreachable_inversion_reported_per_row(self, tmp_path):
        config = exp_config(tmp_path / "out")
        config["analysis"]["inversion"] = {"target_error": 1e-14}
        cfg = parse_config(config)
        assert cmd_analyze(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["inversion_failures"]
        rows = read_rows(tmp_path / "out" / "curves.csv")[1:]
        failed = [r for r in rows if r[2] == ""]
        assert len(failed) == len(summary["inversion_failures"])
        for entry, row in zip(summary["inversion_failures"], failed):
            assert set(entry) == {"t", "error_estimate"}
            assert entry["t"] == float(row[0])
            assert entry["error_estimate"] > 1e-14


class TestSimulate:
    def test_report_and_verdict(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out", runs=50_000))
        assert cmd_simulate(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["verdict"] == "PASS"
        assert abs(summary["mean_delta_se"]) <= 3.0
        rows = read_rows(tmp_path / "out" / "ecdf.csv")
        assert rows[0] == ["t", "ecdf"]
        assert len(rows) == 1 + 50_000
        assert float(rows[-1][1]) == 1.0

    def test_report_counts_retained_samples(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out"))
        cfg = replace(cfg, simulation=SimulationConfig(runs=20_000, seed=42, sample_reservoir=5_000))
        assert cmd_simulate(cfg) == EXIT_OK
        report = json.loads((tmp_path / "out" / "summary.json").read_text())["report"]
        rows = read_rows(tmp_path / "out" / "ecdf.csv")[1:]
        assert report["samples"] == 5_000 == len(rows)
        assert report["runs"] == 20_000

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = parse_config(exp_config(tmp_path / "a", runs=30_000))
        cfg_b = parse_config(exp_config(tmp_path / "b", runs=30_000))
        cmd_simulate(cfg_a)
        cmd_simulate(cfg_b)
        ecdf_a = (tmp_path / "a" / "ecdf.csv").read_bytes()
        ecdf_b = (tmp_path / "b" / "ecdf.csv").read_bytes()
        assert ecdf_a == ecdf_b

    def test_single_run_marks_variance_null(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out", runs=1))
        assert cmd_simulate(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["report"]["variance"] is None
        assert summary["checks"]["mean_within_3se"] is None
        assert summary["verdict"] == "PASS"


class TestCompare:
    def test_benchmark_passes(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out", runs=50_000, k=2, tau=1.0))
        assert cmd_compare(cfg) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert payload["verdict"] == "PASS"
        assert payload["ks"]["empirical_vs_inverted"] < payload["ks"]["critical_alpha_001"]
        assert payload["ks"]["empirical_vs_normal"] > payload["ks"]["empirical_vs_inverted"]
        assert all(payload["checks"].values())

    def test_mismatched_analytic_model_fails(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out", runs=30_000, k=2, tau=1.0))
        wrong = ShockModel(2, Exponential(1.0), Constant(0.3))
        assert cmd_compare(cfg, analytic_model=wrong) == EXIT_COMPARE
        payload = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert payload["verdict"] == "FAIL"
        assert payload["checks"]["mean_within_3se"] is False

    def test_normal_ks_shrinks_at_large_hit_count(self, tmp_path):
        ks = {}
        for k, tau in ((1, 1.0), (100, 1.0)):
            cfg = parse_config(exp_config(tmp_path / f"out{k}", runs=30_000, k=k, tau=tau))
            cmd_compare(cfg)
            payload = json.loads((tmp_path / f"out{k}" / "compare.json").read_text())
            ks[k] = payload["ks"]["empirical_vs_normal"]
        assert ks[100] < ks[1]

    def test_ks_critical_value_uses_retained_samples(self, tmp_path):
        cfg = RunConfig(
            model=ShockModel(3, Exponential(1.0), Constant(LN2)),
            simulation=SimulationConfig(runs=20_000, seed=5, sample_reservoir=5_000),
            output=OutputSpec(directory=str(tmp_path)),
        )
        cmd_compare(cfg)
        ks = json.loads((tmp_path / "compare.json").read_text())["ks"]
        assert ks["samples"] == 5_000
        assert ks["critical_alpha_001"] == 1.63 / math.sqrt(5_000)


class TestInvert:
    def test_prints_density(self, tmp_path, capsys):
        cfg = parse_config(exp_config(tmp_path / "out"))
        assert cmd_invert(cfg, 0.3, "density") == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        from deltashock.closedform import ExpConstParams, exp_const_pdf
        assert printed == pytest.approx(exp_const_pdf(ExpConstParams(1.0, LN2, 3), 0.3), abs=1e-8)

    def test_cdf_mode(self, tmp_path, capsys):
        cfg = parse_config(exp_config(tmp_path / "out", k=1, tau=1.0))
        assert cmd_invert(cfg, 0.5, "cdf") == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(1.0 - math.exp(-0.5), abs=1e-7)


class TestMain:
    def test_analyze_end_to_end(self, tmp_path):
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        assert main(["analyze", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "out" / "summary.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"model": {"k": 0}})
        assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_numeric_failure_exit_code(self, tmp_path):
        config = exp_config(tmp_path / "out", k=2, tau=1.0)
        config["analysis"]["inversion"] = {"target_error": 1e-14}
        path = write_config(tmp_path, config)
        # right next to the density kink nothing can settle to 1e-14
        assert main(["invert", "--config", str(path), "--time", "1.001"]) == EXIT_NUMERIC

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, exp_config(tmp_path / "ignored", runs=10, seed=1))
        out = tmp_path / "flagged"
        assert main([
            "simulate", "--config", str(path),
            "--out", str(out), "--runs", "500", "--seed", "7",
        ]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["runs"] == 500
        assert summary["report"]["seed"] == 7

    def test_grid_override(self, tmp_path):
        path = write_config(tmp_path, exp_config(tmp_path / "ignored"))
        out = tmp_path / "g"
        assert main(["analyze", "--config", str(path), "--out", str(out),
                     "--grid", "0.5:8.0:10"]) == EXIT_OK
        rows = read_rows(out / "curves.csv")
        assert len(rows) == 11
        assert float(rows[1][0]) == 0.5
        assert float(rows[-1][0]) == 8.0

    def test_bad_grid_flag(self, tmp_path):
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        assert main(["analyze", "--config", str(path), "--grid", "5:1:10"]) == EXIT_CONFIG
