"""CLI contract: config round-trip, commands, files, exit codes, determinism."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from deltashock import (
    Constant,
    Exponential,
    InversionConfig,
    InversionError,
    ShockModel,
    SimulationConfig,
    exp_const_cdf,
    run_batch,
    simulate,
)
import deltashock
from deltashock import cli
from deltashock.cli import (
    EXIT_COMPARE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    GridSpec,
    OutputSpec,
    RunConfig,
    cmd_analyze,
    cmd_compare,
    cmd_invert,
    cmd_simulate,
    load_config,
    main,
    parse_config,
    _ecdf_ranks,
    serialize_config,
)

LN2 = math.log(2.0)
# ecdf.csv holds the order statistics at the levels j / ECDF_LEVELS
ECDF_LEVELS = 2000


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
                "inversion": {"target_error": 1e-7},
            },
            "simulation": {"runs": 123, "seed": 9, "workers": 2},
            "output": {"directory": "somewhere"},
        }
        parsed = parse_config(config)
        assert parse_config(serialize_config(parsed)) == parsed
        assert serialize_config(parsed)["analysis"]["grid"]["t_max"] == 30.0

    def test_defaults_fill_missing_sections(self):
        parsed = parse_config({"model": {"k": 1,
                                         "arrivals": {"type": "exponential", "rate": 1.0},
                                         "threshold": {"type": "constant", "value": 1.0}}})
        assert parsed.simulation.runs == 100_000
        assert parsed.output.directory == "out"

    def test_each_section_writes_exactly_its_spec_fields(self, tmp_path):
        written = serialize_config(parse_config(exp_config(tmp_path)))
        for section, spec in ((written["analysis"]["grid"], GridSpec),
                              (written["analysis"]["inversion"], InversionConfig),
                              (written["simulation"], SimulationConfig),
                              (written["output"], OutputSpec)):
            assert set(section) == {field.name for field in fields(spec)}

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
        (lambda c: c["analysis"]["grid"].update(t_max=-2.0), "analysis.grid.t_max"),
        (lambda c: c["analysis"]["grid"].update(t_max=0.0), "analysis.grid.t_max"),
        (lambda c: c["analysis"].update(inversion={"target_error": math.inf}), "analysis.inversion"),
        # JSON's Infinity reaches the laws as math.inf
        (lambda c: c["model"]["arrivals"].update(rate=math.inf), "model.arrivals.rate"),
        (lambda c: c["model"]["threshold"].update(value=math.inf), "model.threshold"),
        # the law calls it tau; the config, value
        (lambda c: c["model"]["threshold"].update(value=-1.0), "model.threshold.value must be"),
        (lambda c: c["model"].update(arrivals={"type": "uniform", "lower": 0.0, "upper": math.inf}),
         "model.arrivals.upper"),
    ])
    def test_validation_messages_carry_key_paths(self, tmp_path, mutate, needle):
        config = exp_config(tmp_path)
        mutate(config)
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert needle in str(err.value)

    @pytest.mark.parametrize("mutate,path", [
        (lambda c: c["analysis"].update(inversion={"target_eror": 1e-3}),
         "analysis.inversion.target_eror"),
        (lambda c: c["analysis"]["grid"].update(tmax=30.0), "analysis.grid.tmax"),
        (lambda c: c["simulation"].update(worker=2), "simulation.worker"),
        (lambda c: c["output"].update(format=["json"]), "output.format"),
        # named before the "rate" it replaces goes missing
        (lambda c: c["model"]["arrivals"].update(rat=c["model"]["arrivals"].pop("rate")),
         "model.arrivals.rat"),
        (lambda c: c["model"]["threshold"].update(tau=1.0), "model.threshold.tau"),
        (lambda c: c["model"].update(kk=3), "model.kk"),
        (lambda c: c["analysis"].update(grids={}), "analysis.grids"),
        (lambda c: c.update(simulaton={"runs": 10}), "simulaton"),
        # the inversion depth and damping and the output formats are fixed
        (lambda c: c["analysis"].update(inversion={"euler_depth": 12}),
         "analysis.inversion.euler_depth"),
        (lambda c: c["analysis"].update(inversion={"discretization": 21.0}),
         "analysis.inversion.discretization"),
        (lambda c: c["output"].update(formats=["csv", "json"]), "output.formats"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, mutate, path):
        config = exp_config(tmp_path)
        mutate(config)
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert str(err.value) == f"{path}: unknown key"

    # the config file and --grid give points as ints; a direct caller may not
    @pytest.mark.parametrize("points", [12.5, 40.0, "40"])
    def test_grid_spec_rejects(self, points):
        with pytest.raises(ValueError, match="points must be an integer"):
            GridSpec(points=points)

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
        assert summary["moments"]["closed_form_family"] == "uniform_constant"

    def test_uniform_with_every_gap_lethal_has_no_closed_form(self, tmp_path):
        # tau = 3 lies above the gaps' support (0, 2), so p = 1
        config = exp_config(tmp_path / "out")
        config["model"] = {
            "k": 2,
            "arrivals": {"type": "uniform", "lower": 0.0, "upper": 2.0},
            "threshold": {"type": "constant", "value": 3.0},
        }
        assert cmd_analyze(parse_config(config)) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["lethal_prob"] == 1.0
        assert summary["moments"]["closed_form"] is None
        assert summary["moments"]["closed_form_family"] is None
        rows = read_rows(tmp_path / "out" / "curves.csv")[1:]
        assert all(row[1] == "" for row in rows)

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


    def test_refused_series_cells_are_empty(self, tmp_path):
        """k = 8 at p = 0.01, where the series' terms cancel: every
        pdf_closed_form cell is empty or within 1e-6 of pdf_inverted."""
        config = exp_config(tmp_path / "out", k=8, tau=-math.log(0.99))
        config["analysis"]["grid"] = {"points": 10}
        assert cmd_analyze(parse_config(config)) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "curves.csv")[1:]
        assert len(rows) == 10 and all(row[2] for row in rows)
        assert any(row[1] == "" for row in rows)
        assert all(row[1] == "" or abs(float(row[1]) - float(row[2])) <= 1e-6 for row in rows)


class TestSimulate:
    def test_report_and_verdict(self, tmp_path):
        cfg = parse_config(exp_config(tmp_path / "out", runs=50_000))
        assert cmd_simulate(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["verdict"] == "PASS"
        assert abs(summary["mean_delta_se"]) <= 3.0
        assert summary["report"]["samples"] == 50_000
        assert summary["report"]["ecdf_band"] == math.sqrt(math.log(200) / (2 * 50_000))
        rows = read_rows(tmp_path / "out" / "ecdf.csv")
        assert rows[0] == ["t", "ecdf"]
        assert len(rows) == 1 + ECDF_LEVELS + 1
        assert float(rows[-1][1]) == 1.0

    @pytest.mark.parametrize("runs", [2 * ECDF_LEVELS + 3, 50_000])
    def test_ecdf_rows_are_the_order_statistics_at_each_level(self, tmp_path, runs):
        # row j: the smallest sample whose ecdf reaches j / ECDF_LEVELS, one
        # format per cell
        cfg = parse_config(exp_config(tmp_path / "out", runs=runs))
        assert cmd_simulate(cfg) == EXIT_OK
        times = run_batch(cfg.model, cfg.simulation).sorted_times
        lines = (tmp_path / "out" / "ecdf.csv").read_bytes().decode().split("\n")
        assert lines[0] == "t,ecdf" and lines[-1] == "" and len(lines) == ECDF_LEVELS + 3
        for j, line in enumerate(lines[1:-1]):
            i = max(1, -(-j * runs // ECDF_LEVELS))
            assert line == f"{float(times[i - 1]):.17g},{i / runs:.17g}"
        assert lines[1].startswith(f"{float(times[0]):.17g},")
        assert lines[-2] == f"{float(times[-1]):.17g},1"

    @pytest.mark.parametrize("runs", [1_500, ECDF_LEVELS + 1])
    def test_ecdf_rows_are_the_sorted_times_and_their_ranks(self, tmp_path, runs):
        # up to ECDF_LEVELS + 1 samples, the table is every sample
        cfg = parse_config(exp_config(tmp_path / "out", runs=runs))
        assert cmd_simulate(cfg) == EXIT_OK
        times = run_batch(cfg.model, cfg.simulation).sorted_times
        lines = (tmp_path / "out" / "ecdf.csv").read_bytes().decode().split("\n")
        assert lines[0] == "t,ecdf" and lines[-1] == "" and len(lines) == runs + 2
        for i, (line, t) in enumerate(zip(lines[1:], times)):
            assert line == f"{float(t):.17g},{(i + 1) / runs:.17g}"

    def test_report_counts_retained_samples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "SAMPLE_RESERVOIR", 5_000)
        cfg = parse_config(exp_config(tmp_path / "out"))
        cfg = replace(cfg, simulation=SimulationConfig(runs=20_000, seed=42))
        assert cmd_simulate(cfg) == EXIT_OK
        report = json.loads((tmp_path / "out" / "summary.json").read_text())["report"]
        rows = read_rows(tmp_path / "out" / "ecdf.csv")[1:]
        assert report["samples"] == 5_000
        assert report["runs"] == 20_000
        assert report["ecdf_band"] == math.sqrt(math.log(200) / (2 * 5_000))
        assert len(rows) == ECDF_LEVELS + 1
        assert float(rows[-1][1]) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 1_999, ECDF_LEVELS, ECDF_LEVELS + 1, ECDF_LEVELS + 2,
                                   2 * ECDF_LEVELS + 3, 10**6])
    def test_ecdf_ranks_reach_each_level_once(self, n):
        # row j is the smallest rank i with i / n >= j / ECDF_LEVELS, in exact
        # rational arithmetic; a rank two levels share is written once
        ranks = _ecdf_ranks(n)
        expected = sorted({max(1, math.ceil(Fraction(j * n, ECDF_LEVELS)))
                           for j in range(ECDF_LEVELS + 1)})
        assert ranks.tolist() == expected
        assert ranks[0] == 1 and ranks[-1] == n
        assert all(a < b for a, b in zip(ranks, ranks[1:]))
        assert len(ranks) == min(n, ECDF_LEVELS + 1)

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
        assert payload["checks"]["ks_exact_below_critical"] is False

    def test_normal_ks_shrinks_at_large_hit_count(self, tmp_path):
        ks = {}
        for k, tau in ((1, 1.0), (100, 1.0)):
            cfg = parse_config(exp_config(tmp_path / f"out{k}", runs=30_000, k=k, tau=tau))
            cmd_compare(cfg)
            payload = json.loads((tmp_path / f"out{k}" / "compare.json").read_text())
            ks[k] = payload["ks"]["empirical_vs_normal"]
        assert ks[100] < ks[1]

    def test_ks_critical_value_uses_retained_samples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "SAMPLE_RESERVOIR", 5_000)
        cfg = RunConfig(
            model=ShockModel(3, Exponential(1.0), Constant(LN2)),
            simulation=SimulationConfig(runs=20_000, seed=5),
            output=OutputSpec(directory=str(tmp_path)),
        )
        cmd_compare(cfg)
        ks = json.loads((tmp_path / "compare.json").read_text())["ks"]
        assert ks["samples"] == 5_000
        assert ks["critical_alpha_001"] == 1.63 / math.sqrt(5_000)

    def test_no_settled_node_is_a_numeric_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "invert_grid", lambda model, ts, *args, **kwargs: SimpleNamespace(
            cdf=np.full(len(ts), np.nan)))
        cfg = parse_config(exp_config(tmp_path / "out", runs=2_000))
        with pytest.raises(InversionError, match="settled at none"):
            cmd_compare(cfg)


class TestInvert:
    def test_prints_density(self, tmp_path, capsys):
        cfg = parse_config(exp_config(tmp_path / "out"))
        assert cmd_invert(cfg, 0.3, "density") == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        from deltashock.closedform import exp_const_pdf
        assert printed == pytest.approx(exp_const_pdf(cfg.model, 0.3), abs=1e-8)

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

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"model": "caf\xe9"}')
        for path in (tmp_path, latin1):
            assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and str(path) in err

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys, monkeypatch):
        """The output directory is made first: a bad --out exits 1 before
        any simulation run or inversion."""
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr(cli, "run_batch", refuse)
        monkeypatch.setattr(cli, "invert_grid", refuse)
        path = write_config(tmp_path, exp_config(tmp_path / "out", runs=100))
        taken = tmp_path / "taken"
        taken.write_text("")
        for command in ("analyze", "simulate", "compare"):
            assert main([command, "--config", str(path), "--out", str(taken)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error: output.directory")

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
    def test_signal_due_as_a_command_returns_runs_inside_main(self, tmp_path, monkeypatch):
        """A Python signal handler that falls due while a command's arrays
        are freed at its return runs before main returns."""
        ran = []

        def command(cfg):
            samples = np.ones(5_000_000)  # 40 MB, freed as the command returns
            signal.setitimer(signal.ITIMER_REAL, 2e-5)
            return EXIT_OK

        monkeypatch.setattr(cli, "cmd_analyze", command)
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: ran.append(signum))
        try:
            code = main(["analyze", "--config", str(path)])
            seen = len(ran)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_OK
        assert seen == 1

    @pytest.mark.parametrize("time", ["-1", "0", "nan", "inf"])
    def test_bad_time_flag(self, tmp_path, capsys, time):
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        assert main(["invert", "--config", str(path), "--time", time]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --time")

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

    # the flags after --config of each subcommand, as README's synopsis lists them
    SYNOPSIS = {
        "analyze": {"--out", "--grid"},
        "simulate": {"--out", "--seed", "--runs"},
        "compare": {"--out", "--seed", "--runs"},
        "invert": {"--time", "--what"},
    }
    FLAG_VALUES = {"--out": "dir", "--grid": "1:2:3", "--seed": "9", "--runs": "5",
                   "--time": "2", "--what": "cdf"}

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(SYNOPSIS))
    def test_each_subcommand_takes_only_the_flags_it_reads(self, capsys, command, flag):
        argv = [command, "--config", "config.json", flag, self.FLAG_VALUES[flag]]
        if command == "invert" and flag != "--time":
            argv += ["--time", "2"]
        if flag in self.SYNOPSIS[command]:
            assert cli._build_parser().parse_args(argv).command == command
        else:
            with pytest.raises(SystemExit) as exc:
                cli._build_parser().parse_args(argv)
            assert exc.value.code == EXIT_CONFIG
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "9", "--runs", "5"],
        ["analyze", "--bogus", "1"],
        ["invert", "--time", "2", "--out", "elsewhere", "--grid", "1:2:3"],
        ["invert"],
        ["simulate", "--runs", "many"],
    ], ids=["analyze-seed-runs", "unknown-flag", "invert-out-grid", "invert-no-time",
            "not-an-int"])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        """Usage errors exit with the config code, not argparse's 2, which
        is the numeric-failure code, and run nothing."""
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(path), *argv[1:]])
        assert exc.value.code == EXIT_CONFIG
        assert "deltashock" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["invert", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: deltashock")

    def test_grid_override(self, tmp_path):
        path = write_config(tmp_path, exp_config(tmp_path / "ignored"))
        out = tmp_path / "g"
        assert main(["analyze", "--config", str(path), "--out", str(out),
                     "--grid", "0.5:8.0:10"]) == EXIT_OK
        rows = read_rows(out / "curves.csv")
        assert len(rows) == 11
        assert float(rows[1][0]) == 0.5
        assert float(rows[-1][0]) == 8.0

    def test_t_min_beyond_default_t_max_rejected(self, tmp_path, capsys):
        # exp+constant k = 3: mean + 6 sd is about 33, below t_min
        config = exp_config(tmp_path / "out")
        config["analysis"]["grid"] = {"t_min": 100.0}
        path = write_config(tmp_path, config)
        assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "analysis.grid.t_min 100.0 must be below t_max" in err
        assert "mean + 6 sd = 33.04" in err
        assert not (tmp_path / "out" / "curves.csv").exists()

    @pytest.mark.parametrize("mutate,flags,message", [
        (lambda c: c["model"]["arrivals"].update(rate="fast"), [],
         "model.arrivals.rate: expected a number"),
        (lambda c: c["model"]["threshold"].update(value=True), [],
         "model.threshold.value: expected a number"),
        (lambda c: c["model"].update(threshold=0.5), [], "model.threshold: expected an object"),
        (lambda c: c.update(analysis=[]), [], "analysis: expected an object"),
        (lambda c: [c], [], "top level: expected a JSON object"),
        (lambda c: c["output"].update(directory=5), [], "output.directory must be a string"),
        (None, ["--grid", "1:2"], "--grid: expected MIN:MAX:POINTS, got '1:2'"),
        (None, ["--grid", "a:2:10"], "--grid: could not convert string to float: 'a'"),
    ], ids=["non-number", "bool", "law", "section", "top-level", "directory", "grid-parts",
            "grid-number"])
    def test_refusals_name_their_key_path(self, tmp_path, capsys, mutate, flags, message):
        config = exp_config(tmp_path / "out")
        if mutate is not None:
            config = mutate(config) or config
        path = write_config(tmp_path, config)
        assert main(["analyze", "--config", str(path), *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_bad_grid_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, exp_config(tmp_path / "out"))
        for grid in ("5:1:10", "0:1:10", "1:1:10", "0.5:8:1"):
            assert main(["analyze", "--config", str(path), "--grid", grid]) == EXIT_CONFIG
            assert "analysis.grid" in capsys.readouterr().err
            # the same grid from the config file meets the same rules
            t_min, t_max, points = grid.split(":")
            config = exp_config(tmp_path / "out")
            config["analysis"]["grid"] = {"t_min": float(t_min), "t_max": float(t_max),
                                          "points": int(points)}
            bad = write_config(tmp_path, config, name="bad.json")
            assert main(["analyze", "--config", str(bad)]) == EXIT_CONFIG
            assert "analysis.grid" in capsys.readouterr().err


# A fresh interpreter that imports this deltashock.
# `loaded()` lists the scipy modules and the process-pool module it holds; the
# body binds `result`, which goes to the last stdout line as JSON.
COLD_PRELUDE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] == "scipy" or m == "concurrent.futures.process")
"""
COLD_MAIN = "from deltashock.cli import main\nresult = {'exit': main(sys.argv[1:]), 'loaded': loaded()}"
COLD_MODELS = {
    "exp-constant": {"k": 3, "arrivals": {"type": "exponential", "rate": 1.0},
                     "threshold": {"type": "constant", "value": LN2}},
    "exp-exp": {"k": 3, "arrivals": {"type": "exponential", "rate": 1.0},
                "threshold": {"type": "exponential", "rate": 1.0}},
    "uniform-uniform": {"k": 2, "arrivals": {"type": "uniform", "lower": 0.0, "upper": 2.0},
                        "threshold": {"type": "uniform", "lower": 0.5, "upper": 1.5}},
}


def run_cold(body, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(deltashock.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"{COLD_PRELUDE}\n{body}\nprint(json.dumps(result))",
                           *map(str, args)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cold_config(tmp_path, model, runs=simulate.CHUNK_SIZE + 1, workers=1):
    # two chunks by default, so that `workers` decides whether the pool runs
    return write_config(tmp_path, {
        "model": COLD_MODELS[model],
        "analysis": {"grid": {"points": 10}},
        "simulation": {"runs": runs, "seed": 3, "workers": workers},
        "output": {"directory": str(tmp_path / "out")},
    })


class TestColdImports:
    """No command loads scipy, nor a one-worker batch the process pool."""

    def test_import_package(self):
        assert run_cold("import deltashock\nresult = loaded()") == []

    def test_import_cli_and_load_config(self, tmp_path):
        body = "import deltashock.cli as cli\ncli.load_config(sys.argv[1])\nresult = loaded()"
        assert run_cold(body, cold_config(tmp_path, "exp-exp")) == []

    @pytest.mark.parametrize("model", sorted(COLD_MODELS))
    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["simulate"],
        ["invert", "--time", "2.7", "--what", "density"],
        ["invert", "--time", "2.7", "--what", "cdf"],
    ], ids=["analyze", "simulate", "invert-density", "invert-cdf"])
    def test_command(self, tmp_path, model, command):
        path = cold_config(tmp_path, model)
        assert run_cold(COLD_MAIN, *command, "--config", path) == {"exit": EXIT_OK, "loaded": []}

    @pytest.mark.parametrize("model", sorted(COLD_MODELS))
    def test_compare(self, tmp_path, model):
        path = cold_config(tmp_path, model, runs=20_000)
        assert run_cold(COLD_MAIN, "compare", "--config", path) == {"exit": EXIT_OK, "loaded": []}
        # the cold run wrote the bytes a warm rerun writes
        written = (tmp_path / "out" / "compare.json").read_bytes()
        assert cmd_compare(load_config(path)) == EXIT_OK
        assert (tmp_path / "out" / "compare.json").read_bytes() == written

    def test_config_error(self, tmp_path):
        path = write_config(tmp_path, {"model": {"k": 0}})
        assert run_cold(COLD_MAIN, "analyze", "--config", path) == {"exit": EXIT_CONFIG, "loaded": []}

    def test_one_parser_serves_every_call(self, tmp_path):
        """One process that runs invert --what cdf, analyze and invert with
        the default --what builds its parser once, on the first call, and
        prints and writes what a process per call does."""
        body = ("import contextlib, io\nfrom deltashock import cli\n"
                "built = [cli._build_parser.cache_info().currsize]\nresult = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    out = io.StringIO()\n"
                "    with contextlib.redirect_stdout(out):\n"
                "        result.append([cli.main(argv), out.getvalue()])\n"
                "    built.append(cli._build_parser.cache_info().misses)\n"
                "result = {'calls': result, 'built': built}")
        path = cold_config(tmp_path, "exp-constant")

        def calls(out):
            return [["invert", "--config", str(path), "--time", "2.7", "--what", "cdf"],
                    ["analyze", "--config", str(path), "--out", str(out)],
                    ["invert", "--config", str(path), "--time", "2.7"]]

        together = run_cold(body, json.dumps(calls(tmp_path / "together")))
        assert together["built"] == [0, 1, 1, 1]
        apart = [run_cold(body, json.dumps([argv]))["calls"][0] for argv in calls(tmp_path / "apart")]
        assert together["calls"] == apart
        assert [code for code, _ in apart] == [EXIT_OK] * 3
        assert float(apart[0][1]) != float(apart[2][1])
        for name in ("curves.csv", "summary.json"):
            written = (tmp_path / "apart" / name).read_text()
            together = written.replace(str(tmp_path / "apart"), str(tmp_path / "together"))
            assert (tmp_path / "together" / name).read_text() == together


class TestColdCallSites:
    """The call sites that import scipy or the pool themselves still work from a cold start."""

    def test_exp_const_cdf(self):
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        body = ("import math\nfrom deltashock import Constant, Exponential, ShockModel, exp_const_cdf\n"
                "before = loaded()\n"
                "value = exp_const_cdf(ShockModel(3, Exponential(1.0), Constant(math.log(2.0))), 4.0)\n"
                "result = {'before': before, 'loaded': loaded(), 'value': value}")
        result = run_cold(body)
        assert result["before"] == []
        assert "scipy.special" in result["loaded"]
        assert result["value"] == exp_const_cdf(model, 4.0)

    def test_two_workers_load_the_pool(self, tmp_path):
        path = cold_config(tmp_path, "exp-constant", workers=2)
        result = run_cold(COLD_MAIN, "simulate", "--config", path)
        assert result == {"exit": EXIT_OK, "loaded": ["concurrent.futures.process"]}
