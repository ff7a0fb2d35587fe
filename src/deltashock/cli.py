"""Command-line front end: analyze, simulate, compare, invert.

A single JSON config file describes the model, the analysis grid, the
simulation batch and the output location; flags can override the seed, run
count, grid and output directory.  Commands write plot-ready CSV curves and
a JSON summary; everything is deterministic given the effective config, so
outputs are byte-stable across invocations and worker counts.

Exit codes: 0 success, 1 config/validation error, 2 numeric failure,
3 comparison FAIL.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .closedform import (
    ExpConstParams,
    UnifConstParams,
    exp_const_moments,
    exp_const_pdf,
    unif_const_mean,
    unif_const_variance_comparison,
)
from .distributions import Constant, Exponential, QuadratureError, Uniform
from .gaussian import NormalApprox
from .laplace import (
    InversionConfig,
    InversionError,
    invert_cdf,
    invert_density,
    invert_grid,
    moments_from_transform,
)
from .model import ShockModel, UnrealizableModelError
from .simulate import KS_CRITICAL_001, SimulationConfig, ks_statistic, run_batch

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
    "serialize_config",
    "cmd_analyze",
    "cmd_simulate",
    "cmd_compare",
    "cmd_invert",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_COMPARE = 3

PUBLISHED_VARIANCE_NOTE = (
    "the published closed-form variance for uniform gaps with a constant "
    "threshold disagrees with the general segment-moment formula and with "
    "simulation; the general value is authoritative"
)


class ConfigError(ValueError):
    """Config file is malformed; message carries the offending key path."""


@dataclass(frozen=True)
class GridSpec:
    t_min: float | None = None
    t_max: float | None = None
    points: int = 200


@dataclass(frozen=True)
class AnalysisSpec:
    grid: GridSpec = GridSpec()
    inversion: InversionConfig = InversionConfig()


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    model: ShockModel
    analysis: AnalysisSpec = AnalysisSpec()
    simulation: SimulationConfig = SimulationConfig(runs=100_000, seed=0)
    output: OutputSpec = OutputSpec()


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required key")
    return section[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _section(config: dict, key: str) -> dict:
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    return value


def _law_from_spec(spec: dict, path: str, kinds: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _require(spec, "type", path)
    if kind not in kinds:
        raise ConfigError(f"{path}.type: unknown law {kind!r}; expected one of {sorted(kinds)}")
    try:
        return kinds[kind](spec, path)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


_ARRIVAL_KINDS = {
    "exponential": lambda spec, path: Exponential(rate=_number(_require(spec, "rate", path), f"{path}.rate")),
    "uniform": lambda spec, path: Uniform(
        lower=_number(_require(spec, "lower", path), f"{path}.lower"),
        upper=_number(_require(spec, "upper", path), f"{path}.upper"),
    ),
}
_THRESHOLD_KINDS = dict(
    _ARRIVAL_KINDS,
    constant=lambda spec, path: Constant(tau=_number(_require(spec, "value", path), f"{path}.value")),
)


def _law_to_spec(law) -> dict:
    if isinstance(law, Exponential):
        return {"type": "exponential", "rate": law.rate}
    if isinstance(law, Uniform):
        return {"type": "uniform", "lower": law.lower, "upper": law.upper}
    if isinstance(law, Constant):
        return {"type": "constant", "value": law.tau}
    raise TypeError(f"cannot serialize law {law!r}")


def parse_config(config: dict) -> RunConfig:
    """Validate a config dict into a RunConfig; dotted paths in errors."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")

    model_sec = config.get("model")
    if not isinstance(model_sec, dict):
        raise ConfigError("model: missing or not an object")
    k = _integer(_require(model_sec, "k", "model"), "model.k")
    arrivals = _law_from_spec(_require(model_sec, "arrivals", "model"), "model.arrivals", _ARRIVAL_KINDS)
    threshold = _law_from_spec(_require(model_sec, "threshold", "model"), "model.threshold", _THRESHOLD_KINDS)
    try:
        model = ShockModel(k=k, arrivals=arrivals, threshold=threshold)
    except UnrealizableModelError as exc:
        raise ConfigError(f"model: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"model.k: {exc}") from exc

    analysis_sec = _section(config, "analysis")
    grid_sec = _section(analysis_sec, "grid")
    points = _integer(grid_sec.get("points", 200), "analysis.grid.points")
    if points < 2:
        raise ConfigError(f"analysis.grid.points: must be >= 2, got {points}")
    t_min = grid_sec.get("t_min")
    t_max = grid_sec.get("t_max")
    if t_min is not None:
        t_min = _number(t_min, "analysis.grid.t_min")
        if t_min <= 0:
            raise ConfigError(f"analysis.grid.t_min: must be > 0, got {t_min}")
    if t_max is not None:
        t_max = _number(t_max, "analysis.grid.t_max")
    if t_min is not None and t_max is not None and not t_min < t_max:
        raise ConfigError(f"analysis.grid: t_min {t_min} must be below t_max {t_max}")
    inv_sec = _section(analysis_sec, "inversion")
    try:
        inversion = InversionConfig(
            target_error=_number(inv_sec.get("target_error", 1e-8), "analysis.inversion.target_error"),
            euler_depth=_integer(inv_sec.get("euler_depth", 12), "analysis.inversion.euler_depth"),
            discretization=(
                None
                if inv_sec.get("discretization") is None
                else _number(inv_sec["discretization"], "analysis.inversion.discretization")
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"analysis.inversion: {exc}") from exc

    sim_sec = _section(config, "simulation")
    try:
        simulation = SimulationConfig(
            runs=_integer(sim_sec.get("runs", 100_000), "simulation.runs"),
            seed=_integer(sim_sec.get("seed", 0), "simulation.seed"),
            workers=_integer(sim_sec.get("workers", 1), "simulation.workers"),
        )
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from exc

    out_sec = _section(config, "output")
    directory = out_sec.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError(f"output.directory: expected a string, got {directory!r}")
    formats = out_sec.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not all(f in ("csv", "json") for f in formats):
        raise ConfigError(f"output.formats: expected a list drawn from ['csv', 'json'], got {formats!r}")

    return RunConfig(
        model=model,
        analysis=AnalysisSpec(grid=GridSpec(t_min=t_min, t_max=t_max, points=points), inversion=inversion),
        simulation=simulation,
        output=OutputSpec(directory=directory, formats=tuple(formats)),
    )


def serialize_config(cfg: RunConfig) -> dict:
    """Inverse of parse_config: parse(serialize(parse(x))) == parse(x)."""
    return {
        "model": {
            "k": cfg.model.k,
            "arrivals": _law_to_spec(cfg.model.arrivals),
            "threshold": _law_to_spec(cfg.model.threshold),
        },
        "analysis": {
            "grid": {
                "t_min": cfg.analysis.grid.t_min,
                "t_max": cfg.analysis.grid.t_max,
                "points": cfg.analysis.grid.points,
            },
            "inversion": {
                "target_error": cfg.analysis.inversion.target_error,
                "euler_depth": cfg.analysis.inversion.euler_depth,
                "discretization": cfg.analysis.inversion.discretization,
            },
        },
        "simulation": {
            "runs": cfg.simulation.runs,
            "seed": cfg.simulation.seed,
            "workers": cfg.simulation.workers,
        },
        "output": {
            "directory": cfg.output.directory,
            "formats": list(cfg.output.formats),
        },
    }


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _moments_dict(moments) -> dict:
    return {
        "mean": moments.mean,
        "variance": moments.variance,
        "segment_mean": moments.segment_mean,
        "segment_variance": moments.segment_variance,
    }


def _closed_form_block(model: ShockModel):
    """Closed-form moments when the model is one of the tractable families."""
    if isinstance(model.threshold, Constant):
        if isinstance(model.arrivals, Exponential):
            params = ExpConstParams(model.arrivals.rate, model.threshold.tau, model.k)
            return "exponential_constant", params, _moments_dict(exp_const_moments(params))
        if isinstance(model.arrivals, Uniform):
            a, b = model.arrivals.lower, model.arrivals.upper
            if a < model.threshold.tau < b:
                params = UnifConstParams(a, b, model.threshold.tau, model.k)
                comparison = unif_const_variance_comparison(params)
                block = {
                    "mean": unif_const_mean(params),
                    "variance": comparison.general,
                    "variance_published": comparison.published,
                    "variance_absolute_difference": comparison.absolute_difference,
                    "variance_note": PUBLISHED_VARIANCE_NOTE,
                }
                return "uniform_constant", params, block
    return None, None, None


def _resolve_grid(cfg: RunConfig, moments) -> np.ndarray:
    grid = cfg.analysis.grid
    sd = math.sqrt(moments.variance)
    t_max = grid.t_max if grid.t_max is not None else moments.mean + 6.0 * sd
    t_min = grid.t_min if grid.t_min is not None else t_max / grid.points
    return np.linspace(t_min, t_max, grid.points)


def _out_dir(cfg: RunConfig) -> Path:
    directory = Path(cfg.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig) -> int:
    """Analytic pipeline: moments by every available method plus curve files."""
    model = cfg.model
    general = model.failure_moments()
    transform = moments_from_transform(model)
    family, params, closed_block = _closed_form_block(model)
    approx = NormalApprox.from_moments(general)

    grid = _resolve_grid(cfg, general)
    inverted = invert_grid(model, grid, cfg.analysis.inversion)
    rows = []
    failures = []
    for t, pdf_inv, cdf_inv, error in zip(grid.tolist(), inverted.pdf.tolist(),
                                          inverted.cdf.tolist(), inverted.errors):
        pdf_closed = exp_const_pdf(params, t) if family == "exponential_constant" else None
        if error is not None:
            pdf_inv = cdf_inv = None
            failures.append({"t": t, "error_estimate": error.error_estimate})
        rows.append((t, pdf_closed, pdf_inv, float(approx.pdf(t)), cdf_inv))

    means = [general.mean, transform.mean]
    variances = [general.variance, transform.variance]
    if closed_block is not None:
        means.append(closed_block["mean"])
        variances.append(closed_block["variance"])
    summary = {
        "command": "analyze",
        "config": serialize_config(cfg),
        "lethal_prob": model.lethal_prob,
        "moments": {
            "general": _moments_dict(general),
            "transform": _moments_dict(transform),
            "closed_form": closed_block,
            "closed_form_family": family,
        },
        "method_agreement": {
            "mean_relative_spread": (max(means) - min(means)) / abs(general.mean),
            "variance_relative_spread": (max(variances) - min(variances)) / abs(general.variance),
        },
        "normal_approximation": {"center": approx.center, "scale": approx.scale},
        "grid": {"t_min": float(grid[0]), "t_max": float(grid[-1]), "points": len(grid)},
        "inversion_failures": failures,
    }

    out = _out_dir(cfg)
    if "csv" in cfg.output.formats:
        _write_csv(
            out / "curves.csv",
            ["t", "pdf_closed_form", "pdf_inverted", "pdf_normal_approx", "cdf_inverted"],
            rows,
        )
    if "json" in cfg.output.formats:
        _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    """Monte Carlo pipeline: batch report plus empirical-cdf CSV."""
    model = cfg.model
    report = run_batch(model, cfg.simulation)
    analytic = model.failure_moments()

    mean_delta_se = None
    if report.se_mean:
        mean_delta_se = (report.mean - analytic.mean) / report.se_mean
    checks = {
        "mean_within_3se": None if mean_delta_se is None else bool(abs(mean_delta_se) <= 3.0),
    }
    failed = [name for name, ok in checks.items() if ok is False]

    summary = {
        "command": "simulate",
        "config": serialize_config(cfg),
        "report": {
            "runs": report.runs,
            "samples": len(report.sorted_times),
            "seed": report.seed,
            "mean": report.mean,
            "variance": report.variance,
            "se_mean": report.se_mean,
            "se_variance": report.se_variance,
            "mean_shock_count": report.mean_shock_count,
            "min_time": report.min_time,
            "max_time": report.max_time,
        },
        "analytic": {"mean": analytic.mean, "variance": analytic.variance},
        "checks": checks,
        "mean_delta_se": mean_delta_se,
        "verdict": "FAIL" if failed else "PASS",
    }

    out = _out_dir(cfg)
    if "csv" in cfg.output.formats:
        n = len(report.sorted_times)
        _write_csv(
            out / "ecdf.csv",
            ["t", "ecdf"],
            ((float(t), (i + 1) / n) for i, t in enumerate(report.sorted_times)),
        )
    if "json" in cfg.output.formats:
        _write_json(out / "summary.json", summary)
    return EXIT_OK


def _inverted_cdf_interpolant(model, inv_cfg, t_hi):
    """Monotone interpolant of the inverted cdf, cheap to evaluate on samples.

    At k = 1 the cdf has a genuine corner wherever the single-gap lethal
    branch density jumps, which a shape-preserving fit cannot carry with one
    derivative per node; for constant thresholds that head term is exactly
    F(min(t, tau)), so it is split off and only the smooth remainder is
    interpolated.  Grid nodes where the inversion will not settle (kink
    neighbourhoods) are skipped and bridged by the interpolant.
    """
    cfg = InversionConfig(
        target_error=max(inv_cfg.target_error, 1e-6),
        euler_depth=inv_cfg.euler_depth,
        discretization=inv_cfg.discretization,
    )
    head = None
    if model.k == 1 and isinstance(model.threshold, Constant):
        tau = model.threshold.tau
        head = lambda t: np.asarray(model.arrivals.cdf(np.minimum(t, tau)), dtype=float)

    corners = {p for p in (*model.arrivals.breakpoints(), *model.threshold.breakpoints())
               if 0.0 < p < t_hi}
    grid = np.array(sorted(set(np.linspace(t_hi / 512.0, t_hi, 512)) | corners))
    inverted = invert_grid(model, grid, cfg, pdf=False)
    settled = ~np.isnan(inverted.cdf)
    nodes = np.concatenate(([0.0], grid[settled]))
    values = np.concatenate(([0.0], inverted.cdf[settled]))
    if head is not None:
        values[1:] -= head(nodes[1:])
    interp = PchipInterpolator(nodes, np.maximum.accumulate(values))

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, t_hi)
        smooth = interp(t)
        if head is not None:
            smooth = smooth + head(t)
        return np.clip(smooth, 0.0, 1.0)

    return cdf


def cmd_compare(cfg: RunConfig, analytic_model: ShockModel | None = None) -> int:
    """Analytic vs empirical vs Gaussian; nonzero exit when a verdict fails.

    analytic_model overrides the config's model on the analytic side only
    (a negative-control hook; the CLI always compares a model with itself).
    """
    sim_model = cfg.model
    analytic = analytic_model if analytic_model is not None else sim_model
    report = run_batch(sim_model, cfg.simulation)

    general = analytic.failure_moments()
    transform = moments_from_transform(analytic)
    family, params, closed_block = _closed_form_block(analytic)
    approx = NormalApprox.from_moments(general)
    inv_cfg = cfg.analysis.inversion

    t_hi = max(report.max_time, general.mean + 8.0 * math.sqrt(general.variance))
    inverted_cdf = _inverted_cdf_interpolant(analytic, inv_cfg, t_hi)
    ks_exact = ks_statistic(report, inverted_cdf)
    ks_normal = ks_statistic(report, approx.cdf)
    # the KS statistic sees only the retained samples, not every run
    samples = len(report.sorted_times)
    critical = KS_CRITICAL_001 / math.sqrt(samples)

    mean_delta_se = (report.mean - general.mean) / report.se_mean if report.se_mean else None
    var_delta_se = None
    if report.se_variance:
        var_delta_se = (report.variance - general.variance) / report.se_variance

    checks = {
        "mean_within_3se": None if mean_delta_se is None else bool(abs(mean_delta_se) <= 3.0),
        "variance_within_3se": None if var_delta_se is None else bool(abs(var_delta_se) <= 3.0),
        "ks_exact_below_critical": bool(ks_exact < critical),
    }
    failed = [name for name, ok in checks.items() if ok is False]

    published_check = None
    if family == "uniform_constant" and var_delta_se is not None:
        published = closed_block["variance_published"]
        delta = (report.variance - published) / report.se_variance
        published_check = {
            "published_variance": published,
            "general_variance": closed_block["variance"],
            "simulation_variance": report.variance,
            "published_delta_se": delta,
            "published_within_3se": bool(abs(delta) <= 3.0),
            "general_within_3se": checks["variance_within_3se"],
            "note": PUBLISHED_VARIANCE_NOTE,
        }

    payload = {
        "command": "compare",
        "config": serialize_config(cfg),
        "moments": {
            "general": _moments_dict(general),
            "transform": _moments_dict(transform),
            "closed_form": closed_block,
            "closed_form_family": family,
            "simulation": {
                "mean": report.mean,
                "variance": report.variance,
                "se_mean": report.se_mean,
                "se_variance": report.se_variance,
            },
        },
        "deltas_se": {"mean": mean_delta_se, "variance": var_delta_se},
        "ks": {
            "empirical_vs_inverted": ks_exact,
            "empirical_vs_normal": ks_normal,
            "critical_alpha_001": critical,
            "samples": samples,
        },
        "published_variance_check": published_check,
        "checks": checks,
        "verdict": "FAIL" if failed else "PASS",
    }

    out = _out_dir(cfg)
    if "json" in cfg.output.formats:
        _write_json(out / "compare.json", payload)
    return EXIT_COMPARE if failed else EXIT_OK


def cmd_invert(cfg: RunConfig, time: float, what: str = "density") -> int:
    """Single-point inversion, for debugging transform behaviour."""
    if what == "density":
        value = invert_density(cfg.model, time, cfg.analysis.inversion)
    elif what == "cdf":
        value = invert_cdf(cfg.model, time, cfg.analysis.inversion)
    else:
        raise ConfigError(f"--what: expected 'density' or 'cdf', got {what!r}")
    print(_fmt(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_grid_flag(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid: expected MIN:MAX:POINTS, got {text!r}")
    try:
        t_min, t_max, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc
    if not (0 < t_min < t_max) or points < 2:
        raise ConfigError(f"--grid: need 0 < MIN < MAX and POINTS >= 2, got {text!r}")
    return GridSpec(t_min=t_min, t_max=t_max, points=points)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None or args.runs is not None:
        simulation = cfg.simulation
        try:
            simulation = replace(
                simulation,
                runs=args.runs if args.runs is not None else simulation.runs,
                seed=args.seed if args.seed is not None else simulation.seed,
            )
        except ValueError as exc:
            raise ConfigError(f"flags: {exc}") from exc
        cfg = replace(cfg, simulation=simulation)
    if args.grid is not None:
        cfg = replace(cfg, analysis=replace(cfg.analysis, grid=_parse_grid_flag(args.grid)))
    if args.out is not None:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltashock",
        description="Failure-time analysis and simulation for multi-hit shock models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "analytic moments, density/cdf curves and normal approximation"),
        ("simulate", "Monte Carlo batch with report and empirical cdf"),
        ("compare", "analytic vs simulated vs Gaussian, with PASS/FAIL verdicts"),
        ("invert", "single-point numerical inversion (debugging)"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        cmd.add_argument("--out", help="output directory (overrides output.directory)")
        cmd.add_argument("--seed", type=int, help="simulation seed override")
        cmd.add_argument("--runs", type=int, help="simulation run-count override")
        cmd.add_argument("--grid", help="analysis grid override, MIN:MAX:POINTS")
        if name == "invert":
            cmd.add_argument("--time", type=float, required=True, help="time at which to invert")
            cmd.add_argument("--what", choices=["density", "cdf"], default="density")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_invert(cfg, args.time, args.what)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InversionError, QuadratureError, UnrealizableModelError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
