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
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .closedform import (
    closed_form_family,
    exp_const_moments,
    exp_const_pdf,
    unif_const_mean,
    unif_const_variance_published,
)
from .distributions import (
    ArrivalLaw,
    Constant,
    Exponential,
    Uniform,
    weighted_time_integral,
)
from .gaussian import NormalApprox
from .laplace import (
    InversionConfig,
    InversionError,
    invert_cdf,
    invert_density,
    invert_grid,
    moments_from_transform,
)
from .model import MomentSummary, ShockModel, UnrealizableModelError, is_integer
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

    def __post_init__(self):
        if not (is_integer(self.points) and self.points >= 2):
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        for name in ("t_min", "t_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.t_min is not None and self.t_max is not None and not self.t_min < self.t_max:
            raise ValueError(f"t_min {self.t_min} must be below t_max {self.t_max}")


@dataclass(frozen=True)
class AnalysisSpec:
    grid: GridSpec = GridSpec()
    inversion: InversionConfig = InversionConfig()


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"

    def __post_init__(self):
        if not isinstance(self.directory, str):
            raise ValueError(f"directory must be a string, got {self.directory!r}")


@dataclass(frozen=True)
class RunConfig:
    model: ShockModel
    analysis: AnalysisSpec = AnalysisSpec()
    simulation: SimulationConfig = SimulationConfig(runs=100_000, seed=0)
    output: OutputSpec = OutputSpec()


def _checked(path: str, build, *args, **fields):
    """build(*args, **fields), its ValueError as a ConfigError under path.

    Every spec names the offending field first in its messages, so the
    message continues the key path of its section.
    """
    try:
        return build(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required key")
    return section[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _number_or_none(value, path: str) -> float | None:
    return None if value is None else _number(value, path)


def _integer(value, path: str) -> int:
    if not is_integer(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _known(section: dict, path: str, keys) -> dict:
    """section, once each of its keys is one of keys; path ends in "." or is ""."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{path}{key}: unknown key")
    return section


def _section(config: dict, path: str, key: str, keys) -> dict:
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}{key}: expected an object, got {value!r}")
    return _known(value, f"{path}{key}.", keys)


def _given(config: dict, path: str, key: str, checks: dict) -> dict:
    """The keys that section config[key] gives, each through its JSON type check.

    checks maps every known key to check(value, key_path); a key the file
    omits takes its default from the spec the section builds.
    """
    section = _section(config, path, key, checks)
    return {name: check(section[name], f"{path}{key}.{name}")
            for name, check in checks.items() if name in section}


# Each law type of the config: its class and its {JSON key: attribute}.
_LAWS = {
    "exponential": (Exponential, {"rate": "rate"}),
    "uniform": (Uniform, {"lower": "lower", "upper": "upper"}),
    "constant": (Constant, {"value": "tau"}),
}


def _law_from_spec(spec, path: str, *, arrival: bool):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kinds = sorted(kind for kind, (cls, _) in _LAWS.items()
                   if not arrival or issubclass(cls, ArrivalLaw))
    kind = _require(spec, "type", path)
    if kind not in kinds:
        raise ConfigError(f"{path}.type: unknown law {kind!r}; expected one of {kinds}")
    cls, fields = _LAWS[kind]
    _known(spec, f"{path}.", ("type", *fields))
    values = {attr: _number(_require(spec, key, path), f"{path}.{key}")
              for key, attr in fields.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        # the law's message starts with its attribute, which the config may call otherwise
        attr, _, rest = str(exc).partition(" ")
        key = next((key for key, name in fields.items() if name == attr), attr)
        raise ConfigError(f"{path}.{key} {rest}") from exc


def _law_to_spec(law) -> dict:
    for kind, (cls, fields) in _LAWS.items():
        if isinstance(law, cls):
            return {"type": kind, **{key: getattr(law, attr) for key, attr in fields.items()}}
    raise TypeError(f"cannot serialize law {law!r}")


def parse_config(config: dict) -> RunConfig:
    """Validate a config dict into a RunConfig; dotted paths in errors.

    Only the JSON types are checked here; each spec checks its own values.
    """
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    _known(config, "", ("model", "analysis", "simulation", "output"))

    if "model" not in config:
        raise ConfigError("model: missing required key")
    model_sec = _section(config, "", "model", ("k", "arrivals", "threshold"))
    model = _checked(
        "model", ShockModel,
        k=_integer(_require(model_sec, "k", "model"), "model.k"),
        arrivals=_law_from_spec(_require(model_sec, "arrivals", "model"), "model.arrivals",
                                arrival=True),
        threshold=_law_from_spec(_require(model_sec, "threshold", "model"), "model.threshold",
                                 arrival=False),
    )

    analysis_sec = _section(config, "", "analysis", ("grid", "inversion"))
    grid = _checked("analysis.grid", GridSpec, **_given(
        analysis_sec, "analysis.", "grid",
        {"t_min": _number_or_none, "t_max": _number_or_none, "points": _integer}))
    inversion = _checked("analysis.inversion", InversionConfig, **_given(
        analysis_sec, "analysis.", "inversion",
        {"target_error": _number}))
    simulation = _checked("simulation", replace, RunConfig.simulation, **_given(
        config, "", "simulation", {"runs": _integer, "seed": _integer, "workers": _integer}))
    # OutputSpec checks the directory's type itself
    output = _checked("output", OutputSpec, **_given(
        config, "", "output", {"directory": lambda value, path: value}))

    return RunConfig(
        model=model,
        analysis=AnalysisSpec(grid=grid, inversion=inversion),
        simulation=simulation,
        output=output,
    )


def serialize_config(cfg: RunConfig) -> dict:
    """Inverse of parse_config: parse(serialize(parse(x))) == parse(x).

    The fields of every spec outside the model are its config keys.
    """
    return {
        "model": {
            "k": cfg.model.k,
            "arrivals": _law_to_spec(cfg.model.arrivals),
            "threshold": _law_to_spec(cfg.model.threshold),
        },
        "analysis": asdict(cfg.analysis),
        "simulation": asdict(cfg.simulation),
        "output": asdict(cfg.output),
    }


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# output helpers


# ecdf.csv holds the order statistics at the levels j / ECDF_LEVELS.
ECDF_LEVELS = 2000
# Level of the ecdf band, the DKW bound in Massart's tight form (Ann. Probab.
# 18(3), 1990): P(sup |F_n - F| > sqrt(ln(2 / alpha) / (2 n))) <= alpha.  It is
# the level of compare's KS test.
ECDF_BAND_ALPHA = 0.01


def _fmt(value) -> str:
    """The text of one CSV cell: empty for None, else 17 significant digits."""
    return "" if value is None else f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and one line per row of cells, each as _fmt renders it."""
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    path.write_bytes(("\n".join(lines) + "\n").encode())


def _ecdf_ranks(n: int) -> np.ndarray:
    """The distinct ranks max(1, ceil(j n / ECDF_LEVELS)), j = 0..ECDF_LEVELS,
    ascending: the smallest rank whose ecdf i / n reaches each level.  Every
    rank 1..n when n <= ECDF_LEVELS + 1."""
    return np.unique(np.maximum(1, -(-np.arange(ECDF_LEVELS + 1) * n // ECDF_LEVELS)))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _closed_form_block(model: ShockModel, general: MomentSummary):
    """The model's closed-form family and its moments block, or (None, None).

    The uniform case reports general.variance, the authoritative value, next
    to the published one.
    """
    family = closed_form_family(model)
    if family == "exponential_constant":
        return family, asdict(exp_const_moments(model))
    if family == "uniform_constant":
        published = unif_const_variance_published(model)
        return family, {
            "mean": unif_const_mean(model),
            "variance": general.variance,
            "variance_published": published,
            "variance_absolute_difference": abs(general.variance - published),
            "variance_note": PUBLISHED_VARIANCE_NOTE,
        }
    return None, None


def _analytic(model: ShockModel):
    """The analytic side of analyze and compare: the general moments, the
    closed-form family and block, the normal approximation, and the
    summary's "moments" block, which holds every moment route."""
    general = model.failure_moments()
    transform = moments_from_transform(model)
    family, closed = _closed_form_block(model, general)
    moments = {
        "general": asdict(general),
        "transform": asdict(transform),
        "closed_form": closed,
        "closed_form_family": family,
    }
    return general, family, NormalApprox.from_moments(general), moments


def _delta_se(observed: float, expected: float, se: float):
    """(observed - expected) / se and whether it lies within 3, or (None, None)
    when se is 0 or None."""
    if not se:
        return None, None
    delta = (observed - expected) / se
    return delta, bool(abs(delta) <= 3.0)


def _normal_error(approx: NormalApprox, grid, normal_pdf, inverted) -> dict:
    """The normal approximation's largest pdf gap (sup_norm) and cdf gap
    (ks_distance) from the inverted curves over the cells where both settled,
    and the count of those cells: curves.csv's filled rows.  Null gaps if none."""
    settled = np.array([error is None for error in inverted.errors])
    if not settled.any():
        return {"sup_norm": None, "ks_distance": None, "points": 0}
    return {
        "sup_norm": float(np.max(np.abs(normal_pdf[settled] - inverted.pdf[settled]))),
        "ks_distance": float(np.max(np.abs(approx.cdf(grid[settled]) - inverted.cdf[settled]))),
        "points": int(settled.sum()),
    }


def _resolve_grid(cfg: RunConfig, moments) -> np.ndarray:
    grid = cfg.analysis.grid
    sd = math.sqrt(moments.variance)
    t_max = grid.t_max if grid.t_max is not None else moments.mean + 6.0 * sd
    t_min = grid.t_min if grid.t_min is not None else t_max / grid.points
    if not t_min < t_max:
        raise ConfigError(f"analysis.grid.t_min {t_min} must be below t_max, which defaults "
                          f"to mean + 6 sd = {t_max:.17g}; set analysis.grid.t_max")
    return np.linspace(t_min, t_max, grid.points)


def _out_dir(cfg: RunConfig) -> Path:
    directory = Path(cfg.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {str(directory)!r}: {exc}") from exc
    return directory


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig) -> int:
    """Analytic pipeline: moments by every available method plus curve files."""
    out = _out_dir(cfg)
    model = cfg.model
    general, family, approx, moments = _analytic(model)

    grid = _resolve_grid(cfg, general)
    inverted = invert_grid(model, grid, cfg.analysis.inversion)
    closed_pdfs = [None] * len(grid)
    if family == "exponential_constant":
        # a value the series refuses (nan) is an empty cell
        closed_pdfs = [None if math.isnan(v) else v for v in exp_const_pdf(model, grid).tolist()]
    normal_pdf = approx.pdf(grid)
    rows, failures = [], []
    for t, closed_pdf, pdf, normal, cdf, error in zip(
            grid.tolist(), closed_pdfs, inverted.pdf.tolist(), normal_pdf.tolist(),
            inverted.cdf.tolist(), inverted.errors):
        if error is not None:
            pdf = cdf = None
            failures.append({"t": t, "error_estimate": error.error_estimate})
        rows.append((t, closed_pdf, pdf, normal, cdf))

    routes = [moments[key] for key in ("general", "transform", "closed_form") if moments[key]]
    means = [route["mean"] for route in routes]
    variances = [route["variance"] for route in routes]
    summary = {
        "command": "analyze",
        "config": serialize_config(cfg),
        "lethal_prob": model.lethal_prob,
        "moments": moments,
        "method_agreement": {
            "mean_relative_spread": (max(means) - min(means)) / abs(general.mean),
            "variance_relative_spread": (max(variances) - min(variances)) / abs(general.variance),
        },
        "normal_approximation": {"center": approx.center, "scale": approx.scale},
        "approximation_error": {"normal": _normal_error(approx, grid, normal_pdf, inverted)},
        "grid": {"t_min": float(grid[0]), "t_max": float(grid[-1]), "points": len(grid)},
        "inversion_failures": failures,
    }

    _write_csv(
        out / "curves.csv",
        ["t", "pdf_closed_form", "pdf_inverted", "pdf_normal_approx", "cdf_inverted"],
        rows,
    )
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    """Monte Carlo pipeline: batch report plus the empirical cdf's quantile table."""
    out = _out_dir(cfg)
    model = cfg.model
    report = run_batch(model, cfg.simulation)
    analytic = model.failure_moments()
    n = len(report.sorted_times)

    mean_delta_se, mean_ok = _delta_se(report.mean, analytic.mean, report.se_mean)
    checks = {"mean_within_3se": mean_ok}
    failed = [name for name, ok in checks.items() if ok is False]

    summary = {
        "command": "simulate",
        "config": serialize_config(cfg),
        "report": {
            "runs": report.runs,
            "samples": n,
            "ecdf_band": math.sqrt(math.log(2.0 / ECDF_BAND_ALPHA) / (2 * n)),
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

    ranks = _ecdf_ranks(n)
    # the two columns interleaved, each cell as _fmt writes it, in one pass
    cells = np.column_stack((report.sorted_times[ranks - 1], ranks / n)).ravel().tolist()
    text = "t,ecdf\n" + "%.17g,%.17g\n" * len(ranks) % tuple(cells)
    (out / "ecdf.csv").write_bytes(text.encode())
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _pchip(x, y):
    """Fritsch & Carlson's monotone cubic through strictly increasing nodes x,
    as a function of an array t; past either end it extends the end piece.

    A port of scipy 1.17's PchipInterpolator that gives the same floats: its
    node slopes (weighted harmonic means, Moler's one-sided ends, secants
    for two nodes), CubicHermiteSpline's power-basis coefficients and
    PPoly's interval search and summation order.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(m) == 1:
        d = np.concatenate((m, m))
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(smooth, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        d = np.concatenate(([_pchip_end(h[0], h[1], m[0], m[1])], inner,
                            [_pchip_end(h[-1], h[-2], m[-1], m[-2])]))
    curl = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = curl / h, (m - d[:-1]) / h - curl, d[:-1], y[:-1]

    def interp(t):
        i = np.clip(np.searchsorted(x, t, "right") - 1, 0, len(h) - 1)
        s = t - x[i]
        return c0[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * ((s * s) * s)

    return interp


def _pchip_end(h0, h1, m0, m1):
    """The one-sided three-point end slope, kept from overshooting."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _inverted_cdf_interpolant(model, inv_cfg, t_hi):
    """Monotone interpolant of the inverted cdf, cheap to evaluate on samples.

    At k = 1 the cdf has a genuine corner wherever the single-gap lethal
    branch density jumps, which a shape-preserving fit cannot carry with one
    derivative per node; that head term, the time integral of the lethal
    branch, is split off and only the smooth remainder is interpolated.
    Grid nodes where the inversion will not settle (kink neighbourhoods)
    are skipped and bridged by the interpolant.
    """
    cfg = replace(inv_cfg, target_error=max(inv_cfg.target_error, 1e-6))

    def head(t):
        """The cdf's lethal-branch term at k = 1, where it has the corners."""
        if model.k > 1:
            return 0.0
        return weighted_time_integral(model.arrivals, model.threshold, t, "survival")

    corners = {p for p in (*model.arrivals.breakpoints(), *model.threshold.breakpoints())
               if 0.0 < p < t_hi}
    grid = np.array(sorted(set(np.linspace(t_hi / 512.0, t_hi, 512)) | corners))
    inverted = invert_grid(model, grid, cfg, pdf=False)
    settled = ~np.isnan(inverted.cdf)
    nodes = np.concatenate(([0.0], grid[settled]))
    values = np.concatenate(([0.0], inverted.cdf[settled])) - head(nodes)
    interp = _pchip(nodes, np.maximum.accumulate(values))

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, t_hi)
        return np.clip(interp(t) + head(t), 0.0, 1.0)

    return cdf


def cmd_compare(cfg: RunConfig, analytic_model: ShockModel | None = None) -> int:
    """Analytic vs empirical vs Gaussian; nonzero exit when a verdict fails.

    analytic_model overrides the config's model on the analytic side only
    (a negative-control hook; the CLI always compares a model with itself).
    """
    out = _out_dir(cfg)
    sim_model = cfg.model
    analytic = analytic_model if analytic_model is not None else sim_model
    report = run_batch(sim_model, cfg.simulation)
    general, family, approx, moments = _analytic(analytic)
    inv_cfg = cfg.analysis.inversion

    t_hi = max(report.max_time, general.mean + 8.0 * math.sqrt(general.variance))
    inverted_cdf = _inverted_cdf_interpolant(analytic, inv_cfg, t_hi)
    ks_exact = ks_statistic(report, inverted_cdf)
    ks_normal = ks_statistic(report, approx.cdf)
    # the KS statistic sees only the retained samples, not every run
    samples = len(report.sorted_times)
    critical = KS_CRITICAL_001 / math.sqrt(samples)

    mean_delta_se, mean_ok = _delta_se(report.mean, general.mean, report.se_mean)
    var_delta_se, var_ok = _delta_se(report.variance, general.variance, report.se_variance)
    checks = {
        "mean_within_3se": mean_ok,
        "variance_within_3se": var_ok,
        "ks_exact_below_critical": bool(ks_exact < critical),
    }
    failed = [name for name, ok in checks.items() if ok is False]

    published_check = None
    if family == "uniform_constant" and var_delta_se is not None:
        closed = moments["closed_form"]
        delta, published_ok = _delta_se(report.variance, closed["variance_published"],
                                        report.se_variance)
        published_check = {
            "published_variance": closed["variance_published"],
            "general_variance": closed["variance"],
            "simulation_variance": report.variance,
            "published_delta_se": delta,
            "published_within_3se": published_ok,
            "general_within_3se": var_ok,
            "note": PUBLISHED_VARIANCE_NOTE,
        }

    moments["simulation"] = {
        "mean": report.mean,
        "variance": report.variance,
        "se_mean": report.se_mean,
        "se_variance": report.se_variance,
    }
    payload = {
        "command": "compare",
        "config": serialize_config(cfg),
        "moments": moments,
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

    _write_json(out / "compare.json", payload)
    return EXIT_COMPARE if failed else EXIT_OK


def cmd_invert(cfg: RunConfig, time: float, what: str = "density") -> int:
    """Single-point inversion, for debugging transform behaviour."""
    if not 0 < time < math.inf:
        raise ConfigError(f"--time: expected a finite time > 0, got {time}")
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
    return _checked("--grid: analysis.grid", GridSpec, t_min=t_min, t_max=t_max, points=points)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None or args.runs is not None:
        simulation = _checked(
            "--seed/--runs: simulation", replace, cfg.simulation,
            runs=args.runs if args.runs is not None else cfg.simulation.runs,
            seed=args.seed if args.seed is not None else cfg.simulation.seed,
        )
        cfg = replace(cfg, simulation=simulation)
    if args.grid is not None:
        cfg = replace(cfg, analysis=replace(cfg.analysis, grid=_parse_grid_flag(args.grid)))
    if args.out is not None:
        cfg = replace(cfg, output=_checked("--out: output", replace, cfg.output, directory=args.out))
    return cfg


# built on the first main call and kept: a process that calls main many times
# (as the benchmark does) would otherwise rebuild it, about 1 ms, every call
@functools.lru_cache(maxsize=None)
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
            code = cmd_analyze(cfg)
        elif args.command == "simulate":
            code = cmd_simulate(cfg)
        elif args.command == "compare":
            code = cmd_compare(cfg)
        else:
            code = cmd_invert(cfg, args.time, args.what)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InversionError, UnrealizableModelError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # A command frees its arrays as it returns (over a millisecond for 10^6
    # samples), and a Python signal handler that falls due meanwhile runs
    # only at the next call.  Make that call here, so that the handler runs
    # inside main.  bench/run.py times main with a SIGALRM probe that
    # re-arms its timer; run after main returns, it would re-arm the timer
    # that bench/run.py has just disarmed, and the next alarm would kill it.
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
