"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -rA -s` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from deltashock import (
    Constant,
    Exponential,
    InversionConfig,
    ShockModel,
    SimulationConfig,
    Uniform,
    exp_const_moments,
    exp_const_pdf,
    invert_density,
    ks_statistic,
    moments_from_transform,
    run_batch,
    unif_const_mean,
    unif_const_variance_published,
)
from deltashock.cli import (
    EXIT_OK,
    OutputSpec,
    RunConfig,
    cmd_analyze,
    cmd_compare,
    cmd_simulate,
    parse_config,
)
from tests.test_closedform import integrate_series_pdf

LN2 = math.log(2.0)


def report(line):
    print(f"\n{line}")


def test_acceptance_1_moment_triple_agreement():
    """Three independent moment routes agree to 1e-5 relative for k in {1,3,10}."""
    start = time.perf_counter()
    for k in (1, 3, 10):
        model = ShockModel(k, Exponential(1.0), Constant(LN2))
        routes = {
            "general": model.failure_moments(),
            "closed": exp_const_moments(model),
            "transform": moments_from_transform(model),
        }
        means = [m.mean for m in routes.values()]
        variances = [m.variance for m in routes.values()]
        assert (max(means) - min(means)) / min(means) <= 1e-5
        assert (max(variances) - min(variances)) / min(variances) <= 1e-5
        if k == 3:
            assert routes["general"].mean == pytest.approx(6.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1 PASS: moment routes agree to 1e-5 for k in {{1,3,10}}, "
           f"mean(k=3)=6.0 ({elapsed:.2f}s)")


def test_acceptance_2_simulation_concordance():
    """1e6 runs reproduce the analytic moments and the shock-count law."""
    start = time.perf_counter()
    model = ShockModel(3, Exponential(1.0), Constant(LN2))
    batch = run_batch(model, SimulationConfig(runs=1_000_000, seed=20240817))
    moments = model.failure_moments()
    mean_z = abs(batch.mean - moments.mean) / batch.se_mean
    var_z = abs(batch.variance - moments.variance) / batch.se_variance
    assert mean_z <= 3.0
    assert var_z <= 3.0
    for n in range(model.k, model.k + 11):
        pmf = model.shock_count_pmf(n)
        se = math.sqrt(pmf * (1.0 - pmf) / batch.runs)
        assert abs(batch.shock_count_probability(n) - pmf) <= 3.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2 PASS: 1e6-run simulation within 3 SE (mean z={mean_z:.2f}, "
           f"var z={var_z:.2f}), P(N=n) matches for n<=k+10 ({elapsed:.2f}s)")


def test_acceptance_3_series_inversion_equivalence():
    """Series density equals the inverted transform to 1e-6 and has unit mass."""
    start = time.perf_counter()
    cfg = InversionConfig(target_error=1e-6)
    worst = 0.0
    for k in (1, 2, 5):
        model = ShockModel(k, Exponential(1.0), Constant(1.0))
        mean = model.failure_moments().mean
        for t in np.linspace(0.1, 10.0 * mean, 20):
            gap = abs(invert_density(model, float(t), cfg) - exp_const_pdf(model, float(t)))
            worst = max(worst, gap)
            assert gap <= 1e-6
    model = ShockModel(2, Exponential(1.0), Constant(1.0))
    moments = exp_const_moments(model)
    mass = integrate_series_pdf(model, moments.mean + 45 * math.sqrt(moments.variance))
    assert mass == pytest.approx(1.0, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"ACCEPTANCE 3 PASS: series vs inversion within 1e-6 (worst {worst:.2e}), "
           f"series mass 1{mass - 1.0:+.2e} ({elapsed:.2f}s)")


def test_acceptance_4_single_hit_reduction():
    """At k=1 the mean collapses to E(Z)/P(lethal) for three law pairs."""
    pairs = [
        ShockModel(1, Exponential(1.0), Constant(1.0)),
        ShockModel(1, Uniform(0.5, 2.5), Constant(1.2)),
        ShockModel(1, Exponential(2.0), Exponential(1.0)),
    ]
    for model in pairs:
        expected = model.arrivals.raw_moment(1) / model.lethal_prob
        assert model.failure_moments().mean == pytest.approx(expected, rel=1e-10)
        assert moments_from_transform(model).mean == pytest.approx(expected, rel=1e-5)
    report("ACCEPTANCE 4 PASS: k=1 mean equals E(Z)/P(Z<=delta) for "
           "exponential/constant, uniform/constant and exponential/exponential")


def test_acceptance_5_uniform_case_audit(tmp_path):
    """The uniform-case mean checks out; only the general variance survives
    simulation, and the compare report flags the published formula."""
    model = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))
    assert unif_const_mean(model) == pytest.approx(2.0, abs=1e-12)
    assert model.failure_moments().mean == pytest.approx(2.0, abs=1e-12)

    batch = run_batch(model, SimulationConfig(runs=1_000_000, seed=555))
    mean_z = abs(batch.mean - 2.0) / batch.se_mean
    assert mean_z <= 3.0
    general = model.failure_moments().variance
    published = unif_const_variance_published(model)
    assert general == pytest.approx(14.0 / 3.0, abs=1e-10)
    assert published == pytest.approx(7.0 / 3.0, abs=1e-12)
    general_z = abs(batch.variance - general) / batch.se_variance
    published_z = abs(batch.variance - published) / batch.se_variance
    assert general_z <= 3.0
    assert published_z > 3.0

    config = parse_config({
        "model": {"k": 1,
                  "arrivals": {"type": "uniform", "lower": 0.0, "upper": 2.0},
                  "threshold": {"type": "constant", "value": 1.0}},
        "simulation": {"runs": 200_000, "seed": 556},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert cmd_compare(config) == EXIT_OK
    payload = json.loads((tmp_path / "out" / "compare.json").read_text())
    flag = payload["published_variance_check"]
    assert flag["general_within_3se"] is True
    assert flag["published_within_3se"] is False
    assert payload["verdict"] == "PASS"
    report(f"ACCEPTANCE 5 PASS: uniform mean 2.0 and variance 14/3 confirmed by "
           f"simulation (z={general_z:.2f}); published 7/3 rejected (z={published_z:.1f}) "
           f"and flagged in compare.json")


def test_acceptance_6_normal_approximation_ladder(tmp_path):
    """Gaussian KS error, as analyze reports it, is nonincreasing in k and
    below 0.05 at k=100."""
    start = time.perf_counter()
    distances = []
    for k in (1, 5, 20, 100):
        out = tmp_path / f"k{k}"
        config = RunConfig(model=ShockModel(k, Exponential(1.0), Constant(1.0)),
                           output=OutputSpec(directory=str(out)))
        assert cmd_analyze(config) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        distances.append(summary["approximation_error"]["normal"]["ks_distance"])
    assert all(a >= b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ladder = ", ".join(f"{d:.4f}" for d in distances)
    report(f"ACCEPTANCE 6 PASS: KS ladder [{ladder}] nonincreasing over k in "
           f"{{1,5,20,100}}, final < 0.05 ({elapsed:.1f}s)")


def test_acceptance_7_determinism(tmp_path):
    """Identical configs give byte-identical outputs; workers don't matter."""
    def run(directory, workers):
        config = parse_config({
            "model": {"k": 3,
                      "arrivals": {"type": "exponential", "rate": 1.0},
                      "threshold": {"type": "constant", "value": LN2}},
            "simulation": {"runs": 140_000, "seed": 77, "workers": workers},
            "output": {"directory": str(tmp_path / directory)},
        })
        assert cmd_simulate(config) == EXIT_OK
        ecdf = (tmp_path / directory / "ecdf.csv").read_bytes()
        summary = json.loads((tmp_path / directory / "summary.json").read_text())
        del summary["config"]["simulation"]["workers"], summary["config"]["output"]["directory"]
        return ecdf, summary

    first = run("a", workers=1)
    second = run("b", workers=1)
    pooled = run("c", workers=2)
    assert first[0] == second[0] and first[1] == second[1]
    assert first[0] == pooled[0] and first[1] == pooled[1]
    report("ACCEPTANCE 7 PASS: repeated runs byte-identical; worker count "
           "leaves every output unchanged")


def test_acceptance_8_conditional_gap_laws(kernel_gaps):
    """Simulated lethal/non-lethal gaps pass KS at alpha=0.01 against their laws."""
    model = ShockModel(2, Exponential(1.0), Constant(1.0))
    p, q = model.lethal_prob, model.survive_prob
    lethal, nonlethal = kernel_gaps(model, runs=120_000, seed=90, count=100_000)

    lethal_cdf = lambda x: np.minimum(-np.expm1(-np.asarray(x, dtype=float)), p) / p
    nonlethal_cdf = lambda x: np.clip(
        (math.exp(-1.0) - np.exp(-np.maximum(np.asarray(x, dtype=float), 1.0))) / q, 0.0, 1.0)
    critical = 1.63 / math.sqrt(100_000)
    d_lethal = ks_statistic(lethal, lethal_cdf)
    d_nonlethal = ks_statistic(nonlethal, nonlethal_cdf)
    assert d_lethal < critical
    assert d_nonlethal < critical
    report(f"ACCEPTANCE 8 PASS: conditional gap laws hold at alpha=0.01 "
           f"(lethal KS {d_lethal:.5f}, non-lethal KS {d_nonlethal:.5f}, "
           f"critical {critical:.5f})")
