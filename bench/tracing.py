"""Spans around the public functions of each deltashock module.

The package is traced from outside: `patched(tracer)` replaces each public
function in the namespace where its caller looks it up (cli imports most of
them by name; laplace and model reach `weighted_laplace` through their own
module globals; law samplers and methods are looked up on their classes) and
restores the originals on exit.  Nothing under src/ changes.

Spans are kept in memory as plain tuples and summarised when the traced call
ends.  A span's self time is its duration minus the durations of its direct
children; calls nest synchronously, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span names of the functions whose span also feeds a dedicated counter.
INVERSION = "laplace.invert_transform"
TRANSFORM = "laplace.transform"
SAMPLE = "distributions.sample"
RUN_BATCH = "simulate.run_batch"


class Tracer:
    """Span recorder for one traced command call."""

    def __init__(self):
        # (name, start_ns, end_ns, self_ns, ok, inside_inversion)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns, inside_inversion]
        self._open_inversions = 0
        self._batch_arrivals = None
        self.waves = 0
        self.runs = 0
        self.gap_draws = 0.0

    def _enter(self, name):
        inside = self._open_inversions > 0
        if name == INVERSION:
            self._open_inversions += 1
        self._stack.append([name, time.perf_counter_ns(), 0, inside])

    def _exit(self, ok):
        end = time.perf_counter_ns()
        name, start, child_ns, inside = self._stack.pop()
        if name == INVERSION:
            self._open_inversions -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, start, end, duration - child_ns, ok, inside))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._exit(ok)

        return traced

    def wrap_sample(self, fn):
        """Law sampler; a call on the batch's arrival law is one simulation wave."""
        traced = self.wrap(SAMPLE, fn)

        def sample(law, *args, **kwargs):
            if law is self._batch_arrivals:
                self.waves += 1
            return traced(law, *args, **kwargs)

        return sample

    def wrap_run_batch(self, fn):
        traced = self.wrap(RUN_BATCH, fn)

        def run_batch(model, config):
            self._batch_arrivals = model.arrivals
            try:
                report = traced(model, config)
            finally:
                self._batch_arrivals = None
            self.runs += report.runs
            self.gap_draws += report.runs * report.mean_shock_count
            return report

        return run_batch


def _targets():
    """(owner, attribute, span name) for every traced public function.

    Only functions that one of the workloads reaches are listed; the
    uniform-gap closed forms and sampler, and the k = 1 path of invert_cdf,
    join when a workload uses them.
    """
    from deltashock import cli, distributions, gaussian, laplace, model

    return [
        (cli, "load_config", "cli.load_config"),
        (cli, "cmd_analyze", "cli.cmd_analyze"),
        (cli, "cmd_compare", "cli.cmd_compare"),
        (cli, "cmd_simulate", "cli.cmd_simulate"),
        (cli, "invert_density", "laplace.invert_density"),
        (cli, "invert_cdf", "laplace.invert_cdf"),
        (cli, "moments_from_transform", "laplace.moments_from_transform"),
        (cli, "exp_const_pdf", "closedform.exp_const_pdf"),
        (cli, "run_batch", RUN_BATCH),
        (cli, "ks_statistic", "simulate.ks_statistic"),
        (laplace, "invert_transform", INVERSION),
        (laplace.TransformEvaluator, "__call__", TRANSFORM),
        (laplace, "weighted_laplace", "distributions.weighted_laplace"),
        (model, "weighted_laplace", "distributions.weighted_laplace"),
        (model.ShockModel, "failure_moments", "model.failure_moments"),
        (gaussian.NormalApprox, "from_moments", "gaussian.from_moments"),
        (gaussian.NormalApprox, "pdf", "gaussian.pdf"),
        (gaussian.NormalApprox, "cdf", "gaussian.cdf"),
        (distributions.Exponential, "sample", SAMPLE),
        (distributions.Constant, "sample", SAMPLE),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Route every traced function through `tracer` for the duration."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__))
            elif name == SAMPLE:
                replacement = tracer.wrap_sample(original)
            elif name == RUN_BATCH:
                replacement = tracer.wrap_run_batch(original)
            else:
                replacement = tracer.wrap(name, original)
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def group(name: str) -> str:
    """The share-table key: one entry per function, cli and gaussian whole."""
    layer = name.split(".", 1)[0]
    return layer if layer in ("cli", "gaussian") else name


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, self time, inclusive durations and errors of one call."""
    out = defaultdict(lambda: {"calls": 0, "self_ns": 0, "durations_ns": [], "errors": 0})
    evals_in_inversions = 0
    for name, start, end, self_ns, ok, inside in tracer.spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["durations_ns"].append(end - start)
        entry["errors"] += not ok
        if name == TRANSFORM and inside:
            evals_in_inversions += 1
    return {
        "names": dict(out),
        "evals_in_inversions": evals_in_inversions,
        "waves": tracer.waves,
        "runs": tracer.runs,
        "gap_draws": tracer.gap_draws,
    }


def self_shares(summaries: list[dict]) -> dict:
    """Self-time share of each group over a command's traced calls, largest first."""
    totals = defaultdict(int)
    for summary in summaries:
        for name, entry in summary["names"].items():
            totals[group(name)] += entry["self_ns"]
    whole = sum(totals.values()) or 1
    return dict(sorted(((g, ns / whole) for g, ns in totals.items()), key=lambda kv: -kv[1]))


def _median(values):
    return float(np.median(values)) if values else 0.0


def _percentile_ms(durations_ns, q):
    return float(np.percentile(durations_ns, q)) / 1e6 if durations_ns else 0.0


def layer_metrics(per_command: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer metrics for one workload cycle (one call of each command).

    `per_command` maps a command to the summaries of its traced calls.  Counts
    and self times are the median over a command's calls, summed over the
    commands; latency percentiles pool every span of every traced call.
    """

    def cycle(fn):
        return sum(_median([fn(s) for s in summaries]) for summaries in per_command.values())

    def count(name):
        return cycle(lambda s: s["names"].get(name, {}).get("calls", 0))

    def self_s(name):
        return cycle(lambda s: s["names"].get(name, {}).get("self_ns", 0)) / 1e9

    def self_layer(layer):
        return cycle(lambda s: sum(
            e["self_ns"] for n, e in s["names"].items() if n.startswith(layer + ".")
        )) / 1e9

    def pooled(name):
        return [d for summaries in per_command.values() for s in summaries
                for d in s["names"].get(name, {}).get("durations_ns", [])]

    batch_ns = sum(pooled(RUN_BATCH))
    batch_runs = sum(s["runs"] for summaries in per_command.values() for s in summaries)
    inversions = count(INVERSION)
    return {
        "distributions.weighted_laplace.calls": count("distributions.weighted_laplace"),
        "distributions.weighted_laplace.self_s": self_s("distributions.weighted_laplace"),
        "distributions.sample.calls": count(SAMPLE),
        "distributions.sample.self_s": self_s(SAMPLE),
        "model.failure_moments.self_s": self_s("model.failure_moments"),
        "laplace.transform.calls": count(TRANSFORM),
        "laplace.transform.self_s": self_s(TRANSFORM),
        "laplace.invert_transform.calls": inversions,
        "laplace.invert_transform.self_s": self_s(INVERSION),
        "laplace.invert_transform.errors": cycle(
            lambda s: s["names"].get(INVERSION, {}).get("errors", 0)),
        "laplace.evals_per_inversion": (
            cycle(lambda s: s["evals_in_inversions"]) / inversions if inversions else 0.0),
        "laplace.invert_density.p50_ms": _percentile_ms(pooled("laplace.invert_density"), 50),
        "laplace.invert_density.p95_ms": _percentile_ms(pooled("laplace.invert_density"), 95),
        "laplace.invert_cdf.p50_ms": _percentile_ms(pooled("laplace.invert_cdf"), 50),
        "laplace.invert_cdf.p95_ms": _percentile_ms(pooled("laplace.invert_cdf"), 95),
        "laplace.moments_from_transform.self_s": self_s("laplace.moments_from_transform"),
        "closedform.exp_const_pdf.calls": count("closedform.exp_const_pdf"),
        "closedform.exp_const_pdf.self_s": self_s("closedform.exp_const_pdf"),
        "closedform.exp_const_pdf.p95_ms": _percentile_ms(pooled("closedform.exp_const_pdf"), 95),
        "gaussian.self_s": self_layer("gaussian"),
        "simulate.run_batch.self_s": self_s(RUN_BATCH),
        "simulate.runs_per_s": batch_runs / (batch_ns / 1e9) if batch_ns else 0.0,
        "simulate.ks_statistic.self_s": self_s("simulate.ks_statistic"),
        "simulate.waves": cycle(lambda s: s["waves"]),
        "simulate.gap_draws": cycle(lambda s: s["gap_draws"]),
        "cli.self_s": self_layer("cli"),
    }
