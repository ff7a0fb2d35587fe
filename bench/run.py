"""End-to-end and per-layer benchmark of the deltashock commands.

Usage (from the repository root):

    python3 bench/run.py --workload exp-const --seed 1 --seconds 12 --trace 0

One process drives `deltashock.cli.main` in-process for `analyze`, `compare`
and `simulate` on one fixed model, with `simulation.workers = 1`: a closed
loop with one client, each call starting when the previous one returns.  The
seed is the simulation seed; the model, grid and run counts are fixed per
workload (see WORKLOADS and bench/README.md).  The commands' calls are
interleaved for about --seconds (see Harness.run), and a command's metric is
the median wall time of its calls, output files included, scaled to a
reference machine speed (see speed_probe).

--trace 0 also times a fresh interpreter importing `deltashock.cli` and
loading the config (setup_s, see setup_timer), and reports the end-to-end
metrics.
--trace 1 alternates untraced and traced calls of each command and reports
the per-layer metrics of one workload cycle (see tracing.py).

The first call of each command is checked (see checks.py), and every later
call is compared with it byte for byte.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics, with the
names and units declared in BENCHMARK.json.  Every earlier line is a report
for people: per-command timings, self-time shares and a run_info object with
the machine facts and run inputs.  --smoke shrinks grids and run counts so
the harness itself can be tested in seconds.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from checks import Ledger, check_outputs, digest
from tracing import Tracer, layer_metrics, patched, self_shares, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEV_SEED = 1
COMMANDS = ("analyze", "compare", "simulate")
SETUP_REPEATS = 7
# Modules a setup_s reference child imports, and its time on the reference
# machine when quiet (see setup_timer).
REFERENCE_IMPORTS = ("numpy, decimal, json, csv, argparse, dataclasses, fractions, "
                     "statistics, email.message, xml.dom.minidom")
SETUP_REFERENCE_S = 0.085
# Untraced calls per command when a call fits in the command's share of
# --seconds, so that every end-to-end median rests on at least three calls.
MIN_TURNS = 3
SETUP_TIMEOUT_S = 120
EXIT_COMPARE = 3  # deltashock.cli: a compare verdict failed
# Time of speed_probe() on the reference machine when quiet (2-core Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6); end-to-end times are scaled to this speed.
PROBE_REFERENCE_S = 0.0051
PROBE_INTERVAL_S = 0.1


@dataclass(frozen=True)
class Workload:
    threshold: dict
    points: int  # analyze grid points
    runs: int  # simulate and compare run count


EXPONENTIAL_GAPS = {"type": "exponential", "rate": 1.0}
K = 3
# Why each workload was chosen: BENCHMARK.json and bench/README.md.  Run
# counts stay at or below the simulator's 10^6-sample reservoir.
WORKLOADS = {
    "exp-const": Workload({"type": "constant", "value": math.log(2.0)},
                          points=200, runs=1_000_000),
    "exp-exp": Workload({"type": "exponential", "rate": 1.0}, points=12, runs=100_000),
    "rare-p01": Workload({"type": "constant", "value": -math.log(0.99)},
                         points=10, runs=200_000),
}
SMOKE_POINTS = 6
SMOKE_RUNS = 4_000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_POINTS}-point grids and {SMOKE_RUNS} runs")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must lie in [0, 2^64), got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def import_cli():
    """deltashock.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "deltashock" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'deltashock' / 'cli.py'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from deltashock import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"bench: imported {cli.__file__}, not the checkout's copy under {SRC}")
    return cli


def machine_facts() -> dict:
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({key: (index / key).read_text().strip()
                           for key in ("level", "type", "size")})
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def speed_probe() -> float:
    """Wall time of a fixed mix of interpreter arithmetic, complex math, numpy
    sorting and float formatting, independent of deltashock.

    The machine's speed drifts by up to about 2x over seconds to minutes (other
    tenants of the host), and the drift is common to every command.  Each
    timed call is scaled by PROBE_REFERENCE_S over the mean of the probes run
    next to and during it, which takes most of that drift out of the
    end-to-end times.
    """
    start = time.perf_counter()
    z = 0j
    acc = 0.0
    for i in range(1, 1500):
        z = z * 0.999 + cmath.exp(complex(-1e-4 * i, 0.3 * i)) / i
        acc += math.lgamma(i)
    values = np.random.default_rng(0).random(25_000)
    values.sort()
    np.cumsum(values)
    "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(values[:2_000], values[1:2_001]))
    return time.perf_counter() - start


class Timer:
    """Wall times of timed calls, raw and scaled to the reference speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def record(self, elapsed: float, probes: list[float],
               reference: float = PROBE_REFERENCE_S) -> None:
        self.raw.append(elapsed)
        self.scaled.append(elapsed * reference / statistics.fmean(probes))

    def time(self, fn):
        """Time an in-process call, probed before, after and every PROBE_INTERVAL_S.

        The probes during the call run from a SIGALRM handler, so that drift
        within a long call shows; their time is taken out of the call's.  The
        handler re-arms the timer after its probe, so that the call always
        runs for PROBE_INTERVAL_S between two probes, however slow they are.
        """
        probes = [speed_probe()]
        inside: list[float] = []

        def probe_inside(signum, frame):
            inside.append(speed_probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, probe_inside)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self.record(elapsed - sum(inside), probes + inside + [speed_probe()])
        return result


def setup_timer(config_path: Path) -> Timer:
    """Fresh interpreters that import deltashock.cli and load_config (builds the model).

    Each child times its own import and load, so that process start and exit
    stay out.  Import work follows the host's speed differently from
    speed_probe's mix, so each child is scaled instead by the mean time of
    the reference children run just before and after it: fresh interpreters
    importing REFERENCE_IMPORTS, which deltashock does not own.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(imports: str, *args: str) -> float:
        code = ("import sys, time; start = time.perf_counter(); "
                f"{imports}; print(time.perf_counter() - start)")
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                              timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        return float(proc.stdout.strip().splitlines()[-1])

    timer = Timer()
    before = child(f"import {REFERENCE_IMPORTS}")
    for _ in range(SETUP_REPEATS):
        elapsed = child("import deltashock.cli as cli; cli.load_config(sys.argv[1])",
                        str(config_path))
        after = child(f"import {REFERENCE_IMPORTS}")
        timer.record(elapsed, [before, after], SETUP_REFERENCE_S)
        before = after
    return timer


def flush(out: Path) -> None:
    """Write a call's output files to disk before the next timed call starts,
    so that their write-back does not land in its time."""
    for path in out.iterdir() if out.is_dir() else ():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class Harness:
    """Calls the CLI, checks each call's outputs and keeps timings and traces."""

    def __init__(self, cli, work: Path, config_path: Path):
        self.cli = cli
        self.work = work
        self.config_path = config_path
        self.ledger = Ledger()
        self.timers = {c: Timer() for c in COMMANDS}
        self.traced_timers = {c: Timer() for c in COMMANDS}
        self.summaries = {c: [] for c in COMMANDS}
        self.bytes_written = {}
        self.reference = {}
        self.differing: set[str] = set()

    def call(self, command: str, traced: bool) -> float:
        out = self.work / command
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(self.config_path), "--out", str(out)]
        tracer = Tracer() if traced else None

        def invoke():
            try:
                if tracer is None:
                    return self.cli.main(argv)
                with patched(tracer):
                    return tracer.wrap("cli.main", self.cli.main)(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return None

        if tracer is None:
            timer = self.timers[command]
            code = timer.time(invoke)
            elapsed = timer.raw[-1]
        else:
            # probed before and after only: a probe inside would land in a span
            before = speed_probe()
            start = time.perf_counter()
            code = invoke()
            elapsed = time.perf_counter() - start
            self.traced_timers[command].record(elapsed, [before, speed_probe()])
            self.summaries[command].append(summarize(tracer))
        flush(out)
        self.check(command, code, out)
        return elapsed

    def check(self, command: str, code: int | None, out: Path) -> None:
        """Check the first call of a command in full, and each later call
        against the first.

        The ledger thus counts one workload cycle plus one determinism
        operation (see check_repeats), so that `attempted` and `failed`
        depend on the seed only, never on how many calls fit in --seconds.
        """
        try:
            hashes = digest(out)
        except OSError:
            hashes = None
        if command in self.reference:
            if (code, hashes) != self.reference[command]:
                self.differing.add(command)
            return
        self.reference[command] = (code, hashes)
        ledger = self.ledger
        # compare exits 3 on a FAIL verdict, which the verdict check counts
        exited = code == 0 or (code == EXIT_COMPARE and command == "compare")
        ledger.op(exited, f"{command}: {'raised' if code is None else f'exit {code}'}")
        if not exited:
            return
        try:
            check_outputs(command, out, ledger)
        except (OSError, KeyError, ValueError) as exc:
            ledger.op(False, f"{command}: unreadable outputs ({exc!r})")
            return
        self.bytes_written[command] = sum(p.stat().st_size for p in out.iterdir())

    def check_repeats(self) -> None:
        """One operation: every later call reproduced its command's first
        call, exit code and output files byte for byte (the package's
        determinism contract)."""
        self.ledger.op(not self.differing,
                       f"calls differ from the first call of {sorted(self.differing)}")

    def run(self, seconds: float, trace: bool) -> None:
        """Interleave the commands' calls for about `seconds` in total.

        Each command has a share of a third of `seconds`.  The command with
        the least time spent so far goes next, and a command is done once it
        has used its share and had MIN_TURNS turns, or after a single turn
        longer than half of `seconds`.  In trace mode a turn is an untraced
        call followed by a traced one, and one turn per command suffices: the
        per-layer counts repeat exactly and carry no bound.
        """
        share = seconds / len(COMMANDS)
        min_turns = 1 if trace else MIN_TURNS
        spent = {c: 0.0 for c in COMMANDS}
        turns = {c: 0 for c in COMMANDS}
        first = {}

        def pending(c):
            if turns[c] == 0:
                return True
            return first[c] <= seconds / 2.0 and (turns[c] < min_turns or spent[c] < share)

        while todo := [c for c in COMMANDS if pending(c)]:
            command = min(todo, key=lambda c: (turns[c] > 0, spent[c]))
            elapsed = self.call(command, traced=False)
            if trace:
                elapsed += self.call(command, traced=True)
            first.setdefault(command, elapsed)
            spent[command] += elapsed
            turns[command] += 1


def end_to_end(h: Harness, setup: Timer) -> dict:
    return {
        "setup_s": statistics.median(setup.scaled),
        "analyze_s": statistics.median(h.timers["analyze"].scaled),
        "compare_s": statistics.median(h.timers["compare"].scaled),
        "simulate_s": statistics.median(h.timers["simulate"].scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - h.ledger.failed / h.ledger.attempted,
    }


def per_layer(h: Harness) -> dict:
    metrics = layer_metrics(h.summaries)
    metrics["cli.bytes_written"] = float(sum(h.bytes_written.values()))
    untraced = sum(statistics.median(h.timers[c].scaled) for c in COMMANDS)
    traced = sum(statistics.median(h.traced_timers[c].scaled) for c in COMMANDS)
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return metrics


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # so that a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    points = SMOKE_POINTS if args.smoke else workload.points
    runs = SMOKE_RUNS if args.smoke else workload.runs
    trace = bool(args.trace)
    units = declared_units(trace)

    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps({
            "model": {"k": K, "arrivals": EXPONENTIAL_GAPS, "threshold": workload.threshold},
            "analysis": {"grid": {"points": points}},
            "simulation": {"runs": runs, "seed": args.seed, "workers": 1},
        }, indent=2))
        setup = Timer() if trace else setup_timer(config_path)
        harness = Harness(cli, work, config_path)
        harness.run(args.seconds, trace)
        harness.check_repeats()
        values = per_layer(harness) if trace else end_to_end(harness, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for command in COMMANDS:
        timer = harness.timers[command]
        print(f"{command}: {len(timer.raw)} untraced calls, wall median "
              f"{statistics.median(timer.raw):.4f} s (min {min(timer.raw):.4f}, max "
              f"{max(timer.raw):.4f}), at reference speed {statistics.median(timer.scaled):.4f} s")
    shares = {c: self_shares(s) for c, s in harness.summaries.items() if s}
    for command, shares_ in shares.items():
        top = ", ".join(f"{name} {share:.1%}" for name, share in list(shares_.items())[:6])
        print(f"self-time shares, {command}: {top}")
    print(json.dumps({"run_info": {
        "machine": machine_facts(),
        "workload": args.workload,
        "model": {"k": K, "arrivals": EXPONENTIAL_GAPS, "threshold": workload.threshold},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "analyze_grid_points": points,
        "simulation_runs": runs,
        "simulation_workers": 1,
        "probe_reference_s": PROBE_REFERENCE_S,
        "call_times_s": {c: {"wall": t.raw, "reference_speed": t.scaled}
                         for c, t in harness.timers.items()},
        "traced_call_times_s": {c: {"wall": t.raw, "reference_speed": t.scaled}
                                for c, t in harness.traced_timers.items()},
        "setup_times_s": {"wall": setup.raw, "reference_speed": setup.scaled},
        "self_time_shares": shares,
        "failures": harness.ledger.failures,
    }}))
    print(json.dumps({
        "correct": harness.ledger.correct,
        "attempted": harness.ledger.attempted,
        "failed": harness.ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
