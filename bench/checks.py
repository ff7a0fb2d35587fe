"""Correctness checks on the files each deltashock command writes.

Every check is one operation in the ledger.  An operation that fails counts
into `failed`; one that shows a wrong output (a tolerance, range or
determinism check, an error exit) also clears `correct`.  An empty grid cell
and a FAIL verdict count as failed operations but not as wrong outputs: the
first is the program declining a point it cannot settle, the second a
statistical test that a correct model fails at its stated rate.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# |pdf_inverted - pdf_closed_form|; the worst value at the seed commit is
# 2.5e-8 (exp-const, next to a density kink).
PDF_TOL = 1e-6
# Allowed decrease between neighbouring cdf_inverted cells: the inversion's
# own error budget, 2 * target_error at the default target 1e-8.
CDF_SLACK = 2e-8
# method_agreement spreads; at the seed commit the mean spread is <= 6e-10
# and the variance spread <= 4.4e-5 (rare-p01) on every workload.
MEAN_SPREAD_TOL = 1e-8
VARIANCE_SPREAD_TOL = 1e-4


class Ledger:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def op(self, ok: bool, what: str, wrong_output: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not wrong_output
            if len(self.failures) < 20:
                self.failures.append(what)


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in the command's output directory."""
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        hashes[path.name] = h.hexdigest()
    return hashes


def check_analyze(out_dir: Path, ledger: Ledger) -> None:
    with (out_dir / "curves.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        ledger.op(bool(row["pdf_inverted"] and row["cdf_inverted"]),
                  f"analyze: empty inverted cell at t={row['t']}", wrong_output=False)

    pairs = [(float(r["pdf_inverted"]), float(r["pdf_closed_form"]))
             for r in rows if r["pdf_inverted"] and r["pdf_closed_form"]]
    if pairs:
        worst = max(abs(a - b) for a, b in pairs)
        ledger.op(worst <= PDF_TOL, f"analyze: |pdf_inverted - pdf_closed_form| = {worst:.3g}")
    cdf = [float(r["cdf_inverted"]) for r in rows if r["cdf_inverted"]]
    ledger.op(all(0.0 <= c <= 1.0 for c in cdf), "analyze: cdf_inverted outside [0, 1]")
    drop = max((a - b for a, b in zip(cdf, cdf[1:])), default=0.0)
    ledger.op(drop <= CDF_SLACK, f"analyze: cdf_inverted decreases by {drop:.3g}")

    agreement = json.loads((out_dir / "summary.json").read_text())["method_agreement"]
    mean_spread = agreement["mean_relative_spread"]
    variance_spread = agreement["variance_relative_spread"]
    ledger.op(mean_spread <= MEAN_SPREAD_TOL, f"analyze: mean spread {mean_spread:.3g}")
    ledger.op(variance_spread <= VARIANCE_SPREAD_TOL,
              f"analyze: variance spread {variance_spread:.3g}")


def check_verdict(out_dir: Path, filename: str, ledger: Ledger, command: str) -> None:
    verdict = json.loads((out_dir / filename).read_text())["verdict"]
    ledger.op(verdict == "PASS", f"{command}: verdict {verdict}", wrong_output=False)


def check_outputs(command: str, out_dir: Path, ledger: Ledger) -> None:
    """Run the checks that apply to `command` on the files it wrote."""
    if command == "analyze":
        check_analyze(out_dir, ledger)
    elif command == "compare":
        check_verdict(out_dir, "compare.json", ledger, command)
    else:
        check_verdict(out_dir, "summary.json", ledger, command)
