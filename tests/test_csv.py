"""CSV cells: the vectorized writer against one f"{v:.17g}" per cell."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deltashock.cli import (
    FIXED_HIGH,
    FIXED_LOW,
    _csv_lines,
    _fixed_cells,
    _fmt,
    _write_csv,
)


def reference(rows) -> bytes:
    """One _fmt per cell, None an empty cell."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows).encode()


def column_text(values) -> bytes:
    return _csv_lines(np.asarray(values, dtype=float)[:, None], None)


def edge_values():
    values = []
    for exponent in range(-8, 19):
        power = float(f"1e{exponent}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)]
    # + 0.25 and + 0.75 are ties at the 17th digit, which round half to
    # even; + 0.5 takes exactly 17 digits
    values += [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5]
    # reads as the double 1e17, past the fixed-notation range: 17 nines
    # would carry into an 18th digit
    values += [99999999999999999.0]
    for bound in (FIXED_LOW, FIXED_HIGH):
        values += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, math.inf)]
    return values


class TestCells:
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(width=64))
    def test_any_double(self, value):
        assert column_text([value]) == f"{value:.17g}\n".encode()

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=FIXED_LOW, max_value=FIXED_HIGH, exclude_max=True))
    def test_fixed_notation_range(self, value):
        cell = _fixed_cells(np.array([value]))[0]
        assert cell.tobytes().replace(b"\0", b"") == f"{value:.17g}".encode()

    def test_edge_values(self):
        values = edge_values()
        assert column_text(values) == reference([v] for v in values)

    def test_ranks_of_a_million(self):
        n = 10**6
        ranks = np.arange(1, n + 1) / n
        assert column_text(ranks) == "".join(f"{(i + 1) / n:.17g}\n" for i in range(n)).encode()

    def test_every_bit_pattern_region(self):
        # doubles spread over every exponent, both signs and nan payloads
        values = np.random.default_rng(3).integers(0, 2**64, 20_000, dtype=np.uint64).view(float)
        assert column_text(values) == reference([v] for v in values.tolist())


class TestWriter:
    HEADER = ["t", "pdf_closed_form", "pdf_inverted", "pdf_normal_approx", "cdf_inverted"]

    def test_curves_with_empty_and_special_cells(self, tmp_path):
        # an empty closed-form column (no closed form for the model), failed
        # inversion points, and genuine nan, inf, negative and zero values
        rows = []
        for i, t in enumerate(np.linspace(0.05, 12.0, 50).tolist()):
            failed = i % 7 == 3
            pdf = [math.nan, math.inf, -math.inf, -1e-9, 0.0, -0.0, 5e-324, 2.5e-5][i % 8]
            rows.append((t, None, None if failed else pdf, math.exp(-t), None if failed else 1 - 1 / (1 + t)))
        cells = np.array([[math.nan if cell is None else cell for cell in row] for row in rows])
        empty = np.array([[cell is None for cell in row] for row in rows])
        path = tmp_path / "curves.csv"
        _write_csv(path, self.HEADER, len(rows), lambda lo, hi: (cells[lo:hi], empty[lo:hi]))
        assert path.read_bytes() == (",".join(self.HEADER) + "\n").encode() + reference(rows)

    def test_blocks_stay_bounded(self, tmp_path):
        n = 10**6
        times = np.sort(np.random.default_rng(0).gamma(3.0, 2.0, n))
        path = tmp_path / "ecdf.csv"
        tracemalloc.start()
        try:
            _write_csv(path, ["t", "ecdf"], n,
                       lambda lo, hi: (np.column_stack((times[lo:hi], np.arange(lo + 1, hi + 1) / n)), None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 30 * 2**20
        # a few blocks' worth of arrays, not the file's text
        assert peak < 4 * 2**20, peak
