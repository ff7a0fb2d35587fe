"""CSV writer: the file is the header and one line per row, each cell
format(v, ".17g") or empty."""

import math

import numpy as np

from deltashock.cli import _write_csv


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
        path = tmp_path / "curves.csv"
        _write_csv(path, self.HEADER, rows)
        expected = "".join(
            ",".join("" if v is None else format(v, ".17g") for v in row) + "\n" for row in rows)
        assert path.read_bytes() == (",".join(self.HEADER) + "\n" + expected).encode()

    def test_edge_values(self, tmp_path):
        # powers of ten and their neighbours, ties at the 17th digit (+ 0.25
        # and + 0.75 round half to even; + 0.5 takes exactly 17 digits), a
        # value that reads as 1e17, and the special values
        values = []
        for exponent in range(-8, 19):
            power = float(f"1e{exponent}")
            values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)]
        values += [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5, 99999999999999999.0]
        values += [5e-324, -0.0, math.nan, math.inf, -math.inf]
        rows = [(float(v), -float(v)) for v in values]
        path = tmp_path / "edge.csv"
        _write_csv(path, ["a", "b"], rows)
        expected = "".join(f"{format(a, '.17g')},{format(b, '.17g')}\n" for a, b in rows)
        assert path.read_bytes() == ("a,b\n" + expected).encode()

    def test_rows_with_and_without_empty_cells(self, tmp_path):
        # every filled cell renders as format(v, ".17g") and every None as
        # an empty cell, including nan, inf, -0.0, subnormals, a numpy float
        # and an int, in rows with and without empty cells
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
                    np.float64(0.1), 7, 1 / 3]
        rows = []
        for i, v in enumerate(specials):
            rows.append((float(i), v, -v, v, v))
            rows.append((float(i), None, v, None, -v))
            rows.append((float(i), v, v, v, None))
        path = tmp_path / "curves.csv"
        _write_csv(path, self.HEADER, rows)
        expected = "".join(
            ",".join("" if v is None else format(v, ".17g") for v in row) + "\n" for row in rows)
        assert path.read_bytes() == (",".join(self.HEADER) + "\n" + expected).encode()
