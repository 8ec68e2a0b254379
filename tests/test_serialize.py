"""Text-artifact plumbing: full-precision CSV, flat config blocks, and
gnuplot script emission."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from wqed import serialize
from wqed.errors import ConfigurationError
from wqed.serialize import (
    CSV_CHUNK_ROWS,
    config_text,
    csv_text,
    format_value,
    gnuplot_script,
    parse_config_text,
    parse_value,
    read_config,
    read_csv,
    write_config,
    write_csv,
    write_table,
)


class TestScalarFormat:
    """Cell values render at full precision and parse back."""

    @pytest.mark.parametrize("value, expected", [
        (True, "true"),
        (False, "false"),
        (42, "42"),
        (0.5, "0.5"),
        ("full", "full"),
    ])
    def test_simple_values(self, value, expected):
        assert format_value(value) == expected

    def test_float_has_17_significant_digits(self):
        assert format_value(1.0 / 3.0) == "0.33333333333333331"

    def test_complex_rejected(self):
        with pytest.raises(ConfigurationError, match="re/im"):
            format_value(1 + 2j)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, value):
        assert float(parse_value(format_value(value))) == value

    def test_parse_value_types(self):
        assert parse_value("true") is True
        assert parse_value("3") == 3 and isinstance(parse_value("3"), int)
        assert parse_value("3.5") == 3.5
        assert parse_value(" text ") == "text"


class TestCsv:
    """One-line header, UNIX newlines, typed round trip."""

    def test_header_and_rows(self):
        text = csv_text(("a", "b"), [(1, 2.5), (3, "x")])
        assert text == "a,b\n1,2.5\n3,x\n"
        assert "\r" not in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="cells"):
            csv_text(("a", "b"), [(1,)])

    def test_file_round_trip(self, tmp_path):
        rows = [(0.1, True, "full"), (1e-300, False, "rwa-cutoff")]
        path = write_csv(tmp_path / "t.csv", ("x", "flag", "model"), rows)
        header, parsed = read_csv(path)
        assert header == ["x", "flag", "model"]
        assert parsed == [list(row) for row in rows]

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_csv(empty)


def savetxt_bytes(path, header, columns) -> bytes:
    """The reference writer: numpy's row-at-a-time savetxt."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return Path(path).read_bytes()


def rowwise_csv(header, rows) -> str:
    """The reference for mixed tables: one row at a time via format_value."""
    return ",".join(header) + "\n" + "".join(
        ",".join(format_value(cell) for cell in row) + "\n" for row in rows)


def assert_matches_savetxt(directory, columns):
    header = tuple(f"c{j}" for j in range(len(columns)))
    ours = write_table(Path(directory) / "ours.csv", header, columns)
    assert ours.read_bytes() == savetxt_bytes(
        Path(directory) / "oracle.csv", header, columns)


SPECIAL_FLOATS = np.array([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e16, 1e17,
    123456789012345678.0, 1e-300, 1e300, 1.7976931348623157e308, 2.0 ** -1074,
])


class TestChunkedWriter:
    """write_table streams float64 columns in chunks; its bytes equal
    np.savetxt(fmt="%.17g") and, for mixed tables, the row-wise format."""

    def test_special_values(self, tmp_path):
        assert_matches_savetxt(tmp_path, (SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]))
        text = (tmp_path / "ours.csv").read_text()
        for spelled in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                        "\n1,"):
            assert spelled in text

    def test_percent_g_equals_format_value(self):
        for value in SPECIAL_FLOATS.tolist():
            assert "%.17g" % value == format_value(value)

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_CHUNK_ROWS - 1,
                                        CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = (np.linspace(-3.0, 7.0, n_rows),
                   rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows))
        assert_matches_savetxt(tmp_path, columns)
        lines = (tmp_path / "ours.csv").read_text().splitlines()
        assert len(lines) == n_rows + 1

    def test_non_contiguous_columns(self, tmp_path):
        beta = np.exp(1j * np.linspace(0.0, 40.0, 2 * CSV_CHUNK_ROWS + 5))
        columns = (beta.real, beta.imag, np.abs(beta), beta.real[::-1])
        assert not beta.real.flags.c_contiguous
        assert_matches_savetxt(tmp_path, columns)

    @given(st.integers(1, 4), st.integers(1, 9), st.data())
    def test_matches_savetxt_property(self, n_cols, chunk_rows, data):
        n_rows = data.draw(st.integers(0, 40))
        columns = tuple(data.draw(arrays(np.float64, n_rows))
                        for _ in range(n_cols))
        with mock.patch.object(serialize, "CSV_CHUNK_ROWS", chunk_rows), \
                tempfile.TemporaryDirectory() as directory:
            assert_matches_savetxt(directory, columns)

    def test_mixed_table_matches_rowwise(self, tmp_path):
        n = CSV_CHUNK_ROWS + 3
        k0l = np.linspace(0.0, 2.0 * math.pi, n)
        labels = [("full", "rwa-cutoff:9.9999999999999995e-07")[i % 2]
                  for i in range(n)]
        re_m = np.cos(k0l)
        diverged = [i % 3 == 0 for i in range(n)]
        rows = list(zip(k0l.tolist(), labels, re_m, diverged))
        header = ("k0l", "model", "re_m", "diverged")
        expected = rowwise_csv(header, rows)
        assert csv_text(header, rows) == expected
        assert write_csv(tmp_path / "rows.csv", header, rows).read_text() == expected
        path = write_table(tmp_path / "cols.csv", header,
                           (k0l, labels, re_m, diverged))
        assert path.read_text() == expected

    def test_empty_row_table(self):
        assert csv_text(("a", "b"), []) == "a,b\n"

    def test_column_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="differ"):
            write_table(tmp_path / "t.csv", ("a", "b"),
                        (np.zeros(CSV_CHUNK_ROWS), np.zeros(CSV_CHUNK_ROWS + 1)))


class TestConfigBlocks:
    """Flat key = value sections with stable order."""

    SECTIONS = {
        "run": {"gamma_over_delta": 0.25, "model": "full"},
        "grid": {"zero_pad": 8, "span_factor": 1.5},
    }

    def test_render(self):
        text = config_text(self.SECTIONS)
        assert text.startswith("[run]\ngamma_over_delta = 0.25\n")
        assert "\n\n[grid]\n" in text

    def test_parse_is_inverse(self):
        assert parse_config_text(config_text(self.SECTIONS)) == self.SECTIONS

    def test_serialize_is_inverse_of_parse(self):
        text = config_text(self.SECTIONS)
        assert config_text(parse_config_text(text)) == text

    def test_file_round_trip(self, tmp_path):
        path = write_config(tmp_path / "c.ini", self.SECTIONS)
        assert read_config(path) == self.SECTIONS

    def test_parse_error_is_line_anchored(self):
        with pytest.raises(ConfigurationError, match=r"line\s+2"):
            parse_config_text("[run]\ngamma_over_delta 0.25\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("[run]\na = 1\na = 2\n")


class TestGnuplotScript:
    """Plot scripts are plain text referencing CSV files."""

    def test_references_curves(self):
        script = gnuplot_script("envelopes",
                                [("incident.csv", 1, 4, "incident"),
                                 ("transmitted.csv", 1, 4, "transmitted")],
                                xlabel="tau", ylabel="|A|")
        assert '"incident.csv" using 1:4' in script
        assert 'title "transmitted"' in script
        assert 'set datafile separator ","' in script
        assert script.endswith("\n")

    def test_needs_curves(self):
        with pytest.raises(ConfigurationError):
            gnuplot_script("empty", [])
