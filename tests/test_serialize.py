"""Text-artifact plumbing: full-precision CSV, flat config blocks, and
gnuplot script emission."""

import math
import os
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import read_csv
from wqed import serialize, sweep
from wqed.cli import main
from wqed.errors import ConfigurationError
from wqed.serialize import (
    BLOCK_VALUES,
    config_text,
    csv_text,
    format_value,
    gnuplot_script,
    parse_config_text,
    parse_value,
    read_config,
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


def block_rows(n_cols: int) -> int:
    """Rows of one formatting block of an n_cols-column table."""
    return max(1, BLOCK_VALUES // n_cols)


def percent_chunk_bytes(header, columns) -> bytes:
    """The reference float writer: one `'%.17g'` `%` operation per chunk
    of 8192 rows."""
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    text = [",".join(header) + "\n"]
    for lo in range(0, len(columns[0]), 8192):
        chunk = np.column_stack([column[lo:lo + 8192] for column in columns])
        text.append((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))
    return "".join(text).encode()


def first_difference(ours: bytes, oracle: bytes):
    """None, or (line number, our line, the oracle's line) of the first
    differing line; cheap to show where a bytes diff of megabytes is not."""
    if ours == oracle:
        return None
    lines = zip(ours.split(b"\n"), oracle.split(b"\n"))
    return next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b),
                ("lengths", len(ours), len(oracle)))


def assert_matches_percent(directory, columns):
    header = tuple(f"c{j}" for j in range(len(columns)))
    ours = write_table(Path(directory) / "ours.csv", header, columns).read_bytes()
    assert first_difference(ours, percent_chunk_bytes(header, columns)) is None
    return ours.decode()


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

    @pytest.mark.parametrize("n_cols, n_rows", [
        pytest.param(n_cols, n_rows, id=str(n_rows)) for n_cols, n_rows in
        [(2, 0), (2, 1)] + [(n_cols, block_rows(n_cols) + offset)
                            for n_cols in (1, 2, 4, 5) for offset in (-1, 0, 1)]])
    def test_chunk_boundaries(self, tmp_path, n_cols, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = (np.linspace(-3.0, 7.0, n_rows), *(
            rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
            for _ in range(n_cols - 1)))
        assert_matches_savetxt(tmp_path, columns)
        lines = (tmp_path / "ours.csv").read_text().splitlines()
        assert len(lines) == n_rows + 1

    def test_non_contiguous_columns(self, tmp_path):
        beta = np.exp(1j * np.linspace(0.0, 40.0, 2 * block_rows(4) + 5))
        columns = (beta.real, beta.imag, np.abs(beta), beta.real[::-1])
        assert not beta.real.flags.c_contiguous
        assert_matches_savetxt(tmp_path, columns)

    @given(st.integers(1, 4), st.integers(1, 40), st.data())
    def test_matches_savetxt_property(self, n_cols, block_values, data):
        n_rows = data.draw(st.integers(0, 40))
        columns = tuple(data.draw(arrays(np.float64, n_rows))
                        for _ in range(n_cols))
        with mock.patch.object(serialize, "BLOCK_VALUES", block_values), \
                tempfile.TemporaryDirectory() as directory:
            assert_matches_savetxt(directory, columns)
            assert_matches_percent(directory, columns)

    def test_mixed_table_matches_rowwise(self, tmp_path):
        n = block_rows(4) + 3
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
                        (np.zeros(block_rows(2)), np.zeros(block_rows(2) + 1)))


def write_peak(n_rows: int) -> int:
    """tracemalloc's peak, in bytes, over write_table of n_rows rows of
    five float64 columns; the columns exist before tracing starts."""
    rng = np.random.default_rng(n_rows)
    columns = tuple(rng.standard_normal(n_rows) for _ in range(5))
    tracemalloc.start()
    try:
        write_table(os.devnull, ("a", "b", "c", "d", "e"), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_working_set_is_small_and_flat():
    # 8192-row blocks of this table took 10.66 MB at any length, past L2
    # and the allocator's trim threshold; a block of BLOCK_VALUES cells
    # takes at most half of that, and still the same at every length
    at_12k, at_200k = write_peak(12_500), write_peak(200_000)
    assert at_200k <= 10.66e6 / 2
    assert abs(at_200k - at_12k) <= 0.05 * at_12k


def with_neighbours(values) -> np.ndarray:
    """values, their nextafter neighbours on both sides, and their negatives."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, math.inf)])
    return np.concatenate([near, -near])


def exact_digits(value: float) -> tuple[int, ...]:
    """The significant decimal digits of a double's exact value."""
    return Decimal(value).normalize().as_tuple().digits


class TestFloatFormatter:
    """The float path writes, for every double, the bytes of `'%.17g' % v`,
    as the one-`%`-per-chunk reference writer does."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20261018)
        values = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
        subnormals = rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)
        extremes = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308]
        values[:1000] = subnormals * np.where(np.arange(1000) % 2, 1.0, -1.0)
        values[1000:1000 + len(extremes)] = extremes
        text = assert_matches_percent(tmp_path, tuple(values.reshape(4, -1)))
        for spelled in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                        "1.7976931348623157e+308"):
            assert spelled in text.replace("\n", ",").split(",")

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = [float(f"1e{k}") for k in range(-320, 309)]
        assert_matches_percent(tmp_path, (with_neighbours(powers),))

    def test_fixed_exponent_boundaries(self, tmp_path):
        edges = [1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 1e17]
        text = assert_matches_percent(tmp_path, (with_neighbours(edges),))
        for spelled in ("1.0000000000000001e-05", "0.0001", "9.9999999999999991e-05",
                        "10000000000000000", "1e+17", "99999999999999984"):
            assert spelled in text.split("\n")

    def test_seventeen_digit_carries(self, tmp_path):
        values = [float(f"9.99999999999999999e{k}") for k in range(-300, 300)]
        # doubles below 10^(k+1) whose 17 digits round up to it
        carries = [v for k, v in zip(range(-300, 300), values)
                   if Decimal(v) < Decimal(10) ** (k + 1) and "%.17g" % v == f"1e{k + 1:+03d}"]
        assert len(carries) > 5
        assert_matches_percent(tmp_path, (with_neighbours(values),))

    def test_exact_ties_round_half_even(self, tmp_path):
        # n / 2^m with 18 significant digits, the last a 5: a tie at 17
        # (d integer digits, m = 18 - d binary places), and n / 2^18 < 1
        ties = [(2 ** (18 - d) * 10 ** (d - 1) + 7919 * (2 * j + 1)) / 2 ** (18 - d)
                for d in range(1, 16) for j in range(50)]
        ties += [n / 2 ** 18 for n in range(26215, 262144, 622)]
        ties += [1 + 2 ** -17, 1 + 3 * 2 ** -17]  # ...312|5 down, ...937|5 up
        assert all(len(exact_digits(t)) == 18 and exact_digits(t)[-1] == 5 for t in ties)
        lines = assert_matches_percent(tmp_path, (np.array(ties), -np.array(ties))).split("\n")
        assert lines[-3:-1] == ["1.0000076293945312,-1.0000076293945312",
                                "1.0000228881835938,-1.0000228881835938"]

    def test_simulate_csvs_match_the_percent_writer(self, tmp_path, monkeypatch, capsys):
        written = []

        def recording(path, header, columns):
            written.append((path, header, [np.array(column) for column in columns]))
            return write_table(path, header, columns)

        monkeypatch.setattr(sweep, "write_table", recording)
        assert main(["simulate", "--gamma-over-delta", "4", "--k0l", repr(math.pi / 4),
                     "--out", str(tmp_path)]) == 0
        assert len(written) == 6
        for path, header, columns in written:
            assert first_difference(Path(path).read_bytes(),
                                    percent_chunk_bytes(header, columns)) is None


class TestConfigBlocks:
    """Flat key = value sections with stable order."""

    SECTIONS = {
        "manifest": {"version": 7, "kind": "sweep"},
        "sweep": {"gamma_over_delta": 0.25, "models": "full", "dt_factor": 1.5},
    }

    def test_render(self):
        text = config_text(self.SECTIONS)
        assert text.startswith("[manifest]\nversion = 7\n")
        assert "\n\n[sweep]\n" in text

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
            parse_config_text("[sweep]\ngamma_over_delta 0.25\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("[sweep]\na = 1\na = 2\n")

    def test_default_section_and_key_case_are_kept(self):
        # [DEFAULT] is a section like any other, whose keys no other section
        # inherits, and a key keeps its case
        text = "[DEFAULT]\na = 1\n\n[sweep]\nK0L = 2\n"
        assert parse_config_text(text) == {"DEFAULT": {"a": 1}, "sweep": {"K0L": 2}}


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
