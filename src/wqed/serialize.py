"""Deterministic text artifacts: CSV tables, flat key = value config
blocks, and gnuplot scripts.

Everything here is byte-stable: floats carry 17 significant digits
(enough to round-trip IEEE doubles), newlines are UNIX, and no artifact
embeds timestamps or machine-specific paths.
"""

from __future__ import annotations

import configparser
import io
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError


def format_value(value) -> str:
    """One cell of a table or config: full-precision and re-parseable."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)  # inf/-inf/nan spelled out
        return format(value, ".17g")
    if isinstance(value, complex):
        raise ConfigurationError(
            "complex values must be split into re/im columns")
    return str(value)


def parse_value(text: str):
    """Inverse of format_value for scalars (bool/int/float fall-through str)."""
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip()


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

CSV_CHUNK_ROWS = 8192  # rows formatted by one `%` operation


def _write_columns(out, header: Sequence[str], columns: Sequence) -> None:
    """The one CSV writer: a header line, then the rows of the equal-length
    `columns` in chunks of CSV_CHUNK_ROWS.  A table of float64 arrays is
    formatted with `%.17g`, which equals format_value for every float (nan,
    inf, -0 and 1 included); any other table goes through format_value."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ConfigurationError(
            f"column lengths {[len(c) for c in columns]} differ")
    floats = all(getattr(c, "dtype", None) == np.float64 for c in columns)
    row_fmt = ",".join(["%.17g" if floats else "%s"] * len(columns)) + "\n"
    out.write(",".join(header) + "\n")
    for lo in range(0, n_rows, CSV_CHUNK_ROWS):
        chunk = [column[lo:lo + CSV_CHUNK_ROWS] for column in columns]
        cells = (np.column_stack(chunk).ravel().tolist() if floats else
                 [format_value(v) for row in zip(*chunk) for v in row])
        out.write((row_fmt * len(chunk[0])) % tuple(cells))


def _row_columns(header: Sequence[str], rows: Iterable[Sequence]) -> list:
    """Rows transposed to columns; a row of the wrong width is rejected."""
    rows = list(rows)
    for row in rows:
        if len(row) != len(header):
            raise ConfigurationError(
                f"row has {len(row)} cells, header has {len(header)}")
    return list(zip(*rows)) or [()] * len(header)


def write_table(path, header: Sequence[str], columns: Sequence) -> Path:
    """Write columns as CSV to path with UNIX newlines; returns the path."""
    path = Path(path)
    with open(path, "w", newline="\n") as out:
        _write_columns(out, header, columns)
    return path


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of rows, through the same writer as write_table."""
    out = io.StringIO()
    _write_columns(out, header, _row_columns(header, rows))
    return out.getvalue()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows as CSV to path with UNIX newlines; returns the path."""
    return write_table(path, header, _row_columns(header, rows))


def read_csv(path) -> tuple[list[str], list[list]]:
    """Read a csv_text artifact back: (header, rows of parsed scalars)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ConfigurationError(f"{path} is empty")
    header = lines[0].split(",")
    rows = [[parse_value(cell) for cell in line.split(",")]
            for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------
# flat config / manifest blocks
# ----------------------------------------------------------------------

def config_text(sections: Mapping[str, Mapping[str, object]]) -> str:
    """Flat `key = value` text with [section] headers, stable order."""
    out = io.StringIO()
    first = True
    for section, entries in sections.items():
        if not first:
            out.write("\n")
        first = False
        out.write(f"[{section}]\n")
        for key, value in entries.items():
            out.write(f"{key} = {format_value(value)}\n")
    return out.getvalue()


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Inverse of config_text; scalar values come back typed.

    Raises ConfigurationError carrying the parser's line-anchored message
    on malformed input.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return {section: {key: parse_value(value)
                      for key, value in parser.items(section)}
            for section in parser.sections()}


def write_config(path, sections: Mapping[str, Mapping[str, object]]) -> Path:
    path = Path(path)
    path.write_text(config_text(sections), newline="\n")
    return path


def read_config(path) -> dict[str, dict[str, object]]:
    return parse_config_text(Path(path).read_text())


# ----------------------------------------------------------------------
# plot scripts
# ----------------------------------------------------------------------

def gnuplot_script(title: str,
                   curves: Sequence[tuple[str, int, int, str]],
                   xlabel: str = "", ylabel: str = "") -> str:
    """Gnuplot script plotting (csv_path, x_column, y_column, label)
    curves (1-based columns).  Text artifact only; never rendered here."""
    if not curves:
        raise ConfigurationError("need at least one curve")
    lines = [
        f"# {title}",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set title "{title}"',
    ]
    if xlabel:
        lines.append(f'set xlabel "{xlabel}"')
    if ylabel:
        lines.append(f'set ylabel "{ylabel}"')
    plots = ", ".join(
        f'"{path}" using {xcol}:{ycol} with lines title "{label}"'
        for path, xcol, ycol, label in curves)
    lines.append("plot " + plots)
    return "\n".join(lines) + "\n"
