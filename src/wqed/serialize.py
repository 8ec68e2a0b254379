"""Deterministic text artifacts: CSV tables, flat key = value config
blocks, and gnuplot scripts.

Everything here is byte-stable: floats carry 17 significant digits
(enough to round-trip IEEE doubles), newlines are UNIX, and no artifact
embeds timestamps or machine-specific paths.

Float64 CSV tables are formatted in numpy, a block of whole rows and at
most BLOCK_VALUES cells at a time (one row if it alone is wider), with
the bytes of `'%.17g' % v` for every double.  A block is sized so that
its temporaries stay in cache and in pages the allocator keeps.
Non-finite values, magnitudes outside [1e-250, 1e250] and the rare value
whose rounding the double-double arithmetic cannot decide go through
`'%.17g' % v` itself.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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

# Cells formatted as one block, in max(1, BLOCK_VALUES // columns) rows.
# A block's temporaries take about 150 bytes a cell, 1.2 MB in all: under
# a 2 MiB L2 and the allocator's trim threshold, so every block reuses the
# pages of the one before instead of faulting in fresh ones.
BLOCK_VALUES = 8192

# A float64 table is formatted in numpy with the bytes of `'%.17g' % v`.
# Each |v| in [_FAST_MIN, _FAST_MAX] is scaled to its 17 significant digits
# D·10^(X-16), D an integer in [1e16, 1e17), by a double-double product
# against a table of 10^k, then laid out by the %g rules in a fixed slot
# of NUL-padded columns.  A value whose rounding is too close to call, or
# whose exponent does not settle, takes the per-value `%` fallback.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250   # the split neither overflows nor underflows
_POW10_MIN, _POW10_MAX = -240, 270      # every 16 - X of the fast range
_EXP_MIN, _EXP_MAX = -330, 330          # exponents of the "e-330" .. table
_TIE_MARGIN = 1e-6   # fractions this close to 1/2 are left to `%`
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17

# A slot is six 8-byte words, 48 bytes: the sign at byte 0, the prefix
# "0." .. "0.000" at 1-5, digit j of D at 6 + 2j with its point column at
# 7 + 2j (j = 0..16, so digits 1-16 fill words 1-4), "e+XXX" at 40-44 and
# the separator at 45.
_SLOT_WORDS = 6


class _Tables(NamedTuple):
    hi: np.ndarray       # 10^k ≈ hi + lo, at k - _POW10_MIN
    hi_high: np.ndarray  # hi's two Dekker halves
    hi_low: np.ndarray
    lo: np.ndarray
    heads: np.ndarray    # first word, at (50·sign + 10·p + d0)·2 + point,
                         # p = -X in fixed notation with X < 0, else 0
    pairs: np.ndarray    # word of 4 digits g, first c kept, at 10000·c + g
    last: np.ndarray     # 1-based place of g's last non-zero digit, g > 0
    kept: np.ndarray     # [i, L]: 10000·(digits of group i up to digit L)
    ends: np.ndarray     # last word, at 2·(X - _EXP_MIN + 1) + newline, or
                         # at 0 + newline without an exponent


@functools.cache
def _format_tables() -> _Tables:
    """The formatter's tables, built on the first float table.  Both parts
    of each 10^k, k in [_POW10_MIN, _POW10_MAX], are correctly rounded from
    exact integers."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        head = num / den  # int/int true division rounds correctly
        a, b = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)

    def words(strings, width=8):
        return np.frombuffer(b"".join(t.encode().ljust(width, b"\0")
                                      for t in strings), np.uint8).reshape(-1, width)

    heads = words(f"{sign}{prefix:\0<5}{d0}{point}" for sign in "\0-"
                  for prefix in ("", "0.", "0.0", "0.00", "0.000")
                  for d0 in range(10) for point in "\0.")
    quads = words((f"{g:04d}" for g in range(10000)), 4)
    pairs = np.zeros((5, 10000, 8), np.uint8)
    for kept in range(1, 5):
        pairs[kept, :, 0:2 * kept:2] = quads[:, :kept]
    last = 4 - np.argmax(quads[:, ::-1] != ord("0"), axis=1).astype(np.int16)
    last[0] = -64
    kept = np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4) * 10000
    ends = words(f"{exponent:\0<5}{separator}" for exponent in ["", *(
        f"e{x:+03d}" for x in range(_EXP_MIN, _EXP_MAX + 1))]
        for separator in ",\n")
    tables = _Tables(hi, *_split(hi), np.array(lo), heads.view(np.uint64).ravel(),
                     pairs.view(np.uint64).ravel(), last, kept, ends.view(np.uint64).ravel())
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of at most 26 significant bits."""
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _scaled(x: np.ndarray, exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor, fraction) of x·10^(16 - exp): a two-product of x and the
    table's hi, plus x·lo; about 1e-14 absolute error near 1e16..1e17."""
    tables = _format_tables()
    k = 16 - exp - _POW10_MIN
    ph, pl = tables.hi_high.take(k), tables.hi_low.take(k)
    prod = x * tables.hi.take(k)
    xh, xl = _split(x)
    tail = (((xh * ph - prod) + xh * pl + xl * ph) + xl * pl) + x * tables.lo.take(k)
    whole = np.floor(tail)
    frac = tail - whole
    up = frac == 1.0  # tail a hair below an integer: take the integer
    return prod.astype(np.int64) + whole.astype(np.int64) + up, frac * ~up


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, slow): |v| rounded to 17 significant digits is D·10^(X-16),
    D in [1e16, 1e17) and 0 for zeros; `slow` marks the values whose D and
    X are not settled exactly, which the caller formats with `%`."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    x = np.where(fast, a, 1.0)
    exp = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, exp)
    for _ in range(2):  # log10 may miss the exponent by one next to 10^k
        off = np.flatnonzero((whole < _D_MIN) | (whole >= _D_MAX))
        if not off.size:
            break
        exp[off] += np.where(whole[off] < _D_MIN, -1, 1)
        whole[off], frac[off] = _scaled(x[off], exp[off])
    slow = ((~fast & (a != 0.0)) | (whole < _D_MIN) | (whole >= _D_MAX)
            | (np.abs(frac - 0.5) < _TIE_MARGIN))
    digits = whole + (frac > 0.5)
    carry = digits == _D_MAX  # rounding reached 1e17: one more decade
    digits[carry] = _D_MIN
    exp += carry
    digits[a == 0.0] = 0  # "0", with the exponent 0 of x = 1
    return digits, exp, slow


def _slots(block: np.ndarray) -> np.ndarray:
    """The cells × _SLOT_WORDS words of a rows × columns float64 block:
    each slot's bytes, NULs dropped, are those of `'%.17g' % v` and then
    "," or, after a row's last cell, "\n".  Only the words outlive the
    call, so the caller's bytes copy does not sit on the other temporaries."""
    tables = _format_tables()
    v = block.ravel()
    digits, exp, slow = _decimal(v)
    head = digits // 10 ** 16
    digits -= head * 10 ** 16
    groups = []  # digits 1-4, 5-8, 9-12 and 13-16 of D
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        groups.append(digits // scale)
        digits -= groups[-1] * scale
    groups.append(digits)
    last_nonzero = np.zeros(v.size, np.int16)
    for i, group in enumerate(groups):
        np.maximum(last_nonzero, tables.last.take(group) + 4 * i, out=last_nonzero)
    scientific = (exp < -4) | (exp >= 17)
    point = np.where(scientific, 0, exp)  # the point follows this digit
    last_kept = np.maximum(point, last_nonzero)

    words = np.empty((v.size, _SLOT_WORDS), np.uint64)
    words[:, 0] = tables.heads.take(
        ((np.signbit(v) * 50 + np.clip(-point, 0, 4) * 10 + head) * 2)
        + ((point == 0) & (last_nonzero > 0)))
    for i, group in enumerate(groups):
        words[:, 1 + i] = tables.pairs.take(tables.kept[i].take(last_kept) + group)
    ends = 2 * np.where(scientific, exp - (_EXP_MIN - 1), 0)
    ends.reshape(block.shape)[:, -1] += 1
    words[:, -1] = tables.ends.take(ends)
    buf = words.view(np.uint8)
    rows = np.flatnonzero((point > 0) & (point < last_nonzero))
    buf[rows, 7 + 2 * point[rows]] = 46  # "." in digit X's point column
    for i in np.flatnonzero(slow):
        text = ("%.17g" % v[i]).encode()
        buf[i, :-3] = 0  # all but the separator and its padding
        buf[i, :len(text)] = np.frombuffer(text, np.uint8)
    return words


def _write_columns(out, header: Sequence[str], columns: Sequence) -> None:
    """The one CSV writer: a header line, then the rows of the equal-length
    `columns` in blocks of BLOCK_VALUES cells, as bytes to the binary stream
    `out`.  A table of float64 arrays goes through _slots, whose cells
    equal format_value for every float (nan, inf, -0 and 1 included); any
    other table goes through format_value."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ConfigurationError(
            f"column lengths {[len(c) for c in columns]} differ")
    floats = all(getattr(c, "dtype", None) == np.float64 for c in columns)
    out.write((",".join(header) + "\n").encode())
    block_rows = max(1, BLOCK_VALUES // max(1, len(columns)))
    for lo in range(0, n_rows, block_rows):
        block = [column[lo:lo + block_rows] for column in columns]
        if floats:
            out.write(_slots(np.column_stack(block)).tobytes().translate(None, b"\0"))
        else:
            out.write("".join(",".join(map(format_value, row)) + "\n"
                              for row in zip(*block)).encode())


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
    with open(path, "wb") as out:
        _write_columns(out, header, columns)
    return path


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of rows, through the same writer as write_table."""
    out = io.BytesIO()
    _write_columns(out, header, _row_columns(header, rows))
    return out.getvalue().decode()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows as CSV to path with UNIX newlines; returns the path."""
    return write_table(path, header, _row_columns(header, rows))


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
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


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
