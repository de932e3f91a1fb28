"""The text layout every CSV artifact shares: a header line, then per row an
integer index counting from ``start`` and each value as the shortest
round-trip ``repr`` of its float64, every line ended by the file's
``newline``.  Reruns can therefore be compared byte for byte.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError, _shown


def _float_row(values: np.ndarray) -> str:
    """``",".join(repr(float(v)) for v in values)`` for a float64 row, formatted
    in one call: the repr of a list of floats is each float's repr joined by
    ", ", and no float repr contains ", "."""
    return repr(values.tolist())[1:-1].replace(", ", ",")


def write_table(path, header: Sequence[str], table, start: int, newline: str) -> None:
    """Write a 2-d table, one row at a time, so it never exists as one string."""
    table = np.asarray(table, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + newline)
        for index, row in enumerate(table, start=start):
            fh.write(f"{index},{_float_row(row)}{newline}")


def read_table(
    path, start: int, header_ok: Callable[[list[str]], bool]
) -> tuple[list[str], np.ndarray]:
    """Read a table back as its header and a float64 array whose row
    ``i - start`` holds the values of index ``i``, in any row order.

    Blank lines are skipped.  An empty file, a header ``header_ok`` rejects,
    a row with the wrong number of fields, a non-numeric, NaN or infinite
    value, and an index that repeats or falls outside
    ``start .. start + rows - 1`` (which is how a missing index shows), and
    a line the csv module cannot split, raise :class:`ParseError` with the
    line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path} is empty", 1)
            if not header_ok(header):
                raise ParseError(f"unexpected header {_shown(','.join(header))}", 1)
            rows = []  # (line, index, values)
            for row in filter(None, reader):
                line = reader.line_num
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", line)
                try:
                    index, values = int(row[0]), list(map(float, row[1:]))
                except ValueError:
                    raise ParseError("non-numeric value", line) from None
                if not all(map(math.isfinite, values)):
                    raise ParseError("NaN or infinite value", line)
                rows.append((line, index, values))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ParseError(str(exc), reader.line_num) from None
    if not rows:
        raise ParseError(f"{path} has no data rows", 2)
    lines, indices, values = zip(*rows)
    stop = start + len(rows)
    placed: dict[int, int] = {}  # index -> line
    for line, index in zip(lines, indices):
        if not start <= index < stop:
            raise ParseError(f"index {index} outside {start}..{stop - 1}", line)
        if index in placed:
            raise ParseError(f"index {index} repeats line {placed[index]}", line)
        placed[index] = line
    table = np.empty((len(rows), len(header) - 1))
    table[np.subtract(indices, start)] = values
    return header, table


def re_im(values) -> np.ndarray:
    """A vector as two columns, real and imaginary part."""
    values = np.asarray(values)
    return np.column_stack([values.real, values.imag])


def complex_column(table: np.ndarray, column: int) -> np.ndarray:
    """Columns ``column`` and ``column + 1`` read back as ``re + i im`` bit for
    bit; real when every imaginary part is zero."""
    pair = np.ascontiguousarray(table[:, column : column + 2])
    return pair[:, 0] if not pair[:, 1].any() else pair.view(np.complex128)[:, 0]
