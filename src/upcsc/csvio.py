"""The package's one CSV format: plain comma-separated fields, CRLF line
endings, floats as %.17g (round-trips float64 exactly), files replaced
atomically.

Fields are never quoted, so no field may contain a comma, a quote or a line
break; every writer in the package writes numbers and fixed identifiers only.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .errors import DataError, ShapeError

FLOAT_FORMAT = "%.17g"
CHUNK_ROWS = 8192


def format_rows(row_format: str, *columns):
    """Yield the rows of equal-length columns as CRLF-ended text, CHUNK_ROWS
    rows per string. A column is a sequence, a 1-D array, or a 2-D array whose
    columns are spread in order; `row_format` takes one field per column.
    No columns means no rows, so `*zip(*rows)` works for an empty `rows`."""
    fmt = row_format + "\r\n"
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ShapeError("CSV columns disagree in length")
    for start in range(0, n, CHUNK_ROWS):
        fields = []
        for col in columns:
            part = col[start:start + CHUNK_ROWS]
            if isinstance(part, np.ndarray):
                fields.extend(part.T.tolist() if part.ndim == 2 else [part.tolist()])
            else:
                fields.append(part)
        yield "".join([fmt % row for row in zip(*fields)])


def write_csv(path, header, chunks) -> None:
    """Write `header` and the text `chunks` to a temp file beside `path`, then
    move it over `path`; on any error the temp file is removed and `path` is
    left as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    # Unique among live processes; a leftover from a killed one is overwritten.
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_header(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return _first_line(fh, path)


def _first_line(fh, path) -> list[str]:
    """The fields of fh's first line. Reading it decodes a whole buffer of
    the file, so a byte that is not UTF-8 there raises DataError naming it."""
    try:
        return fh.readline().rstrip("\r\n").split(",")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_csv(path, header, dtype) -> np.ndarray:
    """The body of a CSV whose first line must be `header`, parsed by numpy's
    C reader into a 1-D array of `dtype` (a structured dtype for mixed
    columns). Either line ending is accepted; an empty body gives an empty
    array, and a malformed field raises DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        if _first_line(fh, path) != list(header):
            raise DataError(f"{path}: unexpected header")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
