"""Serialization: schema-checked case-series CSV input, atomic CSV/JSON output.

Floats are written with 17 significant digits so every value round-trips
exactly; files are written to a temporary sibling and atomically renamed, so
a failing command never leaves a partial file behind.  A CSV row is written
as one %-template applied to the row's cells, one template per row type
signature (the tuple of its cells' types): ``%.17g`` for a float or any
other number, ``%d`` for an integer or a boolean (numpy's too), ``%s`` for a
string.  A 2-D float array is one block of float rows: its signature is
read once, from its shape, and every row takes that template, applied to
``_BLOCK_ROWS`` rows at a time as one %-operation.
"""

from __future__ import annotations

import csv
import datetime
import functools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .calibrate import ObservedSeries
from .errors import DataError

CASE_SERIES_HEADER = ("date", "new_confirmed")


def _spec(kind: type) -> str:
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer, np.bool_)):  # bool is an int
        return "%d"
    return "%.17g"


@functools.lru_cache(maxsize=64)  # a program writes a handful of row signatures
def _template(kinds: tuple[type, ...]) -> str:
    return ",".join(map(_spec, kinds)) + "\n"


def _line(row) -> str:
    cells = tuple(row)
    # the key is unpacked into a tuple of its final size: tuple(map(...))
    # grows and shrinks it, which leaves up to 2 000 freed keys (0.25 MB for
    # 11 cells) on CPython's tuple free list
    return _template((*map(type, cells),)) % cells


def _atomic_write(path: Path, writer) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: rows of a float block formatted by one %-operation
_BLOCK_ROWS = 64


def _block_lines(block: np.ndarray):
    """The lines of a 2-D float array, ``_BLOCK_ROWS`` rows to a string: the
    row template repeated once per row, applied to the rows' floats."""
    template = _template((float,) * block.shape[1])
    for first in range(0, len(block), _BLOCK_ROWS):
        chunk = block[first:first + _BLOCK_ROWS]
        yield (template * len(chunk)) % tuple(chunk.ravel().tolist())


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write ``header`` and ``rows`` to ``path``: an iterable of rows, or a
    2-D float array, whose rows all take the one template of floats."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        lines = _block_lines(rows)
    else:
        lines = map(_line, rows)

    def writer(fh):
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)

    _atomic_write(Path(path), writer)


def write_json(path, payload: dict) -> None:
    def writer(fh):
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _atomic_write(Path(path), writer)


def read_case_series(path) -> ObservedSeries:
    """Parse a ``date,new_confirmed`` CSV into an ObservedSeries.

    Dates must be valid ISO-8601 calendar dates advancing by exactly one day;
    counts must be nonnegative numbers (observed series carry integers, but
    exact decimal counts are accepted so synthetic round trips stay lossless).
    Violations raise DataError carrying the 1-based line number; so does a
    file that cannot be read or is not UTF-8 CSV, and a series whose sum of
    squared counts overflows the float range.
    """
    path = Path(path)
    try:
        # a leading byte-order mark, as spreadsheets write, is dropped
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parse_case_series(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read case series {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV: {exc}") from exc


def _parse_case_series(reader) -> ObservedSeries:
    counts: list[float] = []
    start: datetime.date | None = None
    previous: datetime.date | None = None
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("file is empty; expected a header row", line=1) from None
    if tuple(h.strip() for h in header) != CASE_SERIES_HEADER:
        raise DataError(
            f"header must be {','.join(CASE_SERIES_HEADER)!r}, got {','.join(header)!r}",
            line=1)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"expected 2 fields, got {len(row)}", line=line_no)
        date_text, count_text = row[0].strip(), row[1].strip()
        try:
            date = datetime.date.fromisoformat(date_text)
        except ValueError:
            raise DataError(f"invalid ISO date {date_text!r}", line=line_no) from None
        if previous is not None and date != previous + datetime.timedelta(days=1):
            raise DataError(
                f"dates must advance by exactly one day; {date.isoformat()} "
                f"follows {previous.isoformat()}", line=line_no)
        try:
            count = float(count_text)
        except ValueError:
            raise DataError(f"count must be a number, got {count_text!r}",
                            line=line_no) from None
        if not 0.0 <= count < float("inf"):
            raise DataError(f"count must be finite and nonnegative, got {count_text}",
                            line=line_no)
        if start is None:
            start = date
        previous = date
        counts.append(count)
    if not counts:
        raise DataError("no data rows found")
    # a fit sums squared residuals, which must stay in the float range
    if not math.isfinite(sum(c * c for c in counts)):
        raise DataError("the sum of squared counts overflows the float range")
    return ObservedSeries(counts=np.array(counts), start_date=start)


def write_case_series(path, series: ObservedSeries) -> None:
    """Inverse of :func:`read_case_series`; counts round-trip exactly."""
    start = series.start_date or datetime.date(2020, 1, 1)
    rows = [((start + datetime.timedelta(days=i)).isoformat(),
             int(c) if float(c).is_integer() else c)
            for i, c in enumerate(series.counts)]
    write_csv(path, CASE_SERIES_HEADER, rows)
