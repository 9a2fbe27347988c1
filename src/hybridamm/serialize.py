"""Locale-independent table rendering: CSV, JSON, and aligned text.

Cells are strings or numbers.  Numbers are always written with 17
significant digits (``%.17g``), enough to round-trip any IEEE double exactly,
and with 10 in aligned tables; non-finite values become ``nan``/``inf`` in
CSV and text and ``null`` in JSON.  Strings pass through (quoted in JSON).
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

__all__ = ["FORMATS", "write_csv", "write_json", "write_table", "write_rows"]

FORMATS = ("csv", "json", "table")


def _cell(value, spec: str = "%.17g") -> str:
    return value if isinstance(value, str) else spec % value


def _json_cell(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "%.17g" % value if math.isfinite(value) else "null"


def write_csv(handle, header: Sequence[str], rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def write_json(handle, header: Sequence[str], rows) -> None:
    """Array of objects keyed by the header, floats at full precision."""
    handle.write("[\n")
    first = True
    for row in rows:
        if not first:
            handle.write(",\n")
        first = False
        pairs = ", ".join(f'"{name}": {_json_cell(value)}' for name, value in zip(header, row))
        handle.write("  {" + pairs + "}")
    handle.write("\n]\n")


def write_table(handle, header: Sequence[str], rows) -> None:
    """Aligned human-readable table; shorter 10-digit floats for scanning."""
    text_rows = [[_cell(v, "%.10g") for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    handle.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip() + "\n")
    handle.write("  ".join("-" * w for w in widths) + "\n")
    for row in text_rows:
        handle.write("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n")


def write_rows(handle, output_format: str, header: Sequence[str], rows) -> None:
    if output_format == "csv":
        write_csv(handle, header, rows)
    elif output_format == "json":
        write_json(handle, header, rows)
    elif output_format == "table":
        write_table(handle, header, rows)
    else:
        raise ValueError(f"unknown output format {output_format!r}; expected one of {FORMATS}")
