"""Locale-independent table rendering: CSV, JSON, and aligned text.

Cells are strings or numbers.  Numbers are always written with 17
significant digits (``%.17g``), enough to round-trip any IEEE double exactly,
and with 10 in aligned tables; non-finite values become ``nan``/``inf`` in
CSV and text and ``null`` in JSON.  Strings pass through (escaped as ``json`` does in JSON).
"""

from __future__ import annotations

import itertools
import re
from json.encoder import encode_basestring
from typing import Sequence

__all__ = ["FORMATS", "write_csv", "write_json", "write_table", "write_rows"]

FORMATS = ("csv", "json", "table")

# nan, inf or -inf after a key; a quote in a string cell always follows a `\`
_JSON_NON_FINITE = re.compile(r': (?<=[^\\]": )(?:nan|-?inf)')


def _row_lines(rows, row_format, quote):
    """Each row through one format, ``row_format`` of the first row's specs, which
    every row shares: ``%.17g`` per number, ``%s`` per string, put through ``quote``."""
    rows = iter(rows)
    for first in rows:
        specs = ["%s" if isinstance(v, str) else "%.17g" for v in first]
        line, rows = row_format(specs), itertools.chain((first,), rows)
        if "%s" in specs:
            rows = ([quote(v) if isinstance(v, str) else v for v in row] for row in rows)
        return (line % tuple(row) for row in rows)
    return ()


def _csv_quote(value: str) -> str:
    return value if set(',"\n\r').isdisjoint(value) else '"' + value.replace('"', '""') + '"'


def write_csv(handle, header: Sequence[str], rows) -> None:
    # a lone empty cell is quoted, or its row would read as a blank line
    quote = _csv_quote if len(header) != 1 else lambda v: _csv_quote(v) or '""'
    handle.write(",".join(map(quote, header)) + "\n")
    handle.writelines(_row_lines(rows, lambda specs: ",".join(specs) + "\n", quote))


def write_json(handle, header: Sequence[str], rows) -> None:
    """Array of objects keyed by the header, floats at full precision."""
    # `\` in a key is \u005c: a key's closing quote never follows a `\`, a string's always does
    keys = ["%s: " % encode_basestring(name).replace("\\\\", "\\u005c").replace("%", "%%")
            for name in header]
    lines = _row_lines(rows, lambda specs: ",\n  {%s}" % ", ".join(map(str.__add__, keys, specs)),
                       encode_basestring)
    lines = (_JSON_NON_FINITE.sub(": null", line) for line in lines)
    handle.write("[" + next(lines, ",\n")[1:])  # the first row takes no comma
    handle.writelines(lines)
    handle.write("\n]\n")


def write_table(handle, header: Sequence[str], rows) -> None:
    """Aligned human-readable table; shorter 10-digit floats for scanning."""
    text_rows = [[v if isinstance(v, str) else "%.10g" % v for v in row] for row in rows]
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
