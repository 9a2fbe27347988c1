"""Locale-independent table rendering: CSV, JSON, and aligned text.

Cells are strings or numbers.  Numbers are always written with 17
significant digits (``%.17g``), enough to round-trip any IEEE double exactly,
and with 10 in aligned tables; non-finite values become ``nan``/``inf`` in
CSV and text and ``null`` in JSON.  Strings pass through (escaped as ``json`` does in JSON).
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress, repeat
from json.encoder import encode_basestring
from typing import Optional, Sequence

__all__ = ["FORMATS", "write_csv", "write_json", "write_table", "write_rows"]

FORMATS = ("csv", "json", "table")

# nan, inf or -inf after a key; a quote in a string cell always follows a `\`
_JSON_NON_FINITE = re.compile(r': (?<=[^\\]": )(?:nan|-?inf)')


def _rows_text(header, rows, row_format, quote, shared):
    """All rows through one ``%``-format, ``row_format`` of the first row's specs
    repeated, which every row shares: ``%.17g`` per number, ``%s`` per string,
    put through ``quote``.  With ``shared`` (see write_rows), the first call
    writes the cells of the columns it names into that format and keeps it,
    so each call formats only the other cells."""
    rows = list(rows)
    if not rows:
        return ""
    specs = ["%s" if isinstance(v, str) else "%.17g" for v in rows[0]]
    if "%s" in specs:
        rows = [[quote(v) if isinstance(v, str) else v for v in row] for row in rows]
    if shared is None:
        return row_format(specs) * len(rows) % tuple(chain.from_iterable(rows))
    own = [name not in shared for name in header]
    if None not in shared:
        # a shared cell's text goes into the format, its `%` doubled
        shared[None] = "".join(
            row_format([spec if mine else (spec % v).replace("%", "%%")
                        for spec, mine, v in zip(specs, own, row)])
            for row in rows)
    return shared[None] % tuple(chain.from_iterable(map(compress, rows, repeat(own))))


def _csv_quote(value: str) -> str:
    return value if set(',"\n\r').isdisjoint(value) else '"' + value.replace('"', '""') + '"'


def write_csv(handle, header: Sequence[str], rows, shared: Optional[dict] = None) -> None:
    # a lone empty cell is quoted, or its row would read as a blank line
    quote = _csv_quote if len(header) != 1 else lambda v: _csv_quote(v) or '""'
    handle.write(",".join(map(quote, header)) + "\n")
    handle.write(_rows_text(header, rows, lambda specs: ",".join(specs) + "\n", quote, shared))


def write_json(handle, header: Sequence[str], rows, shared: Optional[dict] = None) -> None:
    """Array of objects keyed by the header, floats at full precision."""
    # `\` in a key is \u005c: a key's closing quote never follows a `\`, a string's always does
    keys = ["%s: " % encode_basestring(name).replace("\\\\", "\\u005c").replace("%", "%%")
            for name in header]
    rows = list(rows)
    text = _rows_text(header, rows,
                      lambda specs: ",\n  {%s}" % ", ".join(map(str.__add__, keys, specs)),
                      encode_basestring, shared) or ",\n"
    try:   # a float sum of the cells is finite only if every cell is
        finite = math.isfinite(sum(chain.from_iterable(rows)))
    except (TypeError, OverflowError):   # a string cell, or an int past double range
        finite = False
    # the first row takes no comma
    handle.write("[" + (text if finite else _JSON_NON_FINITE.sub(": null", text))[1:] + "\n]\n")


def write_table(handle, header: Sequence[str], rows, shared: Optional[dict] = None) -> None:
    """Aligned human-readable table; shorter 10-digit floats for scanning."""
    rows = list(rows)
    kept = shared.get(None) if shared is not None else None
    columns = [kept[j] if kept and j in kept
               else [v if isinstance(v, str) else "%.10g" % v for v in (row[j] for row in rows)]
               for j in range(len(header))]
    if shared is not None and kept is None:
        shared[None] = {j: columns[j] for j, name in enumerate(header) if name in shared}
    widths = [max([len(name), *map(len, column)]) for name, column in zip(header, columns)]
    handle.write("  ".join(map(str.ljust, header, widths)).rstrip() + "\n")
    handle.write("  ".join("-" * w for w in widths).rstrip() + "\n")
    for cells in zip(*columns):
        handle.write("  ".join(map(str.rjust, cells, widths)).rstrip() + "\n")


def write_rows(handle, output_format: str, header: Sequence[str], rows,
               shared: Optional[dict] = None) -> None:
    """Write ``rows`` under ``header`` in ``output_format``, one of FORMATS.

    ``shared`` is for a caller that writes several tables of one format,
    header and length whose cells in some columns are equal, bit for bit, in
    every table: a dict that maps those columns' names to None, passed to
    each call.  The first call keeps in it, under the key None, the text it
    wrote for those columns, and later calls write that text again instead
    of formatting those columns.
    """
    if output_format == "csv":
        write_csv(handle, header, rows, shared)
    elif output_format == "json":
        write_json(handle, header, rows, shared)
    elif output_format == "table":
        write_table(handle, header, rows, shared)
    else:
        raise ValueError(f"unknown output format {output_format!r}; expected one of {FORMATS}")
