"""Writer bytes: CSV, JSON and aligned tables, pinned cell by cell."""

import csv
import io
import json
import math
from json.encoder import encode_basestring

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridamm.serialize import FORMATS, write_csv, write_json, write_rows, write_table

HEADER = ("step", "value", "label")
# int steps as dump_price_csv passes them, a float per edge of the double
# range, and labels that CSV must quote and JSON must escape
ROWS = [
    (0, math.nan, "sell_x"),
    (1, math.inf, "a,b"),
    (2, -math.inf, 'say "hi"'),
    (3, -0.0, "back\\slash"),
    (4, 5e-324, "two\nlines"),
    (5, 1.7976931348623157e308, ""),
    (6, 3.0, '": nan'),
    (7, 1e16, "plain"),
    (8, 0.1, "x"),
]

CSV = (
    'step,value,label\n'
    '0,nan,sell_x\n'
    '1,inf,"a,b"\n'
    '2,-inf,"say ""hi"""\n'
    '3,-0,back\\slash\n'
    '4,4.9406564584124654e-324,"two\nlines"\n'
    '5,1.7976931348623157e+308,\n'
    '6,3,""": nan"\n'
    '7,10000000000000000,plain\n'
    '8,0.10000000000000001,x\n'
)

JSON = (
    '[\n'
    '  {"step": 0, "value": null, "label": "sell_x"},\n'
    '  {"step": 1, "value": null, "label": "a,b"},\n'
    '  {"step": 2, "value": null, "label": "say \\"hi\\""},\n'
    '  {"step": 3, "value": -0, "label": "back\\\\slash"},\n'
    '  {"step": 4, "value": 4.9406564584124654e-324, "label": "two\\nlines"},\n'
    '  {"step": 5, "value": 1.7976931348623157e+308, "label": ""},\n'
    '  {"step": 6, "value": 3, "label": "\\": nan"},\n'
    '  {"step": 7, "value": 10000000000000000, "label": "plain"},\n'
    '  {"step": 8, "value": 0.10000000000000001, "label": "x"}\n'
    ']\n'
)

TABLE = (
    'step  value             label\n'
    '----  ----------------  ----------\n'
    '   0               nan      sell_x\n'
    '   1               inf         a,b\n'
    '   2              -inf    say "hi"\n'
    '   3                -0  back\\slash\n'
    '   4  4.940656458e-324   two\nlines\n'
    '   5  1.797693135e+308\n'
    '   6                 3      ": nan\n'
    '   7             1e+16       plain\n'
    '   8               0.1           x\n'
)


def written(writer, header, rows):
    handle = io.StringIO()
    writer(handle, header, rows)
    return handle.getvalue()


@pytest.mark.parametrize("writer, expected", [(write_csv, CSV), (write_json, JSON),
                                              (write_table, TABLE)])
def test_writer_bytes(writer, expected):
    assert written(writer, HEADER, ROWS) == expected
    # rows may be any iterable, as enumerate() is for dump_price_csv
    assert written(writer, HEADER, iter(ROWS)) == expected


@pytest.mark.parametrize("writer, expected", [
    (write_csv, "step,value,label\n"),
    (write_json, "[\n\n]\n"),
    (write_table, "step  value  label\n----  -----  -----\n"),
])
def test_writer_bytes_without_rows(writer, expected):
    assert written(writer, HEADER, []) == expected


def test_table_lines_end_without_spaces():
    # a last column 0 wide once left the rule line ending in its separator
    assert written(write_table, ("\\", ""), []) == "\\\n-\n"
    assert written(write_table, ("a", ""), [(1.5, "")]) == "a\n---\n1.5\n"


def test_csv_quotes_an_empty_lone_cell():
    # unquoted, the row would be a blank line, which csv.reader reads as no cells
    assert written(write_csv, ("name",), [("",), ("a",), ("b,c",)]) == 'name\n""\na\n"b,c"\n'
    assert written(write_csv, ("",), [("",)]) == '""\n""\n'


def test_json_nulls_in_an_all_number_table():
    rows = [(0, 1.0, math.nan), (1, 0.1, math.inf), (2, -2.5, -math.inf)]
    assert written(write_json, ("step", "price", "il"), rows) == (
        '[\n'
        '  {"step": 0, "price": 1, "il": null},\n'
        '  {"step": 1, "price": 0.10000000000000001, "il": null},\n'
        '  {"step": 2, "price": -2.5, "il": null}\n'
        ']\n'
    )


def test_write_rows_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        write_rows(io.StringIO(), "xml", HEADER, ROWS)


# names and labels with what CSV must quote and JSON must escape: control
# characters, a `\\` before a closing quote, and `%` in a format string
TEXT = st.text(st.sampled_from('a,"\\% \n\r\t\x01'), max_size=6)
FLOAT_ROWS = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.lists(TEXT, min_size=width + 1, max_size=width + 1, unique=True).map(tuple),
        st.lists(st.tuples(*[st.floats()] * width, TEXT), max_size=8)))


@settings(max_examples=300, deadline=None)
@given(FLOAT_ROWS)
@example((("a\\", "%\n"), [(math.nan, "\t\r\x01\\")]))
def test_float_rows_round_trip(table):
    header, rows = table
    csv_rows = list(csv.reader(io.StringIO(written(write_csv, header, rows), newline="")))
    assert csv_rows[0] == list(header)
    json_rows = json.loads(written(write_json, header, rows), parse_int=float)
    assert [list(row) for row in json_rows] == [list(header)] * len(rows)
    for row, csv_row, json_row in zip(rows, csv_rows[1:], json_rows, strict=True):
        for value, text, name in zip(row, csv_row, header, strict=True):
            if isinstance(value, str):
                assert text == json_row[name] == value
            elif math.isfinite(value):
                assert float(text).hex() == value.hex()
                assert json_row[name].hex() == value.hex()
            else:
                assert text == repr(value)
                assert json_row[name] is None


def reference_text(output_format, header, rows):
    """One cell at a time, as the README specifies each format."""
    def number(v, digits):
        return "%.*g" % (digits, v)
    if output_format == "csv":
        def quote(v):
            if len(header) == 1 and v == "":
                return '""'
            return v if set(',"\n\r').isdisjoint(v) else '"' + v.replace('"', '""') + '"'
        return "".join(",".join(quote(v) if isinstance(v, str) else number(v, 17) for v in row)
                       + "\n" for row in [header, *rows])
    if output_format == "json":
        def key(name):
            return encode_basestring(name).replace("\\\\", "\\u005c")
        objects = ["  {%s}" % ", ".join(
            "%s: %s" % (key(name), encode_basestring(v) if isinstance(v, str)
                        else number(v, 17) if math.isfinite(v) else "null")
            for name, v in zip(header, row)) for row in rows]
        return "[\n" + ",\n".join(objects) + "\n]\n"
    cells = [[v if isinstance(v, str) else number(v, 10) for v in row] for row in rows]
    widths = [max([len(name), *(len(row[j]) for row in cells)]) for j, name in enumerate(header)]
    lines = ["  ".join(map(str.ljust, header, widths)), "  ".join("-" * w for w in widths),
             *("  ".join(map(str.rjust, row, widths)) for row in cells)]
    return "".join(line.rstrip() + "\n" for line in lines)


EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
CELLS = {"float": st.floats() | st.sampled_from(EDGES),
         "int": st.integers(-2 ** 63, 2 ** 63), "str": TEXT}


@st.composite
def tables_sharing_columns(draw):
    """A header, the names of its shared columns, and tables whose cells in
    those columns are the same in each: the first table's."""
    width = draw(st.integers(1, 5))
    header = tuple(draw(st.lists(TEXT, min_size=width, max_size=width, unique=True)))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
    shared = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    length = draw(st.integers(0, 6))
    first = [draw(st.lists(CELLS[kind], min_size=length, max_size=length)) for kind in kinds]
    tables = [first] + [
        [column if keep else draw(st.lists(CELLS[kind], min_size=length, max_size=length))
         for column, keep, kind in zip(first, shared, kinds)]
        for _ in range(draw(st.integers(0, 2)))]
    names = [name for name, keep in zip(header, shared) if keep]
    return header, names, [list(zip(*columns)) if length else [] for columns in tables]


@settings(max_examples=300, deadline=None)
@given(tables_sharing_columns())
@example((("step", "price"), ["price"], [[(0, math.nan), (1, math.inf)],
                                         [(2.5, math.nan), (-0.0, math.inf)]]))
@example((("a", "%"), ["%"], [[("x", "%s"), ("y", "100%")], [("z", "%s"), ("w", "100%")]]))
# JSON skips its null pass when the cells' float sum is finite, as here; a finite table whose
# sum overflows still takes it, and so does one whose only non-finite cell is in its last row
@example((("step", "price"), ["step"], [[(0, 1.5), (1, -0.0)], [(0, 2.5), (1, 5e-324)]]))
@example((("a",), [], [[(1.7976931348623157e308,), (1.7976931348623157e308,)]]))
@example((("step", "il"), [], [[(0, 0.5), (1, -0.25), (2, math.nan)]]))
def test_shared_columns_write_the_same_bytes(table):
    header, names, tables = table
    for output_format in FORMATS:
        shared = dict.fromkeys(names)
        for rows in tables:
            handle, alone = io.StringIO(), io.StringIO()
            write_rows(handle, output_format, header, rows, shared)
            write_rows(alone, output_format, header, rows)
            assert handle.getvalue() == alone.getvalue() == reference_text(output_format, header,
                                                                           rows)
