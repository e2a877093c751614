"""The column renderer against json.dumps and the row-at-a-time CSV writer.

Random tables, fixed tables with scalar columns at every position, and the
real tables of every command at its defaults, must render byte for byte as
both oracles render the rows the table stands for.
"""

import json

import numpy as np
import pytest

from thermoprobe import cli
from thermoprobe.numerics import Table

from oracles import rows_of

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def csv_oracle(rows):
    """The CSV renderer as it was before columns were encoded at once."""

    def format_cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def assert_renders_as_oracles(table):
    rows = rows_of(table)
    # the benchmark's tracer counts rendered rows as len(table)
    assert len(table) == len(rows)
    assert cli.render_rows(table, "json") == json.dumps(rows, indent=2) + "\n"
    assert cli.render_rows(table, "csv") == csv_oracle(rows)


# a Table holds only finite floats, so no inf or NaN is drawn
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                               1.7976931348623157e308])
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)
STRINGS = st.one_of(st.text(), st.text(alphabet='a"\\,%\n\u00e9\u2603\U0001f600'))
VALUES = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-2**64, 2**64), st.none(),
                   st.booleans(), STRINGS)
# a column of exact ints or floats takes the repr path, a mixed column the split of one dump
COLUMNS = st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), FLOATS,
                           st.integers(-2**64, 2**64), VALUES])


@st.composite
def tables(draw):
    """Tables of up to four blocks. Each column is a list shared by every
    block, a list of its own in each block, or a scalar label per block."""
    keys = draw(st.lists(STRINGS, min_size=1, max_size=5, unique=True))
    kinds = [draw(COLUMNS) for _ in keys]
    roles = draw(st.lists(st.sampled_from(["shared", "own", "scalar"]),
                          min_size=len(keys), max_size=len(keys)))
    if set(roles) == {"scalar"}:
        roles[draw(st.integers(0, len(keys) - 1))] = draw(st.sampled_from(["shared", "own"]))
    length = draw(st.integers(0, 6))
    shared = {k: draw(st.lists(kind, min_size=length, max_size=length))
              for k, kind, role in zip(keys, kinds, roles) if role == "shared"}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        count = length if shared else draw(st.integers(0, 6))
        blocks.append(tuple(
            shared[k] if role == "shared"
            else draw(st.lists(kind, min_size=count, max_size=count)) if role == "own"
            else draw(kind)
            for k, kind, role in zip(keys, kinds, roles)
        ))
    return Table(tuple(keys), blocks)


@settings(deadline=None, database=None)
@given(tables())
def test_matches_json_dumps_and_csv_oracle(table):
    assert_renders_as_oracles(table)


SHARED = [0.1, -2.5e-320, 3]
TRICKY = 'q"b\\p%\u00e9\u2603\U0001f600'
# one mixed list for the split of a single dump: a newline, which the dump
# escapes, a quote, a comma, a non-ASCII character, None, a bool, an int
# beyond the floats, a float subclass and a negative zero
HAZARDS = ['a\nb"c,\u00e9', None, True, 2**70, np.float64(0.1), -0.0]


@pytest.mark.parametrize("table", [
    # a scalar column first, next to another scalar, then the lists
    Table(("prep", "N", "dt", "rate"), [(TRICKY, 2, SHARED, [1.0, 2.0, 3.0]), ("ground", None, SHARED, [4, 5, 6])]),
    # a scalar column last, after a mixed list
    Table(("dt", "excess", "label"), [(SHARED, [None, 1.5, True], TRICKY), ([7.0], [False], 1e-300)]),
    # two scalars between lists, and one list in two columns of a block
    Table(("a", "b", "c", "d", "e"), [([1], TRICKY, -0.0, [2.5], None), (SHARED, 2**70, "", SHARED, False)]),
    # the blocks as a generator, which the table reads once to check them
    Table(("prep", "N", "dt"), ((prep, n, SHARED) for prep, n in [(TRICKY, 2), ("ground", None)])),
    # a mixed list shared by two blocks
    Table(("v", "label"), [(HAZARDS, 1.5), (HAZARDS, TRICKY)]),
], ids=["scalars-first", "scalar-last", "scalars-between", "generator-blocks", "mixed-shared"])
def test_scalar_columns_at_every_position(table):
    assert_renders_as_oracles(table)


def test_empty_row_list():
    # no blocks, or blocks whose lists are empty
    for table in [Table(("a",), []), Table(("a",), [([],)]), Table(("a", "b"), [([], "x"), ([], "y")])]:
        assert_renders_as_oracles(table)


@pytest.mark.parametrize("blocks", [
    [([1, 2], [3])],  # lists of two lengths
    [(1, 2)],         # no list gives the block's length
    [([1],)],         # one entry for two columns
])
def test_malformed_block_is_rejected(blocks):
    with pytest.raises(ValueError):
        Table(("a", "b"), blocks)


@pytest.mark.parametrize("command", sorted(cli._RUNNERS))
def test_command_rows_at_defaults(command):
    assert_renders_as_oracles(cli._RUNNERS[command](dict(cli._DEFAULTS[command])))
