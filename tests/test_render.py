"""The column renderer against json.dumps and the row-at-a-time CSV writer.

Random flat row lists sharing one key order, and the real rows of every
command at its defaults, must render byte for byte as both oracles do.
"""

import json
import math

import numpy as np
import pytest

from thermoprobe import cli

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


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                               math.inf, -math.inf, math.nan])
FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
STRINGS = st.one_of(st.text(), st.text(alphabet='a"\\,%\n\u00e9\u2603\U0001f600'))
VALUES = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-2**64, 2**64), st.none(),
                   st.booleans(), STRINGS)
# a column of one kind takes the column-at-once paths, a mixed column the per-value one
COLUMNS = st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), FLOATS,
                           st.integers(-2**64, 2**64), VALUES])


@st.composite
def row_lists(draw):
    """Flat rows sharing one key order."""
    keys = draw(st.lists(STRINGS, min_size=1, max_size=5, unique=True))
    kinds = [draw(COLUMNS) for _ in keys]
    return [{k: draw(kind) for k, kind in zip(keys, kinds)} for _ in range(draw(st.integers(0, 6)))]


@settings(deadline=None, database=None)
@given(row_lists())
def test_matches_json_dumps_and_csv_oracle(rows):
    assert cli.render_rows(rows, "json") == json.dumps(rows, indent=2) + "\n"
    assert cli.render_rows(rows, "csv") == csv_oracle(rows)


def test_empty_row_list():
    assert cli.render_rows([], "json") == json.dumps([], indent=2) + "\n"
    assert cli.render_rows([], "csv") == csv_oracle([])


@pytest.mark.parametrize("command", sorted(cli._RUNNERS))
def test_command_rows_at_defaults(command):
    rows = cli._RUNNERS[command](dict(cli._DEFAULTS[command]))
    assert cli.render_rows(rows, "json") == json.dumps(rows, indent=2) + "\n"
    assert cli.render_rows(rows, "csv") == csv_oracle(rows)
