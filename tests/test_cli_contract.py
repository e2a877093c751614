"""The CLI contract under random flags and config files for all five commands.

Whatever the input, ``cli.main`` returns 0, 2 or 3 and raises nothing
(argparse's own rejection, ``SystemExit(2)``, counts as exit 2), and an
exit-0 output holds only finite numbers. Floats are drawn log-uniform over
[1e-320, 1e308], with their negatives, 0, +-inf and nan; every size is
bounded so that no example allocates much.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thermoprobe import cli

from oracles import flag

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def mostly(common, rare, odds=10):
    """``common``, or ``rare`` once in ``odds`` draws, so that most calls get
    past validation to the numerics."""
    return st.integers(1, odds).flatmap(lambda i: rare if i == odds else common)


MAGNITUDES = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)
FLOATS = mostly(MAGNITUDES, st.one_of(
    MAGNITUDES.map(lambda v: -v), st.sampled_from([0.0, math.inf, -math.inf, math.nan])))


def ints(hi):
    return mostly(st.integers(2, hi), st.integers(-2, 1))


def int_lists(hi, lo=2):
    """A list of ints, or a list field's string form: '2,4' or '2..10'."""
    entries = mostly(st.integers(lo, hi), st.integers(-1, lo - 1), odds=30)
    values = mostly(st.lists(entries, min_size=1, max_size=5), st.just([]))
    return st.one_of(
        values,
        values.map(lambda v: ",".join(map(str, v))),
        st.tuples(entries, entries).map(lambda r: f"{min(r)}..{max(r)}"),
    )


FLOAT_LISTS = st.one_of(st.lists(FLOATS, max_size=3), st.lists(FLOATS, max_size=3).map(
    lambda v: ",".join(map(repr, v))))

# Every parameter of every command with its value strategy; the bounds keep
# --n-max <= 80, --points <= 300, list entries <= 70 and transient --n <= 50.
FIELDS = {
    "equilibrium-scan": {"n": int_lists(70), "gap": FLOATS, "x_min": FLOATS, "x_max": FLOATS,
                         "points": ints(300), "harmonic": st.booleans()},
    "optimal-gap": {"n": int_lists(70), "n0": int_lists(9, lo=1), "temperature": FLOATS},
    "hessian-check": {"n_min": ints(80), "n_max": ints(80), "temperature": FLOATS},
    "transient-scan": {"gamma": FLOATS, "temperature": FLOATS, "gap": st.one_of(st.none(), FLOATS),
                       "n": int_lists(50), "t_prep": FLOAT_LISTS, "include_plus": st.booleans(),
                       "include_harmonic": st.booleans(), "points": ints(300),
                       "span_min": FLOATS, "span_max": FLOATS},
    "limits": {"n": int_lists(70), "gamma": FLOATS, "temperature": FLOATS},
}

# a config value of the wrong type, or a flag value that does not parse
JUNK = st.sampled_from(["abc", True, [1.5], {"a": 1}, None, "2..x"])


@st.composite
def invocations(draw):
    """(argv, config dict or None) for one random call of one command."""
    command = draw(st.sampled_from(sorted(FIELDS)))
    argv, config = [command, "--format", draw(st.sampled_from(["csv", "json"]))], {}
    for key, values in FIELDS[command].items():
        where = draw(st.sampled_from(["default", "flag", "config"]))
        if where == "default":
            continue
        value = draw(mostly(values, JUNK, odds=20))
        as_flag = flag(key, value) if where == "flag" else None
        if as_flag is None:
            config[key] = value
        else:
            argv += as_flag
    if draw(st.integers(1, 20)) == 20:
        config["unknown_field"] = 1
    return argv, config or None


def finite_numbers(text, fmt):
    """Whether every number in a CSV or JSON output is finite."""
    if fmt == "json":
        values = [v for row in json.loads(text) for v in row.values()]
    else:
        values = []
        for cell in (c for line in text.splitlines()[1:] for c in line.split(",")):
            try:
                values.append(float(cell))
            except ValueError:  # a label such as "ho" or "thermal-0.8", or an empty cell
                pass
    return all(math.isfinite(v) for v in values if isinstance(v, float))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_exit_code_and_finite_output(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as stop:  # argparse rejected the arguments
            code = stop.code
    assert code in (0, 2, 3), (argv, config, err.getvalue())
    if code == 0:
        assert finite_numbers(out.getvalue(), argv[2]), (argv, config)
