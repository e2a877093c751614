"""The CLI contract under random flags and config files for all five commands.

Whatever the input, ``cli.main`` returns 0, 2 or 3 and raises nothing
(argparse's own rejection, ``SystemExit(2)``, counts as exit 2); an exit-0
output holds only finite numbers, and an exit 2 that ``main`` returns names
the field at fault, a parameter of the command, ``config`` or ``out``. Floats
are drawn log-uniform over [5e-324, 1e308], from the smallest subnormal up,
with their negatives, 0, +-inf and nan; every size is bounded so that no
example allocates much. About one call in 20 meets a file it cannot use: a
config file that cannot be read or parsed, an --out path in a missing
directory or naming a directory, or a stdout whose write or flush fails or
that is closed.
"""

import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thermoprobe import cli

from oracles import UNREADABLE_CONFIGS, UNWRITABLE_STDOUTS, flag, place_unreadable_config, unwritable_stdout

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def mostly(common, rare, odds=10):
    """``common``, or ``rare`` once in ``odds`` draws, so that most calls get
    past validation to the numerics."""
    return st.integers(1, odds).flatmap(lambda i: rare if i == odds else common)


MAGNITUDES = st.floats(-323.3, 308.0).map(lambda e: 10.0 ** e)
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

# a config value of the wrong type, or a flag value that does not parse; an
# int beyond the floats, which reads as inf; and a number given as text
JUNK = st.sampled_from(["abc", True, [1.5], {"a": 1}, None, "2..x", 10**400, "1.5"])

# a config file in place of the drawn one, an --out path or a stdout, that cannot be used
FAULT_KINDS = UNREADABLE_CONFIGS + ["out-missing-dir", "out-directory"] + UNWRITABLE_STDOUTS
FILE_FAULTS = mostly(st.none(), st.sampled_from(FAULT_KINDS), odds=20)


@st.composite
def invocations(draw):
    """(argv, config dict or None, file fault or None) for one random call of
    one command."""
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
    return argv, config or None, draw(FILE_FAULTS)


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


def each_file_fault(test):
    """One explicit example per kind of file fault and command, on top of the
    drawn ones, which reach some kinds only now and then."""
    for kind in FAULT_KINDS:
        for command in sorted(FIELDS):
            test = example(([command, "--format", "csv"], None, kind))(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
@each_file_fault
# the oscillator's equilibrium QFI where e^{-x/2} underflows and where x/2 does
@example((["equilibrium-scan", "--format", "csv", "--x-max", "1.7976931348623157e308", "--points", "50"],
          None, None))
@example((["equilibrium-scan", "--format", "csv", "--gap", "1e-16", "--x-min", "5e-324", "--x-max", "1",
           "--points", "3"], None, None))
def test_exit_code_and_finite_output(invocation):
    argv, config, fault = invocation
    out, err = io.StringIO(), io.StringIO()
    stdout = unwritable_stdout(fault) if fault in UNWRITABLE_STDOUTS else out
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        if fault in UNREADABLE_CONFIGS:
            place_unreadable_config(path, fault)
            argv = argv + ["--config", str(path)]
        elif config is not None:
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        if fault == "out-missing-dir":
            argv = argv + ["--out", str(Path(tmp) / "missing" / "out.csv")]
        elif fault == "out-directory":
            argv = argv + ["--out", tmp]
        stopped = False
        try:
            with redirect_stdout(stdout), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as stop:  # argparse rejected the arguments
            code, stopped = stop.code, True
    assert code in (0, 2, 3), (argv, config, fault, err.getvalue())
    assert not (fault and code == 0), (argv, config, fault)  # no fault is swallowed
    if code == 0:
        assert finite_numbers(out.getvalue(), argv[2]), (argv, config)
    if code == 2 and not stopped:
        names = "|".join([*FIELDS[argv[0]], "config", "out"])
        assert re.match(f"thermoprobe: configuration error: ({names}):", err.getvalue()), (argv, config, fault)
