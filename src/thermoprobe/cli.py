"""Command-line front end: emits the package's standard data series as CSV or
JSON files with deterministic, full-precision formatting.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import gc
import io
import json
import math
import sys
from itertools import chain, repeat

from .dynamics import (
    DissipationModel,
    optimal_interrogation_ratio,
    qfi_harmonic_transient,
    qfi_transient,
    qfi_transient_plus,
    ultimate_rate,
)
from .equilibrium import hessian_certificate, optimal_gap, qfi_effective_two_level, qfi_harmonic_equilibrium
from .numerics import NonFiniteState, Table, geometric_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


def _cells(values, fmt):
    """Each scalar of a list as ``json.dumps`` writes it: by repr if all are exact ints and floats, else split from
    one dump of the list, which escapes each newline in a value. In CSV a str is itself and None is empty."""
    if set(map(type, values)) <= {int, float}:
        return list(map(repr, values))
    cells = json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    if fmt == "csv":
        cells = ["" if v is None else v if isinstance(v, str) else c for v, c in zip(values, cells)]
    return cells


def render_rows(table, fmt):
    """Serialize a Table to CSV (shortest round-trip floats) or JSON, byte for byte as ``json.dumps(rows, indent=2)``
    of its rows as dicts. ``_cells`` encodes the column names, each block's scalars, folded into the constant text
    around them, and each distinct column list once, however many blocks share it: a row is its list cells, one
    constant text before each and one after the last. The tail replaces the last row's ending."""
    if not len(table):
        return "[]\n" if fmt == "json" else "\n"
    names = _cells(list(table.columns), fmt)
    if fmt == "json":
        starts = [(",\n" if i else "  {\n") + "    " + k + ": " for i, k in enumerate(names)]
        head, end, tail = "[\n", "\n  },\n", "\n  }\n]\n"
    else:
        starts = [""] + [","] * (len(names) - 1)
        head, end, tail = ",".join(names) + "\n", "\n", "\n"
    parts, encoded = [head], {}
    for block in table.blocks:
        streams, text = [], ""
        for start, values in zip(starts, block):
            if not isinstance(values, list):
                text += start + _cells([values], fmt)[0]
                continue
            if id(values) not in encoded:
                encoded[id(values)] = _cells(values, fmt)
            streams += repeat(text + start), encoded[id(values)]
            text = ""
        streams.append(repeat(text + end))  # the repeats are endless: zip stops at the block's lists
        parts += chain.from_iterable(zip(*streams))
    parts[-1] = parts[-1].removesuffix(end) + tail
    return "".join(parts)


_DEFAULTS, _ROWS, _RUNNERS = {}, {}, {}


def _command(name, field, rows, **defaults):
    """Declare the runner of command ``name`` and its defaults, in --help order.
    As its last rule, the config pass reserves about 1 kB for each of the
    ``rows(params)`` most output rows, naming ``field`` if they do not fit."""
    def declare(runner):
        _DEFAULTS[name], _ROWS[name], _RUNNERS[name] = defaults, (field, rows), runner
        return runner
    return declare


@_command("equilibrium-scan", "points", lambda p: p["points"] * (len(p["n"]) + 1),
          n=[2, 4, 6, 8, 10], gap=1.0, x_min=0.5, x_max=50.0, points=400, harmonic=True)
def cmd_equilibrium_scan(params):
    """QFI vs temperature curves at fixed gap"""
    gap = params["gap"]
    xs = geometric_grid(params["x_min"], params["x_max"], params["points"])
    temperatures = [gap / v for v in xs]
    if not all(math.isfinite(t) and t > 0.0 for t in temperatures):
        raise NonFiniteState(f"temperature gap/x is not finite and positive on the grid (gap={gap:g})")

    def block(label, values):
        peak = max(values)
        if not peak > 0.0:
            raise NonFiniteState(f"QFI curve N={label} has peak {peak}, which cannot normalize it")
        return label, temperatures, values, [v / peak for v in values]
    blocks = [block(n, qfi_effective_two_level(xs, n, gap)) for n in params["n"]]
    if params["harmonic"]:
        blocks.append(block("ho", qfi_harmonic_equilibrium(gap, temperatures)))
    return Table(("N", "T", "qfi", "qfi_normalized"), blocks)


@_command("optimal-gap", "n", lambda p: len(p["n"]) * len(p["n0"]), n=list(range(2, 11)), n0=[1], temperature=1.0)
def cmd_optimal_gap(params):
    """variance-maximizing gaps and peak QFI"""
    n_list, n0_list, t = params["n"], params["n0"], params["temperature"]
    for n in n_list:
        for n0 in n0_list:
            if not 1 <= n0 <= n - 1:
                raise ConfigError("n0", f"n0={n0} outside [1, {n - 1}] for n={n}")
    ns = [n for n in n_list for _ in n0_list]
    n0s = [n0 for _ in n_list for n0 in n0_list]
    x, qfi, excess = optimal_gap(ns, n0s, t)
    return Table(("N", "n0", "x_star", "gap", "qfi_peak", "variance_excess_vs_lower_n0"),
                 [(ns, n0s, x, [t * v for v in x], qfi, excess)])


@_command("hessian-check", "n_max", lambda p: p["n_max"] - p["n_min"] + 1, n_min=2, n_max=20, temperature=1.0)
def cmd_hessian_check(params):
    """curvature certificate of the optimal spectrum"""
    return hessian_certificate(range(params["n_min"], params["n_max"] + 1))


@_command("transient-scan", "points", lambda p: p["points"] * (len(p["n"]) + len(p["t_prep"]) + 2),
          gamma=1e-3, temperature=1.0, gap=None, n=[2, 4, 10], t_prep=[0.8, 0.9], include_plus=False,
          include_harmonic=False, points=200, span_min=1e-3, span_max=20.0)
def cmd_transient_scan(params):
    """QFI per unit time vs interrogation time"""
    labels = [f"thermal-{t_prep:g}" for t_prep in params["t_prep"]]
    if len(set(labels)) < len(labels):
        raise ConfigError("t_prep", f"temperatures {params['t_prep']} share a series label: {labels}")
    gap = params["gap"]
    if gap is None:
        gap = optimal_interrogation_ratio() * params["temperature"]
        if not math.isfinite(gap):
            raise NonFiniteState(f"default gap x_tilde * T overflows at T={params['temperature']:g}")
    model = DissipationModel(gap=gap, temperature=params["temperature"], coupling=params["gamma"])
    tau = model.relaxation_time
    start, stop = params["span_min"] * tau, params["span_max"] * tau
    if tau > 0.0 and start < sys.float_info.min:
        # a subnormal contact time carries too few digits for its rate
        raise ConfigError("span_min", f"first contact time span_min * tau = {start:g} is "
                          f"below the smallest normal float; need span_min >= {sys.float_info.min / tau:g}")
    if not (start > 0.0 and stop < math.inf):
        raise NonFiniteState(f"interrogation grid [{start:g}, {stop:g}] for relaxation time {tau:g} "
                             "is not finite and positive")
    dts, blocks = geometric_grid(start, stop, params["points"]), []

    def add_curve(label, n, qfi):  # the QFI per unit contact time; every block shares dts
        blocks.append((label, n, dts, [v / d for v, d in zip(qfi, dts)]))

    for n in params["n"]:
        add_curve("ground", n, qfi_transient(n, math.inf, model, dts))
    for label, t_prep in zip(labels, params["t_prep"]):
        add_curve(label, 2, qfi_transient(2, gap / t_prep, model, dts))
    if params["include_plus"]:
        add_curve("plus", 2, qfi_transient_plus(model, dts))
    if params["include_harmonic"]:
        add_curve("harmonic", "ho", qfi_harmonic_transient(model, dts))
    return Table(("prep", "N", "dt", "fisher_rate"), blocks)


@_command("limits", "n", lambda p: len(p["n"]), n=[2, 4, 10], gamma=1e-3, temperature=1.0)
def cmd_limits(params):
    """short-interrogation sensitivity bounds"""
    x_tilde = optimal_interrogation_ratio()
    rates = [ultimate_rate(n, x_tilde, params["gamma"], params["temperature"]) for n in params["n"]]
    return Table(("N", "x_tilde", "rate"), [(list(params["n"]), x_tilde, rates)])


# Rules that parameters share across commands, each applied to every command
# that has the key: finite and positive, per entry of a list and skipping a
# None gap; probe dimensions and grid sizes of at least 2; lists that must not
# be empty (an empty t_prep asks for no thermal series); and ordered pairs
# (low, high, strict), with high above low, or at least low where not strict.
_POSITIVE = {"gap", "x_min", "x_max", "temperature", "gamma", "t_prep", "span_min", "span_max"}
_AT_LEAST_TWO = {"n", "n_min", "points"}
_NON_EMPTY = {"n", "n0"}
_ORDERED = [("x_min", "x_max", True), ("span_min", "span_max", True), ("n_min", "n_max", False)]


def _build_parser():
    """One flag per key of ``_DEFAULTS``, --no-<key> for a switch that is on by
    default; each defaults to None, so that only the flags given override."""
    parser = argparse.ArgumentParser(
        prog="thermoprobe",
        description="Precision limits of single-probe thermometry as machine-readable data series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_RUNNERS[command].__doc__)
        for key, default in defaults.items():
            name = key.replace("_", "-")
            if isinstance(default, bool):  # a switch; its flag turns it the other way
                p.add_argument(f"--no-{name}" if default else f"--{name}", dest=key, default=None,
                               action="store_false" if default else "store_true",
                               help=f"{key} is {'on' if default else 'off'} by default")
            else:
                shown = ",".join(map(str, default)) if isinstance(default, list) else default
                p.add_argument(f"--{name}", dest=key, default=None, help=f"default: {shown}")
        p.add_argument("--config", help="JSON file with parameter defaults")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _parse(key, value, default):
    """A flag's text, or a config value read as that text would be, as the type
    of the entries of ``default``. A switch takes only a bool, null only stands
    for a None default and a list only for a list key; anything else is text,
    a list joined with commas: ints or floats, '' for no entries, and for ints
    also an inclusive range 'lo..hi'. A number beyond the floats reads as inf."""
    if (isinstance(default, bool) or isinstance(value, bool) or value is None
            or not isinstance(value, str) and isinstance(value, list) != isinstance(default, list)):
        if type(value) is type(default):
            return value
        raise ConfigError(key, f"must match the type of its default {default!r}, got {value!r}")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    entry = default[0] if isinstance(default, list) else default
    kind = int if isinstance(entry, int) else float
    try:
        if not isinstance(default, list):
            return kind(text)
        if kind is int and ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [kind(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ConfigError(key, f"cannot parse {text!r} as {kind.__name__}") from None
    except (MemoryError, OverflowError):
        raise ConfigError(key, f"range {text!r} is too large") from None


def build_run_config(args):
    """Parameters of the command: CLI flags over a JSON config file over
    built-in defaults, each read by ``_parse`` and checked against the shared rules."""
    command = args.command
    defaults = _DEFAULTS[command]
    params, loaded = dict(defaults), {}
    if args.config:
        try:
            with open(args.config) as file:
                loaded = json.load(file)
        except (OSError, ValueError, RecursionError) as err:  # ValueError: not UTF-8, not JSON
            raise ConfigError("config", f"cannot read {args.config}: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
    flags = [(key, value) for key, value in vars(args).items() if key in defaults and value is not None]
    for key, value in [*loaded.items(), *flags]:
        if key not in defaults:
            raise ConfigError("config", f"unknown parameter {key!r} for {command}")
        params[key] = _parse(key, value, defaults[key])
    for key, value in params.items():
        entries = value if isinstance(value, list) else [value]
        if key in _NON_EMPTY and not entries:
            raise ConfigError(key, "list must not be empty")
        if key in _POSITIVE and not all(v is None or 0 < v < math.inf for v in entries):
            raise ConfigError(key, f"must be finite and positive, got {value}")
        if key in _AT_LEAST_TWO and not all(v >= 2 for v in entries):
            raise ConfigError(key, f"must be at least 2, got {value}")
    for low, high, strict in _ORDERED:
        if low in params and not (params[high] > params[low] if strict else params[high] >= params[low]):
            raise ConfigError(high, f"must {'exceed' if strict else 'be at least'} {low}, got {params[high]}")
    field, count = _ROWS[command]
    rows = count(params)
    try:  # bytes takes zeroed pages and leaves them untouched
        bytes(rows * 1024)
    except (MemoryError, OverflowError):
        raise ConfigError(field, f"{rows} rows do not fit in memory") from None
    return params


def _write(path, text):
    """Write the output to ``path``, or to stdout and flush it, naming out if that fails."""
    try:
        if path:
            with open(path, "w") as file:
                file.write(text)
        elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
            # python -u: one raw write may stop short, which sys.stdout.write ignores
            data = memoryview(text.encode(sys.stdout.encoding))
            while data:
                data = data[sys.stdout.buffer.write(data):]
        else:
            sys.stdout.write(text)  # a closed stdout is None: AttributeError
            sys.stdout.flush()
    except (AttributeError, OSError) as err:
        if not path:  # drop stdout: exit would flush its unwritten rest again, fail and end in 120
            sys.stdout = None
        raise ConfigError("out", "stdout is closed" if isinstance(err, AttributeError) else err) from None


def main(argv=None):
    if argv is None:
        # Running as the program: shutdown would otherwise walk every start-up
        # object in full collections (7-10 ms); reference counting still frees them.
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        _write(args.out, render_rows(_RUNNERS[args.command](build_run_config(args)), args.format))
        return EXIT_OK
    except ConfigError as err:
        code, line = EXIT_CONFIG, f"configuration error: {err}"
    except MemoryError:  # the rows fitted when reserved, their working set did not
        code, line = EXIT_CONFIG, f"configuration error: {_ROWS[args.command][0]}: the run does not fit in memory"
    except ArithmeticError as err:  # NoConvergence and NonFiniteState among them
        code, line = EXIT_NUMERIC, f"numerical failure: {err}"
    try:  # stderr alone: print(file=None) would fall back to stdout
        sys.stderr.write(f"thermoprobe: {line}\n")
    except (AttributeError, OSError):  # closed (None) or unwritable: dropped, as stdout is in _write
        sys.stderr = None
    return code


if __name__ == "__main__":
    sys.exit(main())
