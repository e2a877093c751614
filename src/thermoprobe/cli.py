"""Command-line front end: emits the package's standard data series as CSV or
JSON files with deterministic, full-precision formatting.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import gc
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dynamics import (
    DissipationModel,
    log_interrogation_grid,
    optimal_interrogation_ratio,
    thermal_label,
    transient_scan,
    ultimate_rate,
)
from .equilibrium import hessian_certificate, optimal_gap, qfi_equilibrium_scan
from .numerics import NoConvergence, NonFiniteState, Table, geometric_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _parse_int_list(field, text):
    """Accept '2,4,6' or a range '2..10' (inclusive)."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(field, f"cannot parse range {text!r}") from None
        if hi < lo:
            raise ConfigError(field, f"empty range {text!r}")
        try:
            return list(range(lo, hi + 1))
        except (MemoryError, OverflowError):
            raise ConfigError(field, f"range {text!r} is too large") from None
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(field, f"cannot parse integer list {text!r}") from None


def _parse_float_list(field, text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(field, f"cannot parse float list {text!r}") from None


_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _cell(value, fmt):
    """One value as a CSV cell, or as ``json.dumps`` writes it: the formats
    differ only for None, strings and non-finite floats. Floats, subclasses
    included, take the shortest round-trip decimal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NON_FINITE.get(text, text) if fmt == "json" else text
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null" if fmt == "json" else ""
    return encode_basestring_ascii(value) if fmt == "json" else value


def _encode_column(values, fmt):
    """The cells of one column: ``repr`` for a column of finite floats or of
    ints, which for these exact types is float.__repr__ or int.__repr__ as
    both formats need, and ``_cell`` per value otherwise."""
    kinds = set(map(type, values))
    if kinds == {int} or (kinds == {float} and all(map(math.isfinite, values))):
        return list(map(repr, values))
    return [_cell(v, fmt) for v in values]


def render_rows(table, fmt):
    """Serialize a Table to CSV (shortest round-trip floats) or JSON, byte for
    byte as ``json.dumps(rows, indent=2)`` of its rows as dicts.

    Each distinct column list is encoded once, however many blocks share it,
    and each scalar column once per block. The text is one list of the key
    prefixes and cells of every row, joined once.
    """
    total = len(table)
    if not total:
        return "[]\n" if fmt == "json" else "\n"
    names = table.columns
    if fmt == "json":
        keys = ["    " + encode_basestring_ascii(k) + ": " for k in names]
        mids = [",\n" + k for k in keys[1:]]
        head, sep, tail = "[\n  {\n" + keys[0], "\n  },\n  {\n" + keys[0], "\n  }\n]\n"
    else:
        mids = [","] * (len(names) - 1)
        head, sep, tail = ",".join(names) + "\n", "\n", "\n"
    # a row is cell, mid, ..., mid, cell, sep; head joins the first cell, tail replaces the last sep
    width = 2 * len(names)
    unit = [None] * width
    unit[1::2] = mids + [sep]
    out = unit * total
    encoded = {}
    start = 0
    for block in table.blocks:
        count = Table.block_rows(block)
        stop = start + width * count
        for j, values in enumerate(block):
            if not isinstance(values, list):
                cells = [_cell(values, fmt)] * count
            elif id(values) in encoded:
                cells = encoded[id(values)]
            else:
                cells = encoded[id(values)] = _encode_column(values, fmt)
            out[start + 2 * j:stop:width] = cells
        start = stop
    out[0] = head + out[0]
    out[-1] = tail
    return "".join(out)


def _reserve(field, rows):
    """Fail at once on ``field`` unless ``rows`` output rows, about 1 kB each at
    the peak, fit in memory; ``bytes`` takes zeroed pages and leaves them untouched."""
    try:
        bytes(rows * 1024)
    except (MemoryError, OverflowError):
        raise ConfigError(field, f"{rows} rows do not fit in memory") from None


def cmd_equilibrium_scan(params):
    n_list = params["n"]
    if params["points"] < 2:
        raise ConfigError("points", f"need at least 2 grid points, got {params['points']}")
    _reserve("points", params["points"] * (len(n_list) + 1))
    grid = geometric_grid(params["x_min"], params["x_max"], params["points"])
    return qfi_equilibrium_scan(n_list, grid, gap=params["gap"], include_harmonic=params["harmonic"])


def cmd_optimal_gap(params):
    n_list, n0_list, t = params["n"], params["n0"], params["temperature"]
    for n in n_list:
        for n0 in n0_list:
            if not 1 <= n0 <= n - 1:
                raise ConfigError("n0", f"n0={n0} outside [1, {n - 1}] for n={n}")
    ns = [n for n in n_list for _ in n0_list]
    n0s = [n0 for _ in n_list for n0 in n0_list]
    x, qfi, excess = optimal_gap(ns, n0s, t)
    excess = [None if n0 == 1 else e for n0, e in zip(n0s, excess)]
    return Table(("N", "n0", "x_star", "gap", "qfi_peak", "variance_excess_vs_lower_n0"),
                 [(ns, n0s, x, [t * v for v in x], qfi, excess)])


def cmd_hessian_check(params):
    _reserve("n_max", params["n_max"] - params["n_min"] + 1)
    try:
        return hessian_certificate(range(params["n_min"], params["n_max"] + 1), params["temperature"])
    except MemoryError:
        raise ConfigError("n_max", f"dimensions up to {params['n_max']} do not fit in memory") from None


def cmd_transient_scan(params):
    n_list = params["n"]
    labels = [thermal_label(t_prep) for t_prep in params["t_prep"]]
    if len(set(labels)) < len(labels):
        raise ConfigError("t_prep", f"temperatures {params['t_prep']} share a series label: {labels}")
    gap = params["gap"]
    if gap is None:
        gap = optimal_interrogation_ratio() * params["temperature"]
        if not math.isfinite(gap):
            raise NonFiniteState(f"default gap x_tilde * T overflows at T={params['temperature']:g}")
    model = DissipationModel(gap=gap, temperature=params["temperature"], coupling=params["gamma"])
    tau = model.relaxation_time
    if tau >= sys.float_info.min and params["span_min"] * tau < sys.float_info.min:
        # a subnormal contact time carries too few digits for its rate
        raise ConfigError("span_min", f"first contact time span_min * tau = {params['span_min'] * tau:g} is "
                          f"below the smallest normal float; need span_min >= {sys.float_info.min / tau:g}")
    _reserve("points", params["points"] * (len(n_list) + len(params["t_prep"]) + 2))
    grid = log_interrogation_grid(model, points=params["points"], lo=params["span_min"], hi=params["span_max"])
    return transient_scan(model, grid, n_list, params["t_prep"],
                          include_plus=params["include_plus"], include_harmonic=params["include_harmonic"])


def cmd_limits(params):
    n_list = params["n"]
    x_tilde = optimal_interrogation_ratio()
    rates = []
    for n in n_list:
        rate = ultimate_rate(n, x_tilde, params["gamma"], params["temperature"])
        if not math.isfinite(rate):
            raise NonFiniteState(f"rate {rate} is not finite for N={n}")
        rates.append(rate)
    return Table(("N", "x_tilde", "rate"), [(list(n_list), x_tilde, rates)])


_LIST_PARSERS = {"n": _parse_int_list, "n0": _parse_int_list, "t_prep": _parse_float_list}

_DEFAULTS = {
    "equilibrium-scan": {
        "n": [2, 4, 6, 8, 10], "gap": 1.0, "x_min": 0.5, "x_max": 50.0,
        "points": 400, "harmonic": True,
    },
    "optimal-gap": {"n": list(range(2, 11)), "n0": [1], "temperature": 1.0},
    "hessian-check": {"n_min": 2, "n_max": 20, "temperature": 1.0},
    "transient-scan": {
        "gamma": 1e-3, "temperature": 1.0, "gap": None, "n": [2, 4, 10],
        "t_prep": [0.8, 0.9], "include_plus": False, "include_harmonic": False,
        "points": 200, "span_min": 1e-3, "span_max": 20.0,
    },
    "limits": {"n": [2, 4, 10], "gamma": 1e-3, "temperature": 1.0},
}

# Rules that parameters share across commands, each applied to every command
# that has the key: finite and positive, per entry of a list and skipping a
# None gap; probe dimensions of at least 2; lists that must not be empty (an
# empty t_prep asks for no thermal series); and ordered pairs (low, high,
# strict), with high above low, or at least low where not strict.
_POSITIVE = {"gap", "x_min", "x_max", "temperature", "gamma", "t_prep", "points", "span_min", "span_max"}
_DIMENSIONS = {"n", "n_min"}
_NON_EMPTY = {"n", "n0"}
_ORDERED = [("x_min", "x_max", True), ("span_min", "span_max", True), ("n_min", "n_max", False)]

_RUNNERS = {
    "equilibrium-scan": cmd_equilibrium_scan,
    "optimal-gap": cmd_optimal_gap,
    "hessian-check": cmd_hessian_check,
    "transient-scan": cmd_transient_scan,
    "limits": cmd_limits,
}


_HELP = {
    "equilibrium-scan": "QFI vs temperature curves at fixed gap",
    "optimal-gap": "variance-maximizing gaps and peak QFI",
    "hessian-check": "curvature certificate of the optimal spectrum",
    "transient-scan": "QFI per unit time vs interrogation time",
    "limits": "short-interrogation sensitivity bounds",
}


def _build_parser():
    """One flag per key of ``_DEFAULTS``, --no-<key> for a switch that is on by
    default; each defaults to None, so that only the flags given override."""
    parser = argparse.ArgumentParser(
        prog="thermoprobe",
        description="Precision limits of single-probe thermometry as machine-readable data series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_HELP[command])
        for key, default in defaults.items():
            name = key.replace("_", "-")
            if isinstance(default, bool):  # a switch; its flag turns it the other way
                p.add_argument(f"--no-{name}" if default else f"--{name}", dest=key, default=None,
                               action="store_false" if default else "store_true",
                               help=f"{key} is {'on' if default else 'off'} by default")
            else:
                kind = str if key in _LIST_PARSERS else int if isinstance(default, int) else float
                shown = ",".join(map(str, default)) if isinstance(default, list) else default
                p.add_argument(f"--{name}", dest=key, type=kind, default=None, help=f"default: {shown}")
        p.add_argument("--config", help="JSON file with parameter defaults")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _matches_default(value, default):
    """Whether a config value has the type of its built-in default.

    Any int stands for a float, a bool never stands for a number, list entries
    match the default's entries, and a None default (a value the command
    works out itself) takes null or a number.
    """
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches_default(v, default[0]) for v in value)
    return isinstance(value, (int, float)) or (default is None and value is None)


def build_run_config(args):
    """Parameters of the command: CLI flags over a JSON config file over
    built-in defaults, checked against the shared rules."""
    command = args.command
    params = dict(_DEFAULTS[command])
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("config", f"no such file: {args.config}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError("config", f"invalid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, value in loaded.items():
            if key not in params:
                raise ConfigError("config", f"unknown parameter {key!r} for {command}")
            if key in _LIST_PARSERS and isinstance(value, str):
                value = _LIST_PARSERS[key](key, value)
            default = _DEFAULTS[command][key]
            if not _matches_default(value, default):
                raise ConfigError(key, f"must match the type of its default {default!r}, got {value!r}")
            params[key] = value
    for key in params:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = _LIST_PARSERS[key](key, flag) if key in _LIST_PARSERS else flag
    for key, value in params.items():
        entries = value if isinstance(value, list) else [value]
        if key in _NON_EMPTY and not entries:
            raise ConfigError(key, "list must not be empty")
        if key in _POSITIVE and not all(v is None or 0 < v < math.inf for v in entries):
            raise ConfigError(key, f"must be finite and positive, got {value}")
        if key in _DIMENSIONS and not all(v >= 2 for v in entries):
            raise ConfigError(key, f"every dimension must be >= 2, got {value}")
    for low, high, strict in _ORDERED:
        if low in params and not (params[high] > params[low] if strict else params[high] >= params[low]):
            raise ConfigError(high, f"must {'exceed' if strict else 'be at least'} {low}, got {params[high]}")
    return params


def main(argv=None):
    if argv is None:
        # Running as the program: shutdown would otherwise walk every start-up
        # object in full collections (~5 ms); reference counting still frees them.
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        table = _RUNNERS[args.command](build_run_config(args))
    except ConfigError as err:
        print(f"thermoprobe: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, ArithmeticError) as err:
        print(f"thermoprobe: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    text = render_rows(table, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
