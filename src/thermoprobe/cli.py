"""Command-line front end: emits the package's standard data series as CSV or
JSON files with deterministic, full-precision formatting.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .dynamics import (
    DissipationModel,
    log_interrogation_grid,
    optimal_interrogation_ratio,
    transient_scan,
    ultimate_rate,
)
from .equilibrium import hessian_certificate, optimal_gap, qfi_equilibrium_scan
from .numerics import NoConvergence, NonFiniteState

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
    text = text.strip()
    if not text:
        raise ConfigError(field, "list must not be empty")
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(field, f"cannot parse range {text!r}") from None
        if hi < lo:
            raise ConfigError(field, f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(field, f"cannot parse integer list {text!r}") from None


def _parse_float_list(field, text):
    text = text.strip()
    if not text:
        raise ConfigError(field, "list must not be empty")
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(field, f"cannot parse float list {text!r}") from None


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal, numpy scalars included
    return str(value)


_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_cell(value):
    """One value as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NON_FINITE.get(text, text)
    return int.__repr__(value)


def _encode_column(values, cell):
    """The cells of one column, lazily: ``repr`` for a column of finite floats
    or of ints, which for these exact types is float.__repr__ or int.__repr__
    as both formats need, and ``cell`` per value otherwise."""
    kinds = set(map(type, values))
    if kinds == {int} or (kinds == {float} and all(map(math.isfinite, values))):
        return map(repr, values)
    return map(cell, values)


def render_rows(rows, fmt):
    """Serialize row dicts that share one key order to CSV (shortest
    round-trip floats) or JSON, byte for byte as ``json.dumps(rows, indent=2)``.

    Each column is encoded once and every row is filled into one template.
    """
    if not rows:
        return "[]\n" if fmt == "json" else "\n"
    keys = list(rows[0])
    if fmt == "json":
        cell = _json_cell
        fields = ",\n".join("    " + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
        head, template, sep, tail = "[\n", "  {\n" + fields + "\n  }", ",\n", "\n]\n"
    else:
        cell = _format_cell
        head, template, sep, tail = ",".join(keys) + "\n", ",".join(["%s"] * len(keys)), "\n", "\n"
    columns = [_encode_column(list(map(itemgetter(k), rows)), cell) for k in keys]
    return head + sep.join(map(template.__mod__, zip(*columns))) + tail


def _require_positive(params, *names):
    """Each named parameter, or each entry of a named list, is finite and positive."""
    for name in names:
        value = params[name]
        for v in value if isinstance(value, list) else [value]:
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(name, f"must be finite and positive, got {value}")


def cmd_equilibrium_scan(params):
    n_list = params["n"]
    if not n_list:
        raise ConfigError("n", "probe dimension list must not be empty")
    if any(n < 2 for n in n_list):
        raise ConfigError("n", f"every dimension must be >= 2, got {n_list}")
    _require_positive(params, "gap", "x_min", "x_max")
    if params["x_max"] <= params["x_min"]:
        raise ConfigError("x_max", "must exceed x_min")
    if params["points"] < 2:
        raise ConfigError("points", f"need at least 2 grid points, got {params['points']}")
    grid = np.geomspace(params["x_min"], params["x_max"], params["points"])
    return qfi_equilibrium_scan(n_list, grid, gap=params["gap"], include_harmonic=params["harmonic"])


def cmd_optimal_gap(params):
    n_list, n0_list = params["n"], params["n0"]
    if not n_list:
        raise ConfigError("n", "probe dimension list must not be empty")
    if not n0_list:
        raise ConfigError("n0", "ground degeneracy list must not be empty")
    _require_positive(params, "temperature")
    t = params["temperature"]
    rows = []
    for n in n_list:
        if n < 2:
            raise ConfigError("n", f"every dimension must be >= 2, got {n}")
        for n0 in n0_list:
            if not 1 <= n0 <= n - 1:
                raise ConfigError("n0", f"n0={n0} outside [1, {n - 1}] for n={n}")
            res = optimal_gap(n, n0, t)
            if n0 == 1:
                excess = None
            else:
                prev = optimal_gap(n, n0 - 1, t)
                excess = (prev.qfi_at_optimum - res.qfi_at_optimum) * t**4
            rows.append({
                "N": n,
                "n0": n0,
                "x_star": res.x_star,
                "gap": res.gap,
                "qfi_peak": res.qfi_at_optimum,
                "variance_excess_vs_lower_n0": excess,
            })
    return rows


def cmd_hessian_check(params):
    if params["n_min"] < 2:
        raise ConfigError("n_min", f"must be >= 2, got {params['n_min']}")
    if params["n_max"] < params["n_min"]:
        raise ConfigError("n_max", "must be >= n_min")
    _require_positive(params, "temperature")
    rows = []
    for n in range(params["n_min"], params["n_max"] + 1):
        cert = hessian_certificate(n, params["temperature"])
        analytic = sorted(set(cert.analytic_eigenvalues))
        rows.append({
            "N": n,
            "x_star": cert.x_star,
            "lambda_pair": analytic[0],
            "lambda_shift": analytic[1] if n > 2 else None,
            "shift_multiplicity": n - 2,
            "eigenvalue_error": cert.eigenvalue_error,
            "zero_mode_residual": cert.zero_mode_residual,
            "certifies_maximum": cert.certifies_maximum,
        })
    return rows


def cmd_transient_scan(params):
    _require_positive(params, "gamma", "temperature", "points", "span_min", "span_max")
    if params["span_max"] <= params["span_min"]:
        raise ConfigError("span_max", "must exceed span_min")
    n_list = params["n"]
    if not n_list or any(n < 2 for n in n_list):
        raise ConfigError("n", f"dimensions must be a nonempty list of ints >= 2, got {n_list}")
    gap = params["gap"]
    if gap is None:
        gap = optimal_interrogation_ratio() * params["temperature"]
        if not math.isfinite(gap):
            raise NonFiniteState(f"default gap x_tilde * T overflows at T={params['temperature']:g}")
    else:
        _require_positive(params, "gap")
    _require_positive(params, "t_prep")
    model = DissipationModel(gap=gap, temperature=params["temperature"], coupling=params["gamma"])
    grid = log_interrogation_grid(model, points=params["points"], lo=params["span_min"], hi=params["span_max"])
    preps = ["ground"] + [f"thermal:{t_prep}" for t_prep in params["t_prep"]]
    if params["include_plus"]:
        preps.append("plus")
    if params["include_harmonic"]:
        preps.append("harmonic")
    return transient_scan(preps, n_list, model, grid)


def cmd_limits(params):
    n_list = params["n"]
    if not n_list or any(n < 2 for n in n_list):
        raise ConfigError("n", f"dimensions must be a nonempty list of ints >= 2, got {n_list}")
    _require_positive(params, "gamma", "temperature")
    x_tilde = optimal_interrogation_ratio()
    rows = []
    for n in n_list:
        rate = ultimate_rate(n, x_tilde, params["gamma"], params["temperature"])
        if not math.isfinite(rate):
            raise NonFiniteState(f"rate {rate} is not finite for N={n}")
        rows.append({"N": n, "x_tilde": x_tilde, "rate": rate})
    return rows


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

_RUNNERS = {
    "equilibrium-scan": cmd_equilibrium_scan,
    "optimal-gap": cmd_optimal_gap,
    "hessian-check": cmd_hessian_check,
    "transient-scan": cmd_transient_scan,
    "limits": cmd_limits,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="thermoprobe",
        description="Precision limits of single-probe thermometry as machine-readable data series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with parameter defaults")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("equilibrium-scan", help="QFI vs temperature curves at fixed gap")
    p.add_argument("--n", help="probe dimensions, e.g. 2,4,6,8,10")
    p.add_argument("--gap", type=float)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--no-harmonic", dest="harmonic", action="store_false", default=None)
    common(p)

    p = sub.add_parser("optimal-gap", help="variance-maximizing gaps and peak QFI")
    p.add_argument("--n", help="probe dimensions, e.g. 2..10 or 3,5,7")
    p.add_argument("--n0", help="ground degeneracies, e.g. 1 or 1,2,3")
    p.add_argument("--temperature", type=float)
    common(p)

    p = sub.add_parser("hessian-check", help="curvature certificate of the optimal spectrum")
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--temperature", type=float)
    common(p)

    p = sub.add_parser("transient-scan", help="QFI per unit time vs interrogation time")
    p.add_argument("--gamma", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--gap", type=float, help="probe gap (default: optimal short-time ratio times T)")
    p.add_argument("--n", help="ground-preparation probe dimensions")
    p.add_argument("--t-prep", dest="t_prep", help="thermal preparation temperatures")
    p.add_argument("--include-plus", dest="include_plus", action="store_true", default=None)
    p.add_argument("--include-harmonic", dest="include_harmonic", action="store_true", default=None)
    p.add_argument("--points", type=int)
    p.add_argument("--span-min", dest="span_min", type=float, help="grid start in relaxation times")
    p.add_argument("--span-max", dest="span_max", type=float, help="grid end in relaxation times")
    common(p)

    p = sub.add_parser("limits", help="short-interrogation sensitivity bounds")
    p.add_argument("--n", help="probe dimensions")
    p.add_argument("--gamma", type=float)
    p.add_argument("--temperature", type=float)
    common(p)

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
    built-in defaults."""
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
    return params


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        rows = _RUNNERS[args.command](build_run_config(args))
    except ConfigError as err:
        print(f"thermoprobe: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, ArithmeticError) as err:
        print(f"thermoprobe: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    text = render_rows(rows, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
