"""Correctness checks for CLI outputs, against closed forms the benchmark
computes itself.

``check`` returns ``None`` for a correct output and otherwise a one-line
description of the first problem found. An invocation counts as failed when
it exits non-zero, writes a non-finite float, has the wrong row count, or
disagrees with a closed form:

* equilibrium-scan: effective two-level QFI gap^2 p(1-p)/T^4 and the
  harmonic csch^2 form, plus the per-series normalization;
* optimal-gap: residual of e^x = ((N-n0)/n0)(x+2)/(x-2), the gap, the peak
  QFI of the (N, n0) spectrum and the variance excess over n0 - 1;
* hessian-check: lambda_pair = -N(x^2-4)/(8(N-1)), the shift eigenvalue and
  multiplicity, and ``certifies_maximum``;
* transient-scan: the dt grid, and ground N=2 rows against the paper's
  ground-qubit closed form at 1e-5 (acceptance criterion 06's tolerance);
* limits: gamma T (N-1) x^5 e^{-x} / (1 - e^{-x})^3 at the root of
  e^x (5 - x) = 5 + 2x.
"""

from __future__ import annotations

import json
import math


def _optimal_interrogation_ratio():
    """Root of e^x (5 - x) = 5 + 2x on (1, 4.999), by bisection."""
    lo, hi = 1.0, 4.999
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) * (5.0 - mid) - (5.0 + 2.0 * mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


X_TILDE = _optimal_interrogation_ratio()


class Mismatch(Exception):
    """An output differs from what the benchmark expects."""


def _require(ok, message, *args):
    # messages are formatted only on failure: the checks run per row
    if not ok:
        raise Mismatch(message.format(*args))


def _close(got, want, rel, what, *args, abs_tol=0.0):
    if not (isinstance(got, (int, float)) and abs(got - want) <= max(rel * abs(want), abs_tol)):
        raise Mismatch(f"{what.format(*args)}: got {got!r}, expected {want!r} (rel {rel:g})")


def _cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse(output, fmt):
    """Rows of a CSV or JSON output as dicts."""
    text = output.decode("ascii")
    if fmt == "json":
        return json.loads(text)
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        _require(len(cells) == len(header), "row has {} cells, header has {}", len(cells), len(header))
        rows.append(dict(zip(header, map(_cell, cells))))
    return rows


def _chunks(rows, labels, points):
    """Split ``rows`` into one run of ``points`` rows per series label."""
    _require(len(rows) == points * len(labels),
             "{} rows, expected {} x {} series", len(rows), points, len(labels))
    return [(label, rows[i * points:(i + 1) * points]) for i, label in enumerate(labels)]


def _gap_equation_residual(x, n, n0):
    """Relative residual of e^x = ((n - n0)/n0)(x + 2)/(x - 2)."""
    return abs(math.exp(x) * (x - 2.0) * n0 / ((n - n0) * (x + 2.0)) - 1.0)


def _two_level_qfi(x, temperature, n, n0=1):
    """x^2 p (1 - p) / T^2: energy variance over T^4 of n0 levels at 0 and
    n - n0 at the gap, with p the excited population."""
    w = (n - n0) * math.exp(-x)
    p = w / (n0 + w)
    return x * x * p * (1.0 - p) / temperature**2


def _equilibrium_scan(p, rows):
    gap = p["gap"]
    labels = list(p["n"]) + (["ho"] if p["harmonic"] else [])
    for label, chunk in _chunks(rows, labels, p["points"]):
        _close(chunk[0]["T"], gap / p["x_min"], 1e-12, "first T")
        _close(chunk[-1]["T"], gap / p["x_max"], 1e-12, "last T")
        peak = max(row["qfi"] for row in chunk)
        previous_t = math.inf
        for row in chunk:
            _require(row["N"] == label, "series {!r} where {!r} was expected", row["N"], label)
            t = row["T"]
            _require(t < previous_t, "T not decreasing at {!r}", t)
            previous_t = t
            x = gap / t
            if label == "ho":
                want = x * x / (4.0 * t * t * math.sinh(x / 2.0) ** 2)
            else:
                want = _two_level_qfi(x, t, label)
            _close(row["qfi"], want, 1e-9, "qfi N={} T={!r}", label, t)
            _close(row["qfi_normalized"], row["qfi"] / peak, 1e-12, "qfi_normalized N={}", label)


def _optimal_gap(p, rows):
    t = p["temperature"]
    expected = [(n, n0) for n in p["n"] for n0 in p["n0"]]
    _require(len(rows) == len(expected), "{} rows, expected {}", len(rows), len(expected))
    peaks = {}
    for row, (n, n0) in zip(rows, expected):
        _require((row["N"], row["n0"]) == (n, n0),
                 "row {},{} where {},{} was expected", row["N"], row["n0"], n, n0)
        x = row["x_star"]
        _require(x > 2.0 and _gap_equation_residual(x, n, n0) <= 1e-10,
                 "gap equation not solved at N={} n0={}: x={!r}", n, n0, x)
        _close(row["gap"], t * x, 1e-12, "gap N={} n0={}", n, n0)
        _close(row["qfi_peak"], _two_level_qfi(x, t, n, n0), 1e-9, "qfi_peak N={} n0={}", n, n0)
        peaks[n, n0] = row["qfi_peak"]
        excess = row["variance_excess_vs_lower_n0"]
        if n0 == 1:
            _require(excess is None, "variance excess at n0=1 should be empty, got {!r}", excess)
        elif (n, n0 - 1) in peaks:
            lower = peaks[n, n0 - 1]
            _close(excess, (lower - row["qfi_peak"]) * t**4, 0.0,
                   "variance excess N={} n0={}", n, n0, abs_tol=1e-9 * lower * t**4)


def _hessian_check(p, rows):
    dims = list(range(p["n_min"], p["n_max"] + 1))
    _require(len(rows) == len(dims), "{} rows, expected {}", len(rows), len(dims))
    for row, n in zip(rows, dims):
        _require(row["N"] == n, "row N={!r} where {} was expected", row["N"], n)
        x = row["x_star"]
        _require(x > 2.0 and _gap_equation_residual(x, n, 1) <= 1e-10, "gap equation not solved at N={}", n)
        _close(row["lambda_pair"], -n * (x * x - 4.0) / (8.0 * (n - 1)), 1e-12, "lambda_pair N={}", n)
        if n > 2:
            _close(row["lambda_shift"], -(x - 2.0) / (2.0 * (n - 1)), 1e-12, "lambda_shift N={}", n)
        else:
            _require(row["lambda_shift"] is None, "lambda_shift at N=2 should be empty")
        _require(row["shift_multiplicity"] == n - 2, "shift_multiplicity N={}", n)
        _require(row["certifies_maximum"] is True, "certifies_maximum is not true at N={}", n)
        _require(0.0 <= row["eigenvalue_error"] <= 1e-8,
                 "eigenvalue_error N={}: {!r}", n, row["eigenvalue_error"])
        _require(0.0 <= row["zero_mode_residual"] <= 1e-8, "zero_mode_residual N={}", n)


def _qubit_ground_rate(x, dt, tau, temperature):
    """QFI per time of a ground-prepared qubit after contact time dt (paper's closed form)."""
    u = dt / tau
    em1 = math.expm1(u)
    ex = math.exp(x)
    bracket = ex * em1 + u * (1.0 + ex) / math.sinh(x)
    qfi = x * x * bracket**2 / ((1.0 + ex) ** 2 * em1 * (1.0 + ex * math.exp(u)) * temperature**2)
    return qfi / dt


def _transient_scan(p, rows):
    t, gamma, points = p["temperature"], p["gamma"], p["points"]
    gap = p["gap"] if p["gap"] is not None else X_TILDE * t
    x = gap / t
    tau = math.tanh(x / 2.0) / (gamma * gap**3)
    labels = [("ground", n) for n in p["n"]]
    labels += [(f"thermal-{tp:g}", 2) for tp in p["t_prep"]]
    labels += [("plus", 2)] if p["include_plus"] else []
    labels += [("harmonic", "ho")] if p["include_harmonic"] else []
    lo, hi = p["span_min"] * tau, p["span_max"] * tau
    for label, chunk in _chunks(rows, labels, points):
        for k, row in enumerate(chunk):
            _require((row["prep"], row["N"]) == label,
                     "series {},{} where {} was expected", row["prep"], row["N"], label)
            dt = row["dt"]
            _close(dt, lo * (hi / lo) ** (k / (points - 1)), 1e-10, "dt[{}] of {}", k, label)
            _require(row["fisher_rate"] >= 0.0, "negative fisher_rate in {}", label)
            if label == ("ground", 2):
                _close(row["fisher_rate"], _qubit_ground_rate(x, dt, tau, t), 1e-5,
                       "ground N=2 fisher_rate at dt={!r}", dt)


def _limits(p, rows):
    _require(len(rows) == len(p["n"]), "{} rows, expected {}", len(rows), len(p["n"]))
    t, gamma = p["temperature"], p["gamma"]
    for row, n in zip(rows, p["n"]):
        _require(row["N"] == n, "row N={!r} where {} was expected", row["N"], n)
        x = row["x_tilde"]
        _close(x, X_TILDE, 1e-12, "x_tilde")
        emx = math.exp(-x)
        _close(row["rate"], gamma * t * (n - 1) * x**5 * emx / (1.0 - emx) ** 3, 1e-10, "rate N={}", n)


_CHECKERS = {
    "equilibrium-scan": _equilibrium_scan,
    "optimal-gap": _optimal_gap,
    "hessian-check": _hessian_check,
    "transient-scan": _transient_scan,
    "limits": _limits,
}


def _all_finite(rows):
    for row in rows:
        for key, value in row.items():
            _require(not isinstance(value, float) or math.isfinite(value), "non-finite {}: {!r}", key, value)


def check(call, exit_code, output):
    """``None`` if ``output`` is a correct result of ``call``, else the first problem."""
    try:
        _require(exit_code == 0, "exit code {}", exit_code)
        rows = parse(output, call.fmt)
        _require(isinstance(rows, list) and all(isinstance(r, dict) for r in rows),
                 "output is not a list of rows")
        _all_finite(rows)
        _CHECKERS[call.command](call.params, rows)
    except Mismatch as err:
        return str(err)
    except (ValueError, KeyError, TypeError) as err:  # unparsable or missing columns
        return f"malformed output: {type(err).__name__}: {err}"
    return None
