"""Seeded CLI argument lists for the three benchmark workloads.

A workload is a *round*: a fixed list of CLI invocations that the benchmark
repeats, one child process at a time, for the measured interval. The seed
chooses operating points inside the paper's region (gap/T in [1, 10],
T in [0.5, 2], coupling in [1e-4, 1e-2]) and, for ``cli-defaults``, the
command order. Sizes never depend on the seed, so the work per round is the
same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The CLI's built-in defaults. The checks need the effective parameters of
# every invocation, and ``cli-defaults`` passes no flags at all.
DEFAULTS = {
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

TRANSIENT_POINTS_PER_ROUND = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argument list and the parameters the CLI will use."""

    argv: tuple
    command: str
    params: dict
    fmt: str


def _flag_value(value):
    if isinstance(value, list):
        if len(value) > 2 and value == list(range(value[0], value[-1] + 1)):
            return f"{value[0]}..{value[-1]}"
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def invocation(command, fmt="csv", **flags):
    """Build an invocation that passes ``flags`` over the built-in defaults."""
    argv = [command]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, _flag_value(value)]
    if fmt != "csv":
        argv += ["--format", fmt]
    return Invocation(argv=tuple(argv), command=command,
                      params={**DEFAULTS[command], **flags}, fmt=fmt)


def _operating_point(rng):
    temperature = rng.uniform(0.5, 2.0)
    ratio = rng.uniform(1.0, 10.0)
    gamma = 10.0 ** rng.uniform(-4.0, -2.0)
    return temperature, ratio * temperature, gamma


def _cli_defaults(rng):
    return [invocation(command) for command in rng.sample(sorted(DEFAULTS), len(DEFAULTS))]


def _transient_dense(rng):
    calls = []
    for _ in range(TRANSIENT_POINTS_PER_ROUND):
        temperature, gap, gamma = _operating_point(rng)
        calls.append(invocation(
            "transient-scan", gamma=gamma, temperature=temperature, gap=gap,
            include_plus=True, include_harmonic=True, points=2000,
        ))
    return calls


def _equilibrium_sweep(rng):
    temperature, gap, _ = _operating_point(rng)
    x_min = rng.uniform(0.5, 1.0)
    x_max = rng.uniform(10.0, 50.0)
    return [
        invocation("hessian-check", n_min=2, n_max=64, temperature=temperature),
        invocation("optimal-gap", n=list(range(10, 65)), n0=list(range(1, 10)),
                   temperature=temperature),
        invocation("equilibrium-scan", fmt="json", gap=gap, x_min=x_min, x_max=x_max,
                   points=20000),
    ]


_BUILDERS = {
    "cli-defaults": _cli_defaults,
    "transient-dense": _transient_dense,
    "equilibrium-sweep": _equilibrium_sweep,
}

NAMES = tuple(_BUILDERS)


def round_for(name, seed):
    """The invocation list of one round of workload ``name`` at ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))


def warm_up(calls):
    """The first invocation of each distinct command in ``calls``, in round order."""
    first = {}
    for call in calls:
        first.setdefault(call.command, call)
    return list(first.values())
