"""Tests of the benchmark itself: seeded argument lists, failure accounting,
and tracer invariants.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

import run
import workloads
from checks import check
from children import Outcome
from tracer import CHILD_NS, END, NAME, START, THREAD, Tracer, aggregate, self_ns


@pytest.fixture(scope="module")
def cli():
    return run.load_cli(run.ROOT)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_round_is_deterministic_per_seed(name):
    assert workloads.round_for(name, 11) == workloads.round_for(name, 11)
    rounds = [workloads.round_for(name, seed) for seed in range(20)]
    assert len({tuple(call.argv for call in r) for r in rounds}) > 1
    # the seed moves operating points and order, never sizes
    sizes = {tuple(sorted((c.command, str(c.params.get("points")), str(c.params.get("n")))
                          for c in r)) for r in rounds}
    assert len(sizes) == 1


def _smaller(call):
    """The same invocation with 50 grid points in place of thousands."""
    if "--points" not in call.argv:
        return call
    argv = list(call.argv)
    argv[argv.index("--points") + 1] = "50"
    return dataclasses.replace(call, argv=tuple(argv), params={**call.params, "points": 50})


def test_checks_accept_genuine_outputs_of_every_workload(cli):
    for name in workloads.NAMES:
        for call in map(_smaller, workloads.round_for(name, 3)):
            outcome = run.in_process(cli, call)
            assert check(call, outcome.exit_code, outcome.output) is None, call.argv


def _corrupt_first_value(output):
    lines = output.decode().split("\n")
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines).encode()


def test_corrupted_output_counts_toward_fail_ratio(cli):
    calls = workloads.round_for("cli-defaults", 0)
    outputs = {call.argv: run.in_process(cli, call).output for call in calls}

    def execute(call):
        output = outputs[call.argv]
        if call.command == "limits":
            output = _corrupt_first_value(output)
        code = 3 if call.command == "optimal-gap" else 0
        return Outcome(exit_code=code, wall_s=0.25, cpu_s=0.2, maxrss_kb=30000, output=output)

    samples = run.measure(calls, 0, execute)
    failed = {s.argv[0]: s.problem for s in samples if s.problem}
    assert set(failed) == {"limits", "optimal-gap"}
    assert "rate N=2" in failed["limits"]
    _, report = run.end_to_end(samples, [1.0], True)
    assert report["fail_ratio"][0] == pytest.approx(2 / 5)
    assert '"failed": 2' in run.result_line(samples, {})


def _traced_spans(cli, argv):
    tracer = Tracer()
    with tracer.installed():
        outcome = run.in_process(cli, workloads.Invocation(tuple(argv), argv[0], {}, "csv"))
    assert outcome.exit_code == 0
    return tracer.take_spans()


TRANSIENT = ["transient-scan", "--include-plus", "--include-harmonic", "--points", "30"]


def test_self_times_are_nonnegative_and_bounded_by_the_root_span(cli, monkeypatch):
    monkeypatch.setenv("THERMOPROBE_THREADS", "2")  # use the pool even on one CPU
    spans = _traced_spans(cli, TRANSIENT)
    (root,) = [s for s in spans if s[NAME] == "cli.main"]
    root_ns = root[END] - root[START]
    assert all(self_ns(s) >= 0 for s in spans)
    threads = {s[THREAD] for s in spans}
    assert len(threads) > 1, "the pool's worker threads should have spans of their own"
    for thread in threads:
        own = [s for s in spans if s[THREAD] == thread]
        assert sum(self_ns(s) for s in own) <= root_ns
        assert all(root[START] <= s[START] <= s[END] <= root[END] for s in own)
    main_thread = [s for s in spans if s[THREAD] == threading.get_ident()]
    assert sum(self_ns(s) for s in main_thread) == root_ns
    assert root[CHILD_NS] > 0


def test_tracer_rebinds_every_copy_and_restores_them(cli):
    import thermoprobe.dynamics as dynamics
    import thermoprobe.numerics as numerics

    original = numerics.central_diff
    tracer = Tracer()
    with tracer.installed():
        assert dynamics.central_diff is numerics.central_diff is not original
        assert cli._RUNNERS["limits"] is cli.cmd_limits
        assert cli._RUNNERS["limits"].__wrapped__ is not None
    assert dynamics.central_diff is original
    assert not hasattr(cli._RUNNERS["limits"], "__wrapped__")


def test_call_and_eval_counts_repeat(cli):
    argv = TRANSIENT + ["--gap", "3.0"]
    first, second = (aggregate(_traced_spans(cli, argv)) for _ in range(2))
    assert run.counts(first) == run.counts(second)
    assert first["numerics.central_diff"]["evals"] > 0
    assert first["cli.render_rows"]["rows"] == 7 * 30


def test_parse_importtime_separates_numpy_from_the_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      1000 |     130000 |       numpy",
        "import time:      4000 |     150000 |     thermoprobe.numerics",
        "import time:       600 |     180000 |   thermoprobe",
        "import time:      6000 |     200000 | thermoprobe.cli",
        "import time:        50 |         50 | site",
    ])
    numpy_s, package_s = run.parse_importtime(text)
    assert numpy_s == pytest.approx(0.13)
    assert package_s == pytest.approx(0.07)
