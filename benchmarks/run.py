"""thermoprobe benchmark: wall time of real CLI invocations, end to end, and a
traced in-process run that splits the time by module.

    python3 benchmarks/run.py --workload transient-dense --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 -m pytest benchmarks          # the benchmark's own tests

Load: a closed loop with one client. Each invocation is a fresh child process,
one at a time, so the CLI's own thread pool (at most ``os.cpu_count()``
threads) is the only parallelism. A workload is a round of invocations
(see ``workloads.py``) repeated until ``--seconds`` have passed; every output
is checked (see ``checks.py``) and a wrong one counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics: set-up time, median round wall
and CPU time, peak RSS and the share of correct invocations, plus, where a
round's invocations are alike in size, per-invocation percentiles. ``--trace 1``
instead calls ``thermoprobe.cli.main`` in-process on the same argument lists,
alternating untraced and traced rounds, and reports per-layer metrics per
round plus the tracing overhead. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit and sample count.

Run from any directory; the checkout root is the parent of this file's
directory, and every file the benchmark writes goes to ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import check
from children import Outcome, fresh_workdir, set_up
from tracer import Tracer, aggregate, metric_names

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
# Per-invocation percentiles only where a round's invocations are alike in size.
PERCENTILE_WORKLOADS = ("cli-defaults", "transient-dense")


@dataclass(frozen=True)
class Sample:
    """One timed invocation: its round, timings, and check result."""

    round: int
    argv: tuple
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    problem: str | None
    sha256: str


def measure(calls, seconds, execute):
    """Repeat the round ``calls`` until ``seconds`` have passed (at least once),
    checking every output as soon as its invocation ends."""
    samples = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for call in calls:
            outcome = execute(call)
            samples.append(Sample(
                round=rounds, argv=call.argv, wall_s=outcome.wall_s, cpu_s=outcome.cpu_s,
                maxrss_kb=outcome.maxrss_kb,
                problem=check(call, outcome.exit_code, outcome.output),
                sha256=hashlib.sha256(outcome.output).hexdigest(),
            ))
        rounds += 1
    return samples


def per_round(samples, field):
    sums = defaultdict(float)
    for sample in samples:
        sums[sample.round] += getattr(sample, field)
    return list(sums.values())


def end_to_end(samples, setup_seconds, percentiles):
    """Metrics for BENCHMARK.json and the printed report, as (value, unit, samples).

    The report adds fail_ratio, and with ``percentiles`` the per-invocation
    median and, from P90_MIN_SAMPLES invocations on, the 90th percentile.
    """
    rounds = per_round(samples, "wall_s")
    failed = sum(s.problem is not None for s in samples)
    per = f"{len(rounds)} rounds of {len(samples) // len(rounds)} invocations, median"
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s", f"{len(setup_seconds)} set-ups, median"),
        "run_s": (statistics.median(rounds), "s", per),
        "cpu_s": (statistics.median(per_round(samples, "cpu_s")), "s", per),
        "peak_rss_mb": (max(s.maxrss_kb for s in samples) / 1024.0, "MB",
                        f"{len(samples)} invocations, max"),
        "ok_ratio": (1.0 - failed / len(samples), "ratio", f"{len(samples)} invocations"),
    }
    report = dict(metrics)
    walls = [s.wall_s for s in samples]
    if percentiles:
        report["cmd_p50_s"] = (statistics.median(walls), "s", f"{len(walls)} invocations")
    if percentiles and len(walls) >= P90_MIN_SAMPLES:
        report["cmd_p90_s"] = (statistics.quantiles(walls, n=10)[8], "s", f"{len(walls)} invocations")
    report["fail_ratio"] = (failed / len(samples), "ratio", f"{failed} of {len(samples)} invocations")
    return metrics, report


def git_sha(root):
    """HEAD of the checkout's git repository, read from its files; 'unknown' without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root, seed, env):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
        "git_sha": git_sha(root), "seed": seed, "src_lines": src_lines, "child_env": env,
    }


def print_report(name, seed, meta, report, footer=()):
    print(f"workload {name}  seed {seed}  closed loop, 1 client, 1 child process at a time")
    print("meta " + json.dumps(meta, sort_keys=True))
    for metric, (value, unit, samples) in report.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:<42} {shown} {unit:<6} {samples}")
    for line in footer:
        print("  " + line)


def result_line(samples, metrics):
    failed = sum(s.problem is not None for s in samples)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    })


def output_lines(samples):
    """Per distinct invocation: median wall time and output sha256; then the first failures."""
    by_argv = defaultdict(list)
    for sample in samples:
        by_argv[sample.argv].append(sample)
    lines = [
        f"{statistics.median(s.wall_s for s in runs):.6f} s median of {len(runs)}, "
        f"sha256 {' '.join(sorted({s.sha256 for s in runs}))}  {' '.join(argv)}"
        for argv, runs in by_argv.items()
    ]
    lines += [f"FAILED {' '.join(s.argv)}: {s.problem}" for s in samples if s.problem][:5]
    return lines


def timed_run(name, seed, seconds):
    work = fresh_workdir(ROOT)
    calls, children, setups = set_up(ROOT, work, lambda: workloads.round_for(name, seed),
                                     workloads.warm_up, SETUP_REPEATS)
    samples = measure(calls, seconds, children.run)
    metrics, report = end_to_end(samples, setups, name in PERCENTILE_WORKLOADS)
    print_report(name, seed, metadata(ROOT, seed, children.env), report, output_lines(samples))
    return result_line(samples, metrics)


def parse_importtime(text):
    """(numpy seconds, thermoprobe seconds without numpy) from ``-X importtime`` output."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cumulative) * 1e-6))
    top = min(depth for depth, _, _ in entries)

    def ours(module):
        return module == "thermoprobe" or module.startswith("thermoprobe.")

    package = sum(s for depth, module, s in entries if depth == top and ours(module))
    numpy_s = 0.0
    for i, (depth, module, s) in enumerate(entries):
        if module == "numpy":
            numpy_s = s
            parent = next((m for d, m, _ in entries[i + 1:] if d == top), "")
            if depth > top and ours(parent):
                package -= s
    return numpy_s, package


def import_times(children):
    """Interpreter start, numpy import and thermoprobe's own import, medians."""
    starts, numpy_s, package_s = [], [], []
    for _ in range(IMPORT_REPEATS):
        starts.append(children.python("-c", "pass")[1])
        code, _, err = children.python("-X", "importtime", "-c", "import thermoprobe.cli")
        if code != 0:
            raise RuntimeError(f"importing thermoprobe.cli failed: {err.strip()[-300:]}")
        numpy_one, package_one = parse_importtime(err)
        numpy_s.append(numpy_one)
        package_s.append(package_one)
    return {
        "import.python_s": statistics.median(starts),
        "import.numpy_s": statistics.median(numpy_s),
        "import.thermoprobe_s": statistics.median(package_s),
    }


def in_process(cli, call):
    """Call ``cli.main`` on the invocation's arguments, capturing stdout."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buffer):
            code = cli.main(list(call.argv))
    except SystemExit as stop:  # argparse rejected the arguments
        code = stop.code
    except Exception:  # a child would die with a traceback and exit code 1
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - start
    return Outcome(exit_code=code, wall_s=wall, cpu_s=0.0, maxrss_kb=0,
                   output=buffer.getvalue().encode())


def load_cli(root):
    """Import the checkout's ``thermoprobe.cli`` with the default thread pool."""
    os.environ.pop("THERMOPROBE_THREADS", None)
    sys.path.insert(0, str(root / "src"))
    import thermoprobe.cli

    return thermoprobe.cli


def traced_rounds(cli, calls, seconds, tracer):
    """Run pairs of one untraced and one traced round until ``seconds`` have
    passed, swapping which goes first from pair to pair.

    Returns the untraced and traced round times, one aggregate table per
    traced round, and every sample.
    """
    def spanned(call):
        tracer.request += 1
        outcome = in_process(cli, call)
        for function, row in aggregate(tracer.take_spans()).items():
            for key, value in row.items():
                tables[-1][function][key] += value
        return outcome

    def untraced_round():
        return measure(calls, 0, lambda call: in_process(cli, call))

    untraced, traced, tables, samples = [], [], [], []
    start = time.perf_counter()
    while not tables or time.perf_counter() - start < seconds:
        traced_first = len(tables) % 2 == 1
        if not traced_first:
            plain = untraced_round()
        tables.append(defaultdict(lambda: defaultdict(int)))
        with tracer.installed():
            timed = measure(calls, 0, spanned)
        if traced_first:
            plain = untraced_round()
        untraced.append(sum(s.wall_s for s in plain))
        traced.append(sum(s.wall_s for s in timed))
        samples += plain + timed
    return untraced, traced, tables, samples


def counts(table):
    """The call and work counts of an aggregate table, without times."""
    return {function: {k: v for k, v in row.items() if not k.endswith("_ns")}
            for function, row in table.items()}


def per_layer(tables, imports, overhead):
    """Counts from the first traced round; times as medians over traced rounds."""
    per = f"{len(tables)} traced rounds"
    metrics = {}
    for function, suffixes in metric_names():
        for suffix in suffixes:
            if suffix.endswith("_s"):
                ns = [table[function][suffix[:-2] + "_ns"] for table in tables]
                metrics[f"{function}.{suffix}"] = (statistics.median(ns) * 1e-9, "s",
                                                   f"per round, median of {per}")
            else:
                metrics[f"{function}.{suffix}"] = (tables[0][function][suffix], "count", "per round")
    for key, value in imports.items():
        metrics[key] = (value, "s", f"median of {IMPORT_REPEATS} children")
    metrics["trace.overhead"] = (overhead, "ratio", f"traced over untraced round, medians of {per}")
    return metrics


def traced_run(name, seed, seconds):
    work = fresh_workdir(ROOT)
    calls, children, _ = set_up(ROOT, work, lambda: workloads.round_for(name, seed),
                                workloads.warm_up, 1)
    imports = import_times(children)
    cli = load_cli(ROOT)
    for call in workloads.warm_up(calls):  # first in-process calls, untimed
        in_process(cli, call)
    untraced, traced, tables, samples = traced_rounds(cli, calls, seconds, Tracer())
    repeat = all(counts(table) == counts(tables[0]) for table in tables)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics = per_layer(tables, imports, traced_s / untraced_s)
    footer = [
        f"in-process round: untraced {untraced_s:.6f} s, traced {traced_s:.6f} s",
        f"call and work counts identical in every traced round: {'yes' if repeat else 'NO'}",
        "spans of the CLI's pool threads overlap in time; each thread's self times sum to at most cli.main",
    ] + output_lines(samples)
    print_report(name, seed, metadata(ROOT, seed, children.env), metrics, footer)
    return result_line(samples, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured interval per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its current child (see children.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "thermoprobe" / "cli.py").is_file():
        print(f"benchmark: no thermoprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run = traced_run if args.trace else timed_run
        print(run(name, args.seed, args.seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
