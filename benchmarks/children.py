"""Child processes: the pinned environment, set-up, and one CLI invocation
timed from spawn to reap, with its CPU time and peak RSS taken from
``os.wait4`` (per child, so nothing carries over between workloads the way
``RUSAGE_CHILDREN`` does).
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# What the installed ``thermoprobe`` console script runs.
CONSOLE = "import sys; from thermoprobe.cli import main; sys.exit(main())"
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Outcome:
    """Result of one invocation: exit code, wall and CPU seconds, peak RSS, stdout."""

    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    output: bytes


def pinned_env(root, pycache):
    """The whole environment of every child; nothing is inherited.

    Bytecode is cached under ``pycache`` (so an exported
    PYTHONDONTWRITEBYTECODE cannot force a recompile per call) and
    THERMOPROBE_THREADS is absent, so the CLI's default pool size is measured.
    """
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(root / "src"),
        "PYTHONPYCACHEPREFIX": str(pycache),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
    }


def spawn(args, env, stdout_path, stderr_path, timeout=TIMEOUT_S):
    """Run ``python <args>`` to completion; return (exit code, wall s, rusage).

    A child still running after ``timeout`` seconds is killed; its exit code
    is then -SIGKILL.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            finished, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


class Children:
    """Runs CLI invocations as children with one pinned environment."""

    def __init__(self, root, work, pycache):
        self.root = root
        self.env = pinned_env(root, pycache)
        self.stdout = work / "stdout"
        self.stderr = work / "stderr"

    def python(self, *args):
        """Run the interpreter with ``args``; return (exit code, wall s, stderr text)."""
        code, wall, _ = spawn(args, self.env, self.stdout, self.stderr)
        return code, wall, self.stderr.read_text(errors="replace")

    def compile(self):
        code, _, err = self.python("-m", "compileall", "-q", str(self.root / "src"))
        if code != 0:
            raise RuntimeError(f"compileall failed: {err.strip()}")

    def run(self, call):
        code, wall, usage = spawn(("-c", CONSOLE, *call.argv), self.env, self.stdout, self.stderr)
        return Outcome(
            exit_code=code,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            output=self.stdout.read_bytes(),
        )


def set_up(root, work, calls_for, warm_up, repeat):
    """Set up ``repeat`` times; return (calls, children, seconds of each set-up).

    One set-up is: generate the argument lists, compile the package into a
    fresh bytecode cache, and run the ``warm_up(calls)`` invocations untimed so
    that the cache also holds the standard library and numpy. The last set-up's
    cache is the one the timed invocations use.
    """
    seconds = []
    previous = None
    for i in range(repeat):
        start = time.perf_counter()
        calls = calls_for()
        pycache = work / f"pycache-{i}"
        shutil.rmtree(pycache, ignore_errors=True)
        children = Children(root, work, pycache)
        children.compile()
        for call in warm_up(calls):
            children.run(call)
        seconds.append(time.perf_counter() - start)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = pycache
    return calls, children, seconds


def fresh_workdir(root):
    """An empty ``.bench_work`` directory in the checkout."""
    work = Path(root) / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    return work
