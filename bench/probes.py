"""Child processes: one at a time, each reaped with its own resource usage.

``run_child`` is the only place the benchmark starts a process.  It waits
for the child with ``os.wait4`` so each child's peak resident memory is
known, and kills and reaps a child that outlives its timeout.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: no child of the benchmark may run longer than this
CHILD_TIMEOUT_S = 120


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv: list[str], cwd: Path, env: dict, stdout=False,
              timeout: int = CHILD_TIMEOUT_S):
    """Run ``argv`` to completion; return (exit status, stderr text, peak RSS
    in KiB), plus the stdout text when ``stdout`` is set."""
    err_path = Path(cwd) / f".child-{os.getpid()}.err"
    out_path = Path(cwd) / f".child-{os.getpid()}.out"
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise RuntimeError(f"child {argv[1:3]} exceeded {timeout} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_text = err_path.read_text(encoding="utf-8", errors="replace")
    stdout_text = out_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    out_path.unlink()
    result = (proc.returncode, stderr_text, usage.ru_maxrss)
    return result + (stdout_text,) if stdout else result


def timed_child(argv, cwd, env) -> tuple[float, str]:
    """Wall time from spawn to exit of a child that must succeed, and its
    stdout."""
    start = time.perf_counter()
    status, stderr, _, stdout = run_child(argv, cwd, env, stdout=True)
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"child {argv[1:]} exited {status}: {stderr.strip()}")
    return elapsed, stdout


_IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import polekit\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def scipy_import_seconds(stderr: str) -> float:
    """Sum of the self times of every ``scipy`` module in ``-X importtime``
    output: the time spent importing scipy itself, numpy excluded."""
    total_us = 0
    for match in _IMPORTTIME.finditer(stderr):
        name = match.group(4)
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(match.group(1))
    return total_us / 1e6


def import_probes(cwd: Path, env: dict, repeats: int = 3) -> dict[str, float]:
    """``import polekit`` in fresh interpreters, one at a time."""
    python = sys.executable
    import_s, modules = [], set()
    for _ in range(repeats):
        _, out = timed_child([python, "-c", _IMPORT_CODE], cwd, env)
        seconds, loaded = out.split()
        import_s.append(float(seconds))
        modules.add(int(loaded))
    status, stderr, _ = run_child([python, "-X", "importtime", "-c", "import polekit"], cwd, env)
    if status != 0:
        raise RuntimeError(f"-X importtime probe exited {status}")
    interpreter = [timed_child([python, "-c", "pass"], cwd, env)[0] for _ in range(5)]
    return {
        "polekit.import_s": statistics.median(import_s),
        "polekit.import_scipy_s": scipy_import_seconds(stderr),
        "polekit.modules_loaded": max(modules),
        "cli.interpreter_s": statistics.median(interpreter),
    }
