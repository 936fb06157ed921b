"""Benchmark for polekit: RG flows, kinematic scans, spectral sweeps and
fresh-process CLI runs.

    python3 bench/run.py --workload rgflow --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; polekit is imported from ``src/``.
With ``--trace 0`` a run times whole rounds of operations for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it runs a fixed number of rounds, alternating untraced and
traced ones, and reports the per-layer metrics.  Every operation's result
is checked outside the timed interval.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("rgflow", "kinematics", "spectral", "cli")

# One busy thread: numpy's BLAS would otherwise start a thread per core, and
# on a small shared machine those threads contend with the measured one.
# Set before numpy is imported here, and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: fresh-interpreter set-ups per timed run, spread evenly over it (between
#: rounds, outside the timed intervals); setup_s is their median
SETUP_REPEATS = 5

#: traced runs: (nominal seconds, minimum count) of a tracing unit.  A unit
#: is an untraced round and a traced one, or for cli one round whose rerun
#: is traced.  A run makes ``max(minimum, seconds // nominal)`` units, a
#: count that depends on nothing measured, so its counters repeat exactly;
#: the cli minimum traces every command once
TRACE_UNITS = {"rgflow": (4.0, 1), "kinematics": (0.03, 1), "spectral": (4.0, 1),
               "cli": (1.9, 11)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up and exit (the setup_s probe)")
    return parser.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ------------------------------------------------------------------- set-up


def setup(name: str, seed: int, workdir: Path):
    """Import polekit, build the workload and warm it up: everything a run
    does before its first timed operation."""
    import workloads

    workload = workloads.make(name, workdir, SRC)
    warm = workload.warmup(seed)
    workload.prepare(warm)
    for inp in warm:
        workload.warm(inp)
    return workload


def setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Wall time of one fresh interpreter running ``--setup-only``."""
    from probes import timed_child

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    return timed_child(argv, workdir, child_env())[0]


# ---------------------------------------------------------------- measuring


def run_round(workload, ops, tracer=None, traced=None):
    """Time each operation of one round; return (outputs, seconds).

    ``traced[i]`` runs operation ``i`` under ``tracer``; installing and
    folding happen outside the timed interval."""
    import polekit

    workload.prepare(ops)
    traced = traced or [False] * len(ops)
    outs, times = [], []
    for inp, trace in zip(ops, traced):
        if trace:
            workload.start_trace(tracer, polekit)
        start = time.perf_counter()
        try:
            out = tracer.span("bench.op", workload.op, inp) if trace else workload.op(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        finally:
            times.append(time.perf_counter() - start)
            if trace:
                workload.stop_trace(tracer)
        outs.append(out)
        if trace:
            tracer.fold()
            workload.collect_trace(tracer)
    return outs, times


class Tally:
    """Operations attempted and failed, and check errors, round by round."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, ops, outs) -> None:
        """Extract and check one round (outside the timed intervals).

        A failed operation is counted and reported, not checked: ``correct``
        speaks of the operations that completed."""
        workload = self.workload
        self.attempted += len(ops)
        datas = []
        for inp, out in zip(ops, outs):
            if workload.failed(out):
                self.failed += 1
                print(f"{workload.name}: operation failed: {workload.describe_failure(out)}",
                      file=sys.stderr)
                datas.append(None)
            else:
                datas.append(workload.extract(inp, out))
        self.errors += workload.check_round(ops, datas)


def run_timed(name: str, seed: int, seconds: int, workdir: Path):
    """Whole rounds until the operations have taken ``seconds``.  Each round
    is checked as soon as it is timed, so a run holds one round's results at
    a time and its memory does not grow with its length."""
    workload = setup(name, seed, workdir)
    rounds = workload.rounds(seed)
    tally = Tally(workload)
    total_s, ops_done = 0.0, 0
    peak_kib = 0
    # set-up probes at 0, 1/4, ..., 4/4 of the measured time, so that they
    # sample the same stretch of the machine's load as the operations
    probe_at = [i * seconds / (SETUP_REPEATS - 1) for i in range(SETUP_REPEATS)]
    setups: list[float] = []
    while total_s < seconds:
        while probe_at and total_s >= probe_at[0]:
            setups.append(setup_seconds(name, seed, workdir))
            probe_at.pop(0)
        ops = next(rounds)
        outs, op_times = run_round(workload, ops)
        peak_kib = max(peak_kib, workload.peak_rss_kib(outs))
        tally.add(ops, outs)
        total_s += sum(op_times)
        ops_done += len(ops)
    setups += [setup_seconds(name, seed, workdir) for _ in probe_at]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "ops_per_s": ops_done / total_s,
    }
    return tally, values


def run_traced(name: str, seed: int, seconds: int, workdir: Path):
    """A fixed number of tracing units; the traced operations give the
    per-layer totals, their excess over the untraced ones the overhead."""
    from probes import import_probes
    from tracing import Tracer

    workload = setup(name, seed, workdir)
    tracer = Tracer()
    nominal, minimum = TRACE_UNITS[name]
    units = max(minimum, int(seconds // nominal))
    tally = Tally(workload)
    wall = {False: 0.0, True: 0.0}
    ops_traced = 0
    for ops, traced in workload.trace_schedule(workload.rounds(seed), units):
        outs, op_times = run_round(workload, ops, tracer, traced)
        tally.add(ops, outs)
        for trace, seconds_taken in zip(traced, op_times):
            wall[trace] += seconds_taken
            ops_traced += trace
    values = tracer.layer_metrics()
    values.update(import_probes(workdir, child_env()))
    values["trace.ops"] = ops_traced
    values["trace.untraced_s"] = wall[False]
    values["trace.overhead_s"] = wall[True] - wall[False]
    return tally, values


# ---------------------------------------------------------------- reporting


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(name, tally, values, trace) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs(trace)}
    for line in tally.errors[:10]:
        print(f"{name}: CHECK FAILED: {line}", file=sys.stderr)
    print(f"{name}: {tally.attempted} operations attempted, {tally.failed} failed, "
          f"checks {'passed' if not tally.errors else 'FAILED'}")
    for key, m in metrics.items():
        print(f"{name}: {key:32s} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    from probes import run_child

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        WORK.mkdir(exist_ok=True)
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status, stderr, _, stdout = run_child(argv, WORK, dict(os.environ), stdout=True,
                                              timeout=4 * args.seconds + 300)
        sys.stderr.write(stderr)
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if status != 0 or not lines:
            print(f"{name}: exited {status}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    if not any(WORK.iterdir()):
        WORK.rmdir()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polekit" / "__init__.py").is_file():
        print(f"run.py: no polekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        runner = run_traced if args.trace else run_timed
        tally, values = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    result = report(args.workload, tally, values, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
