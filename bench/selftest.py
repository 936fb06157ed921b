"""Checker sensitivity self-test.

    python3 bench/selftest.py

For every checker, compute one genuine result with polekit, require the
checker to pass it, then scale one number of it at a time by ``1 + 1e-6``
and require the checker to report each perturbed copy as failed.  The cli
checker gets a rerun whose table has one number scaled the same way.
Exits 1 if any genuine result fails or any perturbed one passes.
"""

from __future__ import annotations

import re
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SCALE = 1.0 + 1e-6


def perturbed(obj, path: tuple):
    """A copy of ``obj`` with the number at ``path`` scaled by ``SCALE``."""
    if not path:
        if not obj:
            raise ValueError("cannot perturb a zero")
        return obj * SCALE
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, key: perturbed(obj[key], rest)}
    items = list(obj)
    items[key] = perturbed(items[key], rest)
    return type(obj)(items)


def series_paths(name: str, data: dict) -> list[tuple]:
    return [(name, 1, i) for i, c in enumerate(data[name][1]) if c]


def flow_cases(workload):
    rng = inputs.stream(0, "selftest-rgflow")
    for landau in (False, True):
        inp = inputs.flow_input(rng, landau, 64)
        data = workload.extract(inp, workload.op(inp))
        last = len(data["points"]) - 1
        paths = [("points", j, q) for j in (0, last // 2, last) for q in (1, 2, 3)]
        yield f"rgflow {'landau' if landau else 'full'}", checks.check_flow, inp, data, paths


def point_cases(workload):
    rng = inputs.stream(0, "selftest-kinematics")
    for region in inputs.REGIONS:
        inp = inputs.point_input(rng, region)
        data = workload.extract(inp, workload.op(inp))
        tag = next(t for t, v in data["reconstructed"][0].items() if v)
        paths = (
            [("T",), ("G_inv",), ("bridge",), ("reports", 0, 3), ("reports", 1, 3),
             ("reconstructed", 0, tag)]
            + series_paths("fish", data)[:2]
            + series_paths("tadpole", data)[:2]
            + series_paths("setting_sun", data)
            + series_paths("double_scoop", data)
        )
        yield f"kinematics {region}", checks.check_point, inp, data, paths


def pair_cases(workload):
    rng = inputs.stream(0, "selftest-spectral")
    for nodes in sorted(set(inputs.PAIR_ROUND)):
        inp = inputs.pair_input(rng, nodes, 11)
        data = workload.extract(inp, workload.op(inp))
        paths = [("pairing",), ("graded", 0, 0), ("graded", 0, 1, 1), ("graded", 0, 1, 2),
                 ("graded", 2, 0)]
        # samples that have not decayed below the check's scale, off(0)
        paths += [("sweep", i, q) for i in (0, 1, 2) for q in (1, 2)]
        yield f"spectral n={nodes}", checks.check_pair, inp, data, paths


def scale_first_number(table: bytes) -> bytes:
    header, _, body = table.decode().partition("\n")
    match = next(m for m in re.finditer(r"-?\d+\.\d+(e-?\d+)?", body) if float(m.group(0)))
    value = float(match.group(0)) * SCALE
    return (header + "\n" + body[: match.start()] + repr(value) + body[match.end():]).encode()


def main() -> int:
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        cases = []
        for make, name in ((flow_cases, "rgflow"), (point_cases, "kinematics"),
                           (pair_cases, "spectral")):
            cases += list(make(workloads.make(name, workdir, run.SRC)))
        for label, checker, inp, data, paths in cases:
            genuine = checker(inp, data)
            caught = sum(bool(checker(inp, perturbed(data, path))) for path in paths)
            ok = not genuine and caught == len(paths)
            bad += not ok
            print(f"{label:24s} genuine {'passes' if not genuine else 'FAILS'}, "
                  f"{caught}/{len(paths)} perturbations caught")
            for line in genuine[:3]:
                print(f"    {line}")

        cli = workloads.make("cli", workdir, run.SRC)
        rng = inputs.stream(0, "selftest-cli")
        for command in inputs.CLI_COMMANDS:
            inp = inputs.cli_input(rng, command, command)
            cli.prepare([inp])
            first, second = (cli.extract(inp, cli.op(inp)) for _ in range(2))
            genuine = checks.check_cli(first, second)
            caught = bool(checks.check_cli(first, {**second,
                                                   "table": scale_first_number(second["table"])}))
            ok = not genuine and caught
            bad += not ok
            print(f"cli {command:20s} genuine {'passes' if not genuine else 'FAILS'}, "
                  f"{int(caught)}/1 perturbations caught")
    finally:
        shutil.rmtree(workdir)
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    print("selftest", "passed" if not bad else f"FAILED ({bad} checkers)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
