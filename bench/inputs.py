"""Seeded inputs for the four benchmark workloads.

Every generator takes the workload seed and returns plain numbers and
strings; polekit only ever sees these values.  A *round* is a fixed mix of
operations: every round holds the same number of operations of each kind,
so the seed moves a run's cost only through the continuous parameters, and
a run that stops after whole rounds always attempts the same mix.

Each purpose draws from its own stream (``random.Random`` seeded with a
string, which is hashed deterministically), so the warm-up inputs never
coincide with a timed input and adding a field to one workload leaves the
others unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count

FOUR_PI_SQ = (4.0 * math.pi) ** 2
EULER_GAMMA = 0.57721566490153286061

#: spectral window used by every pair; kernels decay to < 1e-6 of their
#: peak at its edges for centres in [8, 12] and widths up to 1.5
OMEGA_MAX = 20.0

#: the commands of ``polekit.cli``, in the order the cli workload rotates
CLI_COMMANDS = (
    "tadpole",
    "fish",
    "amplitude",
    "rgflow",
    "energy",
    "propagator",
    "poles",
    "curved",
    "hadamard",
    "pairing",
    "decohere",
)


def stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"polekit-bench/{purpose}/{seed}")


# ------------------------------------------------------------------- rgflow


@dataclass(frozen=True)
class FlowInput:
    lambda0: float
    m0_sq: float
    Lambda0: float
    mu_end: float
    steps: int
    landau: bool


#: one round: (landau?, steps); steps None draws from {64, 128}
FLOW_ROUND = ((False, 64), (False, 64), (False, 128), (False, 128), (True, None))


def flow_input(rng: random.Random, landau: bool, steps) -> FlowInput:
    if landau:
        # lambda0 in [7.5, 8.5] crosses the guard (10) before mu = 6
        lambda0, mu_end = rng.uniform(7.5, 8.5), rng.uniform(6.0, 10.0)
    else:
        lambda0, mu_end = rng.uniform(0.05, 0.5), rng.uniform(2.0, 10.0)
    return FlowInput(
        lambda0=lambda0,
        m0_sq=rng.uniform(0.5, 2.0),
        Lambda0=rng.uniform(-1.0, 1.0),
        mu_end=mu_end,
        steps=steps if steps is not None else rng.choice((64, 128)),
        landau=landau,
    )


def flow_rounds(seed: int):
    rng = stream(seed, "rgflow")
    while True:
        ops = [flow_input(rng, landau, steps) for landau, steps in FLOW_ROUND]
        rng.shuffle(ops)
        yield ops


def flow_warmup(seed: int) -> list[FlowInput]:
    rng = stream(seed, "rgflow-warmup")
    return [flow_input(rng, False, 64), flow_input(rng, True, 64)]


# --------------------------------------------------------------- kinematics

REGIONS = ("spacelike", "window", "above")


@dataclass(frozen=True)
class PointInput:
    region: str
    lambda0: float
    m_sq: float
    Lambda0: float
    mu: float
    s: float
    t: float
    u: float
    P_sq: float
    p_sq: float
    bridge_l: float
    sigma: float
    hadamard_m: float
    a: tuple[float, ...]
    vanvleck: float


def bridge_l(m_sq: float, mu: float) -> float:
    """The finite ambiguity ``l`` that maps the flat coincidence limit onto
    the tadpole finite part: ``4 l = ln(m^2 / 4 pi mu^2) + gamma - 1``."""
    return (math.log(m_sq / (4.0 * math.pi * mu**2)) + EULER_GAMMA - 1.0) / 4.0


def point_input(rng: random.Random, region: str) -> PointInput:
    m_sq = rng.uniform(0.5, 2.0)
    mu = rng.uniform(0.5, 2.0)
    threshold = 4.0 * m_sq
    if region == "spacelike":
        s = -rng.uniform(0.1, 20.0)
    elif region == "window":
        s = threshold * rng.uniform(0.0, 0.98)
    else:
        s = threshold * rng.uniform(1.05, 6.0)
    return PointInput(
        region=region,
        lambda0=rng.uniform(0.05, 0.5),
        m_sq=m_sq,
        Lambda0=rng.uniform(-1.0, 1.0),
        mu=mu,
        s=s,
        t=-rng.uniform(0.1, 20.0),
        u=-rng.uniform(0.1, 20.0),
        P_sq=rng.uniform(-0.98 * threshold, 50.0),
        p_sq=rng.uniform(0.1, 20.0),
        bridge_l=bridge_l(m_sq, mu),
        sigma=rng.uniform(0.05, 1.0),
        hadamard_m=rng.uniform(0.5, 2.0),
        a=(1.0,) + tuple(rng.uniform(-3.0, 3.0) for _ in range(rng.choice((3, 4, 5)))),
        vanvleck=rng.uniform(0.5, 1.5),
    )


def point_rounds(seed: int):
    rng = stream(seed, "kinematics")
    while True:
        yield [point_input(rng, region) for region in REGIONS]


def point_warmup(seed: int) -> list[PointInput]:
    rng = stream(seed, "kinematics-warmup")
    return [point_input(rng, region) for region in REGIONS]


# ----------------------------------------------------------------- spectral


@dataclass(frozen=True)
class Gaussian:
    center: float
    width: float


@dataclass(frozen=True)
class PairInput:
    nodes: int
    state_diagonal: Gaussian
    state_kernel: Gaussian
    operator_diagonal: Gaussian
    operator_kernel: Gaussian
    t_max: float
    times: int
    graded_axes: tuple[int, ...]
    graded_regular: tuple[tuple[float, ...], tuple[float, ...]]
    graded_poles: tuple[tuple[float, float], tuple[float, float]]


#: one round: three pairs on the 161-node grid and one on the 641-node grid,
#: so the median pair is a small one and the large pair sets the throughput
PAIR_ROUND = (161, 161, 161, 641)
TIMES_PER_PAIR = 51


def _gaussian(rng: random.Random) -> Gaussian:
    return Gaussian(rng.uniform(8.0, 12.0), rng.uniform(0.8, 1.5))


def pair_input(rng: random.Random, nodes: int, times: int) -> PairInput:
    spacing = OMEGA_MAX / (nodes - 1)
    return PairInput(
        nodes=nodes,
        state_diagonal=_gaussian(rng),
        state_kernel=_gaussian(rng),
        operator_diagonal=_gaussian(rng),
        operator_kernel=_gaussian(rng),
        # |t| * spacing stays at or below pi/4, the aliasing limit
        t_max=rng.uniform(0.5, 1.0) * (math.pi / 4.0) / spacing,
        times=times,
        graded_axes=(rng.choice((5, 7, 9)), rng.choice((5, 7, 9))),
        # graded coefficients: (c0, c1) of 1 + c0 x + c1 y on each side
        graded_regular=tuple(
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(2)
        ),
        # pole sectors: (order-1 slope, order-2 constant) on each side
        graded_poles=tuple(
            (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(2)
        ),
    )


def pair_rounds(seed: int):
    rng = stream(seed, "spectral")
    while True:
        yield [pair_input(rng, nodes, TIMES_PER_PAIR) for nodes in PAIR_ROUND]


def pair_warmup(seed: int) -> list[PairInput]:
    rng = stream(seed, "spectral-warmup")
    return [pair_input(rng, nodes, 2) for nodes in sorted(set(PAIR_ROUND))]


# ---------------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliInput:
    """One config; a round runs it twice (the rerun must be byte-identical)."""

    name: str
    command: str
    fmt: str
    config: str


def _ini(sections: dict) -> str:
    blocks = []
    for section, values in sections.items():
        lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in values.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _r(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


def _couplings(rng: random.Random) -> dict:
    return {
        "lambda0": _r(rng, 0.05, 0.5),
        "m0_sq": _r(rng, 0.5, 2.0),
        "mu": _r(rng, 0.5, 2.0),
        "Lambda0": _r(rng, -1.0, 1.0),
    }


def _spectral_side(rng: random.Random, state: bool) -> dict:
    side = {
        "diagonal_family": "gaussian",
        "diagonal_center": _r(rng, 8.0, 12.0),
        "diagonal_width": _r(rng, 0.8, 1.5),
        "kernel_family": "gaussian",
        "kernel_center": _r(rng, 8.0, 12.0),
        "kernel_width": _r(rng, 0.8, 1.5),
    }
    if state:
        side["normalize"] = "true"
    return side


def cli_config(rng: random.Random, command: str) -> dict:
    """Sections of a seeded config for ``command``; every one runs cleanly."""
    if command == "tadpole":
        return {
            "kinematics": {"m_sq": _r(rng, 0.5, 2.0), "mu": _r(rng, 0.5, 2.0)},
            "series": {"order": rng.choice((1, 2, 3))},
        }
    if command == "fish":
        return {
            "kinematics": {"m_sq": _r(rng, 0.5, 2.0), "mu": _r(rng, 0.5, 2.0)},
            "fish": {"method": "quadrature", "p_sq": _r(rng, 0.1, 50.0)},
        }
    if command == "amplitude":
        return {
            "couplings": _couplings(rng),
            "mandelstam": {
                "s": _r(rng, -20.0, -0.1),
                "t": _r(rng, -20.0, -0.1),
                "u": _r(rng, -20.0, -0.1),
            },
        }
    if command == "rgflow":
        return {
            "couplings": _couplings(rng),
            "flow": {"mu_end": _r(rng, 2.0, 10.0), "steps": 32},
        }
    if command == "energy":
        return {"couplings": _couplings(rng), "energy": {"order": rng.choice((1, 2))}}
    if command == "propagator":
        values = ", ".join(_r(rng, 0.1, 20.0) for _ in range(3))
        return {"couplings": _couplings(rng), "propagator": {"p_sq": values}}
    if command == "poles":
        return {"couplings": _couplings(rng)}
    if command == "curved":
        return {
            "invariants": {
                "R": _r(rng, -1.0, 1.0),
                "RicciSq": _r(rng, 0.0, 1.0),
                "RiemannSq": _r(rng, 0.0, 1.0),
                "BoxR": _r(rng, -1.0, 1.0),
                "xi": _r(rng, 0.0, 0.5),
            },
            "field": {"m": _r(rng, 0.5, 2.0), "mu": _r(rng, 0.5, 2.0)},
            "constants": {
                "G0": _r(rng, 0.5, 2.0),
                "Lambda0": _r(rng, -1.0, 1.0),
                "l": _r(rng, -0.5, 0.5),
                "g": _r(rng, 0.0, 0.5),
            },
            "curved": {"order": 2, "tail": f"{_r(rng, -1.0, 1.0)}, {_r(rng, -1.0, 1.0)}"},
        }
    if command == "hadamard":
        a = ", ".join(["1.0"] + [_r(rng, -3.0, 3.0) for _ in range(rng.choice((3, 4, 5)))])
        return {
            "hadamard": {
                "sigma": _r(rng, 0.05, 1.0),
                "m": _r(rng, 0.5, 2.0),
                "a": a,
                "vanvleck": _r(rng, 0.5, 1.5),
            }
        }
    if command == "pairing":
        return {
            "grid": {"nodes": 161},
            "state": _spectral_side(rng, True),
            "observable": _spectral_side(rng, False),
        }
    if command == "decohere":
        spacing = OMEGA_MAX / 160
        t_max = rng.uniform(0.5, 1.0) * (math.pi / 4.0) / spacing
        return {
            "grid": {"nodes": 161},
            "state": _spectral_side(rng, True),
            "observable": _spectral_side(rng, False),
            "times": {"t_max": repr(t_max), "count": 11},
        }
    raise ValueError(f"unknown command {command!r}")


def cli_input(rng: random.Random, name: str, command: str) -> CliInput:
    fmt = rng.choice(("csv", "json"))
    return CliInput(name, command, fmt, _ini(cli_config(rng, command)))


def cli_rounds(seed: int):
    """Round ``r`` runs a fresh config of command ``r mod 11`` twice."""
    rng = stream(seed, "cli")
    for index in count():
        op = cli_input(rng, f"round-{index}", CLI_COMMANDS[index % len(CLI_COMMANDS)])
        yield [op, op]


def cli_warmup(seed: int) -> list[CliInput]:
    rng = stream(seed, "cli-warmup")
    return [cli_input(rng, f"warmup-{cmd}", cmd) for cmd in CLI_COMMANDS]
