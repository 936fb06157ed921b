"""The four benchmark workloads: what one operation calls, and how its
result is turned into plain data for the checkers.

Every workload is a closed loop with a single caller.  Operations reach
polekit only through attribute lookups on the ``polekit`` package at call
time, so the tracer's wrappers (installed on those attributes) see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

import checks
import inputs
from probes import run_child

import polekit as pk


class Workload:
    """One operation kind: seeded rounds, a warm-up list, the timed call,
    and the untimed extraction and check of its result."""

    name = ""

    def rounds(self, seed: int):
        raise NotImplementedError

    def warmup(self, seed: int) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def prepare(self, items: list) -> None:
        """Per-input preparation, outside the timed intervals."""

    def warm(self, inp) -> None:
        """One untimed call, so lazy set-up is paid before timing starts."""
        self.op(inp)

    def extract(self, inp, out):
        return out

    def failed(self, out) -> bool:
        return isinstance(out, Exception)

    def describe_failure(self, out) -> str:
        return repr(out)

    def peak_rss_kib(self, outs) -> int:
        """Peak resident memory so far of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_schedule(self, rounds, units: int):
        """(round, traced flags) pairs: an untraced round, then a traced one."""
        for _ in range(units):
            for trace in (False, True):
                ops = next(rounds)
                yield ops, [trace] * len(ops)

    def start_trace(self, tracer, package) -> None:
        tracer.install(package)

    def stop_trace(self, tracer) -> None:
        tracer.uninstall()

    def collect_trace(self, tracer) -> None:
        """Pick up spans recorded outside this process (cli children)."""

    def check(self, inp, data) -> list[str]:
        """Errors for one operation's extracted result (see ``checks``)."""
        raise NotImplementedError

    def check_round(self, ops: list, datas: list) -> list[str]:
        """Errors for one round; ``datas[i]`` is None where operation ``i``
        failed (it is counted, not checked)."""
        return [e for inp, data in zip(ops, datas) if data is not None
                for e in self.check(inp, data)]


class RGFlow(Workload):
    name = "rgflow"

    def rounds(self, seed):
        return inputs.flow_rounds(seed)

    def warmup(self, seed):
        return inputs.flow_warmup(seed)

    def op(self, inp):
        start = pk.CouplingSet(inp.lambda0, inp.m0_sq, inp.Lambda0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", pk.LandauPoleWarning)
            trajectory = pk.rg_flow(start, inp.mu_end, inp.steps)
        return trajectory, caught

    def extract(self, inp, out):
        trajectory, caught = out
        return {
            "points": [(c.mu, c.lambda0, c.m0_sq, c.Lambda0) for c in trajectory],
            "landau_warnings": sum(
                issubclass(w.category, pk.LandauPoleWarning) for w in caught
            ),
            "guard": pk.renorm.LANDAU_GUARD,
        }

    check = staticmethod(checks.check_flow)


def _series(graph) -> tuple[int, list[complex]]:
    series = graph.series
    return series.min_order, list(series.coefficients)


class Kinematics(Workload):
    name = "kinematics"

    def rounds(self, seed):
        return inputs.point_rounds(seed)

    def warmup(self, seed):
        return inputs.point_warmup(seed)

    def op(self, inp):
        c = pk.CouplingSet(inp.lambda0, inp.m_sq, inp.Lambda0, inp.mu)
        k = pk.KinematicPoint(m_sq=inp.m_sq, lambda0=inp.lambda0, mu=inp.mu, Lambda0=inp.Lambda0)
        expansion = pk.hadamard_expand(
            pk.HadamardInput(inp.sigma, inp.hadamard_m, inp.a, inp.vanvleck)
        )
        return {
            "T": pk.amplitude_T(c, inp.s, inp.t, inp.u),
            "fish": pk.fish(inp.P_sq, k),
            "setting_sun": pk.setting_sun(inp.p_sq, k),
            "G_inv": pk.propagator_inverse(inp.p_sq, c),
            "tadpole": pk.tadpole(k),
            "double_scoop": pk.double_scoop(k),
            "reports": pk.pole_cancellation_report(c),
            "bridge": pk.regular_coincidence_limit(
                pk.CurvatureInvariants.flat(), math.sqrt(inp.m_sq), l=inp.bridge_l
            ),
            "expansion": expansion,
            "parts": pk.hadamard_split(expansion),
        }

    def extract(self, inp, out):
        parts = out["parts"]
        merged = pk.reconstruct(parts["singular"], parts["regular"])
        expansion = out["expansion"]
        return {
            "T": complex(out["T"]),
            "fish": _series(out["fish"]),
            "setting_sun": _series(out["setting_sun"]),
            "G_inv": float(out["G_inv"]),
            "tadpole": _series(out["tadpole"]),
            "double_scoop": _series(out["double_scoop"]),
            "reports": [
                (r.quantity_name, r.is_finite, list(r.residuals.values()), r.finite)
                for r in out["reports"]
            ],
            "bridge": complex(out["bridge"]),
            "expansion": (expansion.coefficients, expansion.provenance),
            "reconstructed": (merged.coefficients, merged.provenance),
        }

    check = staticmethod(checks.check_point)


def _graded(inp, side: int):
    n0, n1 = inp.graded_axes
    x, y = np.linspace(0.0, 1.0, n0), np.linspace(0.0, 1.0, n1)
    c0, c1 = inp.graded_regular[side]
    p, q = inp.graded_poles[side]
    cls = pk.GradedState if side == 0 else pk.GradedObservable
    return cls(
        axes=(x, y),
        regular=1.0 + c0 * x[:, None] + c1 * y[None, :],
        singular_sectors=(
            pk.GradedSector(order=1, values=p * (1.0 + x)),
            pk.GradedSector(order=2, values=np.array(q)),
        ),
    )


class Spectral(Workload):
    name = "spectral"

    def rounds(self, seed):
        return inputs.pair_rounds(seed)

    def warmup(self, seed):
        return inputs.pair_warmup(seed)

    def op(self, inp):
        grid = pk.SpectrumGrid(0.0, inputs.OMEGA_MAX, inp.nodes)

        def profile(g):
            return pk.analytic_profile(grid.omega, "gaussian", g.center, g.width)

        state_kernel, operator_kernel = profile(inp.state_kernel), profile(inp.operator_kernel)
        rho = pk.VHState(
            grid, profile(inp.state_diagonal), np.outer(state_kernel, state_kernel)
        ).normalize()
        operator = pk.VHOperator(
            grid, profile(inp.operator_diagonal), np.outer(operator_kernel, operator_kernel)
        )
        total = pk.pairing(rho, operator)
        sweep = []
        for t in np.linspace(0.0, inp.t_max, inp.times):
            t = float(t)
            sweep.append(
                (t, pk.off_diagonal_term(rho, operator, t), pk.evolve_pairing(rho, operator, t))
            )
        state, observable = _graded(inp, 0), _graded(inp, 1)
        graded = [
            pk.qft_pairing(a, b)
            for a, b in (
                (state, observable),
                (pk.regularize(state), observable),
                (state, pk.regularize(observable)),
                (pk.regularize(state), pk.regularize(observable)),
            )
        ]
        return total, sweep, graded

    def extract(self, inp, out):
        total, sweep, graded = out
        return {
            "pairing": complex(total),
            "sweep": [(t, complex(off), complex(ev)) for t, off, ev in sweep],
            "graded": [(g.finite, dict(g.pole_terms)) for g in graded],
        }

    check = staticmethod(checks.check_pair)


def _read_table(path: Path, fmt: str) -> tuple[list, int]:
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], len(rows) - 1
    records = json.loads(text)
    return (list(records[0]) if records else []), len(records)


class Cli(Workload):
    """Each operation is one fresh ``python -m polekit.cli`` process.

    Traced runs start ``cli_traced.py`` in its place, which records spans
    in the child and leaves their totals in ``stats``.
    """

    name = "cli"
    untraced = ["-m", "polekit.cli"]

    def __init__(self, workdir: Path, src: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.launcher = self.untraced
        self.stats = workdir / "stats.json"
        self.runs = 0

    def rounds(self, seed):
        return inputs.cli_rounds(seed)

    def warmup(self, seed):
        return inputs.cli_warmup(seed)

    def prepare(self, items):
        for inp in items:
            (self.workdir / f"{inp.name}.ini").write_text(inp.config, encoding="utf-8")

    def op(self, inp):
        self.runs += 1
        config = self.workdir / f"{inp.name}.ini"
        # a fresh directory per run, the same file name for both runs of a
        # config: the meta sidecar records the table's name
        out = self.workdir / f"run-{self.runs}" / f"table.{inp.fmt}"
        argv = [sys.executable, *self.launcher, inp.command, "--config", str(config),
                "--out", str(out), "--format", inp.fmt]
        status, stderr, max_rss_kb = run_child(argv, self.workdir, self.env)
        return {"status": status, "stderr": stderr, "out": out, "max_rss_kb": max_rss_kb}

    def warm(self, inp):
        import polekit.cli

        polekit.cli.load_config(inp.command, self.workdir / f"{inp.name}.ini")

    def failed(self, out):
        return isinstance(out, Exception) or out["status"] != 0

    def describe_failure(self, out):
        if isinstance(out, Exception):
            return repr(out)
        return f"exit status {out['status']}: {out['stderr'].strip()}"

    def peak_rss_kib(self, outs):
        return max((out["max_rss_kb"] for out in outs if not isinstance(out, Exception)),
                   default=0)

    def trace_schedule(self, rounds, units):
        """Each config runs untraced, then traced: every command traced once
        in 11 units, and the traced rerun is still checked byte for byte."""
        for _ in range(units):
            yield next(rounds), [False, True]

    def start_trace(self, tracer, package):
        self.launcher = [str(Path(__file__).resolve().parent / "cli_traced.py"), str(self.stats)]

    def stop_trace(self, tracer):
        self.launcher = self.untraced

    def collect_trace(self, tracer):
        if self.stats.exists():  # absent when the child failed before writing it
            tracer.merge(json.loads(self.stats.read_text(encoding="utf-8")))
            self.stats.unlink()

    def extract(self, inp, out):
        data = {"status": out["status"], "stderr": out["stderr"]}
        if out["status"] == 0:
            meta_path = out["out"].with_name(out["out"].name + ".meta.json")
            data["table"] = out["out"].read_bytes()
            data["meta"] = meta_path.read_bytes()
            data["meta_json"] = json.loads(data["meta"])
            data["columns"], data["rows"] = _read_table(out["out"], inp.fmt)
            shutil.rmtree(out["out"].parent)
        return data

    def check_round(self, ops, datas):
        if None in datas:
            return []  # nothing to compare the surviving run with
        return checks.check_cli(datas[0], datas[1])


def make(name: str, workdir: Path, src: Path) -> Workload:
    if name == "cli":
        return Cli(workdir, src)
    return {"rgflow": RGFlow, "kinematics": Kinematics, "spectral": Spectral}[name]()
