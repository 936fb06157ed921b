"""Config-driven command-line front end.

``polekit <command> --config <path> [--out <path>] [--format csv|json]``

Configs are flat ``key = value`` text under ``[section]`` headers (no
nesting); unknown sections or keys are rejected before any computation
starts.  Each command writes one table — CSV (header row then data rows)
or JSON (array of records mirroring the CSV columns) — plus a
``<out>.meta.json`` sidecar echoing the effective inputs.  Outputs are
byte-identical for identical configs: floats are printed in their
shortest round-trip form (at most 17 significant digits), line endings
are ``\\n``, and no timestamps are recorded.  The CLI performs no
arithmetic beyond formatting; every emitted number comes from a module
operation.

Exit status: 0 success, 2 config errors, 3 domain errors from modules,
4 convergence failures.  The ``POLEKIT_OUT_DIR`` environment variable
sets the default output directory when ``--out`` is not given.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .curved import (
    CurvatureInvariants,
    GravitationalConstants,
    dewitt_coefficients,
    effective_lagrangian_split,
    regular_coincidence_limit,
    renormalized_constants,
)
from .errors import ConvergenceError, WorkbenchError
from .functional import (
    DEFAULT_OMEGA_MAX,
    SpectrumGrid,
    VHOperator,
    VHState,
    analytic_profile,
    diagonal_term,
    evolve_pairing,
    kernel_from_csv,
    off_diagonal_term,
    pairing,
)
from .graphs import (
    DEFAULT_QUAD_TOL,
    KinematicPoint,
    fish,
    fish_closed_form,
    tadpole,
)
from .hadamard import BASIS_TAGS, CHANNEL, HadamardInput, hadamard_expand, hadamard_split
from .renorm import (
    CouplingSet,
    amplitude_T,
    energy_density,
    pole_cancellation_report,
    propagator_inverse,
    rg_flow,
    scheme_offset,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main"]

OUT_DIR_ENV = "POLEKIT_OUT_DIR"


class ConfigError(Exception):
    """A run configuration is malformed or incomplete."""


# ------------------------------------------------------------- value parsing


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {raw!r}")


def _parse_float_list(raw: str) -> list[float]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return [_parse_float(piece) for piece in items]


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_choice(*options: str):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ConfigError(
                f"expected one of {', '.join(options)}; got {raw!r}"
            )
        return value

    return parse


@dataclass(frozen=True)
class _Key:
    parse: object
    default: object = None
    required: bool = False


# ------------------------------------------------------------ command schemas


def _couplings_schema() -> dict:
    return {
        "lambda0": _Key(_parse_float, required=True),
        "m0_sq": _Key(_parse_float, required=True),
        "mu": _Key(_parse_float, default=1.0),
        "Lambda0": _Key(_parse_float, default=0.0),
    }


def _kinematics_schema() -> dict:
    return {
        "m_sq": _Key(_parse_float, required=True),
        "mu": _Key(_parse_float, default=1.0),
        "lambda0": _Key(_parse_float, default=0.0),
        "Lambda0": _Key(_parse_float, default=0.0),
    }


def _kernel_schema(*, state: bool) -> dict:
    schema = {
        "diagonal_family": _Key(
            _parse_choice("gaussian", "lorentzian", "constant", "csv"),
            default="constant",
        ),
        "diagonal_center": _Key(_parse_float),
        "diagonal_width": _Key(_parse_float),
        "diagonal_value": _Key(_parse_float, default=1.0),
        "diagonal_csv": _Key(_parse_str),
        "kernel_family": _Key(
            _parse_choice("gaussian", "lorentzian", "zero", "csv"),
            default="zero",
        ),
        "kernel_center": _Key(_parse_float),
        "kernel_width": _Key(_parse_float),
        "kernel_csv": _Key(_parse_str),
    }
    if state:
        schema["normalize"] = _Key(_parse_bool, default=True)
    return schema


_GRID_SCHEMA = {
    "omega_min": _Key(_parse_float, default=0.0),
    "omega_max": _Key(_parse_float, default=DEFAULT_OMEGA_MAX),
    "nodes": _Key(_parse_int, default=161),
}

_OUTPUT_SCHEMA = {
    "format": _Key(_parse_choice("csv", "json")),
    "path": _Key(_parse_str),
}

_SCHEMAS: dict[str, dict[str, dict[str, _Key]]] = {
    "tadpole": {
        "kinematics": _kinematics_schema(),
        "series": {"order": _Key(_parse_int, default=2)},
    },
    "fish": {
        "kinematics": _kinematics_schema(),
        "fish": {
            "method": _Key(
                _parse_choice("quadrature", "closed_form"), default="quadrature"
            ),
            "p_sq": _Key(_parse_float),
            "s": _Key(_parse_float),
            "order": _Key(_parse_int, default=2),
            "quad_tol": _Key(_parse_float, default=DEFAULT_QUAD_TOL),
        },
    },
    "amplitude": {
        "couplings": _couplings_schema(),
        "mandelstam": {
            "s": _Key(_parse_float, required=True),
            "t": _Key(_parse_float, required=True),
            "u": _Key(_parse_float, required=True),
        },
    },
    "rgflow": {
        "couplings": _couplings_schema(),
        "flow": {
            "mu_end": _Key(_parse_float, required=True),
            "steps": _Key(_parse_int, default=64),
        },
    },
    "energy": {
        "couplings": _couplings_schema(),
        "energy": {"order": _Key(_parse_int, default=1)},
    },
    "propagator": {
        "couplings": _couplings_schema(),
        "propagator": {"p_sq": _Key(_parse_float_list, required=True)},
    },
    "poles": {
        "couplings": _couplings_schema(),
        "poles": {
            "s": _Key(_parse_float),
            "p_sq": _Key(_parse_float),
        },
    },
    "curved": {
        "invariants": {
            "R": _Key(_parse_float, default=0.0),
            "RicciSq": _Key(_parse_float, default=0.0),
            "RiemannSq": _Key(_parse_float, default=0.0),
            "BoxR": _Key(_parse_float, default=0.0),
            "xi": _Key(_parse_float, default=0.0),
        },
        "field": {
            "m": _Key(_parse_float, required=True),
            "mu": _Key(_parse_float, default=1.0),
        },
        "constants": {
            "G0": _Key(_parse_float, default=1.0),
            "Lambda0": _Key(_parse_float, default=0.0),
            "l": _Key(_parse_float, default=0.0),
            "g": _Key(_parse_float, default=0.0),
        },
        "curved": {
            "order": _Key(_parse_int, default=2),
            "tail": _Key(_parse_float_list, default=()),
        },
    },
    "hadamard": {
        "hadamard": {
            "sigma": _Key(_parse_float, default=0.0),
            "m": _Key(_parse_float, required=True),
            "a": _Key(_parse_float_list, required=True),
            "vanvleck": _Key(_parse_float, default=1.0),
            "a_count": _Key(_parse_int, default=3),
        },
    },
    "pairing": {
        "grid": _GRID_SCHEMA,
        "state": _kernel_schema(state=True),
        "observable": _kernel_schema(state=False),
    },
    "decohere": {
        "grid": _GRID_SCHEMA,
        "state": _kernel_schema(state=True),
        "observable": _kernel_schema(state=False),
        "times": {
            "t_min": _Key(_parse_float, default=0.0),
            "t_max": _Key(_parse_float, required=True),
            "count": _Key(_parse_int, default=51),
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated per-command parameter blocks plus output format and path."""

    command: str
    sections: dict
    fmt: str
    out: str | None


def load_config(
    command: str,
    path,
    fmt_override: str | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Parse and validate a config file against the command's schema.

    Unknown sections, unknown keys, missing required keys, and
    unparseable values are all rejected here, before any computation.
    """
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = dict(_SCHEMAS[command])
    schema["output"] = _OUTPUT_SCHEMA
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (Lambda0, RicciSq, ...)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if parser.defaults():
        raise ConfigError("unknown section 'DEFAULT'")
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown section {section!r} for {command}")
        for key in parser.options(section):
            if key not in schema[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    sections: dict = {}
    for section, keys in schema.items():
        values = {}
        for key, spec in keys.items():
            if parser.has_option(section, key):
                values[key] = spec.parse(parser.get(section, key))
            elif spec.required:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                values[key] = spec.default
        sections[section] = values
    output = sections.pop("output")
    fmt = fmt_override or output["format"] or "csv"
    out = out_override or output["path"]
    return RunConfig(command=command, sections=sections, fmt=fmt, out=out)


# ------------------------------------------------------------ table builders


def _series_rows(series, quantity: str | None = None) -> list[tuple]:
    rows = []
    for order in range(series.min_order, series.max_order + 1):
        value = series.coeff(order)
        row = (order, value.real, value.imag)
        rows.append((quantity, *row) if quantity is not None else row)
    return rows


def _coupling_set(values: dict) -> CouplingSet:
    return CouplingSet(
        values["lambda0"], values["m0_sq"], values["Lambda0"], values["mu"]
    )


def _kinematic_point(values: dict) -> KinematicPoint:
    return KinematicPoint(
        m_sq=values["m_sq"],
        lambda0=values["lambda0"],
        mu=values["mu"],
        Lambda0=values["Lambda0"],
    )


def _cmd_tadpole(sections: dict):
    k = _kinematic_point(sections["kinematics"])
    result = tadpole(k, order=sections["series"]["order"])
    return ("eps_order", "re", "im"), _series_rows(result.series)


def _cmd_fish(sections: dict):
    k = _kinematic_point(sections["kinematics"])
    cfg = sections["fish"]
    columns = ("eps_order", "re", "im")
    if cfg["method"] == "closed_form":
        if cfg["s"] is None:
            raise ConfigError("fish.s is required when method = closed_form")
        value = fish_closed_form(cfg["s"], k)
        return columns, [(0, value.real, value.imag)]
    if cfg["p_sq"] is None:
        raise ConfigError("fish.p_sq is required when method = quadrature")
    result = fish(cfg["p_sq"], k, order=cfg["order"], quad_tol=cfg["quad_tol"])
    return columns, _series_rows(result.series)


def _cmd_amplitude(sections: dict):
    c = _coupling_set(sections["couplings"])
    m = sections["mandelstam"]
    value = amplitude_T(c, m["s"], m["t"], m["u"])
    return ("s", "t", "u", "re", "im"), [
        (m["s"], m["t"], m["u"], value.real, value.imag)
    ]


def _cmd_rgflow(sections: dict):
    start = _coupling_set(sections["couplings"])
    flow = sections["flow"]
    trajectory = rg_flow(start, flow["mu_end"], steps=flow["steps"])
    rows = [(c.mu, c.lambda0, c.m0_sq, c.Lambda0) for c in trajectory]
    return ("mu", "lambda0", "m0_sq", "Lambda0"), rows


def _cmd_energy(sections: dict):
    c = _coupling_set(sections["couplings"])
    order = sections["energy"]["order"]
    rows = [
        ("subtraction", order, energy_density(c, order, "subtraction")),
        ("renormalization", order, energy_density(c, order, "renormalization")),
        ("offset", order, scheme_offset(c, order)),
    ]
    return ("quantity", "order", "value"), rows


def _cmd_propagator(sections: dict):
    c = _coupling_set(sections["couplings"])
    rows = [
        (p_sq, propagator_inverse(p_sq, c))
        for p_sq in sections["propagator"]["p_sq"]
    ]
    return ("p_sq", "g_inv"), rows


def _cmd_poles(sections: dict):
    c = _coupling_set(sections["couplings"])
    cfg = sections["poles"]
    reports = pole_cancellation_report(c, s=cfg["s"], p_sq=cfg["p_sq"])
    rows = []
    for report in reports:
        for order in sorted(report.residuals):
            residual = report.residuals[order]
            rows.append(
                (
                    report.quantity_name,
                    order,
                    residual.real,
                    residual.imag,
                    report.finite.real,
                    report.finite.imag,
                    report.is_finite,
                )
            )
    columns = (
        "quantity",
        "eps_order",
        "residual_re",
        "residual_im",
        "finite_re",
        "finite_im",
        "is_finite",
    )
    return columns, rows


def _cmd_curved(sections: dict):
    inv = sections["invariants"]
    curvature = CurvatureInvariants(
        R=inv["R"],
        RicciSq=inv["RicciSq"],
        RiemannSq=inv["RiemannSq"],
        BoxR=inv["BoxR"],
        xi=inv["xi"],
    )
    m = sections["field"]["m"]
    mu = sections["field"]["mu"]
    consts = sections["constants"]
    gc = GravitationalConstants(
        G0=consts["G0"], Lambda0=consts["Lambda0"], l=consts["l"], g=consts["g"]
    )
    cfg = sections["curved"]
    tail = tuple(cfg["tail"])
    rows = []
    for name, value in dewitt_coefficients(curvature).items():
        rows.append((name, 0, value, 0.0))
    split = effective_lagrangian_split(
        curvature, m, mu, order=cfg["order"], tail=tail, l=consts["l"], g=consts["g"]
    )
    for name, series in split["singular"].items():
        rows.extend(_series_rows(series, quantity=f"singular_{name}"))
    rows.append(("regular", 0, split["regular"], 0.0))
    coincidence = regular_coincidence_limit(
        curvature, m, l=consts["l"], g=consts["g"], tail=tail
    )
    rows.append(("coincidence_regular", 0, coincidence.real, coincidence.imag))
    for name, value in renormalized_constants(gc, m).items():
        rows.append((name, 0, value, 0.0))
    return ("quantity", "eps_order", "re", "im"), rows


def _cmd_hadamard(sections: dict):
    cfg = sections["hadamard"]
    expansion = hadamard_expand(
        HadamardInput(
            sigma=cfg["sigma"],
            m=cfg["m"],
            a=tuple(cfg["a"]),
            vanvleck=cfg["vanvleck"],
        )
    )
    parts = hadamard_split(expansion, a_count=cfg["a_count"])
    rows = [
        (
            tag,
            CHANNEL[tag],
            expansion.coefficients[tag],
            parts["singular"].coefficients[tag],
            parts["regular"].coefficients[tag],
        )
        for tag in BASIS_TAGS
    ]
    return ("tag", "channel", "total", "singular", "regular"), rows


def _profile_samples(values: dict, prefix: str, grid: SpectrumGrid) -> np.ndarray:
    family = values[f"{prefix}_family"]
    if family == "constant":
        return np.full(grid.nodes, values[f"{prefix}_value"])
    if family == "csv":
        path = values[f"{prefix}_csv"]
        if path is None:
            raise ConfigError(f"{prefix}_csv is required when {prefix}_family = csv")
        samples = kernel_from_csv(path, grid)
        if prefix == "diagonal" and samples.ndim != 1:
            raise ConfigError(f"{prefix}_csv must hold a single row")
        if prefix == "kernel" and samples.ndim != 2:
            raise ConfigError(f"{prefix}_csv must hold a full kernel matrix")
        return samples
    center = values[f"{prefix}_center"]
    width = values[f"{prefix}_width"]
    if center is None or width is None:
        raise ConfigError(
            f"{prefix}_center and {prefix}_width are required for "
            f"{prefix}_family = {family}"
        )
    return analytic_profile(grid.omega, family, center, width)


def _kernel_samples(values: dict, grid: SpectrumGrid) -> np.ndarray:
    if values["kernel_family"] == "zero":
        return np.zeros((grid.nodes, grid.nodes))
    if values["kernel_family"] == "csv":
        return _profile_samples(values, "kernel", grid)
    profile = _profile_samples(values, "kernel", grid)
    return np.outer(profile, profile)


def _build_spectral_pair(sections: dict) -> tuple[VHState, VHOperator]:
    grid_cfg = sections["grid"]
    grid = SpectrumGrid(
        grid_cfg["omega_min"], grid_cfg["omega_max"], grid_cfg["nodes"]
    )
    state_cfg = sections["state"]
    state = VHState(
        grid,
        _profile_samples(state_cfg, "diagonal", grid),
        _kernel_samples(state_cfg, grid),
    )
    if state_cfg["normalize"]:
        state = state.normalize()
    obs_cfg = sections["observable"]
    operator = VHOperator(
        grid,
        _profile_samples(obs_cfg, "diagonal", grid),
        _kernel_samples(obs_cfg, grid),
    )
    return state, operator


def _cmd_pairing(sections: dict):
    state, operator = _build_spectral_pair(sections)
    diag = diagonal_term(state, operator)
    off = off_diagonal_term(state, operator)
    total = pairing(state, operator)
    columns = (
        "diagonal_re",
        "diagonal_im",
        "offdiagonal_re",
        "offdiagonal_im",
        "pairing_re",
        "pairing_im",
    )
    return columns, [
        (diag.real, diag.imag, off.real, off.imag, total.real, total.imag)
    ]


def _cmd_decohere(sections: dict):
    state, operator = _build_spectral_pair(sections)
    times_cfg = sections["times"]
    if times_cfg["count"] < 2:
        raise ConfigError("times.count must be at least 2")
    if times_cfg["t_max"] <= times_cfg["t_min"]:
        raise ConfigError("times.t_max must exceed times.t_min")
    times = np.linspace(times_cfg["t_min"], times_cfg["t_max"], times_cfg["count"])
    rows = []
    for t in times:
        t = float(t)
        off = off_diagonal_term(state, operator, t)
        evolved = evolve_pairing(state, operator, t)
        rows.append((t, off.real, off.imag, abs(off), evolved.real, evolved.imag))
    columns = (
        "t",
        "offdiagonal_re",
        "offdiagonal_im",
        "offdiagonal_abs",
        "evolved_re",
        "evolved_im",
    )
    return columns, rows


_COMMANDS = {
    "tadpole": _cmd_tadpole,
    "fish": _cmd_fish,
    "amplitude": _cmd_amplitude,
    "rgflow": _cmd_rgflow,
    "energy": _cmd_energy,
    "propagator": _cmd_propagator,
    "poles": _cmd_poles,
    "curved": _cmd_curved,
    "hadamard": _cmd_hadamard,
    "pairing": _cmd_pairing,
    "decohere": _cmd_decohere,
}


# -------------------------------------------------------------- artifact I/O


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _default_out(command: str, fmt: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV) or "."
    return Path(base) / f"{command}.{fmt}"


def _json_ready(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def _write_table(path: Path, fmt: str, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
    else:
        records = [
            {column: _json_ready(cell) for column, cell in zip(columns, row)}
            for row in rows
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(json.dumps(records, indent=2))
            handle.write("\n")


def _write_meta(table_path: Path, config: RunConfig, columns, row_count: int) -> None:
    meta = {
        "command": config.command,
        "format": config.fmt,
        "out": table_path.name,
        "version": __version__,
        "columns": list(columns),
        "row_count": row_count,
        "config": _json_ready(
            {
                section: dict(values)
                for section, values in sorted(config.sections.items())
            }
        ),
    }
    meta_path = table_path.with_name(table_path.name + ".meta.json")
    with open(meta_path, "w", newline="", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, indent=2, sort_keys=True, default=_json_ready))
        handle.write("\n")


def run(command: str, config: RunConfig) -> int:
    """Execute a validated config; write the table and its meta sidecar.

    Returns the exit status: 0 on success, 2 for configuration errors
    discovered while assembling inputs, 3 for domain errors raised by the
    modules, 4 for convergence failures.
    """
    try:
        columns, rows = _COMMANDS[command](config.sections)
    except ConfigError as exc:
        print(f"polekit: config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"polekit: convergence failure: {exc}", file=sys.stderr)
        return 4
    except WorkbenchError as exc:
        print(f"polekit: domain error: {exc}", file=sys.stderr)
        return 3
    out = Path(config.out) if config.out else _default_out(command, config.fmt)
    try:
        _write_table(out, config.fmt, columns, rows)
        _write_meta(out, config, columns, len(rows))
    except OSError as exc:
        print(f"polekit: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polekit",
        description="Run a workbench computation from a config file.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", help="output table path")
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        help="output format (default: config [output] format, then csv)",
    )
    args = parser.parse_args(argv)
    try:
        config = load_config(
            args.command, args.config, fmt_override=args.fmt, out_override=args.out
        )
    except ConfigError as exc:
        print(f"polekit: config error: {exc}", file=sys.stderr)
        return 2
    return run(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
