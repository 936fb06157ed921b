"""End-to-end tests for the config-driven command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polekit
from polekit.cli import ConfigError, load_config, main

TADPOLE_CONFIG = """\
[kinematics]
m_sq = 2.0
mu = 1.3

[series]
order = 2
"""

COUPLINGS = """\
[couplings]
lambda0 = 0.1
m0_sq = 1.0
mu = 1.0
"""

GAUSSIAN_PAIR = """\
[grid]
nodes = 161

[state]
diagonal_family = gaussian
diagonal_center = 10.0
diagonal_width = 1.0
kernel_family = gaussian
kernel_center = 10.0
kernel_width = 1.0

[observable]
diagonal_family = gaussian
diagonal_center = 10.0
diagonal_width = 1.0
kernel_family = gaussian
kernel_center = 10.0
kernel_width = 1.0
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(tmp_path, command, config_text, fmt=None, name="table"):
    config = write_config(tmp_path, config_text, f"{command}.ini")
    out = tmp_path / f"{name}.{fmt or 'csv'}"
    argv = [command, "--config", str(config), "--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    status = main(argv)
    return status, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigValidation:
    def test_unknown_section(self, tmp_path):
        config = write_config(tmp_path, TADPOLE_CONFIG + "\n[mystery]\nx = 1\n")
        assert main(["tadpole", "--config", str(config)]) == 2

    def test_unknown_key(self, tmp_path):
        config = write_config(tmp_path, TADPOLE_CONFIG + "colour = blue\n")
        assert main(["tadpole", "--config", str(config)]) == 2

    def test_missing_required_key(self, tmp_path):
        config = write_config(tmp_path, "[kinematics]\nmu = 1.0\n")
        assert main(["tadpole", "--config", str(config)]) == 2

    def test_unparseable_value(self, tmp_path):
        config = write_config(tmp_path, "[kinematics]\nm_sq = heavy\n")
        assert main(["tadpole", "--config", str(config)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["tadpole", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_unknown_command_exits_2(self, tmp_path):
        config = write_config(tmp_path, TADPOLE_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            main(["teapot", "--config", str(config)])
        assert excinfo.value.code == 2

    def test_load_config_applies_defaults(self, tmp_path):
        config = write_config(tmp_path, "[kinematics]\nm_sq = 1.0\n")
        loaded = load_config("tadpole", config)
        assert loaded.sections["kinematics"]["mu"] == 1.0
        assert loaded.sections["series"]["order"] == 2
        assert loaded.fmt == "csv"

    def test_case_sensitive_keys(self, tmp_path):
        text = COUPLINGS + "Lambda0 = 0.5\n[flow]\nmu_end = 2.0\n"
        config = write_config(tmp_path, text)
        loaded = load_config("rgflow", config)
        assert loaded.sections["couplings"]["Lambda0"] == 0.5

    def test_output_section_and_flag_precedence(self, tmp_path):
        text = TADPOLE_CONFIG + "\n[output]\nformat = json\n"
        config = write_config(tmp_path, text)
        assert load_config("tadpole", config).fmt == "json"
        assert load_config("tadpole", config, fmt_override="csv").fmt == "csv"

    def test_domain_error_exits_3(self, tmp_path):
        status, _ = run_cli(tmp_path, "tadpole", "[kinematics]\nm_sq = -1.0\n")
        assert status == 3

    def test_convergence_failure_exits_4(self, tmp_path):
        text = (
            "[kinematics]\nm_sq = 1.0\n"
            "[fish]\nmethod = quadrature\np_sq = 1.0\nquad_tol = 1e-300\n"
        )
        status, _ = run_cli(tmp_path, "fish", text)
        assert status == 4


class TestArtifacts:
    def test_tadpole_csv_matches_module(self, tmp_path):
        status, out = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG)
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["eps_order", "re", "im"]
        from polekit.graphs import KinematicPoint, tadpole

        series = tadpole(KinematicPoint(m_sq=2.0, mu=1.3)).series
        by_order = {int(row[0]): float(row[1]) for row in rows}
        for order in range(series.min_order, series.max_order + 1):
            assert by_order[order] == series.coeff(order).real

    def test_byte_identical_reruns(self, tmp_path):
        status1, out1 = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG, name="first")
        status2, out2 = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG, name="second")
        assert status1 == status2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "first.csv.meta.json").read_bytes()
        meta2 = (tmp_path / "second.csv.meta.json").read_bytes()
        assert meta1.replace(b"first", b"second") == meta2

    def test_newline_discipline(self, tmp_path):
        _, out = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_meta_sidecar(self, tmp_path):
        _, out = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG)
        meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
        assert meta["command"] == "tadpole"
        assert meta["columns"] == ["eps_order", "re", "im"]
        assert meta["config"]["kinematics"]["m_sq"] == 2.0
        assert meta["config"]["series"]["order"] == 2
        assert "version" in meta

    def test_default_out_dir_env(self, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("POLEKIT_OUT_DIR", str(outdir))
        config = write_config(tmp_path, TADPOLE_CONFIG)
        assert main(["tadpole", "--config", str(config)]) == 0
        assert (outdir / "tadpole.csv").exists()
        assert (outdir / "tadpole.csv.meta.json").exists()

    def test_json_format(self, tmp_path):
        status, out = run_cli(tmp_path, "tadpole", TADPOLE_CONFIG, fmt="json")
        assert status == 0
        records = json.loads(out.read_text())
        assert isinstance(records, list)
        assert set(records[0]) == {"eps_order", "re", "im"}


class TestCommands:
    def test_amplitude_symmetric_point_is_real(self, tmp_path):
        text = COUPLINGS + "[mandelstam]\ns = -1.0\nt = -1.0\nu = -1.0\n"
        status, out = run_cli(tmp_path, "amplitude", text)
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["s", "t", "u", "re", "im"]
        assert len(rows) == 1
        assert float(rows[0][4]) == 0.0

    def test_poles_json_all_finite(self, tmp_path):
        text = COUPLINGS + "[poles]\n"
        status, out = run_cli(tmp_path, "poles", text, fmt="json")
        assert status == 0
        records = json.loads(out.read_text())
        names = {record["quantity"] for record in records}
        assert names == {"T_standard", "G_inv_standard"}
        assert all(record["is_finite"] is True for record in records)

    def test_decohere_monotone_tail(self, tmp_path):
        text = GAUSSIAN_PAIR + "[times]\nt_min = 0.0\nt_max = 6.0\ncount = 25\n"
        status, out = run_cli(tmp_path, "decohere", text)
        assert status == 0
        header, rows = read_csv(out)
        magnitudes = [float(row[header.index("offdiagonal_abs")]) for row in rows]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 1e-3 * magnitudes[0]

    def test_pairing_identity(self, tmp_path):
        text = (
            "[grid]\nnodes = 161\n"
            "[state]\ndiagonal_family = gaussian\ndiagonal_center = 10.0\n"
            "diagonal_width = 1.0\n"
            "[observable]\ndiagonal_family = constant\ndiagonal_value = 1.0\n"
        )
        status, out = run_cli(tmp_path, "pairing", text)
        assert status == 0
        header, rows = read_csv(out)
        total = float(rows[0][header.index("pairing_re")])
        assert abs(total - 1.0) <= 1e-10
        assert float(rows[0][header.index("offdiagonal_re")]) == 0.0

    def test_rgflow_table(self, tmp_path):
        text = COUPLINGS + "[flow]\nmu_end = 10.0\nsteps = 32\n"
        status, out = run_cli(tmp_path, "rgflow", text)
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["mu", "lambda0", "m0_sq", "Lambda0"]
        assert len(rows) == 33
        assert float(rows[0][0]) == 1.0
        assert float(rows[-1][0]) == pytest.approx(10.0, rel=1e-12)
        assert float(rows[-1][1]) > 0.1  # coupling grows toward the UV

    def test_energy_rows(self, tmp_path):
        text = COUPLINGS + "[energy]\norder = 1\n"
        status, out = run_cli(tmp_path, "energy", text)
        assert status == 0
        header, rows = read_csv(out)
        values = {row[0]: float(row[2]) for row in rows}
        offset = values["renormalization"] - values["subtraction"]
        assert math.isclose(offset, values["offset"], rel_tol=1e-12)

    def test_propagator_multiple_points(self, tmp_path):
        text = COUPLINGS + "[propagator]\np_sq = 0.5, 1.0, 2.0\n"
        status, out = run_cli(tmp_path, "propagator", text)
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["p_sq", "g_inv"]
        assert [float(row[0]) for row in rows] == [0.5, 1.0, 2.0]
        g = [float(row[1]) for row in rows]
        assert g[0] < g[1] < g[2]

    def test_fish_methods(self, tmp_path):
        base = "[kinematics]\nm_sq = 1.0\nmu = 1.0\n"
        status, out = run_cli(
            tmp_path, "fish", base + "[fish]\nmethod = quadrature\np_sq = 2.0\n"
        )
        assert status == 0
        header, rows = read_csv(out)
        quad_finite = {int(r[0]): float(r[1]) for r in rows}[0]
        status, out2 = run_cli(
            tmp_path,
            "fish",
            base + "[fish]\nmethod = closed_form\ns = -2.0\n",
            name="closed",
        )
        assert status == 0
        _, rows2 = read_csv(out2)
        closed = float(rows2[0][1])
        assert math.isclose(quad_finite, closed, rel_tol=1e-8)

    def test_fish_missing_required_branch_key(self, tmp_path):
        base = "[kinematics]\nm_sq = 1.0\n[fish]\nmethod = quadrature\n"
        status, _ = run_cli(tmp_path, "fish", base)
        assert status == 2

    def test_curved_table(self, tmp_path):
        text = (
            "[invariants]\nR = 1.3\nRicciSq = 0.7\nRiemannSq = 2.1\nBoxR = 0.9\n"
            "xi = 0.11\n[field]\nm = 1.2\nmu = 1.0\n"
            "[constants]\nG0 = 1.0\nl = 0.2\ng = 0.1\n"
        )
        status, out = run_cli(tmp_path, "curved", text)
        assert status == 0
        header, rows = read_csv(out)
        quantities = {row[0] for row in rows}
        assert {"a0", "a1", "a2", "regular", "G_phys", "Lambda_phys"} <= quantities
        assert {"singular_a0", "singular_a1", "singular_a2"} <= quantities
        a0 = [float(r[2]) for r in rows if r[0] == "a0"][0]
        assert a0 == 1.0

    def test_hadamard_partition_in_table(self, tmp_path):
        text = "[hadamard]\nsigma = 0.2\nm = 1.3\na = 1.0, 0.7, -0.4, 0.9, 0.3\n"
        status, out = run_cli(tmp_path, "hadamard", text)
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["tag", "channel", "total", "singular", "regular"]
        for row in rows:
            total, singular, regular = map(float, row[2:])
            assert singular + regular == total

    def test_kernel_csv_source(self, tmp_path):
        import numpy as np

        from polekit.functional import SpectrumGrid, analytic_profile, kernel_to_csv

        grid = SpectrumGrid(0.0, 20.0, 161)
        g = analytic_profile(grid.omega, "gaussian", 10.0, 1.0)
        diag_path = tmp_path / "diag.csv"
        kernel_path = tmp_path / "kern.csv"
        kernel_to_csv(diag_path, g)
        kernel_to_csv(kernel_path, np.outer(g, g))
        text = (
            "[grid]\nnodes = 161\n"
            f"[state]\ndiagonal_family = csv\ndiagonal_csv = {diag_path}\n"
            f"kernel_family = csv\nkernel_csv = {kernel_path}\n"
            "[observable]\ndiagonal_family = gaussian\ndiagonal_center = 10.0\n"
            "diagonal_width = 1.0\nkernel_family = gaussian\nkernel_center = 10.0\n"
            "kernel_width = 1.0\n"
        )
        status, out = run_cli(tmp_path, "pairing", text)
        assert status == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("offdiagonal_im")]) == 0.0


# -------------------------------------------------------------- import hygiene

SRC_DIR = Path(polekit.__file__).resolve().parents[1]


def scipy_imports(tmp_path, *args):
    """scipy modules imported by ``python -X importtime <args>`` in a fresh
    interpreter that runs to exit status 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


def cli_args(tmp_path, command, config_text):
    config = write_config(tmp_path, config_text, f"{command}.ini")
    out = tmp_path / f"{command}.csv"
    return ["-m", "polekit.cli", command, "--config", str(config), "--out", str(out)]


#: commands that must run without scipy (s = 2 m0^2 puts the amplitude
#: in the window [0, 4 m0^2) below threshold)
NO_SCIPY_CONFIGS = {
    "tadpole": TADPOLE_CONFIG,
    "amplitude": COUPLINGS + "[mandelstam]\ns = 2.0\nt = -1.0\nu = 0.0\n",
    "propagator": COUPLINGS + "[propagator]\np_sq = 0.5, 1.0, 2.0\n",
    "poles": COUPLINGS + "[poles]\n",
}


class TestImportHygiene:
    def test_import_loads_no_scipy(self, tmp_path):
        assert scipy_imports(tmp_path, "-c", "import polekit") == []

    @pytest.mark.parametrize("command", sorted(NO_SCIPY_CONFIGS))
    def test_commands_load_no_scipy(self, tmp_path, command):
        args = cli_args(tmp_path, command, NO_SCIPY_CONFIGS[command])
        assert scipy_imports(tmp_path, *args) == []
        assert (tmp_path / f"{command}.csv").exists()

    def test_fish_quadrature_imports_scipy_integrate(self, tmp_path):
        text = "[kinematics]\nm_sq = 1.0\n[fish]\nmethod = quadrature\np_sq = 2.0\n"
        args = cli_args(tmp_path, "fish", text)
        assert "scipy.integrate" in scipy_imports(tmp_path, *args)
