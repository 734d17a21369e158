import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

import oracles
from resrelax import ConfigError, QuadratureConfig, ThermalOhmic, parse_config
from resrelax.cli import main
from resrelax.config import _SCHEMA

INERTIAL_INI = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = inertial_vacuum

[quadrature]
omega_cutoff = 40.0

[evolve]
tau_end = 8.0
"""

THERMAL_INI = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = thermal_ohmic
eta = 0.5
omega_j = 5.0
temperature = 1.0

[quadrature]
omega_cutoff = 30.0
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

class TestParseConfig:
    def test_roundtrip_sections(self, tmp_path):
        cfg = parse_config(write(tmp_path, THERMAL_INI))
        spec = cfg.system
        assert spec.omega_ab(1, 0) == pytest.approx(1.0)
        kernel = cfg.kernel
        assert isinstance(kernel, ThermalOhmic)
        assert kernel.temperature == 1.0
        assert cfg.quadrature.omega_cutoff == 30.0

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.ini")

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, INERTIAL_INI + "\n[bogus]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        bad = INERTIAL_INI.replace("omega_0 = 1.0",
                                   "omega_0 = 1.0\nwhatever = 2")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))

    def test_reservoir_params_validated_eagerly(self, tmp_path):
        bad = THERMAL_INI.replace("eta = 0.5", "eta = -1.0")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))

    def test_explicit_levels(self, tmp_path):
        text = """\
[system]
levels = [("g", -0.5), ("e", 0.5)]
coupling_ops = [[[0, 0.5], [0.5, 0]]]
g = 0.2

[reservoir]
model = inertial_vacuum

[quadrature]
"""
        cfg = parse_config(write(tmp_path, text))
        spec = cfg.system
        assert spec.labels == ("g", "e")
        assert spec.g == 0.2

    def test_multi_line_matrix_gives_one_line_bytes(self, tmp_path, capsys):
        one_line = """\
[system]
levels = [("g", -0.7), ("m", 0.1), ("e", 0.9)]
coupling_ops = [[[0, 0.5, 0.2j], [0.5, 0, 0.3], [-0.2j, 0.3, 0]]]
g = 0.4

[reservoir]
model = thermal_ohmic
eta = 0.5
omega_j = 5.0
temperature = 1.0
"""
        multi_line = one_line.replace(
            "coupling_ops = [[[0, 0.5, 0.2j], [0.5, 0, 0.3], "
            "[-0.2j, 0.3, 0]]]",
            "Coupling_Ops: [[[0, 0.5, 0.2j],  # row 0\n"
            "                 [0.5, 0, 0.3],\n"
            "\n"
            "  ; a comment inside the value\n"
            "                 [-0.2j, 0.3, 0]]]")
        assert multi_line.count("\n") == one_line.count("\n") + 4
        outputs = []
        for text in (one_line, multi_line):
            assert run_cli(["rates", "--config", write(tmp_path, text)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_tabulated_path_relative_to_config(self, tmp_path):
        u = np.linspace(0.0, 4.0, 32)
        cs = -1.0 / (4 * math.pi ** 2 * (u ** 2 + 0.01) ** 2) * (u ** 2 - 0.01)
        ca = -0.1 * u / (2 * math.pi ** 2 * (u ** 2 + 0.01) ** 2)
        rows = "\n".join("%.17g,%.17g,%.17g" % t for t in zip(u, cs, ca))
        (tmp_path / "kern.csv").write_text("u,Cs,Ca\n" + rows + "\n")
        text = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = tabulated
path = kern.csv

[quadrature]
"""
        cfg = parse_config(write(tmp_path, text))
        k = cfg.kernel
        assert k.u_max_hint(1.0, 0.0) <= 4.0

    def test_with_overrides(self, tmp_path):
        cfg = parse_config(write(tmp_path, THERMAL_INI))
        hot = cfg.with_overrides({"temperature": 2.5})
        assert hot.kernel.temperature == 2.5
        assert cfg.kernel.temperature == 1.0  # original untouched

    def test_with_overrides_types_only_its_axes(self, tmp_path, monkeypatch):
        # a point that typed the [sweep] axes again would make a sweep
        # quadratic in the length of its axes
        import resrelax.config as config

        values = [0.5 + 0.01 * i for i in range(200)]
        cfg = parse_config(write(tmp_path, THERMAL_INI + (
            "\n[sweep]\nquantity = gamma_rf\ntemperature = %r\n" % values)))
        calls = []

        def counting(section, key, value):
            calls.append((section, key))
            return float(value)

        monkeypatch.setattr(config, "_number", counting)  # via _numbers
        monkeypatch.setitem(_SCHEMA["reservoir"], "temperature", counting)
        for value in cfg.section("sweep")["temperature"]:
            point = cfg.with_overrides({"temperature": value})
        assert calls == [("reservoir", "temperature")] * len(values)
        assert point.kernel.temperature == values[-1]
        assert point.sections["sweep"] is cfg.sections["sweep"]


@pytest.mark.parametrize("section", list(_SCHEMA))
def test_unknown_key_in_every_section_names_it(tmp_path, capsys, section):
    header = "[%s]\n" % section
    text = INERTIAL_INI + ("" if header in INERTIAL_INI else "\n" + header)
    text = text.replace(header, header + "bogus = 1\n")
    assert run_cli(["rates", "--config", write(tmp_path, text)]) == 2
    assert "unknown key %s.bogus (known: " % section in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key", [
    ("evolve", INERTIAL_INI.replace("tau_end", "tau_ned"), "evolve.tau_ned"),
    ("shift", INERTIAL_INI + "\n[shift]\nlevle = e\n", "shift.levle"),
    ("kk-check", "[kk_check]\netaa = 0.2\n", "kk_check.etaa"),
    ("rates", INERTIAL_INI.replace("omega_cutoff", "u_max"),
     "quadrature.u_max"),
    ("rates", INERTIAL_INI + "\n[rates]\n", "[rates]"),
    ("rates", THERMAL_INI.replace("eta = 0.5", "eta = True"),
     "reservoir.eta must be a finite number, got True"),
], ids=["evolve-typo", "shift-typo", "kk-check-typo", "u_max", "rates-section",
        "eta-bool"])
def test_typos_and_removed_keys_exit_2(tmp_path, capsys, command, text, key):
    # a typo, a removed key or a boolean number is refused, not ignored
    # or read as 1.0
    assert run_cli([command, "--config", write(tmp_path, text)]) == 2
    assert key in capsys.readouterr().err


def test_quadrature_config_has_no_u_max():
    # the kernel's u_max_hint is the one truncation policy
    with pytest.raises(TypeError):
        QuadratureConfig(u_max=1.0)


@pytest.mark.parametrize("command", [["rates"], ["shift", "--method", "direct"]],
                         ids=["rates", "shift-direct"])
def test_tabulated_kernel_never_sampled_past_its_grid(tmp_path, monkeypatch,
                                                      counting, command):
    # with u_max gone, the kernel's u_max_hint is the one truncation
    from resrelax import kernels as kernels_module

    build_kernel, kernels = kernels_module.build_kernel, []

    def build(model, **params):
        kernels.append(counting(build_kernel(model, **params)))
        return kernels[-1]

    monkeypatch.setattr(kernels_module, "build_kernel", build)
    path = write(tmp_path, _tabulated_ini(tmp_path))
    assert run_cli([*command, "--config", path,
                    "--out", str(tmp_path / "out")]) == 0
    [kernel] = kernels
    assert kernel.calls
    u_end = kernel.u_grid[-1]
    assert max(float(np.max(np.abs(u))) for _, u in kernel.calls) <= u_end


# ---------------------------------------------------------------------------
# CLI plumbing

def run_cli(args):
    return main(args)


class TestRatesCommand:
    def test_row_contract(self, tmp_path, capsys):
        path = write(tmp_path, INERTIAL_INI)
        assert run_cli(["rates", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,a,b,omega,gamma_or_Gamma,err"
        assert len(lines) == 1 + 2 + 4
        gamma_lines = [ln for ln in lines[1:] if ln.split(",")[1] == ""]
        assert len(gamma_lines) == 2

    def test_gamma_values(self, tmp_path, capsys):
        path = write(tmp_path, INERTIAL_INI)
        run_cli(["rates", "--config", path])
        lines = capsys.readouterr().out.strip().splitlines()
        rf_line = lines[1].split(",")
        assert rf_line[0] == "rf"
        assert float(rf_line[4]) == pytest.approx(
            oracles.inertial_gamma(1.0), rel=1e-6
        )

    def test_g_zero_all_zero(self, tmp_path, capsys):
        path = write(tmp_path, INERTIAL_INI.replace("g = 1.0", "g = 0.0"))
        run_cli(["rates", "--config", path])
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert values == [0.0] * 6

    def test_thermal_coth_ratio(self, tmp_path, capsys):
        path = write(tmp_path, THERMAL_INI)
        run_cli(["rates", "--config", path])
        lines = capsys.readouterr().out.strip().splitlines()
        rf = float(lines[1].split(",")[4])
        sr = float(lines[2].split(",")[4])
        assert rf / sr == pytest.approx(1.0 / math.tanh(0.5), rel=1e-6)

    def test_config_error_exit_code(self, capsys):
        assert run_cli(["rates", "--config", "/missing.ini"]) == 2

    def test_values_round_trip(self, tmp_path, capsys):
        # the printed gamma is the library's double, bit for bit
        from resrelax import rate_coefficients

        path = write(tmp_path, THERMAL_INI)
        run_cli(["rates", "--config", path])
        lines = capsys.readouterr().out.strip().splitlines()
        kernel = ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0)
        rates = rate_coefficients(kernel, 1.0, 1.0)
        for line, mech in zip(lines[1:3], ("rf", "sr")):
            _, _, _, omega, value, err = line.split(",")
            res = rates[mech]
            assert float(omega) == 1.0
            assert float(value) == res.value
            assert float(err) == res.error_estimate


class TestShiftCommand:
    def test_json_fields(self, tmp_path):
        path = write(tmp_path, INERTIAL_INI)
        out = tmp_path / "shift.json"
        assert run_cli(["shift", "--config", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        for key in ("level", "delta_e_rf", "delta_e_sr", "omega_c",
                    "err_quad", "err_cutoff", "delta_sr_relative"):
            assert key in data
        assert data["delta_e_rf"] == pytest.approx(
            oracles.inertial_shift_rf_upper(1.0, 40.0), rel=1e-4
        )
        assert abs(data["delta_sr_relative"]) < 1e-6

    def test_missing_cutoff_names_key(self, tmp_path, capsys):
        text = INERTIAL_INI.replace("omega_cutoff = 40.0", "")
        path = write(tmp_path, text)
        assert run_cli(["shift", "--config", path]) == 2
        assert "quadrature.omega_cutoff" in capsys.readouterr().err

    def test_small_cutoff_exits_3(self, tmp_path, capsys):
        text = INERTIAL_INI.replace("omega_cutoff = 40.0",
                                    "omega_cutoff = 0.5")
        path = write(tmp_path, text)
        assert run_cli(["shift", "--config", path]) == 3
        assert "omega_cutoff" in capsys.readouterr().err

    def test_both_reports_residual(self, tmp_path):
        path = write(tmp_path, INERTIAL_INI)
        out = tmp_path / "shift.json"
        run_cli(["shift", "--config", path, "--method", "both",
                 "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["kk_vs_direct_residual"] < 1e-5

    @pytest.mark.parametrize("method, built", [("both", ["both"]),
                                               ("direct", [])])
    def test_workspaces_built_once(self, tmp_path, monkeypatch, method,
                                   built):
        # the shift and delta_sr_relative share one workspace that holds
        # both mechanisms
        from resrelax.shifts import ShiftWorkspace

        mechanisms = []
        init = ShiftWorkspace.__init__

        def counting_init(self, kernel, g, cfg, mechanism, poles):
            mechanisms.append(mechanism)
            init(self, kernel, g, cfg, mechanism, poles)

        monkeypatch.setattr(ShiftWorkspace, "__init__", counting_init)
        path = write(tmp_path, INERTIAL_INI.replace("omega_cutoff = 40.0",
                                                    "omega_cutoff = 10.0"))
        out = tmp_path / "shift.json"
        assert run_cli(["shift", "--config", path, "--method", method,
                        "--out", str(out)]) == 0
        assert sorted(mechanisms) == built
        # the direct route's splitting check cannot fail, so it is left out
        assert ("delta_sr_relative" in json.loads(out.read_text())) \
            == (method != "direct")

    def test_direct_route_leaves_out_the_splitting(self, tmp_path, caplog):
        # the direct route's sr splitting is 0 by construction: the run
        # builds no workspace, takes one direct pass for the one partner
        # level and reports no delta_sr_* keys
        path = write(tmp_path, THERMAL_INI.replace("g = 1.0", "g = 0.7"))
        out = tmp_path / "shift.json"
        with caplog.at_level("DEBUG", logger="resrelax"):
            assert run_cli(["shift", "--config", path, "--method", "direct",
                            "--out", str(out)]) == 0
        debug = [r.getMessage() for r in caplog.records]
        assert not [line for line in debug if "workspace" in line]
        assert len([line for line in debug
                    if line.startswith("direct pass")]) == 1
        assert not [k for k in json.loads(out.read_text())
                    if k.startswith("delta_sr")]


def _tabulated_ini(tmp_path):
    u = np.linspace(0.0, 60.0, 601)
    cs, ca = ThermalOhmic(0.5, 5.0, 1.0).evaluate(u, 0.0)
    rows = "\n".join("%.17g,%.17g,%.17g" % t for t in zip(u, cs, ca))
    (tmp_path / "kern.csv").write_text("u,Cs,Ca\n" + rows + "\n")
    return THERMAL_INI.replace(
        "model = thermal_ohmic\neta = 0.5\nomega_j = 5.0\ntemperature = 1.0",
        "model = tabulated\npath = kern.csv").replace(
        "omega_cutoff = 30.0", "omega_cutoff = 20.0")


@pytest.mark.parametrize("model", ["inertial_vacuum", "accelerated_vacuum",
                                   "thermal_ohmic", "tabulated"])
@pytest.mark.parametrize("command", [["rates"], ["shift", "--method", "both"]],
                         ids=["rates", "shift-both"])
def test_cli_samples_kernels_at_eps_zero_only(tmp_path, monkeypatch, model,
                                              command):
    # no CLI model reaches the regulator schedule: closed-form rates, the
    # band-limited vacuum route and kernels regular at eps = 0 all sample
    # (if at all) at eps = 0, which is why the INI has no epsilon_schedule
    from resrelax import kernels

    seen = []
    for cls in (kernels.InertialVacuum, kernels.UnruhExcess,
                kernels.ThermalOhmic, kernels.TabulatedKernel):
        def recording(self, u, eps, _evaluate=cls.evaluate):
            seen.append(float(eps))
            return _evaluate(self, u, eps)

        monkeypatch.setattr(cls, "evaluate", recording)
    text = {"inertial_vacuum": INERTIAL_INI,
            "accelerated_vacuum": INERTIAL_INI.replace(
                "model = inertial_vacuum",
                "model = accelerated_vacuum\nacceleration = 2.0"),
            "thermal_ohmic": THERMAL_INI}.get(model) or _tabulated_ini(tmp_path)
    path = write(tmp_path, text)
    assert run_cli([*command, "--config", path,
                    "--out", str(tmp_path / "out")]) == 0
    assert set(seen) <= {0.0}
    # the direct route samples every kernel without a band-limited
    # variant, and the accelerated trajectory's excess
    if command[0] == "shift" and model != "inertial_vacuum":
        assert seen


@pytest.mark.parametrize("command", [
    ["rates"], ["shift", "--method", "both"], ["shift", "--method", "direct"],
], ids=["rates", "shift-both", "shift-direct"])
def test_overflowing_coupling_fails_fast(tmp_path, capsys, command):
    # g^2 overflows at g = 1e160: the run exits 3 at once and names the
    # knobs, instead of printing inf or spending the split budget on NaN
    path = write(tmp_path, INERTIAL_INI.replace("g = 1.0", "g = 1e160"))
    start = time.perf_counter()
    assert run_cli([*command, "--config", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "system.g" in err and "[reservoir]" in err


def test_overflowing_kernel_fails_fast_on_direct_route(tmp_path, capsys):
    # the kernel samples of eta = 1e307 overflow: the direct pass exits 3
    # at once, with no numpy warning, and names the knobs
    path = write(tmp_path, THERMAL_INI.replace("eta = 0.5", "eta = 1e307"))
    assert run_cli(["shift", "--config", path, "--method", "direct"]) == 3
    err = capsys.readouterr().err
    assert "system.g" in err and "[reservoir]" in err


@pytest.mark.parametrize("method", ["kk", "both"])
def test_overflowing_kernel_fails_fast_on_dispersion_route(tmp_path, capsys,
                                                           method):
    # the closed-form rate coefficients of eta = 1e307 overflow on the
    # workspace grid: exit 3 naming the knobs, with no numpy warning (the
    # suite turns a RuntimeWarning into an error)
    path = write(tmp_path, THERMAL_INI.replace("eta = 0.5", "eta = 1e307"))
    assert run_cli(["shift", "--config", path, "--method", method]) == 3
    err = capsys.readouterr().err
    assert "rate coefficients are not finite" in err
    assert "system.g" in err and "[reservoir]" in err


class TestEvolveCommand:
    def test_fast_acceleration_small_gap(self, tmp_path):
        # a * eps = 10 on the default regulator schedule, where the eps -> 0
        # limit of the time-domain route does not converge; the closed
        # form needs no regulator
        text = ("[system]\nomega_0 = 1e-3\ng = 1.0\n\n[reservoir]\n"
                "model = accelerated_vacuum\nacceleration = 1e3\n")
        path = write(tmp_path, text)
        out = tmp_path / "traj.csv"
        assert run_cli(["evolve", "--config", path, "--out", str(out)]) == 0
        side = json.loads((tmp_path / "traj.csv.json").read_text())
        assert side["gamma_sr"] == pytest.approx(
            oracles.inertial_gamma(1e-3), rel=1e-15)
        assert abs(side["gamma_sr"] - oracles.inertial_gamma(1e-3)) \
            <= side["gamma_sr_error"]

    def test_csv_and_sidecar(self, tmp_path):
        path = write(tmp_path, INERTIAL_INI)
        out = tmp_path / "traj.csv"
        assert run_cli(["evolve", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,mean_energy,closed_form,ode"
        assert len(lines) == 102
        side = json.loads((tmp_path / "traj.csv.json").read_text())
        assert side["a_up"] == pytest.approx(0.0, abs=1e-8)
        assert side["equilibrium_energy"] == pytest.approx(-0.5, rel=1e-6)
        assert side["fitted_decay_rate"] == pytest.approx(
            side["gamma_rf"], rel=1e-6
        )

    def test_ode_column_tracks_closed_form(self, tmp_path):
        path = write(tmp_path, INERTIAL_INI)
        out = tmp_path / "traj.csv"
        run_cli(["evolve", "--config", path, "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            _, _, closed, ode = (float(x) for x in line.split(","))
            assert ode == pytest.approx(closed, abs=1e-8)

    def test_flat_start_at_equilibrium(self, tmp_path):
        text = INERTIAL_INI + "h0 = -0.5\n"
        # inertial ground state is the equilibrium: flat line
        path = write(tmp_path, text.replace("[evolve]\ntau_end = 8.0",
                                            "[evolve]\ntau_end = 8.0"))
        out = tmp_path / "traj.csv"
        run_cli(["evolve", "--config", path, "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert max(abs(e - energies[0]) for e in energies) < 1e-7


class TestKkCheckCommand:
    def test_builtin_suite_passes(self, tmp_path):
        out = tmp_path / "kk.json"
        assert run_cli(["kk-check", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["max_rel_err"] < 1e-4
        assert abs(data["zero_point"]) < 1e-10

    def test_every_decade_of_eta_passes(self, tmp_path):
        # the Lorentzian pair is exact at every eta, and its tolerance
        # scales with it: eta = 10^e passes for e = -150 ... 150 (at
        # 1e-10 fixed, eta <= 1.5e-4 had exited 3 below the rounding floor)
        out = tmp_path / "kk.json"
        for e in range(-150, 151):
            path = write(tmp_path, "[kk_check]\neta = 1e%d\n" % e)
            assert run_cli(["kk-check", "--config", path, "--out",
                            str(out)]) == 0, e
            assert json.loads(out.read_text())["max_rel_err"] < 1e-3, e

    def test_eta_whose_square_underflows_names_key(self, tmp_path, capsys):
        path = write(tmp_path, INERTIAL_INI + "\n[kk_check]\neta = 1e-160\n")
        assert run_cli(["kk-check", "--config", path]) == 2
        assert "kk_check.eta" in capsys.readouterr().err

    def test_user_table_with_nan_rejected(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("0.1,1.0,-0.5\n0.2,nan,-0.4\n0.3,0.8,-0.3\n")
        cfg_text = "[kk_check]\ntable = table.csv\n"
        path = write(tmp_path, cfg_text)
        assert run_cli(["kk-check", "--config", path]) == 2
        assert "kk_check.table" in capsys.readouterr().err

    def test_user_table_is_scale_free(self, tmp_path):
        # the table's tolerance and residual floor scale with its values,
        # so its residual does not depend on the table's units
        w = np.linspace(-200.0, 200.0, 4001)
        residuals = {}
        for scale in (1e-12, 1e-9, 1.0, 1e6, 1e12):
            rows = "".join("%.17g,%.17g,%.17g\n" % (x, scale * x / (x * x + 1),
                                                    -scale / (x * x + 1))
                           for x in w)
            (tmp_path / "table.csv").write_text(rows)
            path = write(tmp_path, "[kk_check]\ntable = table.csv\n")
            out = tmp_path / "kk.json"
            assert run_cli(["kk-check", "--config", path,
                            "--out", str(out)]) == 0
            residuals[scale] = json.loads(
                out.read_text())["table"]["max_rel_residual"]
        for scale, residual in residuals.items():
            assert residual == pytest.approx(residuals[1.0], rel=1e-9), scale

    def test_user_table_all_zero_im_refused(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("0.1,1.0,0.0\n0.2,0.9,0.0\n0.3,0.8,0.0\n")
        path = write(tmp_path, "[kk_check]\ntable = table.csv\n")
        assert run_cli(["kk-check", "--config", path]) == 2
        assert "kk_check.table" in capsys.readouterr().err

    def test_user_table_malformed_row_names_key_and_line(self, tmp_path,
                                                         capsys):
        table = tmp_path / "table.csv"
        table.write_text("omega,re,im\n0.1,1.0,-0.5\n0.2,abc,-0.4\n"
                         "0.3,0.8,-0.3\n")
        path = write(tmp_path, "[kk_check]\ntable = table.csv\n")
        assert run_cli(["kk-check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kk_check.table %s, line 3:" % table in err, err

    def test_user_table_not_utf8_refused(self, tmp_path, capsys):
        # an undecodable table escaped as a UnicodeDecodeError traceback
        table = tmp_path / "table.csv"
        table.write_bytes(b"\xff\xfe\x00\x01")
        path = write(tmp_path, "[kk_check]\ntable = table.csv\n")
        assert run_cli(["kk-check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kk_check.table %s:" % table in err, err


@pytest.mark.parametrize("row", ["30.0; 0.25, 0.0", "30.0,0.25", "30.0,x,0",
                                 "30.0,0.25,0.0,", "30.0,0.25,0.0,1.0"],
                         ids=["semicolon", "short", "text", "trailing-comma",
                              "long"])
def test_tabulated_malformed_row_names_file_and_line(tmp_path, capsys, row):
    # a row that does not parse was dropped, leaving a hole in the kernel
    path = write(tmp_path, _tabulated_ini(tmp_path))
    table = tmp_path / "kern.csv"
    lines = table.read_text().splitlines()
    assert lines[301].startswith("30,")  # u = 30, after the header
    lines[301] = row
    table.write_text("# u, Cs, Ca of ThermalOhmic(0.5, 5, 1)\n"
                     + "\n".join(lines) + "\n")
    assert run_cli(["rates", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "tabulated kernel %s, line 303:" % table in err, err


def test_tabulated_table_not_utf8_refused(tmp_path, capsys):
    # an undecodable table escaped as a UnicodeDecodeError traceback
    path = write(tmp_path, _tabulated_ini(tmp_path))
    table = tmp_path / "kern.csv"
    table.write_bytes(b"\xff\xfe\x00\x01")
    assert run_cli(["rates", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "tabulated kernel %s:" % table in err, err


class TestSweepCommand:
    def test_lexicographic_order(self, tmp_path):
        text = THERMAL_INI + (
            "\n[sweep]\nquantity = gamma_rf\n"
            "temperature = [2.0, 0.5, 1.0]\nomega_0 = [1.5, 1.0]\n"
        )
        path = write(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega_0,temperature,quantity,value,err"
        grid = [tuple(float(x) for x in ln.split(",")[:2])
                for ln in lines[1:]]
        assert grid == sorted(grid)
        assert len(grid) == 6

    def test_values_match_direct_call(self, tmp_path):
        from resrelax import QuadratureConfig, rate_coefficients

        text = THERMAL_INI + "\n[sweep]\nquantity = gamma_rf\n" \
                             "temperature = [1.0]\n"
        path = write(tmp_path, text)
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--config", path, "--out", str(out)])
        value = float(out.read_text().strip().splitlines()[1].split(",")[2])
        ref = rate_coefficients(
            ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0), 1.0, 1.0,
            QuadratureConfig(omega_cutoff=30.0))["rf"]
        assert value == pytest.approx(ref.value, rel=1e-12)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        text = THERMAL_INI + (
            "\n[sweep]\nquantity = gamma_sr\n"
            "temperature = [0.5, 1.0, 2.0, 4.0]\n"
        )
        path = write(tmp_path, text)
        one = tmp_path / "one.csv"
        four = tmp_path / "four.csv"
        run_cli(["sweep", "--config", path, "--out", str(one)])
        run_cli(["sweep", "--config", path, "--jobs", "4", "--out",
                 str(four)])
        assert one.read_bytes() == four.read_bytes()

    def test_tabulated_g_axis_parses_table_once(self, tmp_path,
                                                monkeypatch):
        # a point that overrides only [system] keeps the kernel built
        # from the table; each g on its own gives the same row
        from resrelax import TabulatedKernel

        parses = []
        from_csv = TabulatedKernel.from_csv.__func__

        def counting(cls, path):
            parses.append(path)
            return from_csv(cls, path)

        monkeypatch.setattr(TabulatedKernel, "from_csv",
                            classmethod(counting))
        ini = _tabulated_ini(tmp_path) + "\n[sweep]\nquantity = gamma_rf\n"
        path = write(tmp_path, ini + "g = [0.5, 0.7, 1.0]\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", path, "--out", str(out)]) == 0
        assert len(parses) == 1
        # threads share the one kernel
        pooled = tmp_path / "pooled.csv"
        assert run_cli(["sweep", "--config", path, "--jobs", "4",
                        "--out", str(pooled)]) == 0
        assert len(parses) == 2
        assert pooled.read_bytes() == out.read_bytes()
        rows = []
        for g in ("0.5", "0.7", "1.0"):
            one = write(tmp_path, ini + "g = [%s]\n" % g, "one.ini")
            assert run_cli(["sweep", "--config", one,
                            "--out", str(tmp_path / "one.csv")]) == 0
            header, row = (tmp_path / "one.csv").read_text().splitlines()
            rows.append(row)
        assert out.read_text() == "\n".join([header, *rows]) + "\n"

    def test_many_threads_fill_every_point(self, tmp_path):
        # more workers than cores, switching threads every microsecond:
        # a lost or misplaced result would change the bytes
        text = THERMAL_INI + (
            "\n[sweep]\nquantity = einstein_ratio\n"
            "temperature = [0.5, 1.0, 2.0, 4.0]\nomega_0 = [0.8, 1.6, 3.2]\n")
        path = write(tmp_path, text)
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in ("1", "8"):
                out[jobs] = tmp_path / ("jobs-%s.csv" % jobs)
                assert run_cli(["sweep", "--config", path, "--jobs", jobs,
                                "--out", str(out[jobs])]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert out["1"].read_bytes() == out["8"].read_bytes()
        assert len(out["8"].read_text().splitlines()) == 13
        assert threading.active_count() == 1

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_first_failing_point_in_grid_order_is_reported(
            self, tmp_path, capsys, monkeypatch, jobs):
        # the points at omega_0 = 3 and 5 fail; 3, the first in grid
        # order, fails last
        import resrelax.cli as cli

        point = cli._sweep_point

        def failing(base_cfg, names, values, quantity):
            if values[0] == 3.0:
                time.sleep(0.2)
            if values[0] in (3.0, 5.0):
                raise ConfigError("point %g fails" % values[0])
            return point(base_cfg, names, values, quantity)

        monkeypatch.setattr(cli, "_sweep_point", failing)
        text = THERMAL_INI + ("\n[sweep]\nquantity = gamma_rf\n"
                              "omega_0 = [1, 2, 3, 4, 5, 6]\n")
        path = write(tmp_path, text)
        assert run_cli(["sweep", "--config", path, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == "resrelax: config error: point 3 fails\n"
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        text = THERMAL_INI + "\n[sweep]\nquantity = gamma_sr\n" \
                             "temperature = [1.0]\n"
        path = write(tmp_path, text)
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--config", path, "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --jobs: must be at least 1, got %s" % jobs \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lamb_shift_without_cutoff_names_key(self, tmp_path, capsys,
                                                 monkeypatch, jobs):
        # refused before the grid runs, exit 2 as for shift, not a
        # numerical failure (exit 3) at the first point
        import resrelax.cli as cli

        monkeypatch.setattr(cli, "_sweep_point", None)
        text = INERTIAL_INI.replace("omega_cutoff = 40.0", "") + (
            "\n[sweep]\nquantity = lamb_shift\nomega_0 = [1.0, 2.0]\n")
        path = write(tmp_path, text)
        assert run_cli(["sweep", "--config", path, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "resrelax: config error: missing required key "
            "quadrature.omega_cutoff (shift integrals need a frequency "
            "cutoff)\n")
        assert captured.out == ""

    def test_lamb_shift_cutoff_axis_needs_no_key(self, tmp_path):
        # an omega_cutoff axis sets the cutoff at every point
        text = INERTIAL_INI.replace("omega_cutoff = 40.0", "") + (
            "\n[sweep]\nquantity = lamb_shift\nomega_cutoff = [30.0, 40.0]\n")
        path = write(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_quantity_rejected(self, tmp_path, capsys):
        text = THERMAL_INI + "\n[sweep]\nquantity = bogus\n" \
                             "temperature = [1.0]\n"
        path = write(tmp_path, text)
        assert run_cli(["sweep", "--config", path]) == 2

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        axis = "[" + ", ".join(str(float(i)) for i in range(1, 102)) + "]"
        text = THERMAL_INI + (
            "\n[sweep]\nquantity = gamma_rf\n"
            "temperature = %s\nomega_0 = %s\neta = %s\n" % (axis, axis, axis)
        )
        path = write(tmp_path, text)
        assert run_cli(["sweep", "--config", path]) == 2
        assert "10^6" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key", [
    ("evolve", INERTIAL_INI.replace("tau_end = 8.0", "tau_end = abc"),
     "evolve.tau_end"),
    ("evolve", INERTIAL_INI + "h0 = [1, 2]\n", "evolve.h0"),
    ("evolve", INERTIAL_INI + "h0 = 1e999\n", "evolve.h0"),
    ("evolve", INERTIAL_INI + "h0 = 1%s\n" % ("0" * 400), "evolve.h0"),
    ("evolve", INERTIAL_INI + 'step = "x"\n', "evolve.step"),
    ("evolve", INERTIAL_INI + 'n_samples = "many"\n', "evolve.n_samples"),
    ("kk-check", INERTIAL_INI + "\n[kk_check]\neta = abc\n",
     "kk_check.eta"),
    ("sweep", THERMAL_INI + '\n[sweep]\nquantity = gamma_rf\n'
     'temperature = [0.5, "hot"]\n', "sweep.temperature"),
    ("rates", INERTIAL_INI.replace(
        "omega_cutoff = 40.0", "epsilon_schedule = [0.01, \"x\"]"),
     "quadrature.epsilon_schedule"),
], ids=["tau_end", "h0", "h0-inf", "h0-huge-int", "step", "n_samples", "eta",
        "sweep-temperature", "epsilon_schedule"])
def test_malformed_value_names_key(tmp_path, capsys, command, text, key):
    # a value of the wrong type is a config error that names its key,
    # not a traceback
    path = write(tmp_path, text)
    assert run_cli([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, key", [
    ("step = 1e-300", "evolve.step"),
    ("n_samples = 100000000", "evolve.n_samples"),
    ("tau_end = 1e300", "evolve.tau_end"),
], ids=["step", "n_samples", "tau_end"])
def test_oversized_evolve_rejected(tmp_path, capsys, line, key):
    # refused before the trajectory is allocated or integrated, as an
    # oversized sweep grid is
    text = INERTIAL_INI.replace("tau_end = 8.0", "") + line + "\n"
    path = write(tmp_path, text)
    start = time.perf_counter()
    assert run_cli(["evolve", "--config", path,
                    "--out", str(tmp_path / "out.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert key in err and "10^6" in err
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# the argument parser

def test_option_values_after_equals(tmp_path):
    # --opt=value and --opt value parse alike; the last of a repeated
    # option wins
    path = write(tmp_path, INERTIAL_INI)
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli(["shift", "--config", path, "--method", "both",
                    "--format", "csv", "--out", str(spaced)]) == 0
    assert run_cli(["shift", "--config=" + path, "--method=kk",
                    "--method=both", "--format=csv",
                    "--out=" + str(joined)]) == 0
    assert joined.read_bytes() == spaced.read_bytes() != b""


@pytest.mark.parametrize("argv, lines", [
    (["-h"], ["usage: resrelax [-h] {rates,shift,evolve,kk-check,sweep} ...",
              "  kk-check  dispersion-transform self-test"]),
    (["shift", "--help"], [
        "usage: resrelax shift [-h] [--config PATH] [--out PATH] "
        "[--format {csv,json}] [--method {kk,direct,both}]",
        "  --method {kk,direct,both}  shift route (default: kk)"]),
    (["sweep", "--jobs", "3", "-h"], [
        "  --jobs N       concurrent grid evaluations (default: 1)"]),
], ids=["top", "shift", "sweep"])
def test_help_on_stdout_exits_0(capsys, argv, lines):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for line in lines:
        assert line in captured.out.splitlines()


@pytest.mark.parametrize("argv, message", [
    ([], "resrelax: error: the following arguments are required: command"),
    (["--config", "run.ini", "rates"],
     "resrelax: error: argument command: invalid choice: '--config' (choose "
     "from 'rates', 'shift', 'evolve', 'kk-check', 'sweep')"),
    (["rates", "extra"], "resrelax rates: error: unrecognized arguments: "
                         "extra"),
    (["shift", "--meth", "both"], "resrelax shift: error: unrecognized "
                                  "arguments: --meth"),
    (["rates", "--method", "kk"], "resrelax rates: error: unrecognized "
                                  "arguments: --method"),
    (["sweep", "--jobs", "two"], "resrelax sweep: error: argument --jobs: "
                                 "invalid int value: 'two'"),
    (["sweep", "--jobs=0"], "resrelax sweep: error: argument --jobs: must be "
                            "at least 1, got 0"),
    (["rates", "--format=xml"], "resrelax rates: error: argument --format: "
                                "invalid choice: 'xml' (choose from 'csv', "
                                "'json')"),
    (["rates", "--help=x"], "resrelax rates: error: unrecognized "
                            "arguments: --help=x"),
], ids=["no-command", "option-first", "positional", "prefix", "other-command",
        "jobs-not-int", "jobs-equals", "format", "help-value"])
def test_usage_error_on_stderr_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: resrelax ")
    assert error == message


@pytest.mark.parametrize("command", ["evolve", "kk-check", "sweep"])
def test_format_only_on_rates_and_shift(capsys, command):
    # these commands write one format each, so --format is none of theirs
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--format", "csv"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == ("resrelax %s: error: unrecognized arguments: --format"
                     % command)


def test_no_partial_output_on_failure(tmp_path):
    # a config that fails mid-run must not leave the target file behind
    text = INERTIAL_INI.replace("omega_cutoff = 40.0", "omega_cutoff = 0.5")
    path = write(tmp_path, text)
    out = tmp_path / "shift.json"
    assert run_cli(["shift", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".resrelax")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_get_the_mode_open_gives(tmp_path, umask):
    # the temporary file that is renamed into place was always 0600
    path = write(tmp_path, INERTIAL_INI)
    out = tmp_path / "traj.csv"
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert run_cli(["evolve", "--config", path, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "plain").st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert os.stat(out).st_mode & 0o777 == mode
    assert os.stat(tmp_path / "traj.csv.json").st_mode & 0o777 == mode
