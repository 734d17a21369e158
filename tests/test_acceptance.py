"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s or
on failure) and asserts the same condition, so the suite doubles as a
human-readable report.  Tolerances are fixed here on purpose; loosening
them is a library regression, not a test problem.
"""

import json
import math
import time

import numpy as np

import oracles
from resrelax import (
    AcceleratedVacuum,
    InertialVacuum,
    QuadratureConfig,
    SystemSpec,
    ThermalOhmic,
    compute_shift,
    delta_sr_relative,
    einstein_coefficients,
    evolve_closed_form,
    evolve_ode,
    fit_decay_rate,
    kk_real_from_imag,
    lamb_shift_two_level,
    rate_coefficients,
    relaxation_rate,
    shift_direct,
    transition_rates,
    two_level_system,
)
from resrelax.cli import main as cli_main

THERMAL = dict(eta=0.5, omega_j=5.0, temperature=1.0)


def _report(num, label, ok, detail):
    line = "[%s] criterion %2d %-24s %s" % (
        "PASS" if ok else "FAIL", num, label, detail)
    print(line, flush=True)
    assert ok, line


def _three_level(g=0.6):
    """Seeded 3-level system with dense hermitian diagonal-free couplings."""
    rng = np.random.default_rng(20240817)
    mats = []
    for _ in range(2):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = 0.5 * (m + m.conj().T)
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    return SystemSpec(levels=(("0", -1.1), ("1", 0.3), ("2", 1.4)),
                      coupling_ops=tuple(mats), g=g)


def test_criterion_01_sr_shift_level_independence():
    t0 = time.monotonic()
    atom = two_level_system(1.0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=40.0)
    kernels = (InertialVacuum(),
               AcceleratedVacuum(acceleration=2.0),
               ThermalOhmic(**THERMAL))
    worst = 0.0
    ok = True
    for kernel in kernels:
        r = delta_sr_relative(atom, kernel, cfg)
        bound = 10.0 * r.error_estimate
        ok = ok and abs(r.value) <= bound
        worst = max(worst, abs(r.value))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(1, "sr-shift identity", ok,
            "max |dE+^sr - dE-^sr| = %.2e on 3 kernels, %.1fs" %
            (worst, elapsed))


def test_criterion_02_dispersion_vs_direct_shift():
    t0 = time.monotonic()
    kernel = ThermalOhmic(**THERMAL)
    cfg = QuadratureConfig(omega_cutoff=50.0)
    systems = (two_level_system(1.0, 1.0), _three_level())
    ok = True
    worst_margin = math.inf
    for spec in systems:
        for a in range(len(spec.levels)):
            kk = compute_shift(spec, kernel, a, cfg, method="kk")
            direct = shift_direct(spec, kernel, a, cfg)
            drf, dsr = direct["rf"], direct["sr"]
            residual = max(abs(kk.delta_e_rf - drf.value),
                           abs(kk.delta_e_sr - dsr.value))
            combined = (kk.err_quad + kk.err_cutoff
                        + drf.error_estimate + dsr.error_estimate)
            ok = ok and residual <= combined
            worst_margin = min(worst_margin, combined / residual)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(2, "kk vs direct shifts", ok,
            "5 levels within combined errors (min margin %.2fx), %.1fs" %
            (worst_margin, elapsed))


def test_criterion_03_inertial_rate_balance(rate_routes):
    cfg = QuadratureConfig()
    worst = 0.0
    a_up = []
    ok = True
    for _, route in rate_routes:
        kernel = route(InertialVacuum())
        for w in (0.1, 1.0, 10.0):
            ref = oracles.inertial_gamma(w)
            rates = rate_coefficients(kernel, w, 1.0, cfg)
            rf, sr = rates["rf"], rates["sr"]
            dev = max(abs(rf.value - ref), abs(sr.value - ref)) / ref
            worst = max(worst, dev)
            ok = ok and dev <= 1e-4
        rates = rate_coefficients(kernel, 1.0, 1.0, cfg)
        grf, gsr = rates["rf"], rates["sr"]
        ein = einstein_coefficients(grf, gsr)
        ok = ok and abs(ein.a_up) <= 10.0 * ein.a_up_error
        ok = ok and abs(ein.a_up) <= 1e-8 * ein.a_down
        a_up.append("%.1e" % ein.a_up)
    _report(3, "inertial rf = sr", ok,
            "max rel dev %.2e at 3 frequencies; A_up = %s (%s)" %
            (worst, " / ".join(a_up),
             " / ".join(name for name, _ in rate_routes)))


def test_criterion_04_acceleration_excitation_ratio(rate_routes):
    cfg = QuadratureConfig()
    worst = 0.0
    ok = True
    for _, route in rate_routes:
        for acc in (1.0, 2.0 * math.pi, 10.0):
            kernel = route(AcceleratedVacuum(acceleration=acc))
            rates = rate_coefficients(kernel, 1.0, 1.0, cfg)
            grf, gsr = rates["rf"], rates["sr"]
            ein = einstein_coefficients(grf, gsr)
            ref = oracles.unruh_ratio(1.0, acc)
            dev = abs(ein.ratio - ref) / ref
            worst = max(worst, dev)
            ok = ok and dev <= 1e-3
    _report(4, "thermal ratio under a", ok,
            "max rel dev %.2e for a/omega_0 in {1, 2pi, 10}, both routes"
            % worst)


def test_criterion_05_thermal_detailed_balance(rate_routes):
    cfg = QuadratureConfig()
    ok = True
    worst = 0.0
    for _, route in rate_routes:
        for w0, temp in ((1.0, 0.5), (1.0, 2.0), (2.0, 1.0)):
            kernel = route(ThermalOhmic(eta=0.5, omega_j=5.0,
                                        temperature=temp))
            rates = rate_coefficients(kernel, w0, 1.0, cfg)
            grf, gsr = rates["rf"], rates["sr"]
            ein = einstein_coefficients(grf, gsr)
            ref = oracles.thermal_ratio(w0, temp)
            sigma = (ein.a_up_error + abs(ein.ratio) * ein.a_down_error) \
                / ein.a_down
            dev = abs(ein.ratio - ref)
            ok = ok and dev <= 10.0 * sigma
            worst = max(worst, dev / max(sigma, 1e-300))
    _report(5, "detailed balance", ok,
            "worst dev = %.2e sigma on 3 (omega_0, T) pairs, both routes"
            % worst)


def test_criterion_06_relaxation_trajectories():
    worst_end = 0.0
    worst_fit = 0.0
    ok = True
    count = 0
    for grf in (0.02, 0.2, 1.0):
        for ratio in (0.5, 0.9, 1.0):
            gsr = ratio * grf
            h_eq = -0.5 * gsr / grf
            for h0 in (-0.4, 0.1, 0.5):
                count += 1
                tau_end = 5.0 / grf
                traj = evolve_ode(grf, gsr, 1.0, h0, tau_end)
                closed = evolve_closed_form(grf, gsr, 1.0, h0,
                                            tau_end).mean_energy
                dev = abs(traj[-1].mean_energy - closed) / abs(closed)
                worst_end = max(worst_end, dev)
                ok = ok and dev <= 1e-8
                fit = fit_decay_rate(traj, h_eq)
                fdev = abs(fit - grf) / grf
                worst_fit = max(worst_fit, fdev)
                ok = ok and fdev <= 1e-6
                energies = [s.mean_energy for s in traj]
                diffs = np.diff(energies)
                span = abs(h0 - h_eq)
                if h0 > h_eq:
                    ok = ok and bool(np.all(diffs <= 1e-14 * span))
                else:
                    ok = ok and bool(np.all(diffs >= -1e-14 * span))
    assert count == 27
    _report(6, "ode vs closed form", ok,
            "27 runs: max end-point rel %.2e, max fit rel %.2e, monotone" %
            (worst_end, worst_fit))


def test_criterion_07_transition_rate_consistency(rate_routes):
    cfg = QuadratureConfig()
    atom = two_level_system(1.0, 0.7)
    spec3 = _three_level()
    tight = QuadratureConfig(epsilon_schedule=(1.25e-3, 6.25e-4, 3.125e-4),
                             rel_tol=1e-11, abs_tol=1e-13)
    ok = True
    worst_sum = 0.0
    worst_fd = 0.0
    for _, route in rate_routes:
        kernel = route(ThermalOhmic(**THERMAL))
        rates = rate_coefficients(kernel, 1.0, 0.7, cfg)
        grf, gsr = rates["rf"], rates["sr"]
        for a, h in ((0, -0.5), (1, 0.5)):
            total = relaxation_rate(atom, a, kernel, cfg)
            closed = oracles.two_level_energy_flux(grf.value, gsr.value,
                                                   1.0, h)
            dev = abs(total.value - closed) / abs(closed)
            worst_sum = max(worst_sum, dev)
            ok = ok and dev <= 1e-10
        # per-transition coefficients against the finite-difference oracle
        raw3 = ThermalOhmic(eta=0.4, omega_j=4.0, temperature=0.8)
        for a in range(3):
            for tr in transition_rates(spec3, a, route(raw3), tight):
                frf, _ = oracles.fd_transition_rf(
                    raw3, tr.omega_ab, tr.strength, spec3.g)
                fsr, _ = oracles.fd_transition_sr(
                    raw3, tr.omega_ab, tr.strength, spec3.g)
                dev = max(abs(tr.rf - frf) / abs(frf),
                          abs(tr.sr - fsr) / abs(fsr))
                worst_fd = max(worst_fd, dev)
                ok = ok and dev <= 1e-8
    _report(7, "rate assembly", ok,
            "two-level sum rel %.2e; fd oracle rel %.2e on 6 transitions, "
            "both routes" % (worst_sum, worst_fd))


def test_criterion_08_cutoff_scaling():
    lamb = {}
    for wc in (50.0, 100.0, 200.0):
        cfg = QuadratureConfig(omega_cutoff=wc)
        lamb[wc] = lamb_shift_two_level(InertialVacuum(), 1.0, 1.0, cfg).value
    inc1 = lamb[100.0] - lamb[50.0]
    inc2 = lamb[200.0] - lamb[100.0]
    ratio_dev = abs(inc2 / inc1 - 1.0)
    ok = ratio_dev <= 0.05
    kernel = ThermalOhmic(**THERMAL)
    atom = two_level_system(1.0, 1.0)
    totals = {}
    for wc in (20.0, 40.0, 80.0):
        cfg = QuadratureConfig(omega_cutoff=wc)
        totals[wc] = compute_shift(atom, kernel, 1, cfg, method="kk").total
    tinc1 = abs(totals[40.0] - totals[20.0])
    tinc2 = abs(totals[80.0] - totals[40.0])
    ok = ok and tinc2 <= 0.25 * tinc1
    _report(8, "cutoff behavior", ok,
            "log-uniform inertial increments (dev %.1e); thermal increments "
            "%.1e -> %.1e" % (ratio_dev, tinc1, tinc2))


def test_criterion_09_dispersion_engine():
    t0 = time.monotonic()
    eta = 0.1
    cfg = QuadratureConfig(omega_cutoff=250.0 * eta)

    def imag_part(x):
        return oracles.lorentz_imag(x, eta)

    worst = 0.0
    for factor in (0.5, 2.0, 5.0, 10.0, 20.0):
        for sign in (1.0, -1.0):
            w = sign * eta * factor
            num = kk_real_from_imag(imag_part, w, cfg)
            ref = oracles.lorentz_real(w, eta)
            worst = max(worst, abs(num.value - ref) / abs(ref))
    zero = kk_real_from_imag(imag_part, 0.0, cfg)
    worst = max(worst, abs(zero.value) * 2.0 * eta)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _report(9, "hilbert-pair accuracy", ok,
            "max rel err %.2e over 11 points, %.2fs" % (worst, elapsed))


CLI_BASE = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = %s

[quadrature]
omega_cutoff = %s
"""


def test_criterion_10_cli_determinism(tmp_path):
    thermal_lines = ("thermal_ohmic\neta = 0.5\nomega_j = 5.0\n"
                     "temperature = 1.0")
    runs = {
        "rates": (CLI_BASE % ("inertial_vacuum", "40.0"), []),
        "shift": (CLI_BASE % ("inertial_vacuum", "20.0"), []),
        "evolve": (CLI_BASE % ("inertial_vacuum", "40.0")
                   + "\n[evolve]\ntau_end = 8.0\n", []),
        "kk-check": (CLI_BASE % ("inertial_vacuum", "40.0"), []),
        "sweep": (CLI_BASE % (thermal_lines, "30.0")
                  + "\n[sweep]\nquantity = gamma_rf\n"
                    "temperature = [0.5, 1.0]\n", []),
    }
    ok = True
    checked = []
    for cmd, (text, extra) in sorted(runs.items()):
        cfg_path = tmp_path / (cmd + ".ini")
        cfg_path.write_text(text)
        outs = []
        for run in (1, 2):
            out = tmp_path / ("%s-%d.out" % (cmd, run))
            code = cli_main([cmd, "--config", str(cfg_path),
                             "--out", str(out)] + extra)
            ok = ok and code == 0
            blob = out.read_bytes()
            side = out.parent / (out.name + ".json")
            if side.exists():
                blob += side.read_bytes()
            outs.append(blob)
        same = outs[0] == outs[1]
        ok = ok and same
        checked.append("%s%s" % (cmd, "" if same else "!"))
    _report(10, "cli determinism", ok,
            "byte-identical reruns: %s" % ", ".join(checked))
