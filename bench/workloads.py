"""Seeded inputs, CLI invocations and reference checks for each workload.

Every input is drawn from ``random.Random(seed)`` and written as an INI
file; the program sees nothing else.  The references are closed forms
derived here (or a second, untimed run of the independent route), never
values imported from ``src/``.  Parameter ranges are chosen so that the
cost of a run hardly depends on the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ETA, OMEGA_J = 0.5, 5.0  # ThermalOhmic spectral density of both thermal loads


@dataclass
class Invocation:
    """One ``resrelax`` command line and the files it writes."""

    argv: list
    outputs: list


@dataclass
class Job:
    """A workload instance: generated inputs plus what to run on them."""

    workload: str
    seed: int
    workdir: Path
    configs: list          # one INI per timed invocation (parsed in set-up)
    timed: list            # invocations of one timed sample, in order
    reference: list = field(default_factory=list)  # untimed, for checks
    params: dict = field(default_factory=dict)


class Checks:
    """Collects failed comparisons and the worst relative deviation."""

    def __init__(self):
        self.failures = []
        self.max_rel_err = 0.0

    def close(self, what, value, ref, tol):
        """Require |value - ref| <= tol; track |value - ref| / |ref|."""
        dev = abs(value - ref)
        if ref != 0.0:
            self.max_rel_err = max(self.max_rel_err, dev / abs(ref))
        if not dev <= tol:
            self.failures.append("%s: %.12e vs reference %.12e (|dev| %.3e > "
                                 "tol %.3e)" % (what, value, ref, dev, tol))

    def true(self, what, ok):
        if not ok:
            self.failures.append(what)


def _ini(path, header, sections):
    lines = ["# %s" % header]
    for name, items in sections:
        lines.append("[%s]" % name)
        lines.extend("%s = %s" % kv for kv in items)
        lines.append("")
    path.write_text("\n".join(lines))


def _num(x):
    """Round to 6 significant digits; the rounded value is the input."""
    return float("%.6g" % x)


# ---------------------------------------------------------------------------
# shift-thermal3

def _hermitian_offdiag(rng, n):
    m = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = complex(_num(rng.gauss(0.0, 0.5)), _num(rng.gauss(0.0, 0.5)))
            m[i][j] = z
            m[j][i] = z.conjugate()
    return m


def _levels(rng, n, lo, hi, min_gap):
    while True:
        e = sorted(_num(rng.uniform(lo, hi)) for _ in range(n))
        if min(b - a for a, b in zip(e, e[1:])) >= min_gap:
            return e


def make_shift_thermal3(seed, workdir):
    rng = random.Random(seed)
    energies = _levels(rng, 3, -1.5, 1.5, 0.25)
    ops = [_hermitian_offdiag(rng, 3) for _ in range(2)]
    ini = workdir / "thermal3.ini"
    _ini(ini, "shift-thermal3, seed %d" % seed, [
        ("system", [
            ("levels", repr([(str(k), e) for k, e in enumerate(energies)])),
            ("coupling_ops", repr(ops)),
            ("g", "0.6")]),
        ("reservoir", [("model", "thermal_ohmic"), ("eta", ETA),
                       ("omega_j", OMEGA_J), ("temperature", "1.0")]),
        ("quadrature", [("omega_cutoff", "50.0")]),
    ])
    return Job("shift-thermal3", seed, workdir, [ini],
               timed=[Invocation(["shift", "--config", str(ini), "--method",
                                  "both", "--out", str(workdir / "both.json")],
                                 ["both.json"])],
               reference=[Invocation(["shift", "--config", str(ini),
                                      "--method", "direct", "--out",
                                      str(workdir / "direct.json")],
                                     ["direct.json"])],
               params={"energies": energies})


def check_shift_thermal3(job, out, checks):
    """Acceptance criterion 2: kk and direct agree within both budgets."""
    both = json.loads(out["both.json"])
    direct = json.loads(out["direct.json"])
    budget = both["err_quad"] + both["err_cutoff"] + direct["err_quad"]
    for mech in ("rf", "sr"):
        key = "delta_e_" + mech
        checks.close("kk vs direct " + key, both[key], direct[key], budget)
    keys = ("delta_e_rf", "delta_e_sr")
    worst = max(abs(both[k] - direct[k]) for k in keys)
    rounding = 1e-11 * max(abs(v[k]) for v in (both, direct) for k in keys)
    checks.close("reported kk_vs_direct_residual",
                 both["kk_vs_direct_residual"], worst, rounding)


# ---------------------------------------------------------------------------
# shift-vacuum

def make_shift_vacuum(seed, workdir):
    rng = random.Random(seed)
    omega_0 = _num(rng.uniform(0.5, 2.0))
    ini = workdir / "vacuum.ini"
    _ini(ini, "shift-vacuum, seed %d" % seed, [
        ("system", [("omega_0", omega_0), ("g", "1.0")]),
        ("reservoir", [("model", "inertial_vacuum")]),
        ("quadrature", [("omega_cutoff", "40.0")]),
    ])
    return Job("shift-vacuum", seed, workdir, [ini],
               timed=[Invocation(["shift", "--config", str(ini), "--method",
                                  "both", "--out", str(workdir / "both.json")],
                                 ["both.json"])],
               params={"omega_0": omega_0, "omega_c": 40.0, "g": 1.0})


def inertial_shifts(omega_0, omega_c, g):
    """Upper-level shifts of a two-level atom, sharp window at omega_c.

    With gamma(w) = g^2 |w| / 8 pi (rf, even) or g^2 w / 8 pi (sr, odd),
    strength m = 1/4 and dE = (1/2pi) PV int_{-wc}^{wc} -2 m gamma(w) /
    (w - w0) dw, the elementary integrals give
        rf: -(g^2 w0 / 32 pi^2) ln((wc^2 - w0^2) / w0^2)
        sr:  (g^2 / 32 pi^2) (-2 wc + w0 ln((wc + w0) / (wc - w0))).
    """
    c = g * g / (32.0 * math.pi ** 2)
    rf = -c * omega_0 * math.log((omega_c ** 2 - omega_0 ** 2) / omega_0 ** 2)
    sr = c * (-2.0 * omega_c
              + omega_0 * math.log((omega_c + omega_0) / (omega_c - omega_0)))
    return rf, sr


def check_shift_vacuum(job, out, checks):
    both = json.loads(out["both.json"])
    p = job.params
    rf, sr = inertial_shifts(p["omega_0"], p["omega_c"], p["g"])
    checks.close("delta_e_rf (closed form)", both["delta_e_rf"], rf,
                 both["err_quad"])
    checks.close("delta_e_sr (closed form)", both["delta_e_sr"], sr,
                 both["err_quad"])
    checks.close("delta_sr_relative (identity 0)", both["delta_sr_relative"],
                 0.0, both["delta_sr_error"])
    checks.true("kk_vs_direct_residual %.3e exceeds err_quad %.3e"
                % (both["kk_vs_direct_residual"], both["err_quad"]),
                both["kk_vs_direct_residual"] <= both["err_quad"])


# ---------------------------------------------------------------------------
# sweep-thermal

def make_sweep_thermal(seed, workdir):
    rng = random.Random(seed)
    temps = sorted({_num(rng.uniform(0.5, 2.0)) for _ in range(6)})
    omegas = sorted({_num(rng.uniform(0.5, 2.0)) for _ in range(4)})
    ini = workdir / "sweep.ini"
    _ini(ini, "sweep-thermal, seed %d" % seed, [
        ("system", [("omega_0", "1.0"), ("g", "1.0")]),
        ("reservoir", [("model", "thermal_ohmic"), ("eta", ETA),
                       ("omega_j", OMEGA_J), ("temperature", "1.0")]),
        ("sweep", [("quantity", "einstein_ratio"),
                   ("temperature", repr(temps)), ("omega_0", repr(omegas))]),
    ])
    # one job: with two worker threads on two cores the wall time tracks
    # whatever else the machine runs (quartile spread 23% over ten seeds,
    # against 6% for the CPU time), which no bound can absorb
    return Job("sweep-thermal", seed, workdir, [ini],
               timed=[Invocation(["sweep", "--config", str(ini), "--jobs",
                                  "1", "--out", str(workdir / "sweep.csv")],
                                 ["sweep.csv"])],
               params={"temperature": temps, "omega_0": omegas})


def check_sweep_thermal(job, out, checks):
    """Detailed balance A_up / A_down = exp(-omega_0 / T) at every point."""
    rows = list(csv.DictReader(io.StringIO(out["sweep.csv"].decode())))
    grid = {(w, t) for w in job.params["omega_0"]
            for t in job.params["temperature"]}
    checks.true("sweep has %d rows, grid has %d points" % (len(rows), len(grid)),
                len(rows) == len(grid))
    for row in rows:
        w, t = float(row["omega_0"]), float(row["temperature"])
        checks.true("unexpected grid point %r" % ((w, t),), (w, t) in grid)
        checks.close("einstein_ratio at omega_0=%g T=%g" % (w, t),
                     float(row["value"]), math.exp(-w / t), float(row["err"]))


# ---------------------------------------------------------------------------
# atom-session

def make_atom_session(seed, workdir):
    rng = random.Random(seed)
    omega_0 = _num(rng.uniform(0.5, 2.0))
    acc = _num(rng.uniform(1.0, 4.0))
    g = _num(rng.uniform(0.5, 1.0))
    kk_eta = _num(rng.uniform(0.05, 0.2))
    ini = workdir / "atom.ini"
    _ini(ini, "atom-session, seed %d" % seed, [
        ("system", [("omega_0", omega_0), ("g", g)]),
        ("reservoir", [("model", "accelerated_vacuum"),
                       ("acceleration", acc)]),
        ("kk_check", [("eta", kk_eta)]),
    ])

    def run(command, out, *extra):
        return Invocation([command, "--config", str(ini),
                           "--out", str(workdir / out)], [out, *extra])

    return Job("atom-session", seed, workdir, [ini, ini, ini],
               timed=[run("rates", "rates.csv"),
                      run("evolve", "traj.csv", "traj.csv.json"),
                      run("kk-check", "kk.json")],
               params={"omega_0": omega_0, "acceleration": acc, "g": g})


def unruh_gammas(omega, acceleration, g):
    """gamma_rf = g^2 w coth(pi w / a) / 8 pi and gamma_sr = g^2 w / 8 pi."""
    sr = g * g * omega / (8.0 * math.pi)
    return sr / math.tanh(math.pi * omega / acceleration), sr


def check_atom_session(job, out, checks):
    p = job.params
    w0 = p["omega_0"]
    ref_rf, ref_sr = unruh_gammas(w0, p["acceleration"], p["g"])
    gammas = {}
    for row in csv.DictReader(io.StringIO(out["rates.csv"].decode())):
        if row["a"] == "":
            gammas[row["mechanism"]] = (float(row["omega"]),
                                        float(row["gamma_or_Gamma"]),
                                        float(row["err"]))
    checks.true("rates.csv lacks the gamma rows", set(gammas) == {"rf", "sr"})
    if set(gammas) == {"rf", "sr"}:
        checks.close("rates omega", gammas["rf"][0], w0, 1e-12 * w0)
        checks.close("rates gamma_rf (Unruh)", gammas["rf"][1], ref_rf,
                     gammas["rf"][2])
        checks.close("rates gamma_sr (inertial)", gammas["sr"][1], ref_sr,
                     gammas["sr"][2])

    side = json.loads(out["traj.csv.json"])
    checks.close("evolve gamma_rf (Unruh)", side["gamma_rf"], ref_rf,
                 side["gamma_rf_error"])
    checks.close("evolve gamma_sr (inertial)", side["gamma_sr"], ref_sr,
                 side["gamma_sr_error"])
    # RK4 column against the closed-form relaxation of the same rates
    grf, gsr, h0 = side["gamma_rf"], side["gamma_sr"], side["h0"]
    h_eq = -0.5 * w0 * gsr / grf
    rows = list(csv.DictReader(io.StringIO(out["traj.csv"].decode())))
    checks.true("evolve wrote %d samples, expected 101" % len(rows),
                len(rows) == 101)
    scale = abs(h0 - h_eq)
    for row in rows:
        tau = float(row["tau"])
        closed = h_eq + (h0 - h_eq) * math.exp(-grf * tau)
        checks.close("evolve ode at tau=%g" % tau, float(row["ode"]), closed,
                     1e-8 * scale)
    checks.close("fitted decay rate", side["fitted_decay_rate"], grf,
                 1e-6 * grf)

    kk = json.loads(out["kk.json"])
    checks.true("kk-check passed is %r" % kk["passed"], kk["passed"] is True)
    checks.max_rel_err = max(checks.max_rel_err, kk["max_rel_err"])


WORKLOADS = {
    "shift-thermal3": (make_shift_thermal3, check_shift_thermal3),
    "shift-vacuum": (make_shift_vacuum, check_shift_vacuum),
    "sweep-thermal": (make_sweep_thermal, check_sweep_thermal),
    "atom-session": (make_atom_session, check_atom_session),
}


def make_job(workload, seed, workdir):
    return WORKLOADS[workload][0](seed, workdir)


def check_job(job, outputs):
    """Check one sample's outputs (file name -> bytes); returns Checks."""
    checks = Checks()
    try:
        WORKLOADS[job.workload][1](job, outputs, checks)
    except (KeyError, ValueError, TypeError) as exc:
        checks.failures.append("malformed output: %r" % (exc,))
    return checks
