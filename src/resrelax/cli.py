"""Command-line interface.

Subcommands:

  rates     rate coefficients and per-transition relaxation rates (CSV)
  shift     energy shift of one level with error diagnostics (JSON)
  evolve    two-level mean-energy trajectory (CSV + JSON sidecar)
  kk-check  dispersion-transform self-test on an analytic Hilbert pair
  sweep     parameter grids in long CSV format

All numeric output is formatted %.16e (JSON: shortest round-trip repr),
which reproduces every double exactly, and emitted in a fixed order, so
identical configs produce byte-identical files.  Files are written to a
temporary name and renamed into place only on success.  Exit codes:
0 success, 2 configuration or usage error or a failed write (stdout
included), 3 numerical failure; a stderr that cannot be written changes
none of them.
Set RESRELAX_LOG=debug|info|warning|error (any case) for diagnostics on
stderr; any other non-empty value is a configuration error (exit 2).
A run imports ``logging`` only when RESRELAX_LOG is set, and ``json``
only when it writes JSON.

Arguments are read from a table of the commands and their options, not
by argparse, whose gettext and locale imports cost every process about
0.55 MB of peak RSS.  Each option is spelled in full, as ``--opt value``
or ``--opt=value``; ``-h``/``--help`` prints help and exits 0, and a
usage error prints the usage line and the error and exits 2.

``run``, the process entry, skips interpreter teardown (about 25 ms);
``main`` called in-process never ends the process.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise:
OpenBLAS starts its workers when numpy loads, whether or not a BLAS
routine is ever called; on a built-in kernel the CLI calls no BLAS or
LAPACK routine.  Importing this module sets that default; ``import
resrelax`` alone does not.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import tempfile
import types

# before numpy loads: an idle OpenBLAS worker spins ~0.1 s CPU per process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .config import (
    SWEEPABLE_KEYS,
    RunConfig,
    _number,
    _positive_int,
    parse_config,
)
from .dynamics import (
    StepConfig,
    equilibrium_energy,
    evolve_closed_form,
    evolve_ode,
    fit_decay_rate,
)
from .errors import (
    ConfigError,
    CutoffTooSmall,
    NumericalError,
    SubdivisionLimit,
    ZeroRelaxationRate,
)
from .quadrature import kk_real_from_imag, QuadratureConfig
from .rates import (
    einstein_coefficients,
    rate_coefficients,
    rate_table,
    relaxation_rate,
)
from .shifts import (
    ShiftWorkspace,
    _log,
    compute_shift,
    delta_sr_relative,
    lamb_shift_two_level,
)

_FMT = "%.16e"  # 17 significant digits round-trip every double


def _fmt(x):
    return _FMT % float(x)


def _write_output(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resrelax-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj):
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_rates(cfg: RunConfig, args):
    spec = cfg.system()
    kernel = cfg.kernel()
    qcfg = cfg.quadrature()
    gamma_rows, transition_rows = rate_table(spec, kernel, qcfg)
    rows = []
    for mech, w, val, err in gamma_rows:
        rows.append((mech, "", "", _fmt(w), _fmt(val), _fmt(err)))
    for tr in transition_rows:
        rows.append(("rf", spec.labels[tr.a], spec.labels[tr.b],
                     _fmt(tr.omega_ab), _fmt(tr.rf), _fmt(tr.rf_error)))
        rows.append(("sr", spec.labels[tr.a], spec.labels[tr.b],
                     _fmt(tr.omega_ab), _fmt(tr.sr), _fmt(tr.sr_error)))
    header = ("mechanism", "a", "b", "omega", "gamma_or_Gamma", "err")
    if args.format == "json":
        obj = {
            "gamma": [
                {"mechanism": m, "omega": w, "value": v, "err": e}
                for m, w, v, e in gamma_rows
            ],
            "transitions": [
                {"mechanism": mech, "a": spec.labels[tr.a],
                 "b": spec.labels[tr.b], "omega": tr.omega_ab,
                 "value": val, "err": err}
                for tr in transition_rows
                for mech, val, err in (("rf", tr.rf, tr.rf_error),
                                       ("sr", tr.sr, tr.sr_error))
            ],
        }
        _write_output(args.out, _json_text(obj))
    else:
        _write_output(args.out, _csv(header, rows))
    return 0


def _resolve_level(spec, raw):
    if raw is None:
        return spec.n_levels - 1
    if isinstance(raw, int) and not isinstance(raw, bool):
        if not 0 <= raw < spec.n_levels:
            raise ConfigError("shift.level index %d out of range" % raw)
        return raw
    label = str(raw)
    if label not in spec.labels:
        raise ConfigError(
            "shift.level %r not among labels %s" % (label, list(spec.labels))
        )
    return spec.index_of(label)


def cmd_shift(cfg: RunConfig, args):
    spec = cfg.system()
    kernel = cfg.kernel()
    qcfg = cfg.quadrature()
    if qcfg.omega_cutoff is None:
        raise ConfigError(
            "missing required key quadrature.omega_cutoff (shift integrals "
            "need a frequency cutoff)"
        )
    a = _resolve_level(spec, cfg.get("shift", "level"))
    workspace = None
    if args.method != "direct":
        # one workspace of both mechanisms serves the shift and
        # delta_sr_relative
        poles = [spec.omega_ab(i, j) for i, j in spec.active_pairs]
        workspace = ShiftWorkspace(kernel, spec.g, qcfg, "both", poles)
    res = compute_shift(spec, kernel, a, qcfg, method=args.method,
                        workspace=workspace)
    obj = {
        "level": spec.labels[a],
        "delta_e_rf": res.delta_e_rf,
        "delta_e_sr": res.delta_e_sr,
        "omega_c": res.omega_c,
        "err_quad": res.err_quad,
        "err_cutoff": res.err_cutoff,
        "method": args.method,
    }
    # the direct route's level splitting of sr is 0 by construction
    if spec.n_levels == 2 and args.method != "direct":
        dsr = delta_sr_relative(spec, kernel, qcfg, workspace=workspace)
        obj["delta_sr_relative"] = dsr.value
        obj["delta_sr_error"] = dsr.error_estimate
    if args.method == "both":
        obj["kk_vs_direct_residual"] = res.detail["kk_vs_direct_residual"]
    if args.format == "csv":
        keys = sorted(obj)
        _write_output(args.out, _csv(
            tuple(keys),
            [tuple(_fmt(obj[k]) if isinstance(obj[k], float) else str(obj[k])
                   for k in keys)],
        ))
    else:
        _write_output(args.out, _json_text(obj))
    return 0


def cmd_evolve(cfg: RunConfig, args):
    spec = cfg.system()
    kernel = cfg.kernel()
    qcfg = cfg.quadrature()
    if spec.n_levels != 2:
        raise ConfigError("evolve requires a two-level system")
    omega_0 = spec.omega_ab(1, 0)
    rates = rate_coefficients(kernel, omega_0, spec.g, qcfg)
    grf, gsr = rates["rf"], rates["sr"]
    ein = einstein_coefficients(grf, gsr)
    sec = cfg.section("evolve")
    h0 = _number("evolve", "h0", sec.get("h0", 0.5 * omega_0))
    tau_end = sec.get("tau_end")
    if tau_end is None:
        if grf.value <= 0.0:
            raise ZeroRelaxationRate(
                "gamma_rf <= 0: no relaxation timescale; set evolve.tau_end "
                "explicitly"
            )
        tau_end = 5.0 / grf.value
    tau_end = _number("evolve", "tau_end", tau_end)
    n_samples = _positive_int("evolve", "n_samples", sec.get("n_samples", 101))
    step = sec.get("step")
    if step is not None:
        step = _number("evolve", "step", step)
    traj = evolve_ode(grf.value, gsr.value, omega_0, h0, tau_end,
                      StepConfig(step=step, n_samples=n_samples))
    h_eq = equilibrium_energy(grf.value, gsr.value, omega_0)
    rows = []
    for state in traj:
        closed = evolve_closed_form(grf.value, gsr.value, omega_0, h0,
                                    state.tau).mean_energy
        rows.append((_fmt(state.tau), _fmt(closed), _fmt(closed),
                     _fmt(state.mean_energy)))
    sidecar = {
        "a_up": ein.a_up,
        "a_down": ein.a_down,
        "a_up_error": ein.a_up_error,
        "a_down_error": ein.a_down_error,
        "equilibrium_energy": h_eq,
        "fitted_decay_rate": fit_decay_rate(traj, h_eq),
        "gamma_rf": grf.value,
        "gamma_rf_error": grf.error_estimate,
        "gamma_sr": gsr.value,
        "gamma_sr_error": gsr.error_estimate,
        "omega_0": omega_0,
        "h0": float(h0),
        "tau_end": float(tau_end),
    }
    text = _csv(("tau", "mean_energy", "closed_form", "ode"), rows)
    _write_output(args.out, text)
    side_text = _json_text(sidecar)
    if args.out is not None:
        _write_output(args.out + ".json", side_text)
    else:
        sys.stdout.write(side_text)
    return 0


def _lorentzian_pair(eta):
    def f_imag(w):
        return -eta / (np.asarray(w) ** 2 + eta * eta)

    def f_real(w):
        w = np.asarray(w)
        return w / (w * w + eta * eta)

    return f_imag, f_real


def cmd_kk_check(cfg, args):
    sec = cfg.section("kk_check") if cfg is not None else {}
    eta = _number("kk_check", "eta", sec.get("eta", 0.1))
    # above, the squares of 20 eta overflow; below, eta^2 nears the
    # subnormals and the Lorentzian pair turns NaN
    if not 1e-150 <= eta <= 1e150:
        raise ConfigError("kk_check.eta must lie in [1e-150, 1e150], got %g"
                          % eta)
    wc = 250.0 * eta
    qcfg = QuadratureConfig(omega_cutoff=wc)
    f_imag, f_real = _lorentzian_pair(eta)
    points = [s * m * eta for m in (0.5, 2.0, 5.0, 10.0, 20.0)
              for s in (-1.0, 1.0)]
    report_points = []
    max_rel = 0.0
    try:
        for w in sorted(points):
            res = kk_real_from_imag(f_imag, w, qcfg)
            exact = float(f_real(w))
            rel = abs(res.value - exact) / abs(exact)
            max_rel = max(max_rel, rel)
            report_points.append({"omega": w, "reconstructed": res.value,
                                  "exact": exact, "rel_err": rel,
                                  "err_estimate": res.error_estimate})
        zero = kk_real_from_imag(f_imag, 0.0, qcfg)
    except SubdivisionLimit as exc:
        # kk-check sets its own tolerances: only eta can change the outcome
        raise SubdivisionLimit(
            "dispersion self-test cannot converge at kk_check.eta = %g; "
            "choose a larger kk_check.eta" % eta) from exc
    # Re f(0) = 0 exactly (odd integrand); compare against the peak 1/2eta.
    zero_rel = abs(zero.value) * 2.0 * eta
    max_rel = max(max_rel, zero_rel)
    obj = {
        "eta": eta,
        "omega_cutoff": wc,
        "points": report_points,
        "max_rel_err": max_rel,
        "zero_point": zero.value,
        "passed": bool(max_rel < 1e-3),
    }
    if cfg is not None and "table" in sec:
        obj["table"] = _kk_check_table(cfg, sec, qcfg)
    _write_output(args.out, _json_text(obj))
    if not obj["passed"]:
        raise NumericalError(
            "dispersion self-test failed: max relative error %.3e >= 1e-3"
            % max_rel
        )
    return 0


def _kk_check_table(cfg, sec, qcfg):
    """Check a user-sampled (omega, re, im) table against its own transform."""
    from scipy.interpolate import CubicSpline

    path = str(sec["table"])
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(cfg.path), path)
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] < 3:
        raise ConfigError("kk_check.table needs columns omega,re,im")
    if not np.all(np.isfinite(data)):
        raise ConfigError("kk_check.table contains non-finite entries")
    w, re, im = data[:, 0], data[:, 1], data[:, 2]
    if np.any(np.diff(w) <= 0):
        raise ConfigError("kk_check.table omega column must be increasing")
    spline = CubicSpline(w, im)
    table_cfg = QuadratureConfig(omega_cutoff=min(abs(w[0]), abs(w[-1])))
    interior = w[(w > 0.7 * w[0]) & (w < 0.7 * w[-1])]
    probes = interior[:: max(1, interior.size // 7)]
    worst = 0.0
    for p in probes:
        res = kk_real_from_imag(lambda x: spline(np.asarray(x)), float(p),
                                table_cfg)
        k = int(np.argmin(np.abs(w - p)))
        scale = max(abs(re[k]), 1e-12)
        worst = max(worst, abs(res.value - re[k]) / scale)
    return {"path": path, "probes": int(probes.size),
            "max_rel_residual": worst}


_SWEEP_QUANTITIES = ("a_down", "a_up", "einstein_ratio", "gamma_rf",
                     "gamma_sr", "lamb_shift", "relaxation_rate")


def _sweep_point(base_cfg, names, values, quantity):
    overrides = {}
    for name, value in zip(names, values):
        if name in ("omega_0", "g"):
            overrides[("system", name)] = value
        elif name == "omega_cutoff":
            overrides[("quadrature", name)] = value
        else:
            overrides[("reservoir", name)] = value
    cfg = base_cfg.with_overrides(overrides)
    spec = cfg.system()
    kernel = cfg.kernel()
    qcfg = cfg.quadrature()
    if quantity == "relaxation_rate":
        res = relaxation_rate(spec, spec.n_levels - 1, kernel, qcfg)
        return res.value, res.error_estimate
    if spec.n_levels != 2:
        raise ConfigError("sweep quantity %r needs a two-level system"
                          % quantity)
    w0 = spec.omega_ab(1, 0)
    if quantity == "lamb_shift":
        res = lamb_shift_two_level(kernel, spec.g, w0, qcfg)
        return res.value, res.error_estimate
    rates = rate_coefficients(kernel, w0, spec.g, qcfg)
    if quantity in ("gamma_rf", "gamma_sr"):
        res = rates[quantity[len("gamma_"):]]
        return res.value, res.error_estimate
    ein = einstein_coefficients(rates["rf"], rates["sr"])
    if quantity == "a_up":
        return ein.a_up, ein.a_up_error
    if quantity == "a_down":
        return ein.a_down, ein.a_down_error
    value = ein.ratio
    err = (ein.a_up_error + abs(value) * ein.a_down_error) / ein.a_down
    return value, err


def cmd_sweep(cfg: RunConfig, args):
    sec = cfg.section("sweep")
    quantity = sec.get("quantity")
    if quantity is None:
        raise ConfigError("missing required key sweep.quantity")
    if quantity not in _SWEEP_QUANTITIES:
        raise ConfigError("unknown sweep quantity %r (known: %s)"
                          % (quantity, ", ".join(_SWEEP_QUANTITIES)))
    axes = {}
    for key, value in sec.items():
        if key == "quantity":
            continue
        if key not in SWEEPABLE_KEYS:
            raise ConfigError(
                "sweep key %r is not sweepable (allowed: %s)"
                % (key, ", ".join(SWEEPABLE_KEYS))
            )
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError("sweep.%s must be a non-empty list" % key)
        axes[key] = sorted(_number("sweep", key, v) for v in value)
    if not axes:
        raise ConfigError("sweep section defines no parameter lists")
    names = sorted(axes)
    size = 1
    for name in names:
        size *= len(axes[name])
    if size > 10 ** 6:
        raise ConfigError("sweep grid has %d points (limit 10^6)" % size)
    grid = list(itertools.product(*(axes[n] for n in names)))
    _log("resrelax", "info", "sweep: %d points, %d workers", size, args.jobs)
    if args.jobs == 1:
        results = [_sweep_point(cfg, names, values, quantity)
                   for values in grid]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_sweep_point, cfg, names, values, quantity)
                       for values in grid]
            results = [f.result() for f in futures]
    rows = []
    for values, (val, err) in zip(grid, results):
        rows.append(tuple(_fmt(v) for v in values)
                    + (quantity, _fmt(val), _fmt(err)))
    header = tuple(names) + ("quantity", "value", "err")
    _write_output(args.out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# entry point

def _jobs(text):
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError("invalid int value: %r" % text) from None
    if jobs < 1:
        raise ValueError("must be at least 1, got %d" % jobs)
    return jobs


# The argument table: command -> (help, options); option -> (default,
# metavar, check, help).  A check is a tuple of choices, a function that
# converts the text (its ValueError is the usage error), or None.

def _common(default_format):
    return {"--config": (None, "PATH", None, "INI-style run configuration"),
            "--out": (None, "PATH", None, "output file (default: stdout)"),
            "--format": (default_format, "{csv,json}", ("csv", "json"),
                         "output format (default: %s)" % default_format)}


_COMMANDS = {
    "rates": ("rate coefficients and transition rates", _common("csv")),
    "shift": ("energy shift of one level", {**_common("json"), "--method": (
        "kk", "{kk,direct,both}", ("kk", "direct", "both"),
        "shift route (default: kk)")}),
    "evolve": ("two-level mean-energy trajectory", _common("csv")),
    "kk-check": ("dispersion-transform self-test", _common("json")),
    "sweep": ("parameter-grid scan", {**_common("csv"), "--jobs": (
        1, "N", _jobs, "concurrent grid evaluations (default: 1)")}),
}


def _usage(command):
    if command is None:
        return "usage: resrelax [-h] {%s} ...\n" % ",".join(_COMMANDS)
    return "usage: resrelax %s [-h]%s\n" % (command, "".join(
        " [%s %s]" % (flag, option[1])
        for flag, option in _COMMANDS[command][1].items()))


def _help(command):
    if command is None:
        rows = [(name, spec[0]) for name, spec in _COMMANDS.items()]
    else:
        rows = [("-h, --help", "show this help message and exit")] + [
            ("%s %s" % (flag, option[1]), option[3])
            for flag, option in _COMMANDS[command][1].items()]
    width = max(len(name) for name, _ in rows)
    body = "".join("  %-*s  %s\n" % (width, name, text) for name, text in rows)
    if command is not None:
        return _usage(command) + "\noptions:\n" + body
    return (_usage(None) + "\nRelaxation rates, Einstein coefficients and "
            "radiative shifts of a small\nsystem coupled to a stationary "
            "reservoir.\n\ncommands:\n" + body + "\n'resrelax COMMAND -h' "
            "lists a command's options; each takes its value\nas the next "
            "argument or after '=' (--out PATH or --out=PATH).\n")


def _usage_error(command, message):
    """Usage and the error on stderr, exit 2; a lost message keeps the 2."""
    prog = "resrelax" if command is None else "resrelax " + command
    try:
        sys.stderr.write("%s%s: error: %s\n" % (_usage(command), prog,
                                                message))
    except OSError:
        pass
    raise SystemExit(2)


def _parse_args(argv):
    """The command and its option values, defaults filled in.

    -h/--help writes help to stdout and raises SystemExit(0); a usage
    error writes the usage line and the error to stderr and raises
    SystemExit(2).  Options are spelled in full, each either
    ``--opt value`` or ``--opt=value``; the last of a repeated option
    wins.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        _usage_error(None, "the following arguments are required: command"
                     if command is None else
                     "argument command: invalid choice: %r (choose from %s)"
                     % (command, ", ".join(map(repr, _COMMANDS))))
    options = _COMMANDS[command][1]
    values = {flag[2:]: option[0] for flag, option in options.items()}
    rest = iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        flag, inline, value = arg.partition("=")
        if flag not in options:
            _usage_error(command, "unrecognized arguments: %s" % arg)
        if not inline:
            value = next(rest, None)
            # "-1" is a value, which --jobs refuses by its check
            if value is None or value[:1] == "-" and not value[1:2].isdigit():
                _usage_error(command, "argument %s: expected one argument"
                             % flag)
        check = options[flag][2]
        if isinstance(check, tuple):
            if value not in check:
                _usage_error(command, "argument %s: invalid choice: %r "
                             "(choose from %s)"
                             % (flag, value, ", ".join(map(repr, check))))
        elif check is not None:
            try:
                value = check(value)
            except ValueError as exc:
                _usage_error(command, "argument %s: %s" % (flag, exc))
        values[flag[2:]] = value
    return types.SimpleNamespace(command=command, **values)


def _setup_logging():
    """Log to stderr at RESRELAX_LOG's level; unset, logging is not loaded."""
    level_name = os.environ.get("RESRELAX_LOG", "").strip().lower()
    levels = ("debug", "info", "warning", "error")
    if not level_name:
        return
    if level_name not in levels:
        raise ConfigError("RESRELAX_LOG must be one of %s, got %r"
                          % (", ".join(levels), level_name))
    import logging

    logging.basicConfig(stream=sys.stderr, level=level_name.upper(),
                        format="resrelax %(levelname)s: %(message)s")


def main(argv=None):
    try:
        _setup_logging()
        args = _parse_args(argv)
        needs_config = args.command != "kk-check"
        if args.config is not None:
            # kk-check reads only [kk_check]
            cfg = parse_config(args.config, validate=needs_config)
        elif needs_config:
            raise ConfigError("--config is required for %r" % args.command)
        else:
            cfg = None
        dispatch = {
            "rates": cmd_rates,
            "shift": cmd_shift,
            "evolve": cmd_evolve,
            "kk-check": cmd_kk_check,
            "sweep": cmd_sweep,
        }
        return dispatch[args.command](cfg, args)
    except CutoffTooSmall as exc:
        _log("resrelax", "debug", "cutoff failure", exc_info=True)
        _report("numerical failure: %s\n"
                "  (increase quadrature.omega_cutoff above every transition "
                "frequency)" % exc)
        return 3
    except NumericalError as exc:
        _log("resrelax", "debug", "numerical failure", exc_info=True)
        _report("numerical failure: %s" % exc)
        return 3
    except ConfigError as exc:
        _log("resrelax", "debug", "config failure", exc_info=True)
        _report("config error: %s" % exc)
        return 2
    except OSError as exc:
        _report("i/o error: %s" % exc)
        return 2


def _report(message):
    """Write an error line to stderr; a lost line changes no exit code."""
    try:
        sys.stderr.write("resrelax: %s\n" % message)
    except OSError:
        pass


def run(argv=None):
    """Process entry: ``main``, then flush stdout and the log and end the
    process with ``os._exit``, as every output file is closed by then.

    A failed stdout write (a full device, a closed pipe) exits 2.  A
    stderr that cannot be written changes no exit code: that of ``main``,
    or the argument parser's (0 for --help, 2 for a usage error).
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        _report("i/o error: %s" % exc)
        code = 2
    logging = sys.modules.get("logging")
    if logging is not None:  # never loaded, it holds no handler to flush
        logging.shutdown()
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
