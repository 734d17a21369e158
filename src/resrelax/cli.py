"""Command-line interface.

Subcommands:

  rates     rate coefficients and per-transition relaxation rates (CSV)
  shift     energy shift of one level with error diagnostics (JSON)
  evolve    two-level mean-energy trajectory (CSV + JSON sidecar)
  kk-check  dispersion-transform self-test on an analytic Hilbert pair (JSON)
  sweep     parameter grids in long CSV format

Only rates and shift take --format.  The INI sections and keys, and the
type of each value, are those of ``resrelax.config._SCHEMA``.  Each
command starts from a ``RunConfig`` that is typed and has built its
system, kernel and quadrature when it is read; kk-check types only
[kk_check], and without --config starts from an empty one.  A sweep
point is the config with its axes overridden (``with_overrides``).

All numeric output is formatted %.16e (JSON: shortest round-trip repr),
which reproduces every double exactly, and emitted in a fixed order, so
identical configs produce byte-identical files.  Files are written to a
temporary name and renamed into place only on success.  Exit codes:
0 success, 2 configuration or usage error or a failed write (stdout
included), 3 numerical failure; a stderr that cannot be written changes
none of them.
Set RESRELAX_LOG=debug|info|warning|error (any case) for diagnostics on
stderr; any other non-empty value is a configuration error (exit 2).
A run imports ``logging`` only when RESRELAX_LOG is set (``sweep
--jobs N`` runs plain threads, as ``concurrent.futures`` loads it), and
never ``json`` or ``configparser``: JSON is written by ``_json_text``,
byte for byte what ``json.dumps(obj, sort_keys=True, indent=2)`` gives
for the types the commands emit, and the INI is read by
``resrelax.config``.

Arguments are read from a table of the commands and their options, not
by argparse, whose gettext and locale imports cost every process about
0.55 MB of peak RSS.  Each option is spelled in full, as ``--opt value``
or ``--opt=value``; ``-h``/``--help`` prints help and exits 0, and a
usage error prints the usage line and the error and exits 2.

``run``, the process entry, skips interpreter teardown (about 25 ms);
``main`` called in-process never ends the process.

Each command imports the package modules it runs, when it runs: kk-check
loads no kernels, system or rates; only shift and a lamb_shift sweep
load shifts, and only evolve dynamics.

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

from .config import RunConfig, parse_config
from .errors import (ConfigError, CutoffTooSmall, NumericalError,
                     ZeroRelaxationRate, _log)
from .quadrature import kk_real_from_imag, QuadratureConfig

_FMT = "%.16e"  # 17 significant digits round-trip every double


def _fmt(x):
    return _FMT % float(x)


def _write_output(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = os.stat(path).st_mode & 0o777  # open(path, "w") keeps it
    except FileNotFoundError:
        umask = os.umask(0)  # there is no other way to read it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resrelax-")
    try:
        # mkstemp makes the file 0600; give it what open(path, "w") would
        os.fchmod(fd, mode)
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


# json.dumps(obj, sort_keys=True, indent=2) for the types the commands
# emit, without loading json: its decoder compiles regexes no command uses
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
                 "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_char(c):
    if " " <= c <= "~":
        return _JSON_ESCAPES.get(c, c)
    code = ord(c)
    if code < 0x10000:
        return _JSON_ESCAPES.get(c) or "\\u%04x" % code
    code -= 0x10000  # a UTF-16 surrogate pair, as ensure_ascii writes it
    return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)


def _json(obj, indent):
    if isinstance(obj, str):
        return '"%s"' % "".join(map(_json_char, obj))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # np.float64 too
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
        items = ["%s: %s" % (_json(key, inner), _json(obj[key], inner))
                 for key in sorted(obj)]
        brackets = "{}"
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)
    if not items:
        return brackets
    return "%s\n%s%s\n%s%s" % (brackets[0], inner, (",\n" + inner).join(items),
                               indent, brackets[1])


def _json_text(obj):
    return _json(obj, "") + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_rates(cfg: RunConfig, args):
    from .rates import rate_table

    spec = cfg.system
    gamma_rows, transition_rows = rate_table(spec, cfg.kernel, cfg.quadrature)
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


def _require_cutoff_key(qcfg):
    if qcfg.omega_cutoff is None:
        raise ConfigError("missing required key quadrature.omega_cutoff "
                          "(shift integrals need a frequency cutoff)")


def cmd_shift(cfg: RunConfig, args):
    from .shifts import (ShiftWorkspace, _poles, compute_shift,
                         delta_sr_relative)

    spec, kernel, qcfg = cfg.system, cfg.kernel, cfg.quadrature
    _require_cutoff_key(qcfg)
    a = _resolve_level(spec, cfg.section("shift").get("level"))
    # one workspace of both mechanisms serves the shift and delta_sr_relative
    workspace = (None if args.method == "direct" else
                 ShiftWorkspace(kernel, spec.g, qcfg, "both", _poles(spec)))
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
    from .dynamics import (StepConfig, equilibrium_energy, evolve_closed_form,
                           evolve_ode, fit_decay_rate)
    from .rates import einstein_coefficients, rate_coefficients

    spec = cfg.system
    if spec.n_levels != 2:
        raise ConfigError("evolve requires a two-level system")
    omega_0 = spec.omega_ab(1, 0)
    rates = rate_coefficients(cfg.kernel, omega_0, spec.g, cfg.quadrature)
    grf, gsr = rates["rf"], rates["sr"]
    ein = einstein_coefficients(grf, gsr)
    sec = cfg.section("evolve")
    h0 = sec.get("h0", 0.5 * omega_0)
    tau_end = sec.get("tau_end")
    if tau_end is None:
        if grf.value <= 0.0:
            raise ZeroRelaxationRate(
                "gamma_rf <= 0: no relaxation timescale; set evolve.tau_end "
                "explicitly"
            )
        tau_end = 5.0 / grf.value
    traj = evolve_ode(grf.value, gsr.value, omega_0, h0, tau_end,
                      StepConfig(sec.get("step"), sec.get("n_samples", 101)))
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
    _write_output(None if args.out is None else args.out + ".json",
                  _json_text(sidecar))
    return 0


def _lorentzian_pair(eta):
    def f_imag(w):
        return -eta / (np.asarray(w) ** 2 + eta * eta)

    def f_real(w):
        w = np.asarray(w)
        return w / (w * w + eta * eta)

    return f_imag, f_real


def cmd_kk_check(cfg: RunConfig, args):
    sec = cfg.section("kk_check")
    eta = sec.get("eta", 0.1)
    # above, the squares of 20 eta overflow; below, eta^2 nears the
    # subnormals and the Lorentzian pair turns NaN
    if not 1e-150 <= eta <= 1e150:
        raise ConfigError("kk_check.eta must lie in [1e-150, 1e150], got %g"
                          % eta)
    wc = 250.0 * eta
    # the pair and its rounding floor scale like 1 / eta, so the tolerance does
    qcfg = QuadratureConfig(omega_cutoff=wc, abs_tol=1e-11 / eta)
    f_imag, f_real = _lorentzian_pair(eta)
    points = [s * m * eta for m in (0.5, 2.0, 5.0, 10.0, 20.0)
              for s in (-1.0, 1.0)]
    report_points = []
    max_rel = 0.0
    for w in sorted(points):
        res = kk_real_from_imag(f_imag, w, qcfg)
        exact = float(f_real(w))
        rel = abs(res.value - exact) / abs(exact)
        max_rel = max(max_rel, rel)
        report_points.append({"omega": w, "reconstructed": res.value,
                              "exact": exact, "rel_err": rel,
                              "err_estimate": res.error_estimate})
    zero = kk_real_from_imag(f_imag, 0.0, qcfg)
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
    if "table" in sec:
        obj["table"] = _kk_check_table(cfg, sec)
    _write_output(args.out, _json_text(obj))
    if not obj["passed"]:
        raise NumericalError(
            "dispersion self-test failed: max relative error %.3e >= 1e-3"
            % max_rel
        )
    return 0


def _kk_check_table(cfg, sec):
    """Check a user-sampled (omega, re, im) table against its own transform.

    The tolerance and the residual's floor scale with the table's values,
    so scaling re and im together leaves max_rel_residual as it is.
    """
    from scipy.interpolate import CubicSpline

    from .kernels import _read_table

    path = str(sec["table"])
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(cfg.path), path)
    data = _read_table(path, "kk_check.table")
    if not np.all(np.isfinite(data)):
        raise ConfigError("kk_check.table contains non-finite entries")
    w, re, im = data[:, 0], data[:, 1], data[:, 2]
    if np.any(np.diff(w) <= 0):
        raise ConfigError("kk_check.table omega column must be increasing")
    im_peak = float(np.max(np.abs(im)))
    if im_peak == 0.0:
        raise ConfigError("kk_check.table has an all-zero im column")
    floor = 1e-12 * max(float(np.max(np.abs(re))), im_peak)
    spline = CubicSpline(w, im)
    table_cfg = QuadratureConfig(omega_cutoff=min(abs(w[0]), abs(w[-1])),
                                 abs_tol=1e-10 * im_peak)
    interior = w[(w > 0.7 * w[0]) & (w < 0.7 * w[-1])]
    probes = interior[:: max(1, interior.size // 7)]
    worst = 0.0
    for p in probes:
        res = kk_real_from_imag(lambda x: spline(np.asarray(x)), float(p),
                                table_cfg)
        k = int(np.argmin(np.abs(w - p)))
        scale = max(abs(re[k]), floor)
        worst = max(worst, abs(res.value - re[k]) / scale)
    return {"path": path, "probes": int(probes.size),
            "max_rel_residual": worst}


_SWEEP_QUANTITIES = ("a_down", "a_up", "einstein_ratio", "gamma_rf",
                     "gamma_sr", "lamb_shift", "relaxation_rate")


def _sweep_point(base_cfg, names, values, quantity):
    from .rates import (einstein_coefficients, rate_coefficients,
                        relaxation_rate)

    cfg = base_cfg.with_overrides(dict(zip(names, values)))
    spec, kernel, qcfg = cfg.system, cfg.kernel, cfg.quadrature
    if quantity == "relaxation_rate":
        res = relaxation_rate(spec, spec.n_levels - 1, kernel, qcfg)
        return res.value, res.error_estimate
    if spec.n_levels != 2:
        raise ConfigError("sweep quantity %r needs a two-level system"
                          % quantity)
    w0 = spec.omega_ab(1, 0)
    if quantity == "lamb_shift":
        from .shifts import lamb_shift_two_level

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
    names = sorted(key for key in sec if key != "quantity")
    if not names:
        raise ConfigError("sweep section defines no parameter lists")
    if quantity == "lamb_shift" and "omega_cutoff" not in names:
        _require_cutoff_key(cfg.quadrature)
    size = math.prod(len(sec[name]) for name in names)
    if size > 10 ** 6:
        raise ConfigError("sweep grid has %d points (limit 10^6)" % size)
    grid = list(itertools.product(*(sorted(sec[n]) for n in names)))
    _log("resrelax", "info", "sweep: %d points, %d workers", size, args.jobs)
    results = [None] * size
    failures = {}

    def work(first):
        # worker k takes points k, k + jobs, ...; it stops at its first
        # failure, so the lowest failing index is the grid's first
        for i in range(first, size, args.jobs):
            try:
                results[i] = _sweep_point(cfg, names, grid[i], quantity)
            except Exception as exc:
                failures[i] = exc
                return

    if args.jobs == 1:
        work(0)
    else:
        import threading  # not concurrent.futures, which loads logging

        workers = [threading.Thread(target=work, args=(k,))
                   for k in range(min(args.jobs, size))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
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

_IO = {"--config": (None, "PATH", None, "INI-style run configuration"),
       "--out": (None, "PATH", None, "output file (default: stdout)")}


def _format(default):
    return {"--format": (default, "{csv,json}", ("csv", "json"),
                         "output format (default: %s)" % default)}


_COMMANDS = {
    "rates": ("rate coefficients and transition rates",
              {**_IO, **_format("csv")}),
    "shift": ("energy shift of one level", {
        **_IO, **_format("json"), "--method": (
            "kk", "{kk,direct,both}", ("kk", "direct", "both"),
            "shift route (default: kk)")}),
    "evolve": ("two-level mean-energy trajectory", _IO),
    "kk-check": ("dispersion-transform self-test", _IO),
    "sweep": ("parameter-grid scan", {**_IO, "--jobs": (
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
        # kk-check reads only [kk_check], and runs without a config too
        only = "kk_check" if args.command == "kk-check" else None
        if args.config is not None:
            cfg = parse_config(args.config, only)
        elif only is not None:
            cfg = RunConfig(None, {}, only)
        else:
            raise ConfigError("--config is required for %r" % args.command)
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
