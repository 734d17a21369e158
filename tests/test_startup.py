"""Cold start and process exit: what the package and the CLI load, and
how a CLI process ends.

scipy.interpolate takes most of the start-up time of a process, and
only the tabulated kernel, the spline workspace of a kernel without
closed-form rates and ``kk_check.table`` use it, so a CLI run on a
closed-form kernel never imports scipy; nor does it load
numpy.polynomial or call LAPACK, whose first use raises the peak RSS by
1-2 MB, or call BLAS, whose first call maps in about 0.3 MB of OpenBLAS
code; nor numpy's sort, argsort, lexsort or argmax: the adaptive pass
ranks its few dozen panels in Python, which keeps about 0.3 MB of numpy
code unmapped on a thermal ``shift --method both``.  Nor does it import
logging unless RESRELAX_LOG is set (about 0.5 MB of peak RSS), not even
for ``sweep --jobs 2``; json or configparser (about 0.25 MB together), as
the package writes its JSON and reads its INI itself; or argparse,
gettext and locale (about 0.55 MB): the CLI reads its arguments from a
table.  The INI reader's refusals exit 2 naming the line.  Each command
loads only the package modules it runs, and builds the quadrature tables
only if it integrates.
A bad RESRELAX_LOG exits 2, and the library's debug lines still reach a
program that configures logging after importing it.  ``import resrelax``
loads no submodule and no numpy and leaves the environment alone; ``import
resrelax.cli`` pins OpenBLAS to one thread unless the caller chose a
thread count.  ``python -m resrelax.cli`` ends through ``run``, which
flushes stdout and the log and skips interpreter teardown; the process
tests check its output, exit codes, failed writes and peak memory with
Python's default stdout buffering, and a failed --help also
unbuffered.  Each case runs in a fresh interpreter so that no other
test's imports leak into ``sys.modules``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import resrelax

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# runs the CLI with the given arguments, then reports the scipy and
# numpy.polynomial modules loaded by then and the LAPACK routines (and
# polyfit, whose lstsq numpy binds at import) and numpy sort and argmax
# functions that were called
_RUN = """\
import json, sys
import numpy
called = []
def _record(owner, name):
    def wrapper(*args, **kwargs):
        called.append(name)
        return fn(*args, **kwargs)
    fn = getattr(owner, name)
    setattr(owner, name, wrapper)
for name in ("det", "eigvalsh", "inv", "lstsq", "solve", "svd"):
    _record(numpy.linalg, name)
for name in ("argmax", "argsort", "lexsort", "polyfit", "sort"):
    _record(numpy, name)
from resrelax.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "called": called, "loaded": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy"
    or m.startswith("numpy.polynomial"))}))
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

[sweep]
quantity = einstein_ratio
temperature = [0.5, 1.0]
omega_0 = [0.8, 1.6]
"""

INERTIAL_INI = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = inertial_vacuum

[quadrature]
omega_cutoff = 40.0
"""

ACCELERATED_INI = """\
[system]
omega_0 = 1.3
g = 0.8

[reservoir]
model = accelerated_vacuum
acceleration = 2.0

[quadrature]
omega_cutoff = 40.0

[kk_check]
eta = 0.1

[sweep]
quantity = lamb_shift
acceleration = [1.0, 3.0]
"""

CASES = [
    ("thermal_ohmic", THERMAL_INI, ["rates"]),
    ("thermal_ohmic", THERMAL_INI, ["evolve"]),
    ("thermal_ohmic", THERMAL_INI, ["sweep"]),
    ("thermal_ohmic", THERMAL_INI, ["sweep", "--jobs", "2"]),
    ("thermal_ohmic", THERMAL_INI, ["shift", "--method", "both"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["rates"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["evolve"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["kk-check"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["sweep"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["shift", "--method", "kk"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["shift", "--method", "both"]),
    ("inertial_vacuum", INERTIAL_INI, ["shift", "--method", "both"]),
]
CASE_IDS = ["%s-%s" % (model, " ".join(cmd).replace("--method ", "")
                       .replace(" --", " ").replace(" ", "-"))
            for model, _, cmd in CASES]


def _env(**env_vars):
    env = dict(os.environ)
    # this process may have imported resrelax.cli, which sets a default
    env.pop("OPENBLAS_NUM_THREADS", None)
    # Python's default buffering: a stdout that is not a terminal holds
    # what the CLI writes until the process entry flushes it
    env.pop("PYTHONUNBUFFERED", None)
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _python(args, cwd, **env_vars):
    proc = subprocess.run([sys.executable, *args], cwd=cwd,
                          env=_env(**env_vars), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(args, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
         **env_vars):
    """``python -m resrelax.cli`` in a fresh interpreter; no exit check."""
    return subprocess.run([sys.executable, "-m", "resrelax.cli", *args],
                          cwd=cwd, env=_env(**env_vars), stdout=stdout,
                          stderr=stderr, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    out = _python(["-c", "import sys, resrelax.cli\n"
                         "print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'scipy'))"], tmp_path)
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "model, ini, command", CASES,
    ids=CASE_IDS)
def test_closed_form_commands_load_no_scipy(tmp_path, model, ini, command):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "out")]
    report = json.loads(_python(["-c", _RUN, *argv], tmp_path))
    assert report == {"rc": 0, "called": [], "loaded": []}
    assert (tmp_path / "out").stat().st_size > 0


# runs the CLI with the given arguments and reports which of logging,
# json, configparser, argparse, gettext and locale it loaded: sys.modules
# is read as main returns, before anything is imported to report with,
# against what was loaded before (a site hook may preload stdlib modules)
_LOADS = """\
import sys
before = set(sys.modules)
from resrelax.cli import main
rc = main(sys.argv[1:])
print((rc, sorted({"argparse", "configparser", "gettext", "json", "locale",
                   "logging"} & (set(sys.modules) - before))))
"""


@pytest.mark.parametrize(
    "model, ini, command", CASES,
    ids=CASE_IDS)
def test_closed_form_commands_load_no_logging(tmp_path, model, ini, command):
    # RESRELAX_LOG unset (empty reads as unset): no command loads
    # logging, json or configparser (the package writes its JSON and
    # reads its INI itself), or argparse, gettext and locale; nor does a
    # sweep on two threads
    path = tmp_path / "run.ini"
    path.write_text(ini)
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "out")]
    report = ast.literal_eval(_python(["-c", _LOADS, *argv], tmp_path,
                                      RESRELAX_LOG=""))
    assert report == (0, [])


# runs the CLI with the given arguments and reports which package modules
# it loaded and which of the quadrature's tables it built
_MODULES = """\
import sys
from resrelax.cli import main
rc = main(sys.argv[1:])
from resrelax.quadrature import _bessel_tables, _panel_tables
print((rc, sorted(m for m in sys.modules if m.startswith("resrelax.")),
       _panel_tables.cache_info().currsize,
       _bessel_tables.cache_info().currsize))
"""

_RATES_MODULES = ["cli", "config", "errors", "kernels", "quadrature", "rates",
                  "system"]


def _shifts(ini, command):
    return command[0] == "shift" or (command[0] == "sweep"
                                     and "quantity = lamb_shift" in ini)


def _modules_run(ini, command):
    """The package modules a command runs: kk-check the quadrature engine
    alone, every other the rates, plus dynamics for evolve and shifts for
    shift and a lamb_shift sweep."""
    if command[0] == "kk-check":
        return ["cli", "config", "errors", "quadrature"]
    if _shifts(ini, command):
        return sorted(_RATES_MODULES + ["shifts"])
    if command[0] == "evolve":
        return sorted(_RATES_MODULES + ["dynamics"])
    return _RATES_MODULES


@pytest.mark.parametrize(
    "model, ini, command", CASES,
    ids=CASE_IDS)
def test_commands_load_only_the_modules_they_run(tmp_path, model, ini,
                                                 command):
    # rates, evolve and an einstein_ratio sweep evaluate closed forms, so
    # they build no panel table; kk-check, shift and a lamb_shift sweep
    # integrate
    path = tmp_path / "run.ini"
    path.write_text(ini)
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "out")]
    rc, loaded, panels, bessel = ast.literal_eval(
        _python(["-c", _MODULES, *argv], tmp_path))
    assert rc == 0
    assert loaded == ["resrelax." + m for m in _modules_run(ini, command)]
    assert panels == (command[0] == "kk-check" or _shifts(ini, command))
    # the Bessel tables serve the Filon pass of the direct route, which
    # the inertial vacuum's band-limited window does without
    assert bessel == ("both" in command and model != "inertial_vacuum")


def test_cli_import_loads_no_command_module(tmp_path):
    out = _python(["-c", "import sys, resrelax.cli\n"
                         "from resrelax.quadrature import (_bessel_tables,\n"
                         "                                 _panel_tables)\n"
                         "print((sorted(m for m in sys.modules\n"
                         "              if m.startswith('resrelax.')),\n"
                         "       _panel_tables.cache_info().currsize,\n"
                         "       _bessel_tables.cache_info().currsize))"],
                  tmp_path)
    assert ast.literal_eval(out) == (
        ["resrelax.cli", "resrelax.config", "resrelax.errors",
         "resrelax.quadrature"], 0, 0)


# runs the CLI with the given arguments and reports the resident size, in
# kB, of the mappings of OpenBLAS before and after main: a BLAS call
# faults in code pages that numpy's import does not touch
_BLAS_RSS = """\
import sys
def blas_rss():
    total, blas = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            field = line.split(None, 1)[0]
            if not field.endswith(":"):  # a mapping's header line
                blas = "openblas" in line
            elif blas and field == "Rss:":
                total += int(line.split()[1])
    return total
from resrelax.cli import main
before = blas_rss()
rc = main(sys.argv[1:])
print((rc, before, blas_rss()))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="reads the mappings in /proc/self/smaps")
@pytest.mark.parametrize(
    "model, ini, command", CASES,
    ids=CASE_IDS)
def test_closed_form_commands_call_no_blas(tmp_path, model, ini, command):
    # the Filon pass contracts with einsum, not @: a first BLAS call
    # maps in about 0.3 MB of OpenBLAS code
    path = tmp_path / "run.ini"
    path.write_text(ini)
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "out")]
    rc, before, after = ast.literal_eval(
        _python(["-c", _BLAS_RSS, *argv], tmp_path))
    if before == 0:
        pytest.skip("numpy maps no OpenBLAS library here")
    assert rc == 0
    assert after == before


def test_library_logging_configured_after_import(tmp_path):
    # the library looks logging up when it logs, so a caller that
    # configures it after importing resrelax.shifts gets the debug lines
    proc = subprocess.run([sys.executable, "-c", """\
import sys
import resrelax.shifts as shifts
assert "logging" not in sys.modules
import logging
logging.basicConfig(level=logging.DEBUG)
from resrelax import InertialVacuum, QuadratureConfig, two_level_system
shifts.compute_shift(two_level_system(1.0, 1.0), InertialVacuum(), 1,
                     QuadratureConfig(omega_cutoff=40.0), method="both")
"""], cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for what in ("rf+sr workspace", "pv pass", "direct pass"):
        assert "DEBUG:resrelax.shifts:" + what in proc.stderr, proc.stderr


def test_package_import_is_lazy(tmp_path):
    out = _python(["-c", "import json, os, sys\n"
                         "before = dict(os.environ)\n"
                         "import resrelax\n"
                         "print(json.dumps({'numpy': sorted(\n"
                         "    m for m in sys.modules\n"
                         "    if m.split('.')[0] == 'numpy'),\n"
                         "    'env_unchanged': dict(os.environ) == before}))"],
                  tmp_path)
    assert json.loads(out) == {"numpy": [], "env_unchanged": True}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count threads")
def test_cli_import_starts_no_blas_worker(tmp_path):
    out = _python(["-c", "import os, resrelax.cli\n"
                         "print(os.environ['OPENBLAS_NUM_THREADS'],\n"
                         "      len(os.listdir('/proc/self/task')))"],
                  tmp_path)
    assert out.split() == ["1", "1"]


def test_cli_import_keeps_explicit_blas_threads(tmp_path):
    out = _python(["-c", "import os, resrelax.cli\n"
                         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                  tmp_path, OPENBLAS_NUM_THREADS="2")
    assert out.strip() == "2"


# ---------------------------------------------------------------------------
# the process entry: run() flushes stdout and the log, then calls os._exit

@pytest.mark.parametrize("ini, command", [
    (THERMAL_INI, ["rates"]),
    (INERTIAL_INI, ["shift", "--method", "both"]),
    (THERMAL_INI, ["sweep"]),
], ids=["rates", "shift", "sweep"])
def test_process_stdout_matches_out_file(tmp_path, ini, command):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    to_file = _cli([*command, "--config", str(path), "--out", str(out)],
                   tmp_path)
    to_stdout = _cli([*command, "--config", str(path)], tmp_path)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes() != b""


def test_process_debug_log_complete(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(INERTIAL_INI)
    proc = _cli(["shift", "--config", str(path), "--method", "both"],
                tmp_path, RESRELAX_LOG="debug")
    assert proc.returncode == 0, proc.stderr
    err = proc.stderr.decode()
    assert err.endswith("\n")
    lines = err.splitlines()
    assert all(line.startswith("resrelax DEBUG: ") for line in lines), err
    # one workspace, one direct pass, a pv pass for each level: the shift
    # of the upper one and the two of the splitting, and the upper one's
    # cutoff band
    assert len([x for x in lines if "rf+sr workspace" in x]) == 1
    assert len([x for x in lines if "direct pass" in x]) == 1
    assert len([x for x in lines if "pv pass" in x]) == 3
    assert len([x for x in lines if "cutoff band" in x]) == 1
    assert not [x for x in lines if "cutoff remainder" in x]


EXIT_CASES = pytest.mark.parametrize("ini, args, code, message", [
    (INERTIAL_INI, ["rates"], 0, ""),
    (INERTIAL_INI.replace("g = 1.0", "g = 1.0\nbogus = 2"), ["rates"], 2,
     "config error"),
    (INERTIAL_INI, ["rates", "--bogus"], 2, "usage:"),
    (THERMAL_INI.replace("eta = 0.5", "eta = 1e307"),
     ["shift", "--method", "kk"], 3, "numerical failure"),
    # a value that is no literal stays a string, with no SyntaxWarning
    (INERTIAL_INI.replace("g = 1.0", "g = 1if 1 else 2"), ["rates"], 2,
     "config error: system.g must be a finite number"),
    # the argument parser; the --config PATH that the tests append names
    # the same run.ini
    (INERTIAL_INI, ["rates", "--config=run.ini"], 0, ""),
    (INERTIAL_INI, ["shift", "-h"], 0, ""),
    (INERTIAL_INI, ["bogus"], 2, "argument command: invalid choice"),
    (INERTIAL_INI, ["rates", "--out"], 2,
     "argument --out: expected one argument"),
    (INERTIAL_INI, ["shift", "--method", "fast"], 2,
     "argument --method: invalid choice: 'fast'"),
    # the INI reader's refusals, each naming the line
    (INERTIAL_INI + "\n[DEFAULT]\ng = 2.0\n", ["rates"], 2,
     "a [DEFAULT] section is not supported at line 11"),
    (INERTIAL_INI.replace("g = 1.0", "g = 1.0\nG = 2.0"), ["rates"], 2,
     "duplicate key system.g at line 4"),
    ("g = 1.0\n" + INERTIAL_INI, ["rates"], 2,
     "key before the first [section] at line 1"),
], ids=["ok", "bad-key", "usage", "overflow", "non-literal", "equals",
        "help", "unknown-command", "missing-value", "bad-choice",
        "ini-default", "ini-duplicate-key", "ini-key-before-section"])


@EXIT_CASES
def test_process_exit_codes(tmp_path, ini, args, code, message):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    proc = _cli([*args, "--config", str(path)], tmp_path)
    assert proc.returncode == code, proc.stderr
    err = proc.stderr.decode()
    assert message in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("value, code", [
    ("verbose", 2), ("3", 2), ("debugging", 2), (" Warning ", 0), ("", 0),
])
def test_process_log_level_checked(tmp_path, value, code):
    # RESRELAX_LOG takes a level name, in any case; anything else is
    # refused, naming the variable and what it accepts
    path = tmp_path / "run.ini"
    path.write_text(INERTIAL_INI)
    proc = _cli(["rates", "--config", str(path)], tmp_path,
                RESRELAX_LOG=value)
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    if code:
        assert proc.stdout == b""
        assert err == ("resrelax: config error: RESRELAX_LOG must be one of "
                       "debug, info, warning, error, got %r\n"
                       % value.strip().lower())
    else:
        assert err == "" and proc.stdout != b""


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full, a device whose writes fail")
    return open("/dev/full", "wb")


@EXIT_CASES
def test_process_stderr_failure_keeps_exit_code(tmp_path, ini, args, code,
                                                message):
    # the message is lost, at its write or at the flush in run(), but the
    # exit code stays; Python's own exit would make it 1 or 120
    path = tmp_path / "run.ini"
    path.write_text(ini)
    with _full_device() as stderr:
        proc = _cli([*args, "--config", str(path)], tmp_path,
                    subprocess.DEVNULL, stderr)
    assert proc.returncode == code


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "wb")


@pytest.mark.parametrize("sink, code", [
    (lambda: open(os.devnull, "wb"), 0),
    (_full_device, 2),
    (_closed_pipe, 2),
], ids=["devnull", "full-device", "closed-pipe"])
def test_process_stdout_failure_exits_2(tmp_path, sink, code):
    # the CLI's stdout is buffered, so a write that fails surfaces at the
    # flush in run(); Python's own exit would report it as "Exception
    # ignored" and exit 120
    path = tmp_path / "run.ini"
    path.write_text(INERTIAL_INI)
    with sink() as stdout:
        proc = _cli(["rates", "--config", str(path)], tmp_path, stdout)
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    if code:
        assert err.startswith("resrelax: i/o error: "), err
        assert err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_process_help_exit_codes_do_not_depend_on_buffering(tmp_path,
                                                            unbuffered):
    # a --help that cannot reach stdout fails as any stdout write does:
    # buffered at the flush in run(), unbuffered at the write itself,
    # which argparse would otherwise swallow; a lost usage error is 2
    with open(os.devnull, "wb") as stdout:
        proc = _cli(["rates", "--help"], tmp_path, stdout, **unbuffered)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    with _full_device() as stdout:
        proc = _cli(["rates", "--help"], tmp_path, stdout, **unbuffered)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("resrelax: i/o error: ") and err.count("\n") == 1
    with _full_device() as stderr:
        proc = _cli(["rates", "--bogus"], tmp_path, subprocess.DEVNULL,
                    stderr, **unbuffered)
    assert proc.returncode == 2


def test_process_sweep_jobs_do_not_change_bytes(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(THERMAL_INI)
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / ("jobs-%s.csv" % jobs)
        proc = _cli(["sweep", "--config", str(path), "--jobs", jobs,
                     "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] != b""


THERMAL3_INI = """\
[system]
levels = [("0", -1.41298), ("1", -0.103132), ("2", 1.33007)]
coupling_ops = [[[0, -0.637512-0.865675j, 0.426208+0.367298j],
                 [-0.637512+0.865675j, 0, 0.0134874+0.626248j],
                 [0.426208-0.367298j, 0.0134874-0.626248j, 0]],
                [[0, -0.0726321-0.0364013j, 0.0840132+0.396023j],
                 [-0.0726321+0.0364013j, 0, 0.736853-0.427408j],
                 [0.0840132-0.396023j, 0.736853+0.427408j, 0]]]
g = 0.6

[reservoir]
model = thermal_ohmic
eta = 0.5
omega_j = 5.0
temperature = 1.0

[quadrature]
omega_cutoff = 50.0
"""


def _peak_rss_mb(args, cwd):
    env = _env()
    # compiling the package's modules would add its own peak to each child
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in kB, as Linux reports it")
def test_shift_peak_memory_above_setup(tmp_path):
    # what a 3-level dispersion-and-direct shift adds to the peak RSS of
    # an interpreter that has only loaded the CLI and read its INI: the
    # sampling blocks and what its paths load (about 0.57 MB with 64-panel
    # blocks; 0.88 MB with numpy's lexsort, argmax and int -> float cast;
    # 1.35 MB with a BLAS call and argparse's lazy locale import as well,
    # 3.4 MB with 256-panel blocks, numpy.polynomial and LAPACK too)
    path = tmp_path / "thermal3.ini"
    path.write_text(THERMAL3_INI)
    setup_args = ["-c", "import sys, resrelax.cli\n"
                        "from resrelax.config import parse_config\n"
                        "parse_config(sys.argv[1])", str(path)]
    shift_args = ["-m", "resrelax.cli", "shift", "--config", str(path),
                  "--method", "both", "--out", str(tmp_path / "shift.json")]
    # write the bytecode of every module either run imports: the shift
    # run loads shifts, rates and kernels, which the set-up never does
    _peak_rss_mb(setup_args, tmp_path)
    _peak_rss_mb(shift_args, tmp_path)
    setup = _peak_rss_mb(setup_args, tmp_path)
    shift = _peak_rss_mb(shift_args, tmp_path)
    assert shift - setup <= 2.5


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"),
              "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"] == {"resrelax": "resrelax.cli:run"}


# the public namespace: name -> the submodule that defines it
PUBLIC = {
    **dict.fromkeys((
        "ConfigError", "CutoffTooSmall", "DegenerateTransition",
        "DimensionMismatch", "InsufficientSamples", "NegativeExcitationRate",
        "NonConvergent", "NonFiniteEnergy", "NonHermitianCoupling",
        "NumericalError", "OutOfRange", "PoleOnBoundary", "ResRelaxError",
        "RoundingFloor", "SingularEvaluation", "StepTooLarge",
        "SubdivisionLimit", "ZeroRelaxationRate"), "errors"),
    **dict.fromkeys((
        "SystemSpec", "TransitionElement", "system_spectral_functions",
        "transition_element", "transition_elements", "two_level_system"),
        "system"),
    **dict.fromkeys((
        "AcceleratedVacuum", "InertialVacuum", "ReservoirKernel",
        "TabulatedKernel", "ThermalOhmic", "build_kernel"), "kernels"),
    **dict.fromkeys((
        "Envelope", "IntegralResult", "QuadratureConfig", "kk_real_from_imag",
        "pv_integral"), "quadrature"),
    **dict.fromkeys((
        "EinsteinCoefficients", "RelaxationRate", "TransitionRate",
        "einstein_coefficients", "rate_coefficients", "rate_table",
        "relaxation_rate", "transition_rates"), "rates"),
    **dict.fromkeys((
        "ShiftResult", "ShiftWorkspace", "compute_shift", "delta_sr_relative",
        "lamb_shift_two_level", "shift_direct", "shift_kk"), "shifts"),
    **dict.fromkeys((
        "PopulationState", "StepConfig", "equilibrium_energy",
        "evolve_closed_form", "evolve_ode", "fit_decay_rate"), "dynamics"),
    **dict.fromkeys(("RunConfig", "parse_config"), "config"),
}


def test_public_namespace_is_pinned():
    assert len(PUBLIC) == 58
    assert set(resrelax.__all__) == set(PUBLIC)
    for name, module in PUBLIC.items():
        defining = importlib.import_module("resrelax." + module)
        assert getattr(resrelax, name) is getattr(defining, name), name
    # importable by name, though never listed in __all__
    assert resrelax.trigamma_complex is importlib.import_module(
        "resrelax.kernels").trigamma_complex
    star = {}
    exec("from resrelax import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC)
    with pytest.raises(AttributeError, match="no_such_name"):
        resrelax.no_such_name
