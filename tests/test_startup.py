"""Cold start: what importing the package and running the CLI load.

scipy.interpolate takes most of the start-up time of a process, and
only the tabulated kernel, the spline workspace of a kernel without
closed-form rates and ``kk_check.table`` use it, so a CLI run on a
closed-form kernel never imports scipy.  ``import resrelax`` loads no
submodule and no numpy and leaves the environment alone;
``import resrelax.cli`` pins OpenBLAS to one thread unless the caller
chose a thread count.  Each case runs in a fresh interpreter so that
no other test's imports leak into ``sys.modules``.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import resrelax

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# runs the CLI with the given arguments, then reports the scipy modules
# loaded by then
_RUN = """\
import json, sys
from resrelax.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
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
    ("thermal_ohmic", THERMAL_INI, ["shift", "--method", "both"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["rates"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["evolve"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["kk-check"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["sweep"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["shift", "--method", "kk"]),
    ("accelerated_vacuum", ACCELERATED_INI, ["shift", "--method", "both"]),
    ("inertial_vacuum", INERTIAL_INI, ["shift", "--method", "both"]),
]


def _python(args, cwd, **env_vars):
    env = dict(os.environ)
    # this process may have imported resrelax.cli, which sets a default
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    out = _python(["-c", "import sys, resrelax.cli\n"
                         "print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'scipy'))"], tmp_path)
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "model, ini, command", CASES,
    ids=["%s-%s" % (model, "-".join(cmd).replace("--method-", ""))
         for model, _, cmd in CASES])
def test_closed_form_commands_load_no_scipy(tmp_path, model, ini, command):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    argv = [*command, "--config", str(path), "--out", str(tmp_path / "out")]
    report = json.loads(_python(["-c", _RUN, *argv], tmp_path))
    assert report == {"rc": 0, "scipy": []}
    assert (tmp_path / "out").stat().st_size > 0


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


# the public namespace: name -> the submodule that defines it
PUBLIC = {
    **dict.fromkeys((
        "ConfigError", "CutoffTooSmall", "DegenerateTransition",
        "DimensionMismatch", "InsufficientSamples", "NegativeExcitationRate",
        "NonConvergent", "NonFiniteEnergy", "NonHermitianCoupling",
        "NumericalError", "OutOfRange", "PoleOnBoundary", "ResRelaxError",
        "SingularEvaluation", "StepTooLarge", "SubdivisionLimit",
        "ZeroRelaxationRate"), "errors"),
    **dict.fromkeys((
        "SystemSpec", "TransitionElement", "system_spectral_functions",
        "transition_element", "transition_elements", "two_level_system",
        "validate_system"), "system"),
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
        "evolve_closed_form", "evolve_ode", "excitation_fraction",
        "fit_decay_rate"), "dynamics"),
    **dict.fromkeys(("RunConfig", "parse_config"), "config"),
}


def test_public_namespace_is_pinned():
    assert len(PUBLIC) == 59
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
