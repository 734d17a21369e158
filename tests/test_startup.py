"""Cold start: a CLI run on a closed-form kernel never imports scipy.

scipy.interpolate takes most of the start-up time of a process, and
only the tabulated kernel, the spline workspace of a kernel without
closed-form rates and ``kk_check.table`` use it.  Each case runs in a
fresh interpreter so that no other test's imports leak into
``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

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


def _python(args, cwd):
    env = dict(os.environ)
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
