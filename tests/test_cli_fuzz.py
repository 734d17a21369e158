"""INI fuzzer: malformed and extreme values never escape ``cli.main``.

Every value reaches the command through a real INI file, so the
parser's typing (``ast.literal_eval`` or a bare string) is part of
what is fuzzed.  Whatever the value, the command returns 0, 2 or 3 and
never raises.  Examples are drawn deterministically
(``derandomize=True``), so every run checks the same cases; the explicit
``@example`` cases are values that once escaped as tracebacks or ran
until killed.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from resrelax.cli import main
from resrelax.config import SWEEPABLE_KEYS, _SCHEMA, _parse_value, _read_ini

BASE_INI = """\
[system]
omega_0 = 1.0
g = 1.0

[reservoir]
model = %s

[quadrature]
omega_cutoff = 40.0
"""

RESERVOIRS = (
    "inertial_vacuum",
    "accelerated_vacuum\nacceleration = 2.0",
    "thermal_ohmic\neta = 0.5\nomega_j = 5.0\ntemperature = 1.0",
)

EXTREME = ("nan", "-nan", "inf", "-inf", "1e-300", "-1e-300", "1e400",
           "-1e400", "5e-324", "1.7976931348623157e308", "-1", "0", "0.0",
           "", "[]", "()", "[1.0]", "{}", "None", "True", "1j", "'1.0'",
           "\"\"", "abc", "1e", "[1,", "2**64", "1" + "0" * 400,
           "-1" + "0" * 400, str(2 ** 63), str(10 ** 6 + 1))

values = st.one_of(
    st.sampled_from(EXTREME),
    st.floats().map(repr),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
    st.text(alphabet="-+.e0123456789[](),'\"abcinfj ", max_size=8),
)

EVOLVE_KEYS = ("tau_end", "h0", "step", "n_samples")
MODEL_KEYS = tuple((section, key)
                   for section in ("system", "reservoir", "quadrature")
                   for key in _SCHEMA[section])

FUZZ = settings(derandomize=True, deadline=5000, max_examples=100)


def run(ini, argv, stderr=None):
    """cli.main on ``ini`` in a scratch directory, output discarded;
    stderr goes to ``stderr`` (a text buffer) if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(ini)
        sink = io.StringIO() if stderr is None else stderr
        with contextlib.redirect_stderr(sink):
            return main([*argv, "--config", path,
                         "--out", os.path.join(tmp, "out")])


@FUZZ
@given(reservoir=st.sampled_from(RESERVOIRS),
       entries=st.dictionaries(st.sampled_from(EVOLVE_KEYS), values,
                               min_size=1))
@example(reservoir=RESERVOIRS[0], entries={"step": "1e-300"})
@example(reservoir=RESERVOIRS[0], entries={"n_samples": "100000000"})
@example(reservoir=RESERVOIRS[0], entries={"tau_end": "5e-324"})
@example(reservoir=RESERVOIRS[0], entries={"tau_end": "1e-300"})
def test_evolve_values(reservoir, entries):
    ini = BASE_INI % reservoir + "\n[evolve]\n" + "".join(
        "%s = %s\n" % item for item in entries.items())
    assert run(ini, ["evolve"]) in (0, 2, 3)


@FUZZ
@given(reservoir=st.sampled_from(RESERVOIRS),
       entries=st.dictionaries(st.sampled_from(MODEL_KEYS), values,
                               min_size=1, max_size=3))
@example(reservoir=RESERVOIRS[2], entries={("reservoir", "eta"): "abc"})
@example(reservoir=RESERVOIRS[1],
         entries={("reservoir", "acceleration"): "[1]"})
@example(reservoir=RESERVOIRS[2],
         entries={("reservoir", "temperature"): "1j"})
@example(reservoir=RESERVOIRS[2], entries={("reservoir", "omega_j"): "2**64"})
def test_model_values(reservoir, entries):
    # each drawn value replaces or adds its key in the base INI
    sections = _read_ini((BASE_INI % reservoir).splitlines(), "base")
    for (section, key), value in entries.items():
        sections[section][key] = value
    ini = "".join("[%s]\n%s\n" % (name, "".join(
        "%s = %s\n" % item for item in sec.items()))
        for name, sec in sections.items())
    for argv in (["rates"], ["shift", "--method", "both"]):
        assert run(ini, argv) in (0, 2, 3)


@FUZZ
@given(eta=values)
@example(eta="6.695539764627542e+152")
@example(eta="1e-5")
def test_kk_check_eta(eta):
    # every finite eta in [1e-150, 1e150] passes; kk-check reads no
    # [quadrature] key, so any other value is refused naming kk_check.eta
    ini = BASE_INI % RESERVOIRS[0] + "\n[kk_check]\neta = %s\n" % eta
    err = io.StringIO()
    rc = run(ini, ["kk-check"], err)
    value = _parse_value(eta)
    try:
        admitted = not isinstance(value, bool) and 1e-150 <= value <= 1e150
    except TypeError:
        admitted = False
    assert rc == (0 if admitted else 2), err.getvalue()
    if rc:
        assert "kk_check.eta" in err.getvalue()


@FUZZ
@given(reservoir=st.sampled_from(RESERVOIRS),
       key=st.sampled_from(SWEEPABLE_KEYS),
       quantity=st.sampled_from(("gamma_rf", "einstein_ratio",
                                 "lamb_shift")),
       entries=st.lists(values, min_size=1, max_size=3))
@example(reservoir=RESERVOIRS[0], key="omega_0", quantity="einstein_ratio",
         entries=["5e-324"])
@example(reservoir=RESERVOIRS[0], key="g", quantity="einstein_ratio",
         entries=["0"])
def test_sweep_entries(reservoir, key, quantity, entries):
    ini = BASE_INI % reservoir + "\n[sweep]\nquantity = %s\n%s = [%s]\n" % (
        quantity, key, ", ".join(entries))
    assert run(ini, ["sweep"]) in (0, 2, 3)
