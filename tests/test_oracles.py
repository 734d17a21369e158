"""The oracles must stay independent of the package they check, and
their floating-point forms must hold up against mpmath."""

import ast
import os

import pytest

import oracles


def test_oracles_do_not_import_the_package():
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    offending = [name for name in imported
                 if name.split(".")[0] == "resrelax" or name.startswith(".")]
    assert not offending, offending


@pytest.mark.parametrize("rel", [1e-4, 1e-5, 3e-6])
def test_inertial_shift_rf_upper_matches_mpmath(rel):
    # a cutoff just above the transition: wc^2 - w0^2 in floating point
    # had put the closed form 4.65e-14 off at rel = 3e-6
    for omega_0 in (1.0, 0.37, 5.3):
        wc = omega_0 * (1.0 + rel)
        exact = oracles.inertial_shift_rf_upper_mp(omega_0, wc)
        got = oracles.inertial_shift_rf_upper(omega_0, wc)
        assert abs(got - exact) <= 2e-15 * abs(exact)
