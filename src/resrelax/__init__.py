"""Relaxation rates and radiative shifts of stationary open systems.

A small quantum system coupled to a stationary reservoir relaxes through
two distinct mechanisms: the reservoir's own fluctuations acting on the
system ("rf") and the system's back-reaction on the reservoir ("sr").
This package computes the rate coefficients of both mechanisms from the
reservoir correlation kernel, combines them into Einstein coefficients
and level relaxation rates, and evaluates the corresponding radiative
energy shifts either from a dispersion integral over the rates or from
the kernel directly.

Entry points:

* :func:`two_level_system`, :class:`SystemSpec` describe the system.
* :func:`build_kernel` and the kernel classes describe the reservoir.
* :func:`rate_coefficients` gives both rate coefficients, rf and sr;
  :func:`relaxation_rate` and :func:`einstein_coefficients` build on them.
* :func:`compute_shift` and :func:`lamb_shift_two_level` give shifts.
* :func:`evolve_closed_form` / :func:`evolve_ode` integrate the mean
  energy of a two-level system.
* ``resrelax`` (console script) drives everything from INI configs.

Units: hbar = c = k_B = 1 throughout.

``import resrelax`` is lazy: each public name imports its submodule (and
numpy) on first access, and importing the package changes no
environment variable.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule, grouped by submodule; submodules are
# imported on first access, so importing the package loads no numpy
_EXPORTS = {
    "errors": (
        "ConfigError", "CutoffTooSmall", "DegenerateTransition",
        "DimensionMismatch", "InsufficientSamples", "NegativeExcitationRate",
        "NonConvergent", "NonFiniteEnergy", "NonHermitianCoupling",
        "NumericalError", "OutOfRange", "PoleOnBoundary", "ResRelaxError",
        "RoundingFloor", "SingularEvaluation", "StepTooLarge",
        "SubdivisionLimit", "ZeroRelaxationRate",
    ),
    "system": (
        "SystemSpec", "TransitionElement", "system_spectral_functions",
        "transition_element", "transition_elements", "two_level_system",
    ),
    "kernels": (
        "AcceleratedVacuum", "InertialVacuum", "ReservoirKernel",
        "TabulatedKernel", "ThermalOhmic", "build_kernel",
    ),
    "quadrature": (
        "Envelope", "IntegralResult", "QuadratureConfig", "kk_real_from_imag",
        "pv_integral",
    ),
    "rates": (
        "EinsteinCoefficients", "RelaxationRate", "TransitionRate",
        "einstein_coefficients", "rate_coefficients", "rate_table",
        "relaxation_rate", "transition_rates",
    ),
    "shifts": (
        "ShiftResult", "ShiftWorkspace", "compute_shift", "delta_sr_relative",
        "lamb_shift_two_level", "shift_direct", "shift_kk",
    ),
    "dynamics": (
        "PopulationState", "StepConfig", "equilibrium_energy",
        "evolve_closed_form", "evolve_ode", "fit_decay_rate",
    ),
    "config": ("RunConfig", "parse_config"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)
# importable by name, as it always was, but never part of __all__
_SUBMODULE["trigamma_complex"] = "kernels"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _SUBMODULE:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = importlib.import_module("." + _SUBMODULE[name], __name__)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
