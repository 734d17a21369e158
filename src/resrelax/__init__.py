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
"""

from .errors import (
    ConfigError,
    CutoffTooSmall,
    DegenerateTransition,
    DimensionMismatch,
    InsufficientSamples,
    NegativeExcitationRate,
    NonConvergent,
    NonFiniteEnergy,
    NonHermitianCoupling,
    NumericalError,
    OutOfRange,
    PoleOnBoundary,
    ResRelaxError,
    SingularEvaluation,
    StepTooLarge,
    SubdivisionLimit,
    ZeroRelaxationRate,
)
from .system import (
    SystemSpec,
    TransitionElement,
    system_spectral_functions,
    transition_element,
    transition_elements,
    two_level_system,
    validate_system,
)
from .kernels import (
    AcceleratedVacuum,
    InertialVacuum,
    ReservoirKernel,
    TabulatedKernel,
    ThermalOhmic,
    build_kernel,
    limit_check_accelerated,
    trigamma_complex,
)
from .quadrature import (
    Envelope,
    IntegralResult,
    QuadratureConfig,
    kk_real_from_imag,
    pv_integral,
)
from .rates import (
    EinsteinCoefficients,
    RelaxationRate,
    TransitionRate,
    einstein_coefficients,
    rate_coefficients,
    rate_table,
    relaxation_rate,
    transition_rates,
)
from .shifts import (
    ShiftResult,
    ShiftWorkspace,
    compute_shift,
    delta_sr_relative,
    lamb_shift_two_level,
    shift_direct,
    shift_kk,
)
from .dynamics import (
    PopulationState,
    StepConfig,
    equilibrium_energy,
    evolve_closed_form,
    evolve_ode,
    excitation_fraction,
    fit_decay_rate,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "AcceleratedVacuum",
    "ConfigError",
    "CutoffTooSmall",
    "DegenerateTransition",
    "DimensionMismatch",
    "EinsteinCoefficients",
    "Envelope",
    "InertialVacuum",
    "InsufficientSamples",
    "IntegralResult",
    "NegativeExcitationRate",
    "NonConvergent",
    "NonFiniteEnergy",
    "NonHermitianCoupling",
    "NumericalError",
    "OutOfRange",
    "PoleOnBoundary",
    "PopulationState",
    "QuadratureConfig",
    "RelaxationRate",
    "ResRelaxError",
    "ReservoirKernel",
    "RunConfig",
    "ShiftResult",
    "ShiftWorkspace",
    "SingularEvaluation",
    "StepConfig",
    "StepTooLarge",
    "SubdivisionLimit",
    "SystemSpec",
    "TabulatedKernel",
    "ThermalOhmic",
    "TransitionElement",
    "TransitionRate",
    "ZeroRelaxationRate",
    "build_kernel",
    "compute_shift",
    "delta_sr_relative",
    "einstein_coefficients",
    "equilibrium_energy",
    "evolve_closed_form",
    "evolve_ode",
    "excitation_fraction",
    "fit_decay_rate",
    "kk_real_from_imag",
    "lamb_shift_two_level",
    "limit_check_accelerated",
    "parse_config",
    "pv_integral",
    "rate_coefficients",
    "rate_table",
    "relaxation_rate",
    "shift_direct",
    "shift_kk",
    "system_spectral_functions",
    "transition_element",
    "transition_elements",
    "transition_rates",
    "two_level_system",
    "validate_system",
]
