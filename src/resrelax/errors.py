"""Exception hierarchy.

Configuration problems (bad input data) and numerical failures (a
computation that could not meet its tolerance) are kept on separate
branches so the command line tool can map them to distinct exit codes.
"""

import sys


def _log(name, level, msg, *args, **kwargs):
    """``getLogger(name).<level>(msg, ...)`` if this process has loaded
    logging; one that never imported it has no handler for the record."""
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(name), level)(msg, *args, stacklevel=2,
                                                **kwargs)


class ResRelaxError(Exception):
    """Base class for all package errors."""


class ConfigError(ResRelaxError):
    """Invalid configuration or input data (CLI exit code 2)."""


class NonHermitianCoupling(ConfigError):
    """A coupling operator is not hermitian within tolerance."""


class DimensionMismatch(ConfigError):
    """Operator dimensions do not match the number of levels."""


class NonFiniteEnergy(ConfigError):
    """A level energy is NaN or infinite."""


class DegenerateTransition(ConfigError):
    """A rate or shift was requested for a degenerate level pair."""


class OutOfRange(ConfigError):
    """A parameter or argument outside its domain: a kernel parameter, a
    tabulated kernel's grid, an evolution setting or a positivity check."""


class InsufficientSamples(ConfigError):
    """Too few samples for an extrapolation or a fit."""


class NumericalError(ResRelaxError):
    """A computation failed to converge or is ill posed (CLI exit code 3)."""


class SingularEvaluation(NumericalError):
    """Kernel or integrand evaluated where it is singular or not finite."""


class NonConvergent(NumericalError):
    """Successive refinements or regulator values failed to settle."""


class SubdivisionLimit(NumericalError):
    """Adaptive quadrature exhausted its panel budget."""


class RoundingFloor(SubdivisionLimit):
    """Adaptive quadrature was asked for a tolerance below rounding."""


class PoleOnBoundary(NumericalError):
    """Principal value pole lies on or outside the integration domain."""


class CutoffTooSmall(NumericalError):
    """Frequency cutoff does not dominate the system frequencies."""


class NegativeExcitationRate(NumericalError):
    """Upward Einstein coefficient came out negative beyond tolerance.

    This indicates a sign error in a kernel rather than a rounding
    artifact, so it is raised instead of being clamped to zero.
    """


class ZeroRelaxationRate(NumericalError):
    """Closed-form evolution requested with a vanishing decay rate."""


class StepTooLarge(NumericalError):
    """Requested ODE step violates the stability bound."""
