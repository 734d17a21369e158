"""Mean-energy relaxation of the two-level system.

The mean energy obeys

    d<H>/dtau = -(omega_0/2) gamma_sr - gamma_rf <H>,

so relaxation is always a pure exponential at rate gamma_rf toward

    H_eq = -(omega_0/2) gamma_sr / gamma_rf,

with no oscillation.  Both an exact closed-form evaluation and an
independent fixed-step RK4 integration are provided; their agreement is
one of the package's consistency gates.  The closed form is singular at
gamma_rf = 0 (ZeroRelaxationRate); the ODE path handles that edge and
produces the linear drift -(omega_0/2) gamma_sr tau.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    NumericalError,
    OutOfRange,
    StepTooLarge,
    ZeroRelaxationRate,
)

# RK4 applied to y' = -g y is stable for g*step below this constant
RK4_STABILITY = 2.785
# cost bound on output samples and on RK4 substeps, as on the sweep grid
MAX_STEPS = 10 ** 6


class PopulationState:
    """Mean energy at one proper time; immutable."""

    __slots__ = ("tau", "mean_energy")

    def __init__(self, tau, mean_energy):
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "mean_energy", mean_energy)

    def __setattr__(self, name, value):
        raise AttributeError("PopulationState is immutable")

    __delattr__ = __setattr__


class StepConfig:
    """Controls for the ODE path.

    step: fixed integration step; None picks min(0.01/gamma_rf,
        tau_end/100).  An explicit step beyond the RK4 stability bound
        raises StepTooLarge.
    n_samples: number of evenly spaced output times (default 101).
    """

    __slots__ = ("step", "n_samples")

    def __init__(self, step=None, n_samples=101):
        self.step = step
        self.n_samples = n_samples


def equilibrium_energy(gamma_rf, gamma_sr, omega_0):
    """Stationary mean energy -(omega_0/2) gamma_sr / gamma_rf."""
    if gamma_rf <= 0.0:
        raise ZeroRelaxationRate(
            "equilibrium undefined for gamma_rf = %g <= 0" % gamma_rf
        )
    return -0.5 * omega_0 + 0.5 * omega_0 * (gamma_rf - gamma_sr) / gamma_rf


def evolve_closed_form(gamma_rf, gamma_sr, omega_0, h0, tau):
    """Exact solution of the relaxation equation at proper time tau."""
    if gamma_rf <= 0.0:
        raise ZeroRelaxationRate(
            "closed form requires gamma_rf > 0 (got %g); use evolve_ode"
            % gamma_rf
        )
    h_eq = equilibrium_energy(gamma_rf, gamma_sr, omega_0)
    h = h_eq + (h0 - h_eq) * math.exp(-gamma_rf * tau)
    return PopulationState(tau=float(tau), mean_energy=h)


def _rhs(gamma_rf, gamma_sr, omega_0, h):
    return -0.5 * omega_0 * gamma_sr - gamma_rf * h


def evolve_ode(gamma_rf, gamma_sr, omega_0, h0, tau_end, step_cfg=None):
    """Fixed-step RK4 trajectory sampled at evenly spaced output times.

    Each output interval is integrated with equal substeps no larger
    than the configured step.  More than MAX_STEPS output samples or
    substeps raise OutOfRange before any work.  Returns a list of
    PopulationState.
    """
    if tau_end <= 0.0:
        raise OutOfRange("tau_end must be positive, got %g" % tau_end)
    cfg = step_cfg or StepConfig()
    if cfg.n_samples < 2:
        raise OutOfRange("need at least 2 output samples")
    if cfg.n_samples > MAX_STEPS:
        raise OutOfRange("evolve.n_samples = %s exceeds the limit of 10^6"
                         % cfg.n_samples)
    if cfg.step is not None:
        step = float(cfg.step)
        if step <= 0.0:
            raise StepTooLarge("step must be positive, got %g" % step)
        if gamma_rf > 0.0 and step > RK4_STABILITY / gamma_rf:
            raise StepTooLarge(
                "step %g exceeds the RK4 stability bound %g for gamma_rf = %g"
                % (step, RK4_STABILITY / gamma_rf, gamma_rf)
            )
    else:
        step = tau_end / 100.0
        if gamma_rf > 0.0:
            step = min(step, 0.01 / gamma_rf)
    intervals = cfg.n_samples - 1
    # step is 0 only when tau_end / 100 underflows
    substeps = (intervals * max(1.0, tau_end / intervals / step)
                if step > 0.0 else math.inf)
    if not substeps <= MAX_STEPS:  # also refuses a NaN tau_end or step
        raise OutOfRange(
            "%.3g RK4 substeps of evolve.step = %g up to evolve.tau_end = %g "
            "exceed the limit of 10^6" % (substeps, step, tau_end))
    times = np.linspace(0.0, float(tau_end), cfg.n_samples)
    out = [PopulationState(0.0, float(h0))]
    h = float(h0)
    for t0, t1 in zip(times[:-1], times[1:]):
        span = t1 - t0
        n_sub = max(1, int(math.ceil(span / step - 1e-12)))
        dt = span / n_sub
        for _ in range(n_sub):
            k1 = _rhs(gamma_rf, gamma_sr, omega_0, h)
            k2 = _rhs(gamma_rf, gamma_sr, omega_0, h + 0.5 * dt * k1)
            k3 = _rhs(gamma_rf, gamma_sr, omega_0, h + 0.5 * dt * k2)
            k4 = _rhs(gamma_rf, gamma_sr, omega_0, h + dt * k3)
            h += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(PopulationState(float(t1), h))
    return out


def fit_decay_rate(trajectory, equilibrium):
    """Decay exponent: the least-squares slope of log|<H> - H_eq| in tau.

    Samples whose distance to equilibrium has shrunk below 1e-10 of the
    initial distance are excluded to keep the logarithm well
    conditioned.  Returns the fitted rate (positive for decay).
    """
    taus = np.array([s.tau for s in trajectory])
    devs = np.array([s.mean_energy - equilibrium for s in trajectory])
    d0 = abs(devs[0])
    if d0 == 0.0:
        return 0.0
    keep = np.abs(devs) > 1e-10 * d0
    if np.count_nonzero(keep) < 2:
        return 0.0
    x, y = taus[keep], np.log(np.abs(devs[keep]))
    dx = x - x.mean()
    # np.sum, not np.dot, which raised the peak RSS of `evolve` by about
    # 0.1 MB; an overflow is refused below
    with np.errstate(over="ignore"):
        sxx = np.sum(dx * dx)
    if not 0.0 < sxx < math.inf:
        # the least-squares slope divides by this; at 0 or inf it is NaN
        raise NumericalError(
            "decay fit ill-conditioned: sample times up to %g square to "
            "0 or overflow; choose evolve.tau_end between 1e-150 and 1e150"
            % taus[-1])
    return float(-np.sum(dx * (y - y.mean())) / sxx)
