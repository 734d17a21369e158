import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from resrelax import QuadratureConfig, ThermalOhmic, two_level_system
from resrelax.kernels import ReservoirKernel


class TimeDomainOnly:
    """A kernel without its closed-form rate coefficients.

    Delegates everything else to the wrapped kernel, so the rate
    functions and shift workspaces fall back to the time-domain engine,
    the route every kernel without a closed form takes.
    """

    def __init__(self, kernel):
        self._kernel = kernel

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def rate_coefficients(self, omega):
        return None


class CountingKernel:
    """A kernel that records every ``evaluate`` call: its eps and nodes.

    Delegates everything else to the wrapped kernel, like TimeDomainOnly.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def evaluate(self, u, eps):
        self.calls.append((float(eps), np.array(u, dtype=float)))
        return self._kernel.evaluate(u, eps)


class EpsilonSensitive:
    """A kernel whose transforms sample the whole regulator schedule.

    Marks a kernel that is regular at eps = 0 as eps-sensitive, so its
    transforms extrapolate eps -> 0 like those of a kernel that is not.
    Delegates everything else to the wrapped kernel, like TimeDomainOnly.
    """

    epsilon_sensitive = True

    def __init__(self, kernel):
        self._kernel = kernel

    def __getattr__(self, name):
        return getattr(self._kernel, name)


class ConstantRates(ReservoirKernel):
    """A kernel whose closed-form rate coefficients are one constant.

    With gamma_rf frozen, the dispersion integral of the two-level
    splitting has an elementary antiderivative.
    """

    name = "constant_rates"

    def __init__(self, gamma):
        self.gamma = float(gamma)

    def rate_coefficients(self, omega):
        pair = (np.full(np.shape(omega), self.gamma),
                np.zeros(np.shape(omega)))
        return {"rf": pair, "sr": pair}


@pytest.fixture
def constant_rates():
    """A kernel with constant rate coefficients (see ConstantRates)."""
    return ConstantRates


@pytest.fixture
def counting():
    """Wraps a kernel so that its evaluate calls are recorded."""
    return CountingKernel


@pytest.fixture
def eps_sensitive():
    """Wraps a kernel so that its transforms sample every eps."""
    return EpsilonSensitive


@pytest.fixture
def time_domain():
    """Wraps a kernel so that its rates come from the time-domain engine."""
    return TimeDomainOnly


@pytest.fixture
def rate_routes():
    """(name, wrap) for both rate routes: closed form and time domain."""
    return (("closed form", lambda kernel: kernel),
            ("time domain", TimeDomainOnly))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def atom():
    return two_level_system(omega_0=1.0, g=1.0)


@pytest.fixture
def thermal_kernel():
    return ThermalOhmic(eta=0.5, omega_j=5.0, temperature=1.0)


@pytest.fixture
def cfg():
    return QuadratureConfig(omega_cutoff=40.0)
