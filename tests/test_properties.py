"""Property-based checks of the rate coefficients over random parameters.

Examples are drawn deterministically (``derandomize=True``), so every
run checks the same cases; the time-domain route gets only a few, as
each of its examples costs a full transform pass.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resrelax import (
    AcceleratedVacuum,
    InertialVacuum,
    QuadratureConfig,
    ThermalOhmic,
    einstein_coefficients,
    rate_coefficients,
    shift_direct,
    shift_kk,
    two_level_system,
)
from conftest import TimeDomainOnly

CLOSED = settings(derandomize=True, deadline=None, max_examples=150)
TIMED = settings(derandomize=True, deadline=None, max_examples=8)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


kernels = st.one_of(
    st.just(InertialVacuum()),
    log_uniform(1e-2, 1e2).map(AcceleratedVacuum),
    st.builds(ThermalOhmic, log_uniform(0.05, 5.0), log_uniform(0.5, 50.0),
              st.one_of(st.just(0.0), log_uniform(1e-3, 1e2))),
)


@CLOSED
@given(kernel=kernels, omega=log_uniform(1e-6, 1e3), g=log_uniform(1e-2, 10.0))
def test_rf_even_sr_odd(kernel, omega, g):
    # exactly: +-omega in one call and in two calls
    both = rate_coefficients(kernel, np.array([omega, -omega]), g)
    rf, sr = both["rf"], both["sr"]
    assert rf.value[0] == rf.value[1]
    assert sr.value[0] == -sr.value[1]
    plus = rate_coefficients(kernel, omega, g)
    minus = rate_coefficients(kernel, -omega, g)
    assert minus["rf"].value == plus["rf"].value
    assert minus["sr"].value == -plus["sr"].value
    for mech in ("rf", "sr"):
        assert minus[mech].error_estimate == plus[mech].error_estimate
        assert plus[mech].value == both[mech].value[0]


def assert_kms(kernel, omega, x):
    """|A_up - A_down e^{-x}| within the propagated Einstein errors.

    The exponential and the difference are taken in 50-digit arithmetic,
    so only the library's own errors count.
    """
    rates = rate_coefficients(kernel, omega, 1.0)
    ein = einstein_coefficients(rates["rf"], rates["sr"])
    with mpmath.workdps(50):
        gap = abs(mpmath.mpf(ein.a_up)
                  - mpmath.mpf(ein.a_down) * mpmath.exp(-mpmath.mpf(x)))
        assert gap <= ein.a_up_error + ein.a_down_error, (
            kernel.describe(), omega, float(gap))


@CLOSED
@given(omega=log_uniform(1e-6, 1e2), x=log_uniform(1e-6, 30.0),
       eta=log_uniform(0.05, 5.0), omega_j=log_uniform(0.5, 50.0))
def test_thermal_kms(omega, x, eta, omega_j):
    # A_up / A_down = e^{-omega/T}, at omega / T = x
    kernel = ThermalOhmic(eta, omega_j, omega / x)
    assert_kms(kernel, omega, omega / kernel.temperature)


@CLOSED
@given(omega=log_uniform(1e-6, 1e2), x=log_uniform(1e-6, 30.0))
def test_accelerated_kms(omega, x):
    # A_up / A_down = e^{-2 pi omega / a}, at 2 pi omega / a = x
    kernel = AcceleratedVacuum(2.0 * math.pi * omega / x)
    assert_kms(kernel, omega, 2.0 * math.pi * omega / kernel.acceleration)


@TIMED
@given(omega=log_uniform(0.2, 3.0), temperature=log_uniform(0.1, 3.0))
def test_thermal_kms_time_domain(omega, temperature):
    kernel = TimeDomainOnly(ThermalOhmic(0.5, 5.0, temperature))
    assert_kms(kernel, omega, omega / temperature)


@TIMED
@given(omega=log_uniform(0.2, 3.0), acceleration=log_uniform(0.5, 8.0))
def test_accelerated_kms_time_domain(omega, acceleration):
    kernel = TimeDomainOnly(AcceleratedVacuum(acceleration))
    assert_kms(kernel, omega, 2.0 * math.pi * omega / acceleration)


@CLOSED
@given(acceleration=log_uniform(1e-2, 1e3), omega_0=log_uniform(1e-2, 10.0),
       ratio=log_uniform(1.01, 1e4))
def test_accelerated_kk_equals_direct(acceleration, omega_0, ratio):
    # per level and mechanism, the two routes agree within their summed
    # estimates, from cold trajectories, whose thermal feature at w' = 0
    # is far narrower than the PV panels, to hot ones (2 pi wc / a << 1),
    # where the Unruh excess and its remainder beyond wc carry the shift
    atom = two_level_system(omega_0, 1.0)
    cfg = QuadratureConfig(omega_cutoff=omega_0 * ratio)
    kernel = AcceleratedVacuum(acceleration)
    for level in (0, 1):
        kk = shift_kk(atom, kernel, level, cfg)
        direct = shift_direct(atom, kernel, level, cfg)
        for mech in ("rf", "sr"):
            gap = abs(kk[mech].value - direct[mech].value)
            assert gap <= kk[mech].error_estimate + direct[mech].error_estimate
