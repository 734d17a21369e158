import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

import oracles
from resrelax import (
    AcceleratedVacuum,
    ConfigError,
    InertialVacuum,
    InsufficientSamples,
    OutOfRange,
    SingularEvaluation,
    TabulatedKernel,
    ThermalOhmic,
    build_kernel,
    trigamma_complex,
)
from resrelax.kernels import BandLimitedVacuum

FOUR_PI_SQ = 4.0 * math.pi ** 2


# ---------------------------------------------------------------------------
# trigamma

def test_trigamma_real_axis_matches_scipy():
    x = np.array([0.3, 1.0, 2.5, 7.0, 15.9, 40.0, 300.0])
    ours = np.array([trigamma_complex(complex(v)).real for v in x])
    ref = special.polygamma(1, x)
    assert_allclose(ours, ref, rtol=1e-13)


def test_trigamma_recurrence_identity():
    # psi_1(z) = psi_1(z + 1) + 1/z^2 holds exactly
    for z in (0.4 + 0.7j, 2.0 - 3.0j, 11.5 + 0.01j, 0.05 + 25.0j):
        lhs = trigamma_complex(z)
        rhs = trigamma_complex(z + 1.0) + 1.0 / (z * z)
        assert abs(lhs - rhs) < 1e-13 * abs(lhs)


def test_trigamma_conjugate_symmetry():
    for z in (1.3 + 2.2j, 8.0 + 0.5j):
        assert trigamma_complex(z.conjugate()) == pytest.approx(
            trigamma_complex(z).conjugate(), rel=1e-14
        )


def _trigamma_oracle_points():
    rng = np.random.default_rng(7)
    # the right half-plane up to Re z = 40, |Im z| = 300
    plane = rng.uniform(1e-3, 40.0, 1500) + 1j * rng.uniform(-300.0, 300.0, 1500)
    near_axis = rng.uniform(1e-3, 2.0, 300) + 1j * rng.uniform(-20.0, 20.0, 300)
    # both sides of |z| = 16, where the recurrence starts or stops, and
    # rings inside it, where the bare asymptotic series would fail
    theta = np.linspace(-0.499 * math.pi, 0.499 * math.pi, 101)
    circle = np.concatenate([
        r * np.exp(1j * theta)
        for r in 16.0 * (1.0 + np.array([-0.05, -1e-3, -1e-9, 1e-9, 1e-3,
                                         0.05]))
    ] + [r * np.exp(1j * theta[::4]) for r in (0.5, 2.0, 5.0, 8.0, 12.0)])
    # the ThermalOhmic line z = 1 + T (s - i u), s = 1/omega_j + eps
    s = 1.0 / 5.0 + 2.5e-3
    line = np.concatenate([
        1.0 + t * (s - 1j * np.linspace(0.0, 300.0 / t, 200))
        for t in (0.25, 1.0, 4.0)
    ])
    return np.concatenate([plane, near_axis, circle, line])


def test_trigamma_matches_mpmath_oracle():
    z = _trigamma_oracle_points()
    ours = trigamma_complex(z)
    ref = np.array([oracles.trigamma(v) for v in z])
    rel = np.abs(ours - ref) / np.abs(ref)
    assert np.max(rel) <= 1e-14, z[np.argmax(rel)]


def test_trigamma_rejects_left_half_plane():
    with pytest.raises(OutOfRange):
        trigamma_complex(-1.0 + 0.5j)


# ---------------------------------------------------------------------------
# unaccelerated vacuum

def test_inertial_matches_complex_form():
    k = InertialVacuum()
    for u in (0.1, 0.7, -2.3):
        for eps in (0.2, 0.01):
            w = -1.0 / (FOUR_PI_SQ * (u - 1j * eps) ** 2)
            cs, ca = k.evaluate(u, eps)
            assert cs == pytest.approx(w.real, rel=1e-14)
            assert ca == pytest.approx(w.imag, rel=1e-14)


def test_inertial_parity():
    k = InertialVacuum()
    cs_p, ca_p = k.evaluate(0.8, 0.05)
    cs_m, ca_m = k.evaluate(-0.8, 0.05)
    assert cs_p == pytest.approx(cs_m)
    assert ca_p == pytest.approx(-ca_m)


def test_inertial_singular_at_origin():
    with pytest.raises(SingularEvaluation):
        InertialVacuum().evaluate(0.0, 0.0)


def test_inertial_unregulated_tail():
    cs, ca = InertialVacuum().evaluate(3.0, 0.0)
    assert cs == pytest.approx(-1.0 / (FOUR_PI_SQ * 9.0), rel=1e-14)
    assert ca == 0.0


# ---------------------------------------------------------------------------
# accelerated vacuum

def test_accelerated_matches_sinh_form():
    a = 1.7
    k = AcceleratedVacuum(acceleration=a)
    for u in (0.3, 1.9, -0.6):
        eps = 0.03
        arg = 0.5 * a * (u - 1j * eps)
        w = -(a * a / (16.0 * math.pi ** 2)) / np.sinh(arg) ** 2
        cs, ca = k.evaluate(u, eps)
        assert cs == pytest.approx(w.real, rel=1e-12)
        assert ca == pytest.approx(w.imag, rel=1e-12)


def test_accelerated_overflow_guard():
    # far beyond the sinh overflow point the kernel must stay finite and
    # follow the exponential asymptote
    a = 2.0
    k = AcceleratedVacuum(acceleration=a)
    u = 400.0
    cs, ca = k.evaluate(u, 0.01)
    expect = -(a * a / (16.0 * math.pi ** 2)) * 4.0 * math.exp(-a * u)
    assert math.isfinite(cs) and math.isfinite(ca)
    assert cs == pytest.approx(expect * math.cos(a * 0.01), rel=1e-10)


def test_accelerated_kms_temperature():
    assert AcceleratedVacuum(acceleration=2.0 * math.pi).kms_temperature \
        == pytest.approx(1.0)


def max_cs_deviation(acceleration, u, eps):
    """max |Cs| deviation of the accelerated kernel from the inertial one."""
    cs_a, _ = AcceleratedVacuum(acceleration).evaluate(u, eps)
    cs_i, _ = InertialVacuum().evaluate(u, eps)
    return float(np.max(np.abs(cs_a - cs_i)))


def test_accelerated_small_a_limit():
    # for a -> 0 the Cs difference approaches the constant a^2/(48 pi^2)
    predicted = 0.05 ** 2 / (48.0 * math.pi ** 2)
    assert max_cs_deviation(0.05, np.linspace(0.2, 2.0, 40), 0.01) \
        < 2.0 * predicted


def test_accelerated_u_max_hint_is_tiny():
    # exponential kernel death makes huge truncation points pointless
    k = AcceleratedVacuum(acceleration=2.0)
    assert k.u_max_hint(1.0, 0.01) < 100.0


def test_accelerated_rejects_nonpositive():
    with pytest.raises(OutOfRange):
        AcceleratedVacuum(acceleration=0.0)


# ---------------------------------------------------------------------------
# thermal Ohmic bath

def spectral_cs(u, eta, omega_j, temperature, s_extra=0.0):
    """Direct spectral-representation quadrature, no trigamma involved."""
    s = 1.0 / omega_j + s_extra

    def f(w):
        occ = 1.0 / math.tanh(0.5 * w / temperature) if temperature > 0 else 1.0
        return eta * w * math.exp(-s * w) * occ * math.cos(w * u)

    val, _ = integrate.quad(f, 0.0, 60.0 * omega_j, limit=600)
    return val


def test_thermal_zero_temperature_form():
    eta, omega_j = 0.8, 3.0
    k = ThermalOhmic(eta=eta, omega_j=omega_j, temperature=0.0)
    for u in (0.05, 0.4, 2.0):
        z = 1.0 / omega_j - 1j * u
        cs, ca = k.evaluate(u, 0.0)
        assert cs == pytest.approx(eta * (1.0 / z ** 2).real, rel=1e-13)
        assert ca == pytest.approx(-eta * (1.0 / z ** 2).imag, rel=1e-13)


def test_thermal_cs_matches_spectral_quadrature():
    eta, omega_j, temp = 0.5, 4.0, 0.7
    k = ThermalOhmic(eta=eta, omega_j=omega_j, temperature=temp)
    for u in (0.1, 0.9, 3.0):
        ref = spectral_cs(u, eta, omega_j, temp)
        cs, _ = k.evaluate(u, 0.0)
        assert cs == pytest.approx(ref, rel=1e-9)


def test_thermal_ca_is_temperature_independent():
    cold = ThermalOhmic(eta=0.5, omega_j=4.0, temperature=0.0)
    hot = ThermalOhmic(eta=0.5, omega_j=4.0, temperature=3.0)
    for u in (0.2, 1.5):
        assert cold.evaluate(u, 0.0)[1] == pytest.approx(
            hot.evaluate(u, 0.0)[1], rel=1e-13
        )


def test_thermal_regulator_shifts_origin():
    k = ThermalOhmic(eta=1.0, omega_j=5.0, temperature=0.0)
    cs_eps, _ = k.evaluate(0.3, 0.04)
    z = (1.0 / 5.0 + 0.04) - 0.3j
    assert cs_eps == pytest.approx((1.0 / z ** 2).real, rel=1e-13)


def test_thermal_rejects_bad_parameters():
    with pytest.raises(OutOfRange):
        ThermalOhmic(eta=-1.0, omega_j=5.0, temperature=0.0)
    with pytest.raises(OutOfRange):
        ThermalOhmic(eta=1.0, omega_j=0.0, temperature=0.0)
    with pytest.raises(OutOfRange):
        ThermalOhmic(eta=1.0, omega_j=5.0, temperature=-0.1)


# ---------------------------------------------------------------------------
# tabulated kernels

def sampled_inertial(eps=0.05, n=64, u_end=6.0):
    u = np.linspace(0.0, u_end, n)
    den = FOUR_PI_SQ * (u * u + eps * eps) ** 2
    cs = -(u * u - eps * eps) / den
    ca = -eps * u / (2.0 * math.pi ** 2 * (u * u + eps * eps) ** 2)
    return u, cs, ca


def test_tabulated_reproduces_samples():
    u, cs, ca = sampled_inertial()
    k = TabulatedKernel(u, cs, ca)
    for idx in (0, 5, 31, 63):
        got = k.evaluate(float(u[idx]), 0.123)  # epsilon is ignored
        assert got[0] == pytest.approx(cs[idx], rel=1e-12, abs=1e-15)
        assert got[1] == pytest.approx(ca[idx], rel=1e-12, abs=1e-15)
    assert k.epsilon_sensitive is False


def test_tabulated_interpolates_smoothly():
    u, cs, ca = sampled_inertial(n=256)
    k = TabulatedKernel(u, cs, ca)
    ref = InertialVacuum()
    for uu in (0.51, 1.77, 4.03):
        cs_ref, ca_ref = ref.evaluate(uu, 0.05)
        got = k.evaluate(uu, 0.0)
        assert got[0] == pytest.approx(cs_ref, rel=1e-4)
        assert got[1] == pytest.approx(ca_ref, rel=1e-4)


def test_tabulated_negative_u_by_parity():
    u, cs, ca = sampled_inertial()
    k = TabulatedKernel(u, cs, ca)
    assert k.evaluate(-1.2, 0.0)[0] == pytest.approx(k.evaluate(1.2, 0.0)[0])
    assert k.evaluate(-1.2, 0.0)[1] == pytest.approx(-k.evaluate(1.2, 0.0)[1])


def test_tabulated_rejects_short_or_bad_grids():
    with pytest.raises(InsufficientSamples):
        TabulatedKernel([0.0, 0.1, 0.2], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        TabulatedKernel([0.1, 0.2, 0.3, 0.4], np.ones(4), np.zeros(4))
    u = [0.0, 0.1, 0.1, 0.3]
    with pytest.raises(ConfigError):
        TabulatedKernel(u, np.ones(4), np.zeros(4))


def test_tabulated_rejects_odd_part_at_origin():
    u = np.linspace(0.0, 3.0, 16)
    ca = np.full(16, 0.5)
    with pytest.raises(ConfigError):
        TabulatedKernel(u, np.ones(16), ca)


def test_tabulated_out_of_range():
    u, cs, ca = sampled_inertial(u_end=2.0)
    k = TabulatedKernel(u, cs, ca)
    with pytest.raises(OutOfRange):
        k.evaluate(2.5, 0.0)


def test_tabulated_from_csv(tmp_path):
    u, cs, ca = sampled_inertial(n=16)
    path = tmp_path / "kernel.csv"
    lines = ["u,Cs,Ca"]
    lines += ["%.17g,%.17g,%.17g" % (a, b, c) for a, b, c in zip(u, cs, ca)]
    path.write_text("\n".join(lines) + "\n")
    k = TabulatedKernel.from_csv(str(path))
    assert k.evaluate(float(u[7]), 0.0)[0] == pytest.approx(cs[7])


# ---------------------------------------------------------------------------
# band-limited vacuum (sharp frequency window)

def test_ring_matches_spectral_quadrature():
    k = BandLimitedVacuum(omega_c=6.0)
    for u in (0.4, 1.3):
        ref_cs = integrate.quad(
            lambda w: w * math.cos(w * u), 0.0, 6.0, limit=200
        )[0] / FOUR_PI_SQ
        ref_ca = -integrate.quad(
            lambda w: w * math.sin(w * u), 0.0, 6.0, limit=200
        )[0] / FOUR_PI_SQ
        cs, ca = k.evaluate(u)
        assert cs == pytest.approx(ref_cs, rel=1e-12)
        assert ca == pytest.approx(ref_ca, rel=1e-12)


def test_ring_series_joins_closed_form():
    # the small-angle series and the closed form must agree around the
    # switch point theta = 0.5
    k = BandLimitedVacuum(omega_c=10.0)
    thetas = np.linspace(0.35, 0.65, 31)
    vals = np.array([k.ring(t / 10.0) for t in thetas])
    assert np.all(np.isfinite(vals))
    diffs = np.diff(vals, axis=0)
    assert np.max(np.abs(np.diff(diffs, axis=0))) < 1e-4 * np.max(np.abs(vals))


def test_ring_series_matches_mpmath():
    # the small-angle series must be accurate to rounding up to its
    # switch point theta = 0.5
    wc = 40.0
    k = BandLimitedVacuum(omega_c=wc)
    thetas = np.concatenate([np.geomspace(1e-8, 0.5, 40),
                             np.linspace(0.3, 0.5, 21)])
    cs, ca = k.ring(thetas / wc)
    scale = wc ** 2 / FOUR_PI_SQ
    for th, c_s, c_a in zip(thetas, cs, ca):
        ref_cs, ref_ca = oracles.ring_mp(wc, th / wc)
        assert abs(c_s - ref_cs) <= 4e-16 * scale
        assert abs(c_a - ref_ca) <= 4e-16 * scale * th


def test_windowed_accelerated_matches_quadrature():
    # thermal-window spectral form: the windowed kernel for acceleration a
    # equals the integral of (w/4pi^2) coth(pi w / a) cos(w u) - odd part
    a = 1.3
    k = BandLimitedVacuum(omega_c=5.0, acceleration=a)

    def cs_ref(u):
        return integrate.quad(
            lambda w: w / math.tanh(math.pi * w / a) * math.cos(w * u),
            0.0, 5.0, limit=400,
        )[0] / FOUR_PI_SQ

    def ca_ref(u):
        return -integrate.quad(
            lambda w: w * math.sin(w * u), 0.0, 5.0, limit=400
        )[0] / FOUR_PI_SQ

    for u in (0.3, 1.1):
        cs, ca = k.evaluate(u)
        assert cs == pytest.approx(cs_ref(u), rel=1e-9)
        assert ca == pytest.approx(ca_ref(u), rel=1e-9)


def test_window_tail_increment_identity():
    # tail(U) - tail(U') equals the finite integral between the two
    # truncation points; checks the Si/Ci closed forms without needing a
    # semi-infinite numerical integral
    k = BandLimitedVacuum(omega_c=8.0)
    w0 = 1.4
    lo_u, hi_u = 2.0, 7.0
    inc_cs = integrate.quad(
        lambda u: k.ring(u)[0].item() * math.sin(w0 * u), lo_u, hi_u,
        limit=800,
    )[0]
    got = k.ring_tail_sin_cs(lo_u, w0) - k.ring_tail_sin_cs(hi_u, w0)
    assert got == pytest.approx(inc_cs, rel=1e-9, abs=1e-13)
    inc_ca = integrate.quad(
        lambda u: k.ring(u)[1].item() * math.cos(w0 * u), lo_u, hi_u,
        limit=800,
    )[0]
    got_ca = k.ring_tail_cos_ca(lo_u, w0) - k.ring_tail_cos_ca(hi_u, w0)
    assert got_ca == pytest.approx(inc_ca, rel=1e-9, abs=1e-13)


def test_ci_matches_mpmath():
    # the cosine integral behind the ring tails: power series up to x = 2,
    # continued fraction beyond; checked on both sides of the switch and
    # at the first zeros of Ci, where only an absolute error is meaningful
    from resrelax.kernels import _ci

    zeros = (0.6165054856207162, 3.384180422551186, 6.427047744050339,
             9.566843113548)
    xs = np.concatenate([np.geomspace(1e-8, 1e3, 400),
                         np.linspace(1.9, 2.1, 41), zeros,
                         [np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)]])
    for x in xs:
        assert abs(_ci(float(x)) - oracles.ci_mp(x)) <= 4e-15


def test_window_rejects_beat_collision():
    k = BandLimitedVacuum(omega_c=2.0)
    with pytest.raises(OutOfRange):
        k.ring_tail_sin_cs(3.0, 2.0)


# ---------------------------------------------------------------------------
# factory

def test_build_kernel_dispatch():
    assert isinstance(build_kernel("inertial_vacuum"), InertialVacuum)
    k = build_kernel("accelerated_vacuum", acceleration=2.0)
    assert isinstance(k, AcceleratedVacuum)
    assert k.acceleration == 2.0
    k = build_kernel("thermal_ohmic", eta=1.0, omega_j=3.0, temperature=0.5)
    assert isinstance(k, ThermalOhmic)


def test_build_kernel_rejects_unknown():
    with pytest.raises(ConfigError):
        build_kernel("no_such_model")
    with pytest.raises(ConfigError):
        build_kernel("inertial_vacuum", acceleration=1.0)
