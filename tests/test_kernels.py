import math
import tracemalloc

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
    NumericalError,
    OutOfRange,
    SingularEvaluation,
    TabulatedKernel,
    ThermalOhmic,
    build_kernel,
    evolve_ode,
    trigamma_complex,
)
from resrelax.kernels import BandLimitedVacuum, UnruhExcess

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
    # no config value reaches Re z <= 0, so it is a numerical failure
    # (CLI exit 3), not a configuration error (exit 2)
    with pytest.raises(SingularEvaluation) as info:
        trigamma_complex(-1.0 + 0.5j)
    assert isinstance(info.value, NumericalError)
    assert not isinstance(info.value, ConfigError)


def test_out_of_range_is_a_config_error_of_every_domain():
    # a kernel parameter, a tabulated grid, an evolution setting: each
    # is a value a config supplies (CLI exit 2)
    for call in (lambda: AcceleratedVacuum(0.0),
                 lambda: TabulatedKernel(np.linspace(0.5, 2.0, 4),
                                         np.ones(4), np.zeros(4)),
                 lambda: evolve_ode(1.0, 0.5, 1.0, 0.5, -1.0)):
        with pytest.raises(OutOfRange) as info:
            call()
        assert isinstance(info.value, ConfigError)


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
    # at eps = 0 the sinh form; at finite eps the regulated inertial
    # kernel plus the (regular) excess, the regulator acting on the
    # inertial part alone
    a = 1.7
    k = AcceleratedVacuum(acceleration=a)
    for u in (0.3, 1.9, -0.6):
        cs, ca = k.evaluate(u, 0.0)
        assert cs == pytest.approx(oracles.accelerated_cs(a, u), rel=1e-12)
        assert ca == 0.0
        eps = 0.03
        cs_i, ca_i = InertialVacuum().evaluate(u, eps)
        cs, ca = k.evaluate(u, eps)
        assert cs == pytest.approx(cs_i + oracles.unruh_excess_cs(a, u),
                                   rel=1e-12)
        assert ca == pytest.approx(ca_i, rel=1e-12)


def test_accelerated_overflow_guard():
    # far out the kernel is the difference of the inertial kernel and
    # the excess, each about 1 / (4 pi^2 u^2): its error is absolute,
    # within a few ulps of that cancellation floor, from x = a u / 2 = 2
    # to 2e4, far beyond where a sinh of x would overflow
    for a in (0.05, 2.0, 1e3):
        k = AcceleratedVacuum(acceleration=a)
        u = 2.0 * np.concatenate([[20.0], np.geomspace(2.0, 2e4, 60)]) / a
        cs, ca = k.evaluate(u, 0.0)
        assert np.all(np.isfinite(cs)) and np.all(ca == 0.0)
        for ui, c in zip(u, cs):
            floor = 2.0 ** -52 / (FOUR_PI_SQ * ui * ui)
            assert abs(c - oracles.accelerated_cs(a, ui)) <= 4.0 * floor, (a, ui)


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
# Unruh excess (accelerated minus inertial vacuum)

@pytest.mark.parametrize("a", [1e-3, 0.7, 2.0, 37.1, 556.04, 1e6])
def test_unruh_excess_matches_mpmath(a):
    # within 4 ulps of its value a^2 / 48 pi^2 at u = 0, from x = a u / 2
    # = 1e-9, where 1/x^2 - 1/sinh^2 x cancels 18 digits, to 60
    k = UnruhExcess(a)
    u = 2.0 * np.concatenate([[0.0], np.geomspace(1e-9, 60.0, 400),
                              np.linspace(1.9, 2.1, 41)]) / a
    cs, ca = k.evaluate(u, 0.0)
    scale = a * a / (48.0 * math.pi ** 2)
    for ui, c in zip(u, cs):
        assert abs(c - oracles.unruh_excess_cs(a, ui)) <= 4.0 * 2.0 ** -52 * scale
    assert np.all(ca == 0.0)
    # the power envelope, up to rounding where x is large
    assert np.all(cs[1:] <= (1.0 + 1e-14) / (FOUR_PI_SQ * u[1:] ** 2))


def test_unruh_excess_is_accelerated_minus_inertial():
    # the accelerated kernel, built as the inertial one plus UnruhExcess,
    # against the 50-digit sinh form
    a = 1.7
    u = np.array([0.05, 0.3, 1.9, 6.0])
    cs = AcceleratedVacuum(a).evaluate(u, 0.0)[0]
    ref = [oracles.accelerated_cs(a, ui) for ui in u]
    assert_allclose(cs, ref, rtol=1e-10)


@pytest.mark.parametrize("a", [1e-2, 2.0, 1e3])
def test_unruh_excess_rates(a):
    # rf is the excess (w / 8 pi)(coth(pi w / a) - 1) of the accelerated
    # over the inertial rate, within its error bound of the 50-digit
    # difference (which keeps 24 digits at 2 pi w / a = 60), and sr
    # vanishes; far beyond, rf underflows quietly to 0
    w = np.concatenate([[0.0], np.geomspace(1e-6, 60.0 / (2.0 * math.pi),
                                            60) * a])
    got = UnruhExcess(a).rate_coefficients(w)
    rf, rf_err = got["rf"]
    assert np.all(got["sr"][0] == 0.0) and np.all(got["sr"][1] == 0.0)
    acc = AcceleratedVacuum(a).rate_coefficients(w)["rf"]
    inert = InertialVacuum().rate_coefficients(w)["rf"]
    for i, wi in enumerate(w):
        ref = (oracles.mp_gammas("accelerated_vacuum", wi, acceleration=a)[0]
               - oracles.mp_gammas("inertial_vacuum", wi)[0])
        assert abs(rf[i] - float(ref)) <= rf_err[i]
        assert abs(rf[i] - (acc[0][i] - inert[0][i])) <= (
            rf_err[i] + acc[1][i] + inert[1][i])
    far = UnruhExcess(a).rate_coefficients(np.array([1e3, 1e300]) * a)["rf"]
    assert np.all(far[0] >= 0.0) and np.all(far[0] < 1e-300)


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


def thermal_closed_form(kernel, omega):
    """ThermalOhmic's rate coefficients step by step, a new array for
    each product, with the error bound of kernels._rounding_error."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    w = np.abs(np.asarray(omega, dtype=float))
    x = w / kernel.omega_j
    damp = np.exp(-x)

    def with_bound(pref):
        value = pref * damp
        return value, np.abs((x + 16.0) * eps * value) + (pref + 1.0) * tiny

    coeffs = {"sr": with_bound(0.5 * math.pi * kernel.eta * w)}
    t = kernel.temperature
    if t == 0.0:
        coeffs["rf"] = coeffs["sr"]
    else:
        y = w / (2.0 * t)
        safe = np.where(y > 0.0, y, 1.0)
        x_coth = np.where(y > 0.0, safe / np.tanh(safe), 1.0)
        coeffs["rf"] = with_bound(math.pi * kernel.eta * t * x_coth)
    return coeffs


@pytest.mark.parametrize("temperature", [0.0, 1e-3, 1.0, 400.0])
@pytest.mark.parametrize("omega", [
    0.7, 0.0, -2.5, np.array([]), np.linspace(-30.0, 30.0, 855),
    np.random.default_rng(5).uniform(-50.0, 50.0, (7, 11)),
    np.array([0.0, 1e-300, 5e-324, 1e3, 1e308, 750.0])],
    ids=["scalar", "zero", "negative", "empty", "1d", "2d", "extremes"])
def test_thermal_rate_coefficients_match_formula_bits(temperature, omega):
    # the in-place evaluation changes no bit, shape or type
    kernel = ThermalOhmic(0.5, 5.0, temperature)
    with np.errstate(all="ignore"):
        got = kernel.rate_coefficients(omega)
        want = thermal_closed_form(kernel, omega)
    for kind in ("rf", "sr"):
        for a, b in zip(got[kind], want[kind]):
            assert type(a) is type(b)
            assert np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_thermal_rate_coefficients_peak_memory():
    # in place: the four results, x and one more array the size of omega
    # (about 9.3 of them when each product was a new array)
    w = np.linspace(0.01, 40.0, 855)
    kernel = ThermalOhmic(0.5, 5.0, 1.0)
    kernel.rate_coefficients(w)
    tracemalloc.start()
    try:
        kernel.rate_coefficients(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * w.nbytes


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
        (cs,), (ca,) = k.ring(u)
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


def test_ring_series_is_the_power_series_horner():
    # np.polyval on the reversed coefficients runs numpy.polynomial's
    # Horner recurrence, bit for bit, without loading numpy.polynomial
    from numpy.polynomial.polynomial import polyval

    from resrelax.kernels import _RING_CA_SERIES, _RING_CS_SERIES
    wc = 7.0
    k = BandLimitedVacuum(omega_c=wc)
    u = np.sqrt(np.linspace(0.0, 0.25, 100_000, endpoint=False)) / wc
    cs, ca = k.ring(u)
    th = wc * u
    pref = wc ** 2 / FOUR_PI_SQ
    t2 = th * th
    assert np.array_equal(cs, pref * polyval(t2, _RING_CS_SERIES))
    assert np.array_equal(ca, pref * th * polyval(t2, _RING_CA_SERIES))


def test_windowed_accelerated_matches_quadrature():
    # the accelerated window is the inertial ring plus the Unruh excess,
    # whose Cs is the cosine transform of its spectrum on [0, inf):
    # (w / 4 pi^2)(coth(pi w / a) - 1) = (w / 2 pi^2) / expm1(2 pi w / a)
    a = 1.3
    k = AcceleratedVacuum(a).band_limited(5.0)
    assert isinstance(k.excess, UnruhExcess)

    def cs_ref(u):
        def f(w):
            y = 2.0 * math.pi * w / a
            return w * math.exp(-y) / -math.expm1(-y) * math.cos(w * u)

        return integrate.quad(f, 0.0, np.inf, limit=400)[0] / (
            2.0 * math.pi ** 2)

    for u in (0.0, 0.3, 1.1, 7.0):
        cs, ca = k.excess.evaluate(u, 0.0)
        assert cs == pytest.approx(cs_ref(u), rel=1e-9)
        assert ca == 0.0


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
