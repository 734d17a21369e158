"""Stationary reservoir correlation kernels.

Each kernel exposes the symmetric and antisymmetric parts of a two-point
function along the probe trajectory,

    Cs(u) = Re W(u),   Ca(u) = Im W(u),

evaluated at proper-time separation u with a short-distance regulator
eps > 0 (the familiar u -> u - i eps prescription).  Cs is even in u and
feeds dissipation of the first kind; Ca is odd and feeds the second.
Physical results are obtained in the limit eps -> 0, handled upstream by
the regulator extrapolation in quadrature.py.

Implemented models:

``InertialVacuum``
    W(u) = -1 / (4 pi^2 (u - i eps)^2).

``AcceleratedVacuum``
    W(u) = -(a^2/16 pi^2) sinh^-2(a (u - i eps)/2), which satisfies the
    detailed-balance (KMS) condition at temperature a / 2 pi.

``ThermalOhmic``
    Ohmic spectral density J(w) = eta w exp(-w/omega_j) at temperature
    T, expressed through the complex trigamma function.

``TabulatedKernel``
    Cubic-spline interpolation of sampled (u, Cs, Ca) data; insensitive
    to eps and bounded to its grid.

Vacuum kernels additionally provide a band-limited variant (sharp
frequency window |w| < omega_c applied to the spectral decomposition)
that is finite at eps = 0; the direct shift evaluation is built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamples,
    OutOfRange,
    SingularEvaluation,
)
from .quadrature import Envelope

FOUR_PI_SQ = 4.0 * math.pi ** 2
# default truncation policy: u_max = OSC_CYCLES / |omega|, clamped to U_CAP
OSC_CYCLES = 2500.0
U_CAP = 25000.0

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# |z| from which the asymptotic series alone is accurate to rounding
_TRIGAMMA_RADIUS = 16.0


def _trigamma_series(z):
    """1/z + 1/2z^2 + sum_k B_2k / z^(2k+1), by Horner in 1/z^2."""
    inv = 1.0 / z
    inv2 = inv * inv
    acc = inv2 * _BERNOULLI[-1]
    for b in _BERNOULLI[-2::-1]:
        acc += b
        acc *= inv2
    acc += 0.5 * inv
    acc += 1.0
    acc *= inv
    return acc


def trigamma_complex(z):
    """psi_1(z) for complex argument with Re z > 0, vectorized.

    Points with |z| >= 16 go straight to the asymptotic series with
    Bernoulli numbers.  The others are first pushed to Re z >= 16 by the
    recurrence psi_1(z) = 1/z^2 + psi_1(z + 1).  Accuracy is ~1e-15
    relative over the right half-plane.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0):
        raise OutOfRange("trigamma evaluated at Re z <= 0")
    near = np.abs(z) < _TRIGAMMA_RADIUS
    if not np.any(near):
        return _trigamma_series(z)
    out = np.empty_like(z)
    far = ~near
    out[far] = _trigamma_series(z[far])
    zs = z[near]
    shift = np.ceil(_TRIGAMMA_RADIUS - zs.real).astype(int)
    acc = np.zeros_like(zs)
    for k in range(int(shift.max())):
        if shift.min() > k:
            acc += 1.0 / zs ** 2
            zs += 1.0
        else:
            active = shift > k
            acc[active] += 1.0 / zs[active] ** 2
            zs[active] += 1.0
    out[near] = acc + _trigamma_series(zs)
    return out[()]


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# rounding of a closed-form rate coefficient in units of eps, before an
# exponential amplifies it; against mpmath the worst seen is about 2
_ROUNDING_ULPS = 16.0


def _rounding_error(value, exp_arg=0.0, scale=0.0):
    """Floating-point error bound of a closed-form rate coefficient.

    The few roundings of a formula and its libm calls cost a bounded
    number of ulps.  exp(-x) turns the rounding of its argument into a
    relative error of up to x ulps, so the bound grows with ``exp_arg``;
    tanh(y) cannot amplify, its condition number 2y / sinh(2y) being at
    most 1.  The smallest normal number, times 1 + ``scale`` (the factor
    multiplying the exponential), covers results that underflow.
    """
    return (_EPS * (_ROUNDING_ULPS + exp_arg) * np.abs(value)
            + _TINY * (1.0 + scale))


def _x_coth(x):
    """x coth(x) for x >= 0, with its limit 1 at x = 0."""
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, safe / np.tanh(safe), 1.0)


def _as_array(u):
    arr = np.asarray(u, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


class ReservoirKernel:
    """Base class; subclasses implement ``evaluate``."""

    name = "reservoir"
    epsilon_sensitive = True

    def evaluate(self, u, eps):
        """Return (Cs, Ca) arrays at separations ``u`` and regulator ``eps``."""
        raise NotImplementedError

    def rate_coefficients(self, omega):
        """Closed-form rate coefficients per g^2 at |omega|, or None.

        Returns {"rf": (values, errors), "sr": (values, errors)}, arrays
        shaped like ``omega``, with ``errors`` bounding the floating-
        point error of ``values``.  None, the default, leaves the rates
        to the time-domain transforms of ``evaluate``.
        """
        return None

    def origin_scale(self, eps):
        """Smallest structure scale near u = 0 the quadrature must resolve."""
        return max(eps, 1e-12)

    def spectral_scale(self):
        """Frequency extent of the kernel spectrum (1 for scale-free ones).

        Every time-domain transform divides its regulator schedule by at
        least this, keeping eps * omega small across the spectrum.
        """
        return 1.0

    def envelope(self, eps):
        """Decreasing large-u bound on max(|Cs|, |Ca|), or None."""
        return None

    def u_max_hint(self, omega, eps):
        """Truncation point for half-line transforms at frequency omega."""
        w = max(abs(omega), OSC_CYCLES / U_CAP)
        return max(OSC_CYCLES / w, 200.0 * self.origin_scale(eps), 10.0)

    def band_limited(self, omega_c):
        """Band-limited (eps = 0) variant, or None if unsupported."""
        return None

    def describe(self):
        return {"model": self.name}


def _require_positive(value, what):
    if not np.isfinite(value) or value <= 0:
        raise OutOfRange("%s must be positive and finite, got %r" % (what, value))
    return float(value)


class InertialVacuum(ReservoirKernel):
    """Massless-field vacuum along an inertial trajectory."""

    name = "inertial_vacuum"

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        eps = float(eps)
        if eps < 0:
            raise OutOfRange("regulator eps must be >= 0, got %g" % eps)
        if eps == 0.0 and np.any(u == 0.0):
            raise SingularEvaluation(
                "inertial vacuum kernel is singular at u = 0 when eps = 0"
            )
        d = (u * u + eps * eps) ** 2
        cs = -(u * u - eps * eps) / (FOUR_PI_SQ * d)
        ca = -eps * u / (2.0 * math.pi ** 2 * d)
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def rate_coefficients(self, omega):
        """gamma_rf = gamma_sr = |omega| / 8 pi."""
        gamma = np.abs(np.asarray(omega, dtype=float)) / (8.0 * math.pi)
        pair = (gamma, _rounding_error(gamma))
        return {"rf": pair, "sr": pair}

    def envelope(self, eps):
        return Envelope("power", 1.2 / FOUR_PI_SQ)

    def band_limited(self, omega_c):
        return BandLimitedVacuum(omega_c)


class AcceleratedVacuum(ReservoirKernel):
    """Massless-field vacuum along a uniformly accelerated trajectory.

    The kernel is periodic in imaginary proper time with period
    2 pi / a, i.e. thermal at temperature a / (2 pi).
    """

    name = "accelerated_vacuum"
    # beyond this au/2 the complex sinh overflows; use its leading exponential
    _OVERFLOW_X = 350.0

    def __init__(self, acceleration):
        self.acceleration = _require_positive(acceleration, "acceleration")

    @property
    def kms_temperature(self):
        return self.acceleration / (2.0 * math.pi)

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        eps = float(eps)
        if eps < 0:
            raise OutOfRange("regulator eps must be >= 0, got %g" % eps)
        if eps == 0.0 and np.any(u == 0.0):
            raise SingularEvaluation(
                "accelerated vacuum kernel is singular at u = 0 when eps = 0"
            )
        a = self.acceleration
        x = 0.5 * a * u
        y = 0.5 * a * eps
        pref = -(a * a) / (16.0 * math.pi ** 2)
        w = np.empty(u.shape, dtype=complex)
        big = np.abs(x) > self._OVERFLOW_X
        if np.any(~big):
            z = x[~big] - 1j * y
            w[~big] = pref / np.sinh(z) ** 2
        if np.any(big):
            # sinh(z)^-2 ~ 4 exp(-2|x|) exp(2i sign(x) y) far from the axis
            xb = x[big]
            w[big] = pref * 4.0 * np.exp(-2.0 * np.abs(xb)) * np.exp(
                2j * np.sign(xb) * y
            )
        cs, ca = w.real, w.imag
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def rate_coefficients(self, omega):
        """gamma_rf = (|omega| / 8 pi) coth(pi |omega| / a), which is
        a / 8 pi^2 at omega = 0, and gamma_sr = |omega| / 8 pi."""
        w = np.abs(np.asarray(omega, dtype=float))
        a = self.acceleration
        rf = (a / (8.0 * math.pi ** 2)) * _x_coth(math.pi * w / a)
        sr = w / (8.0 * math.pi)
        return {"rf": (rf, _rounding_error(rf)),
                "sr": (sr, _rounding_error(sr))}

    def envelope(self, eps):
        a = self.acceleration
        return Envelope("exp", 1.5 * a * a / FOUR_PI_SQ, a)

    def u_max_hint(self, omega, eps):
        env = self.envelope(eps)
        dead = (math.log(max(env.amplitude, 1e-30)) + 46.0) / self.acceleration
        base = ReservoirKernel.u_max_hint(self, omega, eps)
        return max(min(base, dead), 20.0 / self.acceleration,
                   200.0 * self.origin_scale(eps))

    def band_limited(self, omega_c):
        return BandLimitedVacuum(omega_c, acceleration=self.acceleration)

    def describe(self):
        return {"model": self.name, "acceleration": self.acceleration,
                "kms_temperature": self.kms_temperature}


class ThermalOhmic(ReservoirKernel):
    """Ohmic reservoir J(w) = eta w exp(-w / omega_j) at temperature T.

    With s = 1/omega_j + eps and z = s - i u,

        Cs(u) = eta Re[1/z^2 + 2 T^2 psi_1(1 + T z)]
        Ca(u) = -eta Im[1/z^2] = -2 eta s u / (s^2 + u^2)^2,

    the T = 0 branch dropping the trigamma term.  The antisymmetric part
    carries no temperature dependence.
    """

    name = "thermal_ohmic"

    def __init__(self, eta, omega_j, temperature=0.0):
        self.eta = _require_positive(eta, "eta")
        self.omega_j = _require_positive(omega_j, "omega_j")
        if not np.isfinite(temperature) or temperature < 0:
            raise OutOfRange(
                "temperature must be >= 0 and finite, got %r" % (temperature,)
            )
        self.temperature = float(temperature)

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        eps = float(eps)
        if eps < 0:
            raise OutOfRange("regulator eps must be >= 0, got %g" % eps)
        s = 1.0 / self.omega_j + eps
        z = s - 1j * u
        inv2 = 1.0 / (z * z)
        t = self.temperature
        if t > 0.0:
            cs = self.eta * (inv2 + 2.0 * t * t * trigamma_complex(1.0 + t * z)).real
        else:
            cs = self.eta * inv2.real
        ca = -self.eta * inv2.imag
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def rate_coefficients(self, omega):
        """gamma_sr = (pi/2) eta |omega| exp(-|omega| / omega_j) and
        gamma_rf = gamma_sr coth(|omega| / 2T), which is pi eta T at
        omega = 0 (gamma_rf = gamma_sr at T = 0)."""
        w = np.abs(np.asarray(omega, dtype=float))
        x = w / self.omega_j
        damp = np.exp(-x)
        pref = 0.5 * math.pi * self.eta * w
        sr = pref * damp
        coeffs = {"sr": (sr, _rounding_error(sr, x, pref))}
        t = self.temperature
        if t == 0.0:
            coeffs["rf"] = coeffs["sr"]
        else:
            pref = math.pi * self.eta * t * _x_coth(w / (2.0 * t))
            rf = pref * damp
            coeffs["rf"] = (rf, _rounding_error(rf, x, pref))
        return coeffs

    def origin_scale(self, eps):
        return max(eps, 0.25 / self.omega_j)

    def spectral_scale(self):
        return max(1.0, self.omega_j)

    def envelope(self, eps):
        s = 1.0 / self.omega_j + eps
        amp = 2.0 * self.eta * (1.0 + 2.0 * self.temperature * s)
        return Envelope("power", amp)

    def describe(self):
        return {"model": self.name, "eta": self.eta, "omega_j": self.omega_j,
                "temperature": self.temperature}


class TabulatedKernel(ReservoirKernel):
    """Kernel interpolated from samples on a grid 0 = u_0 < u_1 < ...

    Cs is extended evenly and Ca oddly through the spline boundary
    conditions at u = 0 (clamped slope for Cs, natural for Ca).  The
    regulator is ignored: transforms of a tabulated kernel are single
    pass, with no eps extrapolation.  Evaluations beyond the grid raise
    OutOfRange.
    """

    name = "tabulated"
    epsilon_sensitive = False

    def __init__(self, u_grid, cs_samples, ca_samples):
        from scipy.interpolate import CubicSpline

        u = np.asarray(u_grid, dtype=float)
        cs = np.asarray(cs_samples, dtype=float)
        ca = np.asarray(ca_samples, dtype=float)
        if u.ndim != 1 or u.shape != cs.shape or u.shape != ca.shape:
            raise ConfigError("tabulated kernel columns must be 1-d and equal length")
        if u.size < 4:
            raise InsufficientSamples(
                "tabulated kernel needs at least 4 samples, got %d" % u.size
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(cs))
                and np.all(np.isfinite(ca))):
            raise ConfigError("tabulated kernel samples must be finite")
        if u[0] != 0.0:
            raise OutOfRange("tabulated grid must start at u = 0, got %g" % u[0])
        if np.any(np.diff(u) <= 0):
            raise OutOfRange("tabulated grid must be strictly increasing")
        ca_scale = float(np.max(np.abs(ca)))
        if ca_scale > 0 and abs(ca[0]) > 1e-8 * ca_scale:
            raise ConfigError(
                "antisymmetric part must vanish at u = 0 (odd parity), got %g"
                % ca[0]
            )
        self.u_grid, self.cs_samples, self.ca_samples = u, cs, ca
        self._cs = CubicSpline(u, cs, bc_type=((1, 0.0), "not-a-knot"))
        self._ca = CubicSpline(u, ca, bc_type=((2, 0.0), "not-a-knot"))

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                try:
                    rows.append([float(p) for p in parts[:3]])
                except ValueError:
                    continue  # header line
        if not rows:
            raise InsufficientSamples("no numeric rows found in %s" % path)
        data = np.array(rows)
        if data.shape[1] < 3:
            raise ConfigError("expected columns u, Cs, Ca in %s" % path)
        return cls(data[:, 0], data[:, 1], data[:, 2])

    def evaluate(self, u, eps):
        u, scalar = _as_array(u)
        au = np.abs(u)
        if np.any(au > self.u_grid[-1] * (1.0 + 1e-12)):
            raise OutOfRange(
                "separation %g beyond tabulated grid end %g"
                % (float(np.max(au)), self.u_grid[-1])
            )
        au = np.minimum(au, self.u_grid[-1])
        cs = self._cs(au)
        ca = np.sign(u) * self._ca(au)
        if scalar:
            return float(cs[0]), float(ca[0])
        return cs, ca

    def origin_scale(self, eps):
        return float(self.u_grid[1] - self.u_grid[0])

    def envelope(self, eps):
        n_tail = max(4, self.u_grid.size // 10)
        ut = self.u_grid[-n_tail:]
        mag = np.maximum(np.abs(self.cs_samples[-n_tail:]),
                         np.abs(self.ca_samples[-n_tail:]))
        amp = float(np.max(mag * ut * ut)) * 1.5
        return Envelope("power", max(amp, 1e-300))

    def u_max_hint(self, omega, eps):
        return min(ReservoirKernel.u_max_hint(self, omega, eps),
                   float(self.u_grid[-1]))

    def describe(self):
        return {"model": self.name, "samples": int(self.u_grid.size),
                "u_end": float(self.u_grid[-1])}


# ---------------------------------------------------------------------------
# band-limited vacuum kernels (eps = 0, sharp window |w| < omega_c)

_EULER_GAMMA = 0.5772156649015329
# Ci(x) - gamma - ln x = sum_k (-1)^k x^(2k) / (2k (2k)!), k >= 1; twelve
# terms reach rounding accuracy at x = 2
_CI_SERIES = tuple((-1) ** k / (2 * k * math.factorial(2 * k))
                   for k in range(1, 13))


def _ci(x):
    """Cosine integral Ci(x) = -int_x^inf cos(t) / t dt for x > 0.

    The power series up to x = 2; beyond it Ci(x) = -Re E1(ix), with
    E1(ix) from its continued fraction by the modified Lentz method.
    """
    if x <= 2.0:
        t2 = x * x
        acc = 0.0
        for c in reversed(_CI_SERIES):
            acc = acc * t2 + c
        return _EULER_GAMMA + math.log(x) + acc * t2
    # E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), z = ix
    b = complex(1.0, x)
    c = 1e300
    d = h = 1.0 / b
    for i in range(1, 100):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return -(complex(math.cos(x), -math.sin(x)) * h).real


def _sin_tail(nu, U):
    """int_U^inf sin(nu u) / u^2 du for nu >= 0."""
    if nu == 0.0:
        return 0.0
    return math.sin(nu * U) / U - nu * _ci(nu * U)


def _cos_tail(nu, U):
    """int_U^inf cos(nu u) / u du for nu > 0."""
    return -_ci(nu * U)


# Taylor coefficients in th^2 of the ring pieces for |th| < 0.5:
# (cos th + th sin th - 1) / th^2 = sum_k (-1)^(k-1) (2k-1)/(2k)! th^(2k-2)
# (th cos th - sin th) / th^2 = sum_k (-1)^k 2k/(2k+1)! th^(2k-1), k >= 1;
# eleven terms reach rounding accuracy at |th| = 0.5
_RING_CS_SERIES = tuple((-1) ** (k - 1) * (2 * k - 1) / math.factorial(2 * k)
                        for k in range(1, 12))
_RING_CA_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1)
                        for k in range(1, 12))


@dataclass
class BandLimitedVacuum:
    """Vacuum kernel with its spectrum cut off sharply at |w| = omega_c.

    The windowed symmetric part splits into a "ring" piece carrying the
    cutoff oscillation,

        ring_cs(u) = (thc cos th + th sin th - 1 + cos th)/(4 pi^2 u^2)
                   -> closed forms below,

    and for an accelerated trajectory an additional smooth piece built
    on the trigamma resummation of the thermal image sum.  The ring
    contributions beyond a truncation point U reduce to sine/cosine
    integrals and are supplied analytically by ``ring_tail_*``; the
    windowed antisymmetric part is trajectory independent.
    """

    omega_c: float
    acceleration: float = 0.0

    def __post_init__(self):
        self.omega_c = _require_positive(self.omega_c, "omega_c")
        if self.acceleration < 0:
            raise OutOfRange("acceleration must be >= 0")
        # image-sum window terms exp(-2 pi n omega_c / a) kept explicitly
        self._n_terms = 0
        if self.acceleration > 0:
            q = 2.0 * math.pi * self.omega_c / self.acceleration
            while (self._n_terms + 1) * q < 41.5 and self._n_terms < 8:
                self._n_terms += 1

    # -- ring piece ---------------------------------------------------------

    def ring(self, u):
        """(cs_ring, ca_ring): the pieces oscillating at omega_c."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        th = self.omega_c * u
        small = np.abs(th) < 0.5
        ths = np.where(small, th, 1.0)
        us = np.where(u == 0.0, 1.0, u)
        # closed forms away from u = 0
        cs = (-1.0 + np.cos(th) + th * np.sin(th)) / (FOUR_PI_SQ * us * us)
        ca = (th * np.cos(th) - np.sin(th)) / (FOUR_PI_SQ * us * us)
        # series in th for the short-distance window (polyval is Horner)
        t2 = ths * ths
        pref = self.omega_c ** 2 / FOUR_PI_SQ
        cs_ser = pref * np.polynomial.polynomial.polyval(t2, _RING_CS_SERIES)
        ca_ser = pref * ths * np.polynomial.polynomial.polyval(
            t2, _RING_CA_SERIES)
        cs = np.where(small, cs_ser, cs)
        ca = np.where(small, ca_ser, ca)
        if self._n_terms:
            a = self.acceleration
            wc = self.omega_c
            for n in range(1, self._n_terms + 1):
                zn = 2.0 * math.pi * n / a - 1j * u
                term = np.exp(-wc * zn) * (1.0 + wc * zn) / (zn * zn)
                cs = cs - 2.0 * term.real / FOUR_PI_SQ
        return cs, ca

    # -- smooth piece (zero for the inertial trajectory) --------------------

    def smooth_cs(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.acceleration == 0.0:
            return np.zeros_like(u)
        a = self.acceleration
        r = a / (2.0 * math.pi)
        psi = trigamma_complex(1.0 - 1j * r * u)
        return 2.0 * r * r * psi.real / FOUR_PI_SQ

    def evaluate(self, u, eps=0.0):
        """Full windowed kernel (eps is accepted and ignored)."""
        cs_r, ca = self.ring(u)
        return cs_r + self.smooth_cs(u), ca

    def smooth_envelope(self):
        if self.acceleration == 0.0:
            return None
        return Envelope("power", 1.5 / FOUR_PI_SQ)

    # -- analytic ring tails ------------------------------------------------

    def _check_beat(self, w0):
        w0 = abs(float(w0))
        if w0 >= self.omega_c:
            raise OutOfRange(
                "transform frequency %g must lie inside the window %g"
                % (w0, self.omega_c)
            )
        return w0

    def ring_tail_sin_cs(self, U, w0):
        """int_U^inf ring_cs(u) sin(w0 u) du, exactly."""
        w0 = self._check_beat(w0)
        wc = self.omega_c
        t1 = -_sin_tail(w0, U)
        t2 = 0.5 * (_sin_tail(wc + w0, U) - _sin_tail(wc - w0, U))
        t3 = 0.5 * wc * (_cos_tail(wc - w0, U) - _cos_tail(wc + w0, U))
        return (t1 + t2 + t3) / FOUR_PI_SQ

    def ring_tail_cos_ca(self, U, w0):
        """int_U^inf ring_ca(u) cos(w0 u) du, exactly."""
        w0 = self._check_beat(w0)
        wc = self.omega_c
        t1 = 0.5 * wc * (_cos_tail(wc - w0, U) + _cos_tail(wc + w0, U))
        t2 = -0.5 * (_sin_tail(wc + w0, U) + _sin_tail(wc - w0, U))
        return (t1 + t2) / FOUR_PI_SQ

    def image_tail_error(self, U, w0):
        """Bound on the dropped image-term tails beyond U."""
        if not self._n_terms:
            return 0.0
        wc, a = self.omega_c, self.acceleration
        beat = max(wc - abs(w0), 1.0 / U)
        total = 0.0
        for n in range(1, self._n_terms + 1):
            damp = math.exp(-2.0 * math.pi * n * wc / a)
            total += damp * (2.0 + wc * U) / (U * U) * 2.0 / beat
        return total / FOUR_PI_SQ


def build_kernel(model, **params):
    """Construct a kernel from a model name and keyword parameters."""
    try:
        if model == "inertial_vacuum":
            _reject_extra(params, ())
            return InertialVacuum()
        if model == "accelerated_vacuum":
            _reject_extra(params, ("acceleration",))
            return AcceleratedVacuum(params["acceleration"])
        if model == "thermal_ohmic":
            _reject_extra(params, ("eta", "omega_j", "temperature"))
            return ThermalOhmic(
                params["eta"], params["omega_j"], params.get("temperature", 0.0)
            )
        if model == "tabulated":
            _reject_extra(params, ("path",))
            return TabulatedKernel.from_csv(params["path"])
    except KeyError as missing:
        raise ConfigError(
            "reservoir model %r is missing parameter %s" % (model, missing)
        ) from None
    raise ConfigError(
        "unknown reservoir model %r (expected inertial_vacuum, "
        "accelerated_vacuum, thermal_ohmic or tabulated)" % (model,)
    )


def _reject_extra(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(
            "unexpected reservoir parameter(s): %s" % ", ".join(sorted(extra))
        )
